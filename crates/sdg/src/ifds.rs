//! IFDS taint analysis with bounded-depth access paths — the seventh
//! configuration, and a genuinely independent algorithm from the three
//! thin slicers: Reps–Horwitz–Sagiv tabulation over the exploded
//! supergraph whose dataflow facts are *access paths* `base.f.g` of
//! configurable depth `k` (after Allen et al.'s IFDS-with-access-paths
//! formulation), widening to field-insensitive taint when a path grows
//! past the bound.
//!
//! ## Fact space
//!
//! A fact is a base plus an [`ApFields`] suffix:
//!
//! - `Local(node, var, F)` — with `F` empty: the register's *value* is
//!   tainted (exactly a hybrid/CS fact); with `F = f.g`: the register
//!   holds an object whose `f.g` chain reaches tainted data.
//! - `Heap(ik, F)` — the abstract object's `F` chain is tainted
//!   (`F[0]` is the stored-into field).
//! - `Static(field, F)` — a static field holds an object whose `F`
//!   chain is tainted (`F` empty: the static value itself).
//!
//! A store `o.f = v` *prepends* `f` to `v`'s suffix; a load `x = o.f`
//! *consumes* `f`. When prepending would exceed `k` the path truncates
//! and sets the `widened` flag: a widened path represents itself **and
//! every extension**, so a widened-empty suffix matches any load — at
//! `k = 0` every store widens immediately and the analysis degenerates
//! to field-insensitive taint ("the object is tainted").
//!
//! ## Tabulation
//!
//! Procedure-local value flow is summarized once per callee entry
//! register with the same RHS endpoint summaries as the hybrid slicer
//! (the summary shape is field-generic: local flow never changes a
//! suffix, so one summary serves every instantiation). Heap flow is
//! matched through the phase-1 points-to solution: a `Heap(ik, F)` fact
//! reaches the loads whose base may point to `ik`, and is *injected*
//! into every local alias of `ik` so that deeper chains (storing a
//! carrier object, passing it to a callee) are explored — this
//! injection is what makes paths of length ≥ 2, and therefore the
//! depth bound, observable.
//!
//! ## Determinism
//!
//! Everything that reaches the output is iterated in a structurally
//! fixed order: nodes in call-graph order, use/load vectors in program
//! order, the alias index sorted by `(node, var)`, ref-seed facts sorted
//! before seeding. No `HashMap` iteration order is ever observable in
//! the flow set or the witness paths, so the result is byte-identical
//! at every thread count (the parallel engine runs IFDS rules as whole
//! units; see `taj_core::parallel`).

use std::collections::{HashMap, HashSet, VecDeque};

use jir::inst::{Loc, Var};
use jir::{FieldId, MethodId};
use taj_pointer::CGNodeId;
use taj_supervise::{InterruptReason, Supervisor};

use crate::spec::{Flow, FlowStep, SliceResult, StepKind, StmtNode};
use crate::view::{FieldKey, ProgramView, SliceIndex, Use};

/// A bounded access-path suffix: at most `k` fields, with a widening
/// flag meaning "this prefix *and every extension of it*".
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct ApFields {
    /// The field chain, outermost dereference first (`o.f.g` → `[f, g]`).
    path: Vec<FieldKey>,
    /// Widened: the chain overflowed the depth bound, so any suffix
    /// beyond `path` is also considered tainted.
    widened: bool,
}

impl ApFields {
    /// The empty suffix: the value itself is tainted.
    pub fn value() -> Self {
        ApFields::default()
    }

    /// Whether this suffix taints the base value itself — the condition
    /// for sink reporting. True for the precise empty suffix and for the
    /// widened-empty suffix (field-insensitive "object tainted").
    pub fn is_value(&self) -> bool {
        self.path.is_empty()
    }

    /// The outermost field, if any.
    fn first(&self) -> Option<FieldKey> {
        self.path.first().copied()
    }

    /// The suffix after a store into `field`: prepend, truncate to `k`,
    /// widen on overflow. At `k = 0` every store widens immediately.
    fn prepend(&self, field: FieldKey, k: usize) -> Self {
        let mut path = Vec::with_capacity(self.path.len() + 1);
        path.push(field);
        path.extend(self.path.iter().copied());
        let mut widened = self.widened;
        if path.len() > k {
            path.truncate(k);
            widened = true;
        }
        ApFields { path, widened }
    }

    /// The suffix after a load of `field`, or `None` if the load cannot
    /// touch tainted data. An exact first-field match consumes it; a
    /// widened-empty suffix matches any field and stays itself.
    fn consume(&self, field: FieldKey) -> Option<ApFields> {
        if self.first() == Some(field) {
            Some(ApFields { path: self.path[1..].to_vec(), widened: self.widened })
        } else if self.widened && self.path.is_empty() {
            Some(self.clone())
        } else {
            None
        }
    }
}

/// One exploded-supergraph fact. See the module docs for semantics.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum Fact {
    /// A register of a call-graph node, qualified by a suffix.
    Local(CGNodeId, Var, ApFields),
    /// An abstract object (raw instance key), qualified by a suffix
    /// whose first field is the stored-into field.
    Heap(u32, ApFields),
    /// A static field, qualified by a suffix.
    Static(FieldId, ApFields),
}

/// What a callee does with taint entering through one register — the
/// same field-generic RHS endpoint summary the hybrid slicer tabulates
/// (local flow never changes a suffix, so one summary serves every
/// access-path instantiation).
#[derive(Clone, Debug, Default, PartialEq)]
struct Summary {
    /// Heap stores reached (statement, base register, field).
    stores: Vec<(StmtNode, Var, FieldKey)>,
    /// Static stores reached.
    static_stores: Vec<(StmtNode, FieldId)>,
    /// Sink arguments reached `(stmt, sink method, position)`.
    sinks: Vec<(StmtNode, MethodId, usize)>,
    /// Whether the taint reaches the method's return value.
    reaches_ret: bool,
}

/// Entry key of a summary: callee node and entry register.
type SumKey = (CGNodeId, Var);

/// Locals that may point to an abstract object, sorted by `(node, var)`.
type AliasList = Vec<(CGNodeId, Var)>;

/// The rule-independent part of the alias-injection index: instance key
/// → the locals `(node, var)` that may point to it, sorted. A local is
/// listed when it is a load base or has a use no rule changes; the
/// locals only a rule's classification uses are that rule's slicer's
/// difference (see [`IfdsSlicer::new`]). Built once per phase-2 pass.
#[derive(Debug)]
pub struct IfdsAliases {
    by_ik: HashMap<u32, AliasList>,
}

impl IfdsAliases {
    /// Builds the shared alias lists from the slice index.
    pub fn build(index: &SliceIndex<'_>) -> Self {
        let mut by_ik: HashMap<u32, AliasList> = HashMap::new();
        let mut vars: Vec<Var> = Vec::new();
        for node in index.pts.callgraph.iter_nodes() {
            vars.extend(index.registers_with_shared_uses(node));
            vars.extend(index.loads(node).iter().filter_map(|l| l.base));
            vars.sort_unstable();
            vars.dedup();
            for v in vars.drain(..) {
                for ik in index.local_pts(node, v).iter() {
                    by_ik.entry(ik).or_default().push((node, v));
                }
            }
        }
        IfdsAliases { by_ik }
    }
}

/// The IFDS access-path slicer.
#[derive(Debug)]
pub struct IfdsSlicer<'a> {
    view: &'a ProgramView<'a>,
    /// Access-path depth bound `k`.
    depth: usize,
    summaries: HashMap<SumKey, Summary>,
    /// Reverse dependencies: when `key`'s summary grows, recompute these.
    dependents: HashMap<SumKey, HashSet<SumKey>>,
    /// The pass's shared alias-injection index.
    aliases: &'a IfdsAliases,
    /// The alias lists this rule changes, in full: the shared list plus
    /// the locals only this rule's classification uses.
    rule_aliases: HashMap<u32, AliasList>,
    /// Distinct facts inserted into any seed's visited set.
    facts_created: usize,
    /// Worklist pops across tabulation and summary fixpoints.
    worklist_pops: usize,
    work: usize,
    supervisor: Supervisor,
    interrupted: Option<InterruptReason>,
}

impl<'a> IfdsSlicer<'a> {
    /// Creates a slicer over a program view with depth bound `k`, taking
    /// the alias-injection index from `aliases` (built from the view's
    /// slice index) and adding the locals only this rule uses.
    pub fn new(view: &'a ProgramView<'a>, depth: usize, aliases: &'a IfdsAliases) -> Self {
        let index = view.index;
        let mut rule_aliases: HashMap<u32, AliasList> = HashMap::new();
        for (node, v) in view.rule_only_registers() {
            if index.loads(node).iter().any(|l| l.base == Some(v)) {
                continue; // a load base: already listed
            }
            for ik in index.local_pts(node, v).iter() {
                let list = rule_aliases
                    .entry(ik)
                    .or_insert_with(|| aliases.by_ik.get(&ik).cloned().unwrap_or_default());
                if let Err(at) = list.binary_search(&(node, v)) {
                    list.insert(at, (node, v));
                }
            }
        }
        IfdsSlicer {
            view,
            depth,
            summaries: HashMap::new(),
            dependents: HashMap::new(),
            aliases,
            rule_aliases,
            facts_created: 0,
            worklist_pops: 0,
            work: 0,
            supervisor: Supervisor::new(),
            interrupted: None,
        }
    }

    /// Attaches a supervisor; its checks run at the per-fact tabulation
    /// (`ifds.tabulate` site) and the summary fixpoint (`ifds.summary`
    /// site). On an interrupt the slicer stops taking work and reports
    /// the flows found so far with [`SliceResult::interrupted`] set.
    pub fn with_supervisor(mut self, supervisor: Supervisor) -> Self {
        self.supervisor = supervisor;
        self
    }

    /// Distinct dataflow facts created across all seeds so far.
    pub fn facts_created(&self) -> usize {
        self.facts_created
    }

    /// Worklist pops performed (tabulation + summary fixpoints).
    pub fn worklist_pops(&self) -> usize {
        self.worklist_pops
    }

    /// Summary edges tabulated: every store/static-store/sink effect and
    /// reaches-return bit across the memoized callee summaries.
    pub fn summary_edges(&self) -> usize {
        self.summaries
            .values()
            .map(|s| {
                s.stores.len() + s.static_stores.len() + s.sinks.len() + usize::from(s.reaches_ret)
            })
            .sum()
    }

    /// Runs the tabulation from every source and returns the tainted
    /// flows.
    pub fn run(&mut self) -> SliceResult {
        let seeds = self.view.seeds();
        let ref_seeds = self.view.ref_seeds();
        let mut result = SliceResult::default();
        let mut seen_flows: HashSet<(StmtNode, StmtNode, usize)> = HashSet::new();
        let mut heap_edges = 0usize;
        for &(stmt, sc) in seeds {
            if self.interrupted.is_some() {
                break;
            }
            let mut run = SeedRun::new(stmt, sc.method);
            run.seed(
                Fact::Local(stmt.node, sc.dst, ApFields::value()),
                vec![FlowStep { stmt, kind: StepKind::Seed }],
            );
            self.tabulate(&mut run, &mut result, &mut seen_flows, &mut heap_edges);
            self.facts_created += run.visited.len();
        }
        // By-reference sources (footnote 2): the argument object's state
        // is tainted — loads reading it become value seeds, and the
        // object itself is an immediate taint carrier.
        for rs in ref_seeds {
            if self.interrupted.is_some() {
                break;
            }
            let mut run = SeedRun::new(rs.stmt, rs.method);
            for &(n, v) in &rs.facts {
                run.seed(
                    Fact::Local(n, v, ApFields::value()),
                    vec![FlowStep { stmt: rs.stmt, kind: StepKind::Seed }],
                );
            }
            for ik in rs.arg_pts.iter() {
                if let Some(sinks) = self.view.spec.carrier_sinks.get(&ik) {
                    for cs in sinks {
                        if seen_flows.insert((rs.stmt, cs.stmt, cs.pos)) {
                            result.flows.push(Flow {
                                source: rs.stmt,
                                source_method: rs.method,
                                sink: cs.stmt,
                                sink_method: cs.method,
                                sink_pos: cs.pos,
                                path: vec![
                                    FlowStep { stmt: rs.stmt, kind: StepKind::Seed },
                                    FlowStep { stmt: cs.stmt, kind: StepKind::CarrierEdge },
                                ],
                                heap_transitions: 1,
                            });
                        }
                    }
                }
            }
            self.tabulate(&mut run, &mut result, &mut seen_flows, &mut heap_edges);
            self.facts_created += run.visited.len();
        }
        result.heap_transitions = heap_edges;
        result.work = self.work;
        result.interrupted = self.interrupted;
        result
    }

    /// Drains one seed's worklist to a fixpoint.
    fn tabulate(
        &mut self,
        run: &mut SeedRun,
        result: &mut SliceResult,
        seen_flows: &mut HashSet<(StmtNode, StmtNode, usize)>,
        heap_edges: &mut usize,
    ) {
        while let Some(fact) = run.queue.pop_front() {
            if self.interrupted.is_some() {
                return;
            }
            if let Err(reason) = self.supervisor.check("ifds.tabulate") {
                self.interrupted = Some(reason);
                return;
            }
            self.worklist_pops += 1;
            self.work += 1;
            match fact.clone() {
                Fact::Local(node, var, fields) => {
                    self.process_local(
                        run, result, seen_flows, heap_edges, node, var, &fields, &fact,
                    );
                }
                Fact::Heap(ik, fields) => self.process_heap(run, heap_edges, ik, &fields, &fact),
                Fact::Static(field, fields) => {
                    self.process_static(run, heap_edges, field, &fields, &fact);
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn process_local(
        &mut self,
        run: &mut SeedRun,
        result: &mut SliceResult,
        seen_flows: &mut HashSet<(StmtNode, StmtNode, usize)>,
        heap_edges: &mut usize,
        node: CGNodeId,
        var: Var,
        fields: &ApFields,
        fact: &Fact,
    ) {
        let view = self.view;
        for &u in view.uses(node, var) {
            match u {
                Use::Flow { to, loc } => {
                    run.push(
                        Fact::Local(node, to, fields.clone()),
                        fact,
                        vec![FlowStep { stmt: StmtNode { node, loc }, kind: StepKind::Local }],
                    );
                }
                Use::Store { loc, base, field } => {
                    self.process_store(
                        run,
                        result,
                        seen_flows,
                        heap_edges,
                        StmtNode { node, loc },
                        node,
                        base,
                        field,
                        fields,
                        fact,
                        vec![],
                    );
                }
                Use::StaticStore { loc, field } => {
                    run.push(
                        Fact::Static(field, fields.clone()),
                        fact,
                        vec![FlowStep { stmt: StmtNode { node, loc }, kind: StepKind::Local }],
                    );
                }
                Use::Arg { loc, pos } => {
                    self.process_arg(
                        run, result, seen_flows, heap_edges, node, loc, pos, fields, fact,
                    );
                    if self.interrupted.is_some() {
                        return;
                    }
                }
                Use::Ret { .. } => {
                    for &(caller, cloc, cdst) in view.index.return_sites(node) {
                        if let Some(d) = cdst {
                            run.push(
                                Fact::Local(caller, d, fields.clone()),
                                fact,
                                vec![FlowStep {
                                    stmt: StmtNode { node: caller, loc: cloc },
                                    kind: StepKind::ReturnTo,
                                }],
                            );
                        }
                    }
                }
                Use::SinkArg { loc, method, pos } => {
                    if fields.is_value() {
                        self.emit_flow(
                            run,
                            result,
                            seen_flows,
                            fact,
                            vec![],
                            StmtNode { node, loc },
                            method,
                            pos,
                            StepKind::Local,
                        );
                    }
                }
                Use::Sanitized { .. } => {}
            }
        }
        // Field consumption through this register's own loads: `x = v.f`
        // peels `f` off the suffix (or matches anything when widened
        // empty). A precise value fact has nothing to consume.
        if fields.first().is_some() || (fields.widened && fields.is_value()) {
            for l in view.index.loads(node).iter().filter(|l| l.base == Some(var)) {
                let Some(lf) = l.field else { continue };
                let Some(next) = fields.consume(lf) else { continue };
                *heap_edges += 1;
                run.push(
                    Fact::Local(node, l.dst, next),
                    fact,
                    vec![FlowStep {
                        stmt: StmtNode { node, loc: l.loc },
                        kind: StepKind::HeapEdge,
                    }],
                );
            }
        }
    }

    /// Handles a reached heap store `base.field = v` where `v` carries
    /// `fields`: taint-carrier edges (for value suffixes), the new heap
    /// fact with `field` prepended, and reflective-invoke bindings.
    #[allow(clippy::too_many_arguments)]
    fn process_store(
        &mut self,
        run: &mut SeedRun,
        result: &mut SliceResult,
        seen_flows: &mut HashSet<(StmtNode, StmtNode, usize)>,
        heap_edges: &mut usize,
        store_stmt: StmtNode,
        store_node: CGNodeId,
        base: Var,
        field: FieldKey,
        fields: &ApFields,
        parent: &Fact,
        pre_steps: Vec<FlowStep>,
    ) {
        let view = self.view;
        let base_pts = view.index.local_pts(store_node, base);
        let mut steps = pre_steps;
        steps.push(FlowStep { stmt: store_stmt, kind: StepKind::Local });

        // Taint carriers (§4.1.1): a tainted *value* stored into an
        // object that may reach a sink argument. Suffixed facts don't
        // fire this — the chain must be consumed by loads first, which
        // keeps the carrier semantics identical to the hybrid slicer's.
        if fields.is_value() {
            for ik in base_pts.iter() {
                if let Some(sinks) = view.spec.carrier_sinks.get(&ik) {
                    for cs in sinks {
                        self.emit_flow(
                            run,
                            result,
                            seen_flows,
                            parent,
                            steps.clone(),
                            cs.stmt,
                            cs.method,
                            cs.pos,
                            StepKind::CarrierEdge,
                        );
                    }
                }
            }
        }

        let stored = fields.prepend(field, self.depth);
        for ik in base_pts.iter() {
            run.push(Fact::Heap(ik, stored.clone()), parent, steps.clone());
        }

        // Reflective invoke: array stores feed the invoked method's
        // params with the stored suffix.
        if field == FieldKey::Array {
            for &(inode, iloc, arr, callee) in &view.index.invoke_bindings {
                if view.index.local_pts(inode, arr).intersects(base_pts) {
                    *heap_edges += 1;
                    let callee_method = view.pts.callgraph.method_of(callee);
                    let m = view.program.method(callee_method);
                    let off = usize::from(!m.is_static);
                    for i in 0..m.params.len() {
                        let mut s = steps.clone();
                        s.push(FlowStep {
                            stmt: StmtNode { node: inode, loc: iloc },
                            kind: StepKind::HeapEdge,
                        });
                        run.push(
                            Fact::Local(callee, Var((i + off) as u32), fields.clone()),
                            parent,
                            s,
                        );
                    }
                }
            }
        }
    }

    /// Handles a heap fact: loads whose base may alias the object
    /// consume the outermost field, and every local alias adopts the
    /// suffix (the injection that makes deeper chains explorable).
    fn process_heap(
        &self,
        run: &mut SeedRun,
        heap_edges: &mut usize,
        ik: u32,
        fields: &ApFields,
        fact: &Fact,
    ) {
        let index = self.view.index;
        if let Some(f0) = fields.first() {
            if let Some(loads) = index.loads_by_field.get(&f0) {
                for &(lnode, l) in loads {
                    let Some(lbase) = l.base else { continue };
                    if index.local_pts(lnode, lbase).contains(ik) {
                        *heap_edges += 1;
                        let next =
                            ApFields { path: fields.path[1..].to_vec(), widened: fields.widened };
                        run.push(
                            Fact::Local(lnode, l.dst, next),
                            fact,
                            vec![FlowStep {
                                stmt: StmtNode { node: lnode, loc: l.loc },
                                kind: StepKind::HeapEdge,
                            }],
                        );
                    }
                }
            }
        } else if fields.widened {
            // Widened-empty: field-insensitive — every instance/array
            // load, in call-graph/program order, from an alias of the
            // object yields a (still widened-empty) fact.
            for lnode in index.pts.callgraph.iter_nodes() {
                for l in index.loads(lnode) {
                    let (Some(_), Some(lbase)) = (l.field, l.base) else { continue };
                    if index.local_pts(lnode, lbase).contains(ik) {
                        *heap_edges += 1;
                        run.push(
                            Fact::Local(lnode, l.dst, fields.clone()),
                            fact,
                            vec![FlowStep {
                                stmt: StmtNode { node: lnode, loc: l.loc },
                                kind: StepKind::HeapEdge,
                            }],
                        );
                    }
                }
            }
        }
        // Alias injection: every local that may point to the object
        // adopts the suffix, so stores of carrier objects build deeper
        // paths and callee summaries see suffixed arguments.
        for &(n, w) in self.aliases_of(ik) {
            run.push(Fact::Local(n, w, fields.clone()), fact, vec![]);
        }
    }

    /// The locals that may point to `ik` and have a use under this rule
    /// or are a load base, sorted by `(node, var)`.
    fn aliases_of(&self, ik: u32) -> &[(CGNodeId, Var)] {
        let list = self.rule_aliases.get(&ik).or_else(|| self.aliases.by_ik.get(&ik));
        list.map_or(&[], Vec::as_slice)
    }

    fn process_static(
        &self,
        run: &mut SeedRun,
        heap_edges: &mut usize,
        field: FieldId,
        fields: &ApFields,
        fact: &Fact,
    ) {
        if let Some(loads) = self.view.index.static_loads.get(&field) {
            for &(lnode, l) in loads {
                *heap_edges += 1;
                run.push(
                    Fact::Local(lnode, l.dst, fields.clone()),
                    fact,
                    vec![FlowStep {
                        stmt: StmtNode { node: lnode, loc: l.loc },
                        kind: StepKind::HeapEdge,
                    }],
                );
            }
        }
    }

    /// Taint passed into a body callee: instantiate the field-generic
    /// RHS summary with the caller's suffix.
    #[allow(clippy::too_many_arguments)]
    fn process_arg(
        &mut self,
        run: &mut SeedRun,
        result: &mut SliceResult,
        seen_flows: &mut HashSet<(StmtNode, StmtNode, usize)>,
        heap_edges: &mut usize,
        node: CGNodeId,
        loc: Loc,
        pos: usize,
        fields: &ApFields,
        parent: &Fact,
    ) {
        let call_stmt = StmtNode { node, loc };
        let view = self.view;
        for &t in view.pts.callgraph.targets(node, loc) {
            let callee_method = view.pts.callgraph.method_of(t);
            let m = view.program.method(callee_method);
            if view.spec.sanitizers.contains(&callee_method)
                || view.spec.sources.contains(&callee_method)
                || view.spec.sinks.contains_key(&callee_method)
            {
                continue; // handled via dedicated roles
            }
            let off = usize::from(!m.is_static);
            if pos + off >= m.num_incoming() {
                continue;
            }
            let entry: SumKey = (t, Var((pos + off) as u32));
            let summary = self.summary(entry).clone();
            if self.interrupted.is_some() {
                return;
            }
            let call_step = FlowStep { stmt: call_stmt, kind: StepKind::CallArg };
            for (st, base, field) in summary.stores {
                self.process_store(
                    run,
                    result,
                    seen_flows,
                    heap_edges,
                    st,
                    st.node,
                    base,
                    field,
                    fields,
                    parent,
                    vec![call_step],
                );
            }
            for (st, sfield) in summary.static_stores {
                run.push(
                    Fact::Static(sfield, fields.clone()),
                    parent,
                    vec![call_step, FlowStep { stmt: st, kind: StepKind::Local }],
                );
            }
            if fields.is_value() {
                for (st, method, spos) in summary.sinks {
                    self.emit_flow(
                        run,
                        result,
                        seen_flows,
                        parent,
                        vec![call_step],
                        st,
                        method,
                        spos,
                        StepKind::CallArg,
                    );
                }
            }
            if summary.reaches_ret {
                if let Some(d) = view.index.call_dst(node, loc) {
                    run.push(
                        Fact::Local(node, d, fields.clone()),
                        parent,
                        vec![call_step, FlowStep { stmt: call_stmt, kind: StepKind::ReturnTo }],
                    );
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn emit_flow(
        &mut self,
        run: &SeedRun,
        result: &mut SliceResult,
        seen_flows: &mut HashSet<(StmtNode, StmtNode, usize)>,
        parent: &Fact,
        mid_steps: Vec<FlowStep>,
        sink: StmtNode,
        sink_method: MethodId,
        sink_pos: usize,
        final_kind: StepKind,
    ) {
        if !seen_flows.insert((run.seed_stmt, sink, sink_pos)) {
            return;
        }
        let mut path = run.reconstruct(parent);
        path.extend(mid_steps);
        path.push(FlowStep { stmt: sink, kind: final_kind });
        let heap_transitions = path
            .iter()
            .filter(|s| matches!(s.kind, StepKind::HeapEdge | StepKind::CarrierEdge))
            .count();
        result.flows.push(Flow {
            source: run.seed_stmt,
            source_method: run.seed_method,
            sink,
            sink_method,
            sink_pos,
            path,
            heap_transitions,
        });
    }

    // ---- RHS endpoint summaries over the no-heap SDG ----

    /// Returns the summary for taint entering `entry`, computing it (and
    /// every transitive callee summary) to a fixpoint on first demand.
    fn summary(&mut self, entry: SumKey) -> &Summary {
        if !self.summaries.contains_key(&entry) {
            let mut queue: VecDeque<SumKey> = VecDeque::new();
            queue.push_back(entry);
            while let Some(key) = queue.pop_front() {
                if let Err(reason) = self.supervisor.check("ifds.summary") {
                    self.interrupted = Some(reason);
                    // An incomplete summary is an under-approximation;
                    // the interrupt flag tells the driver the result is
                    // partial.
                    self.summaries.entry(entry).or_default();
                    break;
                }
                self.worklist_pops += 1;
                let computed = self.compute_summary(key, &mut queue);
                let changed = match self.summaries.get(&key) {
                    Some(old) => *old != computed,
                    None => true,
                };
                if changed {
                    self.summaries.insert(key, computed);
                    if let Some(deps) = self.dependents.get(&key) {
                        for d in deps.clone() {
                            queue.push_back(d);
                        }
                    }
                }
            }
        }
        self.summaries.get(&entry).expect("computed above")
    }

    /// One monotone evaluation of a summary from the current table.
    fn compute_summary(&mut self, entry: SumKey, queue: &mut VecDeque<SumKey>) -> Summary {
        let (node, entry_var) = entry;
        let mut out = Summary::default();
        let mut visited: HashSet<Var> = HashSet::new();
        let mut local_queue = vec![entry_var];
        visited.insert(entry_var);
        let view = self.view;
        while let Some(v) = local_queue.pop() {
            self.work += 1;
            for &u in view.uses(node, v) {
                match u {
                    Use::Flow { to, .. } => {
                        if visited.insert(to) {
                            local_queue.push(to);
                        }
                    }
                    Use::Store { loc, base, field } => {
                        let st = (StmtNode { node, loc }, base, field);
                        if !out.stores.contains(&st) {
                            out.stores.push(st);
                        }
                    }
                    Use::StaticStore { loc, field } => {
                        let st = (StmtNode { node, loc }, field);
                        if !out.static_stores.contains(&st) {
                            out.static_stores.push(st);
                        }
                    }
                    Use::SinkArg { loc, method, pos } => {
                        let sk = (StmtNode { node, loc }, method, pos);
                        if !out.sinks.contains(&sk) {
                            out.sinks.push(sk);
                        }
                    }
                    Use::Ret { .. } => out.reaches_ret = true,
                    Use::Sanitized { .. } => {}
                    Use::Arg { loc, pos } => {
                        for &t in view.pts.callgraph.targets(node, loc) {
                            let callee_method = view.pts.callgraph.method_of(t);
                            let m = view.program.method(callee_method);
                            if view.spec.sanitizers.contains(&callee_method)
                                || view.spec.sources.contains(&callee_method)
                                || view.spec.sinks.contains_key(&callee_method)
                            {
                                continue;
                            }
                            let off = usize::from(!m.is_static);
                            if pos + off >= m.num_incoming() {
                                continue;
                            }
                            let sub_key: SumKey = (t, Var((pos + off) as u32));
                            self.dependents.entry(sub_key).or_default().insert(entry);
                            let sub = match self.summaries.get(&sub_key) {
                                Some(s) => s.clone(),
                                None => {
                                    // Schedule computation; use ⊥ for now.
                                    queue.push_back(sub_key);
                                    Summary::default()
                                }
                            };
                            for st in sub.stores {
                                if !out.stores.contains(&st) {
                                    out.stores.push(st);
                                }
                            }
                            for st in sub.static_stores {
                                if !out.static_stores.contains(&st) {
                                    out.static_stores.push(st);
                                }
                            }
                            for sk in sub.sinks {
                                if !out.sinks.contains(&sk) {
                                    out.sinks.push(sk);
                                }
                            }
                            if sub.reaches_ret {
                                if let Some(d) = view.index.call_dst(node, loc) {
                                    if visited.insert(d) {
                                        local_queue.push(d);
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

/// Per-seed tabulation state with provenance for witness reconstruction.
#[derive(Debug)]
struct SeedRun {
    seed_stmt: StmtNode,
    seed_method: MethodId,
    visited: HashSet<Fact>,
    parents: HashMap<Fact, Parent>,
    queue: VecDeque<Fact>,
}

#[derive(Debug, Clone)]
struct Parent {
    prev: Option<Fact>,
    steps: Vec<FlowStep>,
}

impl SeedRun {
    fn new(seed_stmt: StmtNode, seed_method: MethodId) -> Self {
        SeedRun {
            seed_stmt,
            seed_method,
            visited: HashSet::new(),
            parents: HashMap::new(),
            queue: VecDeque::new(),
        }
    }

    /// Seeds an initial fact with no provenance predecessor.
    fn seed(&mut self, fact: Fact, steps: Vec<FlowStep>) {
        if self.visited.insert(fact.clone()) {
            self.parents.insert(fact.clone(), Parent { prev: None, steps });
            self.queue.push_back(fact);
        }
    }

    /// Inserts a derived fact with provenance.
    fn push(&mut self, fact: Fact, from: &Fact, steps: Vec<FlowStep>) {
        if self.visited.insert(fact.clone()) {
            self.parents.insert(fact.clone(), Parent { prev: Some(from.clone()), steps });
            self.queue.push_back(fact);
        }
    }

    /// Rebuilds the witness path from the seed to `fact`.
    fn reconstruct(&self, fact: &Fact) -> Vec<FlowStep> {
        let mut rev: Vec<FlowStep> = Vec::new();
        let mut cur = Some(fact.clone());
        let mut guard = 0usize;
        while let Some(f) = cur {
            let Some(p) = self.parents.get(&f) else { break };
            for s in p.steps.iter().rev() {
                rev.push(*s);
            }
            cur = p.prev.clone();
            guard += 1;
            if guard > 100_000 {
                break; // defensive: provenance cycles should not happen
            }
        }
        rev.reverse();
        rev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::reference::{self, rule_sensitive_specs, setup, RULE_SENSITIVE};

    #[test]
    fn rule_aliases_match_the_per_node_reference() {
        // The alias keys of a rule are the registers with a use under
        // that rule plus the load bases — no more (extra keys would add
        // facts), no fewer.
        let (p, pts) = setup(RULE_SENSITIVE);
        let specs = rule_sensitive_specs(&p);
        let index = SliceIndex::build(&p, &pts, &specs);
        let aliases = IfdsAliases::build(&index);
        let mut rule_only = 0;
        for spec in &specs {
            let view = ProgramView::build(&index, spec);
            let slicer = IfdsSlicer::new(&view, 2, &aliases);
            rule_only += slicer.rule_aliases.len();
            let mut want: HashMap<u32, Vec<(CGNodeId, Var)>> = HashMap::new();
            for (i, nv) in reference::node_views(&p, &pts, spec).iter().enumerate() {
                let node = CGNodeId::new(i);
                let mut vars: Vec<Var> = nv.uses.keys().copied().collect();
                vars.extend(nv.loads.iter().filter_map(|l| l.base));
                vars.sort_unstable();
                vars.dedup();
                for v in vars {
                    for ik in index.local_pts(node, v).iter() {
                        want.entry(ik).or_default().push((node, v));
                    }
                }
            }
            for ik in 0..pts.num_instance_keys() as u32 {
                let expected = want.get(&ik).map_or(&[][..], Vec::as_slice);
                assert_eq!(slicer.aliases_of(ik), expected, "aliases of object {ik}");
            }
        }
        assert!(rule_only > 0, "some rule adds a register only it uses");
    }

    fn key(f: FieldKey) -> FieldKey {
        f
    }

    #[test]
    fn prepend_respects_depth_and_widens() {
        let f = key(FieldKey::Array);
        let v = ApFields::value();
        let one = v.prepend(f, 2);
        assert_eq!(one.path.len(), 1);
        assert!(!one.widened);
        let two = one.prepend(f, 2);
        assert_eq!(two.path.len(), 2);
        assert!(!two.widened);
        let three = two.prepend(f, 2);
        assert_eq!(three.path.len(), 2, "truncated to k");
        assert!(three.widened, "overflow widens");
    }

    #[test]
    fn depth_zero_widens_immediately() {
        let stored = ApFields::value().prepend(FieldKey::Array, 0);
        assert!(stored.path.is_empty());
        assert!(stored.widened);
        assert!(stored.is_value(), "widened-empty taints the object value itself");
        // And it matches any field on consumption, staying itself.
        let next = stored.consume(FieldKey::Array).expect("matches");
        assert_eq!(next, stored);
    }

    #[test]
    fn consume_requires_exact_first_field_unless_widened_empty() {
        let f = FieldKey::Array;
        let precise = ApFields::value().prepend(f, 4);
        assert!(precise.consume(f).is_some());
        assert_eq!(precise.consume(f).unwrap(), ApFields::value());
        // A widened non-empty path still requires its first field.
        let deep = ApFields { path: vec![f], widened: true };
        assert!(deep.consume(f).is_some());
        assert!(deep.consume(f).unwrap().widened);
    }
}
