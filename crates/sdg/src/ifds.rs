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
//! register with the slicing kernel's RHS endpoint summaries, the same
//! table code the hybrid slicer uses (the summary shape is field-generic:
//! local flow never changes a suffix, so one summary serves every
//! instantiation). Heap flow is
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
//! across runs.

use jir::inst::Var;
use jir::util::FxHashMap;
use jir::FieldId;
use taj_pointer::CGNodeId;
use taj_supervise::{InterruptReason, Supervisor};

use crate::kernel::{slice_seeds, Found, SeedRun, SummaryTable};
use crate::spec::{FlowStep, SliceResult, StepKind, StmtNode};
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

/// Locals that may point to an abstract object, sorted by `(node, var)`.
type AliasList = Vec<(CGNodeId, Var)>;

/// The rule-independent part of the alias-injection index: instance key
/// → the locals `(node, var)` that may point to it, sorted. A local is
/// listed when it is a load base or has a use no rule changes; the
/// locals only a rule's classification uses are that rule's slicer's
/// difference (see [`IfdsSlicer::new`]). Built once per phase-2 pass.
#[derive(Debug)]
pub struct IfdsAliases {
    by_ik: FxHashMap<u32, AliasList>,
}

impl IfdsAliases {
    /// Builds the shared alias lists from the slice index.
    pub fn build(index: &SliceIndex<'_>) -> Self {
        let mut by_ik: FxHashMap<u32, AliasList> = FxHashMap::default();
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
    summaries: SummaryTable,
    /// The pass's shared alias-injection index.
    aliases: &'a IfdsAliases,
    /// The alias lists this rule changes, in full: the shared list plus
    /// the locals only this rule's classification uses.
    rule_aliases: FxHashMap<u32, AliasList>,
    /// Distinct facts inserted into any seed's visited set.
    facts_created: usize,
    /// Tabulation worklist pops; the summary table counts its own.
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
        let mut rule_aliases: FxHashMap<u32, AliasList> = FxHashMap::default();
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
            summaries: SummaryTable::default(),
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
        self.worklist_pops + self.summaries.evaluations()
    }

    /// Summary edges tabulated: every store/static-store/sink effect and
    /// reaches-return bit across the memoized callee summaries.
    pub fn summary_edges(&self) -> usize {
        self.summaries.edges()
    }

    /// Runs the tabulation from every source and returns the tainted
    /// flows.
    pub fn run(&mut self) -> SliceResult {
        let view = self.view;
        let mut found = Found::default();
        let fact = |node, var| Fact::Local(node, var, ApFields::value());
        slice_seeds(view, view.seeds(), view.ref_seeds(), &mut found, fact, |mut run, found| {
            self.tabulate(&mut run, found);
            self.facts_created += run.facts();
            self.interrupted.is_none()
        });
        let mut result = found.result;
        result.work = self.work + self.summaries.work();
        result.interrupted = self.interrupted;
        result
    }

    /// Drains one seed's worklist to a fixpoint.
    fn tabulate(&mut self, run: &mut SeedRun<Fact>, found: &mut Found) {
        while let Some(fact) = run.pop() {
            if self.interrupted.is_some() {
                return;
            }
            if let Err(reason) = self.supervisor.check("ifds.tabulate") {
                self.interrupted = Some(reason);
                return;
            }
            self.worklist_pops += 1;
            self.work += 1;
            let heap_edges = &mut found.result.heap_transitions;
            match &fact {
                Fact::Local(node, var, fields) => {
                    self.process_local(run, found, (*node, *var), fields, &fact);
                }
                Fact::Heap(ik, fields) => self.process_heap(run, heap_edges, *ik, fields, &fact),
                Fact::Static(f, fields) => self.process_static(run, heap_edges, *f, fields, &fact),
            }
        }
    }

    fn process_local(
        &mut self,
        run: &mut SeedRun<Fact>,
        found: &mut Found,
        (node, var): (CGNodeId, Var),
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
                        &[FlowStep { stmt: StmtNode { node, loc }, kind: StepKind::Local }],
                    );
                }
                Use::Store { loc, base, field } => {
                    let store = (StmtNode { node, loc }, base, field);
                    self.process_store(run, found, store, fields, fact, &[]);
                }
                Use::StaticStore { loc, field } => {
                    run.push(
                        Fact::Static(field, fields.clone()),
                        fact,
                        &[FlowStep { stmt: StmtNode { node, loc }, kind: StepKind::Local }],
                    );
                }
                Use::Arg { loc, pos } => {
                    self.process_arg(run, found, StmtNode { node, loc }, pos, fields, fact);
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
                                &[FlowStep {
                                    stmt: StmtNode { node: caller, loc: cloc },
                                    kind: StepKind::ReturnTo,
                                }],
                            );
                        }
                    }
                }
                Use::SinkArg { loc, method, pos } => {
                    if fields.is_value() {
                        let sink = (StmtNode { node, loc }, method, pos);
                        run.emit(found, fact, &[], sink, StepKind::Local);
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
                found.result.heap_transitions += 1;
                run.push(
                    Fact::Local(node, l.dst, next),
                    fact,
                    &[FlowStep { stmt: StmtNode { node, loc: l.loc }, kind: StepKind::HeapEdge }],
                );
            }
        }
    }

    /// Handles a reached heap store `base.field = v`, after `prefix` from
    /// `parent`, where `v` carries `fields`: taint-carrier edges (for
    /// value suffixes), the new heap fact with `field` prepended, and
    /// reflective-invoke bindings.
    fn process_store(
        &self,
        run: &mut SeedRun<Fact>,
        found: &mut Found,
        (store, base, field): (StmtNode, Var, FieldKey),
        fields: &ApFields,
        parent: &Fact,
        prefix: &[FlowStep],
    ) {
        let view = self.view;
        let base_pts = view.index.local_pts(store.node, base);
        let mut steps = prefix.to_vec();
        steps.push(FlowStep { stmt: store, kind: StepKind::Local });

        // Taint carriers (§4.1.1): a tainted *value* stored into an
        // object that may reach a sink argument. Suffixed facts don't
        // fire this — the chain must be consumed by loads first, which
        // keeps the carrier semantics identical to the hybrid slicer's.
        if fields.is_value() {
            run.emit_carriers(view, found, parent, &steps, base_pts);
        }

        let stored = fields.prepend(field, self.depth);
        for ik in base_pts.iter() {
            run.push(Fact::Heap(ik, stored.clone()), parent, &steps);
        }

        // Reflective invoke: array stores feed the invoked method's
        // params with the stored suffix.
        if field == FieldKey::Array {
            for &(inode, iloc, arr, callee) in &view.index.invoke_bindings {
                if view.index.local_pts(inode, arr).intersects(base_pts) {
                    found.result.heap_transitions += 1;
                    let stmt = StmtNode { node: inode, loc: iloc };
                    steps.push(FlowStep { stmt, kind: StepKind::HeapEdge });
                    for reg in view.param_registers(view.pts.callgraph.method_of(callee)) {
                        run.push(Fact::Local(callee, reg, fields.clone()), parent, &steps);
                    }
                    steps.pop();
                }
            }
        }
    }

    /// Handles a heap fact: loads whose base may alias the object
    /// consume the outermost field, and every local alias adopts the
    /// suffix (the injection that makes deeper chains explorable).
    fn process_heap(
        &self,
        run: &mut SeedRun<Fact>,
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
                            &[FlowStep {
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
                            &[FlowStep {
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
            run.push(Fact::Local(n, w, fields.clone()), fact, &[]);
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
        run: &mut SeedRun<Fact>,
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
                    &[FlowStep {
                        stmt: StmtNode { node: lnode, loc: l.loc },
                        kind: StepKind::HeapEdge,
                    }],
                );
            }
        }
    }

    /// Taint passed into a body callee: instantiate the field-generic
    /// RHS summary with the caller's suffix.
    fn process_arg(
        &mut self,
        run: &mut SeedRun<Fact>,
        found: &mut Found,
        call: StmtNode,
        pos: usize,
        fields: &ApFields,
        parent: &Fact,
    ) {
        let view = self.view;
        for &t in view.pts.callgraph.targets(call.node, call.loc) {
            let Some(var) = view.callee_entry(view.pts.callgraph.method_of(t), pos) else {
                continue;
            };
            let summary = self.summaries.summary(
                view,
                (t, var),
                &self.supervisor,
                "ifds.summary",
                &mut self.interrupted,
            );
            if self.interrupted.is_some() {
                return;
            }
            let call_step = FlowStep { stmt: call, kind: StepKind::CallArg };
            for store in summary.stores {
                self.process_store(run, found, store, fields, parent, &[call_step]);
            }
            for (st, sfield) in summary.static_stores {
                run.push(
                    Fact::Static(sfield, fields.clone()),
                    parent,
                    &[call_step, FlowStep { stmt: st, kind: StepKind::Local }],
                );
            }
            if fields.is_value() {
                for sink in summary.sinks {
                    run.emit(found, parent, &[call_step], sink, StepKind::CallArg);
                }
            }
            if summary.reaches_ret {
                if let Some(d) = view.index.call_dst(call.node, call.loc) {
                    run.push(
                        Fact::Local(call.node, d, fields.clone()),
                        parent,
                        &[call_step, FlowStep { stmt: call, kind: StepKind::ReturnTo }],
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::reference::{self, rule_sensitive_specs, setup, RULE_SENSITIVE};
    use std::collections::HashMap;

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
