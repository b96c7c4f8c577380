//! Hybrid thin slicing (§3.2): demand-driven traversal of the Hybrid SDG.
//!
//! Flow through **locals** is tracked flow- and context-sensitively via
//! summary edges computed by RHS tabulation over the no-heap SDG (facts are
//! SSA registers of context-qualified call-graph nodes; summaries map a
//! callee's entry register to the stores/sinks it reaches and whether it
//! reaches the return). Flow through the **heap** uses flow-insensitive
//! direct store→load edges derived from the phase-1 points-to solution, as
//! in CI thin slicing. Sanitizer returns and sink calls have no successors.
//!
//! ## Relation to refinement-based pointer analysis (§3.2 of the paper)
//!
//! The direct store→load edges correspond to *match edges* in
//! refinement-based pointer analysis (Sridharan & Bodík, PLDI'06), with
//! two differences the paper calls out: (1) our initial match edges come
//! from the phase-1 points-to solution rather than from field types alone
//! — the analysis starts precise and never refines; and (2) because match
//! edges are never refined, recursion on match-edge-free subpaths is
//! handled precisely (the RHS summaries below iterate recursive cycles to
//! a fixpoint instead of collapsing strongly-connected call-graph
//! components).

use std::collections::{HashMap, HashSet, VecDeque};

use jir::inst::{Loc, Var};
use jir::util::BitSet;
use jir::MethodId;
use taj_pointer::{CGNodeId, EscapeAnalysis};
use taj_supervise::{InterruptReason, Supervisor};

use crate::mhp::MhpRelation;
use crate::spec::{Flow, FlowStep, SliceBounds, SliceResult, StepKind, StmtNode};
use crate::view::{FieldKey, ProgramView, Use};

/// A local-flow fact: a register of a call-graph node carries taint.
type Fact = (CGNodeId, Var);

/// What a callee does with taint entering through one register (an RHS
/// endpoint summary over the no-heap SDG).
#[derive(Clone, Debug, Default, PartialEq)]
struct Summary {
    /// Heap stores reached (statement, base register, field).
    stores: Vec<(StmtNode, Var, FieldKey)>,
    /// Static stores reached.
    static_stores: Vec<(StmtNode, jir::FieldId)>,
    /// Sink arguments reached `(stmt, sink method, position)`.
    sinks: Vec<(StmtNode, MethodId, usize)>,
    /// Whether the taint reaches the method's return value.
    reaches_ret: bool,
}

/// The hybrid thin slicer.
#[derive(Debug)]
pub struct HybridSlicer<'a> {
    view: &'a ProgramView<'a>,
    bounds: SliceBounds,
    summaries: HashMap<Fact, Summary>,
    /// Reverse dependencies: when `key`'s summary grows, recompute these.
    dependents: HashMap<Fact, HashSet<Fact>>,
    work: usize,
    /// Concurrency refinement (escape + MHP): when present, direct
    /// store→load edges between nodes that can only execute on different
    /// threads are kept only if the aliased object actually escapes.
    concurrency: Option<(&'a EscapeAnalysis, &'a MhpRelation)>,
    /// Store→load edges dropped by the concurrency refinement.
    edges_dropped: usize,
    /// Cooperative supervision handle (default: unbounded).
    supervisor: Supervisor,
    /// First supervisor interrupt observed, if any.
    interrupted: Option<InterruptReason>,
}

impl<'a> HybridSlicer<'a> {
    /// Creates a slicer over a program view.
    pub fn new(view: &'a ProgramView<'a>, bounds: SliceBounds) -> Self {
        HybridSlicer {
            view,
            bounds,
            summaries: HashMap::new(),
            dependents: HashMap::new(),
            work: 0,
            concurrency: None,
            edges_dropped: 0,
            supervisor: Supervisor::new(),
            interrupted: None,
        }
    }

    /// Attaches a supervisor; its checks run at the per-seed traversal
    /// (`hybrid.slice` site) and summary tabulation (`hybrid.summary`
    /// site). On an interrupt the slicer stops taking work and reports
    /// the flows found so far with [`SliceResult::interrupted`] set.
    pub fn with_supervisor(mut self, supervisor: Supervisor) -> Self {
        self.supervisor = supervisor;
        self
    }

    /// Creates a slicer with the concurrency refinement: a store→load
    /// heap edge whose endpoints can never execute on the same thread is
    /// real only if the object it travels through escapes; all other
    /// such edges are dropped. This is strictly a false-positive filter —
    /// edges between same-thread-possible nodes and edges through
    /// escaping objects are untouched.
    pub fn with_concurrency(
        view: &'a ProgramView<'a>,
        bounds: SliceBounds,
        escape: &'a EscapeAnalysis,
        mhp: &'a MhpRelation,
    ) -> Self {
        let mut s = Self::new(view, bounds);
        s.concurrency = Some((escape, mhp));
        s
    }

    /// How many store→load edges the concurrency refinement dropped.
    pub fn edges_dropped(&self) -> usize {
        self.edges_dropped
    }

    /// How many callee-entry RHS summaries have been tabulated so far —
    /// the "summary edges" number tracing attaches to each slice unit.
    pub fn summaries_tabulated(&self) -> usize {
        self.summaries.len()
    }

    /// Is the store→load edge `store_node → load_node`, witnessed by the
    /// overlap of `base_pts` and `load_pts`, impossible? Only when the
    /// two statements can never share a thread *and* no overlapping
    /// abstract object escapes.
    fn edge_impossible(
        &self,
        store_node: CGNodeId,
        load_node: CGNodeId,
        base_pts: &BitSet,
        load_pts: &BitSet,
    ) -> bool {
        let Some((esc, mhp)) = self.concurrency else {
            return false;
        };
        if mhp.same_thread_possible(store_node, load_node) {
            return false;
        }
        !base_pts.iter().any(|ik| load_pts.contains(ik) && esc.escapes(ik))
    }

    /// Runs the slice from every source and returns the tainted flows.
    pub fn run(&mut self) -> SliceResult {
        self.run_partition(0..usize::MAX, 0..usize::MAX)
    }

    /// Runs the slice over a contiguous partition of the seed lists:
    /// `seed_range` indexes into [`ProgramView::seeds`] and `ref_range`
    /// into [`ProgramView::ref_seeds`] (both clamped to the list length).
    ///
    /// This is the unit of work the parallel engine dispatches. Each
    /// [`SeedRun`] is independent traversal state, and `seen_flows` keys
    /// carry the seed statement, so the flow set of a whole run equals
    /// the ordered union of its partitions' flow sets. The summary memo
    /// table is private to one slicer: splitting a rule across slicers
    /// recomputes summaries per partition, which changes the `work`
    /// accounting (a function of the partitioning, never of the thread
    /// count) but not the flows — summaries are unique fixpoints. Heap
    /// budgets are also per-slicer, which is why bounded configurations
    /// must keep a rule in one partition (see `taj_core::parallel`).
    pub fn run_partition(
        &mut self,
        seed_range: std::ops::Range<usize>,
        ref_range: std::ops::Range<usize>,
    ) -> SliceResult {
        let all_seeds = self.view.seeds();
        let all_refs = self.view.ref_seeds();
        let seeds = &all_seeds[clamp_range(&seed_range, all_seeds.len())];
        let ref_seeds = &all_refs[clamp_range(&ref_range, all_refs.len())];
        let mut result = SliceResult::default();
        let mut seen_flows: HashSet<(StmtNode, StmtNode, usize)> = HashSet::new();
        let mut heap_budget = 0usize;
        for &(stmt, sc) in seeds {
            let mut run = SeedRun {
                seed_stmt: stmt,
                seed_method: sc.method,
                visited: HashSet::new(),
                parents: HashMap::new(),
                queue: VecDeque::new(),
                processed_stores: HashSet::new(),
            };
            let seed_fact = (stmt.node, sc.dst);
            run.visited.insert(seed_fact);
            run.parents.insert(
                seed_fact,
                Parent { prev: None, steps: vec![FlowStep { stmt, kind: StepKind::Seed }] },
            );
            run.queue.push_back(seed_fact);
            self.slice_one(&mut run, &mut result, &mut seen_flows, &mut heap_budget);
            if self.interrupted.is_some() {
                break;
            }
        }
        // By-reference sources (footnote 2): the argument object's state is
        // tainted — loads reading it become seeds, and the object itself is
        // an immediate taint carrier.
        for rs in ref_seeds {
            if self.interrupted.is_some() {
                break;
            }
            let mut run = SeedRun {
                seed_stmt: rs.stmt,
                seed_method: rs.method,
                visited: HashSet::new(),
                parents: HashMap::new(),
                queue: VecDeque::new(),
                processed_stores: HashSet::new(),
            };
            for &fact in &rs.facts {
                if run.visited.insert(fact) {
                    run.parents.insert(
                        fact,
                        Parent {
                            prev: None,
                            steps: vec![FlowStep { stmt: rs.stmt, kind: StepKind::Seed }],
                        },
                    );
                    run.queue.push_back(fact);
                }
            }
            // The object itself may carry the taint straight to a sink.
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
            self.slice_one(&mut run, &mut result, &mut seen_flows, &mut heap_budget);
        }
        result.heap_transitions = heap_budget;
        result.work = self.work;
        result.interrupted = self.interrupted;
        result
    }

    fn slice_one(
        &mut self,
        run: &mut SeedRun,
        result: &mut SliceResult,
        seen_flows: &mut HashSet<(StmtNode, StmtNode, usize)>,
        heap_budget: &mut usize,
    ) {
        while let Some((node, var)) = run.queue.pop_front() {
            if self.interrupted.is_some() {
                return;
            }
            if let Err(reason) = self.supervisor.check("hybrid.slice") {
                self.interrupted = Some(reason);
                return;
            }
            self.work += 1;
            let view = self.view;
            let fact = (node, var);
            for &u in view.uses(node, var) {
                match u {
                    Use::Flow { to, loc } => {
                        run.push(
                            (node, to),
                            fact,
                            vec![FlowStep { stmt: StmtNode { node, loc }, kind: StepKind::Local }],
                        );
                    }
                    Use::Store { loc, base, field } => {
                        let store_stmt = StmtNode { node, loc };
                        self.process_store(
                            run,
                            result,
                            seen_flows,
                            heap_budget,
                            store_stmt,
                            node,
                            base,
                            field,
                            fact,
                            vec![],
                        );
                    }
                    Use::StaticStore { loc, field } => {
                        let store_stmt = StmtNode { node, loc };
                        self.process_static_store(
                            run,
                            heap_budget,
                            result,
                            store_stmt,
                            field,
                            fact,
                            vec![],
                        );
                    }
                    Use::Arg { loc, pos } => {
                        self.process_arg(
                            run,
                            result,
                            seen_flows,
                            heap_budget,
                            node,
                            loc,
                            pos,
                            fact,
                        );
                    }
                    Use::Ret { .. } => {
                        for &(caller, cloc, cdst) in view.index.return_sites(node) {
                            if let Some(d) = cdst {
                                run.push(
                                    (caller, d),
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
                        let sink_stmt = StmtNode { node, loc };
                        self.emit_flow(
                            run,
                            result,
                            seen_flows,
                            fact,
                            vec![],
                            sink_stmt,
                            method,
                            pos,
                            StepKind::Local,
                        );
                    }
                    Use::Sanitized { .. } => {}
                }
            }
        }
    }

    /// Handles a reached heap store: taint-carrier edges (§4.1.1) and
    /// direct store→load edges (§3.2), plus reflective-invoke bindings.
    #[allow(clippy::too_many_arguments)]
    fn process_store(
        &mut self,
        run: &mut SeedRun,
        result: &mut SliceResult,
        seen_flows: &mut HashSet<(StmtNode, StmtNode, usize)>,
        heap_budget: &mut usize,
        store_stmt: StmtNode,
        store_node: CGNodeId,
        base: Var,
        field: FieldKey,
        parent: Fact,
        pre_steps: Vec<FlowStep>,
    ) {
        if !run.processed_stores.insert(store_stmt) {
            return;
        }
        let view = self.view;
        let base_pts = view.index.local_pts(store_node, base);
        let mut steps = pre_steps;
        steps.push(FlowStep { stmt: store_stmt, kind: StepKind::Local });

        // Taint carriers: the stored-into object may reach a sink argument.
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

        // Direct edges to aliased loads.
        if self.heap_budget_exhausted(*heap_budget) {
            result.budget_exhausted = true;
            return;
        }
        if let Some(loads) = view.index.loads_by_field.get(&field) {
            for &(lnode, load) in loads {
                let Some(lbase) = load.base else { continue };
                let Some(lpts) = view.pts.local(lnode, lbase) else { continue };
                if lpts.intersects(base_pts) {
                    if self.edge_impossible(store_node, lnode, base_pts, lpts) {
                        self.edges_dropped += 1;
                        continue;
                    }
                    *heap_budget += 1;
                    if self.heap_budget_exhausted(*heap_budget) {
                        result.budget_exhausted = true;
                        return;
                    }
                    let mut s = steps.clone();
                    s.push(FlowStep {
                        stmt: StmtNode { node: lnode, loc: load.loc },
                        kind: StepKind::HeapEdge,
                    });
                    run.push((lnode, load.dst), parent, s);
                }
            }
        }
        // Reflective invoke: array stores feed the invoked method's params.
        if field == FieldKey::Array {
            for &(inode, iloc, arr, callee) in &view.index.invoke_bindings {
                let Some(apts) = view.pts.local(inode, arr) else { continue };
                if apts.intersects(base_pts) {
                    if self.edge_impossible(store_node, inode, base_pts, apts) {
                        self.edges_dropped += 1;
                        continue;
                    }
                    *heap_budget += 1;
                    let callee_method = view.pts.callgraph.method_of(callee);
                    let m = view.program.method(callee_method);
                    let off = usize::from(!m.is_static);
                    for i in 0..m.params.len() {
                        let mut s = steps.clone();
                        s.push(FlowStep {
                            stmt: StmtNode { node: inode, loc: iloc },
                            kind: StepKind::HeapEdge,
                        });
                        run.push((callee, Var((i + off) as u32)), parent, s);
                    }
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn process_static_store(
        &mut self,
        run: &mut SeedRun,
        heap_budget: &mut usize,
        result: &mut SliceResult,
        store_stmt: StmtNode,
        field: jir::FieldId,
        parent: Fact,
        pre_steps: Vec<FlowStep>,
    ) {
        if !run.processed_stores.insert(store_stmt) {
            return;
        }
        let mut steps = pre_steps;
        steps.push(FlowStep { stmt: store_stmt, kind: StepKind::Local });
        if let Some(loads) = self.view.index.static_loads.get(&field) {
            for &(lnode, load) in loads {
                *heap_budget += 1;
                if self.heap_budget_exhausted(*heap_budget) {
                    result.budget_exhausted = true;
                    return;
                }
                let mut s = steps.clone();
                s.push(FlowStep {
                    stmt: StmtNode { node: lnode, loc: load.loc },
                    kind: StepKind::HeapEdge,
                });
                run.push((lnode, load.dst), parent, s);
            }
        }
    }

    /// Taint passed into a body callee: apply (or compute) the RHS summary.
    #[allow(clippy::too_many_arguments)]
    fn process_arg(
        &mut self,
        run: &mut SeedRun,
        result: &mut SliceResult,
        seen_flows: &mut HashSet<(StmtNode, StmtNode, usize)>,
        heap_budget: &mut usize,
        node: CGNodeId,
        loc: Loc,
        pos: usize,
        parent: Fact,
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
            let entry: Fact = (t, Var((pos + off) as u32));
            let summary = self.summary(entry).clone();
            let call_step = FlowStep { stmt: call_stmt, kind: StepKind::CallArg };
            for (st, base, field) in summary.stores {
                self.process_store(
                    run,
                    result,
                    seen_flows,
                    heap_budget,
                    st,
                    st.node,
                    base,
                    field,
                    parent,
                    vec![call_step],
                );
            }
            for (st, field) in summary.static_stores {
                self.process_static_store(
                    run,
                    heap_budget,
                    result,
                    st,
                    field,
                    parent,
                    vec![call_step],
                );
            }
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
            if summary.reaches_ret {
                if let Some(d) = view.index.call_dst(node, loc) {
                    run.push(
                        (node, d),
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
        parent: Fact,
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

    fn heap_budget_exhausted(&self, used: usize) -> bool {
        matches!(self.bounds.max_heap_transitions, Some(max) if used >= max)
    }

    // ---- RHS endpoint summaries over the no-heap SDG ----

    /// Returns the summary for taint entering `entry`, computing it (and
    /// every transitive callee summary) to a fixpoint on first demand.
    fn summary(&mut self, entry: Fact) -> &Summary {
        if !self.summaries.contains_key(&entry) {
            let mut queue: VecDeque<Fact> = VecDeque::new();
            queue.push_back(entry);
            while let Some(key) = queue.pop_front() {
                if let Err(reason) = self.supervisor.check("hybrid.summary") {
                    self.interrupted = Some(reason);
                    // An incomplete summary is an under-approximation;
                    // the interrupt flag tells the driver the result is
                    // partial.
                    self.summaries.entry(entry).or_default();
                    break;
                }
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
    fn compute_summary(&mut self, entry: Fact, queue: &mut VecDeque<Fact>) -> Summary {
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
                            let sub_key: Fact = (t, Var((pos + off) as u32));
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

/// Per-seed traversal state with provenance for flow reconstruction.
#[derive(Debug)]
struct SeedRun {
    seed_stmt: StmtNode,
    seed_method: MethodId,
    visited: HashSet<Fact>,
    parents: HashMap<Fact, Parent>,
    queue: VecDeque<Fact>,
    processed_stores: HashSet<StmtNode>,
}

#[derive(Debug, Clone)]
struct Parent {
    prev: Option<Fact>,
    steps: Vec<FlowStep>,
}

impl SeedRun {
    fn push(&mut self, fact: Fact, from: Fact, steps: Vec<FlowStep>) {
        if self.visited.insert(fact) {
            self.parents.insert(fact, Parent { prev: Some(from), steps });
            self.queue.push_back(fact);
        }
    }

    /// Rebuilds the witness path from the seed to `fact`.
    fn reconstruct(&self, fact: Fact) -> Vec<FlowStep> {
        let mut rev: Vec<FlowStep> = Vec::new();
        let mut cur = Some(fact);
        let mut guard = 0usize;
        while let Some(f) = cur {
            let Some(p) = self.parents.get(&f) else { break };
            for s in p.steps.iter().rev() {
                rev.push(*s);
            }
            cur = p.prev;
            guard += 1;
            if guard > 100_000 {
                break; // defensive: provenance cycles should not happen
            }
        }
        rev.reverse();
        rev
    }
}

/// Clamps a requested partition range to a list of `len` elements.
pub(crate) fn clamp_range(r: &std::ops::Range<usize>, len: usize) -> std::ops::Range<usize> {
    let start = r.start.min(len);
    start..r.end.min(len).max(start)
}
