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
//! handled precisely (the kernel's RHS summaries iterate recursive cycles to
//! a fixpoint instead of collapsing strongly-connected call-graph
//! components).

use jir::inst::Var;
use jir::util::BitSet;
use jir::FieldId;
use taj_pointer::{CGNodeId, EscapeAnalysis};
use taj_supervise::{InterruptReason, Supervisor};

use crate::kernel::{slice_seeds, Found, Register, SeedRun, SummaryTable};
use crate::mhp::MhpRelation;
use crate::spec::{FlowStep, SliceBounds, SliceResult, StepKind, StmtNode};
use crate::view::{FieldKey, ProgramView, Use};

/// A local-flow fact: a register of a call-graph node carries taint.
type Fact = Register;

/// The hybrid thin slicer.
#[derive(Debug)]
pub struct HybridSlicer<'a> {
    view: &'a ProgramView<'a>,
    bounds: SliceBounds,
    summaries: SummaryTable,
    /// Traversal pops; the summary table counts its own.
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
            summaries: SummaryTable::default(),
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
        self.summaries.entries()
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
        let view = self.view;
        let mut found = Found::default();
        slice_seeds(
            view,
            view.seeds(),
            view.ref_seeds(),
            &mut found,
            |node, var| (node, var),
            |mut run, found| {
                self.slice_one(&mut run, found);
                self.interrupted.is_none()
            },
        );
        let mut result = found.result;
        result.work = self.work + self.summaries.work();
        result.interrupted = self.interrupted;
        result
    }

    fn slice_one(&mut self, run: &mut SeedRun<Fact>, found: &mut Found) {
        while let Some(fact) = run.pop() {
            if self.interrupted.is_some() {
                return;
            }
            if let Err(reason) = self.supervisor.check("hybrid.slice") {
                self.interrupted = Some(reason);
                return;
            }
            self.work += 1;
            let view = self.view;
            let (node, var) = fact;
            for &u in view.uses(node, var) {
                match u {
                    Use::Flow { to, loc } => {
                        let step = FlowStep { stmt: StmtNode { node, loc }, kind: StepKind::Local };
                        run.push((node, to), &fact, &[step]);
                    }
                    Use::Store { loc, base, field } => {
                        let store = (StmtNode { node, loc }, base, field);
                        self.process_store(run, found, store, &fact, &[]);
                    }
                    Use::StaticStore { loc, field } => {
                        let store = (StmtNode { node, loc }, field);
                        self.process_static_store(run, &mut found.result, store, &fact, &[]);
                    }
                    Use::Arg { loc, pos } => {
                        self.process_arg(run, found, StmtNode { node, loc }, pos, &fact);
                    }
                    Use::Ret { .. } => {
                        for &(caller, cloc, cdst) in view.index.return_sites(node) {
                            if let Some(d) = cdst {
                                let stmt = StmtNode { node: caller, loc: cloc };
                                run.push(
                                    (caller, d),
                                    &fact,
                                    &[FlowStep { stmt, kind: StepKind::ReturnTo }],
                                );
                            }
                        }
                    }
                    Use::SinkArg { loc, method, pos } => {
                        let sink = (StmtNode { node, loc }, method, pos);
                        run.emit(found, &fact, &[], sink, StepKind::Local);
                    }
                    Use::Sanitized { .. } => {}
                }
            }
        }
    }

    /// Handles a reached heap store, after `prefix` from `parent`:
    /// taint-carrier edges (§4.1.1) and direct store→load edges (§3.2),
    /// plus reflective-invoke bindings.
    fn process_store(
        &mut self,
        run: &mut SeedRun<Fact>,
        found: &mut Found,
        (store, base, field): (StmtNode, Var, FieldKey),
        parent: &Fact,
        prefix: &[FlowStep],
    ) {
        if !run.processed_stores.insert(store) {
            return;
        }
        let view = self.view;
        let base_pts = view.index.local_pts(store.node, base);
        let mut steps = prefix.to_vec();
        steps.push(FlowStep { stmt: store, kind: StepKind::Local });
        run.emit_carriers(view, found, parent, &steps, base_pts);

        // Direct edges to aliased loads.
        let result = &mut found.result;
        if self.heap_budget_exhausted(result.heap_transitions) {
            result.budget_exhausted = true;
            return;
        }
        if let Some(loads) = view.index.loads_by_field.get(&field) {
            for &(lnode, load) in loads {
                let Some(lbase) = load.base else { continue };
                let Some(lpts) = view.pts.local(lnode, lbase) else { continue };
                if lpts.intersects(base_pts) {
                    if self.edge_impossible(store.node, lnode, base_pts, lpts) {
                        self.edges_dropped += 1;
                        continue;
                    }
                    result.heap_transitions += 1;
                    if self.heap_budget_exhausted(result.heap_transitions) {
                        result.budget_exhausted = true;
                        return;
                    }
                    let load_stmt = StmtNode { node: lnode, loc: load.loc };
                    steps.push(FlowStep { stmt: load_stmt, kind: StepKind::HeapEdge });
                    run.push((lnode, load.dst), parent, &steps);
                    steps.pop();
                }
            }
        }
        // Reflective invoke: array stores feed the invoked method's params.
        if field == FieldKey::Array {
            for &(inode, iloc, arr, callee) in &view.index.invoke_bindings {
                let Some(apts) = view.pts.local(inode, arr) else { continue };
                if apts.intersects(base_pts) {
                    if self.edge_impossible(store.node, inode, base_pts, apts) {
                        self.edges_dropped += 1;
                        continue;
                    }
                    result.heap_transitions += 1;
                    let stmt = StmtNode { node: inode, loc: iloc };
                    steps.push(FlowStep { stmt, kind: StepKind::HeapEdge });
                    for reg in view.param_registers(view.pts.callgraph.method_of(callee)) {
                        run.push((callee, reg), parent, &steps);
                    }
                    steps.pop();
                }
            }
        }
    }

    fn process_static_store(
        &self,
        run: &mut SeedRun<Fact>,
        result: &mut SliceResult,
        (store, field): (StmtNode, FieldId),
        parent: &Fact,
        prefix: &[FlowStep],
    ) {
        if !run.processed_stores.insert(store) {
            return;
        }
        let mut steps = prefix.to_vec();
        steps.push(FlowStep { stmt: store, kind: StepKind::Local });
        if let Some(loads) = self.view.index.static_loads.get(&field) {
            for &(lnode, load) in loads {
                result.heap_transitions += 1;
                if self.heap_budget_exhausted(result.heap_transitions) {
                    result.budget_exhausted = true;
                    return;
                }
                let load_stmt = StmtNode { node: lnode, loc: load.loc };
                steps.push(FlowStep { stmt: load_stmt, kind: StepKind::HeapEdge });
                run.push((lnode, load.dst), parent, &steps);
                steps.pop();
            }
        }
    }

    /// Taint passed into a body callee: apply (or compute) the RHS summary.
    fn process_arg(
        &mut self,
        run: &mut SeedRun<Fact>,
        found: &mut Found,
        call: StmtNode,
        pos: usize,
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
                "hybrid.summary",
                &mut self.interrupted,
            );
            let call_step = FlowStep { stmt: call, kind: StepKind::CallArg };
            for store in summary.stores {
                self.process_store(run, found, store, parent, &[call_step]);
            }
            for store in summary.static_stores {
                self.process_static_store(run, &mut found.result, store, parent, &[call_step]);
            }
            for sink in summary.sinks {
                run.emit(found, parent, &[call_step], sink, StepKind::CallArg);
            }
            if summary.reaches_ret {
                if let Some(d) = view.index.call_dst(call.node, call.loc) {
                    let ret_step = FlowStep { stmt: call, kind: StepKind::ReturnTo };
                    run.push((call.node, d), parent, &[call_step, ret_step]);
                }
            }
        }
    }

    fn heap_budget_exhausted(&self, used: usize) -> bool {
        matches!(self.bounds.max_heap_transitions, Some(max) if used >= max)
    }
}
