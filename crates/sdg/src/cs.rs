//! Context-sensitive (CS) thin slicing [Sridharan et al., PLDI'07]: heap
//! dependencies are threaded through the call structure ("additional
//! method parameters and return values") instead of direct store→load
//! edges.
//!
//! This reproduces the paper's two observations about CS thin slicing
//! (§3.2, §7.2):
//!
//! 1. **It does not scale**: heap facts multiply against contexts, so the
//!    fact space explodes. We model the paper's out-of-memory failures
//!    with a deterministic path-edge budget ([`SliceBounds::max_path_edges`]);
//!    exceeding it aborts with [`SliceError::OutOfBudget`].
//! 2. **It is unsound for multi-threaded programs**: a heap write
//!    performed by a spawned thread never returns to the spawner, so heap
//!    facts do not propagate back across `Thread.start` edges — exactly
//!    the false negatives the paper reports on BlueBlog, I, and SBM.
//!
//! The second defect is repairable: [`CsSlicer::with_escape`] reinstates
//! heap-fact returns across spawn edges, but *only* for abstract objects
//! the thread-escape analysis proves shared (and for statics, which are
//! shared by definition). Thread-local heap facts still stop at the spawn
//! edge, so the repair recovers the multithreading false negatives
//! without readmitting the full fact explosion.

use std::collections::VecDeque;

use jir::inst::{Loc, Var};
use jir::util::{FxHashMap, FxHashSet};
use taj_pointer::{spawn_edges, CGNodeId, EscapeAnalysis};
use taj_supervise::Supervisor;

use crate::kernel::{Found, SeedRun};
use crate::spec::{FlowStep, SliceBounds, SliceError, SliceResult, StepKind, StmtNode};
use crate::view::{FieldKey, ProgramView, Use};

/// Direction discipline for heap facts: a fact that has descended into a
/// callee must not return upward through an unrelated call site (that
/// would be an unrealizable down-then-up path, e.g. through a shared
/// static factory). Facts at or above their origin node may still return.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Dir {
    /// At or above the originating store: may return to callers.
    Up,
    /// Below a call edge: may only descend further or feed loads.
    Down,
}

/// A CS slicing fact at a node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum CsFact {
    /// A register carries taint.
    Var(Var),
    /// An abstract heap location `(instance key, field)` carries taint.
    Heap(u32, FieldKey, Dir),
    /// A static field carries taint.
    Static(jir::FieldId, Dir),
}

type Fact = (CGNodeId, CsFact);

/// The context-sensitive thin slicer.
#[derive(Debug)]
pub struct CsSlicer<'a> {
    view: &'a ProgramView<'a>,
    bounds: SliceBounds,
    /// Call sites per node (for pushing heap facts into callees).
    callees_of: FxHashMap<CGNodeId, Vec<(Loc, CGNodeId)>>,
    /// Spawn edges keyed by the full `(caller, loc, callee)` triple —
    /// `Thread.start` edges whose heap effects never return. Keying on
    /// the callee too means an ordinary return from a *different* callee
    /// invoked at the same call site is never mistaken for a spawn
    /// return.
    spawn_sites: FxHashSet<(CGNodeId, Loc, CGNodeId)>,
    /// When set, the CS-Escape repair: heap facts on escaping objects
    /// (and all static facts) may return across spawn edges after all.
    escape: Option<&'a EscapeAnalysis>,
    /// Cooperative supervision handle (default: unbounded).
    supervisor: Supervisor,
}

impl<'a> CsSlicer<'a> {
    /// Creates a plain CS slicer, reproducing the paper's thread
    /// unsoundness.
    pub fn new(view: &'a ProgramView<'a>, bounds: SliceBounds) -> Self {
        Self::build(view, bounds, None)
    }

    /// Creates a CS slicer in the escape-repair mode: spawn edges stay
    /// closed for thread-local heap facts but open for facts on objects
    /// that `escape` proves shared between threads.
    pub fn with_escape(
        view: &'a ProgramView<'a>,
        bounds: SliceBounds,
        escape: &'a EscapeAnalysis,
    ) -> Self {
        Self::build(view, bounds, Some(escape))
    }

    fn build(
        view: &'a ProgramView<'a>,
        bounds: SliceBounds,
        escape: Option<&'a EscapeAnalysis>,
    ) -> Self {
        let mut callees_of: FxHashMap<CGNodeId, Vec<(Loc, CGNodeId)>> = FxHashMap::default();
        for e in &view.pts.callgraph.edges {
            callees_of.entry(e.caller).or_default().push((e.loc, e.callee));
        }
        let spawn_sites =
            spawn_edges(view.pts).into_iter().map(|e| (e.caller, e.loc, e.callee)).collect();
        CsSlicer { view, bounds, callees_of, spawn_sites, escape, supervisor: Supervisor::new() }
    }

    /// Attaches a supervisor; its checks run at both tabulation loops
    /// (`cs.tabulate` and `cs.heap_closure` sites). On an interrupt the
    /// slicer returns `Ok` with the flows found so far and
    /// [`SliceResult::interrupted`] set.
    pub fn with_supervisor(mut self, supervisor: Supervisor) -> Self {
        self.supervisor = supervisor;
        self
    }

    /// The spawn-edge triples this slicer treats as thread boundaries.
    pub fn spawn_sites(&self) -> &FxHashSet<(CGNodeId, Loc, CGNodeId)> {
        &self.spawn_sites
    }

    /// Should the return of a heap/static fact from `callee` to `caller`
    /// at `cloc` be blocked? Plain CS blocks every spawn-edge return
    /// (the thread unsoundness); escape mode re-opens spawn edges for
    /// escaping objects (`ik = Some(..)`) and for statics (`ik = None`),
    /// which are shared by definition.
    fn blocks_return(
        &self,
        caller: CGNodeId,
        cloc: Loc,
        callee: CGNodeId,
        ik: Option<u32>,
    ) -> bool {
        if !self.spawn_sites.contains(&(caller, cloc, callee)) {
            return false;
        }
        match (self.escape, ik) {
            (Some(esc), Some(ik)) => !esc.escapes(ik),
            (Some(_), None) => false,
            (None, _) => true,
        }
    }

    /// Runs the slice from every source.
    ///
    /// # Errors
    /// Returns [`SliceError::OutOfBudget`] when the path-edge budget is
    /// exhausted — the analogue of the paper's CS out-of-memory runs.
    pub fn run(&mut self) -> Result<SliceResult, SliceError> {
        let mut found = Found::default();
        let mut total_path_edges = 0usize;
        // CS thin slicing materializes heap dependencies as extra
        // parameters and returns of the SDG — for *every* heap location,
        // not only tainted ones. Building that closure is the paper's
        // scalability bottleneck (§3.2: "this treatment is a scalability
        // bottleneck"), so we charge it against the same budget.
        self.build_heap_dependence_closure(&mut total_path_edges, &mut found.result)?;
        if found.result.interrupted.is_some() {
            return Ok(found.result);
        }
        for &(stmt, sc) in self.view.seeds() {
            let mut run = SeedRun::new(stmt, sc.method);
            run.seed((stmt.node, CsFact::Var(sc.dst)));
            self.tabulate(&mut run, &mut found, &mut total_path_edges)?;
            if found.result.interrupted.is_some() {
                break;
            }
        }
        Ok(found.result)
    }

    /// Charges one path edge against the budget.
    fn charge(&self, path_edges: &mut usize) -> Result<(), SliceError> {
        *path_edges += 1;
        match self.bounds.max_path_edges {
            Some(max) if *path_edges > max => {
                Err(SliceError::OutOfBudget { path_edges: *path_edges })
            }
            _ => Ok(()),
        }
    }

    /// Drains one seed's worklist; an interrupt stops it with the flows
    /// found so far.
    fn tabulate(
        &self,
        run: &mut SeedRun<Fact>,
        found: &mut Found,
        path_edges: &mut usize,
    ) -> Result<(), SliceError> {
        while let Some(fact) = run.pop() {
            if let Err(reason) = self.supervisor.check("cs.tabulate") {
                found.result.interrupted = Some(reason);
                return Ok(());
            }
            found.result.work += 1;
            self.charge(path_edges)?;
            let (node, cs) = fact;
            match cs {
                CsFact::Var(v) => self.process_var(run, found, node, v, &fact),
                CsFact::Heap(ik, field, dir) => self.process_heap(run, (ik, field, dir), &fact),
                CsFact::Static(f, dir) => self.process_static(run, f, dir, &fact),
            }
        }
        Ok(())
    }

    /// Computes the heap-as-parameters dependence closure: every store in
    /// the program injects a heap fact, which is then propagated along the
    /// call structure exactly like during slicing. The result is the set
    /// of summary param/return positions the CS SDG must materialize; the
    /// work is charged against the path-edge budget.
    fn build_heap_dependence_closure(
        &self,
        total_path_edges: &mut usize,
        result: &mut SliceResult,
    ) -> Result<(), SliceError> {
        let mut visited: FxHashSet<Fact> = FxHashSet::default();
        let mut queue: VecDeque<Fact> = VecDeque::new();
        // Seed: all stores (heap and static), program-wide. The closure
        // is a fixpoint, so the seeding order moves no counter.
        let view = self.view;
        for node in view.pts.callgraph.iter_nodes() {
            for v in 0..view.index.num_vars(node) {
                for u in view.uses(node, Var(v)) {
                    match *u {
                        Use::Store { base, field, .. } => {
                            for ik in view.index.local_pts(node, base).iter() {
                                let f = (node, CsFact::Heap(ik, field, Dir::Up));
                                if visited.insert(f) {
                                    queue.push_back(f);
                                }
                            }
                        }
                        Use::StaticStore { field, .. } => {
                            let f = (node, CsFact::Static(field, Dir::Up));
                            if visited.insert(f) {
                                queue.push_back(f);
                            }
                        }
                        _ => {}
                    }
                }
            }
        }
        // Propagate to a fixpoint under the budget.
        while let Some(fact) = queue.pop_front() {
            if let Err(reason) = self.supervisor.check("cs.heap_closure") {
                result.interrupted = Some(reason);
                return Ok(());
            }
            result.work += 1;
            self.charge(total_path_edges)?;
            let (node, cs) = fact;
            let push_plain = |f: Fact, q: &mut VecDeque<Fact>, v: &mut FxHashSet<Fact>| {
                if v.insert(f) {
                    q.push_back(f);
                }
            };
            match cs {
                CsFact::Var(v) => {
                    for &u in view.uses(node, v) {
                        match u {
                            Use::Flow { to, .. } => {
                                push_plain((node, CsFact::Var(to)), &mut queue, &mut visited)
                            }
                            Use::Store { base, field, .. } => {
                                for ik in view.index.local_pts(node, base).iter() {
                                    push_plain(
                                        (node, CsFact::Heap(ik, field, Dir::Up)),
                                        &mut queue,
                                        &mut visited,
                                    );
                                }
                            }
                            Use::StaticStore { field, .. } => push_plain(
                                (node, CsFact::Static(field, Dir::Up)),
                                &mut queue,
                                &mut visited,
                            ),
                            Use::Arg { loc, pos } => {
                                // Unfiltered: the SDG gets a heap
                                // parameter at every call, role or not.
                                for &t in view.pts.callgraph.targets(node, loc) {
                                    let cm = view.pts.callgraph.method_of(t);
                                    if let Some(r) = view.param_register(cm, pos) {
                                        push_plain((t, CsFact::Var(r)), &mut queue, &mut visited);
                                    }
                                }
                            }
                            Use::Ret { .. } => {
                                for &(caller, _, cdst) in view.index.return_sites(node) {
                                    if let Some(d) = cdst {
                                        push_plain(
                                            (caller, CsFact::Var(d)),
                                            &mut queue,
                                            &mut visited,
                                        );
                                    }
                                }
                            }
                            Use::SinkArg { .. } | Use::Sanitized { .. } => {}
                        }
                    }
                }
                CsFact::Heap(ik, field, dir) => {
                    for l in view.index.loads(node) {
                        if l.field == Some(field) {
                            if let Some(lb) = l.base {
                                if view.index.local_pts(node, lb).contains(ik) {
                                    push_plain(
                                        (node, CsFact::Var(l.dst)),
                                        &mut queue,
                                        &mut visited,
                                    );
                                }
                            }
                        }
                    }
                    if let Some(callees) = self.callees_of.get(&node) {
                        for &(_, callee) in callees {
                            push_plain(
                                (callee, CsFact::Heap(ik, field, Dir::Down)),
                                &mut queue,
                                &mut visited,
                            );
                        }
                    }
                    if dir == Dir::Up {
                        for &(caller, cloc, _) in view.index.return_sites(node) {
                            if !self.blocks_return(caller, cloc, node, Some(ik)) {
                                push_plain(
                                    (caller, CsFact::Heap(ik, field, Dir::Up)),
                                    &mut queue,
                                    &mut visited,
                                );
                            }
                        }
                    }
                }
                CsFact::Static(field, dir) => {
                    for l in view.index.loads(node) {
                        if l.static_field == Some(field) {
                            push_plain((node, CsFact::Var(l.dst)), &mut queue, &mut visited);
                        }
                    }
                    if let Some(callees) = self.callees_of.get(&node) {
                        for &(_, callee) in callees {
                            push_plain(
                                (callee, CsFact::Static(field, Dir::Down)),
                                &mut queue,
                                &mut visited,
                            );
                        }
                    }
                    if dir == Dir::Up {
                        for &(caller, cloc, _) in view.index.return_sites(node) {
                            if !self.blocks_return(caller, cloc, node, None) {
                                push_plain(
                                    (caller, CsFact::Static(field, Dir::Up)),
                                    &mut queue,
                                    &mut visited,
                                );
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn process_var(
        &self,
        run: &mut SeedRun<Fact>,
        found: &mut Found,
        node: CGNodeId,
        v: Var,
        fact: &Fact,
    ) {
        let view = self.view;
        for &u in view.uses(node, v) {
            match u {
                Use::Flow { to, loc } => run.push(
                    (node, CsFact::Var(to)),
                    fact,
                    &[FlowStep { stmt: StmtNode { node, loc }, kind: StepKind::Local }],
                ),
                Use::Store { loc, base, field } => {
                    let store_step =
                        FlowStep { stmt: StmtNode { node, loc }, kind: StepKind::Local };
                    let base_pts = view.index.local_pts(node, base);
                    // Carrier detection applies in CS too (§4.1.1).
                    run.emit_carriers(view, found, fact, &[store_step], base_pts);
                    // Heap facts instead of direct edges.
                    for ik in base_pts.iter() {
                        run.push((node, CsFact::Heap(ik, field, Dir::Up)), fact, &[store_step]);
                    }
                }
                Use::StaticStore { loc, field } => run.push(
                    (node, CsFact::Static(field, Dir::Up)),
                    fact,
                    &[FlowStep { stmt: StmtNode { node, loc }, kind: StepKind::Local }],
                ),
                Use::Arg { loc, pos } => {
                    let call_step =
                        FlowStep { stmt: StmtNode { node, loc }, kind: StepKind::CallArg };
                    for &t in view.pts.callgraph.targets(node, loc) {
                        let cm = view.pts.callgraph.method_of(t);
                        if let Some(r) = view.callee_entry(cm, pos) {
                            run.push((t, CsFact::Var(r)), fact, &[call_step]);
                        }
                    }
                }
                Use::Ret { .. } => {
                    for &(caller, cloc, cdst) in view.index.return_sites(node) {
                        if let Some(d) = cdst {
                            run.push(
                                (caller, CsFact::Var(d)),
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
                    let sink = (StmtNode { node, loc }, method, pos);
                    run.emit(found, fact, &[], sink, StepKind::Local);
                }
                Use::Sanitized { .. } => {}
            }
        }
    }

    /// A heap fact travels with the call structure: it reaches loads in
    /// the current node, flows into callees, and returns to callers —
    /// except across spawn edges (thread unsoundness, see module docs).
    fn process_heap(
        &self,
        run: &mut SeedRun<Fact>,
        (ik, field, dir): (u32, FieldKey, Dir),
        fact: &Fact,
    ) {
        let node = fact.0;
        // Loads in this node.
        let view = self.view;
        for l in view.index.loads(node) {
            let (Some(lf), Some(lbase)) = (l.field, l.base) else { continue };
            if lf != field {
                continue;
            }
            if view.index.local_pts(node, lbase).contains(ik) {
                run.push(
                    (node, CsFact::Var(l.dst)),
                    fact,
                    &[FlowStep { stmt: StmtNode { node, loc: l.loc }, kind: StepKind::HeapEdge }],
                );
            }
        }
        // Reflective invoke: the argument array's contents bind to the
        // invoked method's parameters.
        if field == FieldKey::Array {
            for &(inode, iloc, arr, callee) in &view.index.invoke_bindings {
                if inode != node {
                    continue; // call-structure consistency
                }
                if view.index.local_pts(inode, arr).contains(ik) {
                    let stmt = StmtNode { node: inode, loc: iloc };
                    for r in view.param_registers(view.pts.callgraph.method_of(callee)) {
                        let step = FlowStep { stmt, kind: StepKind::HeapEdge };
                        run.push((callee, CsFact::Var(r)), fact, &[step]);
                    }
                }
            }
        }
        // Into callees ("heap as extra parameter") — the fact is now below
        // a call edge and loses the right to return upward.
        if let Some(callees) = self.callees_of.get(&node) {
            for &(loc, callee) in callees {
                run.push(
                    (callee, CsFact::Heap(ik, field, Dir::Down)),
                    fact,
                    &[FlowStep { stmt: StmtNode { node, loc }, kind: StepKind::CallArg }],
                );
            }
        }
        // Back to callers ("heap as extra return value"): only for facts
        // at or above their origin (realizable paths), and never across
        // spawn edges (the CS thread unsoundness).
        if dir == Dir::Up {
            for &(caller, cloc, _) in view.index.return_sites(node) {
                if self.blocks_return(caller, cloc, node, Some(ik)) {
                    continue; // CS thread unsoundness
                }
                run.push(
                    (caller, CsFact::Heap(ik, field, Dir::Up)),
                    fact,
                    &[FlowStep {
                        stmt: StmtNode { node: caller, loc: cloc },
                        kind: StepKind::ReturnTo,
                    }],
                );
            }
        }
    }

    fn process_static(&self, run: &mut SeedRun<Fact>, field: jir::FieldId, dir: Dir, fact: &Fact) {
        let node = fact.0;
        let view = self.view;
        for l in view.index.loads(node) {
            if l.static_field == Some(field) {
                run.push(
                    (node, CsFact::Var(l.dst)),
                    fact,
                    &[FlowStep { stmt: StmtNode { node, loc: l.loc }, kind: StepKind::HeapEdge }],
                );
            }
        }
        if let Some(callees) = self.callees_of.get(&node) {
            for &(loc, callee) in callees {
                run.push(
                    (callee, CsFact::Static(field, Dir::Down)),
                    fact,
                    &[FlowStep { stmt: StmtNode { node, loc }, kind: StepKind::CallArg }],
                );
            }
        }
        if dir == Dir::Up {
            for &(caller, cloc, _) in view.index.return_sites(node) {
                if self.blocks_return(caller, cloc, node, None) {
                    continue;
                }
                run.push(
                    (caller, CsFact::Static(field, Dir::Up)),
                    fact,
                    &[FlowStep {
                        stmt: StmtNode { node: caller, loc: cloc },
                        kind: StepKind::ReturnTo,
                    }],
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SliceSpec;
    use crate::view::SliceIndex;
    use taj_pointer::{analyze, PointsTo, SolverConfig};

    fn build(src: &str) -> (jir::Program, PointsTo) {
        let mut program = jir::frontend::build_program(src).expect("builds");
        let mains: Vec<jir::MethodId> = program
            .iter_classes()
            .map(|(cid, _)| cid)
            .collect::<Vec<_>>()
            .into_iter()
            .filter_map(|cid| program.method_by_name(cid, "main"))
            .collect();
        program.entrypoints.extend(mains);
        let pts = analyze(&program, &SolverConfig::default());
        (program, pts)
    }

    const TWO_SPAWNS: &str = r#"
        class A implements Runnable { ctor () { } method void run() { } }
        class B implements Runnable { ctor () { } method void run() { } }
        class Main {
            static method void main() {
                A a = new A();
                Thread t = new Thread(a);
                t.start();
                B b = new B();
                Thread u = new Thread(b);
                u.start();
                Main.helper();
            }
            static method void helper() { }
        }
    "#;

    #[test]
    fn spawn_sites_are_keyed_by_full_edge_triple() {
        let (program, pts) = build(TWO_SPAWNS);
        let spec = SliceSpec::default();
        let index = SliceIndex::build(&program, &pts, [&spec]);
        let view = ProgramView::build(&index, &spec);
        let slicer = CsSlicer::new(&view, SliceBounds::default());

        let sites = slicer.spawn_sites();
        assert_eq!(sites.len(), 2, "one triple per Thread.start edge: {sites:?}");
        // Each triple matches the canonical spawn-edge list exactly.
        let canonical: FxHashSet<(CGNodeId, Loc, CGNodeId)> =
            spawn_edges(&pts).into_iter().map(|e| (e.caller, e.loc, e.callee)).collect();
        assert_eq!(sites, &canonical);
        // The callees are distinct run() nodes (A.run and B.run), each at
        // a distinct call-site location of the same caller.
        let callees: FxHashSet<CGNodeId> = sites.iter().map(|&(_, _, c)| c).collect();
        assert_eq!(callees.len(), 2, "distinct spawned run() nodes");
        let locs: FxHashSet<(CGNodeId, Loc)> = sites.iter().map(|&(n, l, _)| (n, l)).collect();
        assert_eq!(locs.len(), 2, "distinct spawn call sites");
    }

    #[test]
    fn ordinary_calls_are_not_spawn_sites() {
        let (program, pts) = build(TWO_SPAWNS);
        let spec = SliceSpec::default();
        let index = SliceIndex::build(&program, &pts, [&spec]);
        let view = ProgramView::build(&index, &spec);
        let slicer = CsSlicer::new(&view, SliceBounds::default());

        // Main.helper() is a plain call edge: it must not appear in
        // spawn_sites even though it shares the caller node.
        let helper_class = program.class_by_name("Main").unwrap();
        let helper = program.method_by_name(helper_class, "helper").unwrap();
        for node in pts.callgraph.nodes_of_method(helper) {
            assert!(
                !slicer.spawn_sites().iter().any(|&(_, _, c)| c == node),
                "helper() must not be a spawn callee"
            );
        }
        assert!(!slicer.spawn_sites().is_empty());
    }

    #[test]
    fn single_threaded_program_has_no_spawn_sites() {
        let (program, pts) = build(
            r#"
            class Main { static method void main() { Object o = new Object(); } }
        "#,
        );
        let spec = SliceSpec::default();
        let index = SliceIndex::build(&program, &pts, [&spec]);
        let view = ProgramView::build(&index, &spec);
        let slicer = CsSlicer::new(&view, SliceBounds::default());
        assert!(slicer.spawn_sites().is_empty());
    }

    #[test]
    fn blocks_return_respects_escape_mode() {
        let (program, pts) = build(TWO_SPAWNS);
        let spec = SliceSpec::default();
        let index = SliceIndex::build(&program, &pts, [&spec]);
        let view = ProgramView::build(&index, &spec);
        let heap = taj_pointer::HeapGraph::build(&pts);
        let esc = EscapeAnalysis::compute(&pts, &heap);

        let plain = CsSlicer::new(&view, SliceBounds::default());
        let repaired = CsSlicer::with_escape(&view, SliceBounds::default(), &esc);
        let &(caller, loc, callee) = plain.spawn_sites().iter().next().unwrap();

        // The spawned runnable itself escapes; a heap fact on it returns
        // only in escape mode. Statics always return in escape mode.
        let escaping_ik = esc.escaping().iter().next().expect("receiver escapes");
        assert!(plain.blocks_return(caller, loc, callee, Some(escaping_ik)));
        assert!(plain.blocks_return(caller, loc, callee, None));
        assert!(!repaired.blocks_return(caller, loc, callee, Some(escaping_ik)));
        assert!(!repaired.blocks_return(caller, loc, callee, None));

        // A thread-local object still may not return across the spawn.
        let local_ik = (0..pts.num_instance_keys() as u32).find(|&ik| !esc.escapes(ik));
        if let Some(ik) = local_ik {
            assert!(repaired.blocks_return(caller, loc, callee, Some(ik)));
        }

        // A non-spawn (caller, loc, callee) combination never blocks: the
        // same caller and loc with the *wrong* callee is not a spawn edge.
        assert!(!plain.blocks_return(caller, loc, caller, Some(escaping_ik)));
        let _ = program;
    }
}
