//! The slicing kernel: what the hybrid, IFDS, CS and CI slicers share.
//!
//! The four slicers differ in their fact spaces and in how taint crosses
//! the heap and calls. Everything else is here, once:
//!
//! - [`SummaryTable`]: RHS endpoint summaries over the no-heap SDG,
//!   tabulated to a fixpoint on demand (hybrid and IFDS);
//! - [`SeedRun`]: one seed's traversal state and its witness path,
//!   generic over the slicer's fact type (all four);
//! - [`Found`] and [`SeedRun::emit`]: flow emission, one flow per
//!   `(seed, sink, position)` with its path and heap-transition count;
//! - [`slice_seeds`]: the seed loop, by-reference seeds included.
//!
//! The callee-entry mapping (argument position → callee register, with
//! and without the rule's role filter) is on [`ProgramView`].

use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::hash::Hash;

use jir::inst::Var;
use jir::util::{BitSet, FxHashMap, FxHashSet};
use jir::{FieldId, MethodId};
use taj_pointer::CGNodeId;
use taj_supervise::{InterruptReason, Supervisor};

use crate::spec::{Flow, FlowStep, SliceResult, StepKind, StmtNode};
use crate::view::{FieldKey, ProgramView, RefSeed, SourceCall, Use};

/// A register of a call-graph node: a summary's entry, and the hybrid
/// slicer's fact.
pub(crate) type Register = (CGNodeId, Var);

/// A sink argument reached: the call statement, the sink method and the
/// parameter position.
pub(crate) type SinkAt = (StmtNode, MethodId, usize);

/// What a callee does with taint entering through one register: an RHS
/// endpoint summary over the no-heap SDG. Local flow never changes an
/// access-path suffix, so IFDS instantiates one summary for every suffix.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct Summary {
    /// Heap stores reached (statement, base register, field).
    pub(crate) stores: Vec<(StmtNode, Var, FieldKey)>,
    /// Static stores reached.
    pub(crate) static_stores: Vec<(StmtNode, FieldId)>,
    /// Sink arguments reached.
    pub(crate) sinks: Vec<SinkAt>,
    /// Whether the taint reaches the method's return value.
    pub(crate) reaches_ret: bool,
}

impl Summary {
    /// Adds a callee's stores and sinks. Its return bit is the caller's
    /// business: taint returned continues at the call's destination.
    fn join(&mut self, callee: &Summary) {
        callee.stores.iter().for_each(|&st| add(&mut self.stores, st));
        callee.static_stores.iter().for_each(|&st| add(&mut self.static_stores, st));
        callee.sinks.iter().for_each(|&sk| add(&mut self.sinks, sk));
    }
}

fn add<T: PartialEq>(list: &mut Vec<T>, item: T) {
    if !list.contains(&item) {
        list.push(item);
    }
}

/// The memo table of callee-entry summaries, private to one slicer.
#[derive(Debug, Default)]
pub(crate) struct SummaryTable {
    summaries: FxHashMap<Register, Summary>,
    /// Reverse dependencies: when `key`'s summary grows, recompute these,
    /// in first-dependence order so the fixpoint's evaluation order (and
    /// `work`) is a function of the program.
    dependents: FxHashMap<Register, Vec<Register>>,
    /// Fixpoint-queue pops: summary evaluations started.
    evaluations: usize,
    /// Local-flow pops inside the evaluations.
    work: usize,
}

impl SummaryTable {
    /// Entries tabulated so far.
    pub(crate) fn entries(&self) -> usize {
        self.summaries.len()
    }

    /// Summary edges tabulated: every store, static-store and sink effect
    /// and reaches-return bit across the memoized summaries.
    pub(crate) fn edges(&self) -> usize {
        let edges = |s: &Summary| {
            s.stores.len() + s.static_stores.len() + s.sinks.len() + usize::from(s.reaches_ret)
        };
        self.summaries.values().map(edges).sum()
    }

    /// Summary evaluations started (fixpoint-queue pops).
    pub(crate) fn evaluations(&self) -> usize {
        self.evaluations
    }

    /// Local-flow pops across every evaluation.
    pub(crate) fn work(&self) -> usize {
        self.work
    }

    /// Returns the summary for taint entering `entry`, computing it (and
    /// every transitive callee summary) to a fixpoint on first demand.
    /// Each evaluation first asks `supervisor` at `site`. An interrupt is
    /// stored in `interrupted` and ends the fixpoint: the entry keeps what
    /// it has, ⊥ if nothing. An incomplete summary is an
    /// under-approximation; the interrupt flag tells the driver the
    /// result is partial.
    pub(crate) fn summary(
        &mut self,
        view: &ProgramView<'_>,
        entry: Register,
        supervisor: &Supervisor,
        site: &str,
        interrupted: &mut Option<InterruptReason>,
    ) -> Summary {
        if !self.summaries.contains_key(&entry) {
            let mut queue = VecDeque::from([entry]);
            while let Some(key) = queue.pop_front() {
                if let Err(reason) = supervisor.check(site) {
                    *interrupted = Some(reason);
                    self.summaries.entry(entry).or_default();
                    break;
                }
                self.evaluations += 1;
                let computed = self.compute_summary(view, key, &mut queue);
                if self.summaries.get(&key) != Some(&computed) {
                    self.summaries.insert(key, computed);
                    if let Some(deps) = self.dependents.get(&key) {
                        queue.extend(deps.iter().copied());
                    }
                }
            }
        }
        self.summaries[&entry].clone()
    }

    /// One monotone evaluation of a summary from the current table. A
    /// callee without a summary yet is scheduled and counts as ⊥.
    fn compute_summary(
        &mut self,
        view: &ProgramView<'_>,
        entry: Register,
        queue: &mut VecDeque<Register>,
    ) -> Summary {
        let (node, entry_var) = entry;
        let mut out = Summary::default();
        let mut visited: FxHashSet<Var> = [entry_var].into_iter().collect();
        let mut local_queue = vec![entry_var];
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
                        add(&mut out.stores, (StmtNode { node, loc }, base, field));
                    }
                    Use::StaticStore { loc, field } => {
                        add(&mut out.static_stores, (StmtNode { node, loc }, field));
                    }
                    Use::SinkArg { loc, method, pos } => {
                        add(&mut out.sinks, (StmtNode { node, loc }, method, pos));
                    }
                    Use::Ret { .. } => out.reaches_ret = true,
                    Use::Sanitized { .. } => {}
                    Use::Arg { loc, pos } => {
                        for &t in view.pts.callgraph.targets(node, loc) {
                            let cm = view.pts.callgraph.method_of(t);
                            let Some(var) = view.callee_entry(cm, pos) else { continue };
                            let sub_key = (t, var);
                            add(self.dependents.entry(sub_key).or_default(), entry);
                            let reaches_ret = match self.summaries.get(&sub_key) {
                                Some(sub) => {
                                    out.join(sub);
                                    sub.reaches_ret
                                }
                                None => {
                                    queue.push_back(sub_key);
                                    false
                                }
                            };
                            if !reaches_ret {
                                continue;
                            }
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
        out
    }
}

/// One seed's traversal state, generic over the slicer's fact type: the
/// facts visited with each one's parent link (the fact it came from and
/// the steps taken), the work queue, and the stores already expanded.
#[derive(Debug)]
pub(crate) struct SeedRun<F> {
    /// The seed statement.
    stmt: StmtNode,
    /// The method whose call generated the taint.
    method: MethodId,
    /// Every fact reached from the seed, with its parent link.
    parents: FxHashMap<F, (Option<F>, Vec<FlowStep>)>,
    queue: VecDeque<F>,
    /// Stores whose heap edges this seed has followed (hybrid and CI
    /// expand a store once per seed).
    pub(crate) processed_stores: FxHashSet<StmtNode>,
}

impl<F: Clone + Eq + Hash> SeedRun<F> {
    /// Empty state for the seed at `stmt`, a call of `method`.
    pub(crate) fn new(stmt: StmtNode, method: MethodId) -> Self {
        SeedRun {
            stmt,
            method,
            parents: FxHashMap::default(),
            queue: VecDeque::new(),
            processed_stores: FxHashSet::default(),
        }
    }

    /// Adds an initial fact: its path starts at the seed statement.
    pub(crate) fn seed(&mut self, fact: F) {
        self.insert(fact, None, &[FlowStep { stmt: self.stmt, kind: StepKind::Seed }]);
    }

    /// Adds `fact`, reached from `from` through `steps`, unless visited.
    pub(crate) fn push(&mut self, fact: F, from: &F, steps: &[FlowStep]) {
        self.insert(fact, Some(from), steps);
    }

    /// Records a new fact's parent link and queues it; a visited fact
    /// keeps its first parent, and nothing is allocated for it.
    fn insert(&mut self, fact: F, from: Option<&F>, steps: &[FlowStep]) {
        if let Entry::Vacant(slot) = self.parents.entry(fact) {
            self.queue.push_back(slot.key().clone());
            slot.insert((from.cloned(), steps.to_vec()));
        }
    }

    /// The number of facts reached from the seed.
    pub(crate) fn facts(&self) -> usize {
        self.parents.len()
    }

    /// The next fact to expand, in insertion order.
    pub(crate) fn pop(&mut self) -> Option<F> {
        self.queue.pop_front()
    }

    /// The witness path from the seed to `fact`. A fact gets its parent
    /// once, on first insertion, from a fact visited before it, so the
    /// links cannot form a cycle.
    fn reconstruct(&self, fact: &F) -> Vec<FlowStep> {
        let mut rev = Vec::new();
        let mut cur = Some(fact);
        while let Some(f) = cur {
            let Some((prev, steps)) = self.parents.get(f) else { break };
            rev.extend(steps.iter().rev().copied());
            cur = prev.as_ref();
        }
        rev.reverse();
        rev
    }

    /// Reports the flow that reaches `sink` from `parent` through `mid`,
    /// its last step of kind `last`, unless this seed statement has
    /// reported that sink position already.
    pub(crate) fn emit(
        &self,
        found: &mut Found,
        parent: &F,
        mid: &[FlowStep],
        sink: SinkAt,
        last: StepKind,
    ) {
        found.report(self.stmt, self.method, sink, || {
            let mut path = self.reconstruct(parent);
            path.extend_from_slice(mid);
            path.push(FlowStep { stmt: sink.0, kind: last });
            path
        });
    }

    /// Taint carriers (§4.1.1): taint stored by `steps` after `parent`
    /// into an object of `pts` reaches every sink argument the object
    /// may reach.
    pub(crate) fn emit_carriers(
        &self,
        view: &ProgramView<'_>,
        found: &mut Found,
        parent: &F,
        steps: &[FlowStep],
        pts: &BitSet,
    ) {
        for ik in pts.iter() {
            for cs in view.spec.carrier_sinks.get(&ik).into_iter().flatten() {
                self.emit(
                    found,
                    parent,
                    steps,
                    (cs.stmt, cs.method, cs.pos),
                    StepKind::CarrierEdge,
                );
            }
        }
    }
}

/// A slicing run's result under construction, with the
/// `(seed, sink, position)` key of every flow it has reported.
#[derive(Debug, Default)]
pub(crate) struct Found {
    /// The result so far.
    pub(crate) result: SliceResult,
    seen: FxHashSet<(StmtNode, StmtNode, usize)>,
}

impl Found {
    /// Adds the flow from the seed at `source` to `sink` unless its key
    /// is known; `path` builds the witness only for a new flow.
    fn report(
        &mut self,
        source: StmtNode,
        source_method: MethodId,
        (sink, sink_method, sink_pos): SinkAt,
        path: impl FnOnce() -> Vec<FlowStep>,
    ) {
        if !self.seen.insert((source, sink, sink_pos)) {
            return;
        }
        let path = path();
        let heap_transitions = path
            .iter()
            .filter(|s| matches!(s.kind, StepKind::HeapEdge | StepKind::CarrierEdge))
            .count();
        self.result.flows.push(Flow {
            source,
            source_method,
            sink,
            sink_method,
            sink_pos,
            path,
            heap_transitions,
        });
    }
}

/// Starts a traversal at every seed, then at every by-reference seed
/// (footnote 2), in list order, and hands each to `slice` until it
/// returns `false`. `fact` turns a seeded register into the slicer's
/// fact. A by-reference seed's facts are the loads that may read the
/// argument object's state, and the object itself carries the taint
/// straight to every carrier sink it reaches.
pub(crate) fn slice_seeds<F: Clone + Eq + Hash>(
    view: &ProgramView<'_>,
    seeds: &[(StmtNode, SourceCall)],
    ref_seeds: &[RefSeed],
    found: &mut Found,
    fact: impl Fn(CGNodeId, Var) -> F,
    mut slice: impl FnMut(SeedRun<F>, &mut Found) -> bool,
) {
    for &(stmt, sc) in seeds {
        let mut run = SeedRun::new(stmt, sc.method);
        run.seed(fact(stmt.node, sc.dst));
        if !slice(run, found) {
            return;
        }
    }
    for rs in ref_seeds {
        let mut run = SeedRun::new(rs.stmt, rs.method);
        for &(node, var) in &rs.facts {
            run.seed(fact(node, var));
        }
        for ik in rs.arg_pts.iter() {
            for cs in view.spec.carrier_sinks.get(&ik).into_iter().flatten() {
                let path = || {
                    let seed = FlowStep { stmt: rs.stmt, kind: StepKind::Seed };
                    vec![seed, FlowStep { stmt: cs.stmt, kind: StepKind::CarrierEdge }]
                };
                found.report(rs.stmt, rs.method, (cs.stmt, cs.method, cs.pos), path);
            }
        }
        if !slice(run, found) {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jir::inst::Loc;
    use jir::BlockId;

    fn stmt(i: usize) -> StmtNode {
        StmtNode { node: CGNodeId(0), loc: Loc::new(BlockId(0), i) }
    }

    fn step(i: usize) -> FlowStep {
        FlowStep { stmt: stmt(i), kind: StepKind::Local }
    }

    #[test]
    fn a_visited_fact_keeps_its_first_parent() {
        let mut run: SeedRun<u32> = SeedRun::new(stmt(0), MethodId(0));
        run.seed(0);
        assert_eq!(run.pop(), Some(0));
        run.push(1, &0, &[step(1)]);
        run.push(2, &0, &[step(2)]);
        assert_eq!(run.pop(), Some(1));
        // Fact 2 is queued and then expanded; each time, a second parent
        // neither queues it again nor changes its witness path.
        run.push(2, &1, &[step(3)]);
        assert_eq!(run.pop(), Some(2));
        run.push(2, &1, &[step(4), step(5)]);
        assert_eq!(run.pop(), None);
        assert_eq!(run.facts(), 3);
        let seed = FlowStep { stmt: stmt(0), kind: StepKind::Seed };
        assert_eq!(run.reconstruct(&2), vec![seed, step(2)]);
    }
}
