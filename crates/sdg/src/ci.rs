//! Context-insensitive (CI) thin slicing [Sridharan et al., PLDI'07],
//! the cheap-and-imprecise baseline of the paper's evaluation.
//!
//! All calling contexts of a method are collapsed: facts are
//! `(method, register)` pairs, call returns flow to *every* call site, and
//! heap direct edges match on points-to sets unioned across contexts.

use std::collections::{HashMap, HashSet, VecDeque};

use jir::inst::{Loc, Var};
use jir::util::BitSet;
use jir::MethodId;
use taj_pointer::CGNodeId;
use taj_supervise::Supervisor;

use crate::spec::{Flow, FlowStep, SliceBounds, SliceResult, StepKind, StmtNode};
use crate::view::{FieldKey, ProgramView, SliceIndex, Use};

type Fact = (MethodId, Var);
/// Per-seed provenance: predecessor fact plus the steps taken.
type Parents = HashMap<Fact, (Option<Fact>, Vec<FlowStep>)>;
/// Method-level load inventory entries.
type MethodLoad = (MethodId, Loc, Option<Var>, Var);

/// The rule-independent part of the context collapse: each method's
/// contexts, merged points-to sets, call plumbing, and load inventories.
/// Build it once per analysis and share it across every rule's
/// [`CiSlicer`] (the per-rule part is only the `uses` classification,
/// which the slicer reads from the view across a method's contexts).
#[derive(Debug)]
pub struct CiCache {
    /// Every call-graph node of a method, in node order. The first is
    /// the representative node for reporting statements.
    contexts: HashMap<MethodId, Vec<CGNodeId>>,
    /// Merged register points-to sets across contexts.
    merged_pts: HashMap<Fact, BitSet>,
    /// Method-level call targets per call site.
    site_targets: HashMap<(MethodId, Loc), Vec<MethodId>>,
    /// Method-level return plumbing: callee → (caller, loc, dst).
    return_sites: HashMap<MethodId, Vec<(MethodId, Loc, Option<Var>)>>,
    /// Loads by field, method level, in node order of the methods'
    /// first contexts.
    loads_by_field: HashMap<FieldKey, Vec<MethodLoad>>,
    static_loads: HashMap<jir::FieldId, Vec<(MethodId, Loc, Var)>>,
    /// Invoke bindings method level: (caller, loc, array var, callee).
    invoke_bindings: Vec<(MethodId, Loc, Var, MethodId)>,
}

impl CiCache {
    /// Builds the rule-independent collapse from the slice index: a
    /// method's loads are those of its first context, and every
    /// method-level list is filled in node order.
    pub fn build(index: &SliceIndex<'_>) -> Self {
        let pts = index.pts;
        let cg = &pts.callgraph;
        let mut contexts: HashMap<MethodId, Vec<CGNodeId>> = HashMap::new();
        let mut merged_pts: HashMap<Fact, BitSet> = HashMap::new();
        let mut site_targets: HashMap<(MethodId, Loc), Vec<MethodId>> = HashMap::new();
        let mut return_sites: HashMap<MethodId, Vec<(MethodId, Loc, Option<Var>)>> = HashMap::new();
        let mut loads_by_field: HashMap<FieldKey, Vec<MethodLoad>> = HashMap::new();
        let mut static_loads: HashMap<jir::FieldId, Vec<(MethodId, Loc, Var)>> = HashMap::new();
        for node in cg.iter_nodes() {
            let m = cg.method_of(node);
            let nodes = contexts.entry(m).or_default();
            nodes.push(node);
            if nodes.len() > 1 {
                continue;
            }
            // Method-level load inventory: the loads of the first context
            // (container pseudo-loads included).
            for l in index.loads(node) {
                if let Some(f) = l.field {
                    loads_by_field.entry(f).or_default().push((m, l.loc, l.base, l.dst));
                } else if let Some(sf) = l.static_field {
                    static_loads.entry(sf).or_default().push((m, l.loc, l.dst));
                }
            }
        }
        // Merge points-to sets across contexts (single pass).
        for (_, key, set) in pts.iter_pointer_keys() {
            if let taj_pointer::PointerKey::Local { node: kn, var } = key {
                let m = cg.method_of(*kn);
                merged_pts.entry((m, *var)).or_default().extend(set.iter());
            }
        }
        for e in &cg.edges {
            let cm = cg.method_of(e.caller);
            let tm = cg.method_of(e.callee);
            let entry = site_targets.entry((cm, e.loc)).or_default();
            if !entry.contains(&tm) {
                entry.push(tm);
            }
            let dst = index.call_dst(e.caller, e.loc);
            let rentry = return_sites.entry(tm).or_default();
            if !rentry.iter().any(|&(c, l, _)| c == cm && l == e.loc) {
                rentry.push((cm, e.loc, dst));
            }
        }
        let invoke_bindings = pts
            .invoke_bindings
            .iter()
            .map(|b| (cg.method_of(b.caller), b.loc, b.arg_array, cg.method_of(b.callee)))
            .collect();
        CiCache {
            contexts,
            merged_pts,
            site_targets,
            return_sites,
            loads_by_field,
            static_loads,
            invoke_bindings,
        }
    }
}

/// The context-insensitive thin slicer.
#[derive(Debug)]
pub struct CiSlicer<'a> {
    view: &'a ProgramView<'a>,
    bounds: SliceBounds,
    cache: &'a CiCache,
    /// Cooperative supervision handle (default: unbounded).
    supervisor: Supervisor,
}

impl<'a> CiSlicer<'a> {
    /// Builds a slicer over a rule's view and the analysis-wide
    /// [`CiCache`] of the same phase-1 results.
    pub fn with_cache(view: &'a ProgramView<'a>, bounds: SliceBounds, cache: &'a CiCache) -> Self {
        CiSlicer { view, bounds, cache, supervisor: Supervisor::new() }
    }

    /// Attaches a supervisor; its checks run at the traversal loop
    /// (`ci.slice` site). On an interrupt the slicer reports the flows
    /// found so far with [`SliceResult::interrupted`] set.
    pub fn with_supervisor(mut self, supervisor: Supervisor) -> Self {
        self.supervisor = supervisor;
        self
    }

    fn stmt(&self, m: MethodId, loc: Loc) -> StmtNode {
        StmtNode { node: self.cache.contexts.get(&m).map_or(CGNodeId(0), |c| c[0]), loc }
    }

    fn pts_of(&self, m: MethodId, v: Var) -> Option<&BitSet> {
        self.cache.merged_pts.get(&(m, v))
    }

    /// Runs the slice from every source.
    pub fn run(&mut self) -> SliceResult {
        self.run_partition(0..usize::MAX)
    }

    /// Runs the slice over a contiguous partition of the seed list
    /// (`seed_range` indexes into [`ProgramView::seeds`], clamped to its
    /// length) — the unit of work the parallel engine dispatches. Seed
    /// traversals are independent (`seen_flows` keys carry the seed
    /// statement), so the flow set of a whole run is the ordered union
    /// of its partitions'; the heap-transition counter is additive. As
    /// with the hybrid slicer, bounded configurations must keep a rule
    /// in one partition because the budget counter is per-slicer.
    pub fn run_partition(&mut self, seed_range: std::ops::Range<usize>) -> SliceResult {
        let all_seeds = self.view.seeds();
        let seeds = &all_seeds[crate::hybrid::clamp_range(&seed_range, all_seeds.len())];
        let mut result = SliceResult::default();
        let mut seen_flows: HashSet<(StmtNode, StmtNode, usize)> = HashSet::new();
        let mut heap_used = 0usize;
        'seeds: for &(stmt, sc) in seeds {
            let seed_method = self.view.pts.callgraph.method_of(stmt.node);
            let seed_fact: Fact = (seed_method, sc.dst);
            let mut visited: HashSet<Fact> = HashSet::new();
            let mut parents: Parents = HashMap::new();
            let mut queue: VecDeque<Fact> = VecDeque::new();
            let mut processed_stores: HashSet<(MethodId, Loc)> = HashSet::new();
            visited.insert(seed_fact);
            parents.insert(seed_fact, (None, vec![FlowStep { stmt, kind: StepKind::Seed }]));
            queue.push_back(seed_fact);

            let reconstruct = |parents: &Parents, fact: Fact| {
                let mut rev = Vec::new();
                let mut cur = Some(fact);
                while let Some(f) = cur {
                    let Some((prev, steps)) = parents.get(&f) else { break };
                    rev.extend(steps.iter().rev().copied());
                    cur = *prev;
                }
                rev.reverse();
                rev
            };

            while let Some((m, v)) = queue.pop_front() {
                if let Err(reason) = self.supervisor.check("ci.slice") {
                    result.interrupted = Some(reason);
                    break 'seeds;
                }
                result.work += 1;
                let Some(contexts) = self.cache.contexts.get(&m) else { continue };
                let fact = (m, v);
                let push = |queue: &mut VecDeque<Fact>,
                            visited: &mut HashSet<Fact>,
                            parents: &mut Parents,
                            nf: Fact,
                            steps: Vec<FlowStep>| {
                    if visited.insert(nf) {
                        parents.insert(nf, (Some(fact), steps));
                        queue.push_back(nf);
                    }
                };
                // A method's uses are the union of its contexts' uses. A
                // use repeated in a later context is a no-op under the
                // `visited`, `processed_stores` and `seen_flows` guards.
                let view = self.view;
                for &u in contexts.iter().flat_map(|&n| view.uses(n, v)) {
                    match u {
                        Use::Flow { to, loc } => {
                            let st = self.stmt(m, loc);
                            push(
                                &mut queue,
                                &mut visited,
                                &mut parents,
                                (m, to),
                                vec![FlowStep { stmt: st, kind: StepKind::Local }],
                            );
                        }
                        Use::Store { loc, base, field } => {
                            if !processed_stores.insert((m, loc)) {
                                continue;
                            }
                            let store_stmt = self.stmt(m, loc);
                            let Some(base_pts) = self.pts_of(m, base) else { continue };
                            let pre = vec![FlowStep { stmt: store_stmt, kind: StepKind::Local }];
                            // Carrier edges.
                            for ik in base_pts.iter() {
                                if let Some(sinks) = self.view.spec.carrier_sinks.get(&ik) {
                                    for cs in sinks {
                                        if seen_flows.insert((stmt, cs.stmt, cs.pos)) {
                                            let mut path = reconstruct(&parents, fact);
                                            path.extend(pre.iter().copied());
                                            path.push(FlowStep {
                                                stmt: cs.stmt,
                                                kind: StepKind::CarrierEdge,
                                            });
                                            let ht = count_heap(&path);
                                            result.flows.push(Flow {
                                                source: stmt,
                                                source_method: sc.method,
                                                sink: cs.stmt,
                                                sink_method: cs.method,
                                                sink_pos: cs.pos,
                                                path,
                                                heap_transitions: ht,
                                            });
                                        }
                                    }
                                }
                            }
                            // Direct edges (context-collapsed aliasing).
                            if let Some(loads) = self.cache.loads_by_field.get(&field) {
                                for &(lm, lloc, lbase, ldst) in loads {
                                    let Some(lb) = lbase else { continue };
                                    let alias =
                                        self.pts_of(lm, lb).is_some_and(|s| s.intersects(base_pts));
                                    if alias {
                                        heap_used += 1;
                                        if let Some(max) = self.bounds.max_heap_transitions {
                                            if heap_used >= max {
                                                result.budget_exhausted = true;
                                                break;
                                            }
                                        }
                                        let mut steps = pre.clone();
                                        steps.push(FlowStep {
                                            stmt: self.stmt(lm, lloc),
                                            kind: StepKind::HeapEdge,
                                        });
                                        push(
                                            &mut queue,
                                            &mut visited,
                                            &mut parents,
                                            (lm, ldst),
                                            steps,
                                        );
                                    }
                                }
                            }
                            if field == FieldKey::Array {
                                for &(im, iloc, arr, callee) in &self.cache.invoke_bindings {
                                    let alias = self
                                        .pts_of(im, arr)
                                        .is_some_and(|s| s.intersects(base_pts));
                                    if alias {
                                        heap_used += 1;
                                        let cm = self.view.program.method(callee);
                                        let off = usize::from(!cm.is_static);
                                        for i in 0..cm.params.len() {
                                            let mut steps = pre.clone();
                                            steps.push(FlowStep {
                                                stmt: self.stmt(im, iloc),
                                                kind: StepKind::HeapEdge,
                                            });
                                            push(
                                                &mut queue,
                                                &mut visited,
                                                &mut parents,
                                                (callee, Var((i + off) as u32)),
                                                steps,
                                            );
                                        }
                                    }
                                }
                            }
                        }
                        Use::StaticStore { loc, field } => {
                            if !processed_stores.insert((m, loc)) {
                                continue;
                            }
                            let store_stmt = self.stmt(m, loc);
                            if let Some(loads) = self.cache.static_loads.get(&field) {
                                for &(lm, lloc, ldst) in loads {
                                    heap_used += 1;
                                    let steps = vec![
                                        FlowStep { stmt: store_stmt, kind: StepKind::Local },
                                        FlowStep {
                                            stmt: self.stmt(lm, lloc),
                                            kind: StepKind::HeapEdge,
                                        },
                                    ];
                                    push(&mut queue, &mut visited, &mut parents, (lm, ldst), steps);
                                }
                            }
                        }
                        Use::Arg { loc, pos } => {
                            let call_stmt = self.stmt(m, loc);
                            let targets = self.cache.site_targets.get(&(m, loc));
                            for &t in targets.into_iter().flatten() {
                                if self.view.spec.sanitizers.contains(&t)
                                    || self.view.spec.sources.contains(&t)
                                    || self.view.spec.sinks.contains_key(&t)
                                {
                                    continue;
                                }
                                let tm = self.view.program.method(t);
                                let off = usize::from(!tm.is_static);
                                if pos + off >= tm.num_incoming() {
                                    continue;
                                }
                                push(
                                    &mut queue,
                                    &mut visited,
                                    &mut parents,
                                    (t, Var((pos + off) as u32)),
                                    vec![FlowStep { stmt: call_stmt, kind: StepKind::CallArg }],
                                );
                            }
                        }
                        Use::Ret { .. } => {
                            // Return to every call site (context-insensitive).
                            if let Some(sites) = self.cache.return_sites.get(&m) {
                                for &(cm, cloc, cdst) in sites {
                                    if let Some(d) = cdst {
                                        push(
                                            &mut queue,
                                            &mut visited,
                                            &mut parents,
                                            (cm, d),
                                            vec![FlowStep {
                                                stmt: self.stmt(cm, cloc),
                                                kind: StepKind::ReturnTo,
                                            }],
                                        );
                                    }
                                }
                            }
                        }
                        Use::SinkArg { loc, method, pos } => {
                            let sink_stmt = self.stmt(m, loc);
                            if seen_flows.insert((stmt, sink_stmt, pos)) {
                                let mut path = reconstruct(&parents, fact);
                                path.push(FlowStep { stmt: sink_stmt, kind: StepKind::Local });
                                let ht = count_heap(&path);
                                result.flows.push(Flow {
                                    source: stmt,
                                    source_method: sc.method,
                                    sink: sink_stmt,
                                    sink_method: method,
                                    sink_pos: pos,
                                    path,
                                    heap_transitions: ht,
                                });
                            }
                        }
                        Use::Sanitized { .. } => {}
                    }
                }
            }
        }
        result.heap_transitions = heap_used;
        result
    }
}

fn count_heap(path: &[FlowStep]) -> usize {
    path.iter().filter(|s| matches!(s.kind, StepKind::HeapEdge | StepKind::CarrierEdge)).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SliceSpec;
    use crate::view::reference::setup;

    #[test]
    fn cache_load_lists_do_not_depend_on_hash_order() {
        // Four methods load the same field and an array, so the
        // method-level lists interleave methods.
        let (p, pts) = setup(
            r#"
            class Box { field Object v; field Object[] arr; ctor (Object v) { this.v = v; } }
            class Main {
                static method void main() {
                    Box b = new Box(new Object());
                    Object x1 = Main.one(b);
                    Object x2 = Main.two(b);
                    Object x3 = Main.three(b);
                    Object x4 = Main.four(b);
                }
                static method Object one(Box b) { return b.v; }
                static method Object two(Box b) { Object[] a = b.arr; return a[0]; }
                static method Object three(Box b) { return b.v; }
                static method Object four(Box b) { Object[] a = b.arr; Object o = a[1]; return b.v; }
            }
            "#,
        );
        let spec = SliceSpec::default();
        let build = || {
            let cache = CiCache::build(&SliceIndex::build(&p, &pts, [&spec]));
            (cache.loads_by_field, cache.static_loads)
        };
        let first = build();
        let v = p.field_by_name(p.class_by_name("Box").unwrap(), "v").unwrap();
        let methods: HashSet<MethodId> =
            first.0[&FieldKey::Field(v)].iter().map(|&(m, ..)| m).collect();
        assert!(methods.len() >= 3, "loads of `v` span {} methods", methods.len());
        assert!(first.0.contains_key(&FieldKey::Array));
        for _ in 0..8 {
            assert_eq!(build(), first);
        }
    }
}
