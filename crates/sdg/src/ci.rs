//! Context-insensitive (CI) thin slicing [Sridharan et al., PLDI'07],
//! the cheap-and-imprecise baseline of the paper's evaluation.
//!
//! All calling contexts of a method are collapsed: facts are
//! `(method, register)` pairs, call returns flow to *every* call site, and
//! heap direct edges match on points-to sets unioned across contexts.

use std::borrow::Cow;
use std::cell::OnceCell;

use jir::inst::{Loc, Var};
use jir::util::{BitSet, FxHashMap};
use jir::MethodId;
use taj_pointer::{CGNodeId, PointsTo};
use taj_supervise::Supervisor;

use crate::kernel::{slice_seeds, Found, SeedRun};
use crate::spec::{FlowStep, SliceBounds, SliceResult, StepKind, StmtNode};
use crate::view::{FieldKey, ProgramView, SliceIndex, Use};

type Fact = (MethodId, Var);
/// Method-level load inventory entries.
type MethodLoad = (MethodId, Loc, Option<Var>, Var);

/// A method's calling contexts, and its registers' points-to sets
/// merged across them.
#[derive(Debug)]
struct Contexts {
    /// Every call-graph node of the method, in node order. The first is
    /// the representative node for reporting statements.
    nodes: Vec<CGNodeId>,
    /// Per register of the body: the union of the register's points-to
    /// sets over `nodes`, `None` if no context has one. Filled on first
    /// use, since a slice reads few registers.
    merged_pts: Box<[OnceCell<Option<BitSet>>]>,
}

impl Contexts {
    /// The union of `v`'s points-to sets over the method's contexts,
    /// `None` if no context has a pointer key for it.
    fn merge(&self, pts: &PointsTo, v: Var) -> Option<BitSet> {
        let mut sets = self.nodes.iter().filter_map(|&n| pts.local(n, v));
        let mut merged = sets.next()?.clone();
        for set in sets {
            merged.extend(set.iter());
        }
        Some(merged)
    }
}

/// The rule-independent part of the context collapse: each method's
/// contexts, merged points-to sets, call plumbing, and load inventories.
/// Build it once per analysis and share it across every rule's
/// [`CiSlicer`] (the per-rule part is only the `uses` classification,
/// which the slicer reads from the view across a method's contexts).
#[derive(Debug)]
pub struct CiCache {
    /// Each method's contexts and merged register points-to sets.
    contexts: FxHashMap<MethodId, Contexts>,
    /// Method-level call targets per call site.
    site_targets: FxHashMap<(MethodId, Loc), Vec<MethodId>>,
    /// Method-level return plumbing: callee → (caller, loc, dst).
    return_sites: FxHashMap<MethodId, Vec<(MethodId, Loc, Option<Var>)>>,
    /// Loads by field, method level, in node order of the methods'
    /// first contexts.
    loads_by_field: FxHashMap<FieldKey, Vec<MethodLoad>>,
    static_loads: FxHashMap<jir::FieldId, Vec<(MethodId, Loc, Var)>>,
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
        let mut contexts: FxHashMap<MethodId, Contexts> = FxHashMap::default();
        let mut site_targets: FxHashMap<(MethodId, Loc), Vec<MethodId>> = FxHashMap::default();
        let mut return_sites: FxHashMap<MethodId, Vec<(MethodId, Loc, Option<Var>)>> =
            FxHashMap::default();
        let mut loads_by_field: FxHashMap<FieldKey, Vec<MethodLoad>> = FxHashMap::default();
        let mut static_loads: FxHashMap<jir::FieldId, Vec<(MethodId, Loc, Var)>> =
            FxHashMap::default();
        for node in cg.iter_nodes() {
            let m = cg.method_of(node);
            let entry = contexts.entry(m).or_insert_with(|| Contexts {
                nodes: Vec::new(),
                merged_pts: (0..index.num_vars(node)).map(|_| OnceCell::new()).collect(),
            });
            entry.nodes.push(node);
            if entry.nodes.len() > 1 {
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
        StmtNode { node: self.cache.contexts.get(&m).map_or(CGNodeId(0), |c| c.nodes[0]), loc }
    }

    /// `v`'s points-to sets merged across `m`'s contexts, `None` if no
    /// context has a pointer key for it. A register past its body's
    /// registers (which well-formed IR never has) is merged per call.
    fn pts_of(&self, m: MethodId, v: Var) -> Option<Cow<'_, BitSet>> {
        let contexts = self.cache.contexts.get(&m)?;
        let pts = self.view.pts;
        match contexts.merged_pts.get(v.index()) {
            Some(cell) => cell.get_or_init(|| contexts.merge(pts, v)).as_ref().map(Cow::Borrowed),
            None => contexts.merge(pts, v).map(Cow::Owned),
        }
    }

    /// Runs the slice from every source.
    pub fn run(&mut self) -> SliceResult {
        let view = self.view;
        let mut found = Found::default();
        let fact = |node, var| (view.pts.callgraph.method_of(node), var);
        slice_seeds(view, view.seeds(), &[], &mut found, fact, |mut run, found| {
            self.slice_one(&mut run, found);
            found.result.interrupted.is_none()
        });
        found.result
    }

    fn slice_one(&self, run: &mut SeedRun<Fact>, found: &mut Found) {
        while let Some(fact) = run.pop() {
            if let Err(reason) = self.supervisor.check("ci.slice") {
                found.result.interrupted = Some(reason);
                return;
            }
            found.result.work += 1;
            let (m, v) = fact;
            let Some(contexts) = self.cache.contexts.get(&m) else { continue };
            // A method's uses are the union of its contexts' uses. A use
            // repeated in a later context is a no-op under the visited,
            // processed-store and reported-flow guards.
            let view = self.view;
            for &u in contexts.nodes.iter().flat_map(|&n| view.uses(n, v)) {
                match u {
                    Use::Flow { to, loc } => {
                        let step = FlowStep { stmt: self.stmt(m, loc), kind: StepKind::Local };
                        run.push((m, to), &fact, &[step]);
                    }
                    Use::Store { loc, base, field } => {
                        let store = self.stmt(m, loc);
                        if !run.processed_stores.insert(store) {
                            continue;
                        }
                        let Some(base_pts) = self.pts_of(m, base) else { continue };
                        let base_pts = &*base_pts;
                        let pre = FlowStep { stmt: store, kind: StepKind::Local };
                        run.emit_carriers(view, found, &fact, &[pre], base_pts);
                        // Direct edges (context-collapsed aliasing).
                        let result = &mut found.result;
                        for &(lm, lloc, lbase, ldst) in
                            self.cache.loads_by_field.get(&field).into_iter().flatten()
                        {
                            let Some(lb) = lbase else { continue };
                            if self.pts_of(lm, lb).is_some_and(|s| s.intersects(base_pts)) {
                                result.heap_transitions += 1;
                                if let Some(max) = self.bounds.max_heap_transitions {
                                    if result.heap_transitions >= max {
                                        result.budget_exhausted = true;
                                        break;
                                    }
                                }
                                let load = self.stmt(lm, lloc);
                                let edge = FlowStep { stmt: load, kind: StepKind::HeapEdge };
                                run.push((lm, ldst), &fact, &[pre, edge]);
                            }
                        }
                        if field == FieldKey::Array {
                            for &(im, iloc, arr, callee) in &self.cache.invoke_bindings {
                                if self.pts_of(im, arr).is_some_and(|s| s.intersects(base_pts)) {
                                    result.heap_transitions += 1;
                                    let stmt = self.stmt(im, iloc);
                                    for r in view.param_registers(callee) {
                                        let edge = FlowStep { stmt, kind: StepKind::HeapEdge };
                                        run.push((callee, r), &fact, &[pre, edge]);
                                    }
                                }
                            }
                        }
                    }
                    Use::StaticStore { loc, field } => {
                        let store = self.stmt(m, loc);
                        if !run.processed_stores.insert(store) {
                            continue;
                        }
                        let pre = FlowStep { stmt: store, kind: StepKind::Local };
                        for &(lm, lloc, ldst) in
                            self.cache.static_loads.get(&field).into_iter().flatten()
                        {
                            found.result.heap_transitions += 1;
                            let edge =
                                FlowStep { stmt: self.stmt(lm, lloc), kind: StepKind::HeapEdge };
                            run.push((lm, ldst), &fact, &[pre, edge]);
                        }
                    }
                    Use::Arg { loc, pos } => {
                        let call = FlowStep { stmt: self.stmt(m, loc), kind: StepKind::CallArg };
                        for &t in self.cache.site_targets.get(&(m, loc)).into_iter().flatten() {
                            if let Some(r) = view.callee_entry(t, pos) {
                                run.push((t, r), &fact, &[call]);
                            }
                        }
                    }
                    Use::Ret { .. } => {
                        // Return to every call site (context-insensitive).
                        for &(cm, cloc, cdst) in
                            self.cache.return_sites.get(&m).into_iter().flatten()
                        {
                            if let Some(d) = cdst {
                                let step = FlowStep {
                                    stmt: self.stmt(cm, cloc),
                                    kind: StepKind::ReturnTo,
                                };
                                run.push((cm, d), &fact, &[step]);
                            }
                        }
                    }
                    Use::SinkArg { loc, method, pos } => {
                        let sink = (self.stmt(m, loc), method, pos);
                        run.emit(found, &fact, &[], sink, StepKind::Local);
                    }
                    Use::Sanitized { .. } => {}
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SliceSpec;
    use crate::view::reference::setup;
    use std::collections::{HashMap, HashSet};

    #[test]
    fn merged_points_to_sets_match_the_eager_union() {
        // Two maps and two lists: the collection methods run in one
        // context per receiver.
        let (p, pts) = setup(
            r#"
            class Main {
                static method void main() {
                    Map a = new HashMap();
                    Map b = new HashMap();
                    a.put("k", new Object());
                    b.put("k", new Main());
                    Object x = a.get("k");
                    Object y = b.get("k");
                    List l = new ArrayList();
                    List n = new ArrayList();
                    l.add(x);
                    n.add(y);
                }
            }
            "#,
        );
        let spec = SliceSpec::default();
        let index = SliceIndex::build(&p, &pts, [&spec]);
        let view = ProgramView::build(&index, &spec);
        let cache = CiCache::build(&index);
        let slicer = CiSlicer::with_cache(&view, SliceBounds::default(), &cache);
        assert!(
            cache.contexts.values().any(|c| c.nodes.len() >= 2),
            "some method runs in two contexts"
        );
        // The eager merge over every register pointer key.
        let mut eager: HashMap<Fact, BitSet> = HashMap::new();
        for (_, key, set) in pts.iter_pointer_keys() {
            if let taj_pointer::PointerKey::Local { node, var } = key {
                let m = pts.callgraph.method_of(*node);
                eager.entry((m, *var)).or_default().extend(set.iter());
            }
        }
        for (&(m, v), set) in &eager {
            assert_eq!(slicer.pts_of(m, v).as_deref(), Some(set), "{m:?} {v:?}");
        }
        // Every register of every method, and two past its body's last:
        // no key, no set.
        for (&m, contexts) in &cache.contexts {
            for v in (0..contexts.merged_pts.len() as u32 + 2).map(Var) {
                assert_eq!(slicer.pts_of(m, v).as_deref(), eager.get(&(m, v)), "{m:?} {v:?}");
            }
        }
    }

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
