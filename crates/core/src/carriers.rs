//! Taint-carrier detection (§4.1.1): find, for every abstract object, the
//! sink call statements whose sensitive arguments may reach it in the heap
//! graph. The slicers then add a direct HSDG edge from any store into such
//! an object to the corresponding sink.
//!
//! The reachability search is bounded by the nested-taint depth (§6.2.3);
//! the paper found 2 dereference levels sufficient in practice.

use jir::util::{BitSet, FxHashMap};
use taj_pointer::HeapGraph;
use taj_sdg::{CarrierSink, SliceIndex, StmtNode};

use crate::rules::ResolvedRule;

/// Builds the carrier index for one rule: abstract object (raw instance
/// key) → sinks reachable from it.
///
/// Implements the three-step recipe of §4.1.1:
/// 1. For each sink invocation `sk`, let `Isk` be the union of points-to
///    sets of its sensitive formal parameters.
/// 2. Let `I*sk` be the instance keys reachable in the heap graph from
///    `Isk` (bounded by `nested_depth` dereferences).
/// 3. A store whose base points into `I*sk` gets an edge to `sk`.
///
/// The sink invocations come from the index's call-site inventory (a
/// sink call is rule-sensitive), in `(node, loc)` order.
pub fn build_carrier_index(
    index: &SliceIndex<'_>,
    heap: &HeapGraph,
    rule: ResolvedRule<'_>,
    nested_depth: Option<usize>,
) -> FxHashMap<u32, Vec<CarrierSink>> {
    let mut carriers: FxHashMap<u32, Vec<CarrierSink>> = FxHashMap::default();
    let sink_positions: FxHashMap<jir::MethodId, &[usize]> = rule.sinks().collect();
    let pts = index.pts;
    for site in index.sites_calling(sink_positions.keys().copied()) {
        let (node, loc) = (site.node, site.loc);
        // Resolve sink callees at this site (body + intrinsic).
        let mut sink_callees: Vec<jir::MethodId> = Vec::new();
        let targets = pts.callgraph.targets(node, loc).iter().map(|&t| pts.callgraph.method_of(t));
        for m in targets.chain(pts.intrinsics_at(node, loc).iter().map(|&(m, _)| m)) {
            if sink_positions.contains_key(&m) && !sink_callees.contains(&m) {
                sink_callees.push(m);
            }
        }
        for callee in sink_callees {
            for &pos in sink_positions[&callee] {
                let Some(&arg) = site.args.get(pos) else { continue };
                let Some(arg_pts) = pts.local(node, arg) else { continue };
                if arg_pts.is_empty() {
                    continue;
                }
                let reachable: BitSet = heap.reachable(arg_pts, nested_depth);
                let sink = CarrierSink { stmt: StmtNode { node, loc }, method: callee, pos };
                for ik in reachable.iter() {
                    let entry = carriers.entry(ik).or_default();
                    if !entry.contains(&sink) {
                        entry.push(sink);
                    }
                }
            }
        }
    }
    carriers
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::RuleSet;
    use taj_pointer::{analyze, SolverConfig};
    use taj_sdg::SliceSpec;

    /// The slice index needs only the rule's sinks to inventory its sink
    /// calls.
    fn xss_spec(rule: ResolvedRule<'_>) -> SliceSpec {
        SliceSpec {
            sinks: rule.sinks().map(|(m, p)| (m, p.to_vec())).collect(),
            ..SliceSpec::default()
        }
    }

    #[test]
    fn carrier_index_covers_wrapped_objects() {
        let src = r#"
            class Wrapper {
                field String s;
                ctor (String s) { this.s = s; }
            }
            class Main {
                static method void main() {
                    HttpServletRequest req = new HttpServletRequest();
                    HttpServletResponse resp = new HttpServletResponse();
                    String t = req.getParameter("x");
                    Wrapper w = new Wrapper(t);
                    PrintWriter out = resp.getWriter();
                    out.println(w);
                }
            }
        "#;
        let mut p = jir::frontend::build_program(src).unwrap();
        let c = p.class_by_name("Main").unwrap();
        p.entrypoints.push(p.method_by_name(c, "main").unwrap());
        let pts = analyze(&p, &SolverConfig::default());
        let heap = HeapGraph::build(&pts);
        let rules = RuleSet::default_rules().resolve(&p);
        let xss = rules.iter().find(|r| r.issue == crate::rules::IssueType::Xss).unwrap();
        let slice_index = SliceIndex::build(&p, &pts, [&xss_spec(xss)]);
        let index = build_carrier_index(&slice_index, &heap, xss, Some(2));
        // The Wrapper allocation must map to the println sink.
        let wrapper = p.class_by_name("Wrapper").unwrap();
        let wrapper_ik = pts
            .iter_instance_keys()
            .find(|(_, k)| matches!(k, taj_pointer::InstanceKey::Alloc { class, .. } if *class == wrapper))
            .map(|(id, _)| id)
            .expect("wrapper allocated");
        assert!(
            index.contains_key(&wrapper_ik.0),
            "wrapper object must be in the carrier index: {index:?}"
        );
    }

    #[test]
    fn depth_zero_still_covers_direct_args() {
        // With depth 0, only the argument objects themselves are carriers.
        let src = r#"
            class Main {
                static method void main() {
                    HttpServletResponse resp = new HttpServletResponse();
                    Object o = new Object();
                    resp.getWriter().println(o);
                }
            }
        "#;
        let mut p = jir::frontend::build_program(src).unwrap();
        let c = p.class_by_name("Main").unwrap();
        p.entrypoints.push(p.method_by_name(c, "main").unwrap());
        let pts = analyze(&p, &SolverConfig::default());
        let heap = HeapGraph::build(&pts);
        let rules = RuleSet::default_rules().resolve(&p);
        let xss = rules.iter().find(|r| r.issue == crate::rules::IssueType::Xss).unwrap();
        let slice_index = SliceIndex::build(&p, &pts, [&xss_spec(xss)]);
        let index = build_carrier_index(&slice_index, &heap, xss, Some(0));
        assert!(!index.is_empty(), "the Object arg itself is a carrier root");
    }
}
