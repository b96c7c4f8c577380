//! Library-call-point (LCP) report minimization (§5).
//!
//! An LCP is the last statement along a flow where data passes from
//! application code to library code. Two flows are equivalent when they
//! share the LCP **and** require the same remediation action (same issue
//! type); TAJ reports one representative per equivalence class, since
//! fixing the representative (inserting a sanitizer at the LCP) fixes the
//! whole class.

use jir::util::FxHashMap;
use taj_sdg::{Flow, SliceIndex, StmtNode};

use crate::rules::IssueType;

/// A deduplicated finding: one representative flow per `(LCP, remediation)`
/// equivalence class.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Issue type (the remediation dimension of the equivalence).
    pub issue: IssueType,
    /// The library call point.
    pub lcp: StmtNode,
    /// Representative flow (the shortest in the class).
    pub flow: Flow,
    /// Number of raw flows collapsed into this finding.
    pub group_size: usize,
}

/// Computes the LCP of a flow: the last application statement from which
/// data crosses into library code (including the final sink call itself
/// when it is issued from application code).
pub fn lcp_of(index: &SliceIndex<'_>, flow: &Flow) -> StmtNode {
    let mut last_crossing: Option<StmtNode> = None;
    let steps = &flow.path;
    for i in 0..steps.len() {
        let cur_app = !index.is_library_stmt(steps[i].stmt);
        if !cur_app {
            continue;
        }
        let crosses = if i + 1 < steps.len() {
            index.is_library_stmt(steps[i + 1].stmt)
        } else {
            // The sink statement: an application statement invoking a
            // library sink method is itself the crossing.
            true
        };
        if crosses {
            last_crossing = Some(steps[i].stmt);
        }
    }
    last_crossing.unwrap_or(flow.sink)
}

/// Groups raw flows into findings by `(LCP, issue)` equivalence (§5),
/// keeping the shortest flow of each class as its representative.
pub fn deduplicate(index: &SliceIndex<'_>, flows: &[(IssueType, Flow)]) -> Vec<Finding> {
    let mut groups: FxHashMap<(StmtNode, IssueType), Vec<&Flow>> = FxHashMap::default();
    for (issue, flow) in flows {
        let lcp = lcp_of(index, flow);
        groups.entry((lcp, *issue)).or_default().push(flow);
    }
    let mut findings: Vec<Finding> = groups
        .into_iter()
        .map(|((lcp, issue), group)| {
            let representative = group.iter().min_by_key(|f| f.path.len()).expect("nonempty group");
            Finding { issue, lcp, flow: (*representative).clone(), group_size: group.len() }
        })
        .collect();
    findings.sort_by_key(|f| (f.issue, f.lcp.node, f.lcp.loc));
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::RuleSet;
    use taj_pointer::{analyze, SolverConfig};
    use taj_sdg::{HybridSlicer, SliceBounds, SliceSpec};

    /// Two sources merge into one value that crosses into library code at
    /// a single call statement: both flows share that LCP and collapse
    /// into one finding (the paper's p1/p2 case in Figure 3). A third flow
    /// reaches the sink through its own statement and stays separate.
    #[test]
    fn flows_through_same_lcp_collapse() {
        let src = r#"
            library class Render {
                static method void show(PrintWriter w, String s) { w.println(s); }
            }
            class Main {
                static method void main() {
                    HttpServletRequest req = new HttpServletRequest();
                    HttpServletResponse resp = new HttpServletResponse();
                    PrintWriter w = resp.getWriter();
                    String a = req.getParameter("a");
                    String b = req.getParameter("b");
                    String combined = a + b;
                    Render.show(w, combined);
                    String c = req.getParameter("c");
                    w.println(c);
                }
            }
        "#;
        let mut p = jir::frontend::build_program(src).unwrap();
        let c = p.class_by_name("Main").unwrap();
        p.entrypoints.push(p.method_by_name(c, "main").unwrap());
        let resolved = RuleSet::default_rules().resolve(&p);
        let pts = analyze(
            &p,
            &SolverConfig {
                policy: taj_pointer::PolicyConfig { taint_methods: resolved.taint_methods() },
                source_methods: resolved.sources(),
                ..Default::default()
            },
        );
        let xss = resolved.iter().find(|r| r.issue == IssueType::Xss).unwrap();
        let mut spec = SliceSpec::default();
        spec.sources.extend(xss.sources());
        spec.sanitizers.extend(xss.sanitizers());
        for (m, pos) in xss.sinks() {
            spec.sinks.insert(m, pos.to_vec());
        }
        let index = SliceIndex::build(&p, &pts, [&spec]);
        let view = taj_sdg::ProgramView::build(&index, &spec);
        let flows = HybridSlicer::new(&view, SliceBounds::default()).run().flows;
        assert_eq!(flows.len(), 3, "three raw source→sink flows, got {}", flows.len());
        let tagged: Vec<(IssueType, Flow)> =
            flows.into_iter().map(|f| (IssueType::Xss, f)).collect();
        let findings = deduplicate(&index, &tagged);
        // a and b share the Render.show LCP; c is separate.
        assert_eq!(findings.len(), 2, "expected 2 findings, got {findings:#?}");
        let sizes: Vec<usize> = {
            let mut v: Vec<usize> = findings.iter().map(|f| f.group_size).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(sizes, vec![1, 2]);
    }

    /// Same source and LCP but different issue types stay separate
    /// (different remediation actions, §5's p4/p5 example).
    #[test]
    fn different_issue_types_stay_separate() {
        let a = StmtNode { node: taj_pointer::CGNodeId(0), loc: jir::Loc::new(jir::BlockId(0), 0) };
        let flow = Flow {
            source: a,
            source_method: jir::MethodId(0),
            sink: a,
            sink_method: jir::MethodId(1),
            sink_pos: 0,
            path: vec![taj_sdg::FlowStep { stmt: a, kind: taj_sdg::StepKind::Seed }],
            heap_transitions: 0,
        };
        // Build a trivial index over an empty program for classification.
        let mut p =
            jir::frontend::build_program("class Main { static method void main() { } }").unwrap();
        let c = p.class_by_name("Main").unwrap();
        p.entrypoints.push(p.method_by_name(c, "main").unwrap());
        let pts = analyze(&p, &SolverConfig::default());
        let index = SliceIndex::build(&p, &pts, []);
        let tagged = vec![(IssueType::Xss, flow.clone()), (IssueType::Sqli, flow)];
        let findings = deduplicate(&index, &tagged);
        assert_eq!(findings.len(), 2);
    }
}
