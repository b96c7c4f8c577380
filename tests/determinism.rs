//! Determinism: analyzing the same program twice — including under the
//! bounded configurations, where processing order could in principle
//! change which flows fit the budget — must produce identical report
//! bytes. (Rust `HashMap`s use per-instance random seeds, so any result
//! that depended on map iteration order would flake here.)

mod common;

use common::{analyze, assert_reports_byte_identical};
use taj::core::{prepare, RuleSet, TajConfig, TajError, TajReport};
use taj::webgen::{generate, presets, Scale};

fn finding_set(report: &TajReport) -> Vec<(String, String, String)> {
    let mut v: Vec<(String, String, String)> = report
        .findings
        .iter()
        .map(|f| {
            (f.flow.issue.to_string(), f.flow.sink_owner_class.clone(), f.flow.sink_method.clone())
        })
        .collect();
    v.sort();
    v
}

#[test]
fn repeated_runs_agree_on_findings() {
    let preset = presets().into_iter().find(|p| p.name == "Webgoat").unwrap();
    let bench = generate(&preset.spec(Scale::quick()));
    for config in TajConfig::all() {
        // Two completely independent pipelines (fresh HashMap seeds).
        let run = || {
            let prepared =
                prepare(&bench.source, Some(&bench.descriptor), RuleSet::default_rules()).unwrap();
            match analyze(&prepared, &config) {
                Ok(r) => Some(r),
                Err(TajError::OutOfMemory { .. }) => None,
                Err(e) => panic!("{e}"),
            }
        };
        match (run(), run()) {
            (Some(a), Some(b)) => assert_reports_byte_identical(&a, &b, config.name),
            (None, None) => {}
            _ => panic!("{}: only one of two runs ran out of memory", config.name),
        }
    }
}

/// Mutually recursive callees: each summary change re-queues its
/// dependents, so the fixpoint's evaluation order, and with it
/// `slicer_work`, follows the order dependents are kept in.
const MUTUAL_RECURSION: &str = r#"
    class Rec {
        static method String f(String x) { return Rec.g(x) + Rec.h(x); }
        static method String g(String x) { return Rec.f(Rec.h(x)); }
        static method String h(String x) { return Rec.f(x) + x; }
    }
    class Page extends HttpServlet {
        method void doGet(HttpServletRequest req, HttpServletResponse resp) {
            String name = req.getParameter("name");
            resp.getWriter().println(Rec.f(name));
        }
    }
"#;

#[test]
fn summary_fixpoint_order_is_a_function_of_the_program() {
    let prepared = prepare(MUTUAL_RECURSION, None, RuleSet::default_rules()).unwrap();
    for config in TajConfig::all() {
        let first = common::report_json(&analyze(&prepared, &config).unwrap());
        for run in 1..64 {
            let got = common::report_json(&analyze(&prepared, &config).unwrap());
            assert_eq!(got, first, "{}: run {run}'s JSON report differs", config.name);
        }
    }
}

#[test]
fn generation_plus_analysis_is_reproducible() {
    // The full path from preset to report is a pure function of the seed.
    let preset = presets().into_iter().find(|p| p.name == "I").unwrap();
    let a = generate(&preset.spec(Scale::quick()));
    let b = generate(&preset.spec(Scale::quick()));
    assert_eq!(a.source, b.source);
    let ra = taj::core::analyze_source(
        &a.source,
        Some(&a.descriptor),
        RuleSet::default_rules(),
        &TajConfig::hybrid_optimized(),
    )
    .unwrap();
    let rb = taj::core::analyze_source(
        &b.source,
        Some(&b.descriptor),
        RuleSet::default_rules(),
        &TajConfig::hybrid_optimized(),
    )
    .unwrap();
    assert_eq!(finding_set(&ra), finding_set(&rb));
    assert_eq!(ra.stats.cg_nodes, rb.stats.cg_nodes);
}
