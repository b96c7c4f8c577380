//! Determinism: analyzing the same program twice — including under the
//! bounded configurations, where processing order could in principle
//! change which flows fit the budget — must produce identical report
//! bytes. (Rust `HashMap`s use per-instance random seeds, so any result
//! that depended on map iteration order would flake here.)

mod common;

use common::assert_reports_byte_identical;
use taj::core::{analyze_prepared, prepare, RuleSet, TajConfig, TajError, TajReport};
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
            match analyze_prepared(&prepared, &config) {
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
