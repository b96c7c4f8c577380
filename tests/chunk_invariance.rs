//! Chunk invariance: the unbounded hybrid and CI configurations slice
//! each rule as `SEED_CHUNK`-seed units that borrow the rule's seed
//! lists and the analysis-wide CI context index. Slicing a rule as one
//! whole-rule unit must give the same answer. A heap-transition bound of
//! `usize::MAX` makes the driver plan whole-rule units, and it never
//! trips, so that twin configuration is the reference.

use taj::core::{
    analyze_with_phase1_opts, prepare, run_phase1_traced, DeploymentDescriptor, RuleSet,
    RunOptions, TajConfig,
};
use taj::webgen::{generate, presets, securibench_joined, Scale};

/// The Figure-4 applications plus securibench joined ×1 and ×4.
fn programs() -> Vec<(String, String, Option<DeploymentDescriptor>)> {
    let mut out: Vec<_> = presets()
        .into_iter()
        .filter(|p| p.in_figure4)
        .map(|p| {
            let bench = generate(&p.spec(Scale::standard()));
            (bench.name, bench.source, Some(bench.descriptor))
        })
        .collect();
    for copies in [1, 4] {
        out.push((format!("securibench-x{copies}"), securibench_joined(copies), None));
    }
    out
}

fn json(value: &impl serde::Serialize) -> String {
    serde_json::to_string_pretty(value).expect("serializes")
}

#[test]
fn chunked_units_match_whole_rule_units() {
    for (name, source, descriptor) in programs() {
        let prepared = prepare(&source, descriptor.as_ref(), RuleSet::default_rules())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        for chunked in
            [TajConfig::hybrid_unbounded(), TajConfig::hybrid_prioritized(), TajConfig::ci_thin()]
        {
            let whole = TajConfig { max_heap_transitions: Some(usize::MAX), ..chunked };
            let opts = RunOptions::default();
            let phase1 = run_phase1_traced(&prepared, &chunked, &opts.supervisor, &opts.recorder);
            let label = format!("{name} / {}", chunked.name);
            let got = analyze_with_phase1_opts(&prepared, &phase1, &chunked, &opts).expect(&label);
            let want = analyze_with_phase1_opts(&prepared, &phase1, &whole, &opts).expect(&label);
            assert!(!want.stats.slice_budget_exhausted, "{label}: the reference bound tripped");
            assert_eq!(json(&got.findings), json(&want.findings), "{label}: findings diverge");
            assert_eq!(json(&got.flows), json(&want.flows), "{label}: flows diverge");
            assert_eq!(got.stats.slicer_work, want.stats.slicer_work, "{label}: work diverges");
        }
    }
}
