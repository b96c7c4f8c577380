//! Dynamic soundness oracle: execute programs in the concrete
//! taint-tracking interpreter and check that each *observed* tainted sink
//! hit is reported by the sound static configurations (hybrid unbounded
//! and CI). Static analysis may over-approximate; it must never miss a
//! flow that actually happened.
//!
//! The corpus is the micro suite, the nine Figure-4 applications at
//! `Scale::standard()` with their EJB descriptors, and every securibench
//! case joined into one program. The budget-bound and priority-driven
//! call-graph construction of phase 1 must keep every observed flow of
//! these inputs under both sound configurations.

use taj::core::{analyze_source, prepare, DeploymentDescriptor, GroundTruth, RuleSet, TajConfig};
use taj::webgen::{
    generate, micro_suite, presets, run_program, securibench_joined, DynHit, InterpConfig, Scale,
};

/// Runs the interpreter over `source` on the unexpanded program, with the
/// real entrypoints and the EJB descriptor applied.
fn dynamic_hits(source: &str, descriptor: Option<&DeploymentDescriptor>) -> Vec<DynHit> {
    let mut program = jir::frontend::parse_program(source).expect("parses");
    taj_core::frameworks::synthesize_entrypoints(&mut program);
    if let Some(d) = descriptor {
        taj_core::frameworks::apply_ejb_descriptor(&mut program, d);
    }
    run_program(&program, InterpConfig::default())
}

/// Asserts that Hybrid-Unbounded and CI both report every hit in `hits`.
fn assert_sound_configs_cover(
    name: &str,
    source: &str,
    descriptor: Option<&DeploymentDescriptor>,
    hits: &[DynHit],
) {
    for config in [TajConfig::hybrid_unbounded(), TajConfig::ci_thin()] {
        let report = analyze_source(source, descriptor, RuleSet::default_rules(), &config)
            .unwrap_or_else(|e| panic!("{name} under {}: {e}", config.name));
        for hit in hits {
            let covered = report.findings.iter().any(|f| {
                f.flow.sink_owner_class == hit.caller_class && f.flow.sink_method == hit.sink_method
            });
            assert!(
                covered,
                "{name}: dynamic flow {hit:?} missed by {} (findings: {:#?})",
                config.name, report.findings
            );
        }
    }
}

/// How many of `truth`'s vulnerable classes the interpreter saw hit a sink.
fn observed_vulnerable(truth: &GroundTruth, hits: &[DynHit]) -> usize {
    truth
        .vulnerable
        .iter()
        .filter(|(class, _)| hits.iter().any(|h| h.caller_class == *class))
        .count()
}

#[test]
fn sound_configs_cover_all_dynamic_flows() {
    for t in micro_suite() {
        let hits = dynamic_hits(&t.source, Some(&t.descriptor));
        assert_sound_configs_cover(&t.name, &t.source, Some(&t.descriptor), &hits);
    }
}

#[test]
fn sound_configs_cover_figure4_dynamic_flows() {
    let mut observed = 0usize;
    let mut vulnerable = 0usize;
    let mut apps = 0usize;
    for preset in presets().into_iter().filter(|p| p.in_figure4) {
        let app = generate(&preset.spec(Scale::standard()));
        let hits = dynamic_hits(&app.source, Some(&app.descriptor));
        assert_sound_configs_cover(&app.name, &app.source, Some(&app.descriptor), &hits);
        observed += observed_vulnerable(&app.truth, &hits);
        vulnerable += app.truth.vulnerable.len();
        apps += 1;
    }
    assert_eq!(apps, 9, "Figure 4 classifies nine applications");
    // The interpreter must witness most seeded flows, or the coverage
    // check above proves little. Some patterns hide their flow behind
    // paths a single concrete run does not take.
    assert!(
        observed * 10 >= vulnerable * 9,
        "oracle should witness at least 90% of the seeded Figure-4 flows: \
         {observed}/{vulnerable}"
    );
}

#[test]
fn sound_configs_cover_securibench_joined_dynamic_flows() {
    let source = securibench_joined(1);
    let hits = dynamic_hits(&source, None);
    assert!(!hits.is_empty(), "the joined securibench program hits sinks");
    assert_sound_configs_cover("securibench x1", &source, None, &hits);
}

#[test]
fn dynamic_oracle_sees_most_vulnerable_patterns() {
    // Sanity on the oracle itself: across the suite, the interpreter
    // observes a healthy fraction of the seeded vulnerable flows (some
    // patterns — e.g. conservative-FP ones — are benign by design).
    let mut observed = 0usize;
    let mut vulnerable = 0usize;
    for t in micro_suite() {
        let hits = dynamic_hits(&t.source, Some(&t.descriptor));
        vulnerable += t.truth.vulnerable.len();
        observed += observed_vulnerable(&t.truth, &hits);
        let _ =
            prepare(&t.source, Some(&t.descriptor), RuleSet::default_rules()).expect("prepares");
    }
    assert!(
        observed * 2 >= vulnerable,
        "oracle should witness at least half the seeded flows: {observed}/{vulnerable}"
    );
}
