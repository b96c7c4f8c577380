//! End-to-end property tests over randomly composed web applications:
//! soundness (every seeded vulnerable pattern is found by the sound
//! configurations), flow containment (hybrid ⊆ CI), and budget
//! monotonicity.

mod common;

use proptest::prelude::*;

use common::analyze;
use taj::core::{prepare, score, RuleSet, TajConfig};
use taj::webgen::{generate, BenchmarkSpec, Pattern};

/// Patterns with seeded *vulnerable* entries that every sound
/// configuration must detect (bounded configurations excluded: deep/long
/// flows are deliberately lost by the optimized variant).
fn detectable() -> Vec<Pattern> {
    vec![
        Pattern::XssReflected,
        Pattern::SqliConcat,
        Pattern::CommandInjection,
        Pattern::MaliciousFile,
        Pattern::InfoLeak,
        Pattern::XssHeap,
        Pattern::NestedCarrier,
        Pattern::SessionAttr,
        Pattern::BuilderFlow,
        Pattern::ReflectInvoke,
        Pattern::StrutsForm,
        Pattern::TwoBoxContext,
        Pattern::CollectionContext,
        Pattern::ThreadShared,
        Pattern::EjbFlow,
    ]
}

fn spec_strategy() -> impl Strategy<Value = BenchmarkSpec> {
    let pats = detectable();
    (proptest::collection::vec((0..pats.len(), 1usize..3), 1..5), 0usize..3, any::<u64>()).prop_map(
        move |(choices, filler, seed)| {
            let mut counts: Vec<(Pattern, usize)> = Vec::new();
            for (i, n) in choices {
                counts.push((pats[i], n));
            }
            BenchmarkSpec {
                name: "prop".into(),
                pattern_counts: counts,
                filler_classes: filler,
                methods_per_class: 4,
                seed,
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Soundness: the unbounded hybrid and CI configurations find every
    /// seeded vulnerable pattern, whatever the composition.
    #[test]
    fn sound_configs_have_no_false_negatives(spec in spec_strategy()) {
        let bench = generate(&spec);
        let prepared = prepare(
            &bench.source,
            Some(&bench.descriptor),
            RuleSet::default_rules(),
        )
        .expect("generated benchmark prepares");
        for config in [TajConfig::hybrid_unbounded(), TajConfig::ci_thin()] {
            let report = analyze(&prepared, &config).expect("runs");
            let s = score(&report, &bench.truth);
            prop_assert_eq!(
                s.false_negatives, 0,
                "{} missed flows; spec {:?}; score {:?}",
                config.name, spec.pattern_counts, s
            );
        }
    }

    /// Precision containment: every (sink class, issue) the hybrid
    /// algorithm reports is also reported by CI (CI is the most
    /// conservative configuration).
    #[test]
    fn hybrid_findings_contained_in_ci(spec in spec_strategy()) {
        let bench = generate(&spec);
        let prepared = prepare(
            &bench.source,
            Some(&bench.descriptor),
            RuleSet::default_rules(),
        )
        .expect("prepares");
        let hybrid = analyze(&prepared, &TajConfig::hybrid_unbounded()).unwrap();
        let ci = analyze(&prepared, &TajConfig::ci_thin()).unwrap();
        let key = |f: &taj::core::TajFinding| {
            (f.flow.sink_owner_class.clone(), f.flow.issue)
        };
        let ci_set: std::collections::HashSet<_> = ci.findings.iter().map(key).collect();
        for f in &hybrid.findings {
            prop_assert!(
                ci_set.contains(&key(f)),
                "hybrid finding {:?} missing from CI", key(f)
            );
        }
    }

    /// Budget monotonicity: a larger call-graph budget never reports
    /// fewer true positives.
    #[test]
    fn cg_budget_is_monotone(spec in spec_strategy(), small in 50usize..200) {
        let bench = generate(&spec);
        let prepared = prepare(
            &bench.source,
            Some(&bench.descriptor),
            RuleSet::default_rules(),
        )
        .expect("prepares");
        let mut lo_cfg = TajConfig::hybrid_prioritized();
        lo_cfg.max_cg_nodes = Some(small);
        let mut hi_cfg = TajConfig::hybrid_prioritized();
        hi_cfg.max_cg_nodes = Some(small * 50);
        let lo = analyze(&prepared, &lo_cfg).unwrap();
        let hi = analyze(&prepared, &hi_cfg).unwrap();
        let lo_s = score(&lo, &bench.truth);
        let hi_s = score(&hi, &bench.truth);
        prop_assert!(
            hi_s.true_positives >= lo_s.true_positives,
            "larger budget lost TPs: {lo_s:?} vs {hi_s:?}"
        );
    }
}
