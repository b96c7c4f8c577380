//! Evaluation-shape assertions at benchmark scale (quick scale so this
//! stays fast in CI, standard scale where a budget binds only there):
//! the headline §7.2 claims must hold on every run, not just in the
//! printed tables.

mod common;

use common::analyze;
use taj::core::{prepare, score, RuleSet, Score, TajConfig, TajError};
use taj::webgen::{generate, presets, Scale};

fn run(bench: &taj::webgen::GeneratedBenchmark, config: &TajConfig) -> Option<(usize, Score)> {
    let prepared =
        prepare(&bench.source, Some(&bench.descriptor), RuleSet::default_rules()).unwrap();
    match analyze(&prepared, config) {
        Ok(r) => {
            let s = score(&r, &bench.truth);
            Some((r.issue_count(), s))
        }
        Err(TajError::OutOfMemory { .. }) => None,
        Err(e) => panic!("{e}"),
    }
}

/// Sound configurations find every seeded flow on every Figure 4 preset.
#[test]
fn figure4_presets_no_false_negatives_for_sound_configs() {
    for preset in presets().into_iter().filter(|p| p.in_figure4) {
        let bench = generate(&preset.spec(Scale::quick()));
        for config in [TajConfig::hybrid_unbounded(), TajConfig::ci_thin()] {
            let (_, s) = run(&bench, &config).expect("unbounded configs complete");
            assert_eq!(s.false_negatives, 0, "{} on {}: {s:?}", config.name, preset.name);
        }
    }
}

/// The multithreaded presets seed exactly the paper's CS false negatives
/// (BlueBlog 2, I 1, SBM 2) — verified at generation level.
#[test]
fn multithreaded_presets_carry_paper_counts() {
    let expected = [("BlueBlog", 2usize), ("I", 1), ("SBM", 2)];
    for (name, threads) in expected {
        let preset = presets().into_iter().find(|p| p.name == name).unwrap();
        assert_eq!(preset.threads, threads, "{name}");
        // And the generated source really contains that many spawn sites.
        let bench = generate(&preset.spec(Scale::quick()));
        let spawns = bench.source.matches(".start()").count();
        assert_eq!(spawns, threads, "{name} spawn sites");
    }
}

/// CI reports at least as many issues as the hybrid configuration on
/// every preset (it is the most conservative algorithm).
#[test]
fn ci_reports_superset_counts() {
    for preset in presets().into_iter().filter(|p| p.in_figure4).take(4) {
        let bench = generate(&preset.spec(Scale::quick()));
        let (hybrid_issues, _) = run(&bench, &TajConfig::hybrid_unbounded()).unwrap();
        let (ci_issues, _) = run(&bench, &TajConfig::ci_thin()).unwrap();
        assert!(
            ci_issues >= hybrid_issues,
            "{}: CI {} < hybrid {}",
            preset.name,
            ci_issues,
            hybrid_issues
        );
    }
}

/// The optimized configuration never reports more false positives than
/// the prioritized one (its §6.2 bounds only remove flows).
#[test]
fn optimized_is_at_least_as_precise_as_prioritized() {
    for preset in presets().into_iter().filter(|p| p.in_figure4) {
        let bench = generate(&preset.spec(Scale::quick()));
        let (_, prior) = run(&bench, &TajConfig::hybrid_prioritized()).unwrap();
        let (_, optim) = run(&bench, &TajConfig::hybrid_optimized()).unwrap();
        assert!(
            optim.false_positives <= prior.false_positives,
            "{}: optimized {:?} vs prioritized {:?}",
            preset.name,
            optim,
            prior
        );
    }
}

/// §6.1's ablation: under the call-graph node budget, priority-driven
/// construction reaches the code near taint first, so it finds at least
/// as many true positives as FIFO construction under the same budget,
/// and strictly more on GridSphere and ST. These six presets are the
/// ones whose budget binds at standard scale.
#[test]
fn prioritized_call_graph_finds_at_least_as_many_true_positives_as_fifo() {
    let prioritized = TajConfig::hybrid_prioritized();
    let fifo = TajConfig { priority: false, ..prioritized };
    for (name, strictly_more) in [
        ("Webgoat", false),
        ("GridSphere", true),
        ("MVNForum", false),
        ("Roller", false),
        ("SnipSnap", false),
        ("ST", true),
    ] {
        let preset = presets().into_iter().find(|p| p.name == name).expect("preset");
        let bench = generate(&preset.spec(Scale::standard()));
        let prepared =
            prepare(&bench.source, Some(&bench.descriptor), RuleSet::default_rules()).unwrap();
        let [prio, plain] = [&prioritized, &fifo].map(|config| {
            let report = analyze(&prepared, config).unwrap();
            assert!(report.stats.cg_budget_exhausted, "{name}: {} budget must bind", config.name);
            score(&report, &bench.truth).true_positives
        });
        assert!(prio >= plain, "{name}: prioritized {prio} TPs < FIFO {plain}");
        if strictly_more {
            assert!(prio > plain, "{name}: prioritized {prio} TPs, FIFO {plain}");
        }
    }
}
