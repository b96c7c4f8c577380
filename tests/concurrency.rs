//! Concurrency-aware slicing: the thread-escape / MHP subsystems wired
//! into both slicers.
//!
//! - `CS-Escape` (the sixth configuration) must recover exactly the
//!   cross-thread flows plain CS misses on the multithreaded Table 2 trio
//!   (BlueBlog 2, I 1, SBM 2 — §7.2), without reporting anything new
//!   elsewhere beyond those repaired flows.
//! - The hybrid escape filter may only *drop* findings (it removes
//!   impossible cross-thread store→load edges), never add them, and must
//!   not lose any true positive.

mod common;

use std::collections::HashSet;

use proptest::prelude::*;

use common::analyze;
use taj::core::{analyze_source, prepare, score, IssueType, RuleSet, TajConfig, TajReport};
use taj::webgen::{generate, micro_suite, presets, BenchmarkSpec, Pattern, Scale};

/// Hybrid with the cross-thread edge filter enabled (not one of the six
/// named configurations; exercised directly here and via `--config`).
fn hybrid_escape() -> TajConfig {
    TajConfig { name: "Hybrid-Escape", escape_analysis: true, ..TajConfig::hybrid_unbounded() }
}

fn detected(report: &TajReport) -> HashSet<(String, IssueType)> {
    report.findings.iter().map(|f| (f.flow.sink_owner_class.clone(), f.flow.issue)).collect()
}

#[test]
fn cs_escape_recovers_multithreaded_trio_false_negatives() {
    let scale = Scale::quick();
    let mut recovered_total = 0usize;
    for preset in presets().into_iter().filter(|p| p.threads > 0) {
        let bench = generate(&preset.spec(scale));
        let prepared = prepare(&bench.source, Some(&bench.descriptor), RuleSet::default_rules())
            .expect("preset prepares");
        let cs = analyze(&prepared, &TajConfig::cs_thin()).expect("CS runs");
        let ce = analyze(&prepared, &TajConfig::cs_escape()).expect("CS-Escape runs");
        let cs_found = detected(&cs);
        let ce_found = detected(&ce);

        // Plain CS misses every seeded cross-thread flow; the repair
        // reports each of them.
        for ct in &bench.truth.cross_thread {
            assert!(
                !cs_found.contains(ct),
                "{}: plain CS unexpectedly finds cross-thread {ct:?}",
                preset.name
            );
            assert!(
                ce_found.contains(ct),
                "{}: CS-Escape fails to recover cross-thread {ct:?}",
                preset.name
            );
        }
        assert_eq!(
            bench.truth.cross_thread.len(),
            preset.threads,
            "{}: generator seeds the paper's FN count",
            preset.name
        );
        recovered_total += bench.truth.cross_thread.len();

        // The repair is monotone: everything CS reports survives, and the
        // only additions are real (no new false positives).
        let cs_score = score(&cs, &bench.truth);
        let ce_score = score(&ce, &bench.truth);
        assert!(ce_found.is_superset(&cs_found), "{}: CS-Escape lost a CS finding", preset.name);
        assert_eq!(
            ce_score.false_negatives + preset.threads,
            cs_score.false_negatives,
            "{}: repair recovers exactly the seeded cross-thread flows",
            preset.name
        );
        assert_eq!(
            ce_score.false_positives, cs_score.false_positives,
            "{}: repair must not introduce false positives",
            preset.name
        );
    }
    assert_eq!(recovered_total, 5, "BlueBlog 2 + I 1 + SBM 2");
}

#[test]
fn cs_escape_is_superset_of_cs_on_micro_suite() {
    for t in micro_suite() {
        let prepared = prepare(&t.source, Some(&t.descriptor), RuleSet::default_rules())
            .unwrap_or_else(|e| panic!("{}: {e}", t.name));
        let cs = analyze(&prepared, &TajConfig::cs_thin()).unwrap();
        let ce = analyze(&prepared, &TajConfig::cs_escape()).unwrap();
        assert!(
            detected(&ce).is_superset(&detected(&cs)),
            "{}: CS-Escape lost a finding CS had",
            t.name
        );
    }
}

#[test]
fn cs_escape_fixes_thread_shared_micro_case() {
    let t = micro_suite()
        .into_iter()
        .find(|t| t.name == format!("Micro_{}", Pattern::ThreadShared.tag()))
        .expect("ThreadShared in suite");
    let prepared = prepare(&t.source, Some(&t.descriptor), RuleSet::default_rules()).unwrap();
    let cs = score(&analyze(&prepared, &TajConfig::cs_thin()).unwrap(), &t.truth);
    let ce = score(&analyze(&prepared, &TajConfig::cs_escape()).unwrap(), &t.truth);
    assert_eq!(cs.false_negatives, 1, "plain CS misses the flow: {cs:?}");
    assert_eq!(ce.false_negatives, 0, "escape repair finds it: {ce:?}");
    assert_eq!(ce.false_positives, cs.false_positives, "no new FPs: {ce:?}");
}

#[test]
fn hybrid_escape_filter_is_subset_on_micro_suite() {
    for t in micro_suite() {
        let prepared = prepare(&t.source, Some(&t.descriptor), RuleSet::default_rules())
            .unwrap_or_else(|e| panic!("{}: {e}", t.name));
        let plain = analyze(&prepared, &TajConfig::hybrid_unbounded()).unwrap();
        let filtered = analyze(&prepared, &hybrid_escape()).unwrap();
        assert!(
            detected(&plain).is_superset(&detected(&filtered)),
            "{}: escape filter invented a finding",
            t.name
        );
        let ps = score(&plain, &t.truth);
        let fs = score(&filtered, &t.truth);
        assert_eq!(
            ps.false_negatives, fs.false_negatives,
            "{}: escape filter may only drop false positives",
            t.name
        );
    }
}

/// A cross-thread store→load pair through a *thread-confined* object:
/// both threads call the same factory, so a context-limited points-to
/// overlap makes plain hybrid connect the spawned thread's store to the
/// main thread's load — a false positive the escape filter removes
/// (neither box is reachable from the spawned receiver or a static).
#[test]
fn hybrid_escape_drops_impossible_cross_thread_edge() {
    let src = r#"
        class Box { field String v; ctor () { } }
        class BoxFactory {
            method Box make() {
                Box b = new Box();
                return b;
            }
        }
        class Worker implements Runnable {
            field String in;
            ctor (String in) { this.in = in; }
            method void run() {
                BoxFactory f = new BoxFactory();
                Box mine = f.make();
                mine.v = this.in;
            }
        }
        class Page extends HttpServlet {
            method void doGet(HttpServletRequest req, HttpServletResponse resp) {
                String p = req.getParameter("q");
                Worker w = new Worker(p);
                Thread t = new Thread(w);
                t.start();
                BoxFactory f = new BoxFactory();
                Box ours = f.make();
                String out = ours.v;
                resp.getWriter().println(out);
            }
        }
    "#;
    let plain = analyze_source(src, None, RuleSet::default_rules(), &TajConfig::hybrid_unbounded())
        .unwrap();
    let filtered = analyze_source(src, None, RuleSet::default_rules(), &hybrid_escape()).unwrap();
    assert!(
        plain.issue_count() >= 1,
        "plain hybrid conflates the two thread-confined boxes: {plain:#?}"
    );
    assert_eq!(
        filtered.issue_count(),
        0,
        "escape filter removes the impossible cross-thread flow: {filtered:#?}"
    );
    assert!(
        filtered.concurrency.cross_thread_edges_dropped > 0,
        "the dropped store->load edge is accounted in the report"
    );
}

fn threaded_spec_strategy() -> impl Strategy<Value = BenchmarkSpec> {
    let pats = vec![
        Pattern::XssReflected,
        Pattern::SqliConcat,
        Pattern::XssHeap,
        Pattern::NestedCarrier,
        Pattern::SessionAttr,
        Pattern::BuilderFlow,
        Pattern::TwoBoxContext,
        Pattern::CollectionContext,
        Pattern::FactoryAlias,
        Pattern::ThreadShared,
    ];
    (
        proptest::collection::vec((0..pats.len(), 1usize..3), 1..5),
        1usize..3, // always seed at least one cross-thread flow
        0usize..2,
        any::<u64>(),
    )
        .prop_map(move |(choices, threads, filler, seed)| {
            let mut counts: Vec<(Pattern, usize)> =
                choices.into_iter().map(|(i, n)| (pats[i], n)).collect();
            counts.push((Pattern::ThreadShared, threads));
            BenchmarkSpec {
                name: "conc-prop".into(),
                pattern_counts: counts,
                filler_classes: filler,
                methods_per_class: 4,
                seed,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The hybrid escape filter is a pure false-positive filter: its
    /// findings are contained in unfiltered hybrid's, and it keeps every
    /// seeded vulnerable flow (no new false negatives), whatever the
    /// composition.
    #[test]
    fn hybrid_escape_contained_in_hybrid(spec in threaded_spec_strategy()) {
        let bench = generate(&spec);
        let prepared = prepare(
            &bench.source,
            Some(&bench.descriptor),
            RuleSet::default_rules(),
        )
        .expect("generated benchmark prepares");
        let plain = analyze(&prepared, &TajConfig::hybrid_unbounded()).unwrap();
        let filtered = analyze(&prepared, &hybrid_escape()).unwrap();
        prop_assert!(
            detected(&plain).is_superset(&detected(&filtered)),
            "escape filter added a finding; spec {:?}",
            spec.pattern_counts
        );
        let fs = score(&filtered, &bench.truth);
        prop_assert_eq!(
            fs.false_negatives, 0,
            "escape filter lost a real flow; spec {:?}; score {:?}",
            spec.pattern_counts, fs
        );
    }

    /// The CS escape repair is monotone: plain CS findings survive, and
    /// the repaired run recovers every seeded cross-thread flow.
    #[test]
    fn cs_escape_contains_cs(spec in threaded_spec_strategy()) {
        let bench = generate(&spec);
        let prepared = prepare(
            &bench.source,
            Some(&bench.descriptor),
            RuleSet::default_rules(),
        )
        .expect("generated benchmark prepares");
        let cs = analyze(&prepared, &TajConfig::cs_thin()).unwrap();
        let ce = analyze(&prepared, &TajConfig::cs_escape()).unwrap();
        let ce_found = detected(&ce);
        prop_assert!(
            ce_found.is_superset(&detected(&cs)),
            "repair lost a CS finding; spec {:?}",
            spec.pattern_counts
        );
        for ct in &bench.truth.cross_thread {
            prop_assert!(
                ce_found.contains(ct),
                "repair missed cross-thread {:?}; spec {:?}",
                ct, spec.pattern_counts
            );
        }
    }
}
