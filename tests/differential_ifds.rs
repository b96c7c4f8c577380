//! Three-way differential harness: IFDS vs CS vs Hybrid over the full
//! securibench + webgen suites (ROADMAP item 4). Independent engines
//! over the same phase-1 artifacts are the best bug-finder we can build:
//! any disagreement is either a bug in one engine or a *known delta* —
//! an algorithmic difference we can name, triage, and pin. This file
//! computes per-pair agreement sets for every case and fails on any
//! disagreement that no triage rule explains; the triaged deltas are
//! documented in EXPERIMENTS.md. The corpus, verdict reduction, and
//! triage rules live in `tests/common/`.

mod common;

use std::collections::BTreeSet;

use common::{backends, corpus, known_delta, verdicts};
use taj::core::{analyze_prepared, prepare, score, RuleSet};

#[test]
fn three_way_differential_has_no_untriaged_disagreements() {
    let cases = corpus();
    let mut untriaged: Vec<String> = Vec::new();
    let mut triaged = 0usize;
    for case in &cases {
        let results: Vec<(&str, BTreeSet<(String, String)>)> =
            backends().iter().map(|(name, config)| (*name, verdicts(case, config))).collect();
        for (ai, (a_name, a_set)) in results.iter().enumerate() {
            for (b_name, b_set) in results.iter().skip(ai + 1) {
                for key in a_set.difference(b_set) {
                    match known_delta(case, a_name, b_name, key) {
                        Some(_) => triaged += 1,
                        None => untriaged.push(format!(
                            "{}/{}: {:?} reported by {} but not {}",
                            case.suite, case.name, key, a_name, b_name
                        )),
                    }
                }
                for key in b_set.difference(a_set) {
                    match known_delta(case, b_name, a_name, key) {
                        Some(_) => triaged += 1,
                        None => untriaged.push(format!(
                            "{}/{}: {:?} reported by {} but not {}",
                            case.suite, case.name, key, b_name, a_name
                        )),
                    }
                }
            }
        }
    }
    assert!(triaged > 0, "the ThreadShared delta must actually appear — corpus too weak");
    assert!(
        untriaged.is_empty(),
        "untriaged three-way disagreements ({}):\n{}",
        untriaged.len(),
        untriaged.join("\n")
    );
}

#[test]
fn per_backend_scores_against_ground_truth() {
    // FP/FN per backend over every case with ground truth. Soundness:
    // Hybrid and IFDS never miss a real flow; CS misses exactly the
    // cross-thread ones. Precision: IFDS false positives are bounded by
    // Hybrid's on every case — the access-path facts refine, never
    // coarsen, the hybrid heap matching at the default depth.
    for case in corpus() {
        let Some(truth) = &case.truth else { continue };
        let prepared = prepare(&case.source, case.descriptor.as_ref(), RuleSet::default_rules())
            .unwrap_or_else(|e| panic!("{}/{}: {e}", case.suite, case.name));
        let mut fps = std::collections::HashMap::new();
        for (name, config) in backends() {
            let report = analyze_prepared(&prepared, &config).expect("runs");
            let s = score(&report, truth);
            match name {
                "Hybrid" | "IFDS" => assert_eq!(
                    s.false_negatives, 0,
                    "{}/{}: {name} missed a real flow ({s:?})",
                    case.suite, case.name
                ),
                _ => assert_eq!(
                    s.false_negatives,
                    truth.cross_thread.len(),
                    "{}/{}: CS must miss exactly the cross-thread flows ({s:?})",
                    case.suite,
                    case.name
                ),
            }
            fps.insert(name, s.false_positives);
        }
        assert!(
            fps["IFDS"] <= fps["Hybrid"],
            "{}/{}: IFDS reports more false positives than Hybrid ({:?})",
            case.suite,
            case.name,
            fps
        );
    }
}
