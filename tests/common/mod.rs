//! Helpers shared by the integration suites: the driver's stages
//! composed for a prepared program, the reproducible corpus
//! (securibench + micro + webgen), the verdict/triage machinery of the
//! three-way differential harness, and the report byte-identity helpers
//! of the determinism suites. Each test binary compiles its own copy and
//! uses a subset, hence the file-wide `dead_code` allow.

#![allow(dead_code)]

use std::collections::BTreeSet;

use taj::core::{
    analyze_with_phase1_opts, prepare, run_phase1_traced, to_sarif, to_text, DeploymentDescriptor,
    GroundTruth, PreparedProgram, RuleSet, RunOptions, TajConfig, TajError, TajReport,
};
use taj::webgen::{
    generate, micro_suite, motivating, securibench_cases, standard_mix, BenchmarkSpec, Pattern,
};

/// Phase 1 then phase 2 over `prepared`, both under `opts`'s supervisor
/// and recorder.
pub fn analyze_opts(
    prepared: &PreparedProgram,
    config: &TajConfig,
    opts: &RunOptions,
) -> Result<TajReport, TajError> {
    let phase1 = run_phase1_traced(prepared, config, &opts.supervisor, &opts.recorder);
    analyze_with_phase1_opts(prepared, &phase1, config, opts)
}

/// [`analyze_opts`] under the default options: unsupervised, untraced,
/// no degradation.
pub fn analyze(prepared: &PreparedProgram, config: &TajConfig) -> Result<TajReport, TajError> {
    analyze_opts(prepared, config, &RunOptions::default())
}

/// Holds the failpoint scenario lock for the caller's scope. Failpoints
/// are process-global, so under `--features taj_failpoints` a scenario
/// running concurrently in the same test binary would otherwise fire
/// inside a test that configures none. Empty in default builds.
pub struct NoFailpoints {
    #[cfg(feature = "taj_failpoints")]
    _scenario: taj::supervise::failpoints::FailScenario,
}

pub fn no_failpoints() -> NoFailpoints {
    NoFailpoints {
        #[cfg(feature = "taj_failpoints")]
        _scenario: taj::supervise::failpoints::FailScenario::setup(),
    }
}

/// A web application with several seeds per rule: the standard webgen
/// pattern mix, twice over, plus filler classes. The `name` only labels
/// the generated source's banner comment — analysis results are
/// identical across names.
pub fn big_app(name: &str) -> PreparedProgram {
    let spec = BenchmarkSpec {
        name: name.into(),
        pattern_counts: standard_mix(2, 1, true),
        filler_classes: 3,
        methods_per_class: 4,
        seed: 0xD17E,
    };
    let bench = generate(&spec);
    prepare(&bench.source, Some(&bench.descriptor), RuleSet::default_rules())
        .expect("generated benchmark prepares")
}

/// Serializes a report — the byte-stream under comparison. Reports hold
/// no wall-clock, so raw bytes compare across runs.
pub fn report_json(report: &TajReport) -> String {
    serde_json::to_string_pretty(report).expect("report serializes")
}

/// Asserts two reports render byte-identically (JSON, text, SARIF).
pub fn assert_reports_byte_identical(want: &TajReport, got: &TajReport, label: &str) {
    assert_eq!(report_json(want), report_json(got), "{label}: JSON diverges");
    assert_eq!(to_text(want), to_text(got), "{label}: text report diverges");
    assert_eq!(
        to_sarif(want).expect("sarif renders"),
        to_sarif(got).expect("sarif renders"),
        "{label}: SARIF diverges"
    );
}

/// The three backends under differencing. Hybrid is the paper's novel
/// algorithm, CS the precise baseline, IFDS the independent access-path
/// formulation added post-paper.
pub fn backends() -> [(&'static str, TajConfig); 3] {
    [
        ("Hybrid", TajConfig::hybrid_unbounded()),
        ("CS", TajConfig::cs_thin()),
        ("IFDS", TajConfig::ifds()),
    ]
}

/// One differential case: a named program plus (optionally) ground truth.
pub struct Case {
    pub suite: &'static str,
    pub name: String,
    pub source: String,
    pub descriptor: Option<DeploymentDescriptor>,
    pub truth: Option<GroundTruth>,
}

/// The full differential corpus: every securibench case, every
/// micro-suite pattern, the Figure 1 motivating example, and two
/// generated webgen applications (fixed seeds — the corpus must be
/// reproducible for the triage list to stay meaningful).
pub fn corpus() -> Vec<Case> {
    let mut cases = Vec::new();
    for c in securibench_cases() {
        cases.push(Case {
            suite: "securibench",
            name: c.name.to_string(),
            source: c.source.clone(),
            descriptor: None,
            truth: Some(c.truth.clone()),
        });
    }
    for t in micro_suite() {
        cases.push(Case {
            suite: "micro",
            name: t.name.clone(),
            source: t.source.clone(),
            descriptor: Some(t.descriptor.clone()),
            truth: Some(t.truth.clone()),
        });
    }
    let m = motivating();
    cases.push(Case {
        suite: "micro",
        name: m.name.clone(),
        source: m.source.clone(),
        descriptor: Some(m.descriptor.clone()),
        truth: Some(m.truth.clone()),
    });
    for (name, seed) in [("webgen-mix-a", 0xD1FFu64), ("webgen-mix-b", 0xBEEFu64)] {
        let spec = BenchmarkSpec {
            name: name.into(),
            pattern_counts: vec![
                (Pattern::XssReflected, 2),
                (Pattern::XssHeap, 2),
                (Pattern::NestedCarrier, 1),
                (Pattern::SessionAttr, 1),
                (Pattern::BuilderFlow, 1),
                (Pattern::ThreadShared, 1),
                (Pattern::CollectionContext, 1),
                (Pattern::XssSanitized, 1),
                (Pattern::SqliConcat, 1),
            ],
            filler_classes: 2,
            methods_per_class: 4,
            seed,
        };
        let bench = generate(&spec);
        cases.push(Case {
            suite: "webgen",
            name: name.to_string(),
            source: bench.source,
            descriptor: Some(bench.descriptor),
            truth: Some(bench.truth),
        });
    }
    cases
}

/// A backend's report reduced to the comparable key set. The key is the
/// same `(sink class, issue)` pair the scoring layer uses — witness
/// paths and flow counts legitimately differ between algorithms; the
/// *verdict* per sink must not (except for triaged deltas).
pub fn verdicts(case: &Case, config: &TajConfig) -> BTreeSet<(String, String)> {
    let prepared = prepare(&case.source, case.descriptor.as_ref(), RuleSet::default_rules())
        .unwrap_or_else(|e| panic!("{}/{}: {e}", case.suite, case.name));
    let report = analyze(&prepared, config)
        .unwrap_or_else(|e| panic!("{}/{} under {}: {e}", case.suite, case.name, config.name));
    report
        .findings
        .iter()
        .map(|f| (f.flow.sink_owner_class.clone(), format!("{:?}", f.flow.issue)))
        .collect()
}

/// Triage: returns the documented reason a key may be reported by
/// `present` but not by `missing`, or `None` for an untriaged (= fatal)
/// disagreement. Every arm here has a matching row in EXPERIMENTS.md.
pub fn known_delta(
    case: &Case,
    present: &str,
    missing: &str,
    key: &(String, String),
) -> Option<&'static str> {
    if missing == "CS" {
        if let Some(truth) = &case.truth {
            // Delta 1 — CS loses cross-thread flows (§7.2): taint handed
            // from one thread to another through a shared object. The
            // ground truth marks exactly these keys; Hybrid and IFDS
            // both find them.
            if truth
                .cross_thread
                .iter()
                .any(|(class, issue)| *class == key.0 && format!("{issue:?}") == key.1)
            {
                return Some("CS drops heap facts across Thread.start edges (§7.2)");
            }
            // Delta 2 — flow-insensitive heap false alarms CS avoids:
            // Hybrid and IFDS both match store→load pairs through the
            // flow-insensitive points-to solution, so a benign alias of
            // a tainted store (FactoryAlias and friends) is reported;
            // CS's partially flow-sensitive heap propagation stays
            // clean. Only *benign* keys qualify — a vulnerable key
            // missing from CS that isn't cross-thread stays fatal.
            if truth
                .benign
                .iter()
                .any(|(class, issue)| *class == key.0 && format!("{issue:?}") == key.1)
            {
                return Some(
                    "flow-insensitive store→load heap matching (Hybrid and IFDS) \
                     reports a benign alias that CS's flow-sensitive heap avoids",
                );
            }
        }
    }
    let _ = present;
    None
}
