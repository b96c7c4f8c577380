//! Determinism harness for the tracing layer itself: the *event set* a
//! run records (span names + attributes, timestamps excluded) must be
//! identical across repeat runs — including degraded, hard-failing, and
//! pre-cancelled runs. The byte-identical report contract must also
//! survive turning tracing on: the recorder is an observation parameter,
//! never an analysis parameter.

mod common;

use common::{analyze_opts, big_app, report_json};
use taj::core::{
    prepare_traced, PreparedProgram, Recorder, RuleSet, RunOptions, Supervisor, TajConfig,
    TajError, TajReport,
};
use taj::webgen::{generate, standard_mix, BenchmarkSpec};

/// Runs one traced analysis and returns its outcome plus the
/// timestamp-free trace signature.
fn run_traced(
    prepared: &PreparedProgram,
    config: &TajConfig,
    degrade: bool,
    cancel: bool,
) -> (Result<TajReport, TajError>, Vec<String>) {
    let recorder = Recorder::deterministic();
    let supervisor = Supervisor::new();
    if cancel {
        supervisor.cancel();
    }
    let opts =
        RunOptions { supervisor, degrade, recorder: recorder.clone(), ..RunOptions::default() };
    let result = analyze_opts(prepared, config, &opts);
    (result, recorder.signature())
}

/// Asserts the trace signature of three repeat runs matches the first
/// run's (repeat runs catch buffers polluted by anything but the inputs).
fn assert_trace_invariant(
    prepared: &PreparedProgram,
    config: &TajConfig,
    degrade: bool,
    cancel: bool,
    label: &str,
) {
    let (_, reference) = run_traced(prepared, config, degrade, cancel);
    assert!(!reference.is_empty(), "[{label}] traced run records no events");
    for repeat in 1..=3 {
        let (_, signature) = run_traced(prepared, config, degrade, cancel);
        assert_eq!(reference, signature, "[{label}] trace event set diverges on repeat {repeat}");
    }
}

#[test]
fn all_six_configurations_have_thread_invariant_traces() {
    let prepared = big_app("trace-determinism");
    for config in TajConfig::all() {
        assert_trace_invariant(&prepared, &config, false, false, config.name);
    }
}

#[test]
fn degraded_runs_have_thread_invariant_traces() {
    // The starved CS config walks the degradation ladder; the `degrade`
    // instant events and the rescued run's spans must repeat exactly.
    let prepared = big_app("trace-determinism");
    assert_trace_invariant(&prepared, &TajConfig::cs_tiny(), true, false, "CS-Tiny degraded");
    let (result, signature) = run_traced(&prepared, &TajConfig::cs_tiny(), true, false);
    assert!(result.expect("degraded run completes").degradation.degraded);
    assert!(
        signature.iter().any(|l| l.starts_with("degrade ")),
        "degradation leaves a trace event: {signature:?}"
    );
}

#[test]
fn hard_failing_runs_have_thread_invariant_traces() {
    // Without the ladder the starved CS run aborts with OutOfMemory; the
    // abort path (span drops, the out-of-budget rule's span and the
    // phase2.oom event) must trace identically on every run.
    let prepared = big_app("trace-determinism");
    assert_trace_invariant(&prepared, &TajConfig::cs_tiny(), false, false, "CS-Tiny hard-fail");
    let (result, signature) = run_traced(&prepared, &TajConfig::cs_tiny(), false, false);
    let Err(TajError::OutOfMemory { path_edges }) = result else {
        panic!("starved CS hard-fails: {result:?}")
    };
    assert!(
        signature.iter().any(|l| l.starts_with("phase2.oom")),
        "abort leaves a phase2.oom event: {signature:?}"
    );
    assert!(
        signature
            .iter()
            .any(|l| l.starts_with("phase2.unit ")
                && l.ends_with(&format!(" path_edges={path_edges}"))),
        "the out-of-budget rule has a phase2.unit span: {signature:?}"
    );
}

#[test]
fn pre_cancelled_runs_have_thread_invariant_traces() {
    let prepared = big_app("trace-determinism");
    assert_trace_invariant(&prepared, &TajConfig::hybrid_unbounded(), false, true, "pre-cancelled");
}

#[test]
fn reports_are_byte_identical_with_tracing_on_or_off() {
    // Tracing must never perturb the analysis: the report bytes are
    // compared between a disabled recorder and a live wall-clock recorder.
    let prepared = big_app("trace-determinism");
    for config in TajConfig::all() {
        let off = analyze_opts(&prepared, &config, &RunOptions::default())
            .expect("untraced run completes");
        let on = analyze_opts(
            &prepared,
            &config,
            &RunOptions { recorder: Recorder::new(), ..RunOptions::default() },
        )
        .expect("traced run completes");
        assert_eq!(
            report_json(&off),
            report_json(&on),
            "[{}] tracing changed the report",
            config.name
        );
    }
}

#[test]
fn traced_run_emits_mandatory_spans_and_valid_chrome_json() {
    let spec = BenchmarkSpec {
        name: "trace-smoke".into(),
        pattern_counts: standard_mix(2, 1, true),
        filler_classes: 3,
        methods_per_class: 4,
        seed: 0xD17E,
    };
    let bench = generate(&spec);
    let recorder = Recorder::new();
    let opts = RunOptions { recorder: recorder.clone(), ..RunOptions::default() };
    let prepared =
        prepare_traced(&bench.source, Some(&bench.descriptor), RuleSet::default_rules(), &recorder)
            .expect("benchmark prepares");
    analyze_opts(&prepared, &TajConfig::hybrid_unbounded(), &opts).expect("benchmark analyzes");

    let signature = recorder.signature();
    for span in [
        "prepare.parse",
        "prepare.model",
        "prepare.ssa",
        "phase1",
        "phase1.solve",
        "phase1.heapgraph",
        "phase1.escape",
        "phase1.mhp",
        "phase2",
        "phase2.specs",
        "phase2.views",
        "phase2.unit",
        "phase2.post",
    ] {
        assert!(
            signature.iter().any(|l| l == span || l.starts_with(&format!("{span} "))),
            "mandatory span `{span}` missing from trace: {signature:?}"
        );
    }

    let trace = recorder.chrome_trace();
    let v: serde::Value = serde_json::from_str(&trace).expect("chrome trace is valid JSON");
    assert_eq!(v["displayTimeUnit"].as_str(), Some("ms"), "{trace}");
    let events = v["traceEvents"].as_array().expect("traceEvents array");
    assert!(!events.is_empty());
    for ev in events {
        assert!(ev["name"].as_str().is_some(), "event has a name: {ev:?}");
        assert_eq!(ev["cat"].as_str(), Some("taj"));
        assert!(ev["ts"].as_u64().is_some(), "event has a timestamp: {ev:?}");
        let ph = ev["ph"].as_str().expect("event has a phase");
        assert!(
            (ph == "X" && ev["dur"].as_u64().is_some()) || ph == "i",
            "complete events carry dur, instants don't: {ev:?}"
        );
    }
}
