//! Degradation end to end: a CS run over its path-edge budget falls to
//! Hybrid-Unbounded with provenance, `degrade` changes nothing outside
//! CS, deadlines and cancellation deliver partial results, and degraded
//! or interrupted runs are byte-deterministic. Failpoint-driven edges
//! (exact interrupt sites) run under `--features taj_failpoints`.

mod common;

use common::{analyze_opts, assert_reports_byte_identical, big_app, no_failpoints};
use taj::core::{
    analyze_source, prepare_traced, RuleSet, RunOptions, Supervisor, TajConfig, TajError, TajReport,
};

const SERVLET: &str = r#"
    class Page extends HttpServlet {
        method void doGet(HttpServletRequest req, HttpServletResponse resp) {
            String name = req.getParameter("name");
            resp.getWriter().println(name);
        }
    }
"#;

fn run(config: &TajConfig, opts: &RunOptions) -> Result<TajReport, TajError> {
    let prepared = prepare_traced(SERVLET, None, RuleSet::default_rules(), &opts.recorder)?;
    analyze_opts(&prepared, config, opts)
}

/// Runs `run` twice, asserts that both reports render byte-identically
/// (JSON, text and SARIF), and returns the first.
fn twice(label: &str, run: impl Fn() -> TajReport) -> TajReport {
    let first = run();
    assert_reports_byte_identical(&first, &run(), label);
    first
}

/// Every degradation step of `report` as `(stage, from, to, reason)`.
fn steps(report: &TajReport) -> Vec<(&str, &str, &str, &str)> {
    let steps = report.degradation.steps.iter();
    steps.map(|s| (&*s.stage, &*s.from, &*s.to, &*s.reason)).collect()
}

#[test]
fn starved_cs_fails_hard_without_degrade() {
    let _quiet = no_failpoints();
    // The paper's behavior: exhausting the path-edge budget is fatal.
    match analyze_source(SERVLET, None, RuleSet::default_rules(), &TajConfig::cs_tiny()) {
        Err(TajError::OutOfMemory { path_edges }) => assert!(path_edges > 4),
        other => panic!("expected OutOfMemory, got {other:?}"),
    }
}

#[test]
fn starved_cs_with_degrade_falls_to_hybrid_with_provenance() {
    let _quiet = no_failpoints();
    let opts = RunOptions { degrade: true, ..RunOptions::default() };
    let report = run(&TajConfig::cs_tiny(), &opts).expect("ladder rescues the run");
    assert_eq!(report.config, "Hybrid-Unbounded");
    assert_eq!(report.issue_count(), 1, "the hybrid rerun still finds the flow");
    assert!(report.degradation.degraded);
    assert_eq!(report.degradation.steps.len(), 1, "{:?}", report.degradation);
    let step = &report.degradation.steps[0];
    assert_eq!((step.stage.as_str(), step.from.as_str()), ("slice", "CS-Tiny"));
    assert_eq!(step.to, "Hybrid-Unbounded");
    assert!(step.reason.contains("path-edge budget exhausted"), "{}", step.reason);
    assert!(!step.caveat.is_empty(), "every fall carries a soundness caveat");
}

#[test]
fn expired_deadline_delivers_partial_with_provenance() {
    let _quiet = no_failpoints();
    let supervisor = Supervisor::new().with_deadline(std::time::Duration::from_millis(0));
    std::thread::sleep(std::time::Duration::from_millis(2));
    let opts = RunOptions { supervisor, ..RunOptions::default() };
    let report = run(&TajConfig::hybrid_unbounded(), &opts).expect("partial, not an error");
    assert!(report.degradation.degraded);
    let step = &report.degradation.steps[0];
    assert_eq!((step.stage.as_str(), step.reason.as_str()), ("phase1", "deadline"));
    assert_eq!(step.to, "truncated-callgraph");
}

#[test]
fn degrade_changes_nothing_outside_cs() {
    let _quiet = no_failpoints();
    // Only a CS run over its path-edge budget falls; every other
    // configuration renders the same bytes with or without `degrade`.
    let prepared = big_app("degradation");
    let degrade = RunOptions { degrade: true, ..RunOptions::default() };
    for config in [TajConfig::hybrid_unbounded(), TajConfig::ifds(), TajConfig::ci_thin()] {
        let plain = analyze_opts(&prepared, &config, &RunOptions::default()).expect("clean run");
        let degraded = analyze_opts(&prepared, &config, &degrade).expect("clean run");
        assert_reports_byte_identical(&plain, &degraded, config.name);
        assert!(steps(&degraded).is_empty(), "{}: {:?}", config.name, degraded.degradation);
    }
}

#[test]
fn budget_degraded_runs_are_byte_deterministic() {
    let _quiet = no_failpoints();
    // Budget-class degradation depends only on the input, never on the
    // wall clock, so two runs must serialize identically.
    let opts = RunOptions { degrade: true, ..RunOptions::default() };
    let serialize = || {
        let report = run(&TajConfig::cs_tiny(), &opts).expect("degraded run succeeds");
        serde_json::to_string(&report).expect("serializes")
    };
    assert_eq!(serialize(), serialize(), "degraded runs must be reproducible");
}

#[test]
fn pre_cancelled_ifds_delivers_the_same_partial_report_twice() {
    let _quiet = no_failpoints();
    // The cancel truncates phase 1 at its first check, before the call
    // graph reaches a source, so IFDS has no seed left to interrupt.
    let prepared = big_app("degradation");
    let report = twice("IFDS pre-cancelled", || {
        let supervisor = Supervisor::new();
        supervisor.cancel();
        let opts = RunOptions { supervisor, ..RunOptions::default() };
        analyze_opts(&prepared, &TajConfig::ifds(), &opts).expect("partial, not an error")
    });
    assert!(report.flows.is_empty(), "{:?}", report.flows);
    assert_eq!(
        steps(&report),
        [("phase1", "pointer-analysis", "truncated-callgraph", "cancelled")]
    );
}

#[test]
fn expired_deadline_ifds_delivers_the_same_truncated_report_twice() {
    let _quiet = no_failpoints();
    // The deadline truncates phase 1 only: the finishing handle drops it,
    // so IFDS slices the truncated call graph to the end.
    let prepared = big_app("degradation");
    let report = twice("IFDS expired deadline", || {
        let supervisor = Supervisor::new().with_deadline(std::time::Duration::from_millis(0));
        let opts = RunOptions { supervisor, ..RunOptions::default() };
        analyze_opts(&prepared, &TajConfig::ifds(), &opts).expect("partial, not an error")
    });
    assert_eq!(steps(&report), [("phase1", "pointer-analysis", "truncated-callgraph", "deadline")]);
}

#[cfg(feature = "taj_failpoints")]
mod failpoint_edges {
    use super::*;
    use taj::supervise::failpoints::{self, FailAction, FailScenario};

    /// Runs `config` twice over the generated app with `site` armed to
    /// fire `action` at every hit, asserts that both reports are
    /// byte-identical, and returns the first. Each run arms the
    /// failpoint afresh, since the scenario lock clears every point.
    fn twice_with_failpoint(config: &TajConfig, site: &str, action: FailAction) -> TajReport {
        let prepared = big_app("degradation");
        twice(&format!("{} with {site}={action:?}", config.name), || {
            let _scenario = FailScenario::setup();
            failpoints::configure(site, action.clone());
            analyze_opts(&prepared, config, &RunOptions::default()).expect("partial, not an error")
        })
    }

    #[test]
    fn injected_cancel_in_ifds_tabulation_delivers_a_partial_report() {
        let report = twice_with_failpoint(&TajConfig::ifds(), "ifds.tabulate", FailAction::Cancel);
        assert_eq!(steps(&report), [("slice", "IFDS", "partial", "cancelled")]);
    }

    #[test]
    fn injected_deadline_in_cs_tabulation_delivers_a_partial_report() {
        let report =
            twice_with_failpoint(&TajConfig::cs_thin(), "cs.tabulate", FailAction::Deadline);
        assert_eq!(steps(&report), [("slice", "CS", "partial", "deadline")]);
    }

    #[test]
    fn cancellation_never_descends_the_ladder() {
        let _scenario = FailScenario::setup();
        failpoints::configure("hybrid.slice", FailAction::Cancel);
        // Even with degrade on: cancellation is a client hanging up, not
        // resource exhaustion — rerunning another configuration would be
        // wasted work nobody is waiting for.
        let opts = RunOptions { degrade: true, ..RunOptions::default() };
        let report = run(&TajConfig::hybrid_unbounded(), &opts).expect("partial, not an error");
        assert_eq!(report.config, "Hybrid-Unbounded", "no configuration change");
        assert_eq!(report.degradation.steps.len(), 1, "{:?}", report.degradation);
        assert_eq!(report.degradation.steps[0].reason, "cancelled");
        assert_eq!(report.degradation.steps[0].to, "partial");
    }

    #[test]
    fn injected_deadline_mid_pointer_analysis_truncates_phase1() {
        let _scenario = FailScenario::setup();
        failpoints::configure_after("pointer.run.node", FailAction::Deadline, 3);
        let opts = RunOptions::default();
        let report = run(&TajConfig::hybrid_unbounded(), &opts).expect("partial, not an error");
        let step = &report.degradation.steps[0];
        assert_eq!((step.stage.as_str(), step.reason.as_str()), ("phase1", "deadline"));
    }
}
