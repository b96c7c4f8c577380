//! The degradation ladder end to end: budget exhaustion falls CS →
//! Hybrid-Unbounded → Hybrid-Optimized with provenance, deadlines and
//! cancellation deliver partial results, and budget-driven degraded runs
//! are byte-deterministic. Failpoint-driven edges (exact interrupt
//! sites, ladder bottom) run under `--features taj_failpoints`.

mod common;

use common::no_failpoints;
use taj::core::{
    analyze_source, analyze_source_opts, RuleSet, RunOptions, Supervisor, TajConfig, TajError,
    TajReport,
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
    analyze_source_opts(SERVLET, None, RuleSet::default_rules(), config, opts)
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
    assert_eq!(report.issue_count(), 1, "the flow is still found at the cheaper rung");
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
fn step_budget_in_phase1_truncates_and_annotates() {
    let _quiet = no_failpoints();
    let opts =
        RunOptions { supervisor: Supervisor::new().with_max_steps(5), ..RunOptions::default() };
    let report = run(&TajConfig::hybrid_unbounded(), &opts).expect("partial, not an error");
    assert!(report.degradation.degraded);
    let step = &report.degradation.steps[0];
    assert_eq!((step.stage.as_str(), step.reason.as_str()), ("phase1", "step_budget"));
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

#[cfg(feature = "taj_failpoints")]
mod failpoint_edges {
    use super::*;
    use taj::supervise::failpoints::{self, FailAction, FailScenario};

    #[test]
    fn injected_budget_in_cs_descends_one_rung() {
        let _scenario = FailScenario::setup();
        // Trip tabulation's step budget at its first check — no magic
        // path-edge numbers needed.
        failpoints::configure("cs.tabulate", FailAction::StepBudget);
        let opts = RunOptions { degrade: true, ..RunOptions::default() };
        let report = run(&TajConfig::cs_thin(), &opts).expect("ladder rescues the run");
        assert_eq!(report.config, "Hybrid-Unbounded");
        assert_eq!(report.issue_count(), 1);
        let step = &report.degradation.steps[0];
        assert_eq!((step.from.as_str(), step.to.as_str()), ("CS", "Hybrid-Unbounded"));
        assert_eq!(step.reason, "step_budget");
    }

    #[test]
    fn ladder_bottom_delivers_partial_results() {
        let _scenario = FailScenario::setup();
        // Every hybrid rung trips immediately: Hybrid-Unbounded falls to
        // Hybrid-Optimized, which trips too — the bottom of the ladder
        // delivers a partial report instead of looping or failing.
        failpoints::configure("hybrid.slice", FailAction::StepBudget);
        let opts = RunOptions { degrade: true, ..RunOptions::default() };
        let report = run(&TajConfig::hybrid_unbounded(), &opts).expect("partial at the bottom");
        let steps = &report.degradation.steps;
        assert_eq!(steps.len(), 2, "{steps:?}");
        assert_eq!(
            (steps[0].from.as_str(), steps[0].to.as_str()),
            ("Hybrid-Unbounded", "Hybrid-Optimized")
        );
        assert_eq!((steps[1].from.as_str(), steps[1].to.as_str()), ("Hybrid-Optimized", "partial"));
    }

    #[test]
    fn cancellation_never_descends_the_ladder() {
        let _scenario = FailScenario::setup();
        failpoints::configure("hybrid.slice", FailAction::Cancel);
        // Even with degrade on: cancellation is a client hanging up, not
        // resource exhaustion — retrying a cheaper rung would be wasted
        // work nobody is waiting for.
        let opts = RunOptions { degrade: true, ..RunOptions::default() };
        let report = run(&TajConfig::hybrid_unbounded(), &opts).expect("partial, not an error");
        assert_eq!(report.config, "Hybrid-Unbounded", "no rung change");
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
