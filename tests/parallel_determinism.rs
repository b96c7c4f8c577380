//! Differential determinism harness for the parallel phase-2 engine:
//! the report byte-stream (JSON, text, SARIF) must be identical at every
//! thread count — for all seven configurations, for budget-degraded runs,
//! for cancelled runs, and (under `--features taj_failpoints`) for runs
//! interrupted at injected supervisor sites.
//!
//! The thread count is an *execution* parameter, never an *analysis*
//! parameter; this file is the enforcement of that contract. The
//! comparison helpers live in `tests/common/` and are shared with the
//! trace determinism harness.

mod common;

use common::{assert_thread_invariant, big_app, no_failpoints};
use taj::core::{RunOptions, Supervisor, TajConfig};

#[test]
fn all_seven_configurations_are_thread_invariant() {
    let _quiet = no_failpoints();
    let prepared = big_app("parallel-determinism");
    for config in TajConfig::all() {
        assert_thread_invariant(
            &prepared,
            &config,
            |threads| RunOptions { threads, ..RunOptions::default() },
            config.name,
        );
    }
}

#[test]
fn budget_degraded_runs_are_thread_invariant() {
    let _quiet = no_failpoints();
    // The starved CS config exhausts its path-edge budget and falls down
    // the degradation ladder; the fall (and the report it produces at
    // the cheaper rung) must not depend on the thread count.
    let prepared = big_app("parallel-determinism");
    assert_thread_invariant(
        &prepared,
        &TajConfig::cs_tiny(),
        |threads| RunOptions { degrade: true, threads, ..RunOptions::default() },
        "CS-Tiny degraded",
    );
}

#[test]
fn starved_cs_without_degrade_fails_identically_at_every_thread_count() {
    let _quiet = no_failpoints();
    // Without the ladder, budget exhaustion is a hard error carrying the
    // path-edge count — which must also be thread-invariant.
    let prepared = big_app("parallel-determinism");
    assert_thread_invariant(
        &prepared,
        &TajConfig::cs_tiny(),
        |threads| RunOptions { threads, ..RunOptions::default() },
        "CS-Tiny hard-fail",
    );
}

#[test]
fn pre_cancelled_runs_are_thread_invariant() {
    let _quiet = no_failpoints();
    // A cancellation that lands before phase 2 starts must stop every
    // worker and deliver the same (empty-slice, provenance-annotated)
    // partial report at every thread count.
    let prepared = big_app("parallel-determinism");
    assert_thread_invariant(
        &prepared,
        &TajConfig::hybrid_unbounded(),
        |threads| {
            let supervisor = Supervisor::new();
            supervisor.cancel();
            RunOptions { supervisor, threads, ..RunOptions::default() }
        },
        "pre-cancelled",
    );
}

#[test]
fn expired_deadline_runs_are_thread_invariant() {
    let _quiet = no_failpoints();
    // An already-expired deadline trips at the first supervisor check in
    // every worker; the merged partial report must not depend on which
    // worker tripped first.
    let prepared = big_app("parallel-determinism");
    assert_thread_invariant(
        &prepared,
        &TajConfig::hybrid_unbounded(),
        |threads| {
            let supervisor = Supervisor::new().with_deadline(std::time::Duration::from_millis(0));
            RunOptions { supervisor, threads, ..RunOptions::default() }
        },
        "expired-deadline",
    );
}

#[test]
fn interrupted_ifds_runs_are_thread_invariant() {
    let _quiet = no_failpoints();
    // IFDS under a pre-tripped supervisor (cancel, expired deadline)
    // must deliver the same partial report at every thread count — the
    // acceptance bar for the seventh configuration includes its
    // degraded/cancelled paths.
    let prepared = big_app("parallel-determinism");
    assert_thread_invariant(
        &prepared,
        &TajConfig::ifds(),
        |threads| {
            let supervisor = Supervisor::new();
            supervisor.cancel();
            RunOptions { supervisor, threads, ..RunOptions::default() }
        },
        "IFDS pre-cancelled",
    );
    assert_thread_invariant(
        &prepared,
        &TajConfig::ifds(),
        |threads| {
            let supervisor = Supervisor::new().with_deadline(std::time::Duration::from_millis(0));
            RunOptions { supervisor, threads, ..RunOptions::default() }
        },
        "IFDS expired-deadline",
    );
}

/// Failpoint-injected interrupts. Only `after = 0` actions are used:
/// failpoint hit counters are global (shared across workers), so an
/// `after = N` trigger would fire on a scheduling-dependent unit — a
/// nondeterminism of the *injection site*, not of the engine under test.
/// Serialized via `FailScenario::setup`'s global lock.
#[cfg(feature = "taj_failpoints")]
mod failpoint_scenarios {
    use crate::common::{analyze_opts, big_app, report_json, THREADS};
    use taj::core::{to_text, RunOptions, TajConfig};
    use taj::supervise::failpoints::{self, FailAction, FailScenario};

    /// Like `assert_thread_invariant`, but re-arms the failpoint
    /// before every run (scenario state is global and runs reset it).
    fn assert_invariant_with_failpoint(
        config: &TajConfig,
        site: &str,
        action: FailAction,
        degrade: bool,
        label: &str,
    ) {
        let prepared = big_app("parallel-determinism");
        let run = |threads: usize| {
            let _scenario = FailScenario::setup();
            failpoints::configure(site, action.clone());
            analyze_opts(
                &prepared,
                config,
                &RunOptions { degrade, threads, ..RunOptions::default() },
            )
            .map(|r| (report_json(&r), to_text(&r)))
        };
        let want = run(1);
        for threads in &THREADS[1..] {
            let got = run(*threads);
            match (&want, &got) {
                (Ok(w), Ok(g)) => {
                    assert_eq!(w, g, "[{label}] diverges at {threads} threads")
                }
                (w, g) => panic!("[{label}] outcome diverges at {threads}: {w:?} vs {g:?}"),
            }
        }
    }

    #[test]
    fn injected_cancel_mid_slice_is_thread_invariant() {
        assert_invariant_with_failpoint(
            &TajConfig::hybrid_unbounded(),
            "hybrid.slice",
            FailAction::Cancel,
            false,
            "failpoint hybrid.slice=Cancel",
        );
    }

    #[test]
    fn injected_step_budget_with_degradation_is_thread_invariant() {
        // Every hybrid rung trips immediately, so the ladder walks to
        // the bottom and delivers a partial report — identically at
        // every thread count.
        assert_invariant_with_failpoint(
            &TajConfig::hybrid_unbounded(),
            "hybrid.slice",
            FailAction::StepBudget,
            true,
            "failpoint hybrid.slice=StepBudget degrade",
        );
    }

    #[test]
    fn injected_deadline_in_cs_tabulation_is_thread_invariant() {
        assert_invariant_with_failpoint(
            &TajConfig::cs_thin(),
            "cs.tabulate",
            FailAction::Deadline,
            false,
            "failpoint cs.tabulate=Deadline",
        );
    }

    #[test]
    fn injected_cancel_in_ifds_tabulation_is_thread_invariant() {
        assert_invariant_with_failpoint(
            &TajConfig::ifds(),
            "ifds.tabulate",
            FailAction::Cancel,
            false,
            "failpoint ifds.tabulate=Cancel",
        );
    }

    #[test]
    fn injected_ifds_budget_degrades_thread_invariantly() {
        // IFDS trips its step budget at the first tabulation check and
        // falls to Hybrid-Unbounded; the rescued run must byte-match at
        // every thread count.
        assert_invariant_with_failpoint(
            &TajConfig::ifds(),
            "ifds.tabulate",
            FailAction::StepBudget,
            true,
            "failpoint ifds.tabulate=StepBudget degrade",
        );
    }

    #[test]
    fn injected_cs_budget_degrades_thread_invariantly() {
        // CS trips its budget at the first tabulation check, falls to
        // Hybrid-Unbounded, and the rescued run must byte-match.
        assert_invariant_with_failpoint(
            &TajConfig::cs_thin(),
            "cs.tabulate",
            FailAction::StepBudget,
            true,
            "failpoint cs.tabulate=StepBudget degrade",
        );
    }
}
