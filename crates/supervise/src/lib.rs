//! Cooperative supervision for long-running analyses.
//!
//! A [`Supervisor`] is a cheap, cloneable handle bundling a cancellation
//! token and an optional wall-clock deadline — pure `std` atomics, no
//! extra threads. Analysis fixpoint loops call [`Supervisor::check`] at
//! their loop heads; the call is a relaxed atomic load plus a bump of a
//! shared check counter, with the (slightly more expensive)
//! `Instant::now()` deadline probe sampled once every
//! [`DEADLINE_SAMPLE`] checks. When a check trips, the loop unwinds
//! *cooperatively*: it stops taking new work, keeps whatever partial
//! results it has already produced, and reports the
//! [`InterruptReason`] upward so the driver can deliver a partial
//! report instead of failing.
//!
//! The `taj_failpoints` feature adds a deterministic fault-injection
//! registry (see [`failpoints`]): named sites — every `check()` call is
//! one — can be programmed to inject a deadline or cancellation, panic,
//! or delay after a fixed number of hits, letting tests exercise every
//! interrupt edge without racing the wall clock. Default builds compile
//! the registry out entirely.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many `check()` calls pass between wall-clock deadline probes.
/// Small enough that "cancel within one check interval" is well under a
/// millisecond of analysis work; large enough that `Instant::now()`
/// stays off the hot path.
pub const DEADLINE_SAMPLE: u64 = 64;

/// Why a supervised loop stopped early.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum InterruptReason {
    /// Explicit cancellation (e.g. a daemon client timed out or hung up).
    Cancelled,
    /// The wall-clock deadline passed.
    Deadline,
}

impl InterruptReason {
    /// Stable string form used in reports and counters.
    pub fn as_str(self) -> &'static str {
        match self {
            InterruptReason::Cancelled => "cancelled",
            InterruptReason::Deadline => "deadline",
        }
    }
}

/// Shared supervision handle. Cloning is cheap (two `Arc` bumps); clones
/// observe the same cancellation token and check counter, so cancelling
/// any clone stops every loop holding one.
#[derive(Clone, Debug)]
pub struct Supervisor {
    cancel: Arc<AtomicBool>,
    steps: Arc<AtomicU64>,
    deadline: Option<Instant>,
}

impl Default for Supervisor {
    fn default() -> Supervisor {
        Supervisor::new()
    }
}

impl Supervisor {
    /// An unbounded supervisor: never trips unless [`cancel`ed](Self::cancel)
    /// (or a failpoint fires). This is the default threaded through every
    /// analysis entry point, so unsupervised callers pay only the atomic
    /// loads.
    pub fn new() -> Supervisor {
        Supervisor {
            cancel: Arc::new(AtomicBool::new(false)),
            steps: Arc::new(AtomicU64::new(0)),
            deadline: None,
        }
    }

    /// Returns a copy with an absolute wall-clock deadline.
    pub fn with_deadline_at(mut self, at: Instant) -> Supervisor {
        self.deadline = Some(at);
        self
    }

    /// Returns a copy whose deadline is `budget` from now.
    pub fn with_deadline(self, budget: Duration) -> Supervisor {
        self.with_deadline_at(Instant::now() + budget)
    }

    /// Flips the shared cancellation token. Every loop holding a clone
    /// observes it at its next `check()`.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }

    /// Whether the shared cancellation token is set.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }

    /// Total `check()` calls across all clones.
    pub fn steps(&self) -> u64 {
        self.steps.load(Ordering::Relaxed)
    }

    /// Whether the wall-clock deadline (if any) has already passed.
    pub fn deadline_expired(&self) -> bool {
        matches!(self.deadline, Some(at) if Instant::now() >= at)
    }

    /// A supervisor for *delivering* partial results after an interrupt:
    /// the same handle without its deadline. An explicit cancel still
    /// stops everything, but the cheap finishing work — e.g. running
    /// phase 2 over a deadline-truncated phase 1 — is not immediately
    /// re-interrupted.
    pub fn finishing(&self) -> Supervisor {
        Supervisor { deadline: None, ..self.clone() }
    }

    /// The cooperative check, called at fixpoint-loop heads. `site` names
    /// the call site for fault injection (and costs nothing in default
    /// builds).
    ///
    /// # Errors
    /// The [`InterruptReason`] that tripped; the caller should stop
    /// taking new work and return its partial result.
    #[inline]
    pub fn check(&self, site: &str) -> Result<(), InterruptReason> {
        #[cfg(feature = "taj_failpoints")]
        if let Some(reason) = failpoints::eval(site) {
            if reason == InterruptReason::Cancelled {
                self.cancel();
            }
            return Err(reason);
        }
        #[cfg(not(feature = "taj_failpoints"))]
        let _ = site;

        if self.cancel.load(Ordering::Relaxed) {
            return Err(InterruptReason::Cancelled);
        }
        let n = self.steps.fetch_add(1, Ordering::Relaxed);
        if self.deadline.is_some() && n.is_multiple_of(DEADLINE_SAMPLE) && self.deadline_expired() {
            return Err(InterruptReason::Deadline);
        }
        Ok(())
    }
}

/// Whether this build was compiled with the `taj_failpoints` feature.
/// CI asserts this is `false` for default builds.
pub const fn failpoints_enabled() -> bool {
    cfg!(feature = "taj_failpoints")
}

/// Failpoint hook for non-loop sites (service I/O boundaries). In
/// default builds this inlines to `None`.
#[inline]
pub fn fail_hook(site: &str) -> Option<InterruptReason> {
    #[cfg(feature = "taj_failpoints")]
    {
        failpoints::eval(site)
    }
    #[cfg(not(feature = "taj_failpoints"))]
    {
        let _ = site;
        None
    }
}

/// Deterministic fault injection, compiled only under `taj_failpoints`.
///
/// Sites are named strings; every [`Supervisor::check`] call is a site,
/// plus the explicit [`fail_hook`] sites at service I/O boundaries. A
/// configured site fires its action on every hit after the first
/// `after` hits — counting hits, not time, is what makes the injected
/// faults deterministic.
#[cfg(feature = "taj_failpoints")]
pub mod failpoints {
    use super::InterruptReason;
    use std::collections::HashMap;
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// What a tripped failpoint does.
    #[derive(Clone, Debug)]
    pub enum FailAction {
        /// Report [`InterruptReason::Cancelled`] (and set the checking
        /// supervisor's cancellation token).
        Cancel,
        /// Report [`InterruptReason::Deadline`] without waiting for one.
        Deadline,
        /// Panic with the given message (exercises `catch_unwind` paths).
        Panic(String),
        /// Sleep this many milliseconds, then continue normally.
        Delay(u64),
    }

    struct Point {
        action: FailAction,
        after: u64,
        hits: u64,
    }

    fn registry() -> &'static Mutex<HashMap<String, Point>> {
        static REGISTRY: OnceLock<Mutex<HashMap<String, Point>>> = OnceLock::new();
        REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
    }

    fn lock(m: &Mutex<HashMap<String, Point>>) -> MutexGuard<'_, HashMap<String, Point>> {
        // A panicking failpoint (that is the point of `Panic`) poisons
        // the registry mutex; the map itself is always consistent.
        m.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Programs `site` to fire `action` on every hit.
    pub fn configure(site: &str, action: FailAction) {
        configure_after(site, action, 0);
    }

    /// Programs `site` to pass through its first `after` hits, then fire
    /// `action` on every later hit.
    pub fn configure_after(site: &str, action: FailAction, after: u64) {
        lock(registry()).insert(site.to_string(), Point { action, after, hits: 0 });
    }

    /// Removes the program for `site`, if any.
    pub fn remove(site: &str) {
        lock(registry()).remove(site);
    }

    /// Removes every programmed failpoint.
    pub fn clear() {
        lock(registry()).clear();
    }

    /// How many times `site` has been evaluated since it was programmed.
    pub fn hits(site: &str) -> u64 {
        lock(registry()).get(site).map_or(0, |p| p.hits)
    }

    /// Evaluates `site`: counts the hit and returns the interrupt to
    /// inject, if its action fires. Called by [`super::Supervisor::check`]
    /// and [`super::fail_hook`].
    pub fn eval(site: &str) -> Option<InterruptReason> {
        let action = {
            let mut map = lock(registry());
            let point = map.get_mut(site)?;
            point.hits += 1;
            if point.hits <= point.after {
                return None;
            }
            point.action.clone()
            // registry lock dropped here: panicking/sleeping while
            // holding it would wedge every other site.
        };
        match action {
            FailAction::Cancel => Some(InterruptReason::Cancelled),
            FailAction::Deadline => Some(InterruptReason::Deadline),
            FailAction::Panic(msg) => panic!("failpoint `{site}`: {msg}"),
            FailAction::Delay(ms) => {
                std::thread::sleep(std::time::Duration::from_millis(ms));
                None
            }
        }
    }

    /// RAII guard serializing failpoint tests: the registry is global, so
    /// concurrent tests would trip each other's programs. `setup()` takes
    /// a process-wide lock and clears the registry; drop clears it again.
    pub struct FailScenario {
        _guard: MutexGuard<'static, ()>,
    }

    impl FailScenario {
        /// Acquires the scenario lock and starts from an empty registry.
        pub fn setup() -> FailScenario {
            static SCENARIO: Mutex<()> = Mutex::new(());
            let guard = SCENARIO.lock().unwrap_or_else(|e| e.into_inner());
            clear();
            FailScenario { _guard: guard }
        }
    }

    impl Drop for FailScenario {
        fn drop(&mut self) {
            clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_supervisor_never_trips() {
        let sup = Supervisor::new();
        for _ in 0..10_000 {
            assert_eq!(sup.check("test.loop"), Ok(()));
        }
    }

    #[test]
    fn cancel_is_observed_by_clones() {
        let sup = Supervisor::new();
        let clone = sup.clone();
        assert_eq!(clone.check("test.loop"), Ok(()));
        sup.cancel();
        assert_eq!(clone.check("test.loop"), Err(InterruptReason::Cancelled));
        assert!(sup.is_cancelled() && clone.is_cancelled());
    }

    #[test]
    fn expired_deadline_trips_within_sample_interval() {
        let sup = Supervisor::new().with_deadline(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(2));
        let mut checks = 0u64;
        let reason = loop {
            match sup.check("test.loop") {
                Ok(()) => checks += 1,
                Err(r) => break r,
            }
        };
        assert_eq!(reason, InterruptReason::Deadline);
        assert!(checks <= DEADLINE_SAMPLE, "tripped after {checks} checks");
    }

    #[test]
    fn finishing_drops_deadline_but_keeps_cancel() {
        let sup = Supervisor::new().with_deadline(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(1));
        let fin = sup.finishing();
        for _ in 0..1_000 {
            assert_eq!(fin.check("test.loop"), Ok(()));
        }
        sup.cancel();
        assert_eq!(fin.check("test.loop"), Err(InterruptReason::Cancelled));
    }

    #[cfg(not(feature = "taj_failpoints"))]
    #[test]
    fn failpoints_disabled_by_default() {
        assert!(!failpoints_enabled());
        assert!(fail_hook("any.site").is_none());
    }

    #[cfg(feature = "taj_failpoints")]
    mod failpoint_tests {
        use super::super::failpoints::{self, FailAction, FailScenario};
        use super::super::{InterruptReason, Supervisor};

        #[test]
        fn trips_after_configured_hits() {
            let _scenario = FailScenario::setup();
            failpoints::configure_after("fp.site", FailAction::Deadline, 3);
            let sup = Supervisor::new();
            assert_eq!(sup.check("fp.site"), Ok(()));
            assert_eq!(sup.check("fp.site"), Ok(()));
            assert_eq!(sup.check("fp.site"), Ok(()));
            assert_eq!(sup.check("fp.site"), Err(InterruptReason::Deadline));
            assert_eq!(failpoints::hits("fp.site"), 4);
            // Other sites are unaffected.
            assert_eq!(sup.check("fp.other"), Ok(()));
        }

        #[test]
        fn cancel_action_sets_the_token() {
            let _scenario = FailScenario::setup();
            failpoints::configure("fp.cancel", FailAction::Cancel);
            let sup = Supervisor::new();
            assert_eq!(sup.check("fp.cancel"), Err(InterruptReason::Cancelled));
            assert!(sup.is_cancelled(), "failpoint cancel propagates to the token");
        }

        #[test]
        fn scenario_drop_clears_registry() {
            {
                let _scenario = FailScenario::setup();
                failpoints::configure("fp.leak", FailAction::Deadline);
            }
            let _scenario = FailScenario::setup();
            assert_eq!(Supervisor::new().check("fp.leak"), Ok(()));
        }
    }
}
