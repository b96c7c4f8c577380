//! The fixed cost of one analysis, pinned as allocation counts: building
//! the built-in rules, and each driver stage (prepare, phase 1, phase 2,
//! rendering) for an empty program and for one securibench case, the
//! daemon's typical request. Each count is an upper bound set at what the
//! code makes today, so a change that adds fixed cost fails here and has
//! to raise the bound and say why.
//!
//! A counting global allocator counts the calls to `alloc` and `realloc`
//! per thread. Each test runs on its own thread, so tests running in
//! parallel do not count each other's allocations, and each first runs a
//! warm-up analysis on its thread, which builds the process-wide model
//! library and rules. A debug build also validates the prepared IR in
//! `prepare`, which allocates, so `prepare`'s bound adds those
//! allocations in a debug build only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use taj::core::{
    analyze_with_phase1_opts, prepare, run_phase1_traced, to_sarif, to_text, RuleSet, RunOptions,
    TajConfig,
};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded to `System` unchanged, so `Counting`
// meets `GlobalAlloc`'s contract exactly when `System` does; counting
// touches only a const-initialized thread local without a destructor,
// which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller meets `alloc`'s contract, which `System` shares.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator, with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: as in `dealloc`, and the caller meets `realloc`'s
        // contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the allocations it made on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Allocations per driver stage of one Hybrid-Unbounded analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Stages {
    /// `prepare` under the default rules, which it builds, as a daemon or
    /// e2ebench analysis does.
    prepare: usize,
    phase1: usize,
    phase2: usize,
    /// Text, JSON and SARIF.
    render: usize,
}

fn stages(source: &str) -> Stages {
    let config = TajConfig::hybrid_unbounded();
    let opts = RunOptions::default();
    let (prepared, prepare) =
        allocations(|| prepare(source, None, RuleSet::default_rules()).expect("prepares"));
    let (phase1, phase1_allocs) =
        allocations(|| run_phase1_traced(&prepared, &config, &opts.supervisor, &opts.recorder));
    let (report, phase2) = allocations(|| {
        analyze_with_phase1_opts(&prepared, &phase1, &config, &opts).expect("analyzes")
    });
    let (bytes, render) = allocations(|| {
        let json = serde_json::to_string(&report).expect("json");
        to_text(&report).len() + json.len() + to_sarif(&report).expect("sarif").len()
    });
    assert!(bytes > 0);
    Stages { prepare, phase1: phase1_allocs, phase2, render }
}

/// Builds the shared model library and rules, and any per-thread state,
/// on the calling thread.
fn warm_up() {
    stages(&basic1());
}

fn basic1() -> String {
    let cases = taj::webgen::securibench_cases();
    cases.into_iter().find(|c| c.name == "Basic1").expect("Basic1 exists").source
}

/// Fails with every stage's count when one is over its bound.
fn assert_within(what: &str, got: Stages, bound: Stages) {
    let over = got.prepare > bound.prepare
        || got.phase1 > bound.phase1
        || got.phase2 > bound.phase2
        || got.render > bound.render;
    assert!(
        !over,
        "{what}: allocations {got:?} exceed the pinned {bound:?}; a change that adds \
         fixed cost raises the bound here and says why in CHANGES.md"
    );
}

#[test]
fn default_rules_allocate_nothing() {
    warm_up();
    let (rules, n) = allocations(RuleSet::default_rules);
    assert_eq!(n, 0, "the built-in rules are shared, built once per process");
    assert_eq!(rules.rules.len(), 5);
}

/// `prepare`'s bound: `release` plus, in a debug build, what validating
/// the prepared IR allocates.
fn prepare_bound(release: usize, validation: usize) -> usize {
    release + if cfg!(debug_assertions) { validation } else { 0 }
}

#[test]
fn empty_program_stages_stay_within_their_allocations() {
    warm_up();
    let bound = Stages { prepare: prepare_bound(22, 284), phase1: 14, phase2: 69, render: 26 };
    assert_within("empty program", stages(""), bound);
}

#[test]
fn securibench_case_stages_stay_within_their_allocations() {
    warm_up();
    let bound = Stages { prepare: prepare_bound(117, 304), phase1: 128, phase2: 164, render: 34 };
    assert_within("securibench Basic1", stages(&basic1()), bound);
}
