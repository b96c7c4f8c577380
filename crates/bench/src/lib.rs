//! # taj-bench — harnesses regenerating the paper's tables and figures
//!
//! Binaries (each prints one table/figure of the paper, with the paper's
//! own numbers alongside for shape comparison):
//!
//! - `table1` — the settings matrix of the five configurations;
//! - `table2` — the 22 synthetic benchmarks and their statistics;
//! - `table3` — issues + running time per benchmark × configuration;
//! - `figure2` — a DOT rendering of an HSDG fragment;
//! - `figure4` — true/false-positive classification on the 9 evaluated
//!   benchmarks.
//!
//! `serve_chaos` drives the serving stack through a shard outage and
//! overload. `report_digests` prints digests of every report of the nine
//! Figure-4 apps and securibench joined ×1/×4/×16 under every
//! configuration, so two builds can be compared byte for byte with
//! `diff`. Per-layer timings (prepare, phase 1, phase 2) come from the
//! end-to-end benchmark in `e2ebench/`.

pub mod svg;

use std::time::Instant;

use taj_core::{analyze_source, score, RuleSet, Score, TajConfig, TajError, TajReport};
use taj_webgen::{generate, BenchmarkPreset, GeneratedBenchmark, Scale};

/// Outcome of one (benchmark, configuration) cell of Table 3.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // reports are transient harness values
pub enum CellOutcome {
    /// Completed: report + wall time.
    Done {
        /// The analysis report.
        report: TajReport,
        /// Wall-clock milliseconds.
        ms: u128,
        /// Score against ground truth.
        score: Score,
    },
    /// Ran out of its memory budget (printed as `-`, like the paper's CS
    /// failures).
    OutOfMemory,
}

impl CellOutcome {
    /// Issue count, if completed.
    pub fn issues(&self) -> Option<usize> {
        match self {
            CellOutcome::Done { report, .. } => Some(report.issue_count()),
            CellOutcome::OutOfMemory => None,
        }
    }

    /// Wall time in ms, if completed.
    pub fn ms(&self) -> Option<u128> {
        match self {
            CellOutcome::Done { ms, .. } => Some(*ms),
            CellOutcome::OutOfMemory => None,
        }
    }

    /// Score, if completed.
    pub fn score(&self) -> Option<Score> {
        match self {
            CellOutcome::Done { score, .. } => Some(*score),
            CellOutcome::OutOfMemory => None,
        }
    }
}

/// Runs one configuration over a generated benchmark.
pub fn run_cell(bench: &GeneratedBenchmark, config: &TajConfig) -> CellOutcome {
    let t0 = Instant::now();
    match analyze_source(&bench.source, Some(&bench.descriptor), RuleSet::default_rules(), config) {
        Ok(report) => {
            let ms = t0.elapsed().as_millis();
            let s = score(&report, &bench.truth);
            CellOutcome::Done { report, ms, score: s }
        }
        Err(TajError::OutOfMemory { .. }) => CellOutcome::OutOfMemory,
        Err(e) => panic!("unexpected failure on `{}`: {e}", bench.name),
    }
}

/// Generates the benchmark for a preset under `scale`.
pub fn build_benchmark(preset: &BenchmarkPreset, scale: Scale) -> GeneratedBenchmark {
    generate(&preset.spec(scale))
}

/// Scale selection from CLI args (`--quick` anywhere selects the reduced
/// scale).
pub fn scale_from_args() -> Scale {
    if std::env::args().any(|a| a == "--quick") {
        Scale::quick()
    } else {
        Scale::standard()
    }
}

/// Optional `--only <name>` benchmark filter from CLI args.
pub fn only_filter() -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == "--only").and_then(|i| args.get(i + 1).cloned())
}

/// Aggregates a set of scores.
pub fn aggregate(scores: impl IntoIterator<Item = Score>) -> Score {
    let mut out = Score::default();
    for s in scores {
        out.true_positives += s.true_positives;
        out.false_positives += s.false_positives;
        out.false_negatives += s.false_negatives;
    }
    out
}
