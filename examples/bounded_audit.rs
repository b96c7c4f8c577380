//! Bounded analysis (§6 of the paper): run every configuration over one
//! generated web application and compare issue counts, accuracy, and
//! cost.
//!
//! Run with: `cargo run --release --example bounded_audit`

use taj::core::{
    analyze_with_phase1_opts, prepare, run_phase1_traced, score, RuleSet, RunOptions, TajConfig,
    TajError,
};
use taj::webgen::{generate, presets, Scale};

fn main() {
    // Generate the synthetic "Webgoat" benchmark: it carries the
    // bound-sensitive patterns (deep nesting, long flows) that make the
    // configurations disagree.
    let preset = presets().into_iter().find(|p| p.name == "Webgoat").expect("preset");
    let bench = generate(&preset.spec(Scale::standard()));
    println!(
        "Generated `{}`: {} classes, {} methods, {} lines, {} seeded patterns\n",
        bench.name,
        bench.stats.classes,
        bench.stats.methods,
        bench.stats.lines,
        bench.truth.vulnerable.len() + bench.truth.benign.len(),
    );

    let prepared = prepare(&bench.source, Some(&bench.descriptor), RuleSet::default_rules())
        .expect("generated code prepares");

    println!(
        "{:<20} {:>7} {:>5} {:>5} {:>5} {:>9} {:>9} {:>10}",
        "configuration", "issues", "TP", "FP", "FN", "cg nodes", "work", "truncated?"
    );
    println!("{}", "-".repeat(80));
    let opts = RunOptions::default();
    for config in TajConfig::all() {
        // Phase 1 builds the call graph under the config's node budget;
        // phase 2 slices over it.
        let phase1 = run_phase1_traced(&prepared, &config, &opts.supervisor, &opts.recorder);
        match analyze_with_phase1_opts(&prepared, &phase1, &config, &opts) {
            Ok(report) => {
                let s = score(&report, &bench.truth);
                println!(
                    "{:<20} {:>7} {:>5} {:>5} {:>5} {:>9} {:>9} {:>10}",
                    config.name,
                    report.issue_count(),
                    s.true_positives,
                    s.false_positives,
                    s.false_negatives,
                    report.stats.cg_nodes,
                    report.stats.slicer_work,
                    if report.stats.cg_budget_exhausted { "yes" } else { "no" },
                );
            }
            Err(TajError::OutOfMemory { path_edges }) => {
                println!(
                    "{:<20} {:>7}   — ran out of memory budget after {} path edges",
                    config.name, "-", path_edges
                );
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    println!();
    println!("Reading the table: the unbounded hybrid run is the soundness");
    println!("reference. The prioritized run bounds the call graph (§6.1) and");
    println!("prunes code far from taint. The fully optimized run adds the heap,");
    println!("flow-length, and nested-depth bounds of §6.2 — it trades the deep");
    println!("and long flows (false negatives) for fewer false positives. CS may");
    println!("exhaust its memory budget; CI completes but reports extra false");
    println!("positives from merged calling contexts.");
}
