//! Pins phase 2's work counters to absolute values. Every Table 1
//! configuration analyzes securibench joined ×1 on one thread, and the
//! full `stats` object of its report, with the finding and flow counts,
//! must equal the table below, recorded from the code as it stood when
//! the table was written. `CS-Tiny` adds an out-of-memory verdict,
//! pinned by its path-edge count.
//!
//! The determinism suites prove a report a pure function of its inputs;
//! this table proves a refactor moved no counter (slicer work, heap
//! transitions, IFDS facts, summary edges and pops). A change that moves
//! a counter on purpose updates the table and says so in CHANGES.md.

mod common;

use common::{no_failpoints, securibench_joined};
use taj::core::{analyze_source_opts, RuleSet, RunOptions, TajConfig, TajError};

/// What one configuration must produce.
enum Pinned {
    /// A report: its `stats` JSON and its finding and flow counts.
    Report { stats: &'static str, findings: usize, flows: usize },
    /// The CS slicer's out-of-memory verdict.
    OutOfMemory { path_edges: usize },
}

/// One row per configuration: `TajConfig::all()` in order, then `CS-Tiny`.
const TABLE: [(&str, Pinned); 8] = [
    (
        "Hybrid-Unbounded",
        Pinned::Report {
            stats: concat!(
                r#"{"cg_nodes":268,"cg_edges":229,"instance_keys":227,"pointer_keys":1084,"#,
                r#""heap_transitions":68,"slicer_work":478,"cg_budget_exhausted":false,"slice_budget_exhausted":false,"#,
                r#""flows_len_filtered":0,"ifds_facts":0,"ifds_summary_edges":0,"ifds_worklist_pops":0}"#,
            ),
            findings: 31,
            flows: 31,
        },
    ),
    (
        "Hybrid-Prioritized",
        Pinned::Report {
            stats: concat!(
                r#"{"cg_nodes":268,"cg_edges":229,"instance_keys":227,"pointer_keys":1084,"#,
                r#""heap_transitions":68,"slicer_work":478,"cg_budget_exhausted":false,"slice_budget_exhausted":false,"#,
                r#""flows_len_filtered":0,"ifds_facts":0,"ifds_summary_edges":0,"ifds_worklist_pops":0}"#,
            ),
            findings: 31,
            flows: 31,
        },
    ),
    (
        "Hybrid-Optimized",
        Pinned::Report {
            stats: concat!(
                r#"{"cg_nodes":268,"cg_edges":229,"instance_keys":227,"pointer_keys":1084,"#,
                r#""heap_transitions":68,"slicer_work":478,"cg_budget_exhausted":false,"slice_budget_exhausted":false,"#,
                r#""flows_len_filtered":0,"ifds_facts":0,"ifds_summary_edges":0,"ifds_worklist_pops":0}"#,
            ),
            findings: 31,
            flows: 31,
        },
    ),
    (
        "CS",
        Pinned::Report {
            stats: concat!(
                r#"{"cg_nodes":268,"cg_edges":229,"instance_keys":227,"pointer_keys":1084,"#,
                r#""heap_transitions":0,"slicer_work":3982,"cg_budget_exhausted":false,"slice_budget_exhausted":false,"#,
                r#""flows_len_filtered":0,"ifds_facts":0,"ifds_summary_edges":0,"ifds_worklist_pops":0}"#,
            ),
            findings: 31,
            flows: 31,
        },
    ),
    (
        "CI",
        Pinned::Report {
            stats: concat!(
                r#"{"cg_nodes":268,"cg_edges":229,"instance_keys":227,"pointer_keys":1084,"#,
                r#""heap_transitions":68,"slicer_work":474,"cg_budget_exhausted":false,"slice_budget_exhausted":false,"#,
                r#""flows_len_filtered":0,"ifds_facts":0,"ifds_summary_edges":0,"ifds_worklist_pops":0}"#,
            ),
            findings: 31,
            flows: 31,
        },
    ),
    (
        "CS-Escape",
        Pinned::Report {
            stats: concat!(
                r#"{"cg_nodes":268,"cg_edges":229,"instance_keys":227,"pointer_keys":1084,"#,
                r#""heap_transitions":0,"slicer_work":3982,"cg_budget_exhausted":false,"slice_budget_exhausted":false,"#,
                r#""flows_len_filtered":0,"ifds_facts":0,"ifds_summary_edges":0,"ifds_worklist_pops":0}"#,
            ),
            findings: 31,
            flows: 31,
        },
    ),
    (
        "IFDS",
        Pinned::Report {
            stats: concat!(
                r#"{"cg_nodes":268,"cg_edges":229,"instance_keys":227,"pointer_keys":1084,"#,
                r#""heap_transitions":140,"slicer_work":834,"cg_budget_exhausted":false,"slice_budget_exhausted":false,"#,
                r#""flows_len_filtered":0,"ifds_facts":787,"ifds_summary_edges":24,"ifds_worklist_pops":827}"#,
            ),
            findings: 31,
            flows: 31,
        },
    ),
    ("CS-Tiny", Pinned::OutOfMemory { path_edges: 5 }),
];

#[test]
fn phase2_work_counters_match_the_pinned_table() {
    let _guard = no_failpoints();
    let source = securibench_joined(1);
    let opts = RunOptions { threads: 1, ..RunOptions::default() };
    let mut configs = TajConfig::all();
    configs.push(TajConfig::cs_tiny());
    assert_eq!(configs.len(), TABLE.len(), "one row per configuration");
    for (config, (name, pinned)) in configs.iter().zip(&TABLE) {
        assert_eq!(config.name, *name, "rows follow the configuration order");
        let got = analyze_source_opts(&source, None, RuleSet::default_rules(), config, &opts);
        match (got, pinned) {
            (Ok(report), Pinned::Report { stats, findings, flows }) => {
                let json = serde_json::to_string(&report.stats).expect("stats serialize");
                assert_eq!(json, *stats, "{name}: stats");
                assert_eq!(report.findings.len(), *findings, "{name}: findings");
                assert_eq!(report.flows.len(), *flows, "{name}: flows");
            }
            (
                Err(TajError::OutOfMemory { path_edges }),
                Pinned::OutOfMemory { path_edges: want },
            ) => {
                assert_eq!(path_edges, *want, "{name}: path edges at the budget");
            }
            (Ok(report), _) => {
                panic!("{name}: a report where the table pins an OOM: {:?}", report.stats)
            }
            (Err(e), _) => panic!("{name}: {e}"),
        }
    }
}
