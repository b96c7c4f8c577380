//! Pins phase 2's work counters to absolute values. Every Table 1
//! configuration analyzes securibench joined ×1 on one thread, and the
//! full `stats` object of its report, with the finding and flow counts,
//! must equal the table below, recorded from the code as it stood when
//! the table was written. `CS-Tiny` adds an out-of-memory verdict,
//! pinned by its path-edge count.
//!
//! A second table pins Webgoat at `Scale::standard()` under the two
//! configurations whose phase 1 differs only in exploration order:
//! Hybrid-Unbounded and Hybrid-Prioritized. The prioritized call-graph
//! budget binds there, so which nodes get dropped depends on the exact
//! §6.1 pop order. That table pins phase 1's full `SolverStats` too.
//!
//! The determinism suites prove a report a pure function of its inputs;
//! these tables prove a refactor moved no counter (solver propagations,
//! dropped nodes, slicer work, heap transitions, IFDS facts, summary
//! edges and pops). A change that moves a counter on purpose updates the
//! table and says so in CHANGES.md.

mod common;

use common::{no_failpoints, securibench_joined};
use taj::core::{
    analyze_source_opts, analyze_with_phase1_opts, prepare, run_phase1_traced, Recorder, RuleSet,
    RunOptions, Supervisor, TajConfig, TajError,
};
use taj::pointer::SolverStats;
use taj::webgen::{generate, presets, Scale};

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

/// What phase 1 and phase 2 of one configuration produce on Webgoat.
struct WebgoatRow {
    config: &'static str,
    solver: SolverStats,
    stats: &'static str,
    findings: usize,
    flows: usize,
}

/// Webgoat at `Scale::standard()`, one thread. The prioritized row drops
/// nodes at the budget: a reordered pop moves its counters.
const WEBGOAT: [WebgoatRow; 2] = [
    WebgoatRow {
        config: "Hybrid-Unbounded",
        solver: SolverStats {
            nodes: 3678,
            call_edges: 3471,
            pointer_keys: 23744,
            instance_keys: 2012,
            pts_entries: 12260,
            propagations: 10313,
            nodes_dropped: 0,
            contexts: 1795,
        },
        stats: concat!(
            r#"{"cg_nodes":3678,"cg_edges":3471,"instance_keys":2012,"pointer_keys":23744,"#,
            r#""heap_transitions":48,"slicer_work":779,"cg_budget_exhausted":false,"slice_budget_exhausted":false,"#,
            r#""flows_len_filtered":0,"ifds_facts":0,"ifds_summary_edges":0,"ifds_worklist_pops":0}"#,
        ),
        findings: 24,
        flows: 24,
    },
    WebgoatRow {
        config: "Hybrid-Prioritized",
        solver: SolverStats {
            nodes: 3500,
            call_edges: 3293,
            pointer_keys: 22796,
            instance_keys: 1987,
            pts_entries: 11715,
            propagations: 9844,
            nodes_dropped: 225,
            contexts: 1770,
        },
        stats: concat!(
            r#"{"cg_nodes":3500,"cg_edges":3293,"instance_keys":1987,"pointer_keys":22796,"#,
            r#""heap_transitions":44,"slicer_work":771,"cg_budget_exhausted":true,"slice_budget_exhausted":false,"#,
            r#""flows_len_filtered":0,"ifds_facts":0,"ifds_summary_edges":0,"ifds_worklist_pops":0}"#,
        ),
        findings: 23,
        flows: 23,
    },
];

#[test]
fn webgoat_exploration_counters_match_the_pinned_table() {
    let _guard = no_failpoints();
    let preset = presets().into_iter().find(|p| p.name == "Webgoat").expect("Webgoat preset");
    let app = generate(&preset.spec(Scale::standard()));
    let prepared = prepare(&app.source, Some(&app.descriptor), RuleSet::default_rules())
        .expect("Webgoat prepares");
    let opts = RunOptions { threads: 1, ..RunOptions::default() };
    for row in &WEBGOAT {
        let config = TajConfig::all()
            .into_iter()
            .find(|c| c.name == row.config)
            .expect("a Table 1 configuration");
        let phase1 =
            run_phase1_traced(&prepared, &config, &Supervisor::new(), &Recorder::disabled());
        assert_eq!(phase1.pts.stats, row.solver, "{}: solver stats", row.config);
        let report = analyze_with_phase1_opts(&prepared, &phase1, &config, &opts)
            .unwrap_or_else(|e| panic!("{}: {e}", row.config));
        let json = serde_json::to_string(&report.stats).expect("stats serialize");
        assert_eq!(json, row.stats, "{}: stats", row.config);
        assert_eq!(report.findings.len(), row.findings, "{}: findings", row.config);
        assert_eq!(report.flows.len(), row.flows, "{}: flows", row.config);
    }
}
