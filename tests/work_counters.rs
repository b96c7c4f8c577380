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
//! A third table pins what `prepare` hands the analyses, for the nine
//! Figure-4 apps at `Scale::standard()` and securibench joined ×1: the
//! sizes of the prepared IR (classes, methods, bodies, blocks,
//! instructions, φs, registers, types, fields, entrypoints, synthetic
//! exception sites) and a 64-bit FNV-1a fingerprint over the printed IR of
//! every method, library included, then the entrypoints and the
//! synthetic sites. A frontend or modeling refactor that changes one IR
//! byte fails here.
//!
//! The determinism suites prove a report a pure function of its inputs;
//! these tables prove a refactor moved no counter (solver propagations,
//! dropped nodes, slicer work, heap transitions, IFDS facts, summary
//! edges and pops) and no prepared instruction. A change that moves a
//! counter or the prepared IR on purpose updates the table and says so in
//! CHANGES.md.

mod common;

use common::{analyze_opts, no_failpoints, securibench_joined};
use taj::core::{
    analyze_with_phase1_opts, prepare, run_phase1_traced, DeploymentDescriptor, PreparedProgram,
    Recorder, RuleSet, RunOptions, Supervisor, TajConfig, TajError,
};
use taj::jir::{Inst, MethodKind};
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
    let prepared = prepare(&securibench_joined(1), None, RuleSet::default_rules())
        .expect("securibench prepares");
    let opts = RunOptions { threads: 1, ..RunOptions::default() };
    let mut configs = TajConfig::all();
    configs.push(TajConfig::cs_tiny());
    assert_eq!(configs.len(), TABLE.len(), "one row per configuration");
    for (config, (name, pinned)) in configs.iter().zip(&TABLE) {
        assert_eq!(config.name, *name, "rows follow the configuration order");
        let got = analyze_opts(&prepared, config, &opts);
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

/// The shape of one prepared program, with a fingerprint of its IR.
#[derive(Debug, PartialEq, Eq)]
struct PreparedIr {
    classes: usize,
    methods: usize,
    bodies: usize,
    blocks: usize,
    /// Every instruction of every block, φs included; terminators not.
    insts: usize,
    phis: usize,
    /// `num_vars` summed over the bodies.
    registers: usize,
    types: usize,
    fields: usize,
    entrypoints: usize,
    synthetic_sites: usize,
    fingerprint: u64,
}

/// 64-bit FNV-1a over every byte it is fed.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn prepared_ir(prepared: &PreparedProgram) -> PreparedIr {
    let program = &prepared.program;
    let mut row = PreparedIr {
        classes: program.classes.len(),
        methods: program.methods.len(),
        bodies: 0,
        blocks: 0,
        insts: 0,
        phis: 0,
        registers: 0,
        types: program.types.len(),
        fields: program.fields.len(),
        entrypoints: program.entrypoints.len(),
        synthetic_sites: prepared.synthetic_sites.len(),
        fingerprint: 0,
    };
    let mut fnv = Fnv1a::new();
    for (mid, method) in program.iter_methods() {
        fnv.feed(taj::jir::pretty::method_to_string(program, mid).as_bytes());
        let MethodKind::Body(body) = &method.kind else { continue };
        row.bodies += 1;
        row.blocks += body.blocks.len();
        row.registers += body.num_vars as usize;
        for block in &body.blocks {
            row.insts += block.insts.len();
            row.phis += block.insts.iter().filter(|i| matches!(i, Inst::Phi { .. })).count();
        }
    }
    for entry in &program.entrypoints {
        fnv.feed(&entry.0.to_le_bytes());
    }
    for (mid, loc) in &prepared.synthetic_sites {
        fnv.feed(&mid.0.to_le_bytes());
        fnv.feed(&loc.block.0.to_le_bytes());
        fnv.feed(&loc.idx.to_le_bytes());
    }
    row.fingerprint = fnv.0;
    row
}

/// One row per input: the Figure-4 apps in preset order, then
/// securibench joined ×1.
const PREPARED: [(&str, PreparedIr); 10] = [
    (
        "A",
        PreparedIr {
            classes: 144,
            methods: 496,
            bodies: 416,
            blocks: 796,
            insts: 2947,
            phis: 4,
            registers: 3007,
            types: 136,
            fields: 100,
            entrypoints: 53,
            synthetic_sites: 1,
            fingerprint: 0xb20380094aa0b8e8,
        },
    ),
    (
        "B",
        PreparedIr {
            classes: 323,
            methods: 1484,
            bodies: 1404,
            blocks: 3050,
            insts: 11209,
            phis: 4,
            registers: 11706,
            types: 315,
            fields: 370,
            entrypoints: 142,
            synthetic_sites: 1,
            fingerprint: 0x78d65106c087b72e,
        },
    ),
    (
        "BlueBlog",
        PreparedIr {
            classes: 125,
            methods: 372,
            bodies: 292,
            blocks: 516,
            insts: 1878,
            phis: 4,
            registers: 1920,
            types: 117,
            fields: 70,
            entrypoints: 42,
            synthetic_sites: 1,
            fingerprint: 0xe122715182354a99,
        },
    ),
    (
        "Friki",
        PreparedIr {
            classes: 123,
            methods: 377,
            bodies: 297,
            blocks: 514,
            insts: 1942,
            phis: 4,
            registers: 1966,
            types: 115,
            fields: 67,
            entrypoints: 43,
            synthetic_sites: 1,
            fingerprint: 0x639a067b462154bb,
        },
    ),
    (
        "GestCV",
        PreparedIr {
            classes: 221,
            methods: 923,
            bodies: 843,
            blocks: 1787,
            insts: 6510,
            phis: 4,
            registers: 6857,
            types: 213,
            fields: 217,
            entrypoints: 91,
            synthetic_sites: 1,
            fingerprint: 0x4c02407e205ce400,
        },
    ),
    (
        "I",
        PreparedIr {
            classes: 120,
            methods: 356,
            bodies: 276,
            blocks: 495,
            insts: 1764,
            phis: 4,
            registers: 1806,
            types: 112,
            fields: 64,
            entrypoints: 40,
            synthetic_sites: 1,
            fingerprint: 0xb1ac39a304a61b2f,
        },
    ),
    (
        "S",
        PreparedIr {
            classes: 466,
            methods: 1933,
            bodies: 1853,
            blocks: 3865,
            insts: 14577,
            phis: 8,
            registers: 15065,
            types: 452,
            fields: 465,
            entrypoints: 236,
            synthetic_sites: 4,
            fingerprint: 0x32741c7388faaf50,
        },
    ),
    (
        "SBM",
        PreparedIr {
            classes: 281,
            methods: 1158,
            bodies: 1078,
            blocks: 2221,
            insts: 8419,
            phis: 4,
            registers: 8725,
            types: 272,
            fields: 280,
            entrypoints: 126,
            synthetic_sites: 2,
            fingerprint: 0x511665ad4d3d81a6,
        },
    ),
    (
        "Webgoat",
        PreparedIr {
            classes: 462,
            methods: 2195,
            bodies: 2115,
            blocks: 4613,
            insts: 17191,
            phis: 4,
            registers: 18009,
            types: 454,
            fields: 567,
            entrypoints: 210,
            synthetic_sites: 1,
            fingerprint: 0xd0ed882bed5a9b42,
        },
    ),
    (
        "securibench x1",
        PreparedIr {
            classes: 104,
            methods: 217,
            bodies: 138,
            blocks: 160,
            insts: 719,
            phis: 5,
            registers: 662,
            types: 97,
            fields: 28,
            entrypoints: 40,
            synthetic_sites: 0,
            fingerprint: 0x7cedf060c3f64728,
        },
    ),
];

#[test]
fn prepared_ir_matches_the_pinned_table() {
    let _guard = no_failpoints();
    let mut inputs: Vec<(String, String, Option<DeploymentDescriptor>)> = presets()
        .into_iter()
        .filter(|p| p.in_figure4)
        .map(|p| {
            let app = generate(&p.spec(Scale::standard()));
            (p.name.to_string(), app.source, Some(app.descriptor))
        })
        .collect();
    inputs.push(("securibench x1".to_string(), securibench_joined(1), None));
    assert_eq!(inputs.len(), PREPARED.len(), "one row per input");
    for ((name, source, descriptor), (want_name, want)) in inputs.iter().zip(&PREPARED) {
        assert_eq!(name, want_name, "rows follow the input order");
        let prepared = prepare(source, descriptor.as_ref(), RuleSet::default_rules())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(prepared_ir(&prepared), *want, "{name}: prepared IR");
    }
}
