//! Pins phase 2's work counters to absolute values. Every Table 1
//! configuration analyzes securibench joined ×1, and the full `stats`
//! object of its report, with the finding and flow counts, must equal
//! the table below, recorded from the code as it stood when the table
//! was written. `CS-Tiny` adds an out-of-memory verdict, pinned by its
//! path-edge count.
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
//! A fourth table pins phase 1's exact output on the same ten inputs,
//! each under Hybrid-Unbounded (FIFO) and Hybrid-Prioritized (the §6.1
//! queue, whose call-graph budget binds on Webgoat): the full
//! `SolverStats` and a 64-bit FNV-1a fingerprint over raw ids of every
//! pointer key in id order with its points-to set, every instance key in
//! id order, the call graph's nodes, edges and entry nodes, and the
//! reflective invoke bindings. Reports and counters survive many changes
//! of interning or propagation order; this table does not.
//!
//! The determinism suites prove a report a pure function of its inputs;
//! these tables prove a refactor moved no counter (solver propagations,
//! dropped nodes, slicer work, heap transitions, IFDS facts, summary
//! edges and pops) and no prepared instruction. A change that moves a
//! counter or the prepared IR on purpose updates the table and says so in
//! CHANGES.md.

mod common;

use common::{analyze_opts, no_failpoints};
use taj::core::{
    analyze_with_phase1_opts, prepare, run_phase1_traced, DeploymentDescriptor, PreparedProgram,
    Recorder, RuleSet, RunOptions, Supervisor, TajConfig, TajError,
};
use taj::jir::{Inst, MethodKind};
use taj::pointer::{InstanceKey, PointerKey, PointsTo, SolverStats};
use taj::webgen::{generate, presets, securibench_joined, Scale};

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
    let opts = RunOptions::default();
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

/// Webgoat at `Scale::standard()`. The prioritized row drops nodes at
/// the budget: a reordered pop moves its counters.
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
    let opts = RunOptions::default();
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

    fn words(&mut self, words: &[u32]) {
        for w in words {
            self.feed(&w.to_le_bytes());
        }
    }
}

fn prepared_ir(prepared: &PreparedProgram) -> PreparedIr {
    let program = &prepared.program;
    let mut row = PreparedIr {
        classes: program.num_classes(),
        methods: program.num_methods(),
        bodies: 0,
        blocks: 0,
        insts: 0,
        phis: 0,
        registers: 0,
        types: program.types.len(),
        fields: program.num_fields(),
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

/// The nine Figure-4 apps at `Scale::standard()` in preset order, then
/// securibench joined ×1: `(name, source, descriptor)`.
fn figure4_and_securibench() -> Vec<(String, String, Option<DeploymentDescriptor>)> {
    let mut inputs: Vec<(String, String, Option<DeploymentDescriptor>)> = presets()
        .into_iter()
        .filter(|p| p.in_figure4)
        .map(|p| {
            let app = generate(&p.spec(Scale::standard()));
            (p.name.to_string(), app.source, Some(app.descriptor))
        })
        .collect();
    inputs.push(("securibench x1".to_string(), securibench_joined(1), None));
    inputs
}

#[test]
fn prepared_ir_matches_the_pinned_table() {
    let _guard = no_failpoints();
    let inputs = figure4_and_securibench();
    assert_eq!(inputs.len(), PREPARED.len(), "one row per input");
    for ((name, source, descriptor), (want_name, want)) in inputs.iter().zip(&PREPARED) {
        assert_eq!(name, want_name, "rows follow the input order");
        let prepared = prepare(source, descriptor.as_ref(), RuleSet::default_rules())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(prepared_ir(&prepared), *want, "{name}: prepared IR");
    }
}

/// FNV-1a over phase 1's solution, fed raw ids as little-endian words:
/// pointer keys in id order with their points-to sets, instance keys in
/// id order, the call graph's nodes, edges and entries, then the invoke
/// bindings. Each key starts with a variant tag and each list with its
/// length, so no two solutions feed the same words.
fn phase1_fingerprint(pts: &PointsTo) -> u64 {
    let mut fnv = Fnv1a::new();
    fnv.words(&[pts.stats.pointer_keys as u32]);
    for (id, key, set) in pts.iter_pointer_keys() {
        let key = match *key {
            PointerKey::Local { node, var } => [0, node.0, var.0],
            PointerKey::Ret(node) => [1, node.0, 0],
            PointerKey::Exc(node) => [2, node.0, 0],
            PointerKey::Field { ik, field } => [3, ik.0, field.0],
            PointerKey::ArrayElem(ik) => [4, ik.0, 0],
            PointerKey::Static(field) => [5, field.0, 0],
        };
        fnv.words(&[id.0]);
        fnv.words(&key);
        fnv.words(&[set.len() as u32]);
        set.iter().for_each(|ik| fnv.words(&[ik]));
    }
    fnv.words(&[pts.num_instance_keys() as u32]);
    for (id, key) in pts.iter_instance_keys() {
        let key = match *key {
            InstanceKey::Alloc { site, ctx, class } => {
                [0, site.method.0, site.loc.block.0, site.loc.idx, ctx.0, class.0]
            }
            InstanceKey::AllocArray { site, elem } => {
                [1, site.method.0, site.loc.block.0, site.loc.idx, elem.0, 0]
            }
            InstanceKey::ClassObj(class) => [2, class.0, 0, 0, 0, 0],
            InstanceKey::MethodObj(class, method) => [3, class.0, method.0, 0, 0, 0],
            InstanceKey::MethodArray(class) => [4, class.0, 0, 0, 0, 0],
            InstanceKey::Synthetic { label, class } => [5, label, class.0, 0, 0, 0],
        };
        fnv.words(&[id.0]);
        fnv.words(&key);
    }
    let cg = &pts.callgraph;
    fnv.words(&[cg.nodes.len() as u32]);
    for (method, ctx) in &cg.nodes {
        fnv.words(&[method.0, ctx.0]);
    }
    fnv.words(&[cg.edges.len() as u32]);
    for e in &cg.edges {
        fnv.words(&[e.caller.0, e.loc.block.0, e.loc.idx, e.callee.0]);
    }
    fnv.words(&[cg.entry_nodes.len() as u32]);
    cg.entry_nodes.iter().for_each(|n| fnv.words(&[n.0]));
    fnv.words(&[pts.invoke_bindings.len() as u32]);
    for b in &pts.invoke_bindings {
        fnv.words(&[b.caller.0, b.loc.block.0, b.loc.idx, b.arg_array.0, b.callee.0]);
    }
    fnv.0
}

/// Phase 1 of one configuration on one input.
struct Phase1Row {
    input: &'static str,
    config: &'static str,
    solver: SolverStats,
    fingerprint: u64,
}

/// One row per input of [`figure4_and_securibench`] and mode, in that
/// order; the FIFO row of each input comes first.
const PHASE1: [Phase1Row; 20] = [
    Phase1Row {
        input: "A",
        config: "Hybrid-Unbounded",
        solver: SolverStats {
            nodes: 722,
            call_edges: 672,
            pointer_keys: 4205,
            instance_keys: 437,
            pts_entries: 2393,
            propagations: 1987,
            nodes_dropped: 0,
            contexts: 377,
        },
        fingerprint: 0x0ede6a5cdabbaa34,
    },
    Phase1Row {
        input: "A",
        config: "Hybrid-Prioritized",
        solver: SolverStats {
            nodes: 722,
            call_edges: 672,
            pointer_keys: 4205,
            instance_keys: 437,
            pts_entries: 2393,
            propagations: 1987,
            nodes_dropped: 0,
            contexts: 377,
        },
        fingerprint: 0xa9693cd6ef8d8c91,
    },
    Phase1Row {
        input: "B",
        config: "Hybrid-Unbounded",
        solver: SolverStats {
            nodes: 2433,
            call_edges: 2294,
            pointer_keys: 15555,
            instance_keys: 1339,
            pts_entries: 8432,
            propagations: 7198,
            nodes_dropped: 0,
            contexts: 1190,
        },
        fingerprint: 0x895c3b46a58f7785,
    },
    Phase1Row {
        input: "B",
        config: "Hybrid-Prioritized",
        solver: SolverStats {
            nodes: 2433,
            call_edges: 2294,
            pointer_keys: 15555,
            instance_keys: 1339,
            pts_entries: 8432,
            propagations: 7198,
            nodes_dropped: 0,
            contexts: 1190,
        },
        fingerprint: 0xb8fcf40ed73ef3fa,
    },
    Phase1Row {
        input: "BlueBlog",
        config: "Hybrid-Unbounded",
        solver: SolverStats {
            nodes: 498,
            call_edges: 459,
            pointer_keys: 2705,
            instance_keys: 316,
            pts_entries: 1387,
            propagations: 1016,
            nodes_dropped: 0,
            contexts: 267,
        },
        fingerprint: 0x66b2a399f753e579,
    },
    Phase1Row {
        input: "BlueBlog",
        config: "Hybrid-Prioritized",
        solver: SolverStats {
            nodes: 498,
            call_edges: 459,
            pointer_keys: 2705,
            instance_keys: 316,
            pts_entries: 1387,
            propagations: 1016,
            nodes_dropped: 0,
            contexts: 267,
        },
        fingerprint: 0xa9f4c66fc7939642,
    },
    Phase1Row {
        input: "Friki",
        config: "Hybrid-Unbounded",
        solver: SolverStats {
            nodes: 518,
            call_edges: 478,
            pointer_keys: 2827,
            instance_keys: 331,
            pts_entries: 1517,
            propagations: 1156,
            nodes_dropped: 0,
            contexts: 281,
        },
        fingerprint: 0xcf7a2f3349aee9a0,
    },
    Phase1Row {
        input: "Friki",
        config: "Hybrid-Prioritized",
        solver: SolverStats {
            nodes: 518,
            call_edges: 478,
            pointer_keys: 2827,
            instance_keys: 331,
            pts_entries: 1517,
            propagations: 1156,
            nodes_dropped: 0,
            contexts: 281,
        },
        fingerprint: 0xf0e18e121e5123ea,
    },
    Phase1Row {
        input: "GestCV",
        config: "Hybrid-Unbounded",
        solver: SolverStats {
            nodes: 1431,
            call_edges: 1343,
            pointer_keys: 8961,
            instance_keys: 796,
            pts_entries: 4376,
            propagations: 3483,
            nodes_dropped: 0,
            contexts: 698,
        },
        fingerprint: 0xb25ee209262d3f6e,
    },
    Phase1Row {
        input: "GestCV",
        config: "Hybrid-Prioritized",
        solver: SolverStats {
            nodes: 1431,
            call_edges: 1343,
            pointer_keys: 8961,
            instance_keys: 796,
            pts_entries: 4376,
            propagations: 3483,
            nodes_dropped: 0,
            contexts: 698,
        },
        fingerprint: 0x1719ed67505948e7,
    },
    Phase1Row {
        input: "I",
        config: "Hybrid-Unbounded",
        solver: SolverStats {
            nodes: 461,
            call_edges: 424,
            pointer_keys: 2504,
            instance_keys: 291,
            pts_entries: 1337,
            propagations: 1015,
            nodes_dropped: 0,
            contexts: 244,
        },
        fingerprint: 0x05e7c4039ae5598f,
    },
    Phase1Row {
        input: "I",
        config: "Hybrid-Prioritized",
        solver: SolverStats {
            nodes: 461,
            call_edges: 424,
            pointer_keys: 2504,
            instance_keys: 291,
            pts_entries: 1337,
            propagations: 1015,
            nodes_dropped: 0,
            contexts: 244,
        },
        fingerprint: 0x56af5a3a4a65faff,
    },
    Phase1Row {
        input: "S",
        config: "Hybrid-Unbounded",
        solver: SolverStats {
            nodes: 3377,
            call_edges: 3149,
            pointer_keys: 20462,
            instance_keys: 1971,
            pts_entries: 10698,
            propagations: 8634,
            nodes_dropped: 0,
            contexts: 1713,
        },
        fingerprint: 0x49c85ba9f28474cd,
    },
    Phase1Row {
        input: "S",
        config: "Hybrid-Prioritized",
        solver: SolverStats {
            nodes: 3377,
            call_edges: 3149,
            pointer_keys: 20462,
            instance_keys: 1971,
            pts_entries: 10698,
            propagations: 8634,
            nodes_dropped: 0,
            contexts: 1713,
        },
        fingerprint: 0x0bea8795d512fe74,
    },
    Phase1Row {
        input: "SBM",
        config: "Hybrid-Unbounded",
        solver: SolverStats {
            nodes: 1907,
            call_edges: 1785,
            pointer_keys: 11755,
            instance_keys: 1092,
            pts_entries: 6214,
            propagations: 5118,
            nodes_dropped: 0,
            contexts: 958,
        },
        fingerprint: 0x0b301c94d17bf592,
    },
    Phase1Row {
        input: "SBM",
        config: "Hybrid-Prioritized",
        solver: SolverStats {
            nodes: 1907,
            call_edges: 1785,
            pointer_keys: 11755,
            instance_keys: 1092,
            pts_entries: 6214,
            propagations: 5118,
            nodes_dropped: 0,
            contexts: 958,
        },
        fingerprint: 0x35d0e008a0e60583,
    },
    Phase1Row {
        input: "Webgoat",
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
        fingerprint: 0xd66109e393ec8cd7,
    },
    Phase1Row {
        input: "Webgoat",
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
        fingerprint: 0x4e2cfe1e799fe666,
    },
    Phase1Row {
        input: "securibench x1",
        config: "Hybrid-Unbounded",
        solver: SolverStats {
            nodes: 268,
            call_edges: 229,
            pointer_keys: 1084,
            instance_keys: 227,
            pts_entries: 625,
            propagations: 331,
            nodes_dropped: 0,
            contexts: 180,
        },
        fingerprint: 0x4765144848d72897,
    },
    Phase1Row {
        input: "securibench x1",
        config: "Hybrid-Prioritized",
        solver: SolverStats {
            nodes: 268,
            call_edges: 229,
            pointer_keys: 1084,
            instance_keys: 227,
            pts_entries: 625,
            propagations: 331,
            nodes_dropped: 0,
            contexts: 180,
        },
        fingerprint: 0xe5116d9707143b1e,
    },
];

#[test]
fn phase1_solution_matches_the_pinned_table() {
    let _guard = no_failpoints();
    let configs: Vec<TajConfig> = TajConfig::all()
        .into_iter()
        .filter(|c| c.name == "Hybrid-Unbounded" || c.name == "Hybrid-Prioritized")
        .collect();
    let inputs = figure4_and_securibench();
    assert_eq!(PHASE1.len(), inputs.len() * configs.len(), "one row per input and mode");
    let mut rows = PHASE1.iter();
    for (name, source, descriptor) in &inputs {
        let prepared = prepare(source, descriptor.as_ref(), RuleSet::default_rules())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        for config in &configs {
            let row = rows.next().expect("one row per input and mode");
            assert_eq!((row.input, row.config), (name.as_str(), config.name), "row order");
            let phase1 =
                run_phase1_traced(&prepared, config, &Supervisor::new(), &Recorder::disabled());
            assert_eq!(phase1.pts.stats, row.solver, "{name} / {}: solver stats", config.name);
            let fingerprint = phase1_fingerprint(&phase1.pts);
            assert_eq!(
                fingerprint, row.fingerprint,
                "{name} / {}: phase-1 fingerprint",
                config.name
            );
        }
    }
}
