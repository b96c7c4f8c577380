//! The two-phase TAJ driver (§3): frontend + modeling passes, pointer
//! analysis & call-graph construction, then per-rule slicing, bounds, and
//! LCP report minimization.

use std::collections::HashSet;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

use serde::Serialize;

use taj_obs::{AttrValue, Recorder, TraceEvent};

use jir::Program;
use taj_pointer::{EscapeAnalysis, HeapGraph, PointsTo, PolicyConfig, SolverConfig};
use taj_sdg::{
    CiSlicer, CsSlicer, Flow, HybridSlicer, IfdsSlicer, MhpRelation, ProgramView, SliceBounds,
    SliceResult, SliceSpec, StmtNode,
};
use taj_supervise::{InterruptReason, Supervisor};

use crate::config::{Algorithm, TajConfig};
use crate::frameworks::DeploymentDescriptor;
use crate::lcp;
use crate::parallel;
use crate::rules::{IssueType, RuleSet};

/// A reported flow with human-readable anchors (serializable).
#[derive(Clone, Debug, Serialize)]
pub struct AnalyzedFlow {
    /// Issue type.
    pub issue: IssueType,
    /// Source method name.
    pub source_method: String,
    /// Sink method name.
    pub sink_method: String,
    /// Class containing the statement that calls the sink.
    pub sink_owner_class: String,
    /// Class containing the source call statement.
    pub source_owner_class: String,
    /// Witness-path length (§6.2.2's flow length).
    pub flow_len: usize,
    /// Heap transitions on the witness path.
    pub heap_transitions: usize,
}

/// A deduplicated finding (§5): one representative per `(LCP, issue)`.
#[derive(Clone, Debug, Serialize)]
pub struct TajFinding {
    /// The representative flow.
    #[serde(flatten)]
    pub flow: AnalyzedFlow,
    /// Class containing the library call point.
    pub lcp_owner_class: String,
    /// Raw flows collapsed into this finding.
    pub group_size: usize,
}

/// Run statistics: deterministic work counters only. Wall-clock timings
/// live in the recorder's spans, never in the report, so report bytes are
/// a pure function of (program, rules, config).
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct AnalysisStats {
    /// Call-graph nodes.
    pub cg_nodes: usize,
    /// Call edges.
    pub cg_edges: usize,
    /// Abstract objects.
    pub instance_keys: usize,
    /// Abstract pointers.
    pub pointer_keys: usize,
    /// Heap store→load transitions performed while slicing.
    pub heap_transitions: usize,
    /// Slicer work units (facts processed).
    pub slicer_work: usize,
    /// Whether the call-graph node budget was exhausted (§6.1).
    pub cg_budget_exhausted: bool,
    /// Whether the slice heap-transition budget was exhausted (§6.2.1).
    pub slice_budget_exhausted: bool,
    /// Flows dropped by the flow-length filter (§6.2.2).
    pub flows_len_filtered: usize,
    /// IFDS only: distinct access-path facts created during tabulation.
    pub ifds_facts: usize,
    /// IFDS only: summary edges tabulated (endpoint effects memoized).
    pub ifds_summary_edges: usize,
    /// IFDS only: worklist pops across tabulation and summary fixpoints.
    pub ifds_worklist_pops: usize,
}

/// Concurrency facts derived from the thread-escape and MHP analyses:
/// how much of the program is multithreaded, and which reported flows
/// actually cross a thread boundary.
#[derive(Clone, Debug, Default, Serialize)]
pub struct ConcurrencyReport {
    /// Distinct `Thread.start` call sites in the call graph.
    pub spawn_sites: usize,
    /// Abstract objects that may be shared between threads.
    pub escaping_objects: usize,
    /// All abstract objects (denominator for `escaping_objects`).
    pub total_objects: usize,
    /// Call-graph nodes that may execute on a spawned thread.
    pub parallel_nodes: usize,
    /// Store→load edges the hybrid concurrency filter dropped (0 unless
    /// the configuration enables `escape_analysis` with a hybrid slicer).
    pub cross_thread_edges_dropped: usize,
    /// Raw flows whose witness path crosses a thread boundary — taint
    /// that travels through an escaping object from one thread to
    /// another. Exactly the flows plain CS slicing misses.
    pub cross_thread_flows: Vec<AnalyzedFlow>,
}

/// One rung-to-rung fall (or partial delivery) on the degradation
/// ladder: what stage tripped, what the driver fell back to, why, and
/// what the result may consequently be missing.
#[derive(Clone, Debug, Serialize)]
pub struct DegradationStep {
    /// Pipeline stage the interrupt hit (`phase1` or `slice`).
    pub stage: String,
    /// Configuration/rung the stage was running under.
    pub from: String,
    /// Rung fallen to, or `partial` when partial results were delivered.
    pub to: String,
    /// What tripped: an [`InterruptReason`] string or a budget message.
    pub reason: String,
    /// Soundness caveat describing what the degraded result may miss.
    pub caveat: String,
}

/// Degradation provenance for a run: empty and `degraded == false` for a
/// clean run.
#[derive(Clone, Debug, Default, Serialize)]
pub struct DegradationReport {
    /// Whether any stage degraded.
    pub degraded: bool,
    /// Every fall taken, in order.
    pub steps: Vec<DegradationStep>,
}

impl DegradationReport {
    fn push(&mut self, step: DegradationStep) {
        self.degraded = true;
        self.steps.push(step);
    }
}

/// Supervision and degradation options for a run. The default — an
/// unbounded supervisor and no degradation — reproduces the historical
/// fail-hard behavior exactly.
#[derive(Clone, Debug, Default)]
pub struct RunOptions {
    /// Supervision handle threaded through every fixpoint loop.
    pub supervisor: Supervisor,
    /// When a budget trips mid-stage, fall down the degradation ladder
    /// (CS → hybrid → bounded hybrid) instead of returning
    /// [`TajError::OutOfMemory`].
    pub degrade: bool,
    /// Phase-2 worker threads: `0` (the default) means one per available
    /// core, `1` runs the work units inline on the calling thread, any
    /// other value spawns exactly that many workers. The thread count is
    /// an *execution* parameter, never an *analysis* parameter: reports
    /// are byte-identical at every value, which is why it lives here and
    /// not in [`TajConfig`] (and therefore cannot leak into any cache
    /// validity domain — see [`Phase1::matches`]).
    pub threads: usize,
    /// Tracing recorder. The default is disabled (every guard is a single
    /// pointer test); an enabled recorder collects the span taxonomy of
    /// docs/observability.md. Tracing is an *observation* parameter like
    /// `threads`: reports are byte-identical whether or not it is on.
    pub recorder: Recorder,
}

/// The result of one TAJ run.
#[derive(Clone, Debug, Serialize)]
pub struct TajReport {
    /// Configuration name (Table 1 column).
    pub config: String,
    /// Deduplicated findings — the paper's reported "issues" (Table 3).
    pub findings: Vec<TajFinding>,
    /// All raw source→sink flows before LCP dedup.
    pub flows: Vec<AnalyzedFlow>,
    /// Statistics.
    pub stats: AnalysisStats,
    /// Concurrency section (escaping objects, MHP partition sizes, and
    /// cross-thread taint flows).
    pub concurrency: ConcurrencyReport,
    /// Degradation provenance: which stages fell back or delivered
    /// partial results, and why.
    pub degradation: DegradationReport,
}

impl TajReport {
    /// Number of reported issues (the Table 3 "Issues" column).
    pub fn issue_count(&self) -> usize {
        self.findings.len()
    }
}

/// Analysis failures.
#[derive(Debug)]
pub enum TajError {
    /// Frontend failure.
    Parse(jir::parser::ParseError),
    /// The CS slicer exceeded its memory budget (the paper's OOM runs).
    OutOfMemory {
        /// Path edges at failure.
        path_edges: usize,
    },
}

impl std::fmt::Display for TajError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TajError::Parse(e) => write!(f, "frontend error: {e}"),
            TajError::OutOfMemory { path_edges } => {
                write!(f, "analysis ran out of memory budget ({path_edges} path edges)")
            }
        }
    }
}

impl std::error::Error for TajError {}

impl From<jir::parser::ParseError> for TajError {
    fn from(e: jir::parser::ParseError) -> Self {
        TajError::Parse(e)
    }
}

/// A fully prepared program (modeling passes applied, SSA built) plus its
/// phase-1 results — reusable across configurations.
#[derive(Debug)]
pub struct PreparedProgram {
    /// The analysis-ready program.
    pub program: Program,
    /// Synthetic exception-source sites `(method, loc)` (§4.1.2).
    pub synthetic_sites: Vec<(jir::MethodId, jir::Loc)>,
    /// The rule set in force.
    pub rules: RuleSet,
}

/// Parses and prepares a program: framework entrypoints, EJB descriptor
/// modeling, exception instrumentation, model expansion, SSA.
///
/// # Errors
/// Returns [`TajError::Parse`] on frontend failures.
pub fn prepare(
    src: &str,
    descriptor: Option<&DeploymentDescriptor>,
    rules: RuleSet,
) -> Result<PreparedProgram, TajError> {
    prepare_traced(src, descriptor, rules, &Recorder::disabled())
}

/// [`prepare`] under a tracing recorder: records `prepare.parse`,
/// `prepare.model` (whitelist/entrypoints/descriptor/exceptions/model
/// expansion), and `prepare.ssa` spans.
///
/// # Errors
/// Returns [`TajError::Parse`] on frontend failures.
pub fn prepare_traced(
    src: &str,
    descriptor: Option<&DeploymentDescriptor>,
    rules: RuleSet,
    recorder: &Recorder,
) -> Result<PreparedProgram, TajError> {
    let mut parse_span = recorder.span("prepare.parse");
    let mut program = jir::frontend::parse_program(src)?;
    if recorder.is_enabled() {
        parse_span.attr("classes", program.classes.len());
        parse_span.attr("methods", program.methods.len());
    }
    parse_span.finish();

    let mut model_span = recorder.span("prepare.model");
    // Whitelist exclusion (§4.2.1): replace bodies of benign library
    // classes with no-op models.
    for name in &rules.whitelist {
        if let Some(cid) = program.class_by_name(name) {
            let methods: Vec<jir::MethodId> = program.class(cid).methods.clone();
            for m in methods {
                if program.method(m).body().is_some() && program.method(m).name != "<init>" {
                    program.method_mut(m).kind = jir::MethodKind::Intrinsic(jir::Intrinsic::Nop);
                }
            }
        }
    }
    crate::frameworks::synthesize_entrypoints(&mut program);
    if let Some(d) = descriptor {
        crate::frameworks::apply_ejb_descriptor(&mut program, d);
    }
    let synthetic_sites = crate::exceptions::model_exceptions(&mut program);
    jir::expand::expand_models(&mut program);
    if recorder.is_enabled() {
        model_span.attr("synthetic_sites", synthetic_sites.len());
    }
    model_span.finish();

    let ssa_span = recorder.span("prepare.ssa");
    jir::ssa::program_to_ssa(&mut program);
    ssa_span.finish();
    // Every pipeline stage must leave the IR well-formed.
    debug_assert!(
        jir::validate::validate(&program).is_empty(),
        "pipeline produced invalid IR: {:?}",
        jir::validate::validate(&program)
    );
    Ok(PreparedProgram { program, synthetic_sites, rules })
}

/// Runs the full analysis for one configuration.
///
/// # Errors
/// [`TajError::Parse`] on frontend failures, [`TajError::OutOfMemory`]
/// when the CS slicer exceeds its budget.
pub fn analyze_source(
    src: &str,
    descriptor: Option<&DeploymentDescriptor>,
    rules: RuleSet,
    config: &TajConfig,
) -> Result<TajReport, TajError> {
    let prepared = prepare(src, descriptor, rules)?;
    analyze_prepared(&prepared, config)
}

/// Cached phase-1 results (pointer analysis + heap graph), reusable across
/// every phase-2 configuration with the same call-graph settings — the
/// paper's two-phase architecture makes re-analysis under different rules
/// or slicing bounds incremental (§9 lists full incrementality as future
/// work; the phase split is the part TAJ already has).
#[derive(Debug)]
pub struct Phase1 {
    /// Points-to solution and call graph.
    pub pts: PointsTo,
    /// Heap graph for carrier detection.
    pub heap: HeapGraph,
    /// Thread-escape solution (which objects may be shared across
    /// threads).
    pub escape: EscapeAnalysis,
    /// May-happen-in-parallel relation over call-graph nodes.
    pub mhp: MhpRelation,
    /// Why phase 1 stopped early, if it was interrupted. An interrupted
    /// phase 1 is a *consistent truncation* (like an exhausted
    /// `max_cg_nodes` budget) with escape/MHP replaced by their
    /// conservative top elements — usable, but not cacheable.
    pub interrupted: Option<InterruptReason>,
    cg_key: (Option<usize>, bool),
}

impl Phase1 {
    /// Whether this phase-1 result is valid for `config` (same call-graph
    /// budget and priority mode).
    pub fn matches(&self, config: &TajConfig) -> bool {
        self.cg_key == (config.max_cg_nodes, config.priority)
    }
}

/// Runs phase 1 (pointer analysis & call-graph construction, §3.1/§6.1)
/// for the given configuration's call-graph settings.
pub fn run_phase1(prepared: &PreparedProgram, config: &TajConfig) -> Phase1 {
    run_phase1_supervised(prepared, config, &Supervisor::new())
}

/// [`run_phase1`] under a supervision handle. An interrupt truncates the
/// call graph consistently (exactly like an exhausted `max_cg_nodes`
/// budget) and replaces escape/MHP with their conservative top elements
/// (everything escapes; single-threaded), so downstream slicing stays
/// sound with respect to the truncated graph. The interrupt reason is
/// recorded in [`Phase1::interrupted`]; interrupted results must not be
/// cached.
pub fn run_phase1_supervised(
    prepared: &PreparedProgram,
    config: &TajConfig,
    supervisor: &Supervisor,
) -> Phase1 {
    run_phase1_traced(prepared, config, supervisor, &Recorder::disabled())
}

/// [`run_phase1_supervised`] under a tracing recorder. The whole phase
/// runs inside a `phase1` span — spans are the single timing source —
/// with `phase1.solve` (inside the pointer solver), `phase1.heapgraph`,
/// `phase1.escape`, and `phase1.mhp` child spans.
pub fn run_phase1_traced(
    prepared: &PreparedProgram,
    config: &TajConfig,
    supervisor: &Supervisor,
    recorder: &Recorder,
) -> Phase1 {
    let program = &prepared.program;
    let mut phase_span = recorder.span("phase1");
    let solver_cfg = SolverConfig {
        policy: PolicyConfig { taint_methods: prepared.rules.taint_methods(program) },
        max_cg_nodes: config.max_cg_nodes,
        priority: config.priority,
        source_methods: prepared.rules.all_sources(program),
        supervisor: supervisor.clone(),
    };
    let pts = taj_pointer::analyze_traced(program, &solver_cfg, recorder);
    let mut interrupted = pts.interrupted;
    let heap_span = recorder.span("phase1.heapgraph");
    let heap = HeapGraph::build(&pts);
    heap_span.finish();
    // Escape + MHP are cheap post-passes over the solution; compute them
    // unconditionally so every phase-2 run can report concurrency facts.
    // Under an already-tripped supervisor they immediately return their
    // conservative fallbacks.
    let mut escape_span = recorder.span("phase1.escape");
    let (escape, esc_int) = EscapeAnalysis::compute_supervised(&pts, &heap, supervisor);
    if recorder.is_enabled() {
        escape_span.attr("spawn_sites", escape.num_spawn_sites());
        escape_span.attr("escaping_objects", escape.num_escaping());
        escape_span.attr("total_objects", escape.total_objects());
    }
    escape_span.finish();
    let mut mhp_span = recorder.span("phase1.mhp");
    let (mhp, mhp_int) = MhpRelation::compute_supervised(&pts, supervisor);
    if recorder.is_enabled() {
        mhp_span.attr("parallel_nodes", mhp.num_parallel_nodes());
    }
    mhp_span.finish();
    interrupted = interrupted.or(esc_int).or(mhp_int);
    if recorder.is_enabled() {
        phase_span.attr("cg_nodes", pts.stats.nodes);
        phase_span.attr("cg_edges", pts.stats.call_edges);
        phase_span.attr("supervisor_steps", supervisor.steps());
        phase_span.attr("supervisor_mem", supervisor.mem());
        if let Some(reason) = interrupted {
            phase_span.attr("interrupted", reason.as_str());
        }
    }
    phase_span.finish();
    Phase1 { pts, heap, escape, mhp, interrupted, cg_key: (config.max_cg_nodes, config.priority) }
}

/// Runs one configuration over an already-prepared program.
///
/// # Errors
/// [`TajError::OutOfMemory`] when the CS slicer exceeds its budget.
pub fn analyze_prepared(
    prepared: &PreparedProgram,
    config: &TajConfig,
) -> Result<TajReport, TajError> {
    let phase1 = run_phase1(prepared, config);
    analyze_with_phase1(prepared, &phase1, config)
}

/// [`analyze_prepared`] under supervision/degradation options.
///
/// # Errors
/// [`TajError::OutOfMemory`] when the CS slicer exceeds its budget and
/// degradation is off (or the ladder is exhausted).
pub fn analyze_prepared_opts(
    prepared: &PreparedProgram,
    config: &TajConfig,
    opts: &RunOptions,
) -> Result<TajReport, TajError> {
    let phase1 = run_phase1_traced(prepared, config, &opts.supervisor, &opts.recorder);
    analyze_with_phase1_opts(prepared, &phase1, config, opts)
}

/// [`analyze_source`] under supervision/degradation options.
///
/// # Errors
/// [`TajError::Parse`] on frontend failures; [`TajError::OutOfMemory`]
/// as for [`analyze_prepared_opts`].
pub fn analyze_source_opts(
    src: &str,
    descriptor: Option<&DeploymentDescriptor>,
    rules: RuleSet,
    config: &TajConfig,
    opts: &RunOptions,
) -> Result<TajReport, TajError> {
    let prepared = prepare_traced(src, descriptor, rules, &opts.recorder)?;
    analyze_prepared_opts(&prepared, config, opts)
}

/// Runs phase 2 (slicing, carriers, bounds, LCP) over cached phase-1
/// results — incremental re-analysis across rule sets or slicing bounds.
///
/// # Panics
/// Panics if `phase1` was computed under different call-graph settings
/// (check with [`Phase1::matches`]).
///
/// # Errors
/// [`TajError::OutOfMemory`] when the CS slicer exceeds its budget.
pub fn analyze_with_phase1(
    prepared: &PreparedProgram,
    phase1: &Phase1,
    config: &TajConfig,
) -> Result<TajReport, TajError> {
    analyze_with_phase1_opts(prepared, phase1, config, &RunOptions::default())
}

/// The next rung down the degradation ladder from `config`, if any. Each
/// rung preserves the call-graph settings (`max_cg_nodes`, `priority`)
/// so the phase-1 result stays reusable — the whole point of degrading
/// mid-run instead of restarting.
fn next_rung(config: &TajConfig) -> Option<(TajConfig, &'static str)> {
    match config.algorithm {
        // CS exploded: the paper's answer is the hybrid slicer, which
        // trades per-call-string facts for summarized flow functions.
        Algorithm::CsThin => Some((
            TajConfig {
                name: "Hybrid-Unbounded",
                algorithm: Algorithm::Hybrid,
                cs_path_edge_budget: None,
                ..*config
            },
            "hybrid slicing collapses calling contexts: reported flows \
             may include context-infeasible paths (precision loss only)",
        )),
        // Unbounded hybrid exploded too: apply the §6.2 bounds.
        Algorithm::Hybrid
            if config.max_heap_transitions.is_none() || config.max_flow_len.is_none() =>
        {
            Some((
                TajConfig {
                    name: "Hybrid-Optimized",
                    max_heap_transitions: Some(crate::config::defaults::MAX_HEAP_TRANSITIONS),
                    max_flow_len: Some(crate::config::defaults::MAX_FLOW_LEN),
                    nested_depth: Some(crate::config::defaults::NESTED_DEPTH),
                    ..*config
                },
                "bounded slicing may drop flows exceeding the heap-transition, \
                 flow-length, or nested-taint bounds (under-approximation)",
            ))
        }
        // IFDS exploded: fall to the hybrid slicer — same phase-1
        // artifacts, summarized flow functions instead of per-access-path
        // facts — which then has its own §6.2 rung below it.
        Algorithm::Ifds => Some((
            TajConfig { name: "Hybrid-Unbounded", algorithm: Algorithm::Hybrid, ..*config },
            "hybrid slicing replaces access-path facts with direct \
             store→load heap edges: reported flows may include \
             field-infeasible paths (precision loss only)",
        )),
        // Bounded hybrid / CI: bottom of the ladder.
        _ => None,
    }
}

/// [`analyze_with_phase1`] under supervision/degradation options: the
/// degradation ladder. Budget-class interrupts (the CS path-edge budget
/// or a supervisor step/memory budget) fall down [`next_rung`] when
/// `opts.degrade` is set, reusing the same phase-1 artifacts; deadline
/// and cancellation interrupts deliver whatever partial results exist.
/// Every fall is recorded in [`TajReport::degradation`].
///
/// # Panics
/// Panics if `phase1` was computed under different call-graph settings
/// (check with [`Phase1::matches`]).
///
/// # Errors
/// [`TajError::OutOfMemory`] when the CS slicer exceeds its budget and
/// `opts.degrade` is off.
pub fn analyze_with_phase1_opts(
    prepared: &PreparedProgram,
    phase1: &Phase1,
    config: &TajConfig,
    opts: &RunOptions,
) -> Result<TajReport, TajError> {
    let recorder = &opts.recorder;
    let mut degradation = DegradationReport::default();
    let mut supervisor = opts.supervisor.clone();
    if let Some(reason) = phase1.interrupted {
        let step = DegradationStep {
            stage: "phase1".to_string(),
            from: "pointer-analysis".to_string(),
            to: "truncated-callgraph".to_string(),
            reason: reason.as_str().to_string(),
            caveat: "call graph truncated at the interrupt: methods not yet \
                     visited are unanalyzed, and escape/MHP use conservative \
                     fallbacks (under-approximation of flows)"
                .to_string(),
        };
        degrade_event(recorder, &step);
        degradation.push(step);
        // Phase 2 over a truncated graph is cheap; run it under a
        // finishing handle so it can actually deliver (an explicit
        // cancel still stops it).
        supervisor = supervisor.finishing();
    }
    let mut current = *config;
    loop {
        match run_phase2(prepared, phase1, &current, &supervisor, opts.threads, recorder) {
            Ok((mut report, interrupted)) => match interrupted {
                Some(reason) if reason.is_budget() && opts.degrade => {
                    match next_rung(&current) {
                        Some((next, caveat)) => {
                            let step = DegradationStep {
                                stage: "slice".to_string(),
                                from: current.name.to_string(),
                                to: next.name.to_string(),
                                reason: reason.as_str().to_string(),
                                caveat: caveat.to_string(),
                            };
                            degrade_event(recorder, &step);
                            degradation.push(step);
                            current = next;
                            supervisor = supervisor.fresh_meters();
                        }
                        None => {
                            // Ladder exhausted: deliver the partial result.
                            let step = partial_step(&current, reason.as_str());
                            degrade_event(recorder, &step);
                            degradation.push(step);
                            report.degradation = degradation;
                            return Ok(report);
                        }
                    }
                }
                Some(reason) => {
                    // Deadline/cancel (or budget without degradation):
                    // deliver partial results with provenance.
                    let step = partial_step(&current, reason.as_str());
                    degrade_event(recorder, &step);
                    degradation.push(step);
                    report.degradation = degradation;
                    return Ok(report);
                }
                None => {
                    report.degradation = degradation;
                    return Ok(report);
                }
            },
            Err(TajError::OutOfMemory { path_edges }) if opts.degrade => {
                match next_rung(&current) {
                    Some((next, caveat)) => {
                        let step = DegradationStep {
                            stage: "slice".to_string(),
                            from: current.name.to_string(),
                            to: next.name.to_string(),
                            reason: format!("path-edge budget exhausted ({path_edges} path edges)"),
                            caveat: caveat.to_string(),
                        };
                        degrade_event(recorder, &step);
                        degradation.push(step);
                        current = next;
                        supervisor = supervisor.fresh_meters();
                    }
                    None => return Err(TajError::OutOfMemory { path_edges }),
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// Mirrors a degradation-ladder step into the trace as an instant
/// `degrade` event (stage/from/to/reason — the caveat prose stays in the
/// report).
fn degrade_event(recorder: &Recorder, step: &DegradationStep) {
    if recorder.is_enabled() {
        recorder.event(
            "degrade",
            vec![
                ("stage", step.stage.as_str().into()),
                ("from", step.from.as_str().into()),
                ("to", step.to.as_str().into()),
                ("reason", step.reason.as_str().into()),
            ],
        );
    }
}

fn partial_step(config: &TajConfig, reason: &str) -> DegradationStep {
    DegradationStep {
        stage: "slice".to_string(),
        from: config.name.to_string(),
        to: "partial".to_string(),
        reason: reason.to_string(),
        caveat: "slicing stopped early: flows completed before the interrupt \
                 are reported, later ones may be missing (under-approximation)"
            .to_string(),
    }
}

/// One parallel work unit: which part of one rule's seed lists to slice.
///
/// Rules whose slicer couples seeds through a shared budget (the CS
/// path-edge budget, the bounded hybrid's heap-transition budget) stay
/// whole; unbounded hybrid/CI rules split into contiguous seed chunks of
/// [`parallel::SEED_CHUNK`]. The plan depends only on the configuration
/// and the phase-1 artifacts — never on the thread count — so the unit
/// list (and therefore the merged output) is thread-count-invariant.
#[derive(Clone, Debug)]
enum UnitKind {
    /// The rule's full seed lists in one run (budget-coupled slicers).
    Whole,
    /// A chunk of the rule's regular seed list.
    Seeds(Range<usize>),
    /// A chunk of the rule's by-reference seed list (hybrid only).
    RefSeeds(Range<usize>),
}

impl UnitKind {
    /// Stable label for the per-unit trace span.
    fn label(&self) -> &'static str {
        match self {
            UnitKind::Whole => "whole",
            UnitKind::Seeds(_) => "seeds",
            UnitKind::RefSeeds(_) => "ref_seeds",
        }
    }
}

/// A planned unit: rule index plus seed partition.
#[derive(Clone, Debug)]
struct Unit {
    rule: usize,
    kind: UnitKind,
}

/// What one executed unit produced.
struct UnitOut {
    result: SliceResult,
    edges_dropped: usize,
    /// RHS summaries tabulated (hybrid slicer only; 0 elsewhere).
    summaries: usize,
    /// The unit's private supervisor meters after the run — deterministic
    /// per unit (fresh meters, work is a function of the unit's input).
    steps: u64,
    mem: u64,
    /// IFDS counters (0 for the other slicers): distinct facts created
    /// and worklist pops.
    facts: usize,
    pops: usize,
}

/// A unit's outcome as seen by the deterministic merge.
enum UnitStatus {
    /// Ran to completion (possibly interrupted mid-run).
    Done(UnitOut),
    /// The CS slicer exceeded its path-edge budget.
    Oom { path_edges: usize },
    /// Never started: an earlier unit (by index) already went abnormal.
    /// Skipped units are always behind the first abnormal unit, so the
    /// prefix merge drops them regardless — skipping only saves work,
    /// it cannot change output.
    Skipped,
}

/// Splits `0..len` into [`parallel::SEED_CHUNK`]-sized chunk units.
fn push_chunks(
    units: &mut Vec<Unit>,
    rule: usize,
    len: usize,
    make: impl Fn(Range<usize>) -> UnitKind,
) {
    let mut start = 0;
    while start < len {
        let end = (start + parallel::SEED_CHUNK).min(len);
        units.push(Unit { rule, kind: make(start..end) });
        start = end;
    }
}

/// Plans the unit list for one configuration over built rule views.
fn plan_units(config: &TajConfig, views: &[ProgramView<'_>]) -> Vec<Unit> {
    // Seed-splitting is valid only when seeds are independent: the CS
    // slicer tabulates all seeds jointly under one path-edge budget, and
    // a heap-transition bound couples seeds through the shared counter.
    let splittable = config.max_heap_transitions.is_none()
        && matches!(config.algorithm, Algorithm::Hybrid | Algorithm::CiThin);
    let mut units = Vec::new();
    for (rule, view) in views.iter().enumerate() {
        if !splittable {
            units.push(Unit { rule, kind: UnitKind::Whole });
            continue;
        }
        push_chunks(&mut units, rule, view.seeds().len(), UnitKind::Seeds);
        if matches!(config.algorithm, Algorithm::Hybrid) {
            push_chunks(&mut units, rule, view.ref_seeds().len(), UnitKind::RefSeeds);
        }
    }
    units
}

/// One phase-2 pass under a fixed configuration. Returns the report plus
/// the supervisor interrupt that stopped it early, if any.
///
/// Work is fanned out over `threads` scoped workers (see
/// [`parallel::par_map`]); each unit runs under its own
/// [`Supervisor::fresh_meters`] handle so cancellation and deadlines
/// still interrupt every worker while budget meters stay per-unit
/// deterministic. Results merge by unit index: the prefix of units up to
/// and including the first abnormal one (interrupt or out-of-budget) is
/// kept, the rest dropped — the sequential break semantics, which makes
/// the report byte-identical at every thread count.
fn run_phase2(
    prepared: &PreparedProgram,
    phase1: &Phase1,
    config: &TajConfig,
    supervisor: &Supervisor,
    threads: usize,
    recorder: &Recorder,
) -> Result<(TajReport, Option<InterruptReason>), TajError> {
    assert!(
        phase1.matches(config),
        "phase-1 results were computed under different call-graph settings"
    );
    let program = &prepared.program;
    // The `phase2` span measures the whole pass (an early-error return
    // records it on drop).
    let mut phase_span = recorder.span("phase2");
    let pts = &phase1.pts;
    let heap = &phase1.heap;
    let threads = parallel::resolve_threads(threads);

    // ---- Phase 2: per-rule slicing (§3.2) + modeling + bounds (§6.2).
    let resolved = prepared.rules.resolve(program);
    let mut stats = AnalysisStats {
        cg_nodes: pts.stats.nodes,
        cg_edges: pts.stats.call_edges,
        instance_keys: pts.stats.instance_keys,
        pointer_keys: pts.stats.pointer_keys,
        cg_budget_exhausted: pts.budget_exhausted,
        ..Default::default()
    };
    let mut findings: Vec<TajFinding> = Vec::new();
    let mut flows_out: Vec<AnalyzedFlow> = Vec::new();
    let mut cross_thread_flows: Vec<AnalyzedFlow> = Vec::new();
    let mut edges_dropped = 0usize;
    let mut interrupted: Option<InterruptReason> = None;

    // The CI slicer's context collapse is rule-independent: build once.
    let ci_cache = match config.algorithm {
        Algorithm::CiThin => Some(taj_sdg::ci::CiCache::build(pts, program)),
        _ => None,
    };

    // Stage A: per-rule slice specs and program views, built in parallel
    // (views borrow their spec, hence the two indexed maps).
    let mut specs_span = recorder.span("phase2.specs");
    let specs: Vec<SliceSpec> = parallel::par_map(threads, resolved.len(), |i| {
        build_spec(prepared, pts, heap, &resolved[i], config)
    });
    if recorder.is_enabled() {
        specs_span.attr("rules", resolved.len());
    }
    specs_span.finish();
    let mut views_span = recorder.span("phase2.views");
    let views: Vec<ProgramView<'_>> =
        parallel::par_map(threads, resolved.len(), |i| ProgramView::build(program, pts, &specs[i]));
    if recorder.is_enabled() {
        let mut view_stats = taj_sdg::ViewStats::default();
        for view in &views {
            view_stats.add(view.stats());
        }
        views_span.attr("nodes", view_stats.nodes);
        views_span.attr("use_edges", view_stats.use_edges);
        views_span.attr("loads", view_stats.loads);
        views_span.attr("sources", view_stats.sources);
    }
    views_span.finish();

    // Stage B: slice the planned units over the work-stealing queue.
    let units = plan_units(config, &views);
    let bounds = SliceBounds {
        max_heap_transitions: config.max_heap_transitions,
        max_path_edges: config.cs_path_edge_budget,
    };
    let run_unit = |unit: &Unit| -> UnitStatus {
        let view = &views[unit.rule];
        let unit_supervisor = supervisor.fresh_meters();
        // Clone shares the unit's private meters: read back after the run
        // for the per-unit trace span (deterministic — fresh meters, and
        // the work is a function of the unit's input alone).
        let meters = unit_supervisor.clone();
        match config.algorithm {
            Algorithm::Hybrid => {
                let mut slicer = if config.escape_analysis {
                    HybridSlicer::with_concurrency(view, bounds, &phase1.escape, &phase1.mhp)
                } else {
                    HybridSlicer::new(view, bounds)
                }
                .with_supervisor(unit_supervisor);
                let result = match &unit.kind {
                    UnitKind::Whole => slicer.run(),
                    UnitKind::Seeds(r) => slicer.run_partition(r.clone(), 0..0),
                    UnitKind::RefSeeds(r) => slicer.run_partition(0..0, r.clone()),
                };
                UnitStatus::Done(UnitOut {
                    edges_dropped: slicer.edges_dropped(),
                    summaries: slicer.summaries_tabulated(),
                    steps: meters.steps(),
                    mem: meters.mem(),
                    facts: 0,
                    pops: 0,
                    result,
                })
            }
            Algorithm::Ifds => {
                let mut slicer = IfdsSlicer::new(view, config.access_path_depth)
                    .with_supervisor(unit_supervisor);
                let result = match &unit.kind {
                    UnitKind::Whole => slicer.run(),
                    // IFDS units are never split: access-path facts from
                    // different seeds share the summary table, and v1
                    // plans whole-rule units (see `plan_units`).
                    UnitKind::Seeds(_) | UnitKind::RefSeeds(_) => {
                        unreachable!("IFDS plans whole-rule units only")
                    }
                };
                UnitStatus::Done(UnitOut {
                    edges_dropped: 0,
                    summaries: slicer.summary_edges(),
                    steps: meters.steps(),
                    mem: meters.mem(),
                    facts: slicer.facts_created(),
                    pops: slicer.worklist_pops(),
                    result,
                })
            }
            Algorithm::CiThin => {
                let mut slicer = CiSlicer::with_cache(
                    view,
                    bounds,
                    ci_cache.as_ref().expect("built for CI above"),
                )
                .with_supervisor(unit_supervisor);
                let result = match &unit.kind {
                    UnitKind::Whole => slicer.run(),
                    UnitKind::Seeds(r) => slicer.run_partition(r.clone()),
                    UnitKind::RefSeeds(_) => unreachable!("CI plans no by-reference units"),
                };
                UnitStatus::Done(UnitOut {
                    edges_dropped: 0,
                    summaries: 0,
                    steps: meters.steps(),
                    mem: meters.mem(),
                    facts: 0,
                    pops: 0,
                    result,
                })
            }
            Algorithm::CsThin => {
                let run = if config.escape_analysis {
                    CsSlicer::with_escape(view, bounds, &phase1.escape)
                } else {
                    CsSlicer::new(view, bounds)
                }
                .with_supervisor(unit_supervisor)
                .run();
                match run {
                    Ok(result) => UnitStatus::Done(UnitOut {
                        edges_dropped: 0,
                        summaries: 0,
                        steps: meters.steps(),
                        mem: meters.mem(),
                        facts: 0,
                        pops: 0,
                        result,
                    }),
                    Err(taj_sdg::SliceError::OutOfBudget { path_edges }) => {
                        UnitStatus::Oom { path_edges }
                    }
                }
            }
        }
    };
    // Units queued behind the first abnormal one are dead weight — the
    // prefix merge will drop them — so workers skip them once any unit
    // goes abnormal (`fetch_min` keeps the floor at the lowest index).
    let abort_floor = AtomicUsize::new(usize::MAX);
    let statuses = parallel::par_map_timed(threads, units.len(), recorder, |i| {
        if i > abort_floor.load(Ordering::Relaxed) {
            return UnitStatus::Skipped;
        }
        let status = run_unit(&units[i]);
        let abnormal = matches!(&status, UnitStatus::Oom { .. })
            || matches!(&status, UnitStatus::Done(o) if o.result.interrupted.is_some());
        if abnormal {
            abort_floor.fetch_min(i, Ordering::Relaxed);
        }
        status
    });

    // Deterministic merge, in unit-index order: keep everything up to and
    // including the first abnormal unit, drop the rest. Per-unit trace
    // spans are emitted HERE, for exactly the merged prefix — emitting
    // them from the workers would leak scheduling (which units ran before
    // the abort floor rose) into the event set.
    let mut rule_flows: Vec<Vec<Flow>> = resolved.iter().map(|_| Vec::new()).collect();
    let mut seen: Vec<HashSet<(StmtNode, StmtNode, usize)>> =
        resolved.iter().map(|_| HashSet::new()).collect();
    let mut summary_edges = 0usize;
    for (index, (unit, (status, timing))) in units.iter().zip(statuses).enumerate() {
        match status {
            // Skipped units are strictly behind an abnormal unit, which
            // this in-order scan reaches first; defensive break.
            UnitStatus::Skipped => break,
            UnitStatus::Oom { path_edges } => {
                if recorder.is_enabled() {
                    recorder.event("phase2.oom", vec![("path_edges", path_edges.into())]);
                }
                return Err(TajError::OutOfMemory { path_edges });
            }
            UnitStatus::Done(out) => {
                stats.heap_transitions += out.result.heap_transitions;
                stats.slicer_work += out.result.work;
                stats.slice_budget_exhausted |= out.result.budget_exhausted;
                edges_dropped += out.edges_dropped;
                summary_edges += out.summaries;
                stats.ifds_facts += out.facts;
                stats.ifds_worklist_pops += out.pops;
                if matches!(config.algorithm, Algorithm::Ifds) {
                    stats.ifds_summary_edges += out.summaries;
                }
                if recorder.is_enabled() {
                    let mut attrs: Vec<(&'static str, AttrValue)> = vec![
                        ("unit", index.into()),
                        ("rule", resolved[unit.rule].issue.to_string().into()),
                        ("kind", unit.kind.label().into()),
                        ("flows", out.result.flows.len().into()),
                        ("work", out.result.work.into()),
                        ("heap_transitions", out.result.heap_transitions.into()),
                        ("summaries", out.summaries.into()),
                        ("steps", out.steps.into()),
                        ("mem", out.mem.into()),
                    ];
                    if matches!(config.algorithm, Algorithm::Ifds) {
                        attrs.push(("facts", out.facts.into()));
                        attrs.push(("pops", out.pops.into()));
                    }
                    if let Some(reason) = out.result.interrupted {
                        attrs.push(("interrupted", reason.as_str().into()));
                    }
                    recorder.record(TraceEvent {
                        name: "phase2.unit",
                        start_us: timing.start_us,
                        dur_us: Some(timing.dur_us),
                        attrs,
                    });
                }
                for f in out.result.flows {
                    // Replays the sequential engine's `seen_flows` dedup
                    // across partitions of the same rule: its key is
                    // exactly `(seed stmt, sink, position)`.
                    if seen[unit.rule].insert((f.source, f.sink, f.sink_pos)) {
                        rule_flows[unit.rule].push(f);
                    }
                }
                if out.result.interrupted.is_some() {
                    interrupted = out.result.interrupted;
                    break;
                }
            }
        }
    }

    // Per-rule post-processing in rule order: flow-length filter
    // (§6.2.2), flow description, and LCP dedup — all over the merged,
    // order-stable flow lists.
    let mut post_span = recorder.span("phase2.post");
    for (i, rule) in resolved.iter().enumerate() {
        let mut flows: Vec<Flow> = std::mem::take(&mut rule_flows[i]);
        if flows.is_empty() {
            continue;
        }
        if let Some(max) = config.max_flow_len {
            let before = flows.len();
            flows.retain(|f| f.len() <= max);
            stats.flows_len_filtered += before - flows.len();
        }
        let tagged: Vec<(IssueType, Flow)> =
            flows.iter().map(|f| (rule.issue, f.clone())).collect();
        for f in &flows {
            flows_out.push(describe_flow(program, pts, rule.issue, f));
            if flow_crosses_threads(&phase1.mhp, f) {
                cross_thread_flows.push(describe_flow(program, pts, rule.issue, f));
            }
        }
        for finding in lcp::deduplicate(&views[i], &tagged) {
            findings.push(TajFinding {
                flow: describe_flow(program, pts, finding.issue, &finding.flow),
                lcp_owner_class: stmt_class(program, pts, finding.lcp),
                group_size: finding.group_size,
            });
        }
    }
    if recorder.is_enabled() {
        post_span.attr("findings", findings.len());
        post_span.attr("flows", flows_out.len());
        post_span.attr("flows_len_filtered", stats.flows_len_filtered);
    }
    post_span.finish();
    if recorder.is_enabled() {
        phase_span.attr("units", units.len());
        phase_span.attr("slicer_work", stats.slicer_work);
        phase_span.attr("heap_transitions", stats.heap_transitions);
        phase_span.attr("summary_edges", summary_edges);
        if let Some(reason) = interrupted {
            phase_span.attr("interrupted", reason.as_str());
        }
    }
    phase_span.finish();

    let concurrency = ConcurrencyReport {
        spawn_sites: phase1.escape.num_spawn_sites(),
        escaping_objects: phase1.escape.num_escaping(),
        total_objects: phase1.escape.total_objects(),
        parallel_nodes: phase1.mhp.num_parallel_nodes(),
        cross_thread_edges_dropped: edges_dropped,
        cross_thread_flows,
    };

    Ok((
        TajReport {
            config: config.name.to_string(),
            findings,
            flows: flows_out,
            stats,
            concurrency,
            degradation: DegradationReport::default(),
        },
        interrupted,
    ))
}

fn build_spec(
    prepared: &PreparedProgram,
    pts: &PointsTo,
    heap: &HeapGraph,
    rule: &crate::rules::ResolvedRule,
    config: &TajConfig,
) -> SliceSpec {
    let program = &prepared.program;
    let mut spec = SliceSpec::default();
    let get_message =
        program.class_by_name("Throwable").and_then(|c| program.method_by_name(c, "getMessage"));
    for &s in &rule.sources {
        // For the InfoLeak rule, `getMessage` is a source only at the
        // synthesized catch-site calls (§4.1.2), not everywhere.
        if rule.uses_exception_sources() && Some(s) == get_message {
            continue;
        }
        spec.sources.insert(s);
    }
    spec.sanitizers.extend(rule.sanitizers.iter().copied());
    for (m, pos) in &rule.sinks {
        spec.sinks.insert(*m, pos.clone());
    }
    for (m, pos) in &rule.ref_sources {
        spec.ref_sources.insert(*m, pos.clone());
    }
    if rule.uses_exception_sources() {
        for &(method, loc) in &prepared.synthetic_sites {
            for node in pts.callgraph.nodes_of_method(method) {
                spec.synthetic_source_sites.push(StmtNode { node, loc });
            }
        }
    }
    spec.carrier_sinks =
        crate::carriers::build_carrier_index(program, pts, heap, rule, config.nested_depth);
    spec
}

fn describe_flow(program: &Program, pts: &PointsTo, issue: IssueType, flow: &Flow) -> AnalyzedFlow {
    AnalyzedFlow {
        issue,
        source_method: program.method(flow.source_method).name.clone(),
        sink_method: program.method(flow.sink_method).name.clone(),
        sink_owner_class: stmt_class(program, pts, flow.sink),
        source_owner_class: stmt_class(program, pts, flow.source),
        flow_len: flow.len(),
        heap_transitions: flow.heap_transitions,
    }
}

fn stmt_class(program: &Program, pts: &PointsTo, stmt: StmtNode) -> String {
    let m = pts.callgraph.method_of(stmt.node);
    program.class(program.method(m).owner).name.clone()
}

/// Does the flow's witness path hop between statements that can never
/// execute on the same thread? That is the signature of taint traveling
/// through an escaping object from one thread to another.
fn flow_crosses_threads(mhp: &MhpRelation, flow: &Flow) -> bool {
    flow.path.windows(2).any(|w| !mhp.same_thread_possible(w[0].stmt.node, w[1].stmt.node))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TajConfig;
    use crate::rules::RuleSet;

    const XSS_SERVLET: &str = r#"
        class Page extends HttpServlet {
            method void doGet(HttpServletRequest req, HttpServletResponse resp) {
                String name = req.getParameter("name");
                PrintWriter w = resp.getWriter();
                w.println(name);
            }
        }
    "#;

    #[test]
    fn end_to_end_xss_detected() {
        let report = analyze_source(
            XSS_SERVLET,
            None,
            RuleSet::default_rules(),
            &TajConfig::hybrid_unbounded(),
        )
        .unwrap();
        assert_eq!(report.issue_count(), 1, "{report:#?}");
        assert_eq!(report.findings[0].flow.issue, IssueType::Xss);
        assert_eq!(report.findings[0].flow.sink_method, "println");
        assert_eq!(report.findings[0].flow.sink_owner_class, "Page");
    }

    #[test]
    fn all_configs_run_the_servlet() {
        let prepared = prepare(XSS_SERVLET, None, RuleSet::default_rules()).unwrap();
        for config in TajConfig::all() {
            let report = analyze_prepared(&prepared, &config).unwrap();
            assert_eq!(report.issue_count(), 1, "{}", config.name);
        }
    }

    /// Pins the field list of [`Phase1`] and the validity domain of
    /// [`Phase1::matches`]. `Phase1` is shared read-only across phase-2
    /// worker threads and keyed in the daemon's artifact cache purely by
    /// `(max_cg_nodes, priority)` — so it must never grow state that
    /// depends on the thread count (or any other execution parameter).
    /// Adding a field to `Phase1` breaks this destructuring on purpose:
    /// whoever adds one must decide here whether it belongs in the cache
    /// validity domain.
    #[test]
    fn phase1_matches_pins_the_validity_domain() {
        let prepared = prepare(XSS_SERVLET, None, RuleSet::default_rules()).unwrap();
        let config = TajConfig::hybrid_unbounded();
        let phase1 = run_phase1(&prepared, &config);

        // Exhaustive destructuring: a new `Phase1` field fails to compile
        // until it is audited for thread-count independence.
        let Phase1 { pts: _, heap: _, escape: _, mhp: _, interrupted, cg_key } = &phase1;
        assert!(interrupted.is_none());
        assert_eq!(*cg_key, (config.max_cg_nodes, config.priority));

        // `matches` accepts every config with the same call-graph
        // settings and rejects any config that differs in either
        // component of the key.
        for other in TajConfig::all() {
            assert_eq!(
                phase1.matches(&other),
                other.max_cg_nodes == config.max_cg_nodes && other.priority == config.priority,
                "matches() must compare exactly (max_cg_nodes, priority) for {}",
                other.name
            );
        }
        let mut prioritized = config;
        prioritized.priority = !config.priority;
        assert!(!phase1.matches(&prioritized));
        let mut budgeted = config;
        budgeted.max_cg_nodes = Some(usize::MAX);
        assert!(!phase1.matches(&budgeted));
    }

    #[test]
    fn exception_leak_detected_via_carrier() {
        let src = r#"
            class Page extends HttpServlet {
                method void doGet(HttpServletRequest req, HttpServletResponse resp) {
                    PrintWriter w = resp.getWriter();
                    try { this.risky(); } catch (Exception e) { w.println(e); }
                }
                method void risky() { throw new RuntimeException("internal"); }
            }
        "#;
        let report =
            analyze_source(src, None, RuleSet::default_rules(), &TajConfig::hybrid_unbounded())
                .unwrap();
        let leak = report
            .findings
            .iter()
            .find(|f| f.flow.issue == IssueType::InfoLeak)
            .unwrap_or_else(|| panic!("expected InfoLeak finding: {report:#?}"));
        assert_eq!(leak.flow.sink_method, "println");
    }

    #[test]
    fn plain_get_message_is_not_a_source() {
        // getMessage called outside a catch handler must not seed taint.
        let src = r#"
            class Page extends HttpServlet {
                method void doGet(HttpServletRequest req, HttpServletResponse resp) {
                    Exception e = new Exception("static text");
                    String m = e.getMessage();
                }
            }
        "#;
        let report =
            analyze_source(src, None, RuleSet::default_rules(), &TajConfig::hybrid_unbounded())
                .unwrap();
        assert_eq!(report.issue_count(), 0, "{report:#?}");
    }

    #[test]
    fn sqli_and_xss_are_separate_rules() {
        let src = r#"
            class Page extends HttpServlet {
                method void doGet(HttpServletRequest req, HttpServletResponse resp) {
                    String id = req.getParameter("id");
                    Connection c = DriverManager.getConnection("db");
                    Statement st = c.createStatement();
                    st.executeQuery("SELECT " + id);
                    resp.getWriter().println(id);
                }
            }
        "#;
        let report =
            analyze_source(src, None, RuleSet::default_rules(), &TajConfig::hybrid_unbounded())
                .unwrap();
        let issues: Vec<IssueType> = report.findings.iter().map(|f| f.flow.issue).collect();
        assert!(issues.contains(&IssueType::Xss), "{issues:?}");
        assert!(issues.contains(&IssueType::Sqli), "{issues:?}");
    }

    #[test]
    fn sanitizer_is_rule_specific() {
        // HTML-encoding does not fix SQL injection.
        let src = r#"
            class Page extends HttpServlet {
                method void doGet(HttpServletRequest req, HttpServletResponse resp) {
                    String id = req.getParameter("id");
                    String enc = Encoder.encodeForHTML(id);
                    Connection c = DriverManager.getConnection("db");
                    Statement st = c.createStatement();
                    st.executeQuery(enc);
                    resp.getWriter().println(enc);
                }
            }
        "#;
        let report =
            analyze_source(src, None, RuleSet::default_rules(), &TajConfig::hybrid_unbounded())
                .unwrap();
        let issues: Vec<IssueType> = report.findings.iter().map(|f| f.flow.issue).collect();
        assert!(issues.contains(&IssueType::Sqli), "HTML encoding must not stop SQLi: {issues:?}");
        assert!(!issues.contains(&IssueType::Xss), "XSS is sanitized: {issues:?}");
    }

    #[test]
    fn struts_form_flow_detected() {
        let src = r#"
            class LoginForm extends ActionForm {
                field String user;
                ctor () { }
            }
            class LoginAction extends Action {
                ctor () { }
                method void execute(ActionMapping m, ActionForm f,
                                    HttpServletRequest req, HttpServletResponse resp) {
                    LoginForm lf = (LoginForm) f;
                    String u = lf.user;
                    resp.getWriter().println(u);
                }
            }
        "#;
        let report =
            analyze_source(src, None, RuleSet::default_rules(), &TajConfig::hybrid_unbounded())
                .unwrap();
        assert!(
            report.findings.iter().any(|f| f.flow.issue == IssueType::Xss),
            "tainted ActionForm field must reach the sink: {report:#?}"
        );
    }
}
