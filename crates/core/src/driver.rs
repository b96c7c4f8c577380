//! The two-phase TAJ driver (§3): frontend + modeling passes, pointer
//! analysis & call-graph construction, then per-rule slicing, bounds, and
//! LCP report minimization.

use serde::Serialize;

use taj_obs::{Recorder, Span};

use jir::Program;
use taj_pointer::{EscapeAnalysis, HeapGraph, PointsTo, PolicyConfig, SolverConfig};
use taj_sdg::{
    CiCache, CiSlicer, CsSlicer, Flow, HybridSlicer, IfdsAliases, IfdsSlicer, MhpRelation,
    ProgramView, SliceBounds, SliceIndex, SliceResult, SliceSpec, StmtNode,
};
use taj_supervise::{InterruptReason, Supervisor};

use crate::config::{Algorithm, TajConfig};
use crate::frameworks::DeploymentDescriptor;
use crate::lcp;
use crate::rules::{IssueType, ResolvedRule, ResolvedRules, RuleSet};

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

/// One degradation step — the CS-to-hybrid fall or a partial delivery:
/// what stage tripped, what the driver fell back to, why, and what the
/// result may consequently be missing.
#[derive(Clone, Debug, Serialize)]
pub struct DegradationStep {
    /// Pipeline stage the interrupt hit (`phase1` or `slice`).
    pub stage: String,
    /// Configuration the stage was running under.
    pub from: String,
    /// Configuration fallen to, or `partial` when partial results were
    /// delivered.
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
    /// When a CS run exhausts its path-edge budget, rerun phase 2 as
    /// Hybrid-Unbounded instead of returning [`TajError::OutOfMemory`].
    pub degrade: bool,
    /// Ignored. Phase 2 runs on the calling thread; the field stays only
    /// so that callers which still set it keep compiling, and goes in a
    /// later release.
    pub threads: usize,
    /// Tracing recorder. The default is disabled (every guard is a single
    /// pointer test); an enabled recorder collects the span taxonomy of
    /// docs/observability.md. Tracing is an *observation* parameter:
    /// reports are byte-identical whether or not it is on.
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
    /// The rule set in force, resolved against `program` once for both
    /// phases.
    pub rules: ResolvedRules,
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
/// expansion, then the rules' resolution), and `prepare.ssa` spans.
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
        parse_span.attr("classes", program.num_classes());
        parse_span.attr("methods", program.num_methods());
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
    let rules = rules.resolve(&program);
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

/// Runs the full analysis for one configuration: [`prepare`], then
/// [`run_phase1_traced`] and [`analyze_with_phase1_opts`] under the
/// default [`RunOptions`] (unsupervised, untraced, no degradation).
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
    let opts = RunOptions::default();
    let phase1 = run_phase1_traced(&prepared, config, &opts.supervisor, &opts.recorder);
    analyze_with_phase1_opts(&prepared, &phase1, config, &opts)
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
/// for the given configuration's call-graph settings. The whole phase
/// runs inside a `phase1` span — spans are the single timing source —
/// with `phase1.solve` (inside the pointer solver), `phase1.heapgraph`,
/// `phase1.escape`, and `phase1.mhp` child spans.
///
/// An interrupt from `supervisor` truncates the call graph consistently
/// (exactly like an exhausted `max_cg_nodes` budget) and replaces
/// escape/MHP with their conservative top elements (everything escapes;
/// single-threaded), so downstream slicing stays sound with respect to
/// the truncated graph. The interrupt reason is recorded in
/// [`Phase1::interrupted`]; interrupted results must not be cached.
pub fn run_phase1_traced(
    prepared: &PreparedProgram,
    config: &TajConfig,
    supervisor: &Supervisor,
    recorder: &Recorder,
) -> Phase1 {
    let program = &prepared.program;
    let mut phase_span = recorder.span("phase1");
    let solver_cfg = SolverConfig {
        policy: PolicyConfig { taint_methods: prepared.rules.taint_methods() },
        max_cg_nodes: config.max_cg_nodes,
        priority: config.priority,
        source_methods: prepared.rules.sources(),
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
        if let Some(reason) = interrupted {
            phase_span.attr("interrupted", reason.as_str());
        }
    }
    phase_span.finish();
    Phase1 { pts, heap, escape, mhp, interrupted, cg_key: (config.max_cg_nodes, config.priority) }
}

/// Runs phase 2 (slicing, carriers, bounds, LCP) over phase-1 results,
/// which stay reusable across every configuration with the same
/// call-graph settings. With `opts.degrade`, a CS run over its path-edge
/// budget reruns as Hybrid-Unbounded over the same phase-1 artifacts;
/// deadline and cancellation interrupts deliver whatever partial results
/// exist. Every degradation step is recorded in
/// [`TajReport::degradation`].
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
    let outcome = run_phase2(prepared, phase1, config, &supervisor, recorder);
    let (mut report, interrupted) = match outcome {
        Err(TajError::OutOfMemory { path_edges }) if opts.degrade => {
            // CS exploded: the paper's answer is the hybrid slicer, which
            // trades per-call-string facts for summarized flow functions.
            // `..config` keeps the call-graph settings, so the phase-1
            // result stays valid, and `escape_analysis`, so CS-Escape
            // falls to the hybrid slicer with its escape filter.
            let hybrid = TajConfig {
                name: "Hybrid-Unbounded",
                algorithm: Algorithm::Hybrid,
                cs_path_edge_budget: None,
                ..*config
            };
            let step = DegradationStep {
                stage: "slice".to_string(),
                from: config.name.to_string(),
                to: hybrid.name.to_string(),
                reason: format!("path-edge budget exhausted ({path_edges} path edges)"),
                caveat: "hybrid slicing collapses calling contexts: reported flows \
                         may include context-infeasible paths (precision loss only)"
                    .to_string(),
            };
            degrade_event(recorder, &step);
            degradation.push(step);
            run_phase2(prepared, phase1, &hybrid, &supervisor, recorder)?
        }
        outcome => outcome?,
    };
    if let Some(reason) = interrupted {
        // Deadline or cancel: deliver partial results with provenance.
        let step = partial_step(&report.config, reason.as_str());
        degrade_event(recorder, &step);
        degradation.push(step);
    }
    report.degradation = degradation;
    Ok(report)
}

/// Mirrors a degradation step into the trace as an instant
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

fn partial_step(config: &str, reason: &str) -> DegradationStep {
    DegradationStep {
        stage: "slice".to_string(),
        from: config.to_string(),
        to: "partial".to_string(),
        reason: reason.to_string(),
        caveat: "slicing stopped early: flows completed before the interrupt \
                 are reported, later ones may be missing (under-approximation)"
            .to_string(),
    }
}

/// What slicing one rule produced.
#[derive(Default)]
struct RuleOut {
    result: SliceResult,
    edges_dropped: usize,
    /// RHS summaries tabulated (hybrid) or summary edges (IFDS); 0
    /// elsewhere.
    summaries: usize,
    /// IFDS counters (0 for the other slicers): distinct facts created
    /// and worklist pops.
    facts: usize,
    pops: usize,
}

/// One phase-2 pass under a fixed configuration. Returns the report plus
/// the supervisor interrupt that stopped it early, if any.
///
/// Each rule runs as one slicer pass over all its seeds, under a clone
/// of the caller's supervisor. The pass stops after the first
/// interrupted rule, and a CS rule over its path-edge budget fails the
/// pass.
fn run_phase2(
    prepared: &PreparedProgram,
    phase1: &Phase1,
    config: &TajConfig,
    supervisor: &Supervisor,
    recorder: &Recorder,
) -> Result<(TajReport, Option<InterruptReason>), TajError> {
    assert!(
        phase1.matches(config),
        "phase-1 results were computed under different call-graph settings"
    );
    // The `phase2` span measures the whole pass, teardown included: the
    // pass state (index, views, slicer results) drops when `slice_pass`
    // returns, before the span finishes.
    let mut phase_span = recorder.span("phase2");
    let out = slice_pass(prepared, phase1, config, supervisor, recorder, &mut phase_span);
    phase_span.finish();
    out
}

/// The body of [`run_phase2`]; `phase_span` receives the pass attrs.
fn slice_pass(
    prepared: &PreparedProgram,
    phase1: &Phase1,
    config: &TajConfig,
    supervisor: &Supervisor,
    recorder: &Recorder,
    phase_span: &mut Span,
) -> Result<(TajReport, Option<InterruptReason>), TajError> {
    let program = &prepared.program;
    let pts = &phase1.pts;
    let heap = &phase1.heap;

    // ---- Phase 2: per-rule slicing (§3.2) + modeling + bounds (§6.2).
    let resolved: Vec<ResolvedRule<'_>> = prepared.rules.iter().collect();
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

    // Stage A: each rule's projection; then one rule-independent slice
    // index over every rule's methods, and on top of it each rule's
    // carrier index and view (views borrow their spec, hence the indexed
    // maps). The CI context collapse and the IFDS alias lists are
    // rule-independent too: built once per pass, for their slicer only.
    let mut specs_span = recorder.span("phase2.specs");
    let mut specs: Vec<SliceSpec> =
        resolved.iter().map(|rule| build_spec(prepared, pts, *rule)).collect();
    if recorder.is_enabled() {
        specs_span.attr("rules", resolved.len());
    }
    specs_span.finish();
    let mut views_span = recorder.span("phase2.views");
    let index = SliceIndex::build(program, pts, &specs);
    for (spec, rule) in specs.iter_mut().zip(&resolved) {
        spec.carrier_sinks =
            crate::carriers::build_carrier_index(&index, heap, *rule, config.nested_depth);
    }
    let views: Vec<ProgramView<'_>> =
        specs.iter().map(|spec| ProgramView::build(&index, spec)).collect();
    let ci_cache = matches!(config.algorithm, Algorithm::CiThin).then(|| CiCache::build(&index));
    let ifds_aliases =
        matches!(config.algorithm, Algorithm::Ifds).then(|| IfdsAliases::build(&index));
    if recorder.is_enabled() {
        let mut view_stats = index.stats();
        for view in &views {
            view_stats.add(view.stats());
        }
        views_span.attr("nodes", view_stats.nodes);
        views_span.attr("use_edges", view_stats.use_edges);
        views_span.attr("loads", view_stats.loads);
        views_span.attr("sources", view_stats.sources);
    }
    views_span.finish();

    // Stage B: slice each rule, in rule order. `Err` carries the path
    // edges of a CS slicer over its budget.
    let bounds = SliceBounds {
        max_heap_transitions: config.max_heap_transitions,
        max_path_edges: config.cs_path_edge_budget,
    };
    let slice_rule = |view: &ProgramView<'_>, supervisor: Supervisor| -> Result<RuleOut, usize> {
        match config.algorithm {
            Algorithm::Hybrid => {
                let mut slicer = if config.escape_analysis {
                    HybridSlicer::with_concurrency(view, bounds, &phase1.escape, &phase1.mhp)
                } else {
                    HybridSlicer::new(view, bounds)
                }
                .with_supervisor(supervisor);
                Ok(RuleOut {
                    result: slicer.run(),
                    edges_dropped: slicer.edges_dropped(),
                    summaries: slicer.summaries_tabulated(),
                    ..RuleOut::default()
                })
            }
            Algorithm::Ifds => {
                let aliases = ifds_aliases.as_ref().expect("built for IFDS above");
                let mut slicer = IfdsSlicer::new(view, config.access_path_depth, aliases)
                    .with_supervisor(supervisor);
                Ok(RuleOut {
                    result: slicer.run(),
                    summaries: slicer.summary_edges(),
                    facts: slicer.facts_created(),
                    pops: slicer.worklist_pops(),
                    ..RuleOut::default()
                })
            }
            Algorithm::CiThin => {
                let cache = ci_cache.as_ref().expect("built for CI above");
                let result =
                    CiSlicer::with_cache(view, bounds, cache).with_supervisor(supervisor).run();
                Ok(RuleOut { result, ..RuleOut::default() })
            }
            Algorithm::CsThin => {
                let slicer = if config.escape_analysis {
                    CsSlicer::with_escape(view, bounds, &phase1.escape)
                } else {
                    CsSlicer::new(view, bounds)
                };
                match slicer.with_supervisor(supervisor).run() {
                    Ok(result) => Ok(RuleOut { result, ..RuleOut::default() }),
                    Err(taj_sdg::SliceError::OutOfBudget { path_edges }) => Err(path_edges),
                }
            }
        }
    };
    let mut rule_flows: Vec<Vec<Flow>> = Vec::with_capacity(views.len());
    let mut summary_edges = 0usize;
    for (i, view) in views.iter().enumerate() {
        // Phase 2 runs on this thread, so the counter's growth over the
        // rule is the rule's own check count.
        let steps_before = supervisor.steps();
        let mut unit_span = recorder.span("phase2.unit");
        if recorder.is_enabled() {
            unit_span.attr("unit", i);
            unit_span.attr("rule", resolved[i].issue.to_string());
        }
        let out = match slice_rule(view, supervisor.clone()) {
            Ok(out) => out,
            Err(path_edges) => {
                unit_span.attr("path_edges", path_edges);
                unit_span.finish();
                if recorder.is_enabled() {
                    recorder.event("phase2.oom", vec![("path_edges", path_edges.into())]);
                }
                return Err(TajError::OutOfMemory { path_edges });
            }
        };
        if recorder.is_enabled() {
            unit_span.attr("flows", out.result.flows.len());
            unit_span.attr("work", out.result.work);
            unit_span.attr("heap_transitions", out.result.heap_transitions);
            unit_span.attr("summaries", out.summaries);
            unit_span.attr("steps", supervisor.steps() - steps_before);
            if matches!(config.algorithm, Algorithm::Ifds) {
                unit_span.attr("facts", out.facts);
                unit_span.attr("pops", out.pops);
            }
            if let Some(reason) = out.result.interrupted {
                unit_span.attr("interrupted", reason.as_str());
            }
        }
        unit_span.finish();
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
        rule_flows.push(out.result.flows);
        if out.result.interrupted.is_some() {
            interrupted = out.result.interrupted;
            break;
        }
    }

    // Per-rule post-processing in rule order: flow-length filter
    // (§6.2.2), flow description, and LCP dedup.
    let mut post_span = recorder.span("phase2.post");
    for (rule, mut flows) in resolved.iter().zip(rule_flows) {
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
        for finding in lcp::deduplicate(&index, &tagged) {
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
        phase_span.attr("units", views.len());
        phase_span.attr("slicer_work", stats.slicer_work);
        phase_span.attr("heap_transitions", stats.heap_transitions);
        phase_span.attr("summary_edges", summary_edges);
        if let Some(reason) = interrupted {
            phase_span.attr("interrupted", reason.as_str());
        }
    }

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

/// A rule's projection for the slicers; its carrier index comes later,
/// from the slice index.
fn build_spec(prepared: &PreparedProgram, pts: &PointsTo, rule: ResolvedRule<'_>) -> SliceSpec {
    let mut spec = SliceSpec::default();
    let get_message = prepared.rules.get_message();
    for s in rule.sources() {
        // For the InfoLeak rule, `getMessage` is a source only at the
        // synthesized catch-site calls (§4.1.2), not everywhere.
        if rule.uses_exception_sources() && Some(s) == get_message {
            continue;
        }
        spec.sources.insert(s);
    }
    spec.sanitizers.extend(rule.sanitizers());
    for (m, pos) in rule.sinks() {
        spec.sinks.insert(m, pos.to_vec());
    }
    for (m, pos) in rule.ref_sources() {
        spec.ref_sources.insert(m, pos.to_vec());
    }
    if rule.uses_exception_sources() {
        for &(method, loc) in &prepared.synthetic_sites {
            for node in pts.callgraph.nodes_of_method(method) {
                spec.synthetic_source_sites.push(StmtNode { node, loc });
            }
        }
    }
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

    /// Keys of the JSON object `value` serializes to, in order.
    fn json_keys(value: &impl Serialize) -> Vec<String> {
        match serde_json::from_str(&serde_json::to_string(value).unwrap()).unwrap() {
            serde_json::Value::Object(entries) => entries.into_iter().map(|(k, _)| k).collect(),
            other => panic!("not an object: {other:?}"),
        }
    }

    /// `TajFinding` flattens its flow into its own object, and a streamed
    /// flatten writes a shared key twice, so the two key sets must stay
    /// disjoint.
    #[test]
    fn finding_keys_do_not_collide_with_its_flattened_flow() {
        let report = analyze_source(
            XSS_SERVLET,
            None,
            RuleSet::default_rules(),
            &TajConfig::hybrid_unbounded(),
        )
        .unwrap();
        let finding = &report.findings[0];
        let mut expected = json_keys(&finding.flow);
        expected.extend(["lcp_owner_class".to_string(), "group_size".to_string()]);
        let mut keys = json_keys(finding);
        assert_eq!(keys, expected);
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), expected.len(), "duplicate keys in {expected:?}");
    }

    #[test]
    fn all_configs_run_the_servlet() {
        let prepared = prepare(XSS_SERVLET, None, RuleSet::default_rules()).unwrap();
        for config in TajConfig::all() {
            let opts = RunOptions::default();
            let phase1 = run_phase1_traced(&prepared, &config, &opts.supervisor, &opts.recorder);
            let report = analyze_with_phase1_opts(&prepared, &phase1, &config, &opts).unwrap();
            assert_eq!(report.issue_count(), 1, "{}", config.name);
        }
    }

    /// Pins the field list of [`Phase1`] and the validity domain of
    /// [`Phase1::matches`]. `Phase1` is shared read-only across the
    /// daemon's requests and keyed in its artifact cache purely by
    /// `(max_cg_nodes, priority)` — so it must never grow state that
    /// depends on an execution parameter.
    /// Adding a field to `Phase1` breaks this destructuring on purpose:
    /// whoever adds one must decide here whether it belongs in the cache
    /// validity domain.
    #[test]
    fn phase1_matches_pins_the_validity_domain() {
        let prepared = prepare(XSS_SERVLET, None, RuleSet::default_rules()).unwrap();
        let config = TajConfig::hybrid_unbounded();
        let phase1 =
            run_phase1_traced(&prepared, &config, &Supervisor::new(), &Recorder::disabled());

        // Exhaustive destructuring: a new `Phase1` field fails to compile
        // until it is audited for execution-parameter independence.
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
