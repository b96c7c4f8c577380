//! The analysis workloads, `paper-apps` and `large-app`: every
//! (program, config) pair is a fresh prepare → phase 1 → phase 2 →
//! render of text, JSON and SARIF on one thread, as the CLI runs it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use taj_obs::ProfileRow;

use crate::adapter::{self, Recorder, Score, TajConfig};
use crate::inputs::{self, App};
use crate::metrics::{peak_rss_mb, thread_cpu_s, Outcome, Values, CONFIG_KEYS};
use crate::speed::{probe_s, scaled, timed};
use crate::stats::{fit_exponent, median, percentile, sorted, tail_supported, TAIL_SAMPLES};
use crate::verdicts;

/// Which analysis workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PaperApps,
    LargeApp,
}

/// Replicas of the securibench program in `large-app`.
pub const LARGE_COPIES: usize = 16;
/// Replica counts of the traced scale sweep.
const SWEEP: [usize; 5] = [1, 2, 4, 8, LARGE_COPIES];
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

fn make_inputs(workload: Workload, seed: u64) -> Vec<App> {
    match workload {
        Workload::PaperApps => inputs::paper_apps(seed),
        Workload::LargeApp => vec![inputs::large_app(seed, LARGE_COPIES)],
    }
}

/// The verdict-relevant numbers of one report.
#[derive(Clone, Copy, Debug)]
pub struct Verdict {
    pub issues: usize,
    pub score: Score,
}

/// What one (program, config) analysis did. Times are CPU time of the
/// analysing thread (see [`thread_cpu_s`]); `scaled_s` is `busy_s`
/// scaled to the reference host (see `speed.rs`).
struct Run {
    app: usize,
    cfg: usize,
    busy_s: f64,
    scaled_s: f64,
    prepare_s: f64,
    phase1_s: f64,
    render_s: f64,
    render_bytes: usize,
    budget_hit: bool,
    flows: usize,
    findings: usize,
    slicer_work: usize,
    ifds_facts: usize,
    ifds_pops: usize,
    /// `Ok(None)` is an out-of-memory verdict; `Err` a failure.
    verdict: Result<Option<Verdict>, String>,
}

fn analyze_one(
    app: &App,
    app_idx: usize,
    cfg_idx: usize,
    config: &TajConfig,
    rec: &Recorder,
) -> Run {
    let mut run = Run {
        app: app_idx,
        cfg: cfg_idx,
        busy_s: 0.0,
        scaled_s: 0.0,
        prepare_s: 0.0,
        phase1_s: 0.0,
        render_s: 0.0,
        render_bytes: 0,
        budget_hit: false,
        flows: 0,
        findings: 0,
        slicer_work: 0,
        ifds_facts: 0,
        ifds_pops: 0,
        verdict: Ok(None),
    };
    let t0 = thread_cpu_s();
    let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<Option<Verdict>, String> {
        let prepared = adapter::prepare(&app.source, app.descriptor.as_ref(), rec)?;
        let t1 = thread_cpu_s();
        run.prepare_s = t1 - t0;
        let phase1 = adapter::phase1(&prepared, config, rec);
        run.phase1_s = thread_cpu_s() - t1;
        run.budget_hit = adapter::cg_budget_hit(&phase1);
        let Some(report) = adapter::phase2(&prepared, &phase1, config, rec)? else {
            return Ok(None);
        };
        let t3 = thread_cpu_s();
        run.render_bytes = adapter::render(&report)?;
        run.render_s = thread_cpu_s() - t3;
        run.flows = report.flows.len();
        run.findings = report.findings.len();
        run.slicer_work = report.stats.slicer_work;
        run.ifds_facts = report.stats.ifds_facts;
        run.ifds_pops = report.stats.ifds_worklist_pops;
        Ok(Some(Verdict {
            issues: report.issue_count(),
            score: adapter::score(&report, &app.truth),
        }))
    }));
    run.verdict = outcome.unwrap_or_else(|_| Err("analysis panicked".to_string()));
    run.busy_s = thread_cpu_s() - t0;
    run
}

/// One pass: every program under every config, with a speed probe
/// between every two analyses. `recorders[app][cfg]` traces the pass;
/// `None` runs it untraced.
fn pass(apps: &[App], configs: &[TajConfig], recorders: Option<&[Vec<Recorder>]>) -> Vec<Run> {
    let disabled = Recorder::disabled();
    let mut runs = Vec::with_capacity(apps.len() * configs.len());
    let mut before = probe_s();
    for (a, app) in apps.iter().enumerate() {
        for (c, config) in configs.iter().enumerate() {
            let rec = recorders.map_or(&disabled, |r| &r[a][c]);
            let mut run = analyze_one(app, a, c, config, rec);
            let after = probe_s();
            run.scaled_s = scaled(run.busy_s, before, after);
            before = after;
            runs.push(run);
        }
    }
    runs
}

/// Checks every run against the pinned and independent verdicts;
/// returns the number of failures (reported on stderr).
fn check(workload: Workload, apps: &[App], copies: usize, runs: &[Run]) -> u64 {
    let mut failed = 0;
    for run in runs {
        let app = &apps[run.app].name;
        let key = CONFIG_KEYS[run.cfg];
        let result = match &run.verdict {
            Err(e) => Err(e.clone()),
            Ok(v) => match workload {
                Workload::PaperApps => verdicts::check_paper(app, key, *v),
                Workload::LargeApp => verdicts::check_large(copies, key, *v),
            },
        };
        if let Err(e) = result {
            eprintln!("verdict mismatch: {app} / {key}: {e}");
            failed += 1;
        }
    }
    failed
}

/// Runs an analysis workload and measures it.
pub fn run(workload: Workload, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let configs = adapter::configs();
    let keys: Vec<String> = configs.iter().map(|c| c.name.to_ascii_lowercase()).collect();
    assert_eq!(keys, CONFIG_KEYS, "metric keys are the Table 1 names in lower case");
    let copies = if workload == Workload::LargeApp { LARGE_COPIES } else { 1 };
    // Set-up: generate the inputs and run one warm-up pass, several
    // times. Both are timed and scaled like the measured passes.
    let setups = if traced { 1 } else { SETUPS };
    let mut setup_s = Vec::new();
    let mut apps = Vec::new();
    for _ in 0..setups {
        let (made, generate_s) = timed(|| make_inputs(workload, seed));
        apps = made;
        let warm_up = pass(&apps, &configs, None);
        setup_s.push(generate_s + sum(&warm_up, |r| r.scaled_s));
    }
    let mut values = Values::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    if traced {
        let untraced = pass(&apps, &configs, None);
        let recorders = new_recorders(apps.len(), configs.len());
        let runs = pass(&apps, &configs, Some(&recorders));
        let untraced_s = sum(&untraced, |r| r.scaled_s);
        let traced_s = sum(&runs, |r| r.scaled_s);
        for runs in [&untraced, &runs] {
            attempted += runs.len() as u64;
            failed += check(workload, &apps, copies, runs);
        }
        layer_metrics(&mut values, &apps, &runs, &recorders);
        values.insert("obs.overhead_frac".into(), traced_s / untraced_s - 1.0);
        let points = match workload {
            // Scaling across the nine applications, by size.
            Workload::PaperApps => {
                (0..apps.len()).map(|a| scale_point(&apps[a..=a], &runs, &recorders, a)).collect()
            }
            // The replica sweep; its last point is the traced pass above.
            Workload::LargeApp => {
                let mut points = Vec::new();
                for &k in &SWEEP[..SWEEP.len() - 1] {
                    let app = vec![inputs::large_app(seed, k)];
                    let recs = new_recorders(1, configs.len());
                    let runs = pass(&app, &configs, Some(&recs));
                    attempted += runs.len() as u64;
                    failed += check(workload, &app, k, &runs);
                    points.push(scale_point(&app, &runs, &recs, 0));
                }
                points.push(scale_point(&apps, &runs, &recorders, 0));
                points
            }
        };
        scaling_metrics(&mut values, &points);
    } else {
        let start = Instant::now();
        let mut passes = Vec::new();
        let mut pass_s = Vec::new();
        while passes.is_empty() || start.elapsed().as_secs_f64() < seconds {
            let t = Instant::now();
            let runs = pass(&apps, &configs, None);
            attempted += runs.len() as u64;
            failed += check(workload, &apps, copies, &runs);
            let (busy, scaled) = (sum(&runs, |r| r.busy_s), sum(&runs, |r| r.scaled_s));
            pass_s.push(format!("{scaled:.3}/{busy:.3}/{:.3}", t.elapsed().as_secs_f64()));
            passes.push(runs);
        }
        // Each (program, config) pair counts at its median scaled time
        // over the passes (see speed.rs).
        let pair_s: Vec<f64> = (0..passes[0].len())
            .map(|i| median(&passes.iter().map(|runs| runs[i].scaled_s).collect::<Vec<_>>()))
            .collect();
        for (c, key) in CONFIG_KEYS.iter().enumerate() {
            let total = passes[0].iter().zip(&pair_s).filter(|(r, _)| r.cfg == c).map(|(_, s)| s);
            values.insert(format!("report_s.{key}"), total.sum());
        }
        let latencies = sorted(&pair_s.iter().map(|s| s * 1e3).collect::<Vec<_>>());
        values.insert("latency_p50_ms".into(), percentile(&latencies, 0.5).unwrap_or(0.0));
        values.insert("latency_p90_ms".into(), percentile(&latencies, 0.9).unwrap_or(0.0));
        eprintln!(
            "{} passes (scaled/cpu/wall s: {}), {} latency samples",
            passes.len(),
            pass_s.join(" "),
            latencies.len()
        );
        if !tail_supported(latencies.len(), 0.9) {
            eprintln!("note: fewer than {TAIL_SAMPLES} samples beyond p90");
        }
    }
    eprintln!("set-ups (scaled s): {setup_s:.4?}");
    values.insert("setup_s".into(), median(&setup_s));
    values.insert("success_rate".into(), 1.0 - failed as f64 / attempted.max(1) as f64);
    values.insert("peak_rss_mb".into(), peak_rss_mb());
    Outcome { correct: failed == 0, attempted, failed, values }
}

fn new_recorders(apps: usize, configs: usize) -> Vec<Vec<Recorder>> {
    (0..apps).map(|_| (0..configs).map(|_| Recorder::new()).collect()).collect()
}

/// Span totals and summed span attributes of a set of recorders.
#[derive(Default)]
struct Spans(Vec<ProfileRow>);

impl Spans {
    fn of<'a>(recorders: impl IntoIterator<Item = &'a Recorder>) -> Spans {
        let mut rows: Vec<ProfileRow> = Vec::new();
        for rec in recorders {
            for row in rec.aggregate() {
                match rows.iter_mut().find(|r| r.name == row.name) {
                    Some(acc) => {
                        acc.count += row.count;
                        acc.total_us += row.total_us;
                        for (key, v) in row.counters {
                            match acc.counters.iter_mut().find(|(k, _)| *k == key) {
                                Some((_, sum)) => *sum += v,
                                None => acc.counters.push((key, v)),
                            }
                        }
                    }
                    None => rows.push(row),
                }
            }
        }
        Spans(rows)
    }

    fn secs(&self, span: &str) -> f64 {
        self.0.iter().find(|r| r.name == span).map_or(0.0, |r| r.total_us as f64 / 1e6)
    }

    fn counter(&self, span: &str, key: &str) -> f64 {
        self.0
            .iter()
            .find(|r| r.name == span)
            .and_then(|r| r.counters.iter().find(|(k, _)| *k == key))
            .map_or(0.0, |(_, v)| *v as f64)
    }
}

fn sum(runs: &[Run], f: impl Fn(&Run) -> f64) -> f64 {
    runs.iter().map(f).sum()
}

/// Per-layer metrics of one traced pass.
fn layer_metrics(values: &mut Values, apps: &[App], runs: &[Run], recorders: &[Vec<Recorder>]) {
    let spans = Spans::of(recorders.iter().flatten());
    let mut put = |name: &str, v: f64| {
        values.insert(name.to_string(), v);
    };
    let prepare_s = sum(runs, |r| r.prepare_s);
    let bytes_in = sum(runs, |r| apps[r.app].source.len() as f64);
    put("prepare.busy_s", prepare_s);
    put("prepare.parse_s", spans.secs("prepare.parse"));
    put("prepare.model_s", spans.secs("prepare.model"));
    put("prepare.ssa_s", spans.secs("prepare.ssa"));
    put("prepare.methods", spans.counter("prepare.parse", "methods"));
    put("prepare.mb_per_s", bytes_in / 1e6 / prepare_s);
    put("phase1.busy_s", sum(runs, |r| r.phase1_s));
    put("phase1.solve_s", spans.secs("phase1.solve"));
    put("phase1.heapgraph_s", spans.secs("phase1.heapgraph"));
    put("phase1.escape_s", spans.secs("phase1.escape"));
    put("phase1.mhp_s", spans.secs("phase1.mhp"));
    put("phase1.cg_nodes", spans.counter("phase1", "cg_nodes"));
    put("phase1.cg_edges", spans.counter("phase1", "cg_edges"));
    put("phase1.pointer_keys", spans.counter("phase1.solve", "pointer_keys"));
    put("phase1.instance_keys", spans.counter("phase1.solve", "instance_keys"));
    put("phase1.steps", spans.counter("phase1.solve", "worklist_iterations"));
    put("phase1.budget_hits", sum(runs, |r| f64::from(u8::from(r.budget_hit))));
    for (c, key) in CONFIG_KEYS.iter().enumerate() {
        let of_cfg = Spans::of(recorders.iter().map(|per_app| &per_app[c]));
        put(&format!("phase2.busy_s.{key}"), of_cfg.secs("phase2"));
        put(&format!("phase2.unit_s.{key}"), of_cfg.secs("phase2.unit"));
        let work = runs.iter().filter(|r| r.cfg == c).map(|r| r.slicer_work as f64).sum();
        put(&format!("phase2.slicer_work.{key}"), work);
    }
    put("phase2.specs_s", spans.secs("phase2.specs"));
    put("phase2.views_s", spans.secs("phase2.views"));
    put("phase2.post_s", spans.secs("phase2.post"));
    put("phase2.units", spans.counter("phase2", "units"));
    put("phase2.heap_transitions", spans.counter("phase2", "heap_transitions"));
    put("phase2.summary_edges", spans.counter("phase2", "summary_edges"));
    put("phase2.ifds_facts", sum(runs, |r| r.ifds_facts as f64));
    put("phase2.ifds_pops", sum(runs, |r| r.ifds_pops as f64));
    put("phase2.view_loads", spans.counter("phase2.views", "loads"));
    let flows = sum(runs, |r| r.flows as f64);
    put("phase2.flows_per_kwork", flows / (sum(runs, |r| r.slicer_work as f64) / 1e3));
    put("phase2.findings_per_flow", sum(runs, |r| r.findings as f64) / flows);
    put("render.busy_s", sum(runs, |r| r.render_s));
    put("render.bytes", sum(runs, |r| r.render_bytes as f64));
}

/// One point of a scaling fit: input size and per-layer cost.
struct ScalePoint {
    bytes: f64,
    prepare_s: f64,
    phase1_s: f64,
    views_s: f64,
    unit_s: Vec<f64>,
    work: Vec<f64>,
}

/// The scaling point of program `app` (its runs and recorders), whose
/// source is `apps[0]`.
fn scale_point(apps: &[App], runs: &[Run], recorders: &[Vec<Recorder>], app: usize) -> ScalePoint {
    let mine: Vec<&Run> = runs.iter().filter(|r| r.app == app).collect();
    let spans = Spans::of(&recorders[app]);
    ScalePoint {
        bytes: apps[0].source.len() as f64,
        prepare_s: mine.iter().map(|r| r.prepare_s).sum(),
        phase1_s: mine.iter().map(|r| r.phase1_s).sum(),
        views_s: spans.secs("phase2.views"),
        unit_s: (0..CONFIG_KEYS.len())
            .map(|c| Spans::of([&recorders[app][c]]).secs("phase2.unit"))
            .collect(),
        work: (0..CONFIG_KEYS.len())
            .map(|c| mine.iter().filter(|r| r.cfg == c).map(|r| r.slicer_work as f64).sum())
            .collect(),
    }
}

/// Log-log exponents of each layer's cost against input size.
fn scaling_metrics(values: &mut Values, points: &[ScalePoint]) {
    let fit = |f: &dyn Fn(&ScalePoint) -> f64| {
        fit_exponent(&points.iter().map(|p| (p.bytes, f(p))).collect::<Vec<_>>())
    };
    values.insert("prepare.exp".into(), fit(&|p| p.prepare_s));
    values.insert("phase1.exp".into(), fit(&|p| p.phase1_s));
    values.insert("phase2.views_exp".into(), fit(&|p| p.views_s));
    for (c, key) in CONFIG_KEYS.iter().enumerate() {
        values.insert(format!("phase2.unit_exp.{key}"), fit(&|p| p.unit_s[c]));
        values.insert(format!("phase2.work_exp.{key}"), fit(&|p| p.work[c]));
    }
}
