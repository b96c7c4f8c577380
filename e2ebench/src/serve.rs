//! The `serve-mixed` workload: a router plus two shard daemons (one
//! worker and a disk store each), in-process, driven by a single-process
//! open loop at a fixed rate with at most `nproc` requests in flight.
//! Each request opens its own connection, as `taj client analyze` does.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use serde::Value;
use taj_webgen::{apply_edit, securibench_cases, EditKind};

use crate::adapter::{self, Recorder, Router, Shard};
use crate::inputs::{request_mix, Kind, MixRequest, HOT_CONFIG};
use crate::metrics::{peak_rss_mb, process_cpu_s, thread_cpu_s, Outcome, Values, CONFIG_KEYS};
use crate::speed::{probe_s, scaled};
use crate::stats::{median, percentile, sorted, tail_supported, TAIL_SAMPLES};

/// Open-loop arrival rate (requests per second).
const RATE: f64 = 100.0;
const SHARDS: usize = 2;
/// Stack set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// In-process reference passes over the corpus, which give the expected
/// verdicts and `report_s.*`.
const REFERENCE_PASSES: usize = 16;
/// A request sent this much later than its due time means the generator
/// fell behind its schedule: the run is invalid, not fast.
const MAX_LATE_MS: f64 = 250.0;

/// `(findings, flows)` of a report, or `None` for out-of-memory.
type Verdict = Option<(Value, Value)>;

/// The expected answer of each distinct `(source, config)` pair.
type Expected = HashMap<(usize, &'static str), Verdict>;

/// A running router and its shards, with the directory their stores use.
struct Stack {
    router: Router,
    shards: Vec<Shard>,
    dir: PathBuf,
}

impl Stack {
    fn stop(self) {
        adapter::stop(self.router, self.shards);
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Starts shards (opening their stores) and the router, then primes the
/// hot set: every corpus program under the hot config.
fn start_stack(dir: &Path, corpus: &[String], flight: usize) -> Result<Stack, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut shards = Vec::new();
    for i in 0..SHARDS {
        let shard = adapter::start_shard(&dir.join(format!("shard{i}")), flight);
        shards.push(shard.map_err(|e| format!("start shard: {e}"))?);
    }
    let router = adapter::start_router(&shards, flight).map_err(|e| format!("start router: {e}"));
    let stack = match router {
        Ok(router) => Stack { router, shards, dir: dir.to_path_buf() },
        Err(e) => {
            for shard in shards {
                adapter::stop_shard(shard);
            }
            return Err(e);
        }
    };
    for source in corpus {
        let primed = adapter::connect(&stack.router.addr)
            .and_then(|mut c| adapter::analyze(&mut c, source, HOT_CONFIG, false, None));
        if let Err(e) = primed {
            stack.stop();
            return Err(format!("priming failed: {e}"));
        }
    }
    Ok(stack)
}

/// One in-process analysis: the reference verdict and its CPU time.
fn reference(source: &str, config: &adapter::TajConfig) -> Result<(Verdict, f64), String> {
    let off = Recorder::disabled();
    let t = thread_cpu_s();
    let prepared = adapter::prepare(source, None, &off)?;
    let phase1 = adapter::phase1(&prepared, config, &off);
    let verdict = match adapter::phase2(&prepared, &phase1, config, &off)? {
        Some(report) => {
            adapter::render(&report)?;
            Some(adapter::verdict_of(&report)?)
        }
        None => None,
    };
    Ok((verdict, thread_cpu_s() - t))
}

/// Runs half of the [`REFERENCE_PASSES`]: every corpus program under
/// every config, in-process. Records each verdict, and each pass's time
/// of each config over the corpus in `times[config]`, scaled by the
/// speed probes taken around it (see speed.rs).
fn reference_passes(
    corpus: &[String],
    configs: &[adapter::TajConfig],
    times: &mut [Vec<f64>],
    expected: &mut Expected,
) -> Result<(), String> {
    for _ in 0..REFERENCE_PASSES / 2 {
        for (c, config) in configs.iter().enumerate() {
            let before = probe_s();
            let mut busy = 0.0;
            for (p, source) in corpus.iter().enumerate() {
                let (verdict, secs) = reference(source, config)?;
                busy += secs;
                expected.insert((p, config.name), verdict);
            }
            times[c].push(scaled(busy, before, probe_s()));
        }
    }
    Ok(())
}

/// What the load generator observed for one request.
struct Sample {
    index: usize,
    /// Connect start to response.
    service_ms: f64,
    /// Due time to response: the end-to-end latency.
    latency_ms: f64,
    /// Due time to send.
    late_ms: f64,
    connect_ms: f64,
    /// The response checked against the reference verdict.
    verdict: Result<(), String>,
}

/// Drives `schedule` open-loop at [`RATE`] from `workers` threads. Each
/// response is checked against `expected` once it has been timed.
fn drive(
    router: &str,
    sources: &[String],
    schedule: &[(usize, &MixRequest)],
    trace_ids: &[Option<String>],
    expected: &Expected,
    workers: usize,
) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::with_capacity(schedule.len()));
    let start = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                let Some(&(source, req)) = schedule.get(i) else { break };
                let due = start + Duration::from_secs_f64(i as f64 / RATE);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let sent = Instant::now();
                let client = adapter::connect(router);
                let connected = Instant::now();
                let result = client.and_then(|mut c| {
                    adapter::analyze(
                        &mut c,
                        &sources[source],
                        req.config,
                        req.degrade,
                        trace_ids[i].clone(),
                    )
                });
                let done = Instant::now();
                let verdict = matches(&result, expected.get(&(source, req.config)));
                let ms = |d: Duration| d.as_secs_f64() * 1e3;
                let sample = Sample {
                    index: i,
                    service_ms: ms(done - sent),
                    latency_ms: ms(done - due),
                    late_ms: ms(sent.saturating_duration_since(due)),
                    connect_ms: ms(connected - sent),
                    verdict,
                };
                samples.lock().expect("no sampler panics").push(sample);
            });
        }
    });
    let mut samples = samples.into_inner().expect("no sampler panics");
    samples.sort_by_key(|s| s.index);
    samples
}

/// Whether a response matches the expected verdict.
fn matches(result: &Result<Value, String>, expected: Option<&Verdict>) -> Result<(), String> {
    match (result, expected) {
        (_, None) => Err("no reference verdict".to_string()),
        (Ok(report), Some(Some(want))) => {
            if &adapter::verdict_of_json(report)? == want {
                Ok(())
            } else {
                Err("findings or flows differ from the in-process verdict".to_string())
            }
        }
        (Err(e), Some(None)) if e.contains("out_of_memory") => Ok(()),
        (Ok(_), Some(None)) => Err("answered where the reference ran out of memory".to_string()),
        (Err(e), Some(_)) => Err(e.clone()),
    }
}

/// The number at `path` inside a JSON value, 0 when absent.
fn num(v: &Value, path: &[&str]) -> f64 {
    let mut cur = v;
    for key in path {
        match cur.get(key) {
            Some(next) => cur = next,
            None => return 0.0,
        }
    }
    cur.as_f64().unwrap_or(0.0)
}

/// Sums a numeric stats field over every shard.
fn shard_sum(stats: &[Value], path: &[&str]) -> f64 {
    stats.iter().map(|s| num(s, path)).sum()
}

fn shard_stats(stack: &Stack) -> Result<Vec<Value>, String> {
    stack.shards.iter().map(|s| adapter::stats(&s.addr)).collect()
}

/// Runs serve-mixed and measures it.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let corpus: Vec<String> = securibench_cases().into_iter().map(|c| c.source).collect();
    let n = (RATE * seconds).round() as usize;
    let mix = request_mix(seed, n, corpus.len());
    // Flight recorders sized to keep every request of a traced run.
    let flight = if traced { 4 * n + 64 } else { taj_service::DEFAULT_FLIGHT_RECORDS };
    let base = PathBuf::from(".bench_tmp").join(format!("serve-mixed-{}", std::process::id()));

    // Set-up: start and prime the stack several times; keep the last.
    // Its cost is the CPU time of every thread, shards and router
    // included (wall time here is mostly the servers' accept poll),
    // scaled to the reference host (see speed.rs).
    let mut setup_s = Vec::new();
    let mut stack = None;
    for k in 0..SETUPS {
        if let Some(old) = stack.take() {
            Stack::stop(old);
        }
        let before = probe_s();
        let t = process_cpu_s();
        stack = Some(start_stack(&base.join(format!("setup{k}")), &corpus, flight)?);
        let busy = process_cpu_s() - t;
        setup_s.push(scaled(busy, before, probe_s()));
    }
    let stack = stack.expect("at least one set-up");
    let result = measure(&stack, &corpus, &mix, seed, traced);
    stack.stop();
    let _ = std::fs::remove_dir_all(&base);
    // Removes the scratch root too, unless another run still uses it.
    let _ = std::fs::remove_dir(".bench_tmp");
    let mut outcome = result?;
    eprintln!("set-ups (scaled s): {setup_s:.4?}");
    outcome.values.insert("setup_s".into(), median(&setup_s));
    outcome.values.insert("peak_rss_mb".into(), peak_rss_mb());
    Ok(outcome)
}

fn measure(
    stack: &Stack,
    corpus: &[String],
    mix: &[MixRequest],
    seed: u64,
    traced: bool,
) -> Result<Outcome, String> {
    let mut values = Values::new();
    // The sources of the schedule: the corpus, then one per edit.
    let mut sources: Vec<String> = corpus.to_vec();
    let mut schedule = Vec::with_capacity(mix.len());
    for req in mix {
        let edit = match req.kind {
            Kind::Comment => Some(EditKind::Comment),
            Kind::AddClass => Some(EditKind::AddClass),
            Kind::Hit | Kind::Variant => None,
        };
        let source = match edit {
            Some(kind) => {
                let edited = apply_edit(&corpus[req.program], kind, req.edit_seed)
                    .ok_or("edit does not apply")?;
                sources.push(edited);
                sources.len() - 1
            }
            None => req.program,
        };
        schedule.push((source, req));
    }

    // In-process reference: every corpus program under every config,
    // half of the passes before the load and half after it, so that a
    // burst of host contention cannot cover them all.
    let configs = adapter::configs();
    let mut expected = Expected::new();
    let mut times = vec![Vec::new(); configs.len()];
    reference_passes(corpus, &configs, &mut times, &mut expected)?;
    let hot = adapter::TajConfig::by_name(HOT_CONFIG).expect("hot config exists");
    for &(source, req) in &schedule {
        if source >= corpus.len() {
            expected.insert((source, req.config), reference(&sources[source], &hot)?.0);
        }
    }

    // The load itself.
    let before = shard_stats(stack)?;
    let trace_ids: Vec<Option<String>> = (0..schedule.len())
        .map(|i| (traced && i % 2 == 0).then(|| format!("mix-{seed}-{i}")))
        .collect();
    let workers = std::thread::available_parallelism().map_or(2, |n| n.get());
    let samples = drive(&stack.router.addr, &sources, &schedule, &trace_ids, &expected, workers);
    reference_passes(corpus, &configs, &mut times, &mut expected)?;
    for (c, key) in CONFIG_KEYS.iter().enumerate() {
        values.insert(format!("report_s.{key}"), median(&times[c]));
    }

    let mut failed = 0u64;
    for s in &samples {
        if let Err(e) = &s.verdict {
            let req = schedule[s.index].1;
            eprintln!("request {} ({}, {}): {e}", s.index, req.kind.label(), req.config);
            failed += 1;
        }
    }
    let late_max = samples.iter().map(|s| s.late_ms).fold(0.0, f64::max);
    let behind = late_max > MAX_LATE_MS;
    if behind {
        eprintln!("invalid run: the generator fell {late_max:.1} ms behind its schedule");
    }
    let latencies = sorted(&samples.iter().map(|s| s.latency_ms).collect::<Vec<_>>());
    if !tail_supported(latencies.len(), 0.9) {
        eprintln!("note: fewer than {TAIL_SAMPLES} samples beyond p90; run longer");
    }
    values.insert("latency_p50_ms".into(), percentile(&latencies, 0.5).unwrap_or(0.0));
    values.insert("latency_p90_ms".into(), percentile(&latencies, 0.9).unwrap_or(0.0));
    let attempted = samples.len() as u64;
    values.insert("success_rate".into(), 1.0 - failed as f64 / attempted.max(1) as f64);
    eprintln!(
        "{} requests, p50 {:.2} ms, p90 {:.2} ms, p99 {:.2} ms, late max {late_max:.2} ms",
        samples.len(),
        percentile(&latencies, 0.5).unwrap_or(0.0),
        percentile(&latencies, 0.9).unwrap_or(0.0),
        percentile(&latencies, 0.99).unwrap_or(0.0)
    );
    if traced {
        layer_metrics(&mut values, stack, &schedule, &samples, &trace_ids, &before)?;
        values.insert("loadgen.late_ms_max".into(), late_max);
        values.insert("loadgen.samples".into(), samples.len() as f64);
    }
    Ok(Outcome { correct: failed == 0 && !behind, attempted, failed, values })
}

/// The events of a wire-format span list with this name.
fn named<'a>(spans: &'a [Value], name: &'a str) -> impl Iterator<Item = &'a Value> {
    spans.iter().filter(move |e| e.get("name").and_then(Value::as_str) == Some(name))
}

/// Nearest-rank percentile of unsorted values, 0 when there are none.
fn p(values: &[f64], q: f64) -> f64 {
    percentile(&sorted(values), q).unwrap_or(0.0)
}

/// Per-layer metrics of a traced load: client timings by request kind,
/// the router's and shards' flight-recorder fragments, and the shards'
/// `stats` counters over the load.
fn layer_metrics(
    values: &mut Values,
    stack: &Stack,
    schedule: &[(usize, &MixRequest)],
    samples: &[Sample],
    trace_ids: &[Option<String>],
    before: &[Value],
) -> Result<(), String> {
    let service = |pred: &dyn Fn(Kind) -> bool| -> Vec<f64> {
        samples.iter().filter(|s| pred(schedule[s.index].1.kind)).map(|s| s.service_ms).collect()
    };
    let hits = service(&|k| k == Kind::Hit);
    let edits = service(&|k| matches!(k, Kind::Comment | Kind::AddClass));
    values.insert(
        "client.connect_ms_p50".into(),
        p(&samples.iter().map(|s| s.connect_ms).collect::<Vec<_>>(), 0.5),
    );
    values.insert("client.hit_ms_p50".into(), p(&hits, 0.5));
    values.insert("client.hit_ms_p99".into(), p(&hits, 0.99));
    values.insert("client.variant_ms_p50".into(), p(&service(&|k| k == Kind::Variant), 0.5));
    values.insert("client.edit_ms_p50".into(), p(&edits, 0.5));
    values.insert("client.edit_ms_p99".into(), p(&edits, 0.99));
    let (traced, untraced): (Vec<&Sample>, Vec<&Sample>) =
        samples.iter().partition(|s| trace_ids[s.index].is_some());
    let med = |v: &[&Sample]| median(&v.iter().map(|s| s.service_ms).collect::<Vec<_>>());
    values.insert("obs.overhead_frac".into(), med(&traced) / med(&untraced) - 1.0);

    // Router: its own flight-recorder summaries give each hop's elapsed.
    let mut router = adapter::connect(&stack.router.addr)?;
    let summaries = adapter::last_traces(&mut router)?;
    let elapsed_ms: HashMap<String, f64> = summaries
        .iter()
        .filter_map(|t| {
            Some((t.get("trace_id")?.as_str()?.to_string(), num(t, &["elapsed_us"]) / 1e3))
        })
        .collect();
    let mut router_ms = Vec::new();
    let mut outside_ms = Vec::new();
    for s in &traced {
        let id = trace_ids[s.index].as_deref().expect("traced");
        let elapsed = elapsed_ms.get(id).ok_or(format!("router lost trace {id}"))?;
        router_ms.push(*elapsed);
        outside_ms.push(s.service_ms - elapsed);
    }
    values.insert("router.elapsed_ms_p50".into(), median(&router_ms));
    values.insert("router.outside_ms_p50".into(), median(&outside_ms));
    let router_stats = adapter::stats(&stack.router.addr)?;
    let shard_rows =
        router_stats.get("shards").and_then(Value::as_array).cloned().unwrap_or_default();
    for key in ["forwarded", "failovers", "retried"] {
        values.insert(format!("router.{key}"), shard_sum(&shard_rows, &[key]));
    }

    // Shards: queue wait, run and cache-probe time from their fragments.
    let mut shard_clients =
        stack.shards.iter().map(|s| adapter::connect(&s.addr)).collect::<Result<Vec<_>, _>>()?;
    let (mut wait_ms, mut run_ms, mut probe_ms) = (Vec::new(), Vec::new(), Vec::new());
    for s in &traced {
        let id = trace_ids[s.index].as_deref().expect("traced");
        let fragment = shard_clients
            .iter_mut()
            .find_map(|c| adapter::trace_fragments(c, id).ok()?.into_iter().next())
            .ok_or(format!("no shard kept trace {id}"))?;
        let spans = fragment.get("spans").and_then(Value::as_array).cloned().unwrap_or_default();
        let dur_ms = |name: &str| named(&spans, name).map(|e| num(e, &["dur"]) / 1e3).sum::<f64>();
        wait_ms.push(dur_ms("queue.wait"));
        run_ms.push(dur_ms("run"));
        let run_start = named(&spans, "run").map(|e| num(e, &["ts"])).next().unwrap_or(0.0);
        let last_probe =
            named(&spans, "cache.probe").map(|e| num(e, &["ts"])).fold(run_start, f64::max);
        probe_ms.push((last_probe - run_start) / 1e3);
    }
    values.insert("server.queue_wait_ms_p99".into(), p(&wait_ms, 0.99));
    values.insert("server.run_ms_p50".into(), p(&run_ms, 0.5));
    values.insert("server.cache_probe_ms_p50".into(), p(&probe_ms, 0.5));

    // Shard counters over the load (after minus before).
    let after = shard_stats(stack)?;
    let delta = |path: &[&str]| shard_sum(&after, path) - shard_sum(before, path);
    for (name, path) in [
        ("server.prepare_runs", &["prepare_runs"][..]),
        ("server.phase1_runs", &["phase1_runs"]),
        ("server.phase2_runs", &["phase2_runs"]),
        ("server.shed", &["requests_shed"]),
        ("server.timeouts", &["timeouts"]),
        ("cache.evictions", &["cache", "evictions"]),
        ("store.write_errors", &["store", "write_errors"]),
    ] {
        values.insert(name.into(), delta(path));
    }
    let ratio =
        |hits: f64, misses: f64| if hits + misses > 0.0 { hits / (hits + misses) } else { 0.0 };
    for tier in ["report", "phase1", "prepared"] {
        let h = delta(&["cache_tiers", tier, "hits"]);
        let m = delta(&["cache_tiers", tier, "misses"]);
        values.insert(format!("cache.hit_ratio.{tier}"), ratio(h, m));
    }
    values.insert(
        "store.hit_ratio".into(),
        ratio(delta(&["store", "hits"]), delta(&["store", "misses"])),
    );
    values.insert("store.entries".into(), shard_sum(&after, &["store", "entries"]));
    values.insert("store.open_s".into(), shard_sum(&after, &["store", "open_micros"]) / 1e6);
    Ok(())
}
