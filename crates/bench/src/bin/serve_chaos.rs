//! Chaos harness for the serving stack: kills and restarts a shard under
//! live load, floods an undersized daemon past its admission queue, and
//! asserts the one invariant that matters — **errors, never wrong
//! answers**. Emits `BENCH_chaos.json` and exits non-zero on any
//! violated invariant so CI can gate on it.
//!
//! Phases:
//!
//! - **baseline** — healthy shards × router: every corpus program is
//!   analyzed once and its report bytes recorded. Reports hold no
//!   wall-clock, so they must be byte-identical forever after.
//! - **chaos** — closed-loop client workers with retry enabled drive the
//!   corpus through the router while shard 0 is shut down mid-load. The
//!   breaker must open, every completed response must match its baseline
//!   bytes, every error must carry an allowed code, and p99 during the
//!   outage must stay bounded (local failover, not 30-second hangs).
//! - **reintegration** — load stops, shard 0 restarts on the *same*
//!   port. The router's background prober alone must walk the breaker
//!   back to `closed`: the shard's `forwarded` counter must not move
//!   until the breaker closes, proving no user request was spent as a
//!   probe. A final pass confirms the healed shard serves baseline bytes
//!   again.
//! - **overload** — a dedicated `workers=1 max_queue=1` daemon is wedged
//!   with `debug_sleep` jobs and hit with an analyze burst: at least one
//!   request must be shed with `overloaded` + a sane `retry_after_ms`,
//!   the shed counter must agree, and a patient retrying client must
//!   eventually get the right answer through the same front door.
//!
//! Usage: `serve_chaos [--quick] [--out PATH] [--shards N] [--clients N]
//!                     [--store-dir DIR]`

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write as IoWrite};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use serde::Value;
use taj_service::{
    route, serve, AnalyzeOpts, Bind, BoundAddr, Client, ClientError, RetryPolicy, RouterOptions,
    RouterTuning, ServeOptions,
};
use taj_webgen::securibench_cases;

/// One shard daemon plus the directory its store persists under.
struct ShardProc {
    handle: taj_service::ServerHandle,
    addr: String,
    store_dir: std::path::PathBuf,
}

fn tcp_addr(bound: &BoundAddr) -> String {
    match bound {
        BoundAddr::Tcp(a) => a.to_string(),
        BoundAddr::Unix(p) => panic!("expected TCP bind, got unix:{}", p.display()),
    }
}

fn shard_options(store_dir: std::path::PathBuf, bind: Bind) -> ServeOptions {
    ServeOptions {
        bind,
        workers: 2,
        cache_bytes: 64 << 20,
        default_timeout_ms: None,
        debug: false,
        store_dir: Some(store_dir),
        store_bytes: 256 << 20,
        max_queue: 0,
        flight_records: 64,
        slow_ms: None,
    }
}

fn start_shards(store_base: &std::path::Path, shards: usize) -> Vec<ShardProc> {
    (0..shards)
        .map(|i| {
            let store_dir = store_base.join(format!("shard{i}"));
            let options = shard_options(store_dir.clone(), Bind::Tcp("127.0.0.1:0".to_string()));
            let handle = serve(options).expect("start shard");
            let addr = tcp_addr(handle.addr());
            ShardProc { handle, addr, store_dir }
        })
        .collect()
}

/// Breaker tuning fast enough for a harness that runs in seconds: two
/// consecutive failures trip a shard, probes fire every 25 ms, and a
/// tripped shard is re-probed after 200 ms of cooldown.
fn chaos_tuning() -> RouterTuning {
    RouterTuning {
        failure_threshold: 2,
        cooldown_ms: 200,
        probe_interval_ms: 25,
        ..RouterTuning::default()
    }
}

fn start_router(shards: &[ShardProc]) -> (taj_service::RouterHandle, String) {
    let options = RouterOptions {
        bind: Bind::Tcp("127.0.0.1:0".to_string()),
        shards: shards.iter().map(|s| s.addr.clone()).collect(),
        default_timeout_ms: None,
        tuning: chaos_tuning(),
        flight_records: 64,
        trace_out: None,
    };
    let handle = route(options).expect("start router");
    let addr = tcp_addr(handle.addr());
    (handle, addr)
}

/// A report's bytes — identical whether a shard or the router's
/// local-failover engine computed it, and whenever it was computed.
fn report_bytes(result: Value) -> String {
    serde_json::to_string(&result).expect("serialize report")
}

/// Error codes a degraded system is allowed to answer with. Anything
/// else — and any `ok` response whose bytes differ from baseline — is a
/// wrong answer.
fn error_allowed(e: &ClientError) -> bool {
    match e {
        ClientError::Io(_) => true,
        ClientError::Remote { code, .. } => {
            matches!(code.as_str(), "overloaded" | "shutting_down" | "timeout")
        }
        ClientError::Protocol(_) => false,
    }
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted_ms.len() as f64 * p).ceil() as usize).clamp(1, sorted_ms.len()) - 1;
    sorted_ms[idx]
}

fn router_stats(router_addr: &str) -> Value {
    let mut client = Client::connect_tcp(router_addr).expect("connect for router stats");
    client.stats().expect("router stats")
}

fn shard_stat(stats: &Value, shard: usize, key: &str) -> u64 {
    stats["shards"][shard][key].as_u64().unwrap_or(0)
}

fn shard_state(stats: &Value, shard: usize) -> String {
    stats["shards"][shard]["state"].as_str().unwrap_or("?").to_string()
}

/// Outcome tallies shared by the chaos-phase workers.
#[derive(Default)]
struct ChaosTally {
    wrong_answers: AtomicUsize,
    allowed_errors: AtomicUsize,
    disallowed_errors: AtomicUsize,
}

/// Latency sample: milliseconds plus whether shard 0 was down when the
/// request was issued.
type Sample = (f64, bool);

#[allow(clippy::too_many_arguments)]
fn spawn_chaos_workers(
    router_addr: &str,
    corpus: &Arc<Vec<String>>,
    baseline: &Arc<Vec<String>>,
    clients: usize,
    stop: &Arc<AtomicBool>,
    down: &Arc<AtomicBool>,
    tally: &Arc<ChaosTally>,
    samples: &Arc<Mutex<Vec<Sample>>>,
) -> Vec<std::thread::JoinHandle<()>> {
    (0..clients)
        .map(|w| {
            let addr = router_addr.to_string();
            let corpus = Arc::clone(corpus);
            let baseline = Arc::clone(baseline);
            let stop = Arc::clone(stop);
            let down = Arc::clone(down);
            let tally = Arc::clone(tally);
            let samples = Arc::clone(samples);
            std::thread::spawn(move || {
                let mut client =
                    Client::connect_tcp(&addr).expect("connect chaos worker").with_retry(
                        RetryPolicy { max_attempts: 4, base_backoff_ms: 10, max_backoff_ms: 200 },
                    );
                let _ = client.set_io_timeout(Some(Duration::from_secs(10)));
                let opts = AnalyzeOpts::default();
                let mut k = w;
                while !stop.load(Ordering::SeqCst) {
                    let idx = k % corpus.len();
                    k += 1;
                    let was_down = down.load(Ordering::SeqCst);
                    let t = Instant::now();
                    match client.analyze(&corpus[idx], &opts) {
                        Ok(result) => {
                            let ms = t.elapsed().as_secs_f64() * 1e3;
                            if report_bytes(result) == baseline[idx] {
                                samples.lock().expect("samples lock").push((ms, was_down));
                            } else {
                                tally.wrong_answers.fetch_add(1, Ordering::SeqCst);
                                eprintln!("WRONG ANSWER: program {idx} diverged from baseline");
                            }
                        }
                        Err(e) if error_allowed(&e) => {
                            tally.allowed_errors.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(e) => {
                            tally.disallowed_errors.fetch_add(1, Ordering::SeqCst);
                            eprintln!("DISALLOWED ERROR: program {idx}: {e:?}");
                        }
                    }
                }
            })
        })
        .collect()
}

/// Waits until `pred` holds over fresh router stats, or panics after
/// `timeout`.
fn await_stats(
    router_addr: &str,
    timeout: Duration,
    what: &str,
    mut pred: impl FnMut(&Value) -> bool,
) -> Value {
    let t0 = Instant::now();
    loop {
        let stats = router_stats(router_addr);
        if pred(&stats) {
            return stats;
        }
        assert!(t0.elapsed() < timeout, "timed out waiting for {what}: {stats:?}");
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Results of the overload phase against the undersized daemon.
struct OverloadResult {
    burst: usize,
    shed_observed: usize,
    hint_min: u64,
    hint_max: u64,
    requests_shed_stat: u64,
    patient_retry_ok: bool,
}

/// Wedges a `workers=1 max_queue=1` daemon with sleeper jobs, then
/// bursts analyze requests at it: the overflow must be shed with
/// `overloaded` + `retry_after_ms`, and a patient retrying client must
/// still get through once the sleepers drain.
fn overload_phase(program: &str, baseline_bytes: &str) -> OverloadResult {
    let options = ServeOptions {
        bind: Bind::Tcp("127.0.0.1:0".to_string()),
        workers: 1,
        cache_bytes: 16 << 20,
        default_timeout_ms: None,
        debug: true,
        store_dir: None,
        store_bytes: 0,
        max_queue: 1,
        flight_records: 16,
        slow_ms: None,
    };
    let handle = serve(options).expect("start overload daemon");
    let addr = tcp_addr(handle.addr());

    // Wedge: one sleeper occupies the single worker, a second fills the
    // admission queue. The raw streams are parked unread so the jobs
    // stay in flight.
    let mut sleepers = Vec::new();
    for (id, ms) in [(1u64, 1_500u64), (2, 400)] {
        let mut stream = TcpStream::connect(&addr).expect("connect sleeper");
        let line = format!("{{\"id\":{id},\"cmd\":\"debug_sleep\",\"ms\":{ms}}}\n");
        stream.write_all(line.as_bytes()).expect("send sleeper");
        stream.flush().expect("flush sleeper");
        sleepers.push(stream);
        std::thread::sleep(Duration::from_millis(150));
    }

    // Burst: every submission past the full queue must bounce with
    // `overloaded`, an id echo, and a retry hint — shed work is an
    // error, never a hang and never a wrong answer.
    let burst = 6;
    let mut shed_observed = 0;
    let (mut hint_min, mut hint_max) = (u64::MAX, 0u64);
    for k in 0..burst {
        let mut client = Client::connect_tcp(&addr).expect("connect burst client");
        client.set_retry(RetryPolicy::none());
        let opts = AnalyzeOpts::default();
        match client.analyze(program, &opts) {
            Ok(result) => {
                assert_eq!(
                    report_bytes(result),
                    baseline_bytes,
                    "overload burst request {k} completed with non-baseline bytes"
                );
            }
            Err(ClientError::Remote { code, retry_after_ms, .. }) if code == "overloaded" => {
                shed_observed += 1;
                let hint = retry_after_ms.expect("shed response must carry retry_after_ms");
                assert!((1..=1_000).contains(&hint), "retry_after_ms {hint} out of range");
                hint_min = hint_min.min(hint);
                hint_max = hint_max.max(hint);
            }
            Err(e) => panic!("overload burst request {k} failed with unexpected error: {e:?}"),
        }
    }

    // Self-healing: a patient client retries through the `overloaded`
    // rejections (honoring the hint) and lands the right answer once
    // the sleepers drain.
    let mut patient = Client::connect_tcp(&addr)
        .expect("connect patient client")
        .with_retry(RetryPolicy { max_attempts: 10, base_backoff_ms: 100, max_backoff_ms: 2_000 });
    let opts = AnalyzeOpts::default();
    let patient_retry_ok = match patient.analyze(program, &opts) {
        Ok(result) => report_bytes(result) == baseline_bytes,
        Err(e) => panic!("patient retry never got through: {e:?}"),
    };

    let mut stats_client = Client::connect_tcp(&addr).expect("connect stats client");
    let stats = stats_client.stats().expect("overload daemon stats");
    let requests_shed_stat = stats["requests_shed"].as_u64().unwrap_or(0);
    let metrics = stats_client.metrics().expect("overload daemon metrics");
    assert!(
        metrics.contains("taj_requests_shed_total"),
        "metrics must export taj_requests_shed_total"
    );

    // Drain the sleepers' responses so their conns close cleanly.
    for stream in sleepers {
        let mut line = String::new();
        let _ = BufReader::new(stream).read_line(&mut line);
    }
    let _ = stats_client.shutdown();
    handle.join();

    OverloadResult {
        burst,
        shed_observed,
        hint_min: if shed_observed == 0 { 0 } else { hint_min },
        hint_max,
        requests_shed_stat,
        patient_retry_ok,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let arg =
        |name: &str| args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned();
    let num = |name: &str, default: usize| -> usize {
        arg(name)
            .map_or(default, |v| v.parse().unwrap_or_else(|_| panic!("{name} takes an integer")))
    };
    let out_path = arg("--out").unwrap_or_else(|| "BENCH_chaos.json".to_string());
    let shard_count = num("--shards", 2).max(2);
    let clients = num("--clients", if quick { 2 } else { 3 });
    let store_base = arg("--store-dir").map_or_else(
        || std::env::temp_dir().join(format!("taj-serve-chaos-{}", std::process::id())),
        std::path::PathBuf::from,
    );

    let cases = securibench_cases();
    let take = if quick { 4 } else { 10.min(cases.len()) };
    let corpus: Vec<String> = cases.iter().take(take).map(|c| c.source.clone()).collect();
    let corpus = Arc::new(corpus);
    eprintln!(
        "serve_chaos: {} programs, {shard_count} shards, {clients} clients, stores under {}",
        corpus.len(),
        store_base.display()
    );

    // Baseline: healthy fleet, report bytes per program.
    let mut shards = start_shards(&store_base, shard_count);
    let (router, router_addr) = start_router(&shards);
    let mut baseline_client = Client::connect_tcp(&router_addr).expect("connect baseline client");
    let opts = AnalyzeOpts::default();
    let mut baseline = Vec::with_capacity(corpus.len());
    let mut baseline_ms: Vec<f64> = Vec::with_capacity(corpus.len());
    for source in corpus.iter() {
        let t = Instant::now();
        let result = baseline_client.analyze(source, &opts).expect("baseline analyze");
        baseline_ms.push(t.elapsed().as_secs_f64() * 1e3);
        baseline.push(report_bytes(result));
    }
    baseline_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let baseline = Arc::new(baseline);
    eprintln!(
        "baseline: {} programs, p50 {:.1} ms, p99 {:.1} ms",
        baseline.len(),
        percentile(&baseline_ms, 0.5),
        percentile(&baseline_ms, 0.99)
    );

    // Chaos: live load, then shard 0 dies mid-flight.
    let stop = Arc::new(AtomicBool::new(false));
    let down = Arc::new(AtomicBool::new(false));
    let tally = Arc::new(ChaosTally::default());
    let samples: Arc<Mutex<Vec<Sample>>> = Arc::new(Mutex::new(Vec::new()));
    let workers = spawn_chaos_workers(
        &router_addr,
        &corpus,
        &baseline,
        clients,
        &stop,
        &down,
        &tally,
        &samples,
    );

    std::thread::sleep(Duration::from_millis(400));
    let shard0 = shards.remove(0);
    let shard0_addr = shard0.addr.clone();
    let shard0_store = shard0.store_dir.clone();
    {
        let mut killer = Client::connect_tcp(&shard0_addr).expect("connect for shard kill");
        let _ = killer.shutdown();
    }
    down.store(true, Ordering::SeqCst);
    eprintln!("chaos: shard 0 ({shard0_addr}) shut down under load");

    let opened = await_stats(&router_addr, Duration::from_secs(10), "breaker to open", |s| {
        shard_state(s, 0) == "open"
    });
    eprintln!(
        "chaos: breaker opened after {} trip(s), {} failover(s) so far",
        shard_stat(&opened, 0, "opens"),
        shard_stat(&opened, 0, "failovers")
    );

    // Keep the outage window under load so the down-window percentiles
    // mean something, then stop before the shard comes back.
    std::thread::sleep(Duration::from_millis(if quick { 800 } else { 1_500 }));
    stop.store(true, Ordering::SeqCst);
    for w in workers {
        let _ = w.join();
    }
    shard0.handle.join();

    let down_stats = router_stats(&router_addr);
    let forwarded_while_down = shard_stat(&down_stats, 0, "forwarded");
    let probes_before_restart = shard_stat(&down_stats, 0, "probes");

    // Reintegration: same port, same store, zero user requests risked.
    let mut restarted = None;
    for attempt in 0..20 {
        match serve(shard_options(shard0_store.clone(), Bind::Tcp(shard0_addr.clone()))) {
            Ok(handle) => {
                restarted = Some(handle);
                break;
            }
            Err(e) => {
                assert!(attempt < 19, "could not rebind shard 0 on {shard0_addr}: {e}");
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
    let restarted = restarted.expect("restart shard 0");
    let closed = await_stats(&router_addr, Duration::from_secs(10), "breaker to close", |s| {
        shard_state(s, 0) == "closed"
    });
    let probes_total = shard_stat(&closed, 0, "probes");
    let forwarded_at_close = shard_stat(&closed, 0, "forwarded");
    assert!(
        probes_total > probes_before_restart,
        "reintegration must be driven by background probes"
    );
    assert_eq!(
        forwarded_at_close, forwarded_while_down,
        "no user request may be forwarded to a shard before its breaker closes"
    );
    eprintln!(
        "reintegration: breaker closed after {} probe(s), forwarded held at {}",
        probes_total, forwarded_at_close
    );

    // Recovery pass: the healed fleet serves baseline bytes again and
    // shard 0 is genuinely back in rotation.
    let mut recovery_errors = 0usize;
    for (idx, source) in corpus.iter().enumerate() {
        match baseline_client.analyze(source, &opts) {
            Ok(result) => assert_eq!(
                report_bytes(result),
                baseline[idx],
                "recovery pass diverged from baseline on program {idx}"
            ),
            Err(_) => recovery_errors += 1,
        }
    }
    assert_eq!(recovery_errors, 0, "recovery pass must complete without errors");
    let final_stats = router_stats(&router_addr);
    assert!(
        shard_stat(&final_stats, 0, "forwarded") > forwarded_while_down,
        "restarted shard 0 must serve traffic again"
    );

    // Forensics: a traced request through the healed fleet must be
    // reconstructable end-to-end — the router's flight recorder plus the
    // serving shard's stitch into one cross-process trace.
    let trace_id = "chaos-forensics-1";
    let traced_opts =
        AnalyzeOpts { trace_id: Some(trace_id.to_string()), ..AnalyzeOpts::default() };
    baseline_client.analyze(&corpus[0], &traced_opts).expect("traced analyze");
    let trace = baseline_client.trace(trace_id).expect("fetch trace from router");
    let fragments = taj_service::fragments_of(&trace);
    let trace_processes: Vec<String> = fragments
        .iter()
        .filter_map(|f| f.get("process").and_then(Value::as_str))
        .map(str::to_string)
        .collect();
    assert!(
        trace_processes.iter().any(|p| p == "router")
            && trace_processes.iter().any(|p| p.starts_with("shard")),
        "stitched trace must span router and shard processes: {trace_processes:?}"
    );
    let stitched = taj_service::stitch_fragments(&fragments);
    assert!(stitched.contains("\"traceEvents\""), "stitched trace must be Chrome trace JSON");
    eprintln!("forensics: trace {trace_id} stitched across {trace_processes:?}");

    router.request_shutdown();
    router.join();
    for shard in &shards {
        let mut client = Client::connect_tcp(&shard.addr).expect("connect for shutdown");
        let _ = client.shutdown();
    }
    for shard in shards {
        shard.handle.join();
    }
    {
        let mut client = Client::connect_tcp(&shard0_addr).expect("connect restarted shard");
        let _ = client.shutdown();
    }
    restarted.join();

    // Chaos-phase verdicts.
    let mut all_ms: Vec<f64> = Vec::new();
    let mut down_ms: Vec<f64> = Vec::new();
    for (ms, was_down) in samples.lock().expect("samples lock").iter() {
        all_ms.push(*ms);
        if *was_down {
            down_ms.push(*ms);
        }
    }
    all_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    down_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let wrong_answers = tally.wrong_answers.load(Ordering::SeqCst);
    let allowed_errors = tally.allowed_errors.load(Ordering::SeqCst);
    let disallowed_errors = tally.disallowed_errors.load(Ordering::SeqCst);
    let p99_down = percentile(&down_ms, 0.99);
    eprintln!(
        "chaos: {} completed ({} during outage), p99 {:.1} ms, outage p99 {:.1} ms, \
         {} allowed error(s), {} wrong answer(s)",
        all_ms.len(),
        down_ms.len(),
        percentile(&all_ms, 0.99),
        p99_down,
        allowed_errors,
        wrong_answers
    );

    // Overload: admission control on an undersized daemon.
    let overload = overload_phase(&corpus[0], &baseline[0]);
    eprintln!(
        "overload: {}/{} burst requests shed (hints {}..={} ms), daemon counted {}, \
         patient retry {}",
        overload.shed_observed,
        overload.burst,
        overload.hint_min,
        overload.hint_max,
        overload.requests_shed_stat,
        if overload.patient_retry_ok { "succeeded" } else { "FAILED" }
    );

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"suite\": \"webgen-securibench-chaos\",");
    let _ = writeln!(json, "  \"programs\": {},", corpus.len());
    let _ = writeln!(json, "  \"shards\": {shard_count},");
    let _ = writeln!(json, "  \"clients\": {clients},");
    json.push_str("  \"chaos\": {\n");
    let _ = writeln!(json, "    \"completed\": {},", all_ms.len());
    let _ = writeln!(json, "    \"completed_during_outage\": {},", down_ms.len());
    let _ = writeln!(json, "    \"wrong_answers\": {wrong_answers},");
    let _ = writeln!(json, "    \"allowed_errors\": {allowed_errors},");
    let _ = writeln!(json, "    \"disallowed_errors\": {disallowed_errors},");
    let _ = writeln!(
        json,
        "    \"latency_ms\": {{\"p50\": {:.3}, \"p99\": {:.3}}},",
        percentile(&all_ms, 0.50),
        percentile(&all_ms, 0.99)
    );
    let _ = writeln!(
        json,
        "    \"outage_latency_ms\": {{\"p50\": {:.3}, \"p99\": {:.3}}}",
        percentile(&down_ms, 0.50),
        p99_down
    );
    json.push_str("  },\n");
    json.push_str("  \"reintegration\": {\n");
    let _ = writeln!(json, "    \"probes\": {probes_total},");
    let _ = writeln!(json, "    \"opens\": {},", shard_stat(&closed, 0, "opens"));
    let _ = writeln!(json, "    \"forwarded_while_down\": {forwarded_while_down},");
    let _ = writeln!(json, "    \"forwarded_at_close\": {forwarded_at_close},");
    let _ = writeln!(json, "    \"user_requests_risked\": 0,");
    let _ = writeln!(json, "    \"recovery_errors\": {recovery_errors}");
    json.push_str("  },\n");
    json.push_str("  \"trace\": {\n");
    let _ = writeln!(json, "    \"fragments\": {},", fragments.len());
    let _ = writeln!(
        json,
        "    \"processes\": [{}]",
        trace_processes.iter().map(|p| format!("\"{p}\"")).collect::<Vec<_>>().join(", ")
    );
    json.push_str("  },\n");
    json.push_str("  \"overload\": {\n");
    let _ = writeln!(json, "    \"burst\": {},", overload.burst);
    let _ = writeln!(json, "    \"shed_observed\": {},", overload.shed_observed);
    let _ = writeln!(json, "    \"requests_shed_stat\": {},", overload.requests_shed_stat);
    let _ = writeln!(
        json,
        "    \"retry_after_ms\": {{\"min\": {}, \"max\": {}}},",
        overload.hint_min, overload.hint_max
    );
    let _ = writeln!(json, "    \"patient_retry_succeeded\": {}", overload.patient_retry_ok);
    json.push_str("  }\n}\n");
    std::fs::write(&out_path, &json).expect("write benchmark output");
    eprintln!("wrote {out_path}");

    // Hard verdicts — any violation is a broken robustness contract.
    let mut failed = false;
    if wrong_answers > 0 {
        eprintln!("FAIL: {wrong_answers} completed response(s) diverged from baseline");
        failed = true;
    }
    if disallowed_errors > 0 {
        eprintln!("FAIL: {disallowed_errors} error(s) carried a disallowed code");
        failed = true;
    }
    if down_ms.is_empty() {
        eprintln!("FAIL: no requests completed during the outage window");
        failed = true;
    }
    if p99_down.is_nan() || p99_down > 10_000.0 {
        eprintln!("FAIL: outage p99 {p99_down:.1} ms is unbounded");
        failed = true;
    }
    if overload.shed_observed == 0 || overload.requests_shed_stat == 0 {
        eprintln!("FAIL: overload phase shed nothing");
        failed = true;
    }
    if !overload.patient_retry_ok {
        eprintln!("FAIL: patient retry did not recover the baseline answer");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    let _ = std::fs::remove_dir_all(&store_base);
}
