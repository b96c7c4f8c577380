//! The benchmark's one adapter onto the system under test. Every call
//! into the `taj_core` driver and into `taj_service` goes through this
//! module, so a change to the public entry points edits this file only.
//! It calls the public pipeline stages as they are; it never rebuilds
//! the pipeline from crate internals.

use std::io;
use std::path::Path;

use serde::Value;
use taj_core::{
    analyze_with_phase1_opts, prepare_traced, run_phase1_traced, DeploymentDescriptor, Phase1,
    PreparedProgram, RuleSet, RunOptions, Supervisor, TajError,
};
use taj_service::{
    route, serve, AnalyzeOpts, Bind, BoundAddr, Client, RouterHandle, RouterOptions, RouterTuning,
    ServeOptions, ServerHandle,
};

pub use taj_core::{score, Recorder, Score, TajConfig, TajReport};

/// The seven configurations, in Table 1 order.
pub fn configs() -> Vec<TajConfig> {
    TajConfig::all()
}

/// Frontend and modeling passes (`prepare`), with the default rules.
pub fn prepare(
    source: &str,
    descriptor: Option<&DeploymentDescriptor>,
    recorder: &Recorder,
) -> Result<PreparedProgram, String> {
    prepare_traced(source, descriptor, RuleSet::default_rules(), recorder)
        .map_err(|e| e.to_string())
}

/// Phase 1: pointer analysis and call graph under `config`'s settings.
pub fn phase1(prepared: &PreparedProgram, config: &TajConfig, recorder: &Recorder) -> Phase1 {
    run_phase1_traced(prepared, config, &Supervisor::new(), recorder)
}

/// Whether phase 1 stopped at the call-graph node budget (§6.1).
pub fn cg_budget_hit(phase1: &Phase1) -> bool {
    phase1.pts.budget_exhausted
}

/// Phase 2 on one thread, as the CLI runs it with `--threads 1`.
/// `Ok(None)` is the CS slicer's out-of-memory verdict (the paper's `-`).
pub fn phase2(
    prepared: &PreparedProgram,
    phase1: &Phase1,
    config: &TajConfig,
    recorder: &Recorder,
) -> Result<Option<TajReport>, String> {
    let opts = RunOptions { threads: 1, recorder: recorder.clone(), ..RunOptions::default() };
    match analyze_with_phase1_opts(prepared, phase1, config, &opts) {
        Ok(report) => Ok(Some(report)),
        Err(TajError::OutOfMemory { .. }) => Ok(None),
        Err(e) => Err(e.to_string()),
    }
}

/// Renders a report as text, JSON and SARIF; returns the bytes written.
pub fn render(report: &TajReport) -> Result<usize, String> {
    let text = taj_core::to_text(report);
    let json = serde_json::to_string(report).map_err(|e| e.to_string())?;
    let sarif = taj_core::to_sarif(report).map_err(|e| e.to_string())?;
    Ok(std::hint::black_box(text.len() + json.len() + sarif.len()))
}

/// The verdict part of a report, `(findings, flows)`, as the JSON the
/// daemon would send for it. Statistics are deliberately left out.
pub fn verdict_of(report: &TajReport) -> Result<(Value, Value), String> {
    let text = serde_json::to_string(report).map_err(|e| e.to_string())?;
    verdict_of_json(&serde_json::from_str(&text).map_err(|e| e.to_string())?)
}

/// The `(findings, flows)` pair of a report JSON value.
pub fn verdict_of_json(report: &Value) -> Result<(Value, Value), String> {
    match (report.get("findings"), report.get("flows")) {
        (Some(findings), Some(flows)) => Ok((findings.clone(), flows.clone())),
        _ => Err("report has no findings/flows".to_string()),
    }
}

/// A running in-process shard daemon.
pub struct Shard {
    handle: ServerHandle,
    pub addr: String,
}

/// A running in-process router.
pub struct Router {
    handle: RouterHandle,
    pub addr: String,
}

fn tcp_addr(bound: &BoundAddr) -> io::Result<String> {
    match bound {
        BoundAddr::Tcp(a) => Ok(a.to_string()),
        BoundAddr::Unix(_) => Err(io::Error::other("expected a TCP address")),
    }
}

/// Starts a shard daemon on an ephemeral port with one worker, a
/// 256 MiB cache (large enough that nothing is evicted) and a disk store.
pub fn start_shard(store_dir: &Path, flight_records: usize) -> io::Result<Shard> {
    let handle = serve(ServeOptions {
        workers: 1,
        cache_bytes: 256 << 20,
        store_dir: Some(store_dir.to_path_buf()),
        flight_records,
        ..ServeOptions::tcp_ephemeral()
    })?;
    let addr = tcp_addr(handle.addr())?;
    Ok(Shard { handle, addr })
}

/// Starts a router over `shards` on an ephemeral port.
pub fn start_router(shards: &[Shard], flight_records: usize) -> io::Result<Router> {
    let handle = route(RouterOptions {
        bind: Bind::Tcp("127.0.0.1:0".to_string()),
        shards: shards.iter().map(|s| s.addr.clone()).collect(),
        default_timeout_ms: None,
        tuning: RouterTuning::default(),
        flight_records,
        trace_out: None,
    })?;
    let addr = tcp_addr(handle.addr())?;
    Ok(Router { handle, addr })
}

/// Stops one shard and waits for it to exit.
pub fn stop_shard(shard: Shard) {
    shard.handle.request_shutdown();
    shard.handle.join();
}

/// Stops the router, then every shard, and waits for each to exit.
pub fn stop(router: Router, shards: Vec<Shard>) {
    router.handle.request_shutdown();
    router.handle.join();
    shards.into_iter().for_each(stop_shard);
}

/// Opens a fresh client connection, as `taj client` does per command.
pub fn connect(addr: &str) -> Result<Client, String> {
    Client::connect_tcp(addr).map_err(|e| format!("connect {addr}: {e}"))
}

/// One `analyze` request on one thread; returns the report JSON.
pub fn analyze(
    client: &mut Client,
    source: &str,
    config: &str,
    degrade: bool,
    trace_id: Option<String>,
) -> Result<Value, String> {
    let opts = AnalyzeOpts {
        config: Some(config.to_string()),
        degrade,
        threads: Some(1),
        trace_id,
        ..AnalyzeOpts::default()
    };
    client.analyze(source, &opts).map_err(|e| e.to_string())
}

/// `stats` of a shard or router.
pub fn stats(addr: &str) -> Result<Value, String> {
    connect(addr)?.stats().map_err(|e| e.to_string())
}

/// Every flight-recorder summary a process retains, newest first.
pub fn last_traces(client: &mut Client) -> Result<Vec<Value>, String> {
    let traces = client.last_traces(None).map_err(|e| e.to_string())?;
    Ok(traces.get("traces").and_then(Value::as_array).cloned().unwrap_or_default())
}

/// The span fragments one process (or, through the router, every hop)
/// retained for `trace_id`.
pub fn trace_fragments(client: &mut Client, trace_id: &str) -> Result<Vec<Value>, String> {
    let trace = client.trace(trace_id).map_err(|e| e.to_string())?;
    Ok(taj_service::fragments_of(&trace))
}
