//! The shard router: a thin front-end that speaks the same NDJSON
//! protocol as the daemon and fans requests out to N backend daemons.
//!
//! Routing is content-addressed, mirroring the cache keys: a request
//! lands on shard `(hash(source) ^ hash(rules)) % N`, so repeats of the
//! same program always reach the daemon whose cache (and persistent
//! store) already holds its artifacts. Horizontal scaling therefore
//! multiplies both worker capacity *and* effective cache capacity —
//! shards never duplicate each other's hot entries.
//!
//! `analyze` lines are forwarded to their shard **verbatim**, so the
//! response bytes a client sees through the router are identical to a
//! direct connection. `batch` envelopes are split per shard, forwarded
//! as sub-batches, and merged back in item order.
//!
//! Shard failure handling is a circuit breaker per shard (see
//! [`crate::breaker`]): transport failures are retried with backoff up
//! to [`RouterTuning::forward_attempts`]; when a shard keeps failing,
//! its breaker opens and requests fail over to a local, cache-free
//! analysis immediately — the router degrades to a slower answer, never
//! an error. A background prober thread issues cheap `configs` pings to
//! open breakers after their cooldown, so a restarted shard is
//! reintegrated by synthetic traffic, not by sacrificing user requests.
//! An `overloaded` rejection from a shard is *not* a breaker failure:
//! it is retried once after the shard's `retry_after_ms` hint and then
//! relayed to the client — failing over would amplify the overload the
//! shard just shed.
//!
//! The router holds no analysis state of its own: `configs` is answered
//! locally (it is static), `stats`/`metrics` report the router's own
//! counters plus per-shard health, and `shutdown` drains the router
//! only — backends are managed by whoever started them.

use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde::Value;
use taj_core::{Recorder, Supervisor};
use taj_obs::metrics::{Exposition, Histogram};
use taj_obs::{FlightRecorder, RequestRecord, TraceEvent};

use crate::breaker::{Breaker, BreakerState};
use crate::cache::content_hash;
use crate::client::{Client, RetryPolicy};
use crate::protocol::{
    batch_item_err, batch_item_ok, batch_result_raw, err_response, err_response_traced,
    ok_response_raw, ok_response_raw_traced, parse_request, stamp_trace, AnalyzeRequest,
    BatchRequest, Command, ErrorCode, PROTOCOL_VERSION,
};
use crate::server::{
    accept_loop, analyze_uncached, bind_listener, configs_value, store_fingerprint, Bind,
    BoundAddr, LineHandler,
};
use crate::trace::{fragments_of, relabel_process, stitch_fragments};

/// Router configuration.
#[derive(Clone, Debug)]
pub struct RouterOptions {
    /// Listen address for clients.
    pub bind: Bind,
    /// Backend daemon TCP addresses (`host:port`), one per shard. The
    /// shard count is fixed for the router's lifetime — changing it
    /// remaps keys, which is exactly a cache flush.
    pub shards: Vec<String>,
    /// Deadline applied to local-failover analyses when the request
    /// carries none (forwarded requests use the backend's default).
    pub default_timeout_ms: Option<u64>,
    /// Breaker, retry, and prober knobs.
    pub tuning: RouterTuning,
    /// Flight-recorder capacity for the router's own hop records
    /// (`trace <id>` / `last_traces` answer from this ring). `0`
    /// disables capture.
    pub flight_records: usize,
    /// On shutdown, stitch every retained trace (router record plus any
    /// shard fragments still fetchable) into one Chrome trace JSON file
    /// at this path.
    pub trace_out: Option<PathBuf>,
}

impl RouterOptions {
    /// Ephemeral-TCP options for tests and harnesses: bind
    /// `127.0.0.1:0`, default tuning, the default flight ring, no
    /// shutdown trace file.
    pub fn tcp_ephemeral(shards: Vec<String>) -> RouterOptions {
        RouterOptions {
            bind: Bind::Tcp("127.0.0.1:0".to_string()),
            shards,
            default_timeout_ms: None,
            tuning: RouterTuning::default(),
            flight_records: crate::server::DEFAULT_FLIGHT_RECORDS,
            trace_out: None,
        }
    }
}

/// Breaker, retry, and prober knobs for the router's shard handling.
#[derive(Clone, Debug)]
pub struct RouterTuning {
    /// Consecutive transport failures that open a shard's breaker.
    pub failure_threshold: u32,
    /// Rest before an open breaker may be probed (ms).
    pub cooldown_ms: u64,
    /// How often the background prober scans for probe-ready shards (ms).
    pub probe_interval_ms: u64,
    /// Transport attempts per forward (1 = no retry). Only idempotent
    /// lines reach `forward`, so a resend can never duplicate effects.
    pub forward_attempts: u32,
    /// Base backoff between forward attempts (ms, doubled per retry).
    pub retry_base_ms: u64,
    /// Ceiling on how long the router honors a shard's `retry_after_ms`
    /// hint before relaying the `overloaded` rejection to the client
    /// (ms). The router retries an overloaded shard exactly once.
    pub overload_retry_cap_ms: u64,
    /// Socket read/write timeout on shard connections (ms); bounds how
    /// long a stalled shard can hold a router connection handler.
    pub shard_io_timeout_ms: Option<u64>,
}

impl Default for RouterTuning {
    fn default() -> RouterTuning {
        RouterTuning {
            failure_threshold: 3,
            cooldown_ms: 250,
            probe_interval_ms: 50,
            forward_attempts: 2,
            retry_base_ms: 10,
            overload_retry_cap_ms: 100,
            shard_io_timeout_ms: Some(30_000),
        }
    }
}

/// One backend daemon and its health bookkeeping. The connection is
/// persistent and serialized behind a mutex: the daemon protocol is
/// sequential per socket, so concurrent router connections to the same
/// shard queue here rather than interleaving frames.
///
/// Counters are disjoint by design (the arithmetic is pinned by a
/// test): every `forward` call ends in exactly one of `forwarded`
/// (a response was relayed) or `failovers` (the caller must answer
/// locally); `retried` counts extra transport attempts *within* a
/// forward, on top of either outcome.
struct Shard {
    addr: String,
    conn: Mutex<Option<Client>>,
    breaker: Breaker,
    /// Mirrors "last forward outcome" for stats/metric compatibility;
    /// the breaker (not this flag) decides routing.
    healthy: AtomicBool,
    /// Forward calls that relayed a shard response (success or a shard-
    /// answered error).
    forwarded: AtomicU64,
    /// Forward calls that returned nothing — fast-failed on an open
    /// breaker or exhausted transport attempts — so the caller answered
    /// locally.
    failovers: AtomicU64,
    /// Extra attempts beyond each forward's first (reconnect + resend).
    retried: AtomicU64,
    /// Synthetic `configs` pings issued by the background prober.
    probes: AtomicU64,
    /// Times the breaker tripped open.
    opens: AtomicU64,
}

impl Shard {
    fn new(addr: String, tuning: &RouterTuning) -> Shard {
        Shard {
            addr,
            conn: Mutex::new(None),
            breaker: Breaker::new(
                tuning.failure_threshold,
                Duration::from_millis(tuning.cooldown_ms),
            ),
            healthy: AtomicBool::new(true),
            forwarded: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            retried: AtomicU64::new(0),
            probes: AtomicU64::new(0),
            opens: AtomicU64::new(0),
        }
    }

    /// Sends one raw line and returns the raw response; `None` means the
    /// caller must fail over locally. Exactly one of `forwarded` /
    /// `failovers` is bumped per call. Retry and overload-wait hops are
    /// recorded on `rec` so a stitched trace shows them per request.
    fn forward(&self, line: &str, tuning: &RouterTuning, rec: &Recorder) -> Option<String> {
        let result = self.try_forward(line, tuning, rec);
        match result {
            Some(_) => {
                self.forwarded.fetch_add(1, Ordering::SeqCst);
                self.healthy.store(true, Ordering::SeqCst);
            }
            None => {
                self.failovers.fetch_add(1, Ordering::SeqCst);
                self.healthy.store(false, Ordering::SeqCst);
            }
        }
        result
    }

    fn try_forward(&self, line: &str, tuning: &RouterTuning, rec: &Recorder) -> Option<String> {
        // Open breaker: fail fast. The caller's local failover answers
        // the request; the prober (not this request) tests the shard.
        if !self.breaker.allows_request() {
            if rec.is_enabled() {
                rec.event("router.breaker_open", Vec::new());
            }
            return None;
        }
        let mut guard = self.conn.lock().unwrap_or_else(|e| e.into_inner());
        let Some(first) = self.attempt_loop(line, tuning, rec, &mut guard) else {
            if self.breaker.on_failure(Instant::now()) {
                self.opens.fetch_add(1, Ordering::SeqCst);
            }
            return None;
        };
        // `overloaded` is the shard *working as designed* under
        // pressure, not a failure: honor its hint once, then relay the
        // rejection. Never fail over — local analysis on the router
        // would absorb exactly the load the shard just shed.
        let response = match overload_hint(&first) {
            Some(hint) => {
                self.retried.fetch_add(1, Ordering::SeqCst);
                if rec.is_enabled() {
                    rec.event("router.overload_wait", vec![("hint_ms", hint.into())]);
                }
                std::thread::sleep(Duration::from_millis(hint.min(tuning.overload_retry_cap_ms)));
                // If the retry's transport dies, the original rejection
                // (with its hint) is still the honest answer to relay.
                self.attempt_loop(line, tuning, rec, &mut guard).unwrap_or(first)
            }
            None => first,
        };
        self.breaker.on_success();
        Some(response)
    }

    /// The transport loop: up to `forward_attempts` sends with
    /// exponential backoff, reconnecting a dead cached connection before
    /// each resend. `None` means the shard is unreachable or draining.
    fn attempt_loop(
        &self,
        line: &str,
        tuning: &RouterTuning,
        rec: &Recorder,
        guard: &mut Option<Client>,
    ) -> Option<String> {
        let attempts = tuning.forward_attempts.max(1);
        for attempt in 0..attempts {
            if attempt > 0 {
                self.retried.fetch_add(1, Ordering::SeqCst);
                if rec.is_enabled() {
                    rec.event("router.retry", vec![("attempt", u64::from(attempt).into())]);
                }
                let backoff = tuning.retry_base_ms.saturating_mul(1 << (attempt - 1).min(10));
                std::thread::sleep(Duration::from_millis(backoff));
            }
            if guard.is_none() {
                *guard = self.dial(tuning);
            }
            let Some(client) = guard.as_mut() else { continue };
            match client.request_raw(line) {
                // A draining backend still answers — with a
                // `shutting_down` error (or a batch envelope whose
                // every item is one). That is a shard failure from the
                // client's point of view, not a response worth
                // forwarding.
                Ok(response) if is_draining_error(&response) || batch_fully_draining(&response) => {
                    *guard = None;
                    return None;
                }
                Ok(response) => return Some(response),
                Err(_) => *guard = None,
            }
        }
        None
    }

    fn dial(&self, tuning: &RouterTuning) -> Option<Client> {
        let mut client = Client::connect_tcp(&self.addr).ok()?;
        // The router runs its own attempt loop; nested client retries
        // would multiply it.
        client.set_retry(RetryPolicy::none());
        let timeout = tuning.shard_io_timeout_ms.map(Duration::from_millis);
        client.set_io_timeout(timeout).ok()?;
        Some(client)
    }
}

/// Extracts the `retry_after_ms` hint from an `overloaded` error
/// response; `None` for anything else.
fn overload_hint(response: &str) -> Option<u64> {
    if !response.contains("\"overloaded\"") {
        return None;
    }
    let v: Value = serde_json::from_str(response).ok()?;
    if v["error"]["code"].as_str() != Some("overloaded") {
        return None;
    }
    Some(v["error"]["retry_after_ms"].as_u64().unwrap_or(25))
}

fn is_draining_error(response: &str) -> bool {
    // Cheap pre-filter: success responses (which may be large reports)
    // never parse here.
    if !response.contains("\"ok\":false") {
        return false;
    }
    serde_json::from_str(response)
        .ok()
        .is_some_and(|v: Value| v["error"]["code"].as_str() == Some("shutting_down"))
}

/// A batch envelope in which *every* item was shed with
/// `shutting_down`: the shard executed nothing, so the whole forward is
/// a shard failure (breaker + group failover), exactly like a
/// transport-level one. A *mixed* response — the shard began draining
/// mid-envelope — is kept: re-running its completed items would be
/// duplicate execution, so only the shed items fail over (see
/// [`route_batch`]).
fn batch_fully_draining(response: &str) -> bool {
    if !response.contains("\"shutting_down\"") {
        return false;
    }
    let Ok(v) = serde_json::from_str(response) else { return false };
    if v.get("ok").and_then(Value::as_bool) != Some(true) {
        return false;
    }
    let Some(Value::Array(items)) = v.get("result").and_then(|r| r.get("items")) else {
        return false;
    };
    !items.is_empty() && items.iter().all(|i| i["error"]["code"].as_str() == Some("shutting_down"))
}

#[derive(Default)]
struct RouterCounters {
    requests: AtomicU64,
    analyze_requests: AtomicU64,
    batch_requests: AtomicU64,
    errors: AtomicU64,
    local_fallbacks: AtomicU64,
}

struct RouterState {
    shards: Vec<Shard>,
    shutdown: Arc<AtomicBool>,
    counters: RouterCounters,
    default_timeout_ms: Option<u64>,
    tuning: RouterTuning,
    started: Instant,
    trace_seq: AtomicU64,
    /// The router's own hop records (forward spans, retries, failovers).
    flight: FlightRecorder,
    /// End-to-end router-side latency, same buckets as the daemon's
    /// request histograms.
    request_seconds: Histogram,
}

/// A running router.
pub struct RouterHandle {
    addr: BoundAddr,
    state: Arc<RouterState>,
    accept_thread: Option<JoinHandle<()>>,
}

impl RouterHandle {
    /// The bound address (with any ephemeral TCP port resolved).
    pub fn addr(&self) -> &BoundAddr {
        &self.addr
    }

    /// Asks the router to stop accepting and exit.
    pub fn request_shutdown(&self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
    }

    /// Waits for the accept loop to exit.
    pub fn join(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// Binds and starts the router, returning once it is accepting.
///
/// # Errors
/// Rejects an empty shard list; propagates bind/listen failures.
pub fn route(options: RouterOptions) -> io::Result<RouterHandle> {
    if options.shards.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "router needs at least one shard address",
        ));
    }
    let (listener, addr) = bind_listener(&options.bind)?;
    let tuning = options.tuning;
    let state = Arc::new(RouterState {
        shards: options.shards.into_iter().map(|a| Shard::new(a, &tuning)).collect(),
        shutdown: Arc::new(AtomicBool::new(false)),
        counters: RouterCounters::default(),
        default_timeout_ms: options.default_timeout_ms,
        tuning,
        started: Instant::now(),
        trace_seq: AtomicU64::new(0),
        flight: FlightRecorder::new(options.flight_records),
        request_seconds: Histogram::latency(),
    });
    let handler: LineHandler = {
        let state = Arc::clone(&state);
        Arc::new(move |line: &str| handle_line(line, &state))
    };
    // The background health prober: the only thing that talks to a shard
    // whose breaker is open. Probes are synthetic `configs` pings over a
    // fresh connection, so reintegration never costs a user request.
    let prober_state = Arc::clone(&state);
    let prober = std::thread::Builder::new()
        .name("taj-router-prober".to_string())
        .spawn(move || prober_loop(&prober_state))
        .expect("spawn router prober");
    let shutdown = Arc::clone(&state.shutdown);
    let accept_addr = addr.clone();
    let trace_out = options.trace_out;
    let trace_state = Arc::clone(&state);
    let accept_thread = std::thread::Builder::new()
        .name("taj-router-accept".to_string())
        .spawn(move || {
            accept_loop(&listener, &shutdown, &handler);
            // Stitch before the prober joins: shards are still likely
            // alive at this point, so their fragments can be fetched.
            if let Some(path) = &trace_out {
                let _ = std::fs::write(path, stitched_ring_json(&trace_state));
            }
            let _ = prober.join();
            if let BoundAddr::Unix(path) = &accept_addr {
                let _ = std::fs::remove_file(path);
            }
        })
        .expect("spawn router accept loop");
    Ok(RouterHandle { addr, state, accept_thread: Some(accept_thread) })
}

fn prober_loop(state: &Arc<RouterState>) {
    let interval = Duration::from_millis(state.tuning.probe_interval_ms.max(1));
    while !state.shutdown.load(Ordering::SeqCst) {
        let now = Instant::now();
        for shard in &state.shards {
            if !shard.breaker.wants_probe(now) {
                continue;
            }
            shard.probes.fetch_add(1, Ordering::SeqCst);
            if probe_shard(&shard.addr, &state.tuning) {
                shard.breaker.on_probe_success();
            } else {
                shard.breaker.on_probe_failure(Instant::now());
            }
        }
        std::thread::sleep(interval);
    }
}

/// One synthetic health check: a fresh connection and a `configs` ping.
/// Fresh, because the cached forwarding connection is exactly what is
/// suspect while the breaker is open; `configs`, because it is answered
/// without touching the worker pool — a probe can never add load to a
/// recovering shard's queue.
fn probe_shard(addr: &str, tuning: &RouterTuning) -> bool {
    let Ok(mut client) = Client::connect_tcp(addr) else { return false };
    client.set_retry(RetryPolicy::none());
    let timeout = Duration::from_millis(tuning.shard_io_timeout_ms.unwrap_or(30_000).min(2_000));
    if client.set_io_timeout(Some(timeout)).is_err() {
        return false;
    }
    client.configs().is_ok()
}

/// The shard an analyze request belongs to: the same content addresses
/// the cache keys use, folded over the shard count. Config/format do
/// not participate — all variants of one program share a shard, so its
/// phase-1 artifacts are computed exactly once across the fleet.
fn shard_index(req: &AnalyzeRequest, shards: usize) -> usize {
    let src = content_hash(req.source.as_bytes());
    let rules = req.rules.as_ref().map_or(0, |r| content_hash(r.as_bytes()));
    ((src ^ rules) % shards as u128) as usize
}

fn mint_trace_id(state: &Arc<RouterState>) -> String {
    format!("taj-r-{:016x}", state.trace_seq.fetch_add(1, Ordering::SeqCst) + 1)
}

/// The router's per-request recorder, live only when its flight ring is.
fn router_recorder(state: &Arc<RouterState>) -> Recorder {
    if state.flight.is_enabled() {
        Recorder::new()
    } else {
        Recorder::disabled()
    }
}

/// Captures one routed request into the router's flight ring: the hop
/// events recorded so far under a synthetic `request` root span.
fn capture_router_flight(
    state: &Arc<RouterState>,
    rec: &Recorder,
    trace_id: &str,
    outcome: &'static str,
    started: Instant,
) {
    if !state.flight.is_enabled() {
        return;
    }
    let elapsed_us = started.elapsed().as_micros() as u64;
    let mut events = rec.events();
    events.insert(
        0,
        TraceEvent { name: "request", start_us: 0, dur_us: Some(elapsed_us), attrs: Vec::new() },
    );
    state.flight.push(RequestRecord {
        trace_id: trace_id.to_string(),
        outcome,
        elapsed_us,
        attrs: Vec::new(),
        events,
    });
}

/// Forwards to `shard`, recording the forward as a span (with the shard
/// index and whether a response was relayed) on the request's recorder.
fn traced_forward(
    state: &Arc<RouterState>,
    shard_idx: usize,
    line: &str,
    rec: &Recorder,
) -> Option<String> {
    let shard = &state.shards[shard_idx];
    let start_us = rec.now_us();
    let response = shard.forward(line, &state.tuning, rec);
    if rec.is_enabled() {
        rec.record(TraceEvent {
            name: "router.forward",
            start_us,
            dur_us: Some(rec.now_us().saturating_sub(start_us)),
            attrs: vec![("shard", shard_idx.into()), ("relayed", response.is_some().into())],
        });
    }
    response
}

fn handle_line(line: &str, state: &Arc<RouterState>) -> (String, bool) {
    let started = Instant::now();
    let result = handle_line_inner(line, state, started);
    state.request_seconds.observe(started.elapsed().as_secs_f64());
    result
}

fn handle_line_inner(line: &str, state: &Arc<RouterState>, started: Instant) -> (String, bool) {
    state.counters.requests.fetch_add(1, Ordering::SeqCst);
    let request = match parse_request(line, false) {
        Ok(r) => r,
        Err((code, msg)) => {
            state.counters.errors.fetch_add(1, Ordering::SeqCst);
            return (err_response(&Value::Null, code, &msg), false);
        }
    };
    let id = request.id;
    match request.command {
        Command::Configs => (ok_response_raw(&id, &configs_value()), false),
        Command::Stats => (ok_response_raw(&id, &stats_raw(state)), false),
        Command::Metrics => (ok_response_raw(&id, &metrics_raw(state)), false),
        Command::Shutdown => {
            state.shutdown.store(true, Ordering::SeqCst);
            (ok_response_raw(&id, "{\"draining\":true}"), true)
        }
        Command::Analyze(req) => {
            state.counters.analyze_requests.fetch_add(1, Ordering::SeqCst);
            let trace_id = req.trace_id.clone().unwrap_or_else(|| mint_trace_id(state));
            let rec = router_recorder(state);
            let shard_idx = shard_index(&req, state.shards.len());
            // Stamp trace context onto the forwarded line (a textual
            // splice that preserves every client byte), so the shard
            // continues this trace and its fragment is fetchable under
            // the same id.
            let stamped = stamp_trace(line, &trace_id, "router");
            match traced_forward(state, shard_idx, &stamped, &rec) {
                Some(response) => {
                    capture_router_flight(state, &rec, &trace_id, "ok", started);
                    (response, false)
                }
                None => {
                    let response =
                        local_analyze_response(state, &id, &req, req.timeout_ms, &trace_id);
                    capture_router_flight(state, &rec, &trace_id, "failover", started);
                    (response, false)
                }
            }
        }
        Command::Batch(batch) => {
            state.counters.batch_requests.fetch_add(1, Ordering::SeqCst);
            (ok_response_raw(&id, &route_batch(state, line, batch)), false)
        }
        Command::Trace { trace_id } => (trace_response(state, &id, &trace_id), false),
        Command::LastTraces { limit } => {
            (ok_response_raw(&id, &last_traces_raw(state, limit)), false)
        }
        // `parse_request(_, debug=false)` already rejected these.
        Command::DebugSleep { .. } | Command::DebugPanic => {
            state.counters.errors.fetch_add(1, Ordering::SeqCst);
            (err_response(&id, ErrorCode::BadRequest, "debug commands are not routed"), false)
        }
    }
}

/// Answers `trace <id>` with every fragment reachable for that trace:
/// the router's own hop record plus per-shard fragments fetched live
/// (over fresh connections, so forwarding stats stay untouched) and
/// relabeled `shard<i>`.
fn trace_response(state: &Arc<RouterState>, id: &Value, trace_id: &str) -> String {
    let mut fragments: Vec<String> = Vec::new();
    if let Some(record) = state.flight.get(trace_id) {
        fragments.push(record.fragment_json("router"));
    }
    for (i, shard) in state.shards.iter().enumerate() {
        fragments.extend(fetch_shard_fragments(&shard.addr, trace_id, i, &state.tuning));
    }
    if fragments.is_empty() {
        state.counters.errors.fetch_add(1, Ordering::SeqCst);
        return err_response(
            id,
            ErrorCode::BadRequest,
            &format!("trace `{trace_id}` not found on the router or any shard"),
        );
    }
    let id_json = serde_json::to_string(&Value::String(trace_id.to_string())).unwrap_or_default();
    ok_response_raw(
        id,
        &format!("{{\"trace_id\":{},\"fragments\":[{}]}}", id_json, fragments.join(",")),
    )
}

/// Fetches one shard's fragments for a trace id over a fresh connection;
/// empty when the shard is unreachable or never saw the trace.
fn fetch_shard_fragments(
    addr: &str,
    trace_id: &str,
    shard_idx: usize,
    tuning: &RouterTuning,
) -> Vec<String> {
    let Ok(mut client) = Client::connect_tcp(addr) else { return Vec::new() };
    client.set_retry(RetryPolicy::none());
    let timeout = Duration::from_millis(tuning.shard_io_timeout_ms.unwrap_or(30_000).min(2_000));
    if client.set_io_timeout(Some(timeout)).is_err() {
        return Vec::new();
    }
    let mut request = Value::object();
    request.insert("id", Value::UInt(0));
    request.insert("cmd", Value::String("trace".to_string()));
    request.insert("trace_id", Value::String(trace_id.to_string()));
    let Ok(line) = serde_json::to_string(&request) else { return Vec::new() };
    let Ok(raw) = client.request_raw(&line) else { return Vec::new() };
    let Ok(response) = serde_json::from_str(&raw) else { return Vec::new() };
    if response.get("ok").and_then(Value::as_bool) != Some(true) {
        return Vec::new();
    }
    let Some(result) = response.get("result") else { return Vec::new() };
    let label = format!("shard{shard_idx}");
    fragments_of(result)
        .into_iter()
        .map(|mut fragment| {
            relabel_process(&mut fragment, &label);
            serde_json::to_string(&fragment).unwrap_or_else(|_| "{}".to_string())
        })
        .collect()
}

/// `last_traces` body from the router's ring, newest first.
fn last_traces_raw(state: &Arc<RouterState>, limit: Option<u64>) -> String {
    let limit = limit.map_or(usize::MAX, |n| n as usize);
    let records = state.flight.recent(limit);
    let mut out = format!("{{\"count\":{},\"traces\":[", records.len());
    for (i, record) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&record.summary_json());
    }
    out.push_str("]}");
    out
}

/// The `--trace-out` payload: every retained trace's fragments (router
/// record plus whatever shards still answer), stitched into one Chrome
/// trace with per-process-per-trace tracks.
fn stitched_ring_json(state: &Arc<RouterState>) -> String {
    let mut fragments: Vec<Value> = Vec::new();
    for record in state.flight.snapshot() {
        let tid = &record.trace_id;
        let parsed: Result<Value, _> = serde_json::from_str(&record.fragment_json("router"));
        if let Ok(mut fragment) = parsed {
            relabel_process(&mut fragment, &format!("router {tid}"));
            fragments.push(fragment);
        }
        for (i, shard) in state.shards.iter().enumerate() {
            for raw in fetch_shard_fragments(&shard.addr, tid, i, &state.tuning) {
                if let Ok(mut fragment) = serde_json::from_str(&raw) {
                    relabel_process(&mut fragment, &format!("shard{i} {tid}"));
                    fragments.push(fragment);
                }
            }
        }
    }
    stitch_fragments(&fragments)
}

/// The failover path: analyze locally (cache-free, inline on the
/// connection thread) and wrap the result in a traced response, exactly
/// the envelope shape a backend would have produced.
fn local_analyze_response(
    state: &Arc<RouterState>,
    id: &Value,
    req: &AnalyzeRequest,
    timeout_ms: Option<u64>,
    trace_id: &str,
) -> String {
    state.counters.local_fallbacks.fetch_add(1, Ordering::SeqCst);
    match local_analyze(state, req, timeout_ms) {
        Ok(raw) => ok_response_raw_traced(id, trace_id, &raw),
        Err((code, msg)) => {
            state.counters.errors.fetch_add(1, Ordering::SeqCst);
            err_response_traced(id, trace_id, code, &msg)
        }
    }
}

fn local_analyze(
    state: &Arc<RouterState>,
    req: &AnalyzeRequest,
    timeout_ms: Option<u64>,
) -> Result<String, crate::protocol::ProtocolError> {
    let supervisor = match timeout_ms.or(state.default_timeout_ms) {
        Some(ms) => Supervisor::new().with_deadline(Duration::from_millis(ms)),
        None => Supervisor::new(),
    };
    analyze_uncached(req, &supervisor)
}

/// Splits a batch envelope across shards, forwards each sub-batch, and
/// merges the per-item results back into the original order. A shard
/// failure fails over item by item to local analysis; malformed items
/// are answered in place, matching single-daemon batch semantics.
fn route_batch(state: &Arc<RouterState>, line: &str, batch: BatchRequest) -> String {
    let shard_count = state.shards.len();
    // Recover the raw item objects so sub-batches carry the client's
    // bytes, not a re-derivation (unknown-field strictness and format
    // defaults stay the backend's business).
    let raw_items: Vec<Value> = serde_json::from_str(line)
        .ok()
        .and_then(|v| v.get("items").cloned())
        .and_then(|v| match v {
            Value::Array(items) => Some(items),
            _ => None,
        })
        .unwrap_or_default();
    let mut rendered: Vec<Option<String>> = vec![None; batch.items.len()];
    // Per shard: the original indices (and parsed requests) routed there.
    let mut groups: Vec<Vec<(usize, AnalyzeRequest)>> =
        (0..shard_count).map(|_| Vec::new()).collect();
    for (i, item) in batch.items.into_iter().enumerate() {
        match item {
            Ok(req) => groups[shard_index(&req, shard_count)].push((i, req)),
            Err((code, msg)) => {
                state.counters.errors.fetch_add(1, Ordering::SeqCst);
                let trace_id = mint_trace_id(state);
                rendered[i] = Some(batch_item_err(&trace_id, code, &msg));
            }
        }
    }
    for (shard_idx, group) in groups.into_iter().enumerate() {
        if group.is_empty() {
            continue;
        }
        state.counters.analyze_requests.fetch_add(group.len() as u64, Ordering::SeqCst);
        let shard = &state.shards[shard_idx];
        let sub_items: Vec<Value> =
            group.iter().filter_map(|(i, _)| raw_items.get(*i).cloned()).collect();
        let forwarded = if sub_items.len() == group.len() {
            let mut envelope = Value::object();
            envelope.insert("id", Value::UInt(0));
            envelope.insert("cmd", Value::String("batch".to_string()));
            envelope.insert("items", Value::Array(sub_items));
            if let Some(t) = batch.timeout_ms {
                envelope.insert("timeout_ms", Value::UInt(u128::from(t)));
            }
            serde_json::to_string(&envelope)
                .ok()
                .and_then(|sub| shard.forward(&sub, &state.tuning, &Recorder::disabled()))
        } else {
            None
        };
        let shard_results = forwarded.and_then(|raw| parse_batch_items(&raw, group.len()));
        match shard_results {
            Some(items) => {
                for ((i, req), item) in group.iter().zip(items) {
                    // Per-item isolation: a draining shard answers the
                    // envelope but sheds items with `shutting_down` —
                    // those items never ran, so re-running them locally
                    // cannot duplicate execution. Items the shard *did*
                    // answer are kept verbatim.
                    rendered[*i] = Some(if is_draining_error(&item) {
                        local_batch_item(state, req, batch.timeout_ms)
                    } else {
                        item
                    });
                }
            }
            None => {
                // Whole-shard failover: each item is analyzed locally.
                for (i, req) in group {
                    rendered[i] = Some(local_batch_item(state, &req, batch.timeout_ms));
                }
            }
        }
    }
    let items: Vec<String> = rendered
        .into_iter()
        .map(|r| {
            r.unwrap_or_else(|| {
                batch_item_err(
                    "taj-r-lost",
                    ErrorCode::BadRequest,
                    "router lost this item (internal error)",
                )
            })
        })
        .collect();
    batch_result_raw(&items)
}

/// One batch item's local failover: analyze on the router and render
/// the item envelope a backend would have produced.
fn local_batch_item(
    state: &Arc<RouterState>,
    req: &AnalyzeRequest,
    batch_timeout_ms: Option<u64>,
) -> String {
    let trace_id = req.trace_id.clone().unwrap_or_else(|| mint_trace_id(state));
    state.counters.local_fallbacks.fetch_add(1, Ordering::SeqCst);
    let timeout = req.timeout_ms.or(batch_timeout_ms);
    match local_analyze(state, req, timeout) {
        Ok(raw) => batch_item_ok(&trace_id, &raw),
        Err((code, msg)) => {
            state.counters.errors.fetch_add(1, Ordering::SeqCst);
            batch_item_err(&trace_id, code, &msg)
        }
    }
}

/// Extracts and re-serializes the `items` array from a backend's batch
/// response, checking the count matches what was sent.
fn parse_batch_items(raw_response: &str, expected: usize) -> Option<Vec<String>> {
    let response: Value = serde_json::from_str(raw_response).ok()?;
    if response.get("ok").and_then(Value::as_bool) != Some(true) {
        return None;
    }
    let items = match response.get("result")?.get("items")? {
        Value::Array(items) => items,
        _ => return None,
    };
    if items.len() != expected {
        return None;
    }
    items.iter().map(|v| serde_json::to_string(v).ok()).collect()
}

fn stats_raw(state: &Arc<RouterState>) -> String {
    let c = &state.counters;
    let mut o = Value::object();
    o.insert("role", Value::String("router".to_string()));
    o.insert("protocol_version", Value::UInt(u128::from(PROTOCOL_VERSION)));
    o.insert("uptime_ms", Value::UInt(state.started.elapsed().as_millis()));
    let mut build_o = Value::object();
    build_o.insert("version", Value::String(env!("CARGO_PKG_VERSION").to_string()));
    build_o.insert("fingerprint", Value::String(format!("{:032x}", store_fingerprint())));
    o.insert("build", build_o);
    let mut flight_o = Value::object();
    flight_o.insert("capacity", Value::UInt(state.flight.capacity() as u128));
    flight_o.insert("retained", Value::UInt(state.flight.len() as u128));
    o.insert("flight", flight_o);
    o.insert("requests", Value::UInt(u128::from(c.requests.load(Ordering::SeqCst))));
    o.insert(
        "analyze_requests",
        Value::UInt(u128::from(c.analyze_requests.load(Ordering::SeqCst))),
    );
    o.insert("batch_requests", Value::UInt(u128::from(c.batch_requests.load(Ordering::SeqCst))));
    o.insert("errors", Value::UInt(u128::from(c.errors.load(Ordering::SeqCst))));
    o.insert("local_fallbacks", Value::UInt(u128::from(c.local_fallbacks.load(Ordering::SeqCst))));
    let mut shards = Vec::new();
    for s in &state.shards {
        let mut so = Value::object();
        so.insert("addr", Value::String(s.addr.clone()));
        so.insert("healthy", Value::Bool(s.healthy.load(Ordering::SeqCst)));
        so.insert("state", Value::String(s.breaker.state().as_str().to_string()));
        so.insert("forwarded", Value::UInt(u128::from(s.forwarded.load(Ordering::SeqCst))));
        so.insert("failovers", Value::UInt(u128::from(s.failovers.load(Ordering::SeqCst))));
        so.insert("retried", Value::UInt(u128::from(s.retried.load(Ordering::SeqCst))));
        so.insert("probes", Value::UInt(u128::from(s.probes.load(Ordering::SeqCst))));
        so.insert("opens", Value::UInt(u128::from(s.opens.load(Ordering::SeqCst))));
        shards.push(so);
    }
    o.insert("shards", Value::Array(shards));
    serde_json::to_string(&o).unwrap_or_else(|_| "{}".to_string())
}

fn metrics_raw(state: &Arc<RouterState>) -> String {
    let c = &state.counters;
    let mut exp = Exposition::new();
    exp.family("taj_router_uptime_seconds", "Seconds since the router started.", "gauge");
    exp.sample("taj_router_uptime_seconds", &[], state.started.elapsed().as_secs_f64());
    exp.family(
        "taj_build_info",
        "Build identity: crate version and store fingerprint (value is always 1).",
        "gauge",
    );
    let fingerprint = format!("{:032x}", store_fingerprint());
    exp.sample(
        "taj_build_info",
        &[("version", env!("CARGO_PKG_VERSION")), ("fingerprint", &fingerprint)],
        1.0,
    );
    exp.family(
        "taj_router_flight_records",
        "Request records retained by the router's flight recorder.",
        "gauge",
    );
    exp.sample("taj_router_flight_records", &[], state.flight.len() as f64);
    exp.family("taj_router_shards", "Configured shard count.", "gauge");
    exp.sample("taj_router_shards", &[], state.shards.len() as f64);
    let counters: [(&str, &str, u64); 5] = [
        ("taj_router_requests_total", "Requests received.", c.requests.load(Ordering::SeqCst)),
        (
            "taj_router_analyze_requests_total",
            "Analyze requests routed (batch items included).",
            c.analyze_requests.load(Ordering::SeqCst),
        ),
        (
            "taj_router_batch_requests_total",
            "Batch envelopes received.",
            c.batch_requests.load(Ordering::SeqCst),
        ),
        (
            "taj_router_errors_total",
            "Requests answered with an error.",
            c.errors.load(Ordering::SeqCst),
        ),
        (
            "taj_router_local_fallbacks_total",
            "Analyses served locally because a shard was unreachable.",
            c.local_fallbacks.load(Ordering::SeqCst),
        ),
    ];
    for (name, help, value) in counters {
        exp.family(name, help, "counter");
        exp.sample(name, &[], value as f64);
    }
    exp.family("taj_router_shard_healthy", "Shard health (1 healthy, 0 failed).", "gauge");
    for s in &state.shards {
        exp.sample(
            "taj_router_shard_healthy",
            &[("shard", s.addr.as_str())],
            if s.healthy.load(Ordering::SeqCst) { 1.0 } else { 0.0 },
        );
    }
    exp.family("taj_router_shard_forwarded_total", "Requests forwarded, by shard.", "counter");
    for s in &state.shards {
        exp.sample(
            "taj_router_shard_forwarded_total",
            &[("shard", s.addr.as_str())],
            s.forwarded.load(Ordering::SeqCst) as f64,
        );
    }
    exp.family(
        "taj_router_shard_failovers_total",
        "Forward failures that fell back locally, by shard.",
        "counter",
    );
    for s in &state.shards {
        exp.sample(
            "taj_router_shard_failovers_total",
            &[("shard", s.addr.as_str())],
            s.failovers.load(Ordering::SeqCst) as f64,
        );
    }
    exp.family(
        "taj_router_shard_state",
        "Circuit breaker state, one-hot per {shard,state}.",
        "gauge",
    );
    for s in &state.shards {
        let current = s.breaker.state();
        for st in BreakerState::all() {
            exp.sample(
                "taj_router_shard_state",
                &[("shard", s.addr.as_str()), ("state", st.as_str())],
                if st == current { 1.0 } else { 0.0 },
            );
        }
    }
    exp.family(
        "taj_router_shard_retried_total",
        "Extra forward attempts (transport retries and overload waits), by shard.",
        "counter",
    );
    for s in &state.shards {
        exp.sample(
            "taj_router_shard_retried_total",
            &[("shard", s.addr.as_str())],
            s.retried.load(Ordering::SeqCst) as f64,
        );
    }
    exp.family(
        "taj_router_shard_probes_total",
        "Synthetic health probes issued by the background prober, by shard.",
        "counter",
    );
    for s in &state.shards {
        exp.sample(
            "taj_router_shard_probes_total",
            &[("shard", s.addr.as_str())],
            s.probes.load(Ordering::SeqCst) as f64,
        );
    }
    exp.family(
        "taj_router_shard_opens_total",
        "Times the shard's breaker tripped open, by shard.",
        "counter",
    );
    for s in &state.shards {
        exp.sample(
            "taj_router_shard_opens_total",
            &[("shard", s.addr.as_str())],
            s.opens.load(Ordering::SeqCst) as f64,
        );
    }
    exp.histogram(
        "taj_router_request_seconds",
        "End-to-end router-side request latency (same buckets as the daemon).",
        &[],
        &state.request_seconds.snapshot(),
    );
    let exposition = exp.finish();
    let mut o = Value::object();
    o.insert("content_type", Value::String("text/plain; version=0.0.4".to_string()));
    o.insert("exposition", Value::String(exposition));
    serde_json::to_string(&o).unwrap_or_else(|_| "{}".to_string())
}
