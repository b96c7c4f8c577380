//! The daemon: socket listener, connection handlers, job dispatch.
//!
//! One handler thread per connection reads NDJSON requests sequentially;
//! `analyze` (and the debug jobs) are dispatched to the shared worker
//! pool, so parallelism comes from concurrent connections, bounded by the
//! pool size. Networking is std-only: `TcpListener`/`UnixListener` set to
//! non-blocking accept with a short poll so the accept loop can observe
//! the shutdown flag without needing an async runtime.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde::Value;
use taj_core::{
    analyze_with_phase1_opts, parse_rules, prepare, run_phase1_traced, Phase1, PreparedProgram,
    Recorder, RuleSet, RunOptions, Supervisor, TajConfig, TajError, TajReport,
};

use taj_obs::metrics::{Exposition, Histogram};
use taj_obs::{AttrValue, FlightRecorder, RequestRecord, TraceEvent};
use taj_store::DiskStore;

use crate::cache::{
    content_hash, phase1_bytes, prepared_bytes, Artifact, ArtifactCache, ArtifactKey, TierStats,
    TIER_NAMES,
};
use crate::pool::{Job, WorkerPool};
use crate::protocol::{
    batch_item_err, batch_item_err_retry, batch_item_ok, batch_result_raw, err_response,
    err_response_retry, err_response_traced_retry, ok_response_raw, ok_response_raw_traced,
    parse_request, AnalyzeRequest, BatchRequest, Command, ErrorCode, OutputFormat, ProtocolError,
    PROTOCOL_VERSION,
};

/// Where the daemon listens.
#[derive(Clone, Debug)]
pub enum Bind {
    /// A Unix domain socket at this path (created on bind, removed on
    /// shutdown).
    Unix(PathBuf),
    /// A TCP address such as `127.0.0.1:0` (port 0 picks an ephemeral
    /// port, reported by [`ServerHandle::addr`]).
    Tcp(String),
}

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Listen address.
    pub bind: Bind,
    /// Worker threads (0 means "pick from available parallelism").
    pub workers: usize,
    /// Cache byte budget.
    pub cache_bytes: usize,
    /// Default per-request deadline; `None` waits indefinitely.
    pub default_timeout_ms: Option<u64>,
    /// Enables the `debug_sleep`/`debug_panic` test commands.
    pub debug: bool,
    /// Directory for the persistent artifact store — the durable tier
    /// below the in-memory cache. `None` disables persistence.
    pub store_dir: Option<PathBuf>,
    /// Byte budget of the on-disk store (LRU-mtime eviction).
    pub store_bytes: u64,
    /// Admission-queue bound: jobs submitted but not yet picked up by a
    /// worker. `0` means "size from the worker count" (4× workers).
    /// When the queue is full, new work is rejected immediately with an
    /// `overloaded` error carrying a `retry_after_ms` hint, instead of
    /// queueing until every deadline has expired.
    pub max_queue: usize,
    /// Flight-recorder capacity: completed analyze-class requests whose
    /// span trees are retained in a bounded ring for after-the-fact
    /// forensics (`trace <id>` / `last_traces`). `0` disables capture;
    /// recording never perturbs result bytes.
    pub flight_records: usize,
    /// Requests slower than this many milliseconds are appended to the
    /// structured slow-request log on stderr (degraded, panicked, shed,
    /// and timed-out requests are always logged). `None` disables the
    /// latency trigger.
    pub slow_ms: Option<u64>,
}

impl ServeOptions {
    /// Sensible defaults on a TCP ephemeral port: workers from available
    /// parallelism (clamped to 2..=8), a 64 MiB cache, no timeout, no
    /// persistent store.
    pub fn tcp_ephemeral() -> ServeOptions {
        ServeOptions {
            bind: Bind::Tcp("127.0.0.1:0".to_string()),
            workers: 0,
            cache_bytes: 64 << 20,
            default_timeout_ms: None,
            debug: false,
            store_dir: None,
            store_bytes: 256 << 20,
            max_queue: 0,
            flight_records: DEFAULT_FLIGHT_RECORDS,
            slow_ms: None,
        }
    }
}

/// Default flight-recorder ring capacity (requests retained).
pub const DEFAULT_FLIGHT_RECORDS: usize = 256;

/// Fingerprint stamped into on-disk entries: the crate version plus the
/// protocol version. A daemon build whose serialized reports could
/// differ gets a different fingerprint, so its store entries are
/// quarantined rather than served by the wrong build.
pub fn store_fingerprint() -> u128 {
    content_hash(
        format!("taj-service {} proto {PROTOCOL_VERSION}", env!("CARGO_PKG_VERSION")).as_bytes(),
    )
}

fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get()).clamp(2, 8)
}

/// The address actually bound.
#[derive(Clone, Debug)]
pub enum BoundAddr {
    /// Unix socket path.
    Unix(PathBuf),
    /// Resolved TCP address (ephemeral port filled in).
    Tcp(SocketAddr),
}

impl std::fmt::Display for BoundAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BoundAddr::Unix(p) => write!(f, "unix:{}", p.display()),
            BoundAddr::Tcp(a) => write!(f, "tcp:{a}"),
        }
    }
}

/// Counters shared by every connection handler.
#[derive(Default)]
struct ServiceCounters {
    requests: AtomicU64,
    analyze_requests: AtomicU64,
    batch_requests: AtomicU64,
    errors: AtomicU64,
    timeouts: AtomicU64,
    prepare_runs: AtomicU64,
    phase1_runs: AtomicU64,
    phase2_runs: AtomicU64,
    degraded_runs: AtomicU64,
    requests_shed: AtomicU64,
}

/// Server state shared between the accept loop, handlers, and workers.
struct ServiceState {
    cache: Mutex<ArtifactCache>,
    /// The durable tier below the in-memory cache: serialized reports
    /// keyed by the same content addresses, shared across restarts and
    /// across daemon processes pointed at one directory.
    store: Option<Arc<DiskStore>>,
    jobs: Mutex<Option<Sender<(Job, Supervisor)>>>,
    shutdown: Arc<AtomicBool>,
    counters: ServiceCounters,
    panicked: Arc<AtomicU64>,
    reclaimed: Arc<AtomicU64>,
    workers: usize,
    default_timeout_ms: Option<u64>,
    debug: bool,
    /// Admission bound: jobs submitted but not yet picked up by a worker.
    max_queue: usize,
    /// Current admission-queue depth (incremented at submit, decremented
    /// when a worker picks the job up).
    queue_depth: AtomicU64,
    started: Instant,
    /// Time a dispatched job spent queued before a worker picked it up.
    queue_wait: Histogram,
    /// Time a dispatched job spent running on its worker.
    run_time: Histogram,
    /// Source of generated analyze trace ids (when the client sends none).
    trace_seq: AtomicU64,
    /// Bounded ring of completed request span trees (the flight
    /// recorder). Capture happens on connection threads at response-build
    /// time — O(1) per request, never on the worker pool.
    flight: FlightRecorder,
    /// Slow-request log threshold (ms); `None` disables the latency
    /// trigger (degraded/panicked/shed/timed-out requests still log).
    slow_ms: Option<u64>,
}

/// A running daemon.
pub struct ServerHandle {
    addr: BoundAddr,
    state: Arc<ServiceState>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with any ephemeral TCP port resolved).
    pub fn addr(&self) -> &BoundAddr {
        &self.addr
    }

    /// Asks the daemon to drain and exit, as if a `shutdown` request
    /// arrived.
    pub fn request_shutdown(&self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
    }

    /// Waits for the accept loop to exit and the worker pool to drain.
    pub fn join(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

pub(crate) enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

/// Binds a listener (non-blocking, so accept loops can poll a shutdown
/// flag) and resolves the bound address. Shared by the daemon and the
/// router front-end.
pub(crate) fn bind_listener(bind: &Bind) -> io::Result<(Listener, BoundAddr)> {
    let (listener, addr) = match bind {
        Bind::Tcp(spec) => {
            let l = TcpListener::bind(spec.as_str())?;
            let a = l.local_addr()?;
            (Listener::Tcp(l), BoundAddr::Tcp(a))
        }
        Bind::Unix(path) => {
            // A stale socket file from a crashed daemon would fail bind.
            if path.exists() {
                let _ = std::fs::remove_file(path);
            }
            let l = UnixListener::bind(path)?;
            (Listener::Unix(l), BoundAddr::Unix(path.clone()))
        }
    };
    match &listener {
        Listener::Tcp(l) => l.set_nonblocking(true)?,
        Listener::Unix(l) => l.set_nonblocking(true)?,
    }
    Ok((listener, addr))
}

/// Per-line request handler: returns the response line and whether the
/// connection should close afterwards.
pub(crate) type LineHandler = Arc<dyn Fn(&str) -> (String, bool) + Send + Sync>;

/// Binds and starts the daemon, returning once it is accepting.
///
/// # Errors
/// Propagates bind/listen failures.
pub fn serve(options: ServeOptions) -> io::Result<ServerHandle> {
    let workers = if options.workers == 0 { default_workers() } else { options.workers };
    let (listener, addr) = bind_listener(&options.bind)?;
    let store = match &options.store_dir {
        Some(dir) => {
            Some(Arc::new(DiskStore::open(dir, options.store_bytes, store_fingerprint())?))
        }
        None => None,
    };
    let pool = WorkerPool::new(workers);
    let state = Arc::new(ServiceState {
        cache: Mutex::new(ArtifactCache::new(options.cache_bytes)),
        store,
        jobs: Mutex::new(None),
        shutdown: Arc::new(AtomicBool::new(false)),
        counters: ServiceCounters::default(),
        panicked: pool.panic_counter(),
        reclaimed: pool.reclaim_counter(),
        workers: pool.size(),
        default_timeout_ms: options.default_timeout_ms,
        debug: options.debug,
        max_queue: if options.max_queue == 0 {
            pool.size().saturating_mul(4)
        } else {
            options.max_queue
        },
        queue_depth: AtomicU64::new(0),
        started: Instant::now(),
        queue_wait: Histogram::latency(),
        run_time: Histogram::latency(),
        trace_seq: AtomicU64::new(0),
        flight: FlightRecorder::new(options.flight_records),
        slow_ms: options.slow_ms,
    });
    // Handlers submit through a dedicated channel forwarded to the pool,
    // so the accept loop can cut off new submissions (drop the forwarder)
    // while queued jobs still drain.
    let (job_tx, job_rx) = channel::<(Job, Supervisor)>();
    *state.jobs.lock().expect("jobs lock") = Some(job_tx);
    let forward_pool = pool;
    let forwarder = std::thread::Builder::new()
        .name("taj-job-forwarder".to_string())
        .spawn(move || {
            while let Ok((job, supervisor)) = job_rx.recv() {
                if forward_pool.submit_supervised(job, supervisor).is_err() {
                    break;
                }
            }
            forward_pool.shutdown();
        })
        .expect("spawn forwarder");

    let accept_state = Arc::clone(&state);
    let accept_addr = addr.clone();
    let handler: LineHandler = {
        let state = Arc::clone(&state);
        Arc::new(move |line: &str| handle_line(line, &state))
    };
    let accept_thread = std::thread::Builder::new()
        .name("taj-accept".to_string())
        .spawn(move || {
            accept_loop(&listener, &accept_state.shutdown, &handler);
            // Stop accepting new jobs, then wait for the queue to drain.
            accept_state.jobs.lock().expect("jobs lock").take();
            let _ = forwarder.join();
            if let BoundAddr::Unix(path) = &accept_addr {
                let _ = std::fs::remove_file(path);
            }
        })
        .expect("spawn accept loop");

    Ok(ServerHandle { addr, state, accept_thread: Some(accept_thread) })
}

pub(crate) fn accept_loop(listener: &Listener, shutdown: &Arc<AtomicBool>, handler: &LineHandler) {
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        // Fault-injection site (no-op in default builds): a `Delay`
        // action here stalls the accept loop deterministically, modeling
        // a listener starved by the OS or a slow-accepting peer.
        let _ = taj_supervise::fail_hook("service.accept.stall");
        let accepted: io::Result<Box<dyn Conn>> = match listener {
            Listener::Tcp(l) => l.accept().map(|(s, _)| {
                // One-line requests/responses: Nagle + delayed ACK would
                // add ~40ms per hop to every exchange.
                let _ = s.set_nodelay(true);
                Box::new(s) as Box<dyn Conn>
            }),
            Listener::Unix(l) => l.accept().map(|(s, _)| Box::new(s) as Box<dyn Conn>),
        };
        match accepted {
            Ok(conn) => {
                let handler = Arc::clone(handler);
                let _ = std::thread::Builder::new()
                    .name("taj-conn".to_string())
                    .spawn(move || handle_conn(conn, &handler));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Minimal duplex-stream abstraction over TCP and Unix sockets.
pub(crate) trait Conn: Read + Write + Send {
    fn reader(&self) -> io::Result<Box<dyn Read + Send>>;
}

impl Conn for TcpStream {
    fn reader(&self) -> io::Result<Box<dyn Read + Send>> {
        Ok(Box::new(self.try_clone()?))
    }
}

impl Conn for UnixStream {
    fn reader(&self) -> io::Result<Box<dyn Read + Send>> {
        Ok(Box::new(self.try_clone()?))
    }
}

fn handle_conn(mut conn: Box<dyn Conn>, handler: &LineHandler) {
    let Ok(read_half) = conn.reader() else { return };
    let mut lines = BufReader::new(read_half).lines();
    while let Some(Ok(line)) = lines.next() {
        if line.trim().is_empty() {
            continue;
        }
        let (response, close_after) = handler(&line);
        // Fault-injection site (no-op in default builds): when tripped,
        // write only half the response and drop the connection — the
        // client must treat the torn line as an I/O error, never as a
        // parseable answer.
        if taj_supervise::fail_hook("service.conn.write").is_some() {
            let half = &response.as_bytes()[..response.len() / 2];
            let _ = conn.write_all(half);
            let _ = conn.flush();
            return;
        }
        if conn.write_all(response.as_bytes()).is_err() || conn.write_all(b"\n").is_err() {
            return;
        }
        let _ = conn.flush();
        if close_after {
            return;
        }
    }
}

/// Processes one request line; returns the response and whether the
/// connection should close afterwards (shutdown acknowledged).
fn handle_line(line: &str, state: &Arc<ServiceState>) -> (String, bool) {
    state.counters.requests.fetch_add(1, Ordering::SeqCst);
    let request = match parse_request(line, state.debug) {
        Ok(r) => r,
        Err((code, msg)) => {
            state.counters.errors.fetch_add(1, Ordering::SeqCst);
            return (err_response(&Value::Null, code, &msg), false);
        }
    };
    let id = request.id;
    let outcome = match request.command {
        Command::Configs => Ok(configs_value()),
        Command::Stats => stats_raw(state),
        Command::Metrics => metrics_raw(state),
        Command::Shutdown => {
            state.shutdown.store(true, Ordering::SeqCst);
            return (ok_response_raw(&id, "{\"draining\":true}"), true);
        }
        Command::Analyze(req) => {
            state.counters.analyze_requests.fetch_add(1, Ordering::SeqCst);
            // Echo the client's trace id, or mint one; either way every
            // analyze response (success or error) carries it in the
            // envelope, never in the cacheable result bytes.
            let trace_id = req.trace_id.clone().unwrap_or_else(|| mint_trace_id(state));
            let parent = req.trace_parent.clone();
            let threads = req.threads;
            let timeout_ms = req.timeout_ms.or(state.default_timeout_ms);
            let rec = request_recorder(state);
            let started = Instant::now();
            let outcome = dispatch(state, timeout_ms, rec.clone(), {
                let state = Arc::clone(state);
                let rec = rec.clone();
                move |sup: &Supervisor| run_analyze(&state, &req, sup, &rec)
            });
            return match outcome {
                Ok(raw) => {
                    let line = ok_response_raw_traced(&id, &trace_id, &raw);
                    capture_flight(
                        state,
                        &rec,
                        &trace_id,
                        parent.as_deref(),
                        threads,
                        started,
                        "ok",
                        None,
                    );
                    (line, false)
                }
                Err((code, msg)) => {
                    state.counters.errors.fetch_add(1, Ordering::SeqCst);
                    if code == ErrorCode::Timeout {
                        state.counters.timeouts.fetch_add(1, Ordering::SeqCst);
                    }
                    let hint = shed_retry_hint(state, code);
                    let line = err_response_traced_retry(&id, &trace_id, code, &msg, hint);
                    capture_flight(
                        state,
                        &rec,
                        &trace_id,
                        parent.as_deref(),
                        threads,
                        started,
                        outcome_of(code),
                        Some(code),
                    );
                    (line, false)
                }
            };
        }
        Command::Batch(batch) => {
            state.counters.batch_requests.fetch_add(1, Ordering::SeqCst);
            return (ok_response_raw(&id, &run_batch(state, batch)), false);
        }
        Command::Trace { trace_id } => trace_raw(state, &trace_id),
        Command::LastTraces { limit } => Ok(last_traces_raw(state, limit)),
        Command::DebugSleep { ms, timeout_ms } => {
            let timeout_ms = timeout_ms.or(state.default_timeout_ms);
            dispatch(state, timeout_ms, Recorder::disabled(), move |sup: &Supervisor| {
                debug_sleep(ms, sup)
            })
        }
        Command::DebugPanic => {
            dispatch(state, state.default_timeout_ms, Recorder::disabled(), |_: &Supervisor| {
                panic!("debug_panic requested")
            })
        }
    };
    match outcome {
        Ok(raw) => (ok_response_raw(&id, &raw), false),
        Err((code, msg)) => {
            state.counters.errors.fetch_add(1, Ordering::SeqCst);
            if code == ErrorCode::Timeout {
                state.counters.timeouts.fetch_add(1, Ordering::SeqCst);
            }
            (err_response_retry(&id, code, &msg, shed_retry_hint(state, code)), false)
        }
    }
}

/// The `retry_after_ms` hint attached to `overloaded` rejections: scales
/// with the backlog per worker (each queued job is roughly one job-time
/// of delay), capped at one second so the hint never parks clients
/// longer than the queue could possibly take to drain. Other error
/// codes get no hint.
fn shed_retry_hint(state: &Arc<ServiceState>, code: ErrorCode) -> Option<u64> {
    if code != ErrorCode::Overloaded {
        return None;
    }
    let depth = state.queue_depth.load(Ordering::SeqCst);
    let per_worker = depth / state.workers.max(1) as u64 + 1;
    Some((25 * per_worker).min(1_000))
}

/// Submits `work` to the pool and waits for its result, applying the
/// per-request deadline. The job runs under a [`Supervisor`] carrying
/// that deadline; when the wait times out, the supervisor is *cancelled*
/// so the cooperative checks inside the analysis bring the worker home
/// within one check interval instead of leaking it to the orphaned job
/// (the pool counts the reclaim). A worker panic surfaces as
/// `worker_panic` (the result channel drops without a message); the
/// deadline as `timeout`.
fn dispatch<F>(
    state: &Arc<ServiceState>,
    timeout_ms: Option<u64>,
    rec: Recorder,
    work: F,
) -> Result<String, ProtocolError>
where
    F: FnOnce(&Supervisor) -> Result<String, ProtocolError> + Send + 'static,
{
    await_job(submit_job(state, timeout_ms, rec, work)?)
}

/// A job submitted to the pool but not yet collected. Splitting
/// submission from collection lets `batch` push every item into the pool
/// before waiting on any of them, so items run concurrently while the
/// envelope is still assembled in order.
struct PendingJob {
    rx: std::sync::mpsc::Receiver<Result<String, ProtocolError>>,
    supervisor: Supervisor,
    timeout_ms: Option<u64>,
    submitted: Instant,
}

fn submit_job<F>(
    state: &Arc<ServiceState>,
    timeout_ms: Option<u64>,
    rec: Recorder,
    work: F,
) -> Result<PendingJob, ProtocolError>
where
    F: FnOnce(&Supervisor) -> Result<String, ProtocolError> + Send + 'static,
{
    if state.shutdown.load(Ordering::SeqCst) {
        return Err((ErrorCode::ShuttingDown, "daemon is draining".to_string()));
    }
    // Admission control: reject immediately when the queue of not-yet-
    // started jobs is full. Rejecting here — before a supervisor or a
    // result channel exists — keeps a shed request O(1), so an
    // overloaded daemon stays responsive instead of queueing work it
    // will only time out on. `fetch_add` then check keeps the gate
    // race-free: concurrent submitters each reserve a slot and the
    // losers give theirs back.
    let depth = state.queue_depth.fetch_add(1, Ordering::SeqCst);
    if depth >= state.max_queue as u64 {
        state.queue_depth.fetch_sub(1, Ordering::SeqCst);
        state.counters.requests_shed.fetch_add(1, Ordering::SeqCst);
        return Err((
            ErrorCode::Overloaded,
            format!("admission queue full ({} queued, max {})", depth, state.max_queue),
        ));
    }
    let supervisor = match timeout_ms {
        Some(ms) => Supervisor::new().with_deadline(Duration::from_millis(ms)),
        None => Supervisor::new(),
    };
    let (tx, rx) = channel::<Result<String, ProtocolError>>();
    // This catch runs before the pool's own per-job catch, so count the
    // panic here — the shared counter backs the `worker_panics` stat.
    let panicked = Arc::clone(&state.panicked);
    let job_sup = supervisor.clone();
    let metrics_state = Arc::clone(state);
    let submitted = Instant::now();
    let job: Job = Box::new(move || {
        // The job has left the admission queue: free its slot first so
        // admission tracks queued-not-started work, not running work.
        metrics_state.queue_depth.fetch_sub(1, Ordering::SeqCst);
        // The gap between submission and this first instruction is queue
        // wait: how long the job sat behind other work in the pool.
        let wait = submitted.elapsed();
        metrics_state.queue_wait.observe(wait.as_secs_f64());
        if rec.is_enabled() {
            let wait_us = wait.as_micros() as u64;
            rec.record(TraceEvent {
                name: "queue.wait",
                start_us: rec.now_us().saturating_sub(wait_us),
                dur_us: Some(wait_us),
                attrs: Vec::new(),
            });
        }
        let started = Instant::now();
        let run_start_us = rec.now_us();
        let result = catch_unwind(AssertUnwindSafe(|| work(&job_sup))).unwrap_or_else(|_| {
            panicked.fetch_add(1, Ordering::SeqCst);
            Err((ErrorCode::WorkerPanic, "analysis worker panicked".into()))
        });
        let run = started.elapsed();
        metrics_state.run_time.observe(run.as_secs_f64());
        if rec.is_enabled() {
            rec.record(TraceEvent {
                name: "run",
                start_us: run_start_us,
                dur_us: Some(run.as_micros() as u64),
                attrs: Vec::new(),
            });
        }
        let _ = tx.send(result);
    });
    let sent = match state.jobs.lock() {
        Ok(jobs) => match jobs.as_ref() {
            Some(sender) => sender
                .send((job, supervisor.clone()))
                .map_err(|_| (ErrorCode::ShuttingDown, "daemon is draining".to_string())),
            None => Err((ErrorCode::ShuttingDown, "daemon is draining".to_string())),
        },
        Err(_) => Err(poisoned()),
    };
    if let Err(e) = sent {
        // The job never entered the queue: give its admission slot back.
        state.queue_depth.fetch_sub(1, Ordering::SeqCst);
        return Err(e);
    }
    Ok(PendingJob { rx, supervisor, timeout_ms, submitted })
}

fn await_job(pending: PendingJob) -> Result<String, ProtocolError> {
    // The deadline is measured from submission, so a batch that collects
    // items one by one does not grant later items extra time.
    let received = match pending.timeout_ms {
        Some(ms) => {
            let deadline = pending.submitted + Duration::from_millis(ms);
            let remaining = deadline.saturating_duration_since(Instant::now());
            pending.rx.recv_timeout(remaining)
        }
        None => pending.rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
    };
    match received {
        Ok(result) => result,
        Err(RecvTimeoutError::Timeout) => {
            // Nobody is listening for the result any more: tell the job
            // to stop so its worker is reclaimed instead of leaked.
            pending.supervisor.cancel();
            Err((
                ErrorCode::Timeout,
                format!("request exceeded its {}ms deadline", pending.timeout_ms.unwrap_or(0)),
            ))
        }
        // The job dropped its sender without replying: the closure itself
        // panicked outside our catch (should be unreachable, but stay
        // structured rather than hanging).
        Err(RecvTimeoutError::Disconnected) => {
            Err((ErrorCode::WorkerPanic, "analysis worker panicked".to_string()))
        }
    }
}

fn mint_trace_id(state: &Arc<ServiceState>) -> String {
    format!("taj-{:016x}", state.trace_seq.fetch_add(1, Ordering::SeqCst) + 1)
}

/// The per-request recorder: wall-clock when the flight recorder is on,
/// disabled (a single pointer test on every span site) otherwise.
fn request_recorder(state: &Arc<ServiceState>) -> Recorder {
    if state.flight.is_enabled() {
        Recorder::new()
    } else {
        Recorder::disabled()
    }
}

/// Flight-record outcome classification for failed requests.
fn outcome_of(code: ErrorCode) -> &'static str {
    match code {
        ErrorCode::Timeout => "timeout",
        ErrorCode::WorkerPanic => "panic",
        ErrorCode::Overloaded => "shed",
        _ => "error",
    }
}

/// Records a `cache.probe` instant event. The attribute vector is only
/// allocated when the per-request recorder is live.
fn probe_event(rec: &Recorder, tier: &'static str, hit: bool) {
    if rec.is_enabled() {
        rec.event("cache.probe", vec![("tier", tier.into()), ("hit", hit.into())]);
    }
}

/// Builds and captures the flight record for a finished analyze-class
/// request, and appends the structured slow-request log line when
/// triggered (slower than `--slow-ms`, degraded, panicked, shed, or
/// timed out). Runs on the connection thread after the response envelope
/// is already built: one O(1) ring push, never on the worker pool.
#[allow(clippy::too_many_arguments)]
fn capture_flight(
    state: &Arc<ServiceState>,
    rec: &Recorder,
    trace_id: &str,
    parent: Option<&str>,
    threads: Option<u64>,
    started: Instant,
    outcome: &'static str,
    error_code: Option<ErrorCode>,
) {
    if !state.flight.is_enabled() {
        return;
    }
    let elapsed = started.elapsed();
    let elapsed_us = elapsed.as_micros() as u64;
    let mut events = rec.events();
    // Derived attribution: which cache tier answered (last winning
    // probe), and whether the analysis degraded (the driver emits
    // `degrade` events on every ladder step).
    let mut cache_tier: Option<AttrValue> = None;
    let mut degraded = false;
    for ev in &events {
        match ev.name {
            "cache.probe" => {
                let hit = ev.attrs.iter().any(|(k, v)| *k == "hit" && *v == AttrValue::Bool(true));
                if hit {
                    if let Some((_, tier)) = ev.attrs.iter().find(|(k, _)| *k == "tier") {
                        cache_tier = Some(tier.clone());
                    }
                }
            }
            "degrade" => degraded = true,
            _ => {}
        }
    }
    let mut attrs: Vec<(&'static str, AttrValue)> = vec![
        ("degraded", AttrValue::Bool(degraded)),
        ("cache_tier", cache_tier.unwrap_or_else(|| "none".into())),
    ];
    if let Some(t) = threads {
        attrs.push(("threads", AttrValue::U64(t)));
    }
    if let Some(code) = error_code {
        attrs.push(("code", code.as_str().into()));
    }
    // A synthetic root span anchors the fragment's timeline and carries
    // the propagated parent span id, so stitched traces show which
    // upstream hop this request continued.
    let mut root_attrs: Vec<(&'static str, AttrValue)> = Vec::new();
    if let Some(p) = parent {
        root_attrs.push(("parent", p.into()));
    }
    events.insert(
        0,
        TraceEvent { name: "request", start_us: 0, dur_us: Some(elapsed_us), attrs: root_attrs },
    );
    let record =
        RequestRecord { trace_id: trace_id.to_string(), outcome, elapsed_us, attrs, events };
    let slow = state.slow_ms.is_some_and(|ms| elapsed >= Duration::from_millis(ms));
    if slow || degraded || matches!(outcome, "timeout" | "panic" | "shed") {
        eprintln!("{{\"slow_request\":{}}}", record.summary_json());
    }
    state.flight.push(record);
}

/// `trace <id>` body: this daemon's span fragment for one retained trace.
fn trace_raw(state: &Arc<ServiceState>, trace_id: &str) -> Result<String, ProtocolError> {
    let Some(record) = state.flight.get(trace_id) else {
        return Err((
            ErrorCode::BadRequest,
            format!("trace `{trace_id}` not found (flight recorder off, or record evicted)"),
        ));
    };
    let id_json = serde_json::to_string(&Value::String(trace_id.to_string()))
        .unwrap_or_else(|_| "\"\"".to_string());
    Ok(format!("{{\"trace_id\":{},\"fragments\":[{}]}}", id_json, record.fragment_json("daemon")))
}

/// `last_traces` body: ring summaries, newest first.
fn last_traces_raw(state: &Arc<ServiceState>, limit: Option<u64>) -> String {
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

/// Executes a `batch` envelope: every well-formed item is submitted to
/// the pool up front, so items run concurrently up to the pool size, and
/// results are collected in item order so the response array lines up
/// with the request array. Per-item failures — parse errors, analysis
/// errors, deadlines — land in that item's slot; they never fail the
/// envelope.
fn run_batch(state: &Arc<ServiceState>, batch: BatchRequest) -> String {
    struct Item {
        rec: Recorder,
        parent: Option<String>,
        threads: Option<u64>,
        started: Instant,
    }
    enum Slot {
        Pending { trace_id: String, job: PendingJob, item: Item },
        Done(String),
    }
    let envelope_timeout = batch.timeout_ms;
    let mut slots = Vec::with_capacity(batch.items.len());
    for item in batch.items {
        match item {
            Ok(req) => {
                state.counters.analyze_requests.fetch_add(1, Ordering::SeqCst);
                let trace_id = req.trace_id.clone().unwrap_or_else(|| mint_trace_id(state));
                let timeout_ms = req.timeout_ms.or(envelope_timeout).or(state.default_timeout_ms);
                let rec = request_recorder(state);
                let item = Item {
                    rec: rec.clone(),
                    parent: req.trace_parent.clone(),
                    threads: req.threads,
                    started: Instant::now(),
                };
                let job = submit_job(state, timeout_ms, rec.clone(), {
                    let state = Arc::clone(state);
                    move |sup: &Supervisor| run_analyze(&state, &req, sup, &rec)
                });
                match job {
                    Ok(job) => slots.push(Slot::Pending { trace_id, job, item }),
                    Err((code, msg)) => {
                        state.counters.errors.fetch_add(1, Ordering::SeqCst);
                        // A shed item carries the same retry hint a shed
                        // standalone request would; its siblings in the
                        // envelope still run.
                        let hint = shed_retry_hint(state, code);
                        capture_flight(
                            state,
                            &item.rec,
                            &trace_id,
                            item.parent.as_deref(),
                            item.threads,
                            item.started,
                            outcome_of(code),
                            Some(code),
                        );
                        slots.push(Slot::Done(batch_item_err_retry(&trace_id, code, &msg, hint)));
                    }
                }
            }
            Err((code, msg)) => {
                state.counters.errors.fetch_add(1, Ordering::SeqCst);
                let trace_id = mint_trace_id(state);
                slots.push(Slot::Done(batch_item_err(&trace_id, code, &msg)));
            }
        }
    }
    let mut rendered = Vec::with_capacity(slots.len());
    for slot in slots {
        rendered.push(match slot {
            Slot::Done(s) => s,
            Slot::Pending { trace_id, job, item } => match await_job(job) {
                Ok(raw) => {
                    capture_flight(
                        state,
                        &item.rec,
                        &trace_id,
                        item.parent.as_deref(),
                        item.threads,
                        item.started,
                        "ok",
                        None,
                    );
                    batch_item_ok(&trace_id, &raw)
                }
                Err((code, msg)) => {
                    state.counters.errors.fetch_add(1, Ordering::SeqCst);
                    if code == ErrorCode::Timeout {
                        state.counters.timeouts.fetch_add(1, Ordering::SeqCst);
                    }
                    capture_flight(
                        state,
                        &item.rec,
                        &trace_id,
                        item.parent.as_deref(),
                        item.threads,
                        item.started,
                        outcome_of(code),
                        Some(code),
                    );
                    batch_item_err(&trace_id, code, &msg)
                }
            },
        });
    }
    batch_result_raw(&rendered)
}

/// The `debug_sleep` job body: sleeps in short cancellation-aware chunks
/// so an abandoned sleeper frees its worker quickly, while an undisturbed
/// one still reports the full requested duration (the drain tests rely on
/// that).
fn debug_sleep(ms: u64, supervisor: &Supervisor) -> Result<String, ProtocolError> {
    let deadline = Instant::now() + Duration::from_millis(ms);
    loop {
        if supervisor.is_cancelled() {
            return Err((ErrorCode::Timeout, "sleep cancelled".to_string()));
        }
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        std::thread::sleep((deadline - now).min(Duration::from_millis(10)));
    }
    Ok(format!("{{\"slept_ms\":{ms}}}"))
}

fn poisoned() -> ProtocolError {
    (ErrorCode::WorkerPanic, "server state poisoned".to_string())
}

/// The cache-aware analysis pipeline: report cache → prepared cache →
/// phase-1 cache → phase 2. Artifacts are built outside the cache lock
/// and shared via `Arc`, so hits are pointer copies.
fn run_analyze(
    state: &Arc<ServiceState>,
    req: &AnalyzeRequest,
    supervisor: &Supervisor,
    rec: &Recorder,
) -> Result<String, ProtocolError> {
    // Fault-injection site at the service boundary (no-op in default
    // builds): lets tests fail an analyze job before it touches the
    // cache or pipeline.
    if let Some(reason) = taj_supervise::fail_hook("service.run_analyze") {
        let code = if reason.is_budget() { ErrorCode::OutOfMemory } else { ErrorCode::Timeout };
        return Err((code, format!("failpoint interrupt: {}", reason.as_str())));
    }
    let config = TajConfig::by_name(&req.config)
        .ok_or_else(|| (ErrorCode::UnknownConfig, format!("unknown config `{}`", req.config)))?;
    let src = content_hash(req.source.as_bytes());
    let rules_hash = req.rules.as_ref().map_or(0, |r| content_hash(r.as_bytes()));

    let report_key = ArtifactKey::Report {
        src,
        rules: rules_hash,
        config: config.name.to_string(),
        format: req.format,
        degrade: req.degrade,
    };
    // NB: every lookup is bound to a local before matching — a `match`
    // on `lock_cache(..)?.get(..)` would keep the MutexGuard temporary
    // alive across the miss arm's re-lock and self-deadlock.
    let cached_report = lock_cache(state)?.get(&report_key);
    let report_hit = matches!(&cached_report, Some(Artifact::Report(_)));
    probe_event(rec, "report", report_hit);
    if let Some(Artifact::Report(cached)) = cached_report {
        return Ok((*cached).clone());
    }

    // Durable tier: a disk hit bypasses the whole pipeline, exactly like
    // an in-memory report hit, and is promoted into the memory cache so
    // repeats stay off the disk too.
    let disk_key = format!(
        "report:{src:032x}:{rules_hash:032x}:{}:{:?}:{}",
        config.name, req.format, req.degrade
    );
    if let Some(store) = &state.store {
        let disk_hit = store.get(&disk_key);
        probe_event(rec, "disk", disk_hit.is_some());
        if let Some(serialized) = disk_hit {
            let bytes = serialized.len();
            lock_cache(state)?.insert(
                report_key,
                Artifact::Report(Arc::new(serialized.clone())),
                bytes,
            );
            return Ok(serialized);
        }
    }

    // Prepared program (parse + modeling + SSA).
    let prepared_key = ArtifactKey::Prepared { src, rules: rules_hash };
    let cached_prepared = lock_cache(state)?.get(&prepared_key);
    probe_event(rec, "prepared", matches!(&cached_prepared, Some(Artifact::Prepared(_))));
    let prepared = match cached_prepared {
        Some(Artifact::Prepared(p)) => p,
        _ => {
            let rules = match &req.rules {
                Some(text) => {
                    parse_rules(text).map_err(|e| (ErrorCode::BadRules, e.to_string()))?
                }
                None => RuleSet::default_rules(),
            };
            let p = prepare(&req.source, None, rules).map_err(|e| match e {
                TajError::Parse(p) => (ErrorCode::ParseError, p.to_string()),
                other => (ErrorCode::ParseError, other.to_string()),
            })?;
            state.counters.prepare_runs.fetch_add(1, Ordering::SeqCst);
            let p = Arc::new(p);
            lock_cache(state)?.insert(
                prepared_key,
                Artifact::Prepared(Arc::clone(&p)),
                prepared_bytes(req.source.len()),
            );
            p
        }
    };

    // Phase 1, keyed by the call-graph settings it is valid for.
    let phase1_key = ArtifactKey::Phase1 {
        src,
        rules: rules_hash,
        max_cg_nodes: config.max_cg_nodes,
        priority: config.priority,
    };
    let cached_phase1 = lock_cache(state)?.get(&phase1_key);
    let phase1_hit = matches!(&cached_phase1, Some(Artifact::Phase1(p)) if p.matches(&config));
    probe_event(rec, "phase1", phase1_hit);
    let phase1 = match cached_phase1 {
        Some(Artifact::Phase1(p)) if p.matches(&config) => p,
        _ => {
            let p = Arc::new(run_phase1_traced(&prepared, &config, supervisor, rec));
            state.counters.phase1_runs.fetch_add(1, Ordering::SeqCst);
            // An interrupted phase 1 is a deadline artifact, not a
            // property of the input: caching it would poison every later
            // request for this source.
            if p.interrupted.is_none() {
                let bytes = phase1_bytes(&p);
                lock_cache(state)?.insert(phase1_key, Artifact::Phase1(Arc::clone(&p)), bytes);
            }
            p
        }
    };

    let report = phase2(&prepared, &phase1, &config, req, supervisor, rec)?;
    state.counters.phase2_runs.fetch_add(1, Ordering::SeqCst);
    if report.degradation.degraded {
        state.counters.degraded_runs.fetch_add(1, Ordering::SeqCst);
    }
    let serialized = serialize(&report, req.format)?;
    // Budget-driven degradation is deterministic (same input → same
    // ladder) and safe to cache; deadline/cancel degradation depends on
    // wall-clock luck, so serving it from cache would pin a transient
    // truncation forever. Racing identical requests both insert the same
    // bytes: reports are a pure function of the key.
    let deterministic = !report.degradation.degraded
        || report.degradation.steps.iter().all(|s| s.reason.contains("budget"));
    if deterministic {
        let bytes = serialized.len();
        lock_cache(state)?.insert(
            report_key,
            Artifact::Report(Arc::new(serialized.clone())),
            bytes,
        );
        if let Some(store) = &state.store {
            store.put(&disk_key, &serialized);
        }
    }
    Ok(serialized)
}

fn lock_cache(
    state: &Arc<ServiceState>,
) -> Result<std::sync::MutexGuard<'_, ArtifactCache>, ProtocolError> {
    state.cache.lock().map_err(|_| poisoned())
}

/// The cache-free analysis pipeline: the same stages (and the same error
/// mapping) as [`run_analyze`] minus every cache tier. The router's
/// local failover uses it — a router holds no daemon state, so there is
/// nothing to cache into.
pub(crate) fn analyze_uncached(
    req: &AnalyzeRequest,
    supervisor: &Supervisor,
) -> Result<String, ProtocolError> {
    let config = TajConfig::by_name(&req.config)
        .ok_or_else(|| (ErrorCode::UnknownConfig, format!("unknown config `{}`", req.config)))?;
    let rules = match &req.rules {
        Some(text) => parse_rules(text).map_err(|e| (ErrorCode::BadRules, e.to_string()))?,
        None => RuleSet::default_rules(),
    };
    let prepared = prepare(&req.source, None, rules).map_err(|e| match e {
        TajError::Parse(p) => (ErrorCode::ParseError, p.to_string()),
        other => (ErrorCode::ParseError, other.to_string()),
    })?;
    let disabled = Recorder::disabled();
    let phase1 = run_phase1_traced(&prepared, &config, supervisor, &disabled);
    serialize(&phase2(&prepared, &phase1, &config, req, supervisor, &disabled)?, req.format)
}

/// Phase 2 under the request's degradation and thread options, with the
/// driver's errors mapped onto wire codes.
fn phase2(
    prepared: &PreparedProgram,
    phase1: &Phase1,
    config: &TajConfig,
    req: &AnalyzeRequest,
    supervisor: &Supervisor,
    rec: &Recorder,
) -> Result<TajReport, ProtocolError> {
    let opts = RunOptions {
        supervisor: supervisor.clone(),
        degrade: req.degrade,
        threads: req.threads.map_or(0, |n| n as usize),
        recorder: rec.clone(),
    };
    analyze_with_phase1_opts(prepared, phase1, config, &opts).map_err(|e| match e {
        TajError::OutOfMemory { path_edges } => (
            ErrorCode::OutOfMemory,
            format!("analysis ran out of memory budget ({path_edges} path edges)"),
        ),
        other => (ErrorCode::ParseError, other.to_string()),
    })
}

/// Renders a report in the requested wire format as one JSON line.
fn serialize(report: &TajReport, format: OutputFormat) -> Result<String, ProtocolError> {
    match format {
        OutputFormat::Report => serde_json::to_string(report)
            .map_err(|e| (ErrorCode::BadRequest, format!("serialization failed: {e}"))),
        // `to_sarif` pretty-prints; recompact it so the response stays a
        // single NDJSON line.
        OutputFormat::Sarif => taj_core::to_sarif(report)
            .and_then(|s| serde_json::from_str(&s))
            .and_then(|v| serde_json::to_string(&v))
            .map_err(|e| (ErrorCode::BadRequest, format!("SARIF serialization failed: {e}"))),
    }
}

pub(crate) fn configs_value() -> String {
    let mut items = Vec::new();
    for c in TajConfig::all() {
        let mut o = Value::object();
        o.insert("name", Value::String(c.name.to_string()));
        o.insert("algorithm", Value::String(format!("{:?}", c.algorithm)));
        o.insert("escape_analysis", Value::Bool(c.escape_analysis));
        items.push(o);
    }
    serde_json::to_string(&Value::Array(items)).unwrap_or_else(|_| "[]".to_string())
}

fn tier_value(t: &TierStats) -> Value {
    let mut o = Value::object();
    o.insert("hits", Value::UInt(u128::from(t.hits)));
    o.insert("misses", Value::UInt(u128::from(t.misses)));
    o.insert("evictions", Value::UInt(u128::from(t.evictions)));
    o.insert("bytes_used", Value::UInt(t.bytes_used as u128));
    o.insert("entries", Value::UInt(t.entries as u128));
    o
}

/// `stats` body: flat daemon counters plus the aggregate `cache` object
/// and the per-tier `cache_tiers` breakdown.
fn stats_raw(state: &Arc<ServiceState>) -> Result<String, ProtocolError> {
    let c = &state.counters;
    let (cache, tiers) = {
        let guard = lock_cache(state)?;
        (guard.stats(), guard.tier_stats())
    };
    let mut o = Value::object();
    o.insert("protocol_version", Value::UInt(u128::from(PROTOCOL_VERSION)));
    o.insert("uptime_ms", Value::UInt(state.started.elapsed().as_millis()));
    // Build identity: lets a mixed-version fleet (store fingerprint-skew
    // quarantines) be diagnosed from `stats` alone.
    let mut build_o = Value::object();
    build_o.insert("version", Value::String(env!("CARGO_PKG_VERSION").to_string()));
    build_o.insert("fingerprint", Value::String(format!("{:032x}", store_fingerprint())));
    o.insert("build", build_o);
    let mut flight_o = Value::object();
    flight_o.insert("capacity", Value::UInt(state.flight.capacity() as u128));
    flight_o.insert("retained", Value::UInt(state.flight.len() as u128));
    o.insert("flight", flight_o);
    o.insert("workers", Value::UInt(state.workers as u128));
    o.insert("requests", Value::UInt(u128::from(c.requests.load(Ordering::SeqCst))));
    o.insert(
        "analyze_requests",
        Value::UInt(u128::from(c.analyze_requests.load(Ordering::SeqCst))),
    );
    o.insert("batch_requests", Value::UInt(u128::from(c.batch_requests.load(Ordering::SeqCst))));
    o.insert("errors", Value::UInt(u128::from(c.errors.load(Ordering::SeqCst))));
    o.insert("timeouts", Value::UInt(u128::from(c.timeouts.load(Ordering::SeqCst))));
    o.insert("requests_shed", Value::UInt(u128::from(c.requests_shed.load(Ordering::SeqCst))));
    o.insert("queue_depth", Value::UInt(u128::from(state.queue_depth.load(Ordering::SeqCst))));
    o.insert("max_queue", Value::UInt(state.max_queue as u128));
    o.insert("worker_panics", Value::UInt(u128::from(state.panicked.load(Ordering::SeqCst))));
    o.insert("workers_reclaimed", Value::UInt(u128::from(state.reclaimed.load(Ordering::SeqCst))));
    o.insert("prepare_runs", Value::UInt(u128::from(c.prepare_runs.load(Ordering::SeqCst))));
    o.insert("phase1_runs", Value::UInt(u128::from(c.phase1_runs.load(Ordering::SeqCst))));
    o.insert("phase2_runs", Value::UInt(u128::from(c.phase2_runs.load(Ordering::SeqCst))));
    o.insert("degraded_runs", Value::UInt(u128::from(c.degraded_runs.load(Ordering::SeqCst))));
    let mut cache_o = Value::object();
    cache_o.insert("hits", Value::UInt(u128::from(cache.hits)));
    cache_o.insert("misses", Value::UInt(u128::from(cache.misses)));
    cache_o.insert("evictions", Value::UInt(u128::from(cache.evictions)));
    cache_o.insert("bytes_used", Value::UInt(cache.bytes_used as u128));
    cache_o.insert("bytes_budget", Value::UInt(cache.bytes_budget as u128));
    cache_o.insert("entries", Value::UInt(cache.entries as u128));
    o.insert("cache", cache_o);
    let mut tiers_o = Value::object();
    tiers_o.insert("prepared", tier_value(&tiers.prepared));
    tiers_o.insert("phase1", tier_value(&tiers.phase1));
    tiers_o.insert("report", tier_value(&tiers.report));
    o.insert("cache_tiers", tiers_o);
    let mut store_o = Value::object();
    match &state.store {
        Some(store) => {
            let s = store.stats();
            store_o.insert("enabled", Value::Bool(true));
            store_o.insert("hits", Value::UInt(u128::from(s.hits)));
            store_o.insert("misses", Value::UInt(u128::from(s.misses)));
            store_o.insert("evictions", Value::UInt(u128::from(s.evictions)));
            store_o.insert("quarantined", Value::UInt(u128::from(s.quarantined)));
            store_o.insert("write_errors", Value::UInt(u128::from(s.write_errors)));
            store_o.insert("bytes_used", Value::UInt(u128::from(s.bytes_used)));
            store_o.insert("bytes_budget", Value::UInt(u128::from(s.bytes_budget)));
            store_o.insert("entries", Value::UInt(u128::from(s.entries)));
            store_o.insert("replayed_entries", Value::UInt(u128::from(s.replayed_entries)));
            store_o.insert("open_micros", Value::UInt(u128::from(s.open_micros)));
        }
        None => {
            store_o.insert("enabled", Value::Bool(false));
        }
    }
    o.insert("store", store_o);
    serde_json::to_string(&o).map_err(|e| (ErrorCode::BadRequest, e.to_string()))
}

/// `metrics` body: the Prometheus text exposition, wrapped in a small
/// JSON object so it still fits the one-line NDJSON response framing.
/// `taj client metrics` unwraps it back to plain text.
fn metrics_raw(state: &Arc<ServiceState>) -> Result<String, ProtocolError> {
    let exposition = metrics_exposition(state)?;
    let mut o = Value::object();
    o.insert("content_type", Value::String("text/plain; version=0.0.4".to_string()));
    o.insert("exposition", Value::String(exposition));
    serde_json::to_string(&o).map_err(|e| (ErrorCode::BadRequest, e.to_string()))
}

fn metrics_exposition(state: &Arc<ServiceState>) -> Result<String, ProtocolError> {
    let c = &state.counters;
    let (cache, tiers) = {
        let guard = lock_cache(state)?;
        (guard.stats(), guard.tier_stats())
    };
    let tier_stats: [(TierStats, &str); 3] = [
        (tiers.prepared, TIER_NAMES[0]),
        (tiers.phase1, TIER_NAMES[1]),
        (tiers.report, TIER_NAMES[2]),
    ];
    let mut exp = Exposition::new();
    exp.family("taj_uptime_seconds", "Seconds since the daemon started.", "gauge");
    exp.sample("taj_uptime_seconds", &[], state.started.elapsed().as_secs_f64());
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
    exp.family("taj_flight_records", "Request records retained by the flight recorder.", "gauge");
    exp.sample("taj_flight_records", &[], state.flight.len() as f64);
    exp.family("taj_workers", "Worker pool size.", "gauge");
    exp.sample("taj_workers", &[], state.workers as f64);
    exp.family("taj_max_queue", "Admission-queue bound (jobs queued, not running).", "gauge");
    exp.sample("taj_max_queue", &[], state.max_queue as f64);
    exp.family("taj_queue_depth", "Jobs submitted but not yet picked up by a worker.", "gauge");
    exp.sample("taj_queue_depth", &[], state.queue_depth.load(Ordering::SeqCst) as f64);
    let counters: [(&str, &str, u64); 12] = [
        ("taj_requests_total", "Requests received.", c.requests.load(Ordering::SeqCst)),
        (
            "taj_requests_shed_total",
            "Requests rejected with `overloaded` by admission control.",
            c.requests_shed.load(Ordering::SeqCst),
        ),
        (
            "taj_analyze_requests_total",
            "Analyze requests received.",
            c.analyze_requests.load(Ordering::SeqCst),
        ),
        (
            "taj_batch_requests_total",
            "Batch envelopes received.",
            c.batch_requests.load(Ordering::SeqCst),
        ),
        ("taj_errors_total", "Requests answered with an error.", c.errors.load(Ordering::SeqCst)),
        (
            "taj_timeouts_total",
            "Requests that exceeded their deadline.",
            c.timeouts.load(Ordering::SeqCst),
        ),
        (
            "taj_worker_panics_total",
            "Jobs that panicked on a worker.",
            state.panicked.load(Ordering::SeqCst),
        ),
        (
            "taj_workers_reclaimed_total",
            "Workers reclaimed from abandoned jobs.",
            state.reclaimed.load(Ordering::SeqCst),
        ),
        (
            "taj_prepare_runs_total",
            "Prepare executions (cache misses).",
            c.prepare_runs.load(Ordering::SeqCst),
        ),
        (
            "taj_phase1_runs_total",
            "Phase-1 executions (cache misses).",
            c.phase1_runs.load(Ordering::SeqCst),
        ),
        ("taj_phase2_runs_total", "Phase-2 executions.", c.phase2_runs.load(Ordering::SeqCst)),
        (
            "taj_degraded_runs_total",
            "Analyses that degraded down the precision ladder.",
            c.degraded_runs.load(Ordering::SeqCst),
        ),
    ];
    for (name, help, value) in counters {
        exp.family(name, help, "counter");
        exp.sample(name, &[], value as f64);
    }
    // The disk store joins the cache families as a fourth `tier="disk"`
    // series; a daemon without a store emits zeros so the exposition
    // shape is identical either way (scrapers never see families appear
    // mid-flight).
    let store = state.store.as_ref().map(|s| s.stats()).unwrap_or_default();
    exp.family("taj_cache_hits_total", "Cache hits, by artifact tier.", "counter");
    for (t, name) in tier_stats {
        exp.sample("taj_cache_hits_total", &[("tier", name)], t.hits as f64);
    }
    exp.sample("taj_cache_hits_total", &[("tier", "disk")], store.hits as f64);
    exp.family("taj_cache_misses_total", "Cache misses, by artifact tier.", "counter");
    for (t, name) in tier_stats {
        exp.sample("taj_cache_misses_total", &[("tier", name)], t.misses as f64);
    }
    exp.sample("taj_cache_misses_total", &[("tier", "disk")], store.misses as f64);
    exp.family("taj_cache_evictions_total", "Cache evictions, by artifact tier.", "counter");
    for (t, name) in tier_stats {
        exp.sample("taj_cache_evictions_total", &[("tier", name)], t.evictions as f64);
    }
    exp.sample("taj_cache_evictions_total", &[("tier", "disk")], store.evictions as f64);
    exp.family("taj_cache_entries", "Live cache entries, by artifact tier.", "gauge");
    for (t, name) in tier_stats {
        exp.sample("taj_cache_entries", &[("tier", name)], t.entries as f64);
    }
    exp.sample("taj_cache_entries", &[("tier", "disk")], store.entries as f64);
    exp.family("taj_cache_bytes_used", "Estimated cache bytes, by artifact tier.", "gauge");
    for (t, name) in tier_stats {
        exp.sample("taj_cache_bytes_used", &[("tier", name)], t.bytes_used as f64);
    }
    exp.sample("taj_cache_bytes_used", &[("tier", "disk")], store.bytes_used as f64);
    exp.family("taj_cache_bytes_budget", "Configured cache byte budget.", "gauge");
    exp.sample("taj_cache_bytes_budget", &[], cache.bytes_budget as f64);
    exp.family("taj_store_enabled", "Whether a persistent store is mounted.", "gauge");
    exp.sample("taj_store_enabled", &[], if state.store.is_some() { 1.0 } else { 0.0 });
    exp.family(
        "taj_store_quarantined_total",
        "Invalid on-disk entries renamed aside instead of served.",
        "counter",
    );
    exp.sample("taj_store_quarantined_total", &[], store.quarantined as f64);
    exp.family("taj_store_write_errors_total", "Failed on-disk store writes.", "counter");
    exp.sample("taj_store_write_errors_total", &[], store.write_errors as f64);
    exp.family("taj_store_bytes_budget", "Configured on-disk store byte budget.", "gauge");
    exp.sample("taj_store_bytes_budget", &[], store.bytes_budget as f64);
    exp.family(
        "taj_store_replayed_entries",
        "Entries found by the open-time directory replay.",
        "gauge",
    );
    exp.sample("taj_store_replayed_entries", &[], store.replayed_entries as f64);
    exp.family("taj_store_open_seconds", "Time the open-time directory replay took.", "gauge");
    exp.sample("taj_store_open_seconds", &[], store.open_micros as f64 / 1e6);
    exp.histogram(
        "taj_request_queue_wait_seconds",
        "Time dispatched jobs spent queued before a worker picked them up.",
        &[],
        &state.queue_wait.snapshot(),
    );
    exp.histogram(
        "taj_request_run_seconds",
        "Time dispatched jobs spent running on their worker.",
        &[],
        &state.run_time.snapshot(),
    );
    Ok(exp.finish())
}
