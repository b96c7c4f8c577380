//! A pure-std client for the daemon protocol: one socket, sequential
//! request/response lines. Used by `taj client` and the integration
//! tests; doubles as the reference implementation of the wire format.
//!
//! The client is overload- and failure-aware: idempotent commands
//! (`analyze`, `batch`, `configs`, `stats`, `metrics`) are retried with
//! jittered exponential backoff after transport errors and after
//! retryable server rejections (`overloaded`, `shutting_down`),
//! honoring the server's `retry_after_ms` hint as a backoff floor.
//! `shutdown` and [`Client::request_raw`] are never retried. Optional
//! socket read/write timeouts bound how long a stalled peer can hang a
//! caller; on any I/O error the connection is dropped and re-dialed
//! before the next attempt, so a torn response line can never desync
//! the stream.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

use serde::Value;

use crate::server::BoundAddr;

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Socket error (or server closed the connection mid-response).
    Io(io::Error),
    /// The server's reply was not a valid response object.
    Protocol(String),
    /// A structured error response from the server.
    Remote {
        /// `error.code` from the response.
        code: String,
        /// `error.message` from the response.
        message: String,
        /// `error.retry_after_ms` from the response — the server's
        /// backoff hint on `overloaded` rejections.
        retry_after_ms: Option<u64>,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "socket error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Remote { code, message, .. } => {
                write!(f, "server error [{code}]: {message}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Retry budget for idempotent requests: exponential backoff with full
/// jitter, starting at `base_backoff_ms` and doubling per attempt up to
/// `max_backoff_ms`.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Total attempts including the first (`1` disables retries).
    pub max_attempts: u32,
    /// Backoff before the first retry (doubles per further retry).
    pub base_backoff_ms: u64,
    /// Backoff ceiling per retry.
    pub max_backoff_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy { max_attempts: 3, base_backoff_ms: 20, max_backoff_ms: 1_000 }
    }
}

impl RetryPolicy {
    /// No retries: every failure surfaces on the first attempt.
    pub fn none() -> RetryPolicy {
        RetryPolicy { max_attempts: 1, base_backoff_ms: 0, max_backoff_ms: 0 }
    }
}

/// Where the client (re)connects.
#[derive(Clone, Debug)]
enum Target {
    Tcp(String),
    Unix(PathBuf),
}

/// A cloned handle on the live socket, kept for timeout control — the
/// boxed reader/writer erase the concrete type, but timeouts apply to
/// the shared fd, so setting them here covers both halves.
enum StreamCtl {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl StreamCtl {
    fn set_io_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            StreamCtl::Tcp(s) => {
                s.set_read_timeout(timeout)?;
                s.set_write_timeout(timeout)
            }
            StreamCtl::Unix(s) => {
                s.set_read_timeout(timeout)?;
                s.set_write_timeout(timeout)
            }
        }
    }
}

/// Options for [`Client::analyze`].
#[derive(Clone, Debug, Default)]
pub struct AnalyzeOpts {
    /// Named configuration (`None` → server default, `hybrid`).
    pub config: Option<String>,
    /// Rules-file text overriding the default rule set.
    pub rules: Option<String>,
    /// Request SARIF instead of the report JSON.
    pub sarif: bool,
    /// Per-request deadline (ms).
    pub timeout_ms: Option<u64>,
    /// Allow the server to degrade down the precision ladder on budget
    /// exhaustion instead of failing with `out_of_memory`.
    pub degrade: bool,
    /// Phase-2 worker threads (`None`/`0` = one per server core). Never
    /// affects the report bytes, only how fast they are produced.
    pub threads: Option<u64>,
    /// Trace id echoed back in the response envelope (`None` → the
    /// server mints one).
    pub trace_id: Option<String>,
}

/// A connected protocol client.
pub struct Client {
    reader: BufReader<Box<dyn Read + Send>>,
    writer: Box<dyn Write + Send>,
    ctl: StreamCtl,
    target: Target,
    io_timeout: Option<Duration>,
    retry: RetryPolicy,
    next_id: u64,
    /// xorshift64 state for backoff jitter — decorrelates fleets of
    /// clients retrying into the same overloaded server.
    jitter: u64,
}

/// The halves of a freshly dialed connection: buffered reader, writer,
/// and the control handle that owns timeout configuration.
type DialedStream = (BufReader<Box<dyn Read + Send>>, Box<dyn Write + Send>, StreamCtl);

fn dial(target: &Target, io_timeout: Option<Duration>) -> io::Result<DialedStream> {
    match target {
        Target::Tcp(addr) => {
            let stream = TcpStream::connect(addr.as_str())?;
            // One-line requests/responses: Nagle + delayed ACK would add
            // ~40ms per hop to every exchange.
            stream.set_nodelay(true)?;
            let ctl = StreamCtl::Tcp(stream.try_clone()?);
            ctl.set_io_timeout(io_timeout)?;
            let read_half = stream.try_clone()?;
            Ok((BufReader::new(Box::new(read_half)), Box::new(stream), ctl))
        }
        Target::Unix(path) => {
            let stream = UnixStream::connect(path)?;
            let ctl = StreamCtl::Unix(stream.try_clone()?);
            ctl.set_io_timeout(io_timeout)?;
            let read_half = stream.try_clone()?;
            Ok((BufReader::new(Box::new(read_half)), Box::new(stream), ctl))
        }
    }
}

fn jitter_seed() -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| u64::from(d.subsec_nanos()));
    // Never zero (xorshift's fixed point), always process-distinct.
    (nanos << 16) ^ u64::from(std::process::id()) | 1
}

impl Client {
    fn from_target(target: Target) -> io::Result<Client> {
        let (reader, writer, ctl) = dial(&target, None)?;
        Ok(Client {
            reader,
            writer,
            ctl,
            target,
            io_timeout: None,
            retry: RetryPolicy::default(),
            next_id: 1,
            jitter: jitter_seed(),
        })
    }

    /// Connects over TCP (`host:port`).
    ///
    /// # Errors
    /// Propagates connection failures.
    pub fn connect_tcp(addr: &str) -> io::Result<Client> {
        Client::from_target(Target::Tcp(addr.to_string()))
    }

    /// Connects over a Unix domain socket.
    ///
    /// # Errors
    /// Propagates connection failures.
    pub fn connect_unix(path: &Path) -> io::Result<Client> {
        Client::from_target(Target::Unix(path.to_path_buf()))
    }

    /// Connects to a server handle's bound address (test convenience).
    ///
    /// # Errors
    /// Propagates connection failures.
    pub fn connect(addr: &BoundAddr) -> io::Result<Client> {
        match addr {
            BoundAddr::Tcp(a) => Self::connect_tcp(&a.to_string()),
            BoundAddr::Unix(p) => Self::connect_unix(p),
        }
    }

    /// Replaces the retry policy (builder form).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Client {
        self.retry = retry;
        self
    }

    /// Replaces the retry policy in place.
    pub fn set_retry(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// Sets (or clears) the socket read/write timeout. Applies to the
    /// live connection immediately and to every reconnect after it, so
    /// a stalled peer surfaces as [`ClientError::Io`] within the bound
    /// instead of hanging the caller forever.
    ///
    /// # Errors
    /// Propagates `setsockopt` failures.
    pub fn set_io_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.ctl.set_io_timeout(timeout)?;
        self.io_timeout = timeout;
        Ok(())
    }

    /// Drops the current connection and dials the original target again.
    /// Called automatically between retry attempts after an I/O error;
    /// public so callers managing their own retries can resync too.
    ///
    /// # Errors
    /// Propagates connection failures (the old, broken connection stays
    /// in place; a later call can still succeed).
    pub fn reconnect(&mut self) -> io::Result<()> {
        let (reader, writer, ctl) = dial(&self.target, self.io_timeout)?;
        self.reader = reader;
        self.writer = writer;
        self.ctl = ctl;
        Ok(())
    }

    /// Sends one raw line (no trailing newline needed) and returns the raw
    /// response line — the escape hatch for malformed-input tests and
    /// byte-identity assertions. Never retried.
    ///
    /// # Errors
    /// [`ClientError::Io`] on socket failures or a closed connection.
    pub fn request_raw(&mut self, line: &str) -> Result<String, ClientError> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )));
        }
        // A line without its newline is a torn write from a peer that
        // died mid-response: surface it as I/O, not as data.
        if !response.ends_with('\n') {
            return Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection mid-response",
            )));
        }
        Ok(response.trim_end_matches('\n').to_string())
    }

    /// Sends a request object once and returns the `result` payload,
    /// mapping `ok:false` responses to [`ClientError::Remote`]. An `id`
    /// is auto-assigned when the object lacks one. Not retried — use the
    /// typed helpers for retry-aware calls.
    ///
    /// # Errors
    /// [`ClientError`] on socket, framing, or server-reported failures.
    pub fn request(&mut self, mut request: Value) -> Result<Value, ClientError> {
        self.assign_id(&mut request);
        let line = serialize_request(&request)?;
        self.send_line(&line)
    }

    fn assign_id(&mut self, request: &mut Value) {
        if request.get("id").is_none() {
            request.insert("id", Value::UInt(u128::from(self.next_id)));
            self.next_id += 1;
        }
    }

    /// Sends one line and returns the `result` of its success envelope.
    fn send_line(&mut self, line: &str) -> Result<Value, ClientError> {
        let raw = self.request_raw(line)?;
        let response = serde_json::from_str(&raw)
            .map_err(|e| ClientError::Protocol(format!("unparseable response: {e}")))?;
        match response.get("ok").and_then(Value::as_bool) {
            Some(true) => Ok(response.get("result").cloned().unwrap_or(Value::Null)),
            Some(false) => {
                let code = response["error"]["code"].as_str().unwrap_or("unknown").to_string();
                let message = response["error"]["message"].as_str().unwrap_or("").to_string();
                let retry_after_ms = response["error"]["retry_after_ms"].as_u64();
                Err(ClientError::Remote { code, message, retry_after_ms })
            }
            None => Err(ClientError::Protocol("response missing `ok` field".to_string())),
        }
    }

    fn next_jitter(&mut self) -> u64 {
        let mut x = self.jitter;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.jitter = x;
        x
    }

    /// Backoff before retry number `retry` (0-based): exponential with
    /// full jitter in `[exp/2, exp]`, floored at the server's
    /// `retry_after_ms` hint when one was given.
    fn backoff_ms(&mut self, retry: u32, floor: Option<u64>) -> u64 {
        let exp = self
            .retry
            .base_backoff_ms
            .saturating_mul(1u64 << retry.min(20))
            .min(self.retry.max_backoff_ms);
        let half = exp / 2;
        let ms = half + if half == 0 { 0 } else { self.next_jitter() % (half + 1) };
        floor.map_or(ms, |f| ms.max(f))
    }

    /// Sends an *idempotent* request under the retry policy: the same
    /// serialized line (same id) is re-sent after transport errors
    /// (reconnecting first) and after retryable server rejections.
    /// Identical bytes per attempt is what makes a retry safe — the
    /// server's content-addressed caching dedupes re-execution.
    fn request_idempotent(&mut self, mut request: Value) -> Result<Value, ClientError> {
        self.assign_id(&mut request);
        let line = serialize_request(&request)?;
        let attempts = self.retry.max_attempts.max(1);
        let mut last: Option<ClientError> = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                let floor = match &last {
                    Some(ClientError::Remote { retry_after_ms, .. }) => *retry_after_ms,
                    _ => None,
                };
                let ms = self.backoff_ms(attempt - 1, floor);
                std::thread::sleep(Duration::from_millis(ms));
                if matches!(last, Some(ClientError::Io(_))) {
                    // The old stream may hold half a response; never
                    // reuse it. A failed redial leaves the broken stream
                    // in place, and the attempt below re-errors cheaply.
                    let _ = self.reconnect();
                }
            }
            match self.send_line(&line) {
                Ok(v) => return Ok(v),
                Err(e) => {
                    let retryable = match &e {
                        ClientError::Io(_) => true,
                        ClientError::Remote { code, .. } => {
                            code == "overloaded" || code == "shutting_down"
                        }
                        ClientError::Protocol(_) => false,
                    };
                    if !retryable {
                        return Err(e);
                    }
                    last = Some(e);
                }
            }
        }
        Err(last.unwrap_or_else(|| ClientError::Protocol("retry loop sent nothing".into())))
    }

    /// Runs an analysis; returns the report (or SARIF) JSON value.
    /// Retried under the client's [`RetryPolicy`] (analyze is
    /// idempotent: same source, same report bytes).
    ///
    /// # Errors
    /// [`ClientError`] on socket, framing, or server-reported failures.
    pub fn analyze(&mut self, source: &str, opts: &AnalyzeOpts) -> Result<Value, ClientError> {
        let mut req = analyze_body(source, opts);
        req.insert("cmd", Value::String("analyze".to_string()));
        self.request_idempotent(req)
    }

    /// Submits several analyses in one `batch` envelope; returns the
    /// batch result object (`count` plus the ordered `items` array, one
    /// `{ok, trace_id, result|error}` entry per submitted program).
    /// Per-item failures live inside their item — only envelope-level
    /// problems surface as [`ClientError`]. Retried under the client's
    /// [`RetryPolicy`].
    ///
    /// `timeout_ms` is the envelope-wide default deadline; an item's own
    /// `AnalyzeOpts::timeout_ms` overrides it.
    ///
    /// # Errors
    /// [`ClientError`] on socket, framing, or envelope-level failures.
    pub fn batch(
        &mut self,
        items: &[(String, AnalyzeOpts)],
        timeout_ms: Option<u64>,
    ) -> Result<Value, ClientError> {
        let mut req = Value::object();
        req.insert("cmd", Value::String("batch".to_string()));
        let entries =
            items.iter().map(|(source, opts)| analyze_body(source, opts)).collect::<Vec<_>>();
        req.insert("items", Value::Array(entries));
        if let Some(t) = timeout_ms {
            req.insert("timeout_ms", Value::UInt(u128::from(t)));
        }
        self.request_idempotent(req)
    }

    /// Lists the server's configurations.
    ///
    /// # Errors
    /// [`ClientError`] on socket, framing, or server-reported failures.
    pub fn configs(&mut self) -> Result<Value, ClientError> {
        self.simple("configs")
    }

    /// Fetches daemon + cache counters.
    ///
    /// # Errors
    /// [`ClientError`] on socket, framing, or server-reported failures.
    pub fn stats(&mut self) -> Result<Value, ClientError> {
        self.simple("stats")
    }

    /// Fetches the daemon's Prometheus text exposition, unwrapped from
    /// its NDJSON envelope back to plain text.
    ///
    /// # Errors
    /// [`ClientError`] on socket, framing, or server-reported failures,
    /// or a response without the `exposition` field.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        let v = self.simple("metrics")?;
        v.get("exposition")
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| ClientError::Protocol("metrics response missing `exposition`".into()))
    }

    /// Fetches the span fragments retained for `trace_id` — the daemon
    /// answers with its own fragment, the router with its hop fragment
    /// plus every shard fragment it could collect. Read-only, so retried
    /// under the client's [`RetryPolicy`].
    ///
    /// # Errors
    /// [`ClientError`] on socket, framing, or server-reported failures
    /// (`bad_request` when the id is unknown or the ring evicted it).
    pub fn trace(&mut self, trace_id: &str) -> Result<Value, ClientError> {
        let mut req = Value::object();
        req.insert("cmd", Value::String("trace".to_string()));
        req.insert("trace_id", Value::String(trace_id.to_string()));
        self.request_idempotent(req)
    }

    /// Lists flight-recorder summaries, newest first, optionally capped
    /// at `limit`. Read-only, so retried under the client's
    /// [`RetryPolicy`].
    ///
    /// # Errors
    /// [`ClientError`] on socket, framing, or server-reported failures.
    pub fn last_traces(&mut self, limit: Option<u64>) -> Result<Value, ClientError> {
        let mut req = Value::object();
        req.insert("cmd", Value::String("last_traces".to_string()));
        if let Some(n) = limit {
            req.insert("limit", Value::UInt(u128::from(n)));
        }
        self.request_idempotent(req)
    }

    /// Asks the daemon to drain and exit. Never retried — a retry could
    /// tear down a daemon that already restarted.
    ///
    /// # Errors
    /// [`ClientError`] on socket, framing, or server-reported failures.
    pub fn shutdown(&mut self) -> Result<Value, ClientError> {
        let mut req = Value::object();
        req.insert("cmd", Value::String("shutdown".to_string()));
        self.request(req)
    }

    fn simple(&mut self, cmd: &str) -> Result<Value, ClientError> {
        let mut req = Value::object();
        req.insert("cmd", Value::String(cmd.to_string()));
        self.request_idempotent(req)
    }
}

fn serialize_request(request: &Value) -> Result<String, ClientError> {
    serde_json::to_string(request)
        .map_err(|e| ClientError::Protocol(format!("cannot serialize request: {e}")))
}

/// Builds the analyze fields shared by `analyze` requests and `batch`
/// items (which are exactly an analyze body without `id`/`cmd`).
fn analyze_body(source: &str, opts: &AnalyzeOpts) -> Value {
    let mut req = Value::object();
    req.insert("source", Value::String(source.to_string()));
    if let Some(c) = &opts.config {
        req.insert("config", Value::String(c.clone()));
    }
    if let Some(r) = &opts.rules {
        req.insert("rules", Value::String(r.clone()));
    }
    if opts.sarif {
        req.insert("format", Value::String("sarif".to_string()));
    }
    if let Some(t) = opts.timeout_ms {
        req.insert("timeout_ms", Value::UInt(u128::from(t)));
    }
    if let Some(t) = opts.threads {
        req.insert("threads", Value::UInt(u128::from(t)));
    }
    if opts.degrade {
        req.insert("degrade", Value::Bool(true));
    }
    if let Some(t) = &opts.trace_id {
        req.insert("trace_id", Value::String(t.clone()));
    }
    req
}
