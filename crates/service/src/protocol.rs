//! The wire protocol: newline-delimited JSON (NDJSON) requests and
//! responses.
//!
//! Every request is one JSON object on one line with a `cmd` field and an
//! optional `id` the server echoes back. The protocol is **strict**:
//! unknown commands and unknown fields are rejected with `bad_request`
//! rather than silently ignored, so client typos cannot change semantics.
//!
//! See `docs/service.md` for the full request/response schemas.

use serde::Value;

/// Protocol version reported by `stats`.
pub const PROTOCOL_VERSION: u64 = 3;

/// Upper bound on `batch` items per envelope: enough to amortize
/// dispatch over a corpus, small enough that one envelope cannot pin
/// the connection handler (and the response line) for minutes.
pub const MAX_BATCH_ITEMS: usize = 1024;

/// Machine-readable error categories carried in `error.code`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// Malformed JSON, missing/mistyped fields, or unknown fields.
    BadRequest,
    /// `cmd` is not one the server accepts.
    UnknownCommand,
    /// `config` does not name a known configuration.
    UnknownConfig,
    /// The `rules` text failed to parse.
    BadRules,
    /// The submitted source failed the jweb frontend.
    ParseError,
    /// The CS slicer exceeded its path-edge (memory) budget.
    OutOfMemory,
    /// The request exceeded its deadline; the job may still be running.
    Timeout,
    /// The analysis worker panicked; the daemon itself survives.
    WorkerPanic,
    /// The daemon is draining after `shutdown` and takes no new work.
    ShuttingDown,
    /// The admission queue is full; retry after the hinted delay. The
    /// error object carries `retry_after_ms` so clients can back off to
    /// when capacity is expected rather than guessing.
    Overloaded,
}

impl ErrorCode {
    /// Stable string form used on the wire.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnknownCommand => "unknown_command",
            ErrorCode::UnknownConfig => "unknown_config",
            ErrorCode::BadRules => "bad_rules",
            ErrorCode::ParseError => "parse_error",
            ErrorCode::OutOfMemory => "out_of_memory",
            ErrorCode::Timeout => "timeout",
            ErrorCode::WorkerPanic => "worker_panic",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::Overloaded => "overloaded",
        }
    }

    /// Whether a client may safely retry the request after a backoff.
    /// Overload and drain rejections happen *before* any work starts,
    /// so retrying can never duplicate effects.
    pub fn is_retryable(self) -> bool {
        matches!(self, ErrorCode::Overloaded | ErrorCode::ShuttingDown)
    }
}

/// Result rendering for `analyze`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OutputFormat {
    /// The full [`taj_core::TajReport`] as JSON (default).
    Report,
    /// SARIF 2.1.0, as a JSON document.
    Sarif,
}

impl OutputFormat {
    fn from_wire(s: &str) -> Option<OutputFormat> {
        match s {
            "report" => Some(OutputFormat::Report),
            "sarif" => Some(OutputFormat::Sarif),
            _ => None,
        }
    }
}

/// A parsed `analyze` request.
#[derive(Clone, Debug)]
pub struct AnalyzeRequest {
    /// jweb source text to analyze.
    pub source: String,
    /// Named configuration (see `taj configs`); defaults to `hybrid`.
    pub config: String,
    /// Optional rules-file text replacing the default rule set.
    pub rules: Option<String>,
    /// Result rendering.
    pub format: OutputFormat,
    /// Per-request deadline override (ms).
    pub timeout_ms: Option<u64>,
    /// Degrade down the precision ladder on budget exhaustion instead of
    /// failing with `out_of_memory`.
    pub degrade: bool,
    /// Phase-2 worker threads (`0`/absent = one per core). An execution
    /// parameter only: reports are byte-identical at every value, so it
    /// is deliberately *not* part of the report-cache key.
    pub threads: Option<u64>,
    /// Client-chosen trace id echoed back in the response envelope; the
    /// server generates one when absent. Lives in the envelope (not the
    /// cached result bytes), so it never perturbs cache identity.
    pub trace_id: Option<String>,
    /// Parent span id from the propagated trace context (`trace.parent`):
    /// the upstream hop — e.g. `router` — whose span this request's root
    /// span continues. Recorded as an attribute on the flight-recorder
    /// root span, never part of cache identity.
    pub trace_parent: Option<String>,
}

/// A parsed `batch` request: every item decoded independently, so one
/// malformed item becomes that item's error response instead of
/// failing the envelope (the same isolation analysis failures get).
#[derive(Clone, Debug)]
pub struct BatchRequest {
    /// Per-item decode outcomes, in envelope order.
    pub items: Vec<Result<AnalyzeRequest, ProtocolError>>,
    /// Envelope-level deadline default for items without their own.
    pub timeout_ms: Option<u64>,
}

/// One decoded request command.
#[derive(Clone, Debug)]
pub enum Command {
    /// Run (or serve from cache) a taint analysis.
    Analyze(AnalyzeRequest),
    /// Run N analyses from one envelope, answered by one ordered
    /// response envelope with per-item status.
    Batch(BatchRequest),
    /// List the available configuration names.
    Configs,
    /// Report daemon + cache counters.
    Stats,
    /// Render daemon counters as a Prometheus text exposition.
    Metrics,
    /// Fetch one flight-recorder record (span fragments) by trace id.
    Trace {
        /// The trace id to look up.
        trace_id: String,
    },
    /// List the most recent flight-recorder records, newest first.
    LastTraces {
        /// Cap on returned records (default: the whole ring).
        limit: Option<u64>,
    },
    /// Drain in-flight jobs and exit.
    Shutdown,
    /// Debug only: a worker job that sleeps `ms` (for timeout tests).
    DebugSleep {
        /// Sleep duration in milliseconds.
        ms: u64,
        /// Per-request deadline override (ms).
        timeout_ms: Option<u64>,
    },
    /// Debug only: a worker job that panics (for isolation tests).
    DebugPanic,
}

/// A full request: client-chosen `id` (echoed back) plus the command.
#[derive(Clone, Debug)]
pub struct Request {
    /// The client's correlation id (`null` when absent).
    pub id: Value,
    /// The decoded command.
    pub command: Command,
}

/// A protocol-level rejection: code plus human-readable message.
pub type ProtocolError = (ErrorCode, String);

fn bad(msg: impl Into<String>) -> ProtocolError {
    (ErrorCode::BadRequest, msg.into())
}

fn get_str(obj: &Value, key: &str) -> Result<Option<String>, ProtocolError> {
    match obj.get(key) {
        None => Ok(None),
        Some(Value::String(s)) => Ok(Some(s.clone())),
        Some(_) => Err(bad(format!("field `{key}` must be a string"))),
    }
}

fn get_bool(obj: &Value, key: &str) -> Result<Option<bool>, ProtocolError> {
    match obj.get(key) {
        None => Ok(None),
        Some(Value::Bool(b)) => Ok(Some(*b)),
        Some(_) => Err(bad(format!("field `{key}` must be a boolean"))),
    }
}

fn get_u64(obj: &Value, key: &str) -> Result<Option<u64>, ProtocolError> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => match v.as_u64() {
            Some(n) => Ok(Some(n)),
            None => Err(bad(format!("field `{key}` must be a non-negative integer"))),
        },
    }
}

/// Rejects any top-level key outside `allowed` — the strictness that lets
/// clients trust a typo'd field will fail loudly instead of being dropped.
fn check_fields(obj: &Value, allowed: &[&str]) -> Result<(), ProtocolError> {
    if let Value::Object(entries) = obj {
        for (k, _) in entries {
            if !allowed.contains(&k.as_str()) {
                return Err(bad(format!("unknown field `{k}`")));
            }
        }
    }
    Ok(())
}

/// Parses the analyze field set out of `value` — shared by the
/// `analyze` command and each `batch` item (which allows the same
/// fields minus the envelope-level `id`/`cmd`).
fn parse_analyze_body(
    value: &Value,
    extra_allowed: &[&str],
) -> Result<AnalyzeRequest, ProtocolError> {
    let mut allowed: Vec<&str> = extra_allowed.to_vec();
    allowed.extend_from_slice(&[
        "source",
        "config",
        "rules",
        "format",
        "timeout_ms",
        "degrade",
        "threads",
        "trace_id",
        "trace",
    ]);
    check_fields(value, &allowed)?;
    let source = get_str(value, "source")?.ok_or_else(|| bad("missing `source`"))?;
    let config = get_str(value, "config")?.unwrap_or_else(|| "hybrid".to_string());
    let rules = get_str(value, "rules")?;
    let format = match get_str(value, "format")? {
        None => OutputFormat::Report,
        Some(f) => OutputFormat::from_wire(&f)
            .ok_or_else(|| bad(format!("unknown format `{f}` (report|sarif)")))?,
    };
    let timeout_ms = get_u64(value, "timeout_ms")?;
    let degrade = get_bool(value, "degrade")?.unwrap_or(false);
    let threads = get_u64(value, "threads")?;
    let mut trace_id = get_str(value, "trace_id")?;
    let mut trace_parent = None;
    if let Some(trace) = value.get("trace") {
        if !matches!(trace, Value::Object(_)) {
            return Err(bad("field `trace` must be an object"));
        }
        check_fields(trace, &["trace_id", "parent"])?;
        let ctx_id =
            get_str(trace, "trace_id")?.ok_or_else(|| bad("trace context missing `trace_id`"))?;
        trace_id = Some(ctx_id);
        trace_parent = get_str(trace, "parent")?;
    }
    Ok(AnalyzeRequest {
        source,
        config,
        rules,
        format,
        timeout_ms,
        degrade,
        threads,
        trace_id,
        trace_parent,
    })
}

/// Parses one request line. `debug` enables the `debug_*` commands.
///
/// # Errors
/// Returns a [`ProtocolError`] on malformed JSON, a non-object payload,
/// unknown commands/fields, or mistyped field values.
pub fn parse_request(line: &str, debug: bool) -> Result<Request, ProtocolError> {
    let value = serde_json::from_str(line).map_err(|e| bad(format!("malformed JSON: {e}")))?;
    if !matches!(value, Value::Object(_)) {
        return Err(bad("request must be a JSON object"));
    }
    let id = value.get("id").cloned().unwrap_or(Value::Null);
    let cmd = get_str(&value, "cmd")?.ok_or_else(|| bad("missing `cmd` field"))?;
    let command = match cmd.as_str() {
        "analyze" => Command::Analyze(parse_analyze_body(&value, &["id", "cmd"])?),
        "batch" => {
            check_fields(&value, &["id", "cmd", "items", "timeout_ms"])?;
            let timeout_ms = get_u64(&value, "timeout_ms")?;
            let items_value = value.get("items").ok_or_else(|| bad("missing `items`"))?;
            let Value::Array(raw_items) = items_value else {
                return Err(bad("field `items` must be an array"));
            };
            if raw_items.len() > MAX_BATCH_ITEMS {
                return Err(bad(format!(
                    "batch has {} items (max {MAX_BATCH_ITEMS})",
                    raw_items.len()
                )));
            }
            let items = raw_items
                .iter()
                .map(|item| {
                    if !matches!(item, Value::Object(_)) {
                        return Err(bad("batch item must be a JSON object"));
                    }
                    parse_analyze_body(item, &[])
                })
                .collect();
            Command::Batch(BatchRequest { items, timeout_ms })
        }
        "configs" => {
            check_fields(&value, &["id", "cmd"])?;
            Command::Configs
        }
        "stats" => {
            check_fields(&value, &["id", "cmd"])?;
            Command::Stats
        }
        "metrics" => {
            check_fields(&value, &["id", "cmd"])?;
            Command::Metrics
        }
        "trace" => {
            check_fields(&value, &["id", "cmd", "trace_id"])?;
            let trace_id = get_str(&value, "trace_id")?.ok_or_else(|| bad("missing `trace_id`"))?;
            Command::Trace { trace_id }
        }
        "last_traces" => {
            check_fields(&value, &["id", "cmd", "limit"])?;
            Command::LastTraces { limit: get_u64(&value, "limit")? }
        }
        "shutdown" => {
            check_fields(&value, &["id", "cmd"])?;
            Command::Shutdown
        }
        "debug_sleep" if debug => {
            check_fields(&value, &["id", "cmd", "ms", "timeout_ms"])?;
            let ms = get_u64(&value, "ms")?.ok_or_else(|| bad("missing `ms`"))?;
            Command::DebugSleep { ms, timeout_ms: get_u64(&value, "timeout_ms")? }
        }
        "debug_panic" if debug => {
            check_fields(&value, &["id", "cmd"])?;
            Command::DebugPanic
        }
        other => return Err((ErrorCode::UnknownCommand, format!("unknown command `{other}`"))),
    };
    Ok(Request { id, command })
}

fn id_json(id: &Value) -> String {
    serde_json::to_string(id).unwrap_or_else(|_| "null".to_string())
}

/// Builds a success response embedding `raw_result`, an already-serialized
/// JSON fragment. Splicing the raw bytes (instead of re-parsing) is what
/// makes cache hits byte-identical to the miss that populated them.
pub fn ok_response_raw(id: &Value, raw_result: &str) -> String {
    format!("{{\"id\":{},\"ok\":true,\"result\":{}}}", id_json(id), raw_result)
}

/// Builds a success response from a [`Value`] result.
pub fn ok_response(id: &Value, result: &Value) -> String {
    let raw = serde_json::to_string(result).unwrap_or_else(|_| "null".to_string());
    ok_response_raw(id, &raw)
}

fn trace_id_json(trace_id: &str) -> String {
    serde_json::to_string(&Value::String(trace_id.to_string()))
        .unwrap_or_else(|_| "\"\"".to_string())
}

/// Splices a trace-context object (`"trace":{"trace_id":…,"parent":…}`)
/// into a raw request line, textually, right after the opening brace.
/// The router uses this to stamp forwarded lines: every byte the client
/// sent is preserved verbatim (no parse → re-serialize round trip), so
/// routed responses stay byte-identical to direct ones. Returns the line
/// unchanged when it does not start with `{` (the daemon will reject it
/// with the same error either way).
pub fn stamp_trace(line: &str, trace_id: &str, parent: &str) -> String {
    let Some(brace) = line.find('{') else { return line.to_string() };
    if line[..brace].trim() != "" {
        return line.to_string();
    }
    let rest = &line[brace + 1..];
    let separator = if rest.trim_start().starts_with('}') { "" } else { "," };
    format!(
        "{}{{\"trace\":{{\"trace_id\":{},\"parent\":{}}}{}{}",
        &line[..brace],
        trace_id_json(trace_id),
        trace_id_json(parent),
        separator,
        rest
    )
}

/// [`ok_response_raw`] with a `trace_id` in the envelope. The trace id
/// stays *outside* `result` so cached result bytes are trace-id-free and
/// a cache hit can still echo the requester's own id.
pub fn ok_response_raw_traced(id: &Value, trace_id: &str, raw_result: &str) -> String {
    format!(
        "{{\"id\":{},\"ok\":true,\"trace_id\":{},\"result\":{}}}",
        id_json(id),
        trace_id_json(trace_id),
        raw_result
    )
}

/// The wire error object: `{code, message}` plus `retry_after_ms` when
/// the server can hint at when capacity returns (only `overloaded`
/// rejections carry one today).
fn error_value(code: ErrorCode, message: &str, retry_after_ms: Option<u64>) -> Value {
    let mut error = Value::object();
    error.insert("code", Value::String(code.as_str().to_string()));
    error.insert("message", Value::String(message.to_string()));
    if let Some(ms) = retry_after_ms {
        error.insert("retry_after_ms", Value::UInt(u128::from(ms)));
    }
    error
}

/// [`err_response`] with a `trace_id` in the envelope, so failed analyze
/// requests are correlatable too.
pub fn err_response_traced(id: &Value, trace_id: &str, code: ErrorCode, message: &str) -> String {
    err_response_traced_retry(id, trace_id, code, message, None)
}

/// [`err_response_traced`] carrying a `retry_after_ms` backoff hint.
pub fn err_response_traced_retry(
    id: &Value,
    trace_id: &str,
    code: ErrorCode,
    message: &str,
    retry_after_ms: Option<u64>,
) -> String {
    let mut obj = Value::object();
    obj.insert("id", id.clone());
    obj.insert("ok", Value::Bool(false));
    obj.insert("trace_id", Value::String(trace_id.to_string()));
    obj.insert("error", error_value(code, message, retry_after_ms));
    serde_json::to_string(&obj).unwrap_or_else(|_| err_response(id, code, message))
}

/// One successful `batch` item: same shape as a standalone traced
/// analyze response minus the envelope `id` (the envelope carries it).
/// Splices `raw_result` so batch hits stay byte-identical to singles.
pub fn batch_item_ok(trace_id: &str, raw_result: &str) -> String {
    format!("{{\"ok\":true,\"trace_id\":{},\"result\":{}}}", trace_id_json(trace_id), raw_result)
}

/// One failed `batch` item, carrying its own error code/message so one
/// bad program never fails its siblings.
pub fn batch_item_err(trace_id: &str, code: ErrorCode, message: &str) -> String {
    batch_item_err_retry(trace_id, code, message, None)
}

/// [`batch_item_err`] carrying a `retry_after_ms` backoff hint, so a
/// shed batch item tells its client when to resubmit just like a shed
/// standalone request.
pub fn batch_item_err_retry(
    trace_id: &str,
    code: ErrorCode,
    message: &str,
    retry_after_ms: Option<u64>,
) -> String {
    let error = error_value(code, message, retry_after_ms);
    let error_json = serde_json::to_string(&error).unwrap_or_else(|_| "{}".to_string());
    format!("{{\"ok\":false,\"trace_id\":{},\"error\":{}}}", trace_id_json(trace_id), error_json)
}

/// The `batch` result body: item responses in envelope order.
pub fn batch_result_raw(items: &[String]) -> String {
    let mut out = String::with_capacity(32 + items.iter().map(String::len).sum::<usize>());
    out.push_str("{\"count\":");
    out.push_str(&items.len().to_string());
    out.push_str(",\"items\":[");
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(item);
    }
    out.push_str("]}");
    out
}

/// Builds an error response: `{"id":..,"ok":false,"error":{code,message}}`.
pub fn err_response(id: &Value, code: ErrorCode, message: &str) -> String {
    err_response_retry(id, code, message, None)
}

/// [`err_response`] carrying a `retry_after_ms` backoff hint.
pub fn err_response_retry(
    id: &Value,
    code: ErrorCode,
    message: &str,
    retry_after_ms: Option<u64>,
) -> String {
    let error = error_value(code, message, retry_after_ms);
    let mut obj = Value::object();
    obj.insert("id", id.clone());
    obj.insert("ok", Value::Bool(false));
    obj.insert("error", error);
    serde_json::to_string(&obj).unwrap_or_else(|_| {
        "{\"id\":null,\"ok\":false,\"error\":{\"code\":\"bad_request\",\"message\":\"\"}}"
            .to_string()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_analyze() {
        let r = parse_request(r#"{"id": 7, "cmd": "analyze", "source": "class A {}"}"#, false)
            .expect("parses");
        assert_eq!(r.id.as_u64(), Some(7));
        match r.command {
            Command::Analyze(a) => {
                assert_eq!(a.config, "hybrid");
                assert_eq!(a.format, OutputFormat::Report);
                assert!(a.rules.is_none() && a.timeout_ms.is_none());
                assert!(!a.degrade, "degradation is opt-in");
            }
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn degrade_flag_parses_and_rejects_non_bool() {
        let r = parse_request(r#"{"cmd":"analyze","source":"x","degrade":true}"#, false).unwrap();
        match r.command {
            Command::Analyze(a) => assert!(a.degrade),
            other => panic!("wrong command: {other:?}"),
        }
        let e = parse_request(r#"{"cmd":"analyze","source":"x","degrade":1}"#, false).unwrap_err();
        assert_eq!(e.0, ErrorCode::BadRequest);
    }

    #[test]
    fn rejects_unknown_fields_and_commands() {
        let e = parse_request(r#"{"cmd": "stats", "bogus": 1}"#, false).unwrap_err();
        assert_eq!(e.0, ErrorCode::BadRequest);
        // The second is the retired incremental command, its name split
        // so that a search for the removed API finds no live code.
        for cmd in ["frobnicate", concat!("analyze", "_delta")] {
            let line = format!(r#"{{"cmd": "{cmd}", "source": "x", "base_source": "y"}}"#);
            let e = parse_request(&line, false).unwrap_err();
            assert_eq!(e.0, ErrorCode::UnknownCommand, "{cmd}");
        }
        let e = parse_request("{oops", false).unwrap_err();
        assert_eq!(e.0, ErrorCode::BadRequest);
        let e = parse_request("[1,2]", false).unwrap_err();
        assert_eq!(e.0, ErrorCode::BadRequest);
    }

    #[test]
    fn debug_commands_gated() {
        let e = parse_request(r#"{"cmd": "debug_panic"}"#, false).unwrap_err();
        assert_eq!(e.0, ErrorCode::UnknownCommand);
        let r = parse_request(r#"{"cmd": "debug_panic"}"#, true).expect("debug mode accepts");
        assert!(matches!(r.command, Command::DebugPanic));
        let r = parse_request(r#"{"cmd": "debug_sleep", "ms": 50}"#, true).unwrap();
        assert!(matches!(r.command, Command::DebugSleep { ms: 50, timeout_ms: None }));
    }

    #[test]
    fn mistyped_fields_rejected() {
        let e = parse_request(r#"{"cmd": "analyze", "source": 5}"#, false).unwrap_err();
        assert_eq!(e.0, ErrorCode::BadRequest);
        let e = parse_request(r#"{"cmd": "analyze", "source": "x", "timeout_ms": "soon"}"#, false)
            .unwrap_err();
        assert_eq!(e.0, ErrorCode::BadRequest);
        let e = parse_request(r#"{"cmd": "analyze", "source": "x", "format": "xml"}"#, false)
            .unwrap_err();
        assert_eq!(e.0, ErrorCode::BadRequest);
    }

    #[test]
    fn metrics_command_parses_strictly() {
        let r = parse_request(r#"{"cmd":"metrics"}"#, false).unwrap();
        assert!(matches!(r.command, Command::Metrics));
        let e = parse_request(r#"{"cmd":"metrics","tier":"report"}"#, false).unwrap_err();
        assert_eq!(e.0, ErrorCode::BadRequest);
    }

    #[test]
    fn trace_id_parses_and_lands_in_the_envelope() {
        let r =
            parse_request(r#"{"cmd":"analyze","source":"x","trace_id":"t-42"}"#, false).unwrap();
        match r.command {
            Command::Analyze(a) => assert_eq!(a.trace_id.as_deref(), Some("t-42")),
            other => panic!("wrong command: {other:?}"),
        }
        let e = parse_request(r#"{"cmd":"analyze","source":"x","trace_id":7}"#, false).unwrap_err();
        assert_eq!(e.0, ErrorCode::BadRequest);

        let ok = ok_response_raw_traced(&Value::UInt(3), "t-42", "{\"a\":1}");
        let v = serde_json::from_str(&ok).unwrap();
        assert_eq!(v["trace_id"], "t-42");
        assert_eq!(v["result"]["a"], 1u64);
        let err = err_response_traced(&Value::Null, "t-42", ErrorCode::Timeout, "too slow");
        let v = serde_json::from_str(&err).unwrap();
        assert_eq!(v["trace_id"], "t-42");
        assert_eq!(v["error"]["code"], "timeout");
    }

    #[test]
    fn trace_context_parses_and_overrides_trace_id() {
        let r = parse_request(
            r#"{"cmd":"analyze","source":"x","trace":{"trace_id":"taj-r-1","parent":"router"}}"#,
            false,
        )
        .unwrap();
        match r.command {
            Command::Analyze(a) => {
                assert_eq!(a.trace_id.as_deref(), Some("taj-r-1"));
                assert_eq!(a.trace_parent.as_deref(), Some("router"));
            }
            other => panic!("wrong command: {other:?}"),
        }
        // The context object wins over a bare trace_id field.
        let r = parse_request(
            r#"{"cmd":"analyze","source":"x","trace_id":"old","trace":{"trace_id":"new"}}"#,
            false,
        )
        .unwrap();
        match r.command {
            Command::Analyze(a) => {
                assert_eq!(a.trace_id.as_deref(), Some("new"));
                assert!(a.trace_parent.is_none());
            }
            other => panic!("wrong command: {other:?}"),
        }
        // Strictness: non-object, missing trace_id, unknown keys.
        for line in [
            r#"{"cmd":"analyze","source":"x","trace":"t"}"#,
            r#"{"cmd":"analyze","source":"x","trace":{"parent":"router"}}"#,
            r#"{"cmd":"analyze","source":"x","trace":{"trace_id":"t","span":1}}"#,
        ] {
            let e = parse_request(line, false).unwrap_err();
            assert_eq!(e.0, ErrorCode::BadRequest, "{line}");
        }
    }

    #[test]
    fn trace_and_last_traces_commands_parse_strictly() {
        let r = parse_request(r#"{"id":1,"cmd":"trace","trace_id":"taj-1"}"#, false).unwrap();
        assert!(matches!(r.command, Command::Trace { trace_id } if trace_id == "taj-1"));
        let e = parse_request(r#"{"cmd":"trace"}"#, false).unwrap_err();
        assert_eq!(e.0, ErrorCode::BadRequest, "trace requires trace_id");
        let e = parse_request(r#"{"cmd":"trace","trace_id":"t","x":1}"#, false).unwrap_err();
        assert_eq!(e.0, ErrorCode::BadRequest);

        let r = parse_request(r#"{"cmd":"last_traces"}"#, false).unwrap();
        assert!(matches!(r.command, Command::LastTraces { limit: None }));
        let r = parse_request(r#"{"cmd":"last_traces","limit":5}"#, false).unwrap();
        assert!(matches!(r.command, Command::LastTraces { limit: Some(5) }));
        let e = parse_request(r#"{"cmd":"last_traces","limit":"all"}"#, false).unwrap_err();
        assert_eq!(e.0, ErrorCode::BadRequest);
    }

    #[test]
    fn stamp_trace_preserves_every_client_byte() {
        let line = r#"{"id": 7, "cmd": "analyze", "source": "class A {}"}"#;
        let stamped = stamp_trace(line, "taj-r-9", "router");
        assert_eq!(
            stamped,
            r#"{"trace":{"trace_id":"taj-r-9","parent":"router"},"id": 7, "cmd": "analyze", "source": "class A {}"}"#
        );
        // The stamped line still parses, and the context is picked up.
        let r = parse_request(&stamped, false).unwrap();
        match r.command {
            Command::Analyze(a) => {
                assert_eq!(a.source, "class A {}", "client bytes untouched");
                assert_eq!(a.trace_id.as_deref(), Some("taj-r-9"));
                assert_eq!(a.trace_parent.as_deref(), Some("router"));
            }
            other => panic!("wrong command: {other:?}"),
        }
        // Degenerate shapes stay parseable / unchanged.
        assert_eq!(stamp_trace("{}", "t", "p"), r#"{"trace":{"trace_id":"t","parent":"p"}}"#);
        assert_eq!(stamp_trace("not json", "t", "p"), "not json");
        assert_eq!(stamp_trace("[1]", "t", "p"), "[1]");
    }

    #[test]
    fn batch_parses_with_per_item_isolation() {
        let line = r#"{"id":9,"cmd":"batch","timeout_ms":5000,"items":[
            {"source":"class A {}","config":"cs"},
            {"source":7},
            {"source":"class B {}","bogus":true},
            {"source":"class C {}"}]}"#
            .replace('\n', " ");
        let r = parse_request(&line, false).expect("envelope parses");
        let Command::Batch(batch) = r.command else { panic!("wrong command") };
        assert_eq!(batch.timeout_ms, Some(5000));
        assert_eq!(batch.items.len(), 4);
        assert_eq!(batch.items[0].as_ref().unwrap().config, "cs");
        assert!(batch.items[1].is_err(), "mistyped source is that item's error");
        assert!(batch.items[2].is_err(), "unknown field is that item's error");
        assert_eq!(batch.items[3].as_ref().unwrap().config, "hybrid");
    }

    #[test]
    fn batch_envelope_strictness() {
        let e = parse_request(r#"{"cmd":"batch"}"#, false).unwrap_err();
        assert_eq!(e.0, ErrorCode::BadRequest, "missing items");
        let e = parse_request(r#"{"cmd":"batch","items":{}}"#, false).unwrap_err();
        assert_eq!(e.0, ErrorCode::BadRequest, "items must be an array");
        let e = parse_request(r#"{"cmd":"batch","items":[],"extra":1}"#, false).unwrap_err();
        assert_eq!(e.0, ErrorCode::BadRequest, "unknown envelope field");
        let r = parse_request(r#"{"cmd":"batch","items":[]}"#, false).unwrap();
        let Command::Batch(batch) = r.command else { panic!("wrong command") };
        assert!(batch.items.is_empty(), "empty batch is legal");
        let big: Vec<String> =
            (0..MAX_BATCH_ITEMS + 1).map(|_| r#"{"source":"x"}"#.to_string()).collect();
        let line = format!(r#"{{"cmd":"batch","items":[{}]}}"#, big.join(","));
        let e = parse_request(&line, false).unwrap_err();
        assert_eq!(e.0, ErrorCode::BadRequest, "oversized batch rejected");
    }

    #[test]
    fn batch_response_builders_compose() {
        let items = vec![
            batch_item_ok("t-1", "{\"a\":1}"),
            batch_item_err("t-2", ErrorCode::ParseError, "bad program"),
        ];
        let raw = batch_result_raw(&items);
        let envelope = ok_response_raw(&Value::UInt(4), &raw);
        let v = serde_json::from_str(&envelope).unwrap();
        assert_eq!(v["result"]["count"], 2u64);
        assert_eq!(v["result"]["items"][0]["ok"], true);
        assert_eq!(v["result"]["items"][0]["trace_id"], "t-1");
        assert_eq!(v["result"]["items"][0]["result"]["a"], 1u64);
        assert_eq!(v["result"]["items"][1]["ok"], false);
        assert_eq!(v["result"]["items"][1]["error"]["code"], "parse_error");
    }

    #[test]
    fn overloaded_errors_carry_a_retry_hint() {
        let err =
            err_response_retry(&Value::UInt(1), ErrorCode::Overloaded, "queue full", Some(40));
        let v = serde_json::from_str(&err).unwrap();
        assert_eq!(v["error"]["code"], "overloaded");
        assert_eq!(v["error"]["retry_after_ms"], 40u64);
        let traced = err_response_traced_retry(
            &Value::Null,
            "t-9",
            ErrorCode::Overloaded,
            "queue full",
            Some(25),
        );
        let v = serde_json::from_str(&traced).unwrap();
        assert_eq!(v["trace_id"], "t-9");
        assert_eq!(v["error"]["retry_after_ms"], 25u64);
        let item = batch_item_err_retry("t-b", ErrorCode::Overloaded, "queue full", Some(10));
        let v = serde_json::from_str(&item).unwrap();
        assert_eq!(v["error"]["retry_after_ms"], 10u64);
        // Errors without a hint keep the old two-field object.
        let plain = err_response(&Value::Null, ErrorCode::Timeout, "slow");
        assert!(!plain.contains("retry_after_ms"), "{plain}");
        assert!(ErrorCode::Overloaded.is_retryable());
        assert!(ErrorCode::ShuttingDown.is_retryable());
        assert!(!ErrorCode::Timeout.is_retryable());
    }

    #[test]
    fn responses_round_trip() {
        let ok = ok_response_raw(&Value::UInt(3), "{\"a\":1}");
        let v = serde_json::from_str(&ok).unwrap();
        assert_eq!(v["ok"], true);
        assert_eq!(v["result"]["a"], 1u64);
        let err = err_response(&Value::Null, ErrorCode::Timeout, "too slow");
        let v = serde_json::from_str(&err).unwrap();
        assert_eq!(v["ok"], false);
        assert_eq!(v["error"]["code"], "timeout");
    }
}
