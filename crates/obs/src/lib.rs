//! Structured tracing and metrics for the TAJ pipeline (std-only, like
//! `taj-supervise`).
//!
//! The central type is [`Recorder`], a cloneable handle that is either
//! *disabled* (the default — a `None` inside, so every hot-path guard is a
//! single pointer test, the same discipline as the supervisor's sampled
//! deadline probe) or *enabled*, in which case spans and instant events
//! accumulate in a shared buffer. Spans carry monotonic microsecond
//! timestamps and typed attributes ([`AttrValue`]); three sinks consume the
//! buffer:
//!
//! - [`Recorder::profile_text`] — the human `--profile` summary, one line
//!   per span name with call counts, total milliseconds, and summed
//!   numeric attributes;
//! - [`Recorder::chrome_trace`] — Chrome `trace_event`-format JSON for
//!   `--trace-out`, openable in Perfetto / `chrome://tracing`;
//! - [`Recorder::signature`] — the timestamp-free event *set*, which the
//!   determinism harness asserts is identical across repeat runs.
//!
//! A recorder built with [`Recorder::deterministic`] strips wall-clock at
//! record time (every timestamp becomes zero), so test-mode traces are
//! byte-comparable across runs. Spans are the single source of truth for
//! phase timings: reports carry work counters only, never wall-clock.
//!
//! The [`metrics`] module is the daemon-facing half: fixed-bucket atomic
//! [`metrics::Histogram`]s and an [`metrics::Exposition`] builder that
//! renders Prometheus text format.

#![warn(missing_docs)]

pub mod metrics;

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A typed attribute value attached to a span or event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttrValue {
    /// An unsigned counter (counts, sizes, iterations).
    U64(u64),
    /// A short string (rule names, interrupt reasons, unit kinds).
    Str(String),
    /// A boolean flag.
    Bool(bool),
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}

impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}

impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        AttrValue::U64(u64::from(v))
    }
}

impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}

impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

/// One recorded span or instant event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span name; the taxonomy is documented in docs/observability.md.
    pub name: &'static str,
    /// Microseconds since the recorder's epoch (zero in deterministic mode).
    pub start_us: u64,
    /// Span duration in microseconds; `None` marks an instant event.
    pub dur_us: Option<u64>,
    /// Typed attributes, in the order the instrumentation added them.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

#[derive(Debug)]
struct Inner {
    deterministic: bool,
    epoch: Instant,
    events: Mutex<Vec<TraceEvent>>,
}

/// A cloneable tracing handle. The default (and [`Recorder::disabled`])
/// recorder drops every event at a single-branch cost; [`Recorder::new`]
/// records wall-clock spans; [`Recorder::deterministic`] records spans
/// with all timestamps zeroed so event buffers compare byte-identically
/// across runs.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl Recorder {
    /// A recorder that records nothing.
    pub fn disabled() -> Recorder {
        Recorder { inner: None }
    }

    /// An enabled recorder with wall-clock timestamps (microseconds since
    /// creation).
    pub fn new() -> Recorder {
        Recorder::build(false, Instant::now())
    }

    /// An enabled recorder that strips wall-clock: every recorded
    /// timestamp and duration is zero. Used by the determinism harness.
    pub fn deterministic() -> Recorder {
        Recorder::build(true, Instant::now())
    }

    fn build(deterministic: bool, epoch: Instant) -> Recorder {
        Recorder {
            inner: Some(Arc::new(Inner { deterministic, epoch, events: Mutex::new(Vec::new()) })),
        }
    }

    /// Whether events are being recorded. Hot paths gate attribute
    /// computation on this.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether timestamps are stripped at record time.
    pub fn is_deterministic(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.deterministic)
    }

    /// Microseconds since the recorder's epoch; zero when disabled or
    /// deterministic.
    pub fn now_us(&self) -> u64 {
        match &self.inner {
            Some(inner) if !inner.deterministic => inner.epoch.elapsed().as_micros() as u64,
            _ => 0,
        }
    }

    /// Microseconds from the recorder's origin to `at`; zero when
    /// disabled or deterministic, or when `at` precedes the origin.
    pub fn us_at(&self, at: Instant) -> u64 {
        match &self.inner {
            Some(inner) if !inner.deterministic => {
                at.saturating_duration_since(inner.epoch).as_micros() as u64
            }
            _ => 0,
        }
    }

    /// Records a fully-formed event. In deterministic mode the timestamps
    /// are zeroed first (durations collapse to `Some(0)`), so callers may
    /// pass measured values unconditionally.
    pub fn record(&self, mut event: TraceEvent) {
        let Some(inner) = &self.inner else { return };
        if inner.deterministic {
            event.start_us = 0;
            event.dur_us = event.dur_us.map(|_| 0);
        }
        inner.events.lock().expect("trace buffer poisoned").push(event);
    }

    /// Records an instant event with the given attributes.
    pub fn event(&self, name: &'static str, attrs: Vec<(&'static str, AttrValue)>) {
        if self.is_enabled() {
            self.record(TraceEvent { name, start_us: self.now_us(), dur_us: None, attrs });
        }
    }

    /// Starts a span. The returned guard records on [`Span::finish`] (or
    /// on drop).
    pub fn span(&self, name: &'static str) -> Span {
        Span {
            recorder: self.clone(),
            name,
            start_us: self.now_us(),
            started: Instant::now(),
            attrs: Vec::new(),
            closed: false,
        }
    }

    /// A snapshot of every event recorded so far, in record order.
    pub fn events(&self) -> Vec<TraceEvent> {
        match &self.inner {
            Some(inner) => inner.events.lock().expect("trace buffer poisoned").clone(),
            None => Vec::new(),
        }
    }

    /// The timestamp-free event-set signature: one line per event
    /// (`name key=value ...`), sorted. Two runs are trace-equivalent iff
    /// their signatures are equal — this is what the determinism harness
    /// compares across repeat runs.
    pub fn signature(&self) -> Vec<String> {
        let mut lines: Vec<String> = self
            .events()
            .iter()
            .map(|ev| {
                let mut line = ev.name.to_string();
                for (key, value) in &ev.attrs {
                    let _ = match value {
                        AttrValue::U64(v) => write!(line, " {key}={v}"),
                        AttrValue::Bool(v) => write!(line, " {key}={v}"),
                        AttrValue::Str(v) => write!(line, " {key}={v}"),
                    };
                }
                line
            })
            .collect();
        lines.sort();
        lines
    }

    /// Renders the buffer as Chrome `trace_event`-format JSON (the
    /// "JSON Array Format" wrapped in an object), suitable for Perfetto
    /// or `chrome://tracing`. Spans become complete (`"ph":"X"`) events;
    /// instant events become `"ph":"i"` with global scope.
    pub fn chrome_trace(&self) -> String {
        let events = self.events();
        let mut out = String::from("{\"traceEvents\":[");
        for (i, ev) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            json_string(&mut out, ev.name);
            let _ = write!(out, ",\"cat\":\"taj\",\"pid\":1,\"tid\":1,\"ts\":{}", ev.start_us);
            match ev.dur_us {
                Some(dur) => {
                    let _ = write!(out, ",\"ph\":\"X\",\"dur\":{dur}");
                }
                None => out.push_str(",\"ph\":\"i\",\"s\":\"g\""),
            }
            if !ev.attrs.is_empty() {
                out.push_str(",\"args\":{");
                for (j, (key, value)) in ev.attrs.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    json_string(&mut out, key);
                    out.push(':');
                    match value {
                        AttrValue::U64(v) => {
                            let _ = write!(out, "{v}");
                        }
                        AttrValue::Bool(v) => {
                            let _ = write!(out, "{v}");
                        }
                        AttrValue::Str(v) => json_string(&mut out, v),
                    }
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }

    /// Aggregates the buffer by span name (first-seen order): call count,
    /// total microseconds, and the sum of every numeric attribute.
    pub fn aggregate(&self) -> Vec<ProfileRow> {
        let mut rows: Vec<ProfileRow> = Vec::new();
        for ev in self.events() {
            let row = match rows.iter_mut().find(|r| r.name == ev.name) {
                Some(row) => row,
                None => {
                    rows.push(ProfileRow {
                        name: ev.name,
                        count: 0,
                        total_us: 0,
                        counters: Vec::new(),
                    });
                    rows.last_mut().expect("just pushed")
                }
            };
            row.count += 1;
            row.total_us += ev.dur_us.unwrap_or(0);
            for (key, value) in &ev.attrs {
                if let AttrValue::U64(v) = value {
                    match row.counters.iter_mut().find(|(k, _)| k == key) {
                        Some((_, sum)) => *sum += v,
                        None => row.counters.push((key, *v)),
                    }
                }
            }
        }
        rows
    }

    /// The human-readable `--profile` summary: one line per span name
    /// with count, total milliseconds, and summed numeric attributes.
    pub fn profile_text(&self) -> String {
        let rows = self.aggregate();
        let mut out = String::new();
        let _ = writeln!(out, "{:<28} {:>6} {:>12}  counters", "span", "count", "total ms");
        for row in rows {
            let ms = row.total_us as f64 / 1000.0;
            let _ = write!(out, "{:<28} {:>6} {:>12.3}  ", row.name, row.count, ms);
            let mut first = true;
            for (key, sum) in row.counters {
                if !first {
                    out.push(' ');
                }
                first = false;
                let _ = write!(out, "{key}={sum}");
            }
            if first {
                out.push('-');
            }
            out.push('\n');
        }
        out
    }
}

/// One aggregated line of the profile summary (see [`Recorder::aggregate`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileRow {
    /// Span name.
    pub name: &'static str,
    /// Number of events with this name.
    pub count: u64,
    /// Summed span durations in microseconds.
    pub total_us: u64,
    /// Summed numeric attributes, keyed by attribute name (first-seen order).
    pub counters: Vec<(&'static str, u64)>,
}

/// An in-flight span. Attach attributes with [`Span::attr`] and close it
/// with [`Span::finish`], which records the event if the recorder is
/// enabled. Dropping an unfinished span records it too (so early-error
/// paths still leave a trace).
#[derive(Debug)]
pub struct Span {
    recorder: Recorder,
    name: &'static str,
    start_us: u64,
    started: Instant,
    attrs: Vec<(&'static str, AttrValue)>,
    closed: bool,
}

impl Span {
    /// Attaches a typed attribute. Callers should gate expensive
    /// attribute computation on [`Recorder::is_enabled`].
    pub fn attr(&mut self, key: &'static str, value: impl Into<AttrValue>) {
        if self.recorder.is_enabled() {
            self.attrs.push((key, value.into()));
        }
    }

    /// Closes the span and records it.
    pub fn finish(mut self) {
        self.close();
    }

    fn close(&mut self) {
        self.closed = true;
        if self.recorder.is_enabled() {
            self.recorder.record(TraceEvent {
                name: self.name,
                start_us: self.start_us,
                dur_us: Some(self.started.elapsed().as_micros() as u64),
                attrs: std::mem::take(&mut self.attrs),
            });
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.closed {
            self.close();
        }
    }
}

/// A completed request's span tree plus its outcome, as captured by the
/// [`FlightRecorder`]. The events are the request's private recorder
/// buffer in record order; `attrs` carries the outcome attribution the
/// serving layer derives at response-build time (outcome, cache tier,
/// degradation, error code).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestRecord {
    /// The request's trace id (daemon-minted or propagated).
    pub trace_id: String,
    /// Terminal outcome: `ok`, `error`, `timeout`, `panic`, or `shed`.
    pub outcome: &'static str,
    /// End-to-end elapsed time on the serving side, in microseconds.
    pub elapsed_us: u64,
    /// Outcome attribution (degraded, cache_tier, code, ...).
    pub attrs: Vec<(&'static str, AttrValue)>,
    /// The request's recorded span tree (empty when recording was off).
    pub events: Vec<TraceEvent>,
}

/// Appends one attribute value as JSON.
fn json_attr_value(out: &mut String, value: &AttrValue) {
    match value {
        AttrValue::U64(v) => {
            let _ = write!(out, "{v}");
        }
        AttrValue::Bool(v) => {
            let _ = write!(out, "{v}");
        }
        AttrValue::Str(v) => json_string(out, v),
    }
}

/// Appends an attribute list as a JSON object (`{"k":v,...}`).
fn json_attr_object(out: &mut String, attrs: &[(&'static str, AttrValue)]) {
    out.push('{');
    for (i, (key, value)) in attrs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_string(out, key);
        out.push(':');
        json_attr_value(out, value);
    }
    out.push('}');
}

/// Renders a recorded event buffer as a wire-JSON array, one object per
/// event: `{"name":...,"ts":<us>,"dur":<us>,"args":{...}}` for spans,
/// the same without `dur` for instant events. This is the span payload
/// of the `trace <id>` NDJSON command; the stitcher on the other side
/// turns it back into Chrome `trace_event` entries.
pub fn events_wire_json(events: &[TraceEvent]) -> String {
    let mut out = String::from("[");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        json_string(&mut out, ev.name);
        let _ = write!(out, ",\"ts\":{}", ev.start_us);
        if let Some(dur) = ev.dur_us {
            let _ = write!(out, ",\"dur\":{dur}");
        }
        if !ev.attrs.is_empty() {
            out.push_str(",\"args\":");
            json_attr_object(&mut out, &ev.attrs);
        }
        out.push('}');
    }
    out.push(']');
    out
}

impl RequestRecord {
    /// One-line summary object: trace id, outcome, elapsed time, and the
    /// outcome attributes — the `last_traces` item shape, also used as
    /// the structured slow-request log line.
    pub fn summary_json(&self) -> String {
        let mut out = String::from("{\"trace_id\":");
        json_string(&mut out, &self.trace_id);
        out.push_str(",\"outcome\":");
        json_string(&mut out, self.outcome);
        let _ = write!(out, ",\"elapsed_us\":{},\"attrs\":", self.elapsed_us);
        json_attr_object(&mut out, &self.attrs);
        out.push('}');
        out
    }

    /// Full fragment object for the `trace <id>` command: the summary
    /// fields plus the span tree, labeled with the capturing process.
    pub fn fragment_json(&self, process: &str) -> String {
        let mut out = String::from("{\"process\":");
        json_string(&mut out, process);
        out.push_str(",\"outcome\":");
        json_string(&mut out, self.outcome);
        let _ = write!(out, ",\"elapsed_us\":{},\"attrs\":", self.elapsed_us);
        json_attr_object(&mut out, &self.attrs);
        out.push_str(",\"spans\":");
        out.push_str(&events_wire_json(&self.events));
        out.push('}');
        out
    }
}

#[derive(Debug)]
struct FlightInner {
    capacity: usize,
    ring: Mutex<VecDeque<Arc<RequestRecord>>>,
}

/// A bounded ring buffer of completed [`RequestRecord`]s — the always-on
/// flight recorder. Capture is O(1) per request (one mutex push plus at
/// most one pop) and happens on the serving layer's connection threads,
/// never on the analysis worker pool. Capacity 0 disables capture
/// entirely (a single pointer test, like [`Recorder::disabled`]).
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    inner: Option<Arc<FlightInner>>,
}

impl FlightRecorder {
    /// A flight recorder holding up to `capacity` records; 0 disables it.
    pub fn new(capacity: usize) -> FlightRecorder {
        if capacity == 0 {
            return FlightRecorder { inner: None };
        }
        FlightRecorder {
            inner: Some(Arc::new(FlightInner {
                capacity,
                ring: Mutex::new(VecDeque::with_capacity(capacity)),
            })),
        }
    }

    /// A recorder that captures nothing.
    pub fn disabled() -> FlightRecorder {
        FlightRecorder { inner: None }
    }

    /// Whether records are being captured.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Pushes a completed record, evicting the oldest when full. O(1).
    pub fn push(&self, record: RequestRecord) {
        let Some(inner) = &self.inner else { return };
        let mut ring = inner.ring.lock().expect("flight ring poisoned");
        if ring.len() == inner.capacity {
            ring.pop_front();
        }
        ring.push_back(Arc::new(record));
    }

    /// Looks up a record by trace id, newest match first.
    pub fn get(&self, trace_id: &str) -> Option<Arc<RequestRecord>> {
        let inner = self.inner.as_ref()?;
        let ring = inner.ring.lock().expect("flight ring poisoned");
        ring.iter().rev().find(|r| r.trace_id == trace_id).cloned()
    }

    /// The most recent records, newest first, up to `limit`.
    pub fn recent(&self, limit: usize) -> Vec<Arc<RequestRecord>> {
        match &self.inner {
            Some(inner) => {
                let ring = inner.ring.lock().expect("flight ring poisoned");
                ring.iter().rev().take(limit).cloned().collect()
            }
            None => Vec::new(),
        }
    }

    /// Every retained record, oldest first.
    pub fn snapshot(&self) -> Vec<Arc<RequestRecord>> {
        match &self.inner {
            Some(inner) => {
                inner.ring.lock().expect("flight ring poisoned").iter().cloned().collect()
            }
            None => Vec::new(),
        }
    }

    /// Configured ring capacity (0 when disabled).
    pub fn capacity(&self) -> usize {
        self.inner.as_ref().map_or(0, |inner| inner.capacity)
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        match &self.inner {
            Some(inner) => inner.ring.lock().expect("flight ring poisoned").len(),
            None => 0,
        }
    }

    /// Whether the ring currently holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The recorder for one request: wall-clock while this ring is on,
    /// disabled (a single pointer test on every span site) otherwise.
    /// Its timestamps count from `origin`, which may lie in the past, so
    /// that a span which began before the recorder existed keeps an
    /// unsigned offset.
    pub fn request_recorder(&self, origin: Instant) -> Recorder {
        if self.is_enabled() {
            Recorder::build(false, origin)
        } else {
            Recorder::disabled()
        }
    }

    /// The `last_traces` body, `{"count":…,"traces":[…]}`: the summaries
    /// of up to `limit` records (all when `None`), newest first.
    pub fn last_traces_json(&self, limit: Option<u64>) -> String {
        let limit = limit.map_or(usize::MAX, |n| usize::try_from(n).unwrap_or(usize::MAX));
        let records = self.recent(limit);
        let summaries: Vec<String> = records.iter().map(|r| r.summary_json()).collect();
        format!("{{\"count\":{},\"traces\":[{}]}}", records.len(), summaries.join(","))
    }
}

/// Appends `s` to `out` as a JSON string literal (quotes + escapes).
fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::disabled();
        rec.span("phase").finish();
        assert!(rec.events().is_empty());
        assert!(!rec.is_enabled());
    }

    #[test]
    fn deterministic_recorder_zeroes_all_timestamps() {
        let rec = Recorder::deterministic();
        let mut span = rec.span("solve");
        span.attr("nodes", 7usize);
        span.finish();
        rec.event("degrade", vec![("from", "CS".into())]);
        let events = rec.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].start_us, 0);
        assert_eq!(events[0].dur_us, Some(0));
        assert_eq!(events[1].start_us, 0);
        assert_eq!(events[1].dur_us, None);
    }

    #[test]
    fn recorder_counts_from_its_origin() {
        let origin = Instant::now();
        let later = origin + std::time::Duration::from_millis(5);
        let flight = FlightRecorder::new(1);
        let rec = flight.request_recorder(origin);
        assert_eq!(rec.us_at(later), 5_000);
        assert_eq!(rec.us_at(origin), 0);
        let before = flight.request_recorder(later);
        assert_eq!(before.us_at(origin), 0, "an instant before the origin saturates to zero");
        assert_eq!(Recorder::disabled().us_at(later), 0);
    }

    #[test]
    fn dropped_span_is_still_recorded() {
        let rec = Recorder::deterministic();
        {
            let mut span = rec.span("phase2");
            span.attr("units", 3u64);
        }
        let events = rec.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "phase2");
        assert_eq!(events[0].attrs, vec![("units", AttrValue::U64(3))]);
    }

    #[test]
    fn aggregate_sums_counts_durations_and_numeric_attrs() {
        let rec = Recorder::new();
        for flows in [2u64, 3u64] {
            rec.record(TraceEvent {
                name: "phase2.unit",
                start_us: 0,
                dur_us: Some(100),
                attrs: vec![("flows", AttrValue::U64(flows)), ("rule", "xss".into())],
            });
        }
        let rows = rec.aggregate();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].count, 2);
        assert_eq!(rows[0].total_us, 200);
        assert_eq!(rows[0].counters, vec![("flows", 5)]);
        let text = rec.profile_text();
        assert!(text.contains("phase2.unit"), "{text}");
        assert!(text.contains("flows=5"), "{text}");
    }

    #[test]
    fn signature_is_sorted_and_timestamp_free() {
        let build = |order_flip: bool| {
            let rec = Recorder::deterministic();
            let names = if order_flip { ["b", "a"] } else { ["a", "b"] };
            for name in names {
                // Distinct names via leak-free static match.
                let stat: &'static str = if name == "a" { "a" } else { "b" };
                rec.event(stat, vec![("k", AttrValue::U64(1))]);
            }
            rec.signature()
        };
        assert_eq!(build(false), build(true));
        assert_eq!(build(false), vec!["a k=1".to_string(), "b k=1".to_string()]);
    }

    #[test]
    fn flight_recorder_ring_evicts_oldest_and_looks_up_by_id() {
        let flight = FlightRecorder::new(2);
        assert!(flight.is_enabled());
        for i in 0..3u64 {
            flight.push(RequestRecord {
                trace_id: format!("taj-{i:016x}"),
                outcome: "ok",
                elapsed_us: i,
                attrs: vec![("degraded", AttrValue::Bool(false))],
                events: Vec::new(),
            });
        }
        assert_eq!(flight.len(), 2);
        assert!(flight.get("taj-0000000000000000").is_none(), "oldest must be evicted");
        assert!(flight.get("taj-0000000000000002").is_some());
        let recent = flight.recent(8);
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[0].trace_id, "taj-0000000000000002", "newest first");
        let snap = flight.snapshot();
        assert_eq!(snap[0].trace_id, "taj-0000000000000001", "oldest first");
        let listing = flight.last_traces_json(Some(1));
        let newest = recent[0].summary_json();
        assert_eq!(listing, format!(r#"{{"count":1,"traces":[{newest}]}}"#));
        assert!(
            flight.request_recorder(Instant::now()).is_enabled(),
            "a live ring records requests"
        );
    }

    #[test]
    fn disabled_flight_recorder_drops_everything() {
        let flight = FlightRecorder::new(0);
        assert!(!flight.is_enabled());
        flight.push(RequestRecord {
            trace_id: "taj-x".into(),
            outcome: "ok",
            elapsed_us: 1,
            attrs: Vec::new(),
            events: Vec::new(),
        });
        assert!(flight.is_empty());
        assert!(flight.get("taj-x").is_none());
        assert!(flight.recent(4).is_empty());
        assert_eq!(flight.last_traces_json(None), r#"{"count":0,"traces":[]}"#);
        assert!(!flight.request_recorder(Instant::now()).is_enabled());
    }

    #[test]
    fn request_record_renders_summary_and_fragment_json() {
        let record = RequestRecord {
            trace_id: "taj-1".into(),
            outcome: "error",
            elapsed_us: 1500,
            attrs: vec![("code", "timeout".into()), ("degraded", AttrValue::Bool(false))],
            events: vec![
                TraceEvent {
                    name: "queue.wait",
                    start_us: 2,
                    dur_us: Some(40),
                    attrs: vec![("depth", AttrValue::U64(3))],
                },
                TraceEvent { name: "cache.probe", start_us: 50, dur_us: None, attrs: vec![] },
            ],
        };
        let summary = record.summary_json();
        assert_eq!(
            summary,
            "{\"trace_id\":\"taj-1\",\"outcome\":\"error\",\"elapsed_us\":1500,\
             \"attrs\":{\"code\":\"timeout\",\"degraded\":false}}"
        );
        let fragment = record.fragment_json("daemon");
        assert!(fragment.starts_with("{\"process\":\"daemon\","), "{fragment}");
        assert!(
            fragment.contains(
                "\"spans\":[{\"name\":\"queue.wait\",\"ts\":2,\"dur\":40,\
                 \"args\":{\"depth\":3}},{\"name\":\"cache.probe\",\"ts\":50}]"
            ),
            "{fragment}"
        );
    }

    #[test]
    fn chrome_trace_renders_spans_and_instants() {
        let rec = Recorder::new();
        rec.record(TraceEvent {
            name: "phase1.solve",
            start_us: 10,
            dur_us: Some(25),
            attrs: vec![("nodes", AttrValue::U64(4)), ("note", "a\"b".into())],
        });
        rec.event("degrade", vec![]);
        let json = rec.chrome_trace();
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        assert!(json.contains("\"ph\":\"X\",\"dur\":25"), "{json}");
        assert!(json.contains("\"ph\":\"i\",\"s\":\"g\""), "{json}");
        assert!(json.contains("\"args\":{\"nodes\":4,\"note\":\"a\\\"b\"}"), "{json}");
        assert!(json.ends_with("],\"displayTimeUnit\":\"ms\"}"), "{json}");
    }
}
