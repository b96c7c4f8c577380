//! Flight-recorder and distributed-tracing forensics, end to end:
//! slow/degraded requests land in `last_traces` with outcome
//! attribution, `trace <id>` returns a span fragment a human can read,
//! a routed request stitches into one cross-process trace, a
//! connection's first request shows its wait after the accept, and — the
//! determinism contract — report bytes are identical with the recorder
//! on or off.

use std::time::Duration;

use serde::Value;
use taj::service::{route, serve, AnalyzeOpts, Client, RouterOptions, ServeOptions, ServerHandle};

const XSS_SERVLET: &str = r#"
    class Page extends HttpServlet {
        method void doGet(HttpServletRequest req, HttpServletResponse resp) {
            String name = req.getParameter("name");
            resp.getWriter().println(name);
        }
    }
"#;

fn start(options: ServeOptions) -> (ServerHandle, Client) {
    let handle = serve(options).expect("server starts");
    let client = Client::connect(handle.addr()).expect("client connects");
    (handle, client)
}

fn shutdown_and_join(mut client: Client, handle: ServerHandle) {
    client.shutdown().expect("shutdown accepted");
    handle.join();
}

fn tcp_addr(handle: &ServerHandle) -> String {
    match handle.addr() {
        taj::service::BoundAddr::Tcp(a) => a.to_string(),
        taj::service::BoundAddr::Unix(p) => panic!("expected TCP, got unix:{}", p.display()),
    }
}

/// Span names of a fragment, in recorded order.
fn span_names(fragment: &Value) -> Vec<String> {
    match fragment.get("spans") {
        Some(Value::Array(spans)) => spans
            .iter()
            .filter_map(|s| s.get("name").and_then(Value::as_str))
            .map(str::to_string)
            .collect(),
        _ => Vec::new(),
    }
}

#[test]
fn slow_and_degraded_requests_land_in_last_traces_with_outcome_attrs() {
    // `--slow-ms 0` makes every request "slow", so both requests below
    // must be retained and summarized.
    let options = ServeOptions { workers: 1, slow_ms: Some(0), ..ServeOptions::tcp_ephemeral() };
    let (handle, mut client) = start(options);

    let slow_opts = AnalyzeOpts { trace_id: Some("t-slow".to_string()), ..AnalyzeOpts::default() };
    client.analyze(XSS_SERVLET, &slow_opts).expect("slow analyze");

    // CS-Tiny's 4-edge budget is exhausted by any real program; with
    // `degrade` the ladder rescues the run and the driver emits
    // `degrade` events the recorder attributes from.
    let degraded_opts = AnalyzeOpts {
        config: Some("cs_tiny".to_string()),
        degrade: true,
        trace_id: Some("t-degraded".to_string()),
        ..AnalyzeOpts::default()
    };
    client.analyze(XSS_SERVLET, &degraded_opts).expect("degraded analyze");

    let listing = client.last_traces(None).expect("last_traces");
    assert_eq!(listing["count"].as_u64(), Some(2), "{listing:?}");
    let traces = listing["traces"].as_array().expect("traces array");
    // Newest first.
    assert_eq!(traces[0]["trace_id"].as_str(), Some("t-degraded"), "{listing:?}");
    assert_eq!(traces[0]["outcome"].as_str(), Some("ok"));
    assert_eq!(traces[0]["attrs"]["degraded"].as_bool(), Some(true), "{listing:?}");
    assert_eq!(traces[1]["trace_id"].as_str(), Some("t-slow"));
    assert_eq!(traces[1]["outcome"].as_str(), Some("ok"));
    assert_eq!(traces[1]["attrs"]["degraded"].as_bool(), Some(false));
    assert!(traces[1]["elapsed_us"].as_u64().is_some(), "{listing:?}");

    // `limit` caps the listing without changing its order.
    let capped = client.last_traces(Some(1)).expect("capped last_traces");
    assert_eq!(capped["count"].as_u64(), Some(1));
    assert_eq!(capped["traces"][0]["trace_id"].as_str(), Some("t-degraded"));

    shutdown_and_join(client, handle);
}

#[test]
fn trace_command_returns_fragment_with_queue_cache_and_phase_spans() {
    let (handle, mut client) = start(ServeOptions { workers: 1, ..ServeOptions::tcp_ephemeral() });
    let opts = AnalyzeOpts { trace_id: Some("t-spans".to_string()), ..AnalyzeOpts::default() };
    client.analyze(XSS_SERVLET, &opts).expect("traced analyze");

    let trace = client.trace("t-spans").expect("trace fetch");
    assert_eq!(trace["trace_id"].as_str(), Some("t-spans"));
    let fragments = trace["fragments"].as_array().expect("fragments array");
    assert_eq!(fragments.len(), 1, "{trace:?}");
    let fragment = &fragments[0];
    assert_eq!(fragment["process"].as_str(), Some("daemon"));
    assert_eq!(fragment["outcome"].as_str(), Some("ok"));

    let names = span_names(fragment);
    // The synthetic root anchors the timeline; queue.wait/run bracket
    // the pool dispatch; cache probes, analysis phases and rendering fill
    // the rest. A cold miss prepares, so the prepare stages are in the
    // track too.
    assert_eq!(names.first().map(String::as_str), Some("request"), "{names:?}");
    for expected in [
        "queue.wait",
        "run",
        "cache.probe",
        "prepare.parse",
        "prepare.model",
        "prepare.ssa",
        "phase1",
        "phase2",
        "render",
    ] {
        assert!(names.iter().any(|n| n == expected), "missing span `{expected}`: {names:?}");
    }
    // A cold daemon's probes all miss.
    let spans = fragment["spans"].as_array().expect("spans");
    let probes: Vec<&Value> =
        spans.iter().filter(|s| s["name"].as_str() == Some("cache.probe")).collect();
    assert!(!probes.is_empty());
    assert!(probes.iter().all(|p| p["args"]["hit"].as_bool() == Some(false)), "{probes:?}");
    let render = spans.iter().find(|s| s["name"].as_str() == Some("render")).expect("render");
    assert_eq!(render["args"]["format"].as_str(), Some("report"), "{render:?}");
    assert!(render["args"]["bytes"].as_u64().is_some_and(|b| b > 0), "{render:?}");

    // Unknown ids fail with a readable bad_request, not an empty result.
    let err = client.trace("t-unknown").expect_err("unknown trace id must fail");
    match err {
        taj::service::ClientError::Remote { code, message, .. } => {
            assert_eq!(code, "bad_request");
            assert!(message.contains("t-unknown"), "{message}");
        }
        other => panic!("expected remote error, got {other:?}"),
    }

    shutdown_and_join(client, handle);
}

#[test]
fn routed_request_stitches_into_one_cross_process_trace() {
    let (shard_a, client_a) = start(ServeOptions { workers: 2, ..ServeOptions::tcp_ephemeral() });
    let (shard_b, client_b) = start(ServeOptions { workers: 2, ..ServeOptions::tcp_ephemeral() });
    let router = route(RouterOptions::tcp_ephemeral(vec![tcp_addr(&shard_a), tcp_addr(&shard_b)]))
        .expect("router starts");
    let mut via_router = Client::connect(router.addr()).expect("connect router");

    let opts = AnalyzeOpts { trace_id: Some("t-routed".to_string()), ..AnalyzeOpts::default() };
    let report = via_router.analyze(XSS_SERVLET, &opts).expect("routed analyze");
    assert_eq!(report["findings"].as_array().map(Vec::len), Some(1), "{report:?}");

    // One trace id, fragments from both sides of the wire: the router's
    // hop record plus the serving shard's full request record.
    let trace = via_router.trace("t-routed").expect("trace via router");
    assert_eq!(trace["trace_id"].as_str(), Some("t-routed"));
    let fragments = trace["fragments"].as_array().expect("fragments");
    let processes: Vec<&str> = fragments.iter().filter_map(|f| f["process"].as_str()).collect();
    assert!(processes.contains(&"router"), "{processes:?}");
    assert!(processes.iter().any(|p| p.starts_with("shard")), "{processes:?}");

    let router_fragment = fragments
        .iter()
        .find(|f| f["process"].as_str() == Some("router"))
        .expect("router fragment");
    let router_names = span_names(router_fragment);
    assert!(router_names.iter().any(|n| n == "router.forward"), "{router_names:?}");

    let shard_fragment = fragments
        .iter()
        .find(|f| f["process"].as_str().is_some_and(|p| p.starts_with("shard")))
        .expect("shard fragment");
    let shard_names = span_names(shard_fragment);
    for expected in ["request", "queue.wait", "cache.probe", "phase1", "phase2"] {
        assert!(
            shard_names.iter().any(|n| n == expected),
            "missing shard span `{expected}`: {shard_names:?}"
        );
    }
    // The shard's root span carries the propagated parent hop.
    let shard_root = &shard_fragment["spans"][0];
    assert_eq!(shard_root["args"]["parent"].as_str(), Some("router"), "{shard_root:?}");

    // The stitched Chrome trace keeps both processes apart (distinct
    // pids) on one timeline.
    let stitched = taj::service::stitch_fragments(fragments);
    let doc: Value = serde_json::from_str(&stitched).expect("stitched JSON parses");
    let events = doc["traceEvents"].as_array().expect("traceEvents");
    let mut pids: Vec<u64> = events.iter().filter_map(|e| e["pid"].as_u64()).collect();
    pids.sort_unstable();
    pids.dedup();
    assert!(pids.len() >= 2, "stitched trace must span >= 2 processes: {stitched}");

    via_router.shutdown().expect("router drains");
    router.join();
    shutdown_and_join(client_a, shard_a);
    shutdown_and_join(client_b, shard_b);
}

/// The first span named `name` in a fragment.
fn span<'a>(fragment: &'a Value, name: &str) -> Option<&'a Value> {
    fragment["spans"].as_array()?.iter().find(|s| s["name"].as_str() == Some(name))
}

/// Sends the primed program with `trace_id` over a fresh connection that
/// stays idle for 60 ms first, then the same again on that connection.
/// Returns the process's fragments for both trace ids.
fn idle_then_repeat(addr: &taj::service::BoundAddr, process: &str, trace_id: &str) -> [Value; 2] {
    let mut late = Client::connect(addr).expect("late client connects");
    std::thread::sleep(Duration::from_millis(60));
    let ids = [trace_id.to_string(), format!("{trace_id}-again")];
    for id in &ids {
        let opts = AnalyzeOpts { trace_id: Some(id.clone()), ..AnalyzeOpts::default() };
        late.analyze(XSS_SERVLET, &opts).expect("cache-hit analyze");
    }
    ids.map(|id| {
        let trace = late.trace(&id).expect("trace fetch");
        let fragments = trace["fragments"].as_array().expect("fragments").clone();
        fragments
            .into_iter()
            .find(|f| f["process"].as_str() == Some(process))
            .unwrap_or_else(|| panic!("no {process} fragment for {id}: {trace:?}"))
    })
}

/// `first` is a connection's first request: its `conn.read` covers the
/// idle 60 ms (asserted as at least 50 ms, since the accept and the read
/// are each timed a scheduler wake-up after the client's own clock) and
/// ends where the `request` root starts; the cache hit itself is much
/// shorter. `second`, later on the same connection, has no `conn.read`.
fn assert_conn_read(first: &Value, second: &Value) {
    let read = span(first, "conn.read").unwrap_or_else(|| panic!("no conn.read: {first:?}"));
    let root = span(first, "request").expect("request root");
    let read_us = read["dur"].as_u64().expect("conn.read is a span");
    assert!(read_us >= 50_000, "conn.read covers the idle connection: {first:?}");
    assert_eq!(read["ts"].as_u64(), Some(0), "the timeline starts at the accept: {first:?}");
    let root_ts = root["ts"].as_u64().expect("root ts");
    assert!(read_us <= root_ts, "conn.read ends before the request starts: {first:?}");
    let elapsed_us = first["elapsed_us"].as_u64().expect("elapsed_us");
    assert!(elapsed_us < read_us, "elapsed_us excludes the wait: {first:?}");
    assert!(span(second, "conn.read").is_none(), "only the first line has conn.read: {second:?}");
    assert_eq!(span(second, "request").and_then(|r| r["ts"].as_u64()), Some(0), "{second:?}");
}

#[test]
fn first_request_on_a_connection_records_its_conn_read_wait() {
    let (shard, shard_client) = start(ServeOptions { workers: 1, ..ServeOptions::tcp_ephemeral() });
    let router =
        route(RouterOptions::tcp_ephemeral(vec![tcp_addr(&shard)])).expect("router starts");
    let mut via_router = Client::connect(router.addr()).expect("connect router");
    // Prime the report cache, so the requests below are cache hits.
    via_router.analyze(XSS_SERVLET, &AnalyzeOpts::default()).expect("priming analyze");

    let [first, second] = idle_then_repeat(shard.addr(), "daemon", "t-conn-daemon");
    assert_conn_read(&first, &second);
    let [first, second] = idle_then_repeat(router.addr(), "router", "t-conn-router");
    assert_conn_read(&first, &second);

    via_router.shutdown().expect("router drains");
    router.join();
    shutdown_and_join(shard_client, shard);
}

#[test]
fn report_bytes_identical_with_flight_recorder_on_and_off() {
    // The recorder must be a pure observer: same program, same config,
    // same bytes — ring on or off.
    let on = ServeOptions {
        workers: 2,
        flight_records: 256,
        slow_ms: Some(0),
        ..ServeOptions::tcp_ephemeral()
    };
    let off = ServeOptions { workers: 2, flight_records: 0, ..ServeOptions::tcp_ephemeral() };
    let opts = AnalyzeOpts { trace_id: Some("t-bytes".to_string()), ..AnalyzeOpts::default() };

    let (handle_on, mut client_on) = start(on);
    let report_on = client_on.analyze(XSS_SERVLET, &opts).expect("analyze with recorder on");

    let (handle_off, mut client_off) = start(off);
    let report_off = client_off.analyze(XSS_SERVLET, &opts).expect("analyze with recorder off");

    assert_eq!(
        serde_json::to_string(&report_on).expect("serialize report"),
        serde_json::to_string(&report_off).expect("serialize report"),
        "flight recorder changed report bytes"
    );

    // The off daemon must also report the ring as absent, and refuse
    // trace lookups with a readable error.
    let stats = client_off.stats().expect("stats");
    assert_eq!(stats["flight"]["capacity"].as_u64(), Some(0), "{stats:?}");
    let listing = client_off.last_traces(None).expect("last_traces with ring off");
    assert_eq!(listing["count"].as_u64(), Some(0), "{listing:?}");

    shutdown_and_join(client_on, handle_on);
    shutdown_and_join(client_off, handle_off);
}
