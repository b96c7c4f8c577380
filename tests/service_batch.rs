//! The batch request and the shard router, end to end: one envelope
//! carries N programs and returns N ordered per-item results; the router
//! hashes each program to its shard, forwards verbatim, splits batches,
//! and fails over to local analysis when a shard dies.

use serde::Value;
use taj::service::{route, serve, AnalyzeOpts, Client, RouterOptions, RouterTuning, ServeOptions};

const XSS_SERVLET: &str = r#"
    class Page extends HttpServlet {
        method void doGet(HttpServletRequest req, HttpServletResponse resp) {
            String name = req.getParameter("name");
            PrintWriter w = resp.getWriter();
            w.println(name);
        }
    }
"#;

const SAFE_SERVLET: &str = r#"
    class Quiet extends HttpServlet {
        method void doGet(HttpServletRequest req, HttpServletResponse resp) {
            PrintWriter w = resp.getWriter();
            w.println("static");
        }
    }
"#;

fn start(options: ServeOptions) -> (taj::service::ServerHandle, Client) {
    let handle = serve(options).expect("server starts");
    let client = Client::connect(handle.addr()).expect("client connects");
    (handle, client)
}

fn default_options() -> ServeOptions {
    ServeOptions { workers: 2, ..ServeOptions::tcp_ephemeral() }
}

fn tcp_addr(handle: &taj::service::ServerHandle) -> String {
    match handle.addr() {
        taj::service::BoundAddr::Tcp(a) => a.to_string(),
        other => panic!("expected TCP bind, got {other}"),
    }
}

fn shutdown_and_join(mut client: Client, handle: taj::service::ServerHandle) {
    client.shutdown().expect("shutdown acknowledged");
    handle.join();
}

fn stat(stats: &Value, key: &str) -> u64 {
    stats[key].as_u64().unwrap_or_else(|| panic!("stats missing `{key}`: {stats:?}"))
}

fn items(batch: &Value) -> &Vec<Value> {
    match batch.get("items") {
        Some(Value::Array(items)) => items,
        other => panic!("batch result missing items array: {other:?}"),
    }
}

fn item_findings(item: &Value) -> usize {
    assert_eq!(item["ok"].as_bool(), Some(true), "{item:?}");
    item["result"]["findings"].as_array().map_or(0, Vec::len)
}

#[test]
fn batch_returns_ordered_per_item_results() {
    // One worker: items run sequentially, so the repeated program is a
    // guaranteed report-cache hit and every counter below is exact.
    // (With concurrent workers, identical items can race the cache;
    // byte-identity still holds, because reports are a pure function of
    // the request, but phase-1 may legitimately run once per racer.)
    let (handle, mut client) = start(ServeOptions { workers: 1, ..ServeOptions::tcp_ephemeral() });
    let opts = AnalyzeOpts::default();
    let batch = client
        .batch(
            &[
                (XSS_SERVLET.to_string(), opts.clone()),
                (SAFE_SERVLET.to_string(), opts.clone()),
                (XSS_SERVLET.to_string(), opts.clone()),
            ],
            None,
        )
        .expect("batch succeeds");
    assert_eq!(batch["count"].as_u64(), Some(3));
    let results = items(&batch);
    assert_eq!(item_findings(&results[0]), 1, "item 0 is the XSS program");
    assert_eq!(item_findings(&results[1]), 0, "item 1 is the safe program");
    assert_eq!(item_findings(&results[2]), 1, "item 2 repeats the XSS program");
    assert_eq!(
        serde_json::to_string(&results[0]["result"]).unwrap(),
        serde_json::to_string(&results[2]["result"]).unwrap(),
        "identical items share cached result bytes"
    );
    let trace_ids: Vec<&str> =
        results.iter().map(|i| i["trace_id"].as_str().expect("trace id")).collect();
    assert_ne!(trace_ids[0], trace_ids[2], "every item gets its own trace id");

    let stats = client.stats().expect("stats");
    assert_eq!(stat(&stats, "batch_requests"), 1);
    assert_eq!(stat(&stats, "analyze_requests"), 3, "each item counts as an analyze");
    assert_eq!(stat(&stats, "phase1_runs"), 2, "one per distinct program");
    shutdown_and_join(client, handle);
}

#[test]
fn batch_isolates_bad_items_without_failing_the_envelope() {
    let (handle, mut client) = start(default_options());
    let source = serde_json::to_string(&Value::String(XSS_SERVLET.to_string())).unwrap();
    let line = format!(
        "{{\"id\":1,\"cmd\":\"batch\",\"items\":[{{\"source\":{source}}},\
         {{\"source\":{source},\"config\":\"no-such-config\"}},{{\"nope\":true}}]}}"
    );
    let raw = client.request_raw(&line).expect("envelope succeeds");
    assert!(raw.contains("\"ok\":true"), "envelope-level ok: {raw}");
    let response: Value = serde_json::from_str(&raw).unwrap();
    let results = items(&response["result"]);
    assert_eq!(results.len(), 3);
    assert_eq!(results[0]["ok"].as_bool(), Some(true), "good item analyzed: {raw}");
    assert_eq!(results[1]["ok"].as_bool(), Some(false));
    assert_eq!(results[1]["error"]["code"].as_str(), Some("unknown_config"));
    assert_eq!(results[2]["ok"].as_bool(), Some(false), "malformed item isolated");
    assert_eq!(results[2]["error"]["code"].as_str(), Some("bad_request"));
    shutdown_and_join(client, handle);
}

#[test]
fn batch_envelope_rejects_missing_items() {
    let (handle, mut client) = start(default_options());
    let raw = client.request_raw("{\"id\":1,\"cmd\":\"batch\"}").expect("response");
    assert!(raw.contains("\"ok\":false"), "{raw}");
    assert!(raw.contains("bad_request"), "{raw}");
    shutdown_and_join(client, handle);
}

#[test]
fn router_forwards_byte_identically_and_reports_shard_health() {
    let (shard_a, client_a) = start(default_options());
    let (shard_b, client_b) = start(default_options());
    let router = route(RouterOptions::tcp_ephemeral(vec![tcp_addr(&shard_a), tcp_addr(&shard_b)]))
        .expect("router starts");
    let mut via_router = Client::connect(router.addr()).expect("connect router");

    // Fixed id + trace id: repeats through the router must be
    // byte-identical, exactly as against a single daemon.
    let req = format!(
        "{{\"id\":3,\"cmd\":\"analyze\",\"source\":{},\"trace_id\":\"t-3\"}}",
        serde_json::to_string(&Value::String(XSS_SERVLET.to_string())).unwrap()
    );
    let first = via_router.request_raw(&req).expect("first analyze via router");
    let second = via_router.request_raw(&req).expect("second analyze via router");
    assert_eq!(first, second);
    assert!(first.contains("\"ok\":true"), "{first}");
    assert!(first.contains("\"trace_id\":\"t-3\""), "{first}");

    let stats = via_router.stats().expect("router stats");
    assert_eq!(stats["role"].as_str(), Some("router"));
    assert_eq!(stat(&stats, "analyze_requests"), 2);
    assert_eq!(stat(&stats, "local_fallbacks"), 0);
    let shards = stats["shards"].as_array().expect("shards array");
    assert_eq!(shards.len(), 2);
    let forwarded: u64 = shards.iter().map(|s| stat(s, "forwarded")).sum();
    assert_eq!(forwarded, 2, "both requests went to a backend: {stats:?}");
    // Content-addressed routing: the repeat landed on the same shard.
    assert!(
        shards.iter().any(|s| stat(s, "forwarded") == 2),
        "repeats must hash to one shard: {stats:?}"
    );
    let metrics = via_router.metrics().expect("router metrics");
    assert!(metrics.contains("taj_router_shards 2"), "{metrics}");

    // Shutting down the router leaves the backends running.
    via_router.shutdown().expect("router drains");
    router.join();
    let stats_a = { Client::connect(shard_a.addr()).expect("reconnect A") }
        .stats()
        .expect("shard A still up");
    assert!(stats_a["protocol_version"].as_u64().is_some());
    shutdown_and_join(client_a, shard_a);
    shutdown_and_join(client_b, shard_b);
}

#[test]
fn router_splits_batches_across_shards_and_merges_in_order() {
    let (shard_a, client_a) = start(default_options());
    let (shard_b, client_b) = start(default_options());
    let router = route(RouterOptions::tcp_ephemeral(vec![tcp_addr(&shard_a), tcp_addr(&shard_b)]))
        .expect("router starts");
    let mut via_router = Client::connect(router.addr()).expect("connect router");

    // Several distinct programs so the hash actually spreads: safe
    // variants are generated by renaming the printed literal.
    let mut sources = vec![XSS_SERVLET.to_string(), SAFE_SERVLET.to_string()];
    for k in 0..4 {
        sources.push(SAFE_SERVLET.replace("Quiet", &format!("Quiet{k}")));
    }
    let opts = AnalyzeOpts::default();
    let batch_items: Vec<(String, AnalyzeOpts)> =
        sources.iter().map(|s| (s.clone(), opts.clone())).collect();
    let batch = via_router.batch(&batch_items, None).expect("batch via router");
    assert_eq!(batch["count"].as_u64(), Some(sources.len() as u64));
    let results = items(&batch);
    assert_eq!(item_findings(&results[0]), 1, "first item is the XSS program");
    for (i, item) in results.iter().enumerate().skip(1) {
        assert_eq!(item_findings(item), 0, "item {i} is a safe variant: {item:?}");
    }

    // Both shards saw work (6 distinct programs over 2 shards: the odds
    // of all landing on one side are 2^-5 per hash design, and the hash
    // is deterministic — this asserts the fixed corpus actually splits).
    let stats = via_router.stats().expect("router stats");
    let shards = stats["shards"].as_array().expect("shards array");
    assert!(
        shards.iter().all(|s| stat(s, "forwarded") >= 1),
        "batch must split across shards: {stats:?}"
    );
    via_router.shutdown().expect("router drains");
    router.join();
    shutdown_and_join(client_a, shard_a);
    shutdown_and_join(client_b, shard_b);
}

#[test]
fn router_fails_over_to_local_analysis_when_a_shard_dies() {
    let (shard_a, client_a) = start(default_options());
    let (shard_b, client_b) = start(default_options());
    let addr_a = tcp_addr(&shard_a);
    let addr_b = tcp_addr(&shard_b);
    let router = route(RouterOptions::tcp_ephemeral(vec![addr_a.clone(), addr_b.clone()]))
        .expect("router starts");
    let mut via_router = Client::connect(router.addr()).expect("connect router");

    // Establish the healthy-path answer first.
    let report = via_router.analyze(XSS_SERVLET, &AnalyzeOpts::default()).expect("warm analyze");
    assert_eq!(report["findings"].as_array().map(Vec::len), Some(1));

    // Kill both backends: every shard is now unreachable.
    shutdown_and_join(client_a, shard_a);
    shutdown_and_join(client_b, shard_b);

    let report =
        via_router.analyze(XSS_SERVLET, &AnalyzeOpts::default()).expect("failover analyze");
    assert_eq!(
        report["findings"].as_array().map(Vec::len),
        Some(1),
        "local fallback computes the same findings: {report:?}"
    );
    let stats = via_router.stats().expect("router stats");
    assert!(stat(&stats, "local_fallbacks") >= 1, "{stats:?}");
    let shards = stats["shards"].as_array().expect("shards array");
    assert!(
        shards.iter().any(|s| s["healthy"].as_bool() == Some(false)),
        "dead shard marked unhealthy: {stats:?}"
    );
    via_router.shutdown().expect("router drains");
    router.join();
}

#[test]
fn shard_counters_are_disjoint_and_sum_to_forward_calls() {
    // Pins the counter arithmetic: every forward call ends in exactly
    // one of `forwarded` / `failovers`, and `retried` counts extra
    // transport attempts on top — a failed-then-failed-over request is
    // never double-counted.
    let (shard, shard_client) = start(default_options());
    let router = route(RouterOptions {
        // A long cooldown keeps the prober out of this test's counters.
        tuning: RouterTuning {
            failure_threshold: 3,
            cooldown_ms: 60_000,
            forward_attempts: 2,
            retry_base_ms: 1,
            ..RouterTuning::default()
        },
        ..RouterOptions::tcp_ephemeral(vec![tcp_addr(&shard)])
    })
    .expect("router starts");
    let mut via_router = Client::connect(router.addr()).expect("connect router");

    // Two healthy forwards.
    for _ in 0..2 {
        via_router.analyze(XSS_SERVLET, &AnalyzeOpts::default()).expect("healthy analyze");
    }
    // Kill the shard; the next three forwards each burn both transport
    // attempts (1 extra attempt = 1 retried each), fail over, and the
    // third one trips the breaker.
    shutdown_and_join(shard_client, shard);
    for _ in 0..3 {
        via_router.analyze(XSS_SERVLET, &AnalyzeOpts::default()).expect("failover analyze");
    }
    // Breaker now open: the fourth failover fails fast, no retry burned.
    via_router.analyze(XSS_SERVLET, &AnalyzeOpts::default()).expect("fast-fail analyze");

    let stats = via_router.stats().expect("router stats");
    let shards = stats["shards"].as_array().expect("shards array");
    let s = &shards[0];
    assert_eq!(stat(s, "forwarded"), 2, "{stats:?}");
    assert_eq!(stat(s, "failovers"), 4, "{stats:?}");
    // Forwards 2 and 3 deterministically burn one transport retry each;
    // forward 1 burns one more unless the dying daemon's connection
    // thread answered it with `shutting_down` (a race either way dead).
    // Forward 4 hits an open breaker: never a retry.
    assert!((2..=3).contains(&stat(s, "retried")), "open breaker burns no retries: {stats:?}");
    assert_eq!(stat(s, "opens"), 1, "{stats:?}");
    assert_eq!(s["state"].as_str(), Some("open"), "{stats:?}");
    assert_eq!(s["healthy"].as_bool(), Some(false), "{stats:?}");
    // The invariant itself: six forward calls, each counted exactly once.
    assert_eq!(stat(s, "forwarded") + stat(s, "failovers"), 6, "{stats:?}");
    assert_eq!(stat(&stats, "local_fallbacks"), 4, "{stats:?}");

    let metrics = via_router.metrics().expect("router metrics");
    assert!(metrics.contains("taj_router_shard_state"), "{metrics}");
    assert!(metrics.contains("\"open\"} 1"), "breaker state one-hot: {metrics}");
    assert!(metrics.contains("taj_router_shard_retried_total"), "{metrics}");
    assert!(metrics.contains("taj_router_shard_opens_total"), "{metrics}");
    via_router.shutdown().expect("router drains");
    router.join();
}

#[test]
fn batch_survives_shard_restart_and_breaker_reintegrates_via_probes() {
    // The self-healing loop end to end: a shard dies mid-workload (its
    // batch items fail over in order, exactly once), then comes back on
    // the same port and is reintegrated by synthetic probes alone —
    // closed breaker, real traffic flowing — without any user request
    // having been risked against the half-dead shard.
    let (shard_a, client_a) = start(default_options());
    let (shard_b, mut client_b) = start(default_options());
    let addr_a = tcp_addr(&shard_a);
    let router = route(RouterOptions {
        tuning: RouterTuning {
            failure_threshold: 1,
            cooldown_ms: 100,
            probe_interval_ms: 20,
            forward_attempts: 1,
            ..RouterTuning::default()
        },
        ..RouterOptions::tcp_ephemeral(vec![addr_a.clone(), tcp_addr(&shard_b)])
    })
    .expect("router starts");
    let mut via_router = Client::connect(router.addr()).expect("connect router");

    // Six distinct programs (the known-split corpus): item 0 is the XSS
    // program, the rest are safe variants — the findings pattern pins
    // per-item ordering through every phase below.
    let mut sources = vec![XSS_SERVLET.to_string(), SAFE_SERVLET.to_string()];
    for k in 0..4 {
        sources.push(SAFE_SERVLET.replace("Quiet", &format!("Quiet{k}")));
    }
    let opts = AnalyzeOpts::default();
    let batch_items: Vec<(String, AnalyzeOpts)> =
        sources.iter().map(|s| (s.clone(), opts.clone())).collect();
    let check_batch = |batch: &Value| {
        assert_eq!(batch["count"].as_u64(), Some(sources.len() as u64));
        let results = items(batch);
        assert_eq!(item_findings(&results[0]), 1, "item 0 is the XSS program");
        for (i, item) in results.iter().enumerate().skip(1) {
            assert_eq!(item_findings(item), 0, "item {i} is a safe variant: {item:?}");
        }
    };
    check_batch(&via_router.batch(&batch_items, None).expect("healthy batch"));

    // Kill shard A mid-workload.
    shutdown_and_join(client_a, shard_a);
    let b_before = client_b.stats().expect("shard B stats");
    check_batch(&via_router.batch(&batch_items, None).expect("batch during outage"));
    let stats = via_router.stats().expect("router stats");
    assert!(stat(&stats, "local_fallbacks") >= 1, "A's items failed over: {stats:?}");
    let b_after = client_b.stats().expect("shard B stats");
    // No duplicate execution: every one of the 6 items ran exactly once,
    // either on shard B or as a router-local fallback.
    assert_eq!(
        (stat(&b_after, "analyze_requests") - stat(&b_before, "analyze_requests"))
            + stat(&stats, "local_fallbacks"),
        sources.len() as u64,
        "B delta + fallbacks must cover the outage batch exactly: {b_after:?} {stats:?}"
    );
    let forwarded_a_down = stat(&stats["shards"].as_array().unwrap()[0], "forwarded");

    // Restart shard A on the same port and wait for the probe chain
    // (open → half_open → closed) with no user traffic in between.
    let shard_a2 = serve(ServeOptions {
        bind: taj::service::Bind::Tcp(addr_a.clone()),
        workers: 2,
        ..ServeOptions::tcp_ephemeral()
    })
    .expect("shard A restarts on its old port");
    let client_a2 = Client::connect(shard_a2.addr()).expect("reconnect A");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let stats = via_router.stats().expect("router stats");
        let a = &stats["shards"].as_array().expect("shards")[0];
        if a["state"].as_str() == Some("closed") {
            assert!(stat(a, "probes") >= 1, "reintegration must come from probes: {stats:?}");
            assert_eq!(
                stat(a, "forwarded"),
                forwarded_a_down,
                "no user request reached A before its breaker closed: {stats:?}"
            );
            break;
        }
        assert!(std::time::Instant::now() < deadline, "breaker never closed: {stats:?}");
        std::thread::sleep(std::time::Duration::from_millis(20));
    }

    // Real traffic flows to the reintegrated shard again.
    check_batch(&via_router.batch(&batch_items, None).expect("batch after reintegration"));
    let stats = via_router.stats().expect("router stats");
    assert!(
        stat(&stats["shards"].as_array().unwrap()[0], "forwarded") > forwarded_a_down,
        "reintegrated shard serves again: {stats:?}"
    );
    via_router.shutdown().expect("router drains");
    router.join();
    shutdown_and_join(client_a2, shard_a2);
    shutdown_and_join(client_b, shard_b);
}
