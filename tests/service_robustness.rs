//! Daemon robustness: malformed input, strict protocol fields, request
//! timeouts, worker-panic isolation, graceful shutdown drain, shutdown
//! waking an idle accept loop, and the Unix-domain-socket transport.

use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::channel;
use std::time::Duration;

use serde::Value;
use taj::service::{
    serve, AnalyzeOpts, Bind, BoundAddr, Client, ClientError, RetryPolicy, ServeOptions,
    ServerHandle,
};

const SERVLET: &str = r#"
    class Page extends HttpServlet {
        method void doGet(HttpServletRequest req, HttpServletResponse resp) {
            String name = req.getParameter("name");
            resp.getWriter().println(name);
        }
    }
"#;

fn start_debug() -> (ServerHandle, Client) {
    let options = ServeOptions { workers: 2, debug: true, ..ServeOptions::tcp_ephemeral() };
    let handle = serve(options).expect("server starts");
    let client = Client::connect(handle.addr()).expect("client connects");
    (handle, client)
}

/// Joins `handle` on a helper thread and panics if the daemon has not
/// exited 10 s later, so a shutdown that fails to wake the accept loop
/// fails the test instead of hanging it.
fn join_within_10s(handle: ServerHandle) {
    let (tx, rx) = channel();
    std::thread::spawn(move || {
        handle.join();
        let _ = tx.send(());
    });
    rx.recv_timeout(Duration::from_secs(10)).expect("daemon still running 10 s after shutdown");
}

/// Gives a freshly started accept loop time to block in `accept`. A flag
/// set before the loop first checks it stops the loop with no wake at
/// all, and with no connection there is nothing else to wait on.
fn let_accept_block() {
    std::thread::sleep(Duration::from_millis(100));
}

/// A socket path no other test uses.
fn temp_socket() -> PathBuf {
    static UNIQUE: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "taj-service-test-{}-{}.sock",
        std::process::id(),
        UNIQUE.fetch_add(1, Ordering::SeqCst)
    ))
}

fn error_code(raw: &str) -> String {
    let v = serde_json::from_str(raw).expect("response parses");
    assert_eq!(v["ok"].as_bool(), Some(false), "expected an error response: {raw}");
    v["error"]["code"].as_str().expect("error.code present").to_string()
}

#[test]
fn malformed_json_gets_structured_error() {
    let (handle, mut client) = start_debug();
    let raw = client.request_raw("{this is not json").expect("server still responds");
    assert_eq!(error_code(&raw), "bad_request");
    let v = serde_json::from_str(&raw).unwrap();
    assert!(v["id"].is_null(), "unparseable request has no id to echo: {raw}");

    // Valid JSON but not an object / unknown fields / unknown command.
    let raw = client.request_raw("[1,2,3]").expect("responds");
    assert_eq!(error_code(&raw), "bad_request");
    let raw = client.request_raw(r#"{"cmd":"stats","bogus":true}"#).expect("responds");
    assert_eq!(error_code(&raw), "bad_request");
    let raw = client.request_raw(r#"{"cmd":"launch_missiles"}"#).expect("responds");
    assert_eq!(error_code(&raw), "unknown_command");

    // The connection survives all of the above.
    client.stats().expect("connection still usable");
    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn analysis_errors_are_structured() {
    let (handle, mut client) = start_debug();
    let bad_config =
        AnalyzeOpts { config: Some("warp-speed".to_string()), ..AnalyzeOpts::default() };
    match client.analyze(SERVLET, &bad_config) {
        Err(ClientError::Remote { code, .. }) => assert_eq!(code, "unknown_config"),
        other => panic!("expected unknown_config, got {other:?}"),
    }
    match client.analyze("class {{{ not jweb", &AnalyzeOpts::default()) {
        Err(ClientError::Remote { code, .. }) => assert_eq!(code, "parse_error"),
        other => panic!("expected parse_error, got {other:?}"),
    }
    let bad_rules =
        AnalyzeOpts { rules: Some("rule Xss\nrule Sqli".to_string()), ..AnalyzeOpts::default() };
    match client.analyze(SERVLET, &bad_rules) {
        Err(ClientError::Remote { code, .. }) => assert_eq!(code, "bad_rules"),
        other => panic!("expected bad_rules, got {other:?}"),
    }
    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn request_timeout_fires_and_daemon_survives() {
    let (handle, mut client) = start_debug();
    let raw = client
        .request_raw(r#"{"id":9,"cmd":"debug_sleep","ms":5000,"timeout_ms":50}"#)
        .expect("timeout response arrives");
    assert_eq!(error_code(&raw), "timeout");
    let v = serde_json::from_str(&raw).unwrap();
    assert_eq!(v["id"].as_u64(), Some(9), "timeout response echoes the request id");

    // The daemon keeps serving while the abandoned job finishes in the
    // background; a real analysis still works.
    let report = client.analyze(SERVLET, &AnalyzeOpts::default()).expect("analyze after timeout");
    assert_eq!(report["findings"].as_array().map(Vec::len), Some(1));
    let stats = client.stats().expect("stats");
    assert_eq!(stats["timeouts"].as_u64(), Some(1), "{stats:?}");
    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn deeply_nested_request_is_an_error_not_a_crash() {
    let (handle, mut client) = start_debug();
    // 100k unclosed brackets would blow the recursive-descent parser's
    // stack (an abort, not a catchable panic) without a depth limit.
    let hostile = "[".repeat(100_000);
    let raw = client.request_raw(&hostile).expect("server still responds");
    assert_eq!(error_code(&raw), "bad_request");
    // Same for deeply nested objects smuggled inside a valid envelope.
    let nested = format!(r#"{{"cmd":"stats","id":{}1{}}}"#, "[".repeat(500), "]".repeat(500));
    let raw = client.request_raw(&nested).expect("responds");
    assert_eq!(error_code(&raw), "bad_request");
    // The connection and the daemon both survive.
    client.stats().expect("connection still usable");
    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn timed_out_job_releases_its_worker() {
    let (handle, mut client) = start_debug();
    // Nominally a 60s sleep; the 50ms deadline cancels its supervisor and
    // the cooperative sleeper frees the worker within one check interval.
    let raw = client
        .request_raw(r#"{"id":7,"cmd":"debug_sleep","ms":60000,"timeout_ms":50}"#)
        .expect("timeout response arrives");
    assert_eq!(error_code(&raw), "timeout");
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let stats = client.stats().expect("stats");
        if stats["workers_reclaimed"].as_u64().unwrap_or(0) >= 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "worker never reclaimed after cancellation: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    // The reclaimed worker is genuinely reusable.
    let report = client.analyze(SERVLET, &AnalyzeOpts::default()).expect("analyze after reclaim");
    assert_eq!(report["findings"].as_array().map(Vec::len), Some(1));
    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn degrade_turns_budget_exhaustion_into_hybrid_report() {
    let (handle, mut client) = start_debug();
    // Without degrade, the starved CS budget is the paper's hard failure.
    let starved = AnalyzeOpts { config: Some("cs-tiny".to_string()), ..AnalyzeOpts::default() };
    match client.analyze(SERVLET, &starved) {
        Err(ClientError::Remote { code, .. }) => assert_eq!(code, "out_of_memory"),
        other => panic!("expected out_of_memory, got {other:?}"),
    }
    // With degrade, the same request falls down the ladder to hybrid and
    // still reports the flow, annotated with provenance.
    let report = client
        .analyze(SERVLET, &AnalyzeOpts { degrade: true, ..starved })
        .expect("degraded analyze succeeds");
    assert_eq!(report["findings"].as_array().map(Vec::len), Some(1), "{report:?}");
    assert_eq!(report["config"].as_str(), Some("Hybrid-Unbounded"), "{report:?}");
    assert_eq!(report["degradation"]["degraded"].as_bool(), Some(true), "{report:?}");
    let steps = report["degradation"]["steps"].as_array().expect("degradation steps");
    assert!(
        steps.iter().any(|s| s["reason"].as_str().unwrap_or("").contains("path-edge budget")),
        "{report:?}"
    );
    let stats = client.stats().expect("stats");
    // The degraded request reused the cached phase-1 from the failed one:
    // no second pointer analysis anywhere down the ladder.
    assert_eq!(stats["phase1_runs"].as_u64(), Some(1), "{stats:?}");
    assert_eq!(stats["degraded_runs"].as_u64(), Some(1), "{stats:?}");
    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn worker_panic_is_isolated() {
    // One worker, so no second worker can mask its loss, and a deadline
    // on every follow-up analysis, so a lost worker fails the test fast
    // instead of hanging it.
    let options = ServeOptions { workers: 1, debug: true, ..ServeOptions::tcp_ephemeral() };
    let handle = serve(options).expect("server starts");
    let mut client = Client::connect(handle.addr()).expect("client connects");
    let raw = client.request_raw(r#"{"id":1,"cmd":"debug_panic"}"#).expect("panic response");
    assert_eq!(error_code(&raw), "worker_panic");

    // The worker survived (the panic is caught per job), so the same
    // worker runs every later analysis.
    let opts = AnalyzeOpts { timeout_ms: Some(10_000), ..AnalyzeOpts::default() };
    for _ in 0..3 {
        let report = client.analyze(SERVLET, &opts).expect("analyze runs on the same worker");
        assert_eq!(report["findings"].as_array().map(Vec::len), Some(1));
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stats["worker_panics"].as_u64(), Some(1), "{stats:?}");
    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn shutdown_drains_in_flight_jobs() {
    let (handle, mut busy) = start_debug();
    let mut controller = Client::connect(handle.addr()).expect("second connection");

    // Connection A parks a slow job in the pool...
    let (tx, rx) = channel();
    let worker = std::thread::spawn(move || {
        let raw = busy
            .request_raw(r#"{"id":"slow","cmd":"debug_sleep","ms":400}"#)
            .expect("in-flight job completes despite shutdown");
        tx.send(raw).unwrap();
    });
    std::thread::sleep(Duration::from_millis(100)); // let the job get queued

    // ...while connection B asks the daemon to shut down.
    let ack = controller.shutdown().expect("shutdown acknowledged");
    assert_eq!(ack["draining"].as_bool(), Some(true), "{ack:?}");

    // The in-flight job still completes and its response is delivered.
    let raw = rx.recv_timeout(Duration::from_secs(10)).expect("drained job responded");
    let v = serde_json::from_str(&raw).unwrap();
    assert_eq!(v["ok"].as_bool(), Some(true), "{raw}");
    assert_eq!(v["result"]["slept_ms"].as_u64(), Some(400), "{raw}");
    worker.join().unwrap();

    // join() returns: accept loop exited and the pool drained.
    handle.join();
}

/// Sends a `debug_sleep` of `ms` on its own connection from a new
/// thread, which returns the raw response line.
fn spawn_sleeper(addr: &BoundAddr, ms: u64) -> std::thread::JoinHandle<String> {
    let addr = addr.clone();
    std::thread::spawn(move || {
        let mut c = Client::connect(&addr).expect("sleeper connects");
        c.request_raw(&format!("{{\"id\":{ms},\"cmd\":\"debug_sleep\",\"ms\":{ms}}}"))
            .expect("sleeper answers")
    })
}

fn assert_slept(raw: &str, ms: u64) {
    let v: Value = serde_json::from_str(raw).unwrap();
    assert_eq!(v["ok"].as_bool(), Some(true), "{raw}");
    assert_eq!(v["result"]["slept_ms"].as_u64(), Some(ms), "{raw}");
}

#[test]
fn queued_jobs_run_after_shutdown() {
    // One worker: the first sleeper runs while the second waits in the
    // queue when `shutdown` arrives. Draining runs both.
    let options = ServeOptions { workers: 1, debug: true, ..ServeOptions::tcp_ephemeral() };
    let handle = serve(options).expect("server starts");
    let mut controller = Client::connect(handle.addr()).expect("controller connects");
    let running = spawn_sleeper(handle.addr(), 400);
    std::thread::sleep(Duration::from_millis(100)); // the worker takes it
    let queued = spawn_sleeper(handle.addr(), 100);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let stats = controller.stats().expect("stats");
        if stats["queue_depth"].as_u64() == Some(1) {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "second sleeper never queued: {stats:?}");
        std::thread::sleep(Duration::from_millis(5));
    }

    let ack = controller.shutdown().expect("shutdown acknowledged");
    assert_eq!(ack["draining"].as_bool(), Some(true), "{ack:?}");
    assert_slept(&running.join().unwrap(), 400);
    assert_slept(&queued.join().unwrap(), 100);
    join_within_10s(handle);
}

#[test]
fn submission_after_shutdown_is_refused() {
    let (handle, mut controller) = start_debug();
    // A connection whose handler is running before the shutdown: the
    // `stats` round trip proves the accept loop took it.
    let mut late = Client::connect(handle.addr())
        .expect("late client connects")
        .with_retry(RetryPolicy::none());
    late.stats().expect("late client is served before the shutdown");
    let sleeper = spawn_sleeper(handle.addr(), 300);
    std::thread::sleep(Duration::from_millis(100)); // the sleeper runs

    let ack = controller.shutdown().expect("shutdown acknowledged");
    assert_eq!(ack["draining"].as_bool(), Some(true), "{ack:?}");
    // The router fails over on exactly this code.
    match late.analyze(SERVLET, &AnalyzeOpts::default()) {
        Err(ClientError::Remote { code, .. }) => assert_eq!(code, "shutting_down"),
        other => panic!("expected shutting_down after the ack, got {other:?}"),
    }
    assert_slept(&sleeper.join().unwrap(), 300);
    join_within_10s(handle);
}

#[test]
fn requests_after_shutdown_are_refused() {
    let (handle, mut client) = start_debug();
    client.shutdown().expect("shutdown ok");
    // Give the accept loop a moment to observe the flag and drain.
    handle.join();
    // New connections are refused once the listener is gone; an already
    // half-open client errors out rather than hanging.
    match client.stats() {
        Err(_) => {}
        Ok(v) => panic!("daemon answered after shutdown: {v:?}"),
    }
}

#[test]
fn request_shutdown_wakes_an_idle_daemon_over_tcp() {
    // No client ever connects, so only the shutdown's own wake can make
    // the blocked accept return.
    let handle =
        serve(ServeOptions { workers: 1, ..ServeOptions::tcp_ephemeral() }).expect("server starts");
    let_accept_block();
    handle.request_shutdown();
    join_within_10s(handle);
}

#[test]
fn request_shutdown_wakes_an_idle_daemon_over_unix() {
    let path = temp_socket();
    let options = ServeOptions {
        bind: Bind::Unix(path.clone()),
        workers: 1,
        ..ServeOptions::tcp_ephemeral()
    };
    let handle = serve(options).expect("unix server starts");
    let_accept_block();
    handle.request_shutdown();
    join_within_10s(handle);
    assert!(!path.exists(), "socket file removed on shutdown");
}

#[test]
fn shutdown_command_wakes_a_daemon_bound_to_the_unspecified_address() {
    // The listener's own address is 0.0.0.0:<port>; the wake must go
    // through loopback to reach it.
    let options = ServeOptions {
        bind: Bind::Tcp("0.0.0.0:0".to_string()),
        workers: 1,
        ..ServeOptions::tcp_ephemeral()
    };
    let handle = serve(options).expect("server starts on 0.0.0.0");
    let port = match handle.addr() {
        BoundAddr::Tcp(a) => {
            assert!(a.ip().is_unspecified(), "bound to the unspecified address: {a}");
            a.port()
        }
        other => panic!("expected TCP, got {other}"),
    };
    let mut client = Client::connect_tcp(&format!("127.0.0.1:{port}")).expect("client connects");
    let ack = client.shutdown().expect("shutdown acknowledged");
    assert_eq!(ack["draining"].as_bool(), Some(true), "{ack:?}");
    join_within_10s(handle);
}

#[test]
fn unix_bind_refuses_a_live_socket_and_replaces_a_stale_one() {
    let path = temp_socket();
    let unix = |path: &PathBuf| ServeOptions {
        bind: Bind::Unix(path.clone()),
        workers: 1,
        ..ServeOptions::tcp_ephemeral()
    };

    // A socket file nobody accepts on, as a crashed daemon leaves it.
    drop(std::os::unix::net::UnixListener::bind(&path).expect("stale listener binds"));
    assert!(path.exists(), "the stale socket file stays behind");
    let first = serve(unix(&path)).expect("a stale socket file is replaced");

    // A second daemon on the same path must not take it from the first.
    match serve(unix(&path)) {
        Err(e) => assert_eq!(e.kind(), io::ErrorKind::AddrInUse, "{e}"),
        Ok(_) => panic!("a second daemon bound a live daemon's socket"),
    }
    let mut client = Client::connect_unix(&path).expect("the first daemon still owns the path");
    let stats = client.stats().expect("the first daemon still answers");
    assert!(stats["requests"].as_u64().is_some(), "{stats:?}");

    first.request_shutdown();
    join_within_10s(first);
    assert!(!path.exists(), "socket file removed on shutdown");
}

#[test]
fn unix_socket_round_trip() {
    let path = temp_socket();
    let options = ServeOptions {
        bind: Bind::Unix(path.clone()),
        workers: 1,
        ..ServeOptions::tcp_ephemeral()
    };
    let handle = serve(options).expect("unix server starts");
    let mut client = Client::connect_unix(&path).expect("unix client connects");
    let report = client.analyze(SERVLET, &AnalyzeOpts::default()).expect("analyze over unix");
    assert_eq!(report["findings"].as_array().map(Vec::len), Some(1), "{report:?}");
    let stats = client.stats().expect("stats over unix");
    assert_eq!(stats["phase1_runs"].as_u64(), Some(1));
    client.shutdown().expect("shutdown over unix");
    handle.join();
    assert!(!path.exists(), "socket file removed on shutdown");
}

#[test]
fn timeout_reclaims_worker_running_a_large_slice() {
    // `timeout_ms` cancels the job's supervisor; the cancel token is
    // shared by every rule's slicer (per-rule meters are fresh, the token
    // is not), so a large analysis must stop cooperatively and hand its
    // pool worker back.
    let spec = taj::webgen::BenchmarkSpec {
        name: "reclaim".into(),
        pattern_counts: taj::webgen::standard_mix(6, 2, true),
        filler_classes: 10,
        methods_per_class: 6,
        seed: 0xACE5,
    };
    let bench = taj::webgen::generate(&spec);
    let (handle, mut client) = start_debug();
    let opts = AnalyzeOpts { timeout_ms: Some(1), ..AnalyzeOpts::default() };
    match client.analyze(&bench.source, &opts) {
        Err(ClientError::Remote { code, .. }) => assert_eq!(code, "timeout"),
        // A partial (cancelled) report beating a 1ms deadline would mean
        // the box is implausibly fast — treat success as a test bug.
        Ok(v) => panic!("analysis outran a 1ms deadline: {v:?}"),
        other => panic!("expected timeout, got {other:?}"),
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let stats = client.stats().expect("stats");
        if stats["workers_reclaimed"].as_u64().unwrap_or(0) >= 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "the timed-out analysis never released its worker: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    // The reclaimed worker still serves requests.
    let report = client.analyze(SERVLET, &AnalyzeOpts::default()).expect("analyze after reclaim");
    assert_eq!(report["findings"].as_array().map(Vec::len), Some(1));
    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn admission_control_sheds_with_retry_hint_when_the_queue_is_full() {
    // One worker, one queue slot: job 1 runs, job 2 queues, job 3 must
    // be shed with `overloaded` — an O(1) rejection, not a hang.
    let options =
        ServeOptions { workers: 1, max_queue: 1, debug: true, ..ServeOptions::tcp_ephemeral() };
    let handle = serve(options).expect("server starts");
    let busy = spawn_sleeper(handle.addr(), 1200);
    std::thread::sleep(Duration::from_millis(150)); // job 1 picked up
    let queued = spawn_sleeper(handle.addr(), 300);
    std::thread::sleep(Duration::from_millis(150)); // job 2 sits in the queue

    // `request_raw` never retries: we must see the raw rejection.
    let mut probe = Client::connect(handle.addr()).expect("probe connects");
    let raw =
        probe.request_raw(r#"{"id":3,"cmd":"debug_sleep","ms":1}"#).expect("shed response arrives");
    assert_eq!(error_code(&raw), "overloaded");
    let v: Value = serde_json::from_str(&raw).unwrap();
    let hint = v["error"]["retry_after_ms"].as_u64().expect("retry_after_ms hint present");
    assert!((1..=1000).contains(&hint), "sane hint: {raw}");
    assert_eq!(v["id"].as_u64(), Some(3), "shed response echoes the request id");

    // The shed is visible in stats and metrics.
    let stats = probe.stats().expect("stats");
    assert_eq!(stats["requests_shed"].as_u64(), Some(1), "{stats:?}");
    assert_eq!(stats["max_queue"].as_u64(), Some(1), "{stats:?}");
    let metrics = probe.metrics().expect("metrics");
    assert!(metrics.contains("taj_requests_shed_total 1"), "{metrics}");
    assert!(metrics.contains("taj_queue_depth"), "{metrics}");
    assert!(metrics.contains("taj_max_queue 1"), "{metrics}");

    // A client with a patient retry policy rides out the overload: the
    // same logical request succeeds once the queue drains, because
    // `overloaded` is retryable and the hint floors the backoff.
    let mut patient = Client::connect(handle.addr())
        .expect("patient connects")
        .with_retry(RetryPolicy { max_attempts: 8, base_backoff_ms: 100, max_backoff_ms: 2_000 });
    let report =
        patient.analyze(SERVLET, &AnalyzeOpts::default()).expect("retry rides out the overload");
    assert_eq!(report["findings"].as_array().map(Vec::len), Some(1));

    busy.join().unwrap();
    queued.join().unwrap();
    probe.shutdown().unwrap();
    handle.join();
}

#[test]
fn strict_protocol_rejects_typoed_analyze_fields() {
    let (handle, mut client) = start_debug();
    // `sources` instead of `source`: must fail loudly, not analyze "".
    let raw = client.request_raw(r#"{"cmd":"analyze","sources":"class A {}"}"#).expect("responds");
    assert_eq!(error_code(&raw), "bad_request");
    // Mistyped value types are rejected too.
    let raw = client
        .request_raw(r#"{"cmd":"analyze","source":"class A {}","timeout_ms":"fast"}"#)
        .expect("responds");
    assert_eq!(error_code(&raw), "bad_request");
    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn empty_value_is_ignored_not_fatal() {
    let (handle, mut client) = start_debug();
    // Blank lines between requests are tolerated (keepalive-style).
    let raw = client.request_raw("\n{\"cmd\":\"stats\"}").expect("responds");
    let v: Value = serde_json::from_str(&raw).unwrap();
    assert_eq!(v["ok"].as_bool(), Some(true), "{raw}");
    client.shutdown().unwrap();
    handle.join();
}
