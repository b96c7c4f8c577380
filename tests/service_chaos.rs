//! Server-side chaos under `--features taj_failpoints`: the failpoint
//! sites in the daemon's I/O path must degrade into *errors*, never
//! into wrong or half-parsed answers, and a retrying client must heal
//! across them once the fault clears.

#![cfg(feature = "taj_failpoints")]

use std::time::Duration;

use taj::service::{serve, AnalyzeOpts, Client, ClientError, RetryPolicy, ServeOptions};
use taj::supervise::failpoints::{self, FailAction, FailScenario};

const SERVLET: &str = r#"
    class Page extends HttpServlet {
        method void doGet(HttpServletRequest req, HttpServletResponse resp) {
            String name = req.getParameter("name");
            resp.getWriter().println(name);
        }
    }
"#;

#[test]
fn torn_response_is_an_io_error_and_retry_heals_after_the_fault_clears() {
    let _scenario = FailScenario::setup();
    let options = ServeOptions { workers: 2, ..ServeOptions::tcp_ephemeral() };
    let handle = serve(options).expect("server starts");
    let mut client = Client::connect(handle.addr()).expect("client connects");
    client.set_retry(RetryPolicy::none());
    let opts = AnalyzeOpts::default();

    let healthy = client.analyze(SERVLET, &opts).expect("healthy request succeeds");

    // Every response is now cut in half mid-write and the connection
    // dropped. A non-retrying client must see I/O errors — the torn
    // prefix is valid-looking JSON text and must never be surfaced as
    // data.
    failpoints::configure("service.conn.write", FailAction::Cancel);
    match client.analyze(SERVLET, &opts) {
        Err(ClientError::Io(_)) => {}
        other => panic!("torn response must surface as ClientError::Io, got {other:?}"),
    }
    assert!(failpoints::hits("service.conn.write") >= 1, "the write failpoint must have fired");

    // With the fault armed, retries only burn attempts: the same torn
    // line greets every reconnect.
    client.set_retry(RetryPolicy { max_attempts: 3, base_backoff_ms: 1, max_backoff_ms: 5 });
    match client.analyze(SERVLET, &opts) {
        Err(ClientError::Io(_)) => {}
        other => panic!("persistent fault must exhaust retries with Io, got {other:?}"),
    }

    // Fault clears: the first attempt rides the dead stream and fails,
    // the retry reconnects and lands the same answer as before the
    // chaos.
    failpoints::remove("service.conn.write");
    let healed = client.analyze(SERVLET, &opts).expect("retry reconnects once the fault clears");
    assert_eq!(
        healed["findings"], healthy["findings"],
        "the healed answer must match the pre-fault answer"
    );

    let mut closer = Client::connect(handle.addr()).expect("connect for shutdown");
    let _ = closer.shutdown();
    handle.join();
}

#[test]
fn accept_stall_slows_new_connections_but_established_ones_keep_answering() {
    let _scenario = FailScenario::setup();
    let options = ServeOptions { workers: 2, ..ServeOptions::tcp_ephemeral() };
    let handle = serve(options).expect("server starts");
    let mut established = Client::connect(handle.addr()).expect("client connects");

    // Stall the accept loop. Connections already handed to their own
    // threads are unaffected; only new arrivals queue behind the stall.
    failpoints::configure("service.accept.stall", FailAction::Delay(100));
    std::thread::sleep(Duration::from_millis(20));
    let stats = established.stats().expect("established connection still answers");
    assert!(stats["requests"].as_u64().is_some(), "stats payload intact under stall: {stats:?}");

    // A new connection still gets through — delayed, not refused.
    let mut late = Client::connect(handle.addr()).expect("new connection accepted despite stall");
    late.set_io_timeout(Some(Duration::from_secs(5))).expect("timeout set");
    late.stats().expect("late connection serves requests");
    assert!(failpoints::hits("service.accept.stall") >= 1, "the stall failpoint must have fired");

    failpoints::remove("service.accept.stall");
    let _ = established.shutdown();
    handle.join();
}
