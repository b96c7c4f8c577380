//! End-to-end cache semantics of the analysis daemon: repeat requests are
//! byte-identical and phase 1 runs exactly once per (source, rules,
//! call-graph settings) — the two-phase split of the paper (§1, §3)
//! turned into a serving-layer guarantee.

use serde::Value;
use taj::service::{serve, AnalyzeOpts, Client, ServeOptions};

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

fn stat(stats: &Value, key: &str) -> u64 {
    stats[key].as_u64().unwrap_or_else(|| panic!("stats missing `{key}`: {stats:?}"))
}

fn shutdown_and_join(mut client: Client, handle: taj::service::ServerHandle) {
    client.shutdown().expect("shutdown acknowledged");
    handle.join();
}

#[test]
fn repeat_request_is_byte_identical_with_one_phase1_run() {
    let (handle, mut client) = start(default_options());
    // Same id and trace id both times so the *entire* response line must
    // match (without a client-chosen trace_id the server mints a fresh
    // one per request, which lives in the envelope — not the cached
    // result bytes).
    let req = format!(
        "{{\"id\":1,\"cmd\":\"analyze\",\"source\":{},\"config\":\"hybrid\",\"trace_id\":\"t-1\"}}",
        serde_json::to_string(&Value::String(XSS_SERVLET.to_string())).unwrap()
    );
    let first = client.request_raw(&req).expect("first analyze");
    let second = client.request_raw(&req).expect("second analyze");
    assert_eq!(first, second, "cache hit must serve byte-identical bytes");
    assert!(first.contains("\"ok\":true"), "{first}");
    assert!(first.contains("\"trace_id\":\"t-1\""), "client trace id echoed: {first}");

    let stats = client.stats().expect("stats");
    assert_eq!(stat(&stats, "phase1_runs"), 1, "second request must not re-run phase 1");
    assert_eq!(stat(&stats, "prepare_runs"), 1);
    assert_eq!(stat(&stats, "phase2_runs"), 1, "report cache also skips phase 2");
    assert!(stat(&stats["cache"], "hits") >= 1, "{stats:?}");
    shutdown_and_join(client, handle);
}

#[test]
fn generated_trace_ids_are_unique_and_result_bytes_stay_cached() {
    let (handle, mut client) = start(default_options());
    let req = format!(
        "{{\"id\":1,\"cmd\":\"analyze\",\"source\":{},\"config\":\"hybrid\"}}",
        serde_json::to_string(&Value::String(XSS_SERVLET.to_string())).unwrap()
    );
    let first = client.request_raw(&req).expect("first analyze");
    let second = client.request_raw(&req).expect("second analyze");
    let fv: Value = serde_json::from_str(&first).unwrap();
    let sv: Value = serde_json::from_str(&second).unwrap();
    let ft = fv["trace_id"].as_str().expect("first trace id");
    let st = sv["trace_id"].as_str().expect("second trace id");
    assert_ne!(ft, st, "minted trace ids are per-request");
    assert_eq!(
        serde_json::to_string(&fv["result"]).unwrap(),
        serde_json::to_string(&sv["result"]).unwrap(),
        "trace ids live in the envelope; result bytes still come from cache"
    );
    let stats = client.stats().expect("stats");
    assert_eq!(stat(&stats, "phase1_runs"), 1, "cache hit despite differing trace ids");
    shutdown_and_join(client, handle);
}

#[test]
fn mixed_configs_share_one_phase1() {
    let (handle, mut client) = start(default_options());
    // hybrid, cs, ci all use unbounded, non-prioritized call-graph
    // settings — the same phase-1 validity domain — so three requests
    // must trigger exactly one phase-1 run.
    for config in ["hybrid", "cs", "ci"] {
        let opts = AnalyzeOpts { config: Some(config.to_string()), ..AnalyzeOpts::default() };
        let report = client.analyze(XSS_SERVLET, &opts).expect("analyze succeeds");
        assert_eq!(
            report["findings"].as_array().map(Vec::len),
            Some(1),
            "{config} finds the XSS: {report:?}"
        );
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stat(&stats, "phase1_runs"), 1, "N=3 mixed-config requests, one phase 1");
    assert_eq!(stat(&stats, "phase2_runs"), 3, "each config still runs its own phase 2");
    assert_eq!(stat(&stats, "prepare_runs"), 1);

    // A prioritized config has different call-graph settings: its phase-1
    // result lives under a different key (collision-free keying).
    let opts = AnalyzeOpts { config: Some("optimized".to_string()), ..AnalyzeOpts::default() };
    client.analyze(XSS_SERVLET, &opts).expect("optimized analyze");
    let stats = client.stats().expect("stats");
    assert_eq!(stat(&stats, "phase1_runs"), 2, "different cg settings → second phase-1 run");
    shutdown_and_join(client, handle);
}

#[test]
fn different_sources_and_formats_get_distinct_entries() {
    let (handle, mut client) = start(default_options());
    let opts = AnalyzeOpts::default();
    let a = client.analyze(XSS_SERVLET, &opts).expect("first source");
    let b = client.analyze(SAFE_SERVLET, &opts).expect("second source");
    assert_ne!(
        a["findings"].as_array().map(Vec::len),
        b["findings"].as_array().map(Vec::len),
        "distinct sources must not share cached results"
    );
    let stats = client.stats().expect("stats");
    assert_eq!(stat(&stats, "phase1_runs"), 2);
    assert_eq!(stat(&stats, "prepare_runs"), 2);

    // Same source, SARIF rendering: report-cache miss (different format
    // key) but phase-1 and prepared hits.
    let sarif_opts = AnalyzeOpts { sarif: true, ..AnalyzeOpts::default() };
    let sarif = client.analyze(XSS_SERVLET, &sarif_opts).expect("sarif analyze");
    assert_eq!(sarif["version"].as_str(), Some("2.1.0"), "{sarif:?}");
    let stats = client.stats().expect("stats");
    assert_eq!(stat(&stats, "phase1_runs"), 2, "format change must not re-run phase 1");
    shutdown_and_join(client, handle);
}

#[test]
fn eviction_under_tiny_budget_is_counted_and_recovered_from() {
    // A budget far below one artifact forces evictions on every insert;
    // correctness must not depend on the cache retaining anything.
    let (handle, mut client) =
        start(ServeOptions { cache_bytes: 64, workers: 1, ..ServeOptions::tcp_ephemeral() });
    let opts = AnalyzeOpts::default();
    let first = client.analyze(XSS_SERVLET, &opts).expect("first");
    let stats = client.stats().expect("stats");
    // Every artifact here dwarfs the 64-byte budget, so each insert
    // displaces everything else: only the newest entry (the report)
    // survives each analyze.
    assert!(stat(&stats["cache"], "evictions") >= 2, "tiny budget must evict: {stats:?}");
    assert_eq!(stat(&stats["cache"], "entries"), 1, "{stats:?}");

    // The surviving report still serves a repeat request...
    let again = client.analyze(XSS_SERVLET, &opts).expect("repeat");
    assert_eq!(serde_json::to_string(&first).unwrap(), serde_json::to_string(&again).unwrap());
    let stats = client.stats().expect("stats");
    assert_eq!(stat(&stats, "phase1_runs"), 1, "report hit: no rebuild yet");

    // ...but a different config displaces it and — with prepared and
    // phase-1 artifacts long evicted — must rebuild everything.
    let cs = AnalyzeOpts { config: Some("cs".to_string()), ..AnalyzeOpts::default() };
    client.analyze(XSS_SERVLET, &cs).expect("cs analyze");
    let stats = client.stats().expect("stats");
    assert_eq!(stat(&stats, "phase1_runs"), 2, "evicted phase 1 is rebuilt: {stats:?}");
    assert_eq!(stat(&stats, "prepare_runs"), 2);

    // And the original request, its report now displaced, rebuilds to the
    // same bytes.
    let rebuilt = client.analyze(XSS_SERVLET, &opts).expect("rebuilt");
    assert_eq!(
        serde_json::to_string(&first).unwrap(),
        serde_json::to_string(&rebuilt).unwrap(),
        "evicted artifacts rebuild deterministically"
    );
    let stats = client.stats().expect("stats");
    assert_eq!(stat(&stats, "phase1_runs"), 3, "{stats:?}");
    shutdown_and_join(client, handle);
}

#[test]
fn custom_rules_are_part_of_the_cache_key() {
    let (handle, mut client) = start(default_options());
    let report = client.analyze(XSS_SERVLET, &AnalyzeOpts::default()).expect("default rules");
    assert_eq!(report["findings"].as_array().map(Vec::len), Some(1));

    // An empty rule file (no rules at all) must not be served the default
    // rule set's cached report.
    let empty_rules = AnalyzeOpts { rules: Some(String::new()), ..AnalyzeOpts::default() };
    let quiet = client.analyze(XSS_SERVLET, &empty_rules).expect("empty rules analyze");
    assert_eq!(
        quiet["findings"].as_array().map(Vec::len),
        Some(0),
        "empty rule set finds nothing: {quiet:?}"
    );
    let stats = client.stats().expect("stats");
    assert_eq!(stat(&stats, "prepare_runs"), 2, "different rules → different prepared program");
    shutdown_and_join(client, handle);
}

#[test]
fn stats_split_cache_counters_per_tier() {
    let (handle, mut client) = start(default_options());
    let opts = AnalyzeOpts::default();
    client.analyze(XSS_SERVLET, &opts).expect("first");
    client.analyze(XSS_SERVLET, &opts).expect("repeat");
    let stats = client.stats().expect("stats");
    let tiers = &stats["cache_tiers"];
    let Value::Object(entries) = tiers else { panic!("cache_tiers is an object: {stats:?}") };
    let names: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(names, ["prepared", "phase1", "report"], "one tier per pipeline stage");
    // First request misses and populates all three tiers; the repeat is
    // answered by the report tier alone, so prepared/phase1 see no
    // second lookup at all.
    assert_eq!(stat(&tiers["report"], "hits"), 1, "{stats:?}");
    assert_eq!(stat(&tiers["report"], "misses"), 1, "{stats:?}");
    assert_eq!(stat(&tiers["prepared"], "misses"), 1);
    assert_eq!(stat(&tiers["prepared"], "hits"), 0);
    assert_eq!(stat(&tiers["phase1"], "misses"), 1);
    assert_eq!(stat(&tiers["phase1"], "hits"), 0);
    for tier in ["prepared", "phase1", "report"] {
        assert_eq!(stat(&tiers[tier], "entries"), 1, "{tier} holds its artifact");
        assert!(stat(&tiers[tier], "bytes_used") > 0, "{tier} accounts bytes");
    }
    // The aggregate `cache` object remains the sum of the tiers.
    for key in ["hits", "misses", "evictions"] {
        let sum: u64 = ["prepared", "phase1", "report"].iter().map(|t| stat(&tiers[*t], key)).sum();
        assert_eq!(stat(&stats["cache"], key), sum, "aggregate `{key}` equals tier sum");
    }
    shutdown_and_join(client, handle);
}

#[test]
fn metrics_exposition_is_well_formed_prometheus_text() {
    let (handle, mut client) = start(default_options());
    client.analyze(XSS_SERVLET, &AnalyzeOpts::default()).expect("analyze");
    let text = client.metrics().expect("metrics");
    assert!(text.contains("# TYPE taj_requests_total counter"), "{text}");
    assert!(text.contains("# TYPE taj_cache_hits_total counter"), "{text}");
    assert!(text.contains("taj_cache_hits_total{tier=\"phase1\"} 0"), "{text}");
    assert!(text.contains("taj_cache_misses_total{tier=\"report\"} 1"), "{text}");
    assert!(text.contains("taj_analyze_requests_total 1"), "{text}");
    assert!(text.contains("# TYPE taj_request_run_seconds histogram"), "{text}");
    assert!(text.contains("taj_request_run_seconds_count 1"), "{text}");
    assert!(text.contains("taj_request_queue_wait_seconds_bucket{le=\"+Inf\"} 1"), "{text}");
    // Every sample line is `name[{labels}] value` with a parseable value.
    for line in text.lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let (_, value) = line.rsplit_once(' ').expect("sample line has a value");
        assert!(value.parse::<f64>().is_ok(), "unparseable value in `{line}`");
    }
    shutdown_and_join(client, handle);
}

#[test]
fn configs_command_lists_all_seven() {
    let (handle, mut client) = start(default_options());
    let configs = client.configs().expect("configs");
    let items = configs.as_array().expect("array of configs");
    assert_eq!(items.len(), 7, "{configs:?}");
    let names: Vec<&str> = items.iter().filter_map(|c| c["name"].as_str()).collect();
    assert!(
        names.contains(&"Hybrid-Unbounded")
            && names.contains(&"CS-Escape")
            && names.contains(&"IFDS"),
        "{names:?}"
    );
    shutdown_and_join(client, handle);
}

/// The registration-agreement pin: every place configurations are
/// enumerated must list the same set, so an eighth configuration cannot
/// be half-registered. The four legs are (1) `TajConfig::all()` (the
/// canonical list — also what the `taj configs` CLI prints, which
/// iterates it directly), (2) `TajConfig::by_name` (the resolution path
/// of the CLI `--config` flag and the daemon protocol), (3) the daemon's
/// `configs` response over the wire, and (4) the `Phase1::matches`
/// validity domain (every registered config's phase-1 result must accept
/// itself, or the artifact cache would silently miss for it).
#[test]
fn config_registration_agrees_across_front_doors() {
    use taj::core::{prepare, run_phase1_traced, Recorder, RuleSet, Supervisor, TajConfig};

    let all_names: Vec<&str> = TajConfig::all().iter().map(|c| c.name).collect();

    // Leg 2: by_name round-trips every canonical name.
    for c in TajConfig::all() {
        let resolved = TajConfig::by_name(c.name)
            .unwrap_or_else(|| panic!("{} not resolvable by name", c.name));
        assert_eq!(resolved.name, c.name);
    }

    // Leg 3: the daemon lists exactly the canonical names, in order.
    let (handle, mut client) = start(default_options());
    let configs = client.configs().expect("configs");
    let daemon_names: Vec<&str> = configs
        .as_array()
        .expect("array of configs")
        .iter()
        .filter_map(|c| c["name"].as_str())
        .collect();
    assert_eq!(daemon_names, all_names, "daemon configs drift from TajConfig::all()");
    shutdown_and_join(client, handle);

    // Leg 4: each config's own phase-1 result passes its validity check.
    let prepared = prepare(XSS_SERVLET, None, RuleSet::default_rules()).expect("prepares");
    for config in TajConfig::all() {
        let phase1 =
            run_phase1_traced(&prepared, &config, &Supervisor::new(), &Recorder::disabled());
        assert!(phase1.matches(&config), "{}: phase-1 validity domain rejects it", config.name);
    }
}
