//! `taj` — command-line front door to the analysis.
//!
//! ```text
//! taj analyze <file.jweb> [--config NAME] [--json] [--flows] [--concurrency] [--ir]
//!             [--deadline-ms N] [--degrade] [--threads N] [--profile] [--trace-out FILE]
//! taj configs
//! taj demo
//! taj serve [--socket PATH | --tcp ADDR] [--workers N] [--cache-mb N] [--timeout-ms N]
//!           [--store-dir DIR] [--store-mb N] [--max-queue N] [--flight-records N] [--slow-ms N]
//! taj router (--socket PATH | --tcp ADDR) --shard ADDR [--shard ADDR ...] [--timeout-ms N]
//!            [--failure-threshold N] [--cooldown-ms N] [--flight-records N] [--trace-out FILE]
//! taj client (--socket PATH | --tcp ADDR) analyze <file.jweb> [--config NAME] [--sarif]
//!            [--timeout-ms N] [--degrade] [--threads N] [--trace-id ID]
//! taj client (--socket PATH | --tcp ADDR) analyze --batch <file.jweb> [<file.jweb> ...]
//! taj client (--socket PATH | --tcp ADDR) trace <trace-id> [--trace-out FILE]
//! taj client (--socket PATH | --tcp ADDR) last-traces [--limit N]
//! taj client (--socket PATH | --tcp ADDR) configs|stats|metrics|shutdown
//! ```
//!
//! Argument handling is strict: unknown `--flags` are rejected with an
//! error instead of silently ignored, matching the daemon protocol's
//! strictness (a typo must fail loudly, not change semantics).

use std::process::ExitCode;

use std::time::Duration;

use taj::core::{analyze_source_opts, RuleSet, RunOptions, Supervisor, TajConfig, TajError};
use taj::obs::Recorder;
use taj::service::{AnalyzeOpts, Bind, Client, RouterOptions, RouterTuning, ServeOptions};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("analyze") => analyze_cmd(&args[1..]),
        Some("configs") => match parse_args(&args[1..], &[], 0) {
            Ok(_) => {
                for c in TajConfig::all() {
                    println!("{:<20} {:?}", c.name, c.algorithm);
                }
                ExitCode::SUCCESS
            }
            Err(e) => usage_error(&e),
        },
        Some("demo") => match parse_args(&args[1..], &[], 0) {
            Ok(_) => {
                let demo = taj::webgen::motivating();
                run_analysis(
                    &demo.source,
                    RuleSet::default_rules(),
                    &TajConfig::hybrid_unbounded(),
                    &OutputOpts { flows: true, ..OutputOpts::default() },
                    &RunOptions::default(),
                )
            }
            Err(e) => usage_error(&e),
        },
        Some("serve") => serve_cmd(&args[1..]),
        Some("router") => router_cmd(&args[1..]),
        Some("client") => client_cmd(&args[1..]),
        _ => {
            eprintln!(
                "usage: taj analyze <file.jweb> [--config NAME] [--rules FILE] [--json] [--sarif] [--flows] [--concurrency] [--ir] [--deadline-ms N] [--degrade] [--threads N] [--profile] [--trace-out FILE]"
            );
            eprintln!("       taj configs          list configuration names");
            eprintln!("       taj demo             analyze the paper's Figure 1 program");
            eprintln!(
                "       taj serve [--socket PATH | --tcp ADDR] [--workers N] [--cache-mb N] [--timeout-ms N] [--store-dir DIR] [--store-mb N] [--max-queue N] [--flight-records N] [--slow-ms N] [--debug]"
            );
            eprintln!(
                "       taj router (--socket PATH | --tcp ADDR) --shard ADDR [--shard ADDR ...] [--timeout-ms N] [--failure-threshold N] [--cooldown-ms N] [--flight-records N] [--trace-out FILE]"
            );
            eprintln!(
                "       taj client (--socket PATH | --tcp ADDR) analyze <file.jweb> [--config NAME] [--rules FILE] [--sarif] [--timeout-ms N] [--degrade] [--threads N] [--trace-id ID]"
            );
            eprintln!(
                "       taj client (--socket PATH | --tcp ADDR) analyze --batch <file.jweb> [<file.jweb> ...]"
            );
            eprintln!(
                "       taj client (--socket PATH | --tcp ADDR) trace <trace-id> [--trace-out FILE]"
            );
            eprintln!("       taj client (--socket PATH | --tcp ADDR) last-traces [--limit N]");
            eprintln!(
                "       taj client (--socket PATH | --tcp ADDR) configs|stats|metrics|shutdown"
            );
            ExitCode::FAILURE
        }
    }
}

/// One accepted flag: its name and whether it consumes a value.
struct FlagSpec {
    name: &'static str,
    takes_value: bool,
}

const fn flag(name: &'static str) -> FlagSpec {
    FlagSpec { name, takes_value: false }
}

const fn opt(name: &'static str) -> FlagSpec {
    FlagSpec { name, takes_value: true }
}

/// Parsed command line: positionals in order, plus flag lookups.
#[derive(Debug)]
struct Parsed {
    positionals: Vec<String>,
    present: Vec<&'static str>,
    values: Vec<(&'static str, String)>,
}

impl Parsed {
    fn has(&self, name: &str) -> bool {
        self.present.contains(&name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.values.iter().find(|(n, _)| *n == name).map(|(_, v)| v.as_str())
    }

    /// Every occurrence of a repeatable value flag, in order (e.g. the
    /// router's `--shard A --shard B`).
    fn values(&self, name: &str) -> Vec<&str> {
        self.values.iter().filter(|(n, _)| *n == name).map(|(_, v)| v.as_str()).collect()
    }
}

/// Strict parse: every `--flag` must be in `spec` (unknown flags are
/// errors, not no-ops), value flags must have a value, and at most
/// `max_positionals` bare arguments are accepted.
fn parse_args(
    args: &[String],
    spec: &[FlagSpec],
    max_positionals: usize,
) -> Result<Parsed, String> {
    let mut parsed = Parsed { positionals: Vec::new(), present: Vec::new(), values: Vec::new() };
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(stripped) = a.strip_prefix("--") {
            let (name, inline) = match stripped.split_once('=') {
                Some((n, v)) => (n, Some(v.to_string())),
                None => (stripped, None),
            };
            let Some(s) = spec.iter().find(|s| s.name == name) else {
                return Err(format!("unknown flag `--{name}`"));
            };
            if s.takes_value {
                let value = match inline {
                    Some(v) => v,
                    None => {
                        i += 1;
                        args.get(i)
                            .filter(|v| !v.starts_with("--"))
                            .cloned()
                            .ok_or_else(|| format!("flag `--{name}` requires a value"))?
                    }
                };
                parsed.values.push((s.name, value));
            } else {
                if inline.is_some() {
                    return Err(format!("flag `--{name}` takes no value"));
                }
                parsed.present.push(s.name);
            }
        } else {
            if parsed.positionals.len() >= max_positionals {
                return Err(format!("unexpected argument `{a}`"));
            }
            parsed.positionals.push(a.clone());
        }
        i += 1;
    }
    Ok(parsed)
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("error: {message} (run `taj` for usage)");
    ExitCode::FAILURE
}

fn read_file(path: &str, what: &str) -> Result<String, ExitCode> {
    std::fs::read_to_string(path).map_err(|e| {
        eprintln!("error: cannot read {what} `{path}`: {e}");
        ExitCode::FAILURE
    })
}

fn load_rules(parsed: &Parsed) -> Result<RuleSet, ExitCode> {
    match parsed.value("rules") {
        Some(path) => {
            let text = read_file(path, "rules file")?;
            taj::core::parse_rules(&text).map_err(|e| {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            })
        }
        None => Ok(RuleSet::default_rules()),
    }
}

fn analyze_cmd(args: &[String]) -> ExitCode {
    const SPEC: &[FlagSpec] = &[
        opt("config"),
        opt("rules"),
        flag("json"),
        flag("sarif"),
        flag("flows"),
        flag("concurrency"),
        flag("ir"),
        opt("deadline-ms"),
        flag("degrade"),
        opt("threads"),
        flag("profile"),
        opt("trace-out"),
    ];
    let parsed = match parse_args(args, SPEC, 1) {
        Ok(p) => p,
        Err(e) => return usage_error(&e),
    };
    let Some(path) = parsed.positionals.first() else {
        return usage_error("missing input file");
    };
    let source = match read_file(path, "input") {
        Ok(s) => s,
        Err(code) => return code,
    };
    let config_name = parsed.value("config").unwrap_or("hybrid");
    let Some(config) = TajConfig::by_name(config_name) else {
        eprintln!("error: unknown config `{config_name}` (see `taj configs`)");
        return ExitCode::FAILURE;
    };
    let rules = match load_rules(&parsed) {
        Ok(r) => r,
        Err(code) => return code,
    };
    let opts = OutputOpts {
        json: parsed.has("json"),
        sarif: parsed.has("sarif"),
        flows: parsed.has("flows"),
        concurrency: parsed.has("concurrency"),
        ir: parsed.has("ir"),
        profile: parsed.has("profile"),
        trace_out: parsed.value("trace-out").map(str::to_string),
    };
    let mut supervisor = Supervisor::new();
    if let Some(v) = parsed.value("deadline-ms") {
        match v.parse::<u64>() {
            Ok(ms) => supervisor = supervisor.with_deadline(Duration::from_millis(ms)),
            Err(_) => return usage_error("`--deadline-ms` must be a non-negative integer"),
        }
    }
    let threads = match parsed.value("threads") {
        Some(v) => match v.parse::<usize>() {
            Ok(n) => n,
            Err(_) => return usage_error("`--threads` must be a non-negative integer (0 = auto)"),
        },
        None => 0,
    };
    let recorder = if opts.profile || opts.trace_out.is_some() {
        Recorder::new()
    } else {
        Recorder::disabled()
    };
    let run = RunOptions { supervisor, degrade: parsed.has("degrade"), threads, recorder };
    run_analysis(&source, rules, &config, &opts, &run)
}

fn serve_cmd(args: &[String]) -> ExitCode {
    const SPEC: &[FlagSpec] = &[
        opt("socket"),
        opt("tcp"),
        opt("workers"),
        opt("cache-mb"),
        opt("timeout-ms"),
        opt("store-dir"),
        opt("store-mb"),
        opt("max-queue"),
        opt("flight-records"),
        opt("slow-ms"),
        flag("debug"),
    ];
    let parsed = match parse_args(args, SPEC, 0) {
        Ok(p) => p,
        Err(e) => return usage_error(&e),
    };
    let bind = match (parsed.value("socket"), parsed.value("tcp")) {
        (Some(_), Some(_)) => return usage_error("`--socket` and `--tcp` are mutually exclusive"),
        (Some(path), None) => Bind::Unix(path.into()),
        (None, Some(addr)) => Bind::Tcp(addr.to_string()),
        (None, None) => Bind::Tcp("127.0.0.1:7411".to_string()),
    };
    let workers = match parse_num(&parsed, "workers", 0) {
        Ok(n) => n as usize,
        Err(code) => return code,
    };
    let cache_mb = match parse_num(&parsed, "cache-mb", 64) {
        Ok(n) => n,
        Err(code) => return code,
    };
    let store_mb = match parse_num(&parsed, "store-mb", 256) {
        Ok(n) => n,
        Err(code) => return code,
    };
    let timeout_ms = match parsed.value("timeout-ms") {
        Some(v) => match v.parse::<u64>() {
            Ok(n) => Some(n),
            Err(_) => return usage_error("`--timeout-ms` must be a non-negative integer"),
        },
        None => None,
    };
    let max_queue = match parse_num(&parsed, "max-queue", 0) {
        Ok(n) => n as usize,
        Err(code) => return code,
    };
    let flight_records =
        match parse_num(&parsed, "flight-records", taj::service::DEFAULT_FLIGHT_RECORDS as u64) {
            Ok(n) => n as usize,
            Err(code) => return code,
        };
    let slow_ms = match parsed.value("slow-ms") {
        Some(v) => match v.parse::<u64>() {
            Ok(n) => Some(n),
            Err(_) => return usage_error("`--slow-ms` must be a non-negative integer"),
        },
        None => None,
    };
    let options = ServeOptions {
        bind,
        workers,
        cache_bytes: (cache_mb as usize) << 20,
        default_timeout_ms: timeout_ms,
        debug: parsed.has("debug"),
        store_dir: parsed.value("store-dir").map(std::path::PathBuf::from),
        store_bytes: store_mb << 20,
        max_queue,
        flight_records,
        slow_ms,
    };
    match taj::service::serve(options) {
        Ok(handle) => {
            println!("taj-service listening on {}", handle.addr());
            handle.join(); // runs until a `shutdown` request drains the pool
            println!("taj-service stopped");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: cannot start server: {e}");
            ExitCode::FAILURE
        }
    }
}

fn router_cmd(args: &[String]) -> ExitCode {
    const SPEC: &[FlagSpec] = &[
        opt("socket"),
        opt("tcp"),
        opt("shard"),
        opt("timeout-ms"),
        opt("failure-threshold"),
        opt("cooldown-ms"),
        opt("flight-records"),
        opt("trace-out"),
    ];
    let parsed = match parse_args(args, SPEC, 0) {
        Ok(p) => p,
        Err(e) => return usage_error(&e),
    };
    let bind = match (parsed.value("socket"), parsed.value("tcp")) {
        (Some(_), Some(_)) => return usage_error("`--socket` and `--tcp` are mutually exclusive"),
        (Some(path), None) => Bind::Unix(path.into()),
        (None, Some(addr)) => Bind::Tcp(addr.to_string()),
        (None, None) => Bind::Tcp("127.0.0.1:7410".to_string()),
    };
    let shards: Vec<String> = parsed.values("shard").into_iter().map(str::to_string).collect();
    if shards.is_empty() {
        return usage_error("`taj router` needs at least one `--shard ADDR`");
    }
    let timeout_ms = match parsed.value("timeout-ms") {
        Some(v) => match v.parse::<u64>() {
            Ok(n) => Some(n),
            Err(_) => return usage_error("`--timeout-ms` must be a non-negative integer"),
        },
        None => None,
    };
    let mut tuning = RouterTuning::default();
    match parse_num(&parsed, "failure-threshold", u64::from(tuning.failure_threshold)) {
        Ok(n) => tuning.failure_threshold = n.max(1).min(u64::from(u32::MAX)) as u32,
        Err(code) => return code,
    }
    match parse_num(&parsed, "cooldown-ms", tuning.cooldown_ms) {
        Ok(n) => tuning.cooldown_ms = n,
        Err(code) => return code,
    }
    let flight_records =
        match parse_num(&parsed, "flight-records", taj::service::DEFAULT_FLIGHT_RECORDS as u64) {
            Ok(n) => n as usize,
            Err(code) => return code,
        };
    let options = RouterOptions {
        bind,
        shards,
        default_timeout_ms: timeout_ms,
        tuning,
        flight_records,
        trace_out: parsed.value("trace-out").map(std::path::PathBuf::from),
    };
    match taj::service::route(options) {
        Ok(handle) => {
            println!("taj-router listening on {}", handle.addr());
            handle.join(); // runs until a `shutdown` request
            println!("taj-router stopped");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: cannot start router: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parse_num(parsed: &Parsed, name: &str, default: u64) -> Result<u64, ExitCode> {
    match parsed.value(name) {
        Some(v) => v.parse::<u64>().map_err(|_| {
            eprintln!("error: `--{name}` must be a non-negative integer (run `taj` for usage)");
            ExitCode::FAILURE
        }),
        None => Ok(default),
    }
}

fn client_cmd(args: &[String]) -> ExitCode {
    const SPEC: &[FlagSpec] = &[
        opt("socket"),
        opt("tcp"),
        opt("config"),
        opt("rules"),
        flag("sarif"),
        opt("timeout-ms"),
        flag("degrade"),
        opt("threads"),
        flag("batch"),
        opt("limit"),
        opt("trace-out"),
        opt("trace-id"),
    ];
    // `analyze --batch` takes many input files; every other command is
    // validated to its own arity below.
    let parsed = match parse_args(args, SPEC, 1 + taj::service::MAX_BATCH_ITEMS) {
        Ok(p) => p,
        Err(e) => return usage_error(&e),
    };
    let mut client = match (parsed.value("socket"), parsed.value("tcp")) {
        (Some(_), Some(_)) => return usage_error("`--socket` and `--tcp` are mutually exclusive"),
        (Some(path), None) => match Client::connect_unix(std::path::Path::new(path)) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("error: cannot connect to `{path}`: {e}");
                return ExitCode::FAILURE;
            }
        },
        (None, Some(addr)) => match Client::connect_tcp(addr) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("error: cannot connect to `{addr}`: {e}");
                return ExitCode::FAILURE;
            }
        },
        (None, None) => return usage_error("`taj client` needs `--socket PATH` or `--tcp ADDR`"),
    };
    if !matches!(parsed.positionals.first().map(String::as_str), Some("analyze" | "trace"))
        && parsed.positionals.len() > 1
    {
        return usage_error("only `taj client analyze` and `taj client trace` take arguments");
    }
    let result = match parsed.positionals.first().map(String::as_str) {
        Some("analyze") => {
            let Some(path) = parsed.positionals.get(1) else {
                return usage_error("missing input file for `taj client analyze`");
            };
            let rules = match parsed.value("rules") {
                Some(p) => match read_file(p, "rules file") {
                    Ok(t) => Some(t),
                    Err(code) => return code,
                },
                None => None,
            };
            let timeout_ms = match parsed.value("timeout-ms") {
                Some(v) => match v.parse::<u64>() {
                    Ok(n) => Some(n),
                    Err(_) => return usage_error("`--timeout-ms` must be a non-negative integer"),
                },
                None => None,
            };
            let threads = match parsed.value("threads") {
                Some(v) => match v.parse::<u64>() {
                    Ok(n) => Some(n),
                    Err(_) => {
                        return usage_error("`--threads` must be a non-negative integer (0 = auto)")
                    }
                },
                None => None,
            };
            let opts = AnalyzeOpts {
                config: parsed.value("config").map(str::to_string),
                rules,
                sarif: parsed.has("sarif"),
                timeout_ms: if parsed.has("batch") { None } else { timeout_ms },
                degrade: parsed.has("degrade"),
                threads,
                trace_id: parsed.value("trace-id").map(str::to_string),
            };
            if parsed.has("batch") {
                // One envelope, one response: every input file becomes an
                // item sharing the command-line options; `--timeout-ms`
                // becomes the envelope-wide deadline.
                let mut items = Vec::new();
                for path in &parsed.positionals[1..] {
                    match read_file(path, "input") {
                        Ok(source) => items.push((source, opts.clone())),
                        Err(code) => return code,
                    }
                }
                return match client.batch(&items, timeout_ms) {
                    Ok(value) => {
                        match serde_json::to_string_pretty(&value) {
                            Ok(s) => println!("{s}"),
                            Err(e) => {
                                eprintln!("error: cannot render response: {e}");
                                return ExitCode::FAILURE;
                            }
                        }
                        batch_exit_code(&value)
                    }
                    Err(e) => {
                        eprintln!("error: {e}");
                        ExitCode::FAILURE
                    }
                };
            }
            if parsed.positionals.len() > 2 {
                return usage_error(
                    "multiple input files need `--batch` (taj client analyze --batch f1 f2 ...)",
                );
            }
            let source = match read_file(path, "input") {
                Ok(s) => s,
                Err(code) => return code,
            };
            client.analyze(&source, &opts)
        }
        Some("trace") => {
            let Some(trace_id) = parsed.positionals.get(1) else {
                return usage_error("missing trace id for `taj client trace`");
            };
            if parsed.positionals.len() > 2 {
                return usage_error("`taj client trace` takes exactly one trace id");
            }
            return match client.trace(trace_id) {
                Ok(result) => {
                    // Stitch the per-process fragments into one Chrome
                    // trace so the output opens directly in Perfetto.
                    let stitched =
                        taj::service::stitch_fragments(&taj::service::fragments_of(&result));
                    match parsed.value("trace-out") {
                        Some(path) => match std::fs::write(path, &stitched) {
                            Ok(()) => {
                                eprintln!(
                                    "stitched trace written to {path} (open with https://ui.perfetto.dev)"
                                );
                                ExitCode::SUCCESS
                            }
                            Err(e) => {
                                eprintln!("error: cannot write trace `{path}`: {e}");
                                ExitCode::FAILURE
                            }
                        },
                        None => {
                            println!("{stitched}");
                            ExitCode::SUCCESS
                        }
                    }
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Some("last-traces") => {
            let limit = match parsed.value("limit") {
                Some(v) => match v.parse::<u64>() {
                    Ok(n) => Some(n),
                    Err(_) => return usage_error("`--limit` must be a non-negative integer"),
                },
                None => None,
            };
            client.last_traces(limit)
        }
        Some("configs") => client.configs(),
        Some("stats") => client.stats(),
        Some("metrics") => {
            // Prometheus text exposition: print verbatim, not JSON-wrapped.
            return match client.metrics() {
                Ok(text) => {
                    print!("{text}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Some("shutdown") => client.shutdown(),
        Some(other) => return usage_error(&format!("unknown client command `{other}`")),
        None => {
            return usage_error(
                "missing client command (analyze|configs|stats|metrics|trace|last-traces|shutdown)",
            )
        }
    };
    match result {
        Ok(value) => {
            match serde_json::to_string_pretty(&value) {
                Ok(s) => println!("{s}"),
                Err(e) => {
                    eprintln!("error: cannot render response: {e}");
                    return ExitCode::FAILURE;
                }
            }
            // CI-friendly: nonempty findings in an analyze report exit 2,
            // like the one-shot `taj analyze`.
            match value.get("findings").and_then(|f| f.as_array()) {
                Some(findings) if !findings.is_empty() => ExitCode::from(2),
                _ => ExitCode::SUCCESS,
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Exit code for a batch response: 2 when any item's report carries
/// findings (mirroring single `analyze`), 1 when any item failed, 0
/// otherwise.
fn batch_exit_code(value: &serde::Value) -> ExitCode {
    let Some(serde::Value::Array(items)) = value.get("items") else {
        return ExitCode::FAILURE;
    };
    let mut findings = false;
    for item in items {
        if item.get("ok").and_then(serde::Value::as_bool) != Some(true) {
            return ExitCode::FAILURE;
        }
        if let Some(f) = item.get("result").and_then(|r| r.get("findings")) {
            if f.as_array().is_some_and(|a| !a.is_empty()) {
                findings = true;
            }
        }
    }
    if findings {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}

/// Output selection for `run_analysis`.
#[derive(Default)]
struct OutputOpts {
    json: bool,
    sarif: bool,
    flows: bool,
    concurrency: bool,
    ir: bool,
    profile: bool,
    trace_out: Option<String>,
}

/// Writes the recorder's Chrome `trace_event` JSON to `path`.
/// Runs even when the analysis degraded or aborted: whatever spans were
/// recorded up to the failure are still worth inspecting in Perfetto.
fn write_trace(path: &str, recorder: &Recorder) -> ExitCode {
    match std::fs::write(path, recorder.chrome_trace()) {
        Ok(()) => {
            eprintln!("trace written to {path} (open with https://ui.perfetto.dev)");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: cannot write trace `{path}`: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_analysis(
    source: &str,
    rules: RuleSet,
    config: &TajConfig,
    opts: &OutputOpts,
    run: &RunOptions,
) -> ExitCode {
    let OutputOpts { json, sarif, flows, concurrency, ir, profile, .. } = *opts;
    if ir {
        match jir::frontend::build_program(source) {
            Ok(program) => print!("{}", jir::pretty::program_to_string(&program)),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let result = analyze_source_opts(source, None, rules, config, run);
    // Trace output is useful even for aborted runs (the spans recorded up
    // to the failure are flushed by `Span::drop`), so write it first.
    if let Some(path) = &opts.trace_out {
        let code = write_trace(path, &run.recorder);
        if code != ExitCode::SUCCESS {
            return code;
        }
    }
    match result {
        Ok(report) => {
            if sarif {
                match taj::core::to_sarif(&report) {
                    Ok(s) => println!("{s}"),
                    Err(e) => {
                        eprintln!("error: SARIF serialization failed: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            } else if json {
                match serde_json::to_string_pretty(&report) {
                    Ok(s) => println!("{s}"),
                    Err(e) => {
                        eprintln!("error: serialization failed: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            } else {
                println!(
                    "{}: {} issue(s), {} raw flow(s)",
                    report.config,
                    report.issue_count(),
                    report.flows.len()
                );
                for f in &report.findings {
                    println!(
                        "  [{:>13}] {} → {}  in {} (×{})",
                        f.flow.issue.to_string(),
                        f.flow.source_method,
                        f.flow.sink_method,
                        f.flow.sink_owner_class,
                        f.group_size
                    );
                }
                if flows {
                    println!("\nraw flows:");
                    for fl in &report.flows {
                        println!(
                            "  [{:>13}] {} → {} in {} (len {}, {} heap hops)",
                            fl.issue.to_string(),
                            fl.source_method,
                            fl.sink_method,
                            fl.sink_owner_class,
                            fl.flow_len,
                            fl.heap_transitions
                        );
                    }
                }
                if concurrency {
                    println!();
                    print!("{}", taj::core::concurrency_text(&report));
                }
                if report.degradation.degraded {
                    println!("\nDEGRADED run:");
                    for step in &report.degradation.steps {
                        println!(
                            "  [{}] {} -> {} ({})",
                            step.stage, step.from, step.to, step.reason
                        );
                        println!("    caveat: {}", step.caveat);
                    }
                }
            }
            if profile {
                // stderr, so `--json`/`--sarif` stdout stays machine-parseable.
                eprint!("{}", taj::core::profile_text(&report, &run.recorder));
            }
            if report.issue_count() > 0 {
                ExitCode::from(2) // findings present: CI-friendly exit code
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(TajError::Parse(e)) => {
            eprintln!("parse error: {e}");
            ExitCode::FAILURE
        }
        Err(TajError::OutOfMemory { path_edges }) => {
            eprintln!("analysis ran out of memory budget ({path_edges} path edges)");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    const ANALYZE_SPEC: &[FlagSpec] = &[opt("config"), opt("rules"), flag("json"), flag("flows")];

    #[test]
    fn unknown_flags_are_rejected_not_ignored() {
        let e = parse_args(&argv(&["file.jweb", "--jsno"]), ANALYZE_SPEC, 1).unwrap_err();
        assert!(e.contains("--jsno"), "{e}");
        let e = parse_args(&argv(&["--config"]), ANALYZE_SPEC, 0).unwrap_err();
        assert!(e.contains("requires a value"), "{e}");
        let e = parse_args(&argv(&["a", "b"]), ANALYZE_SPEC, 1).unwrap_err();
        assert!(e.contains("unexpected argument"), "{e}");
        let e = parse_args(&argv(&["--json=yes"]), ANALYZE_SPEC, 0).unwrap_err();
        assert!(e.contains("takes no value"), "{e}");
    }

    #[test]
    fn known_flags_parse() {
        let p = parse_args(
            &argv(&["file.jweb", "--config", "cs", "--json", "--flows"]),
            ANALYZE_SPEC,
            1,
        )
        .unwrap();
        assert_eq!(p.positionals, vec!["file.jweb"]);
        assert_eq!(p.value("config"), Some("cs"));
        assert!(p.has("json") && p.has("flows"));
        assert!(!p.has("ir"));
        let p = parse_args(&argv(&["--config=ci"]), ANALYZE_SPEC, 0).unwrap();
        assert_eq!(p.value("config"), Some("ci"));
    }

    #[test]
    fn value_flag_will_not_eat_a_flag() {
        // `--config --json` must fail, not treat `--json` as the value.
        let e = parse_args(&argv(&["--config", "--json"]), ANALYZE_SPEC, 0).unwrap_err();
        assert!(e.contains("requires a value"), "{e}");
    }
}
