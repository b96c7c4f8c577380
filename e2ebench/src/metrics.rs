//! The metric catalogue and the result line. Every name here is listed,
//! with the same unit, in the repository's `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Metric-name keys of the seven configurations: their Table 1 names in
/// lower case, in Table 1 order.
pub const CONFIG_KEYS: [&str; 7] =
    ["hybrid-unbounded", "hybrid-prioritized", "hybrid-optimized", "cs", "ci", "cs-escape", "ifds"];

/// End-to-end metrics, reported by untraced runs of every workload.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> =
        CONFIG_KEYS.iter().map(|k| (format!("report_s.{k}"), "s")).collect();
    for (name, unit) in [
        ("latency_p50_ms", "ms"),
        ("latency_p90_ms", "ms"),
        ("success_rate", "fraction"),
        ("setup_s", "s"),
        ("peak_rss_mb", "MB"),
    ] {
        m.push((name.to_string(), unit));
    }
    m
}

/// Per-layer metrics, reported by traced runs. A layer a workload does
/// not exercise reports 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| m.push((name.to_string(), unit));
    for (name, unit) in [
        ("prepare.busy_s", "s"),
        ("prepare.parse_s", "s"),
        ("prepare.model_s", "s"),
        ("prepare.ssa_s", "s"),
        ("prepare.methods", "count"),
        ("prepare.mb_per_s", "MB/s"),
        ("phase1.busy_s", "s"),
        ("phase1.solve_s", "s"),
        ("phase1.heapgraph_s", "s"),
        ("phase1.escape_s", "s"),
        ("phase1.mhp_s", "s"),
        ("phase1.cg_nodes", "count"),
        ("phase1.cg_edges", "count"),
        ("phase1.pointer_keys", "count"),
        ("phase1.instance_keys", "count"),
        ("phase1.steps", "count"),
        ("phase1.budget_hits", "count"),
    ] {
        add(name, unit);
    }
    for family in ["phase2.busy_s", "phase2.unit_s"] {
        for k in CONFIG_KEYS {
            add(&format!("{family}.{k}"), "s");
        }
    }
    for k in CONFIG_KEYS {
        add(&format!("phase2.slicer_work.{k}"), "count");
    }
    for (name, unit) in [
        ("phase2.specs_s", "s"),
        ("phase2.views_s", "s"),
        ("phase2.post_s", "s"),
        ("phase2.units", "count"),
        ("phase2.heap_transitions", "count"),
        ("phase2.summary_edges", "count"),
        ("phase2.ifds_facts", "count"),
        ("phase2.ifds_pops", "count"),
        ("phase2.view_loads", "count"),
        ("phase2.flows_per_kwork", "ratio"),
        ("phase2.findings_per_flow", "ratio"),
        ("prepare.exp", "exponent"),
        ("phase1.exp", "exponent"),
        ("phase2.views_exp", "exponent"),
    ] {
        add(name, unit);
    }
    for family in ["phase2.unit_exp", "phase2.work_exp"] {
        for k in CONFIG_KEYS {
            add(&format!("{family}.{k}"), "exponent");
        }
    }
    for (name, unit) in [
        ("render.busy_s", "s"),
        ("render.bytes", "bytes"),
        ("obs.overhead_frac", "fraction"),
        ("client.connect_ms_p50", "ms"),
        ("client.hit_ms_p50", "ms"),
        ("client.hit_ms_p99", "ms"),
        ("client.variant_ms_p50", "ms"),
        ("client.edit_ms_p50", "ms"),
        ("client.edit_ms_p99", "ms"),
        ("loadgen.late_ms_max", "ms"),
        ("loadgen.samples", "count"),
        ("router.elapsed_ms_p50", "ms"),
        ("router.outside_ms_p50", "ms"),
        ("router.forwarded", "count"),
        ("router.failovers", "count"),
        ("router.retried", "count"),
        ("server.queue_wait_ms_p99", "ms"),
        ("server.run_ms_p50", "ms"),
        ("server.cache_probe_ms_p50", "ms"),
        ("server.prepare_runs", "count"),
        ("server.phase1_runs", "count"),
        ("server.phase2_runs", "count"),
        ("server.shed", "count"),
        ("server.timeouts", "count"),
        ("cache.hit_ratio.report", "fraction"),
        ("cache.hit_ratio.phase1", "fraction"),
        ("cache.hit_ratio.prepared", "fraction"),
        ("cache.evictions", "count"),
        ("store.open_s", "s"),
        ("store.hit_ratio", "fraction"),
        ("store.entries", "count"),
        ("store.write_errors", "count"),
    ] {
        add(name, unit);
    }
    m
}

/// Measured values of one run, keyed by metric name.
pub type Values = BTreeMap<String, f64>;

/// What a workload run reports: verdict counts plus its measurements.
pub struct Outcome {
    /// Whether every output was checked and correct, and the run valid.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
}

/// Peak resident memory of this process in MB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time of the calling thread in seconds. Unlike wall time it leaves
/// out time the host gave to other tenants (steal) and time spent waiting
/// for a CPU, so one busy neighbour cannot move it by a factor of three.
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time of the whole process, every thread, in seconds.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

fn cpu_clock_s(clock: i32) -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// The result line: the catalogue's end-to-end metrics (`traced` off) or
/// per-layer metrics (`traced` on), in catalogue order. A metric the run
/// did not measure reads 0; non-finite values read 0 as well.
pub fn result_line(outcome: &Outcome, traced: bool) -> String {
    let catalogue = if traced { per_layer() } else { end_to_end() };
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct, outcome.attempted, outcome.failed
    );
    for (i, (name, unit)) in catalogue.iter().enumerate() {
        let value = outcome.values.get(name).copied().filter(|v| v.is_finite()).unwrap_or(0.0);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn listed(doc: &serde::Value, section: &str) -> Vec<(String, String)> {
        doc.get(section)
            .and_then(serde::Value::as_array)
            .expect("section present")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(serde::Value::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(catalogue: Vec<(String, &'static str)>) -> Vec<(String, String)> {
        catalogue.into_iter().map(|(n, u)| (n, u.to_string())).collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let doc = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        assert_eq!(listed(&doc, "end_to_end"), owned(end_to_end()));
        assert_eq!(listed(&doc, "per_layer"), owned(per_layer()));
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<String> =
            end_to_end().into_iter().chain(per_layer()).map(|(n, _)| n).collect();
        assert!(names
            .iter()
            .all(|n| n.len() <= 64
                && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))));
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(per_layer().len() <= 128);
    }

    #[test]
    fn cpu_clocks_count_work_not_sleep() {
        let t = thread_cpu_s();
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(thread_cpu_s() - t < 0.025);
        let t = thread_cpu_s();
        let mut x = 0u64;
        for i in 0..10_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(thread_cpu_s() > t);
        assert!(process_cpu_s() >= thread_cpu_s());
    }

    #[test]
    fn result_line_lists_every_metric() {
        let mut values = Values::new();
        values.insert("setup_s".to_string(), 1.25);
        values.insert("latency_p50_ms".to_string(), f64::NAN);
        let line = result_line(&Outcome { correct: true, attempted: 3, failed: 0, values }, false);
        let doc = serde_json::from_str(&line).expect("result line is JSON");
        let metrics = doc.get("metrics").expect("metrics");
        assert_eq!(
            metrics.get("setup_s").and_then(|m| m.get("value")).and_then(|v| v.as_f64()),
            Some(1.25)
        );
        assert_eq!(
            metrics.get("latency_p50_ms").and_then(|m| m.get("value")).and_then(|v| v.as_f64()),
            Some(0.0)
        );
        for (name, _) in end_to_end() {
            assert!(metrics.get(&name).is_some(), "{name}");
        }
    }
}
