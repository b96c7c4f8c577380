//! Report rendering: plain text and SARIF 2.1.0 (the interchange format
//! consumed by modern code-scanning UIs — TAJ's commercial descendant,
//! AppScan Source, speaks it too).

use serde::Serialize;

use taj_obs::Recorder;

use crate::driver::TajReport;
use crate::rules::IssueType;

/// Renders the `--profile` per-phase breakdown: a headline with the
/// recorder's `phase1`/`phase2` span totals, followed by its per-span
/// aggregation — one line per span name with call count, total
/// milliseconds, and summed numeric attributes.
pub fn profile_text(report: &TajReport, recorder: &Recorder) -> String {
    use std::fmt::Write as _;
    let rows = recorder.aggregate();
    let ms = |name: &str| {
        rows.iter().find(|r| r.name == name).map_or(0.0, |r| r.total_us as f64 / 1000.0)
    };
    let (phase1, phase2) = (ms("phase1"), ms("phase2"));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "profile: {} — phase1 {phase1:.3} ms, phase2 {phase2:.3} ms, total {:.3} ms",
        report.config,
        phase1 + phase2
    );
    out.push_str(&recorder.profile_text());
    out
}

/// Renders a human-readable multi-line summary of a report.
pub fn to_text(report: &TajReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}: {} issue(s) from {} raw flow(s)",
        report.config,
        report.issue_count(),
        report.flows.len()
    );
    for f in &report.findings {
        let _ = writeln!(
            out,
            "  [{}] {} -> {} in {} (LCP in {}, {} flow(s))",
            f.flow.issue,
            f.flow.source_method,
            f.flow.sink_method,
            f.flow.sink_owner_class,
            f.lcp_owner_class,
            f.group_size
        );
    }
    if report.degradation.degraded {
        let _ = writeln!(out, "  DEGRADED run:");
        for s in &report.degradation.steps {
            let _ = writeln!(out, "    [{}] {} -> {} ({})", s.stage, s.from, s.to, s.reason);
            let _ = writeln!(out, "      caveat: {}", s.caveat);
        }
    }
    out
}

/// Renders the concurrency section: escape/MHP statistics and the
/// cross-thread taint flows (the `--concurrency` report section).
pub fn concurrency_text(report: &TajReport) -> String {
    use std::fmt::Write as _;
    let c = &report.concurrency;
    let mut out = String::new();
    let _ = writeln!(out, "concurrency ({}):", report.config);
    let _ = writeln!(
        out,
        "  {} spawn site(s); {}/{} object(s) escape; {} call-graph node(s) may run in parallel",
        c.spawn_sites, c.escaping_objects, c.total_objects, c.parallel_nodes
    );
    if c.cross_thread_edges_dropped > 0 {
        let _ = writeln!(
            out,
            "  {} impossible cross-thread store->load edge(s) dropped",
            c.cross_thread_edges_dropped
        );
    }
    if c.cross_thread_flows.is_empty() {
        let _ = writeln!(out, "  no cross-thread taint flows");
    } else {
        let _ = writeln!(
            out,
            "  {} cross-thread taint flow(s) through escaping objects:",
            c.cross_thread_flows.len()
        );
        for f in &c.cross_thread_flows {
            let _ = writeln!(
                out,
                "    [{}] {} -> {} in {} ({} heap transition(s))",
                f.issue, f.source_method, f.sink_method, f.sink_owner_class, f.heap_transitions
            );
        }
    }
    out
}

/// SARIF rule metadata for an issue type.
fn rule_id(issue: IssueType) -> &'static str {
    match issue {
        IssueType::Xss => "taj/xss",
        IssueType::Sqli => "taj/sql-injection",
        IssueType::CommandInjection => "taj/command-injection",
        IssueType::MaliciousFile => "taj/malicious-file",
        IssueType::InfoLeak => "taj/information-leak",
    }
}

#[derive(Serialize)]
struct Sarif {
    #[serde(rename = "$schema")]
    schema: &'static str,
    version: &'static str,
    runs: Vec<SarifRun>,
}

#[derive(Serialize)]
struct SarifRun {
    tool: SarifTool,
    results: Vec<SarifResult>,
    properties: SarifProperties,
}

#[derive(Serialize)]
struct SarifProperties {
    concurrency: SarifConcurrency,
    degradation: crate::driver::DegradationReport,
}

#[derive(Serialize)]
struct SarifConcurrency {
    #[serde(rename = "spawnSites")]
    spawn_sites: usize,
    #[serde(rename = "escapingObjects")]
    escaping_objects: usize,
    #[serde(rename = "totalObjects")]
    total_objects: usize,
    #[serde(rename = "parallelNodes")]
    parallel_nodes: usize,
    #[serde(rename = "crossThreadEdgesDropped")]
    cross_thread_edges_dropped: usize,
    #[serde(rename = "crossThreadFlows")]
    cross_thread_flows: Vec<String>,
}

#[derive(Serialize)]
struct SarifTool {
    driver: SarifDriver,
}

#[derive(Serialize)]
struct SarifDriver {
    name: &'static str,
    #[serde(rename = "informationUri")]
    information_uri: &'static str,
    version: &'static str,
    rules: Vec<SarifRule>,
}

#[derive(Serialize)]
struct SarifRule {
    id: &'static str,
    name: String,
}

#[derive(Serialize)]
struct SarifResult {
    #[serde(rename = "ruleId")]
    rule_id: &'static str,
    level: &'static str,
    message: SarifMessage,
    locations: Vec<SarifLocation>,
}

#[derive(Serialize)]
struct SarifMessage {
    text: String,
}

#[derive(Serialize)]
struct SarifLocation {
    #[serde(rename = "logicalLocations")]
    logical_locations: Vec<SarifLogicalLocation>,
}

#[derive(Serialize)]
struct SarifLogicalLocation {
    #[serde(rename = "fullyQualifiedName")]
    fully_qualified_name: String,
    kind: &'static str,
}

/// Serializes a report as a pretty-printed SARIF 2.1.0 log.
///
/// # Errors
/// Returns a [`serde_json::Error`] if serialization fails (not expected
/// for well-formed reports).
pub fn to_sarif(report: &TajReport) -> Result<String, serde_json::Error> {
    serde_json::to_string_pretty(&sarif_log(report))
}

/// Serializes a report as a compact SARIF 2.1.0 log on one line: the
/// daemon's wire form of [`to_sarif`]'s log.
///
/// # Errors
/// As [`to_sarif`].
pub fn to_sarif_compact(report: &TajReport) -> Result<String, serde_json::Error> {
    serde_json::to_string(&sarif_log(report))
}

fn sarif_log(report: &TajReport) -> Sarif {
    let mut rules: Vec<SarifRule> = Vec::new();
    for issue in [
        IssueType::Xss,
        IssueType::Sqli,
        IssueType::CommandInjection,
        IssueType::MaliciousFile,
        IssueType::InfoLeak,
    ] {
        rules.push(SarifRule { id: rule_id(issue), name: issue.to_string() });
    }
    let results = report
        .findings
        .iter()
        .map(|f| SarifResult {
            rule_id: rule_id(f.flow.issue),
            level: "error",
            message: SarifMessage {
                text: format!(
                    "tainted data from {} reaches {} ({} flow(s) share this fix point; \
                     insert a sanitizer at the library call point in {})",
                    f.flow.source_method, f.flow.sink_method, f.group_size, f.lcp_owner_class
                ),
            },
            locations: vec![SarifLocation {
                logical_locations: vec![SarifLogicalLocation {
                    fully_qualified_name: format!(
                        "{}.{}",
                        f.flow.sink_owner_class, f.flow.sink_method
                    ),
                    kind: "function",
                }],
            }],
        })
        .collect();
    let c = &report.concurrency;
    let properties = SarifProperties {
        concurrency: SarifConcurrency {
            spawn_sites: c.spawn_sites,
            escaping_objects: c.escaping_objects,
            total_objects: c.total_objects,
            parallel_nodes: c.parallel_nodes,
            cross_thread_edges_dropped: c.cross_thread_edges_dropped,
            cross_thread_flows: c
                .cross_thread_flows
                .iter()
                .map(|f| {
                    format!(
                        "[{}] {} -> {} in {}",
                        f.issue, f.source_method, f.sink_method, f.sink_owner_class
                    )
                })
                .collect(),
        },
        degradation: report.degradation.clone(),
    };
    Sarif {
        schema: "https://json.schemastore.org/sarif-2.1.0.json",
        version: "2.1.0",
        runs: vec![SarifRun {
            tool: SarifTool {
                driver: SarifDriver {
                    name: "taj-rs",
                    information_uri: "https://doi.org/10.1145/1542476.1542486",
                    version: env!("CARGO_PKG_VERSION"),
                    rules,
                },
            },
            results,
            properties,
        }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze_source, RuleSet, TajConfig};

    fn sample_report() -> TajReport {
        analyze_source(
            r#"
            class Page extends HttpServlet {
                method void doGet(HttpServletRequest req, HttpServletResponse resp) {
                    resp.getWriter().println(req.getParameter("q"));
                }
            }
            "#,
            None,
            RuleSet::default_rules(),
            &TajConfig::hybrid_unbounded(),
        )
        .unwrap()
    }

    #[test]
    fn text_rendering_mentions_findings() {
        let text = to_text(&sample_report());
        assert!(text.contains("XSS"), "{text}");
        assert!(text.contains("getParameter"), "{text}");
        assert!(text.contains("Page"), "{text}");
    }

    #[test]
    fn sarif_is_valid_json_with_results() {
        let sarif = to_sarif(&sample_report()).unwrap();
        let v: serde_json::Value = serde_json::from_str(&sarif).unwrap();
        assert_eq!(v["version"], "2.1.0");
        assert_eq!(v["runs"][0]["tool"]["driver"]["name"], "taj-rs");
        assert_eq!(v["runs"][0]["results"][0]["ruleId"], "taj/xss");
        assert!(v["runs"][0]["results"][0]["message"]["text"]
            .as_str()
            .unwrap()
            .contains("getParameter"));
    }

    #[test]
    fn concurrency_section_reports_cross_thread_flow() {
        let src = r#"
            class Shared { field String v; ctor () { } }
            class Worker implements Runnable {
                field Shared s;
                field String in;
                ctor (Shared s, String in) { this.s = s; this.in = in; }
                method void run() {
                    Shared sh = this.s;
                    String x = this.in;
                    sh.v = x;
                }
            }
            class Page extends HttpServlet {
                method void doGet(HttpServletRequest req, HttpServletResponse resp) {
                    String p = req.getParameter("q");
                    Shared s = new Shared();
                    Worker w = new Worker(s, p);
                    Thread t = new Thread(w);
                    t.start();
                    String out = s.v;
                    resp.getWriter().println(out);
                }
            }
        "#;
        let report =
            analyze_source(src, None, RuleSet::default_rules(), &TajConfig::cs_escape()).unwrap();
        assert!(report.issue_count() >= 1, "escape repair finds the flow: {report:#?}");
        assert!(report.concurrency.spawn_sites >= 1);
        assert!(report.concurrency.escaping_objects >= 1);
        assert!(!report.concurrency.cross_thread_flows.is_empty());

        let text = concurrency_text(&report);
        assert!(text.contains("cross-thread taint flow"), "{text}");
        assert!(text.contains("println"), "{text}");

        let sarif = to_sarif(&report).unwrap();
        let v: serde_json::Value = serde_json::from_str(&sarif).unwrap();
        let conc = &v["runs"][0]["properties"]["concurrency"];
        assert!(conc["spawnSites"].as_u64().unwrap() >= 1, "{sarif}");
        assert!(conc["escapingObjects"].as_u64().unwrap() >= 1);
        assert!(!conc["crossThreadFlows"].as_array().unwrap().is_empty());
    }

    #[test]
    fn concurrency_section_is_quiet_for_single_threaded_code() {
        let text = concurrency_text(&sample_report());
        assert!(text.contains("0 spawn site(s)"), "{text}");
        assert!(text.contains("no cross-thread taint flows"), "{text}");
    }

    #[test]
    fn sarif_empty_report_has_no_results() {
        let report = analyze_source(
            "class Page extends HttpServlet { }",
            None,
            RuleSet::default_rules(),
            &TajConfig::hybrid_unbounded(),
        )
        .unwrap();
        let sarif = to_sarif(&report).unwrap();
        let v: serde_json::Value = serde_json::from_str(&sarif).unwrap();
        assert_eq!(v["runs"][0]["results"].as_array().unwrap().len(), 0);
    }
}
