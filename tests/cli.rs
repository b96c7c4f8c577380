//! The `taj` binary end to end. `analyze --ir` must print the program the
//! analysis runs on: after the whitelist, entrypoint synthesis, EJB
//! rewrites, §4.1.2 exception modelling and SSA, not the bare frontend
//! output. A retired flag is a usage error.

use std::process::Command;

use taj::core::{prepare, RuleSet};
use taj::jir::pretty::program_to_string;

/// Leaks an exception to the response: exception modelling turns the
/// `println(e)` into an InfoLeak flow from `Throwable.getMessage`.
const LEAKY_SERVLET: &str = r#"
class Page extends HttpServlet {
    method void doGet(HttpServletRequest req, HttpServletResponse resp) {
        try { this.risky(); } catch (Exception e) { resp.getWriter().println(e); }
    }
    method void risky() { throw new RuntimeException("internal"); }
}
"#;

/// Writes `source` to a temp file named after `tag` and the process.
fn input_file(tag: &str, source: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("taj-cli-{tag}-{}.jweb", std::process::id()));
    std::fs::write(&path, source).expect("input written");
    path
}

#[test]
fn analyze_ir_prints_the_prepared_program() {
    let path = input_file("ir", LEAKY_SERVLET);
    let out = Command::new(env!("CARGO_BIN_EXE_taj"))
        .arg("analyze")
        .arg(&path)
        .arg("--ir")
        .output()
        .expect("taj runs");
    let _ = std::fs::remove_file(&path);
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    assert_eq!(out.status.code(), Some(2), "findings exit code: {stdout}");

    let prepared = prepare(LEAKY_SERVLET, None, RuleSet::default_rules()).expect("prepares");
    let ir = program_to_string(&prepared.program);
    assert!(stdout.starts_with(&ir), "--ir is not the prepared program:\n{stdout}");
    // The report below the IR is the flow exception modelling created.
    let report = &stdout[ir.len()..];
    assert!(report.contains("getMessage → println"), "{report}");
}

#[test]
fn analyze_rejects_the_retired_threads_flag() {
    let path = input_file("threads", LEAKY_SERVLET);
    let out = Command::new(env!("CARGO_BIN_EXE_taj"))
        .arg("analyze")
        .arg(&path)
        .args(["--threads", "2"])
        .output()
        .expect("taj runs");
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8(out.stderr).expect("stderr is UTF-8");
    assert_eq!(out.status.code(), Some(1), "usage-error exit code: {stderr}");
    assert!(stderr.contains("--threads"), "the error names the flag: {stderr}");
    assert!(out.stdout.is_empty(), "no report on a usage error");
}
