//! Prints one line of report digests per input × configuration, so two
//! builds can be checked for byte-identical reports with `diff`:
//!
//! ```text
//! cargo run --release -q -p taj-bench --bin report_digests > digests.txt
//! ```
//!
//! The inputs are the nine Figure-4 apps at `Scale::standard()`,
//! securibench joined ×1, ×4 and ×16, and each of the 40 securibench
//! cases on its own (`securibench/<case>`: small programs whose prepared
//! IR is mostly the model library); the configurations are
//! `TajConfig::all()`. Each line gives 64-bit FNV-1a digests of the text
//! report, the serde JSON, the pretty SARIF log and the compact SARIF
//! the daemon sends (`sarif_wire`), or the path-edge count of an
//! out-of-memory verdict. An out-of-memory line is followed
//! by a `<config>+degrade` line with the digests of the same run under
//! `RunOptions { degrade: true, .. }`, which falls to Hybrid-Unbounded.
//!
//! `crates/bench/report_digests.txt` holds the expected output, and CI
//! diffs a fresh run against it. A change that alters reports on purpose
//! regenerates that file.

use taj_core::{
    analyze_with_phase1_opts, prepare_traced, run_phase1_traced, to_sarif, to_sarif_compact,
    to_text, DeploymentDescriptor, Recorder, RuleSet, RunOptions, Supervisor, TajConfig, TajError,
    TajReport,
};
use taj_webgen::{generate, presets, securibench_cases, securibench_joined, Scale};

/// 64-bit FNV-1a of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// The text, JSON, SARIF and wire-SARIF digests of `report`.
fn digests(report: &TajReport) -> String {
    let json = serde_json::to_string(report).expect("report serializes");
    let sarif = to_sarif(report).expect("sarif renders");
    let wire = to_sarif_compact(report).expect("sarif renders");
    format!(
        "text={:016x} json={:016x} sarif={:016x} sarif_wire={:016x}",
        fnv1a(to_text(report).as_bytes()),
        fnv1a(json.as_bytes()),
        fnv1a(sarif.as_bytes()),
        fnv1a(wire.as_bytes())
    )
}

fn main() {
    let mut inputs: Vec<(String, String, Option<DeploymentDescriptor>)> = presets()
        .into_iter()
        .filter(|p| p.in_figure4)
        .map(|p| {
            let app = generate(&p.spec(Scale::standard()));
            (p.name.to_string(), app.source, Some(app.descriptor))
        })
        .collect();
    for copies in [1, 4, 16] {
        inputs.push((format!("securibench-x{copies}"), securibench_joined(copies), None));
    }
    for case in securibench_cases() {
        inputs.push((format!("securibench/{}", case.name), case.source, None));
    }
    let recorder = Recorder::disabled();
    let opts = RunOptions::default();
    let degrade = RunOptions { degrade: true, ..RunOptions::default() };
    for (name, source, descriptor) in &inputs {
        let prepared =
            prepare_traced(source, descriptor.as_ref(), RuleSet::default_rules(), &recorder)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
        for config in TajConfig::all() {
            let phase1 = run_phase1_traced(&prepared, &config, &Supervisor::new(), &recorder);
            match analyze_with_phase1_opts(&prepared, &phase1, &config, &opts) {
                Ok(report) => println!("{name} {} {}", config.name, digests(&report)),
                Err(TajError::OutOfMemory { path_edges }) => {
                    println!("{name} {} out-of-memory path_edges={path_edges}", config.name);
                    let report = analyze_with_phase1_opts(&prepared, &phase1, &config, &degrade)
                        .unwrap_or_else(|e| panic!("{name} / {} degraded: {e}", config.name));
                    println!("{name} {}+degrade {}", config.name, digests(&report));
                }
                Err(e) => panic!("{name} / {}: {e}", config.name),
            }
        }
    }
}
