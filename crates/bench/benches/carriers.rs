//! Criterion bench: taint-carrier detection (§4.1.1) with the
//! nested-depth ablation of §6.2.3 — depth 0/1/2/unbounded reachability
//! over the heap graph.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use taj_core::{IssueType, RuleSet};
use taj_pointer::{analyze, HeapGraph, PolicyConfig, SolverConfig};
use taj_sdg::{SliceIndex, SliceSpec};
use taj_webgen::{generate, presets, Scale};

fn bench_carriers(c: &mut Criterion) {
    let preset = presets().into_iter().find(|p| p.name == "Webgoat").expect("preset");
    let bench = generate(&preset.spec(Scale::quick()));
    let rules = RuleSet::default_rules();
    let mut program = jir::frontend::parse_program(&bench.source).expect("parses");
    taj_core::frameworks::synthesize_entrypoints(&mut program);
    jir::expand::expand_models(&mut program);
    jir::ssa::program_to_ssa(&mut program);
    let pts = analyze(
        &program,
        &SolverConfig {
            policy: PolicyConfig { taint_methods: rules.taint_methods(&program) },
            source_methods: rules.all_sources(&program),
            ..Default::default()
        },
    );
    let heap = HeapGraph::build(&pts);
    let resolved = rules.resolve(&program);
    let xss = resolved.iter().find(|r| r.issue == IssueType::Xss).expect("xss").clone();
    // The carrier index reads the rule's sink calls from the slice index.
    let sinks = SliceSpec { sinks: xss.sinks.iter().cloned().collect(), ..SliceSpec::default() };
    let index = SliceIndex::build(&program, &pts, [&sinks]);

    let mut group = c.benchmark_group("carrier_detection");
    group.sample_size(10);
    for depth in [Some(0usize), Some(1), Some(2), None] {
        let label = depth.map(|d| d.to_string()).unwrap_or_else(|| "unbounded".into());
        group.bench_with_input(BenchmarkId::new("nested_depth", label), &depth, |b, &d| {
            b.iter(|| taj_core::carriers::build_carrier_index(&index, &heap, &xss, d))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_carriers);
criterion_main!(benches);
