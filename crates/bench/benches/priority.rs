//! Criterion bench: priority-driven vs chaotic (FIFO) call-graph
//! construction under a node budget (§6.1) — the ablation behind the
//! prioritized column of Table 3.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use taj_core::RuleSet;
use taj_pointer::{analyze, PolicyConfig, SolverConfig};
use taj_webgen::{generate, presets, Scale};

fn bench_priority(c: &mut Criterion) {
    let preset = presets().into_iter().find(|p| p.name == "Webgoat").expect("preset");
    let bench = generate(&preset.spec(Scale::quick()));
    let rules = RuleSet::default_rules();
    let mut program = jir::frontend::parse_program(&bench.source).expect("parses");
    taj_core::frameworks::synthesize_entrypoints(&mut program);
    jir::expand::expand_models(&mut program);
    jir::ssa::program_to_ssa(&mut program);

    let mut group = c.benchmark_group("priority_cg");
    group.sample_size(10);
    for budget in [200usize, 500, 1000] {
        let base = SolverConfig {
            policy: PolicyConfig { taint_methods: rules.taint_methods(&program) },
            source_methods: rules.all_sources(&program),
            max_cg_nodes: Some(budget),
            priority: false,
            ..Default::default()
        };
        group.bench_with_input(BenchmarkId::new("chaotic", budget), &program, |b, p| {
            b.iter(|| analyze(p, &base))
        });
        let prio = SolverConfig { priority: true, ..base.clone() };
        group.bench_with_input(BenchmarkId::new("prioritized", budget), &program, |b, p| {
            b.iter(|| analyze(p, &prio))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_priority);
criterion_main!(benches);
