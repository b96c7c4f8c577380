//! Criterion bench: the four slicers (hybrid, CI and CS thin slicing,
//! §3.2, and IFDS) on prepared programs — the core Table 3 comparison as
//! a microbenchmark.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use taj_core::{IssueType, RuleSet, TajConfig};
use taj_pointer::{analyze, PointsTo, PolicyConfig, SolverConfig};
use taj_sdg::{
    CiCache, CiSlicer, CsSlicer, HybridSlicer, IfdsAliases, IfdsSlicer, ProgramView, SliceBounds,
    SliceIndex, SliceSpec,
};
use taj_webgen::{generate, presets, Scale};

struct Prepared {
    program: jir::Program,
    pts: PointsTo,
    spec: SliceSpec,
}

fn prepare(name: &str) -> Prepared {
    let preset = presets().into_iter().find(|p| p.name == name).expect("preset");
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
    let resolved = rules.resolve(&program);
    let xss = resolved.iter().find(|r| r.issue == IssueType::Xss).expect("xss");
    let mut spec = SliceSpec::default();
    spec.sources.extend(xss.sources.iter().copied());
    spec.sanitizers.extend(xss.sanitizers.iter().copied());
    for (m, pos) in &xss.sinks {
        spec.sinks.insert(*m, pos.clone());
    }
    Prepared { program, pts, spec }
}

fn bench_slicing(c: &mut Criterion) {
    let mut group = c.benchmark_group("slicing");
    group.sample_size(10);
    for name in ["I", "Webgoat"] {
        let p = prepare(name);
        let index = SliceIndex::build(&p.program, &p.pts, [&p.spec]);
        let view = ProgramView::build(&index, &p.spec);
        let ci_cache = CiCache::build(&index);
        let aliases = IfdsAliases::build(&index);
        let depth = TajConfig::ifds().access_path_depth;
        group.bench_with_input(BenchmarkId::new("hybrid", name), &view, |b, view| {
            b.iter(|| HybridSlicer::new(view, SliceBounds::default()).run())
        });
        group.bench_with_input(BenchmarkId::new("ci", name), &view, |b, view| {
            b.iter(|| CiSlicer::with_cache(view, SliceBounds::default(), &ci_cache).run())
        });
        group.bench_with_input(BenchmarkId::new("cs", name), &view, |b, view| {
            b.iter(|| CsSlicer::new(view, SliceBounds::default()).run())
        });
        group.bench_with_input(BenchmarkId::new("ifds", name), &view, |b, view| {
            b.iter(|| IfdsSlicer::new(view, depth, &aliases).run())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_slicing);
criterion_main!(benches);
