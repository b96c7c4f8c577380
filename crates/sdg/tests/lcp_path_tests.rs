//! Witness-path structure tests: flows must carry coherent provenance
//! (monotone step chains, heap-transition counts matching the path, and
//! app/library classification usable for LCP computation).

use taj_pointer::{analyze, PolicyConfig, SolverConfig};
use taj_sdg::{HybridSlicer, ProgramView, SliceBounds, SliceIndex, SliceSpec, StepKind};

fn run(src: &str) -> (jir::Program, taj_pointer::PointsTo, SliceSpec) {
    let mut program = jir::frontend::build_program(src).unwrap();
    let c = program.class_by_name("Main").unwrap();
    program.entrypoints.push(program.method_by_name(c, "main").unwrap());
    let mut spec = SliceSpec::default();
    let req = program.class_by_name("HttpServletRequest").unwrap();
    spec.sources.insert(program.method_by_name(req, "getParameter").unwrap());
    let pw = program.class_by_name("PrintWriter").unwrap();
    spec.sinks.insert(program.method_by_name(pw, "println").unwrap(), vec![0]);
    let cfg = SolverConfig {
        policy: PolicyConfig { taint_methods: spec.sources.iter().copied().collect() },
        source_methods: spec.sources.iter().copied().collect(),
        ..Default::default()
    };
    let pts = analyze(&program, &cfg);
    (program, pts, spec)
}

const TWO_HOP: &str = r#"
    class Holder { field String v; ctor () { } }
    class Main {
        static method void main() {
            HttpServletRequest req = new HttpServletRequest();
            HttpServletResponse resp = new HttpServletResponse();
            Holder h1 = new Holder();
            h1.v = req.getParameter("q");
            Holder h2 = new Holder();
            h2.v = h1.v;
            String out = h2.v;
            resp.getWriter().println(out);
        }
    }
"#;

#[test]
fn path_starts_at_seed_ends_at_sink() {
    let (p, pts, spec) = run(TWO_HOP);
    let index = SliceIndex::build(&p, &pts, [&spec]);
    let view = ProgramView::build(&index, &spec);
    let flows = HybridSlicer::new(&view, SliceBounds::default()).run().flows;
    assert_eq!(flows.len(), 1);
    let f = &flows[0];
    assert_eq!(f.path.first().unwrap().kind, StepKind::Seed);
    assert_eq!(f.path.first().unwrap().stmt, f.source);
    assert_eq!(f.path.last().unwrap().stmt, f.sink);
}

#[test]
fn heap_transition_count_matches_path() {
    let (p, pts, spec) = run(TWO_HOP);
    let index = SliceIndex::build(&p, &pts, [&spec]);
    let view = ProgramView::build(&index, &spec);
    let flows = HybridSlicer::new(&view, SliceBounds::default()).run().flows;
    let f = &flows[0];
    let counted = f
        .path
        .iter()
        .filter(|s| matches!(s.kind, StepKind::HeapEdge | StepKind::CarrierEdge))
        .count();
    assert_eq!(f.heap_transitions, counted);
    assert_eq!(f.heap_transitions, 2, "two store→load hops through Holder");
}

#[test]
fn every_step_resolves_to_a_real_statement() {
    let (p, pts, spec) = run(TWO_HOP);
    let index = SliceIndex::build(&p, &pts, [&spec]);
    let view = ProgramView::build(&index, &spec);
    let flows = HybridSlicer::new(&view, SliceBounds::default()).run().flows;
    for f in &flows {
        for step in &f.path {
            let method = pts.callgraph.method_of(step.stmt.node);
            let body = p.method(method).body().expect("stmt in a body method");
            let block = body.blocks.get(step.stmt.loc.block.index()).expect("block exists");
            // Terminator pseudo-locations sit one past the last instruction.
            assert!(
                (step.stmt.loc.idx as usize) <= block.insts.len(),
                "step {step:?} out of range in {}",
                p.method(method).name
            );
        }
    }
}

#[test]
fn library_classification_is_queryable_per_step() {
    let (p, pts, spec) = run(TWO_HOP);
    let index = SliceIndex::build(&p, &pts, [&spec]);
    let view = ProgramView::build(&index, &spec);
    let flows = HybridSlicer::new(&view, SliceBounds::default()).run().flows;
    // Every step of this flow is in application code ($Entrypoints/Main).
    for step in &flows[0].path {
        assert!(!index.is_library_stmt(step.stmt), "unexpected library step: {step:?}");
    }
}
