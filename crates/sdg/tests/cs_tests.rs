//! CS-slicer specifics: the heap-through-calls discipline (no
//! unrealizable down-then-up paths), caller-to-sibling flows that *are*
//! realizable, and deterministic budget failures.

use taj_pointer::{analyze, PolicyConfig, SolverConfig};
use taj_sdg::{CsSlicer, ProgramView, SliceBounds, SliceError, SliceIndex, SliceSpec};

fn setup(src: &str) -> (jir::Program, taj_pointer::PointsTo, SliceSpec) {
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

fn cs_flows(src: &str) -> usize {
    let (p, pts, spec) = setup(src);
    let index = SliceIndex::build(&p, &pts, [&spec]);
    let view = ProgramView::build(&index, &spec);
    CsSlicer::new(&view, SliceBounds::default()).run().unwrap().flows.len()
}

/// Store in method A, load in sibling method B, both called from main:
/// the heap fact travels up A→main and down main→B — a realizable path
/// that CS must follow.
#[test]
fn caller_to_sibling_heap_flow_is_found() {
    let n = cs_flows(
        r#"
        class Box { field String v; ctor () { } }
        class Main {
            static method void main() {
                HttpServletRequest req = new HttpServletRequest();
                HttpServletResponse resp = new HttpServletResponse();
                Box b = new Box();
                Main.write(b, req.getParameter("q"));
                Main.read(b, resp);
            }
            static method void write(Box b, String s) { b.v = s; }
            static method void read(Box b, HttpServletResponse resp) {
                String out = b.v;
                resp.getWriter().println(out);
            }
        }
        "#,
    );
    assert_eq!(n, 1, "up-then-down through the common caller is realizable");
}

/// Statically-aliased objects reached only through disjoint entrypoints:
/// down-then-up through the shared factory is unrealizable, so CS stays
/// clean (this is the FactoryAlias pattern's CS side).
#[test]
fn down_then_up_is_rejected() {
    let (p, pts, spec) = setup(
        r#"
        class Box { field String v; ctor () { } }
        class F { static method Box make() { return new Box(); } }
        class Main {
            static method void main() {
                HttpServletRequest req = new HttpServletRequest();
                Box w = F.make();
                w.v = req.getParameter("q");
            }
        }
        class Other extends HttpServlet {
            method void doGet(HttpServletRequest req, HttpServletResponse resp) {
                Box r = F.make();
                resp.getWriter().println(r.v);
            }
        }
        "#,
    );
    // Also drive Other's entrypoint.
    let program = p; // (entrypoints already synthesized for Main only)
    let index = SliceIndex::build(&program, &pts, [&spec]);
    let view = ProgramView::build(&index, &spec);
    let flows = CsSlicer::new(&view, SliceBounds::default()).run().unwrap().flows;
    assert_eq!(flows.len(), 0, "heap fact must not return through the unrelated factory call site");
}

/// The path-edge budget fails deterministically at the same count.
#[test]
fn budget_failure_is_deterministic() {
    let src = r#"
        class Box { field String v; ctor () { } }
        class Main {
            static method void main() {
                HttpServletRequest req = new HttpServletRequest();
                HttpServletResponse resp = new HttpServletResponse();
                Box b = new Box();
                b.v = req.getParameter("q");
                resp.getWriter().println(b.v);
            }
        }
    "#;
    let mut counts = Vec::new();
    for _ in 0..2 {
        let (p, pts, spec) = setup(src);
        let index = SliceIndex::build(&p, &pts, [&spec]);
        let view = ProgramView::build(&index, &spec);
        let bounds = SliceBounds { max_path_edges: Some(3), ..Default::default() };
        match CsSlicer::new(&view, bounds).run() {
            Err(SliceError::OutOfBudget { path_edges }) => counts.push(path_edges),
            Ok(_) => panic!("budget of 3 must be exceeded"),
        }
    }
    assert_eq!(counts[0], counts[1], "budget failure point is deterministic");
}

/// Without sources there is nothing to slice: empty result, no error even
/// under a tiny budget... except the eager dependence closure, which runs
/// regardless (it models SDG construction cost).
#[test]
fn closure_cost_is_charged_even_without_sources() {
    let src = r#"
        class Box { field String v; ctor () { } }
        class Main {
            static method void main() {
                Box b = new Box();
                b.v = "static";
                String x = b.v;
            }
        }
    "#;
    let mut program = jir::frontend::build_program(src).unwrap();
    let c = program.class_by_name("Main").unwrap();
    program.entrypoints.push(program.method_by_name(c, "main").unwrap());
    let spec = SliceSpec::default(); // no sources at all
    let pts = analyze(&program, &SolverConfig::default());
    let index = SliceIndex::build(&program, &pts, [&spec]);
    let view = ProgramView::build(&index, &spec);
    let tiny = SliceBounds { max_path_edges: Some(1), ..Default::default() };
    assert!(
        CsSlicer::new(&view, tiny).run().is_err(),
        "the heap-dependence closure itself consumes budget"
    );
    let roomy = SliceBounds { max_path_edges: Some(100_000), ..Default::default() };
    let result = CsSlicer::new(&view, roomy).run().unwrap();
    assert!(result.flows.is_empty());
    assert!(result.work > 0, "closure work is recorded");
}
