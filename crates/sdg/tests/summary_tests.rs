//! Focused tests for the RHS endpoint summaries inside the hybrid slicer:
//! transitive summaries, recursion fixpoints, sanitizer cut-offs inside
//! callees, and summary sharing across seeds.

use taj_pointer::{analyze, PolicyConfig, SolverConfig};
use taj_sdg::{HybridSlicer, ProgramView, SliceBounds, SliceIndex, SliceSpec};

struct Setup {
    program: jir::Program,
    pts: taj_pointer::PointsTo,
    spec: SliceSpec,
}

fn setup(src: &str) -> Setup {
    let mut program = jir::frontend::build_program(src).expect("builds");
    let c = program.class_by_name("Main").expect("Main");
    let m = program.method_by_name(c, "main").expect("main");
    program.entrypoints.push(m);
    let mut spec = SliceSpec::default();
    let req = program.class_by_name("HttpServletRequest").unwrap();
    spec.sources.insert(program.method_by_name(req, "getParameter").unwrap());
    let pw = program.class_by_name("PrintWriter").unwrap();
    spec.sinks.insert(program.method_by_name(pw, "println").unwrap(), vec![0]);
    let enc = program.class_by_name("URLEncoder").unwrap();
    spec.sanitizers.insert(program.method_by_name(enc, "encode").unwrap());
    let cfg = SolverConfig {
        policy: PolicyConfig { taint_methods: spec.sources.iter().copied().collect() },
        source_methods: spec.sources.iter().copied().collect(),
        ..Default::default()
    };
    let pts = analyze(&program, &cfg);
    Setup { program, pts, spec }
}

fn flows(s: &Setup) -> usize {
    let index = SliceIndex::build(&s.program, &s.pts, [&s.spec]);
    let view = ProgramView::build(&index, &s.spec);
    HybridSlicer::new(&view, SliceBounds::default()).run().flows.len()
}

#[test]
fn three_level_transitive_summary() {
    // taint → a → b → c → sink inside c: the summary of a must absorb the
    // summaries of b and c transitively.
    let s = setup(
        r#"
        class Main {
            static method void main() {
                HttpServletRequest req = new HttpServletRequest();
                HttpServletResponse resp = new HttpServletResponse();
                PrintWriter w = resp.getWriter();
                Main.a(req.getParameter("q"), w);
            }
            static method void a(String s, PrintWriter w) { Main.b(s, w); }
            static method void b(String s, PrintWriter w) { Main.c(s, w); }
            static method void c(String s, PrintWriter w) { w.println(s); }
        }
        "#,
    );
    assert_eq!(flows(&s), 1);
}

#[test]
fn summary_sanitizer_inside_callee() {
    // The sanitizer sits inside a helper: its summary must not report the
    // sink, and must not mark the return as tainted.
    let s = setup(
        r#"
        class Main {
            static method void main() {
                HttpServletRequest req = new HttpServletRequest();
                HttpServletResponse resp = new HttpServletResponse();
                PrintWriter w = resp.getWriter();
                String v = Main.scrub(req.getParameter("q"));
                w.println(v);
            }
            static method String scrub(String s) { return URLEncoder.encode(s); }
        }
        "#,
    );
    assert_eq!(flows(&s), 0, "sanitizer inside a summarized callee must cut the flow");
}

#[test]
fn summary_partial_sanitization() {
    // One path through the helper sanitizes, the other does not: the
    // summary must keep the tainted path.
    let s = setup(
        r#"
        class Main {
            static method void main() {
                HttpServletRequest req = new HttpServletRequest();
                HttpServletResponse resp = new HttpServletResponse();
                PrintWriter w = resp.getWriter();
                String v = Main.maybeScrub(req.getParameter("q"), true);
                w.println(v);
            }
            static method String maybeScrub(String s, boolean clean) {
                if (clean) { return URLEncoder.encode(s); }
                return s;
            }
        }
        "#,
    );
    assert_eq!(flows(&s), 1, "the unsanitized branch keeps the flow alive");
}

#[test]
fn recursive_summary_reaches_fixpoint() {
    let s = setup(
        r#"
        class Main {
            static method void main() {
                HttpServletRequest req = new HttpServletRequest();
                HttpServletResponse resp = new HttpServletResponse();
                PrintWriter w = resp.getWriter();
                w.println(Main.spin(req.getParameter("q"), 3));
            }
            static method String spin(String s, int n) {
                if (n > 0) { return Main.spin(s, n - 1); }
                return s;
            }
        }
        "#,
    );
    assert_eq!(flows(&s), 1);
}

#[test]
fn mutual_recursion_summary() {
    let s = setup(
        r#"
        class Main {
            static method void main() {
                HttpServletRequest req = new HttpServletRequest();
                HttpServletResponse resp = new HttpServletResponse();
                resp.getWriter().println(Main.even(req.getParameter("q"), 4));
            }
            static method String even(String s, int n) {
                if (n > 0) { return Main.odd(s, n - 1); }
                return s;
            }
            static method String odd(String s, int n) {
                if (n > 0) { return Main.even(s, n - 1); }
                return s;
            }
        }
        "#,
    );
    assert_eq!(flows(&s), 1);
}

#[test]
fn summary_store_is_heap_matched() {
    // The helper stores into the heap; the caller loads it back: the
    // summary's store must be matched against the caller-side load.
    let s = setup(
        r#"
        class Box { field String v; ctor () { } }
        class Main {
            static method void main() {
                HttpServletRequest req = new HttpServletRequest();
                HttpServletResponse resp = new HttpServletResponse();
                Box b = new Box();
                Main.stash(b, req.getParameter("q"));
                String out = b.v;
                resp.getWriter().println(out);
            }
            static method void stash(Box b, String s) { b.v = s; }
        }
        "#,
    );
    assert_eq!(flows(&s), 1, "summary stores participate in direct-edge matching");
}

#[test]
fn summaries_shared_across_seeds() {
    // Two sources flow through the same helper: the second seed must
    // reuse the helper's summary (observable through total work).
    let s = setup(
        r#"
        class Main {
            static method void main() {
                HttpServletRequest req = new HttpServletRequest();
                HttpServletResponse resp = new HttpServletResponse();
                PrintWriter w = resp.getWriter();
                w.println(Main.shape(req.getParameter("a")));
                w.println(Main.shape(req.getParameter("b")));
            }
            static method String shape(String s) { return "[" + s + "]"; }
        }
        "#,
    );
    let index = SliceIndex::build(&s.program, &s.pts, [&s.spec]);
    let view = ProgramView::build(&index, &s.spec);
    let result = HybridSlicer::new(&view, SliceBounds::default()).run();
    assert_eq!(result.flows.len(), 2);
    // Work should be far below 2× the single-seed cost; sanity-bound it.
    assert!(result.work < 2_000, "summary reuse keeps work low: {}", result.work);
}

#[test]
fn void_helper_with_sink_inside() {
    let s = setup(
        r#"
        class Main {
            static method void main() {
                HttpServletRequest req = new HttpServletRequest();
                HttpServletResponse resp = new HttpServletResponse();
                Main.render(resp, req.getParameter("q"));
            }
            static method void render(HttpServletResponse resp, String s) {
                PrintWriter w = resp.getWriter();
                w.println(s);
            }
        }
        "#,
    );
    assert_eq!(flows(&s), 1, "sink hit inside a summarized callee is reported");
}
