//! End-to-end slicer tests comparing the hybrid, CI, and CS algorithms on
//! programs engineered to separate their precision/soundness behaviours.

use taj_pointer::{analyze, SolverConfig};
use taj_sdg::{
    CiCache, CiSlicer, CsSlicer, HybridSlicer, ProgramView, SliceBounds, SliceIndex, SliceResult,
    SliceSpec,
};

struct Setup {
    program: jir::Program,
    pts: taj_pointer::PointsTo,
    spec: SliceSpec,
}

fn setup(src: &str) -> Setup {
    let mut program = jir::frontend::build_program(src).expect("program builds");
    let c = program.class_by_name("Main").expect("Main");
    let m = program.method_by_name(c, "main").expect("main");
    program.entrypoints.push(m);

    let mut spec = SliceSpec::default();
    let add_source = |p: &jir::Program, spec: &mut SliceSpec, cls: &str, name: &str| {
        let c = p.class_by_name(cls).unwrap();
        spec.sources.insert(p.method_by_name(c, name).unwrap());
    };
    add_source(&program, &mut spec, "HttpServletRequest", "getParameter");
    add_source(&program, &mut spec, "HttpServletRequest", "getHeader");
    let pw = program.class_by_name("PrintWriter").unwrap();
    spec.sinks.insert(program.method_by_name(pw, "println").unwrap(), vec![0]);
    let st = program.class_by_name("Statement").unwrap();
    spec.sinks.insert(program.method_by_name(st, "executeQuery").unwrap(), vec![0]);
    let enc = program.class_by_name("URLEncoder").unwrap();
    spec.sanitizers.insert(program.method_by_name(enc, "encode").unwrap());

    let cfg = SolverConfig {
        source_methods: spec.sources.iter().copied().collect(),
        policy: taj_pointer::PolicyConfig { taint_methods: spec.sources.iter().copied().collect() },
        ..Default::default()
    };
    let pts = analyze(&program, &cfg);
    Setup { program, pts, spec }
}

fn run_hybrid(s: &Setup) -> SliceResult {
    let index = SliceIndex::build(&s.program, &s.pts, [&s.spec]);
    let view = ProgramView::build(&index, &s.spec);
    HybridSlicer::new(&view, SliceBounds::default()).run()
}

fn run_ci(s: &Setup) -> SliceResult {
    let index = SliceIndex::build(&s.program, &s.pts, [&s.spec]);
    let view = ProgramView::build(&index, &s.spec);
    let cache = CiCache::build(&index);
    CiSlicer::with_cache(&view, SliceBounds::default(), &cache).run()
}

fn run_cs(s: &Setup) -> Result<SliceResult, taj_sdg::SliceError> {
    let index = SliceIndex::build(&s.program, &s.pts, [&s.spec]);
    let view = ProgramView::build(&index, &s.spec);
    CsSlicer::new(&view, SliceBounds::default()).run()
}

const DIRECT_FLOW: &str = r#"
class Main extends HttpServlet {
    static method void main() {
        HttpServletRequest req = new HttpServletRequest();
        HttpServletResponse resp = new HttpServletResponse();
        Main s = new Main();
        s.doGet(req, resp);
    }
    method void doGet(HttpServletRequest req, HttpServletResponse resp) {
        String t = req.getParameter("name");
        PrintWriter w = resp.getWriter();
        w.println(t);
    }
}
"#;

#[test]
fn all_three_find_a_direct_flow() {
    let s = setup(DIRECT_FLOW);
    assert_eq!(run_hybrid(&s).flows.len(), 1, "hybrid");
    assert_eq!(run_ci(&s).flows.len(), 1, "ci");
    assert_eq!(run_cs(&s).unwrap().flows.len(), 1, "cs");
}

#[test]
fn sanitized_flow_not_reported() {
    let s = setup(
        r#"
        class Main extends HttpServlet {
            static method void main() {
                HttpServletRequest req = new HttpServletRequest();
                HttpServletResponse resp = new HttpServletResponse();
                Main s = new Main();
                s.doGet(req, resp);
            }
            method void doGet(HttpServletRequest req, HttpServletResponse resp) {
                String t = req.getParameter("name");
                String clean = URLEncoder.encode(t);
                PrintWriter w = resp.getWriter();
                w.println(clean);
            }
        }
        "#,
    );
    assert!(run_hybrid(&s).flows.is_empty(), "hybrid reports sanitized flow");
    assert!(run_ci(&s).flows.is_empty(), "ci reports sanitized flow");
    assert!(run_cs(&s).unwrap().flows.is_empty(), "cs reports sanitized flow");
}

#[test]
fn interprocedural_flow_through_helper() {
    let s = setup(
        r#"
        class Main extends HttpServlet {
            static method void main() {
                HttpServletRequest req = new HttpServletRequest();
                HttpServletResponse resp = new HttpServletResponse();
                Main s = new Main();
                s.doGet(req, resp);
            }
            method void doGet(HttpServletRequest req, HttpServletResponse resp) {
                String t = req.getParameter("name");
                String u = this.decorate(t);
                resp.getWriter().println(u);
            }
            method String decorate(String x) { return "hello " + x; }
        }
        "#,
    );
    assert_eq!(run_hybrid(&s).flows.len(), 1, "summary through decorate");
    assert_eq!(run_ci(&s).flows.len(), 1);
    assert_eq!(run_cs(&s).unwrap().flows.len(), 1);
}

#[test]
fn heap_flow_through_field() {
    let s = setup(
        r#"
        class Holder { field String v; ctor () { } }
        class Main extends HttpServlet {
            static method void main() {
                HttpServletRequest req = new HttpServletRequest();
                HttpServletResponse resp = new HttpServletResponse();
                Main s = new Main();
                s.doGet(req, resp);
            }
            method void doGet(HttpServletRequest req, HttpServletResponse resp) {
                Holder h = new Holder();
                h.v = req.getParameter("name");
                String out = h.v;
                resp.getWriter().println(out);
            }
        }
        "#,
    );
    let hybrid = run_hybrid(&s);
    assert_eq!(hybrid.flows.len(), 1, "hybrid heap flow");
    assert!(hybrid.flows[0].heap_transitions >= 1);
    assert_eq!(run_ci(&s).flows.len(), 1, "ci heap flow");
    assert_eq!(run_cs(&s).unwrap().flows.len(), 1, "cs heap flow");
}

/// Two Box instances; only one holds tainted data. The hybrid and CS
/// algorithms disambiguate via object-sensitive contexts; CI merges them
/// (a false positive) — exactly the precision ordering of Figure 4.
#[test]
fn context_precision_separates_hybrid_from_ci() {
    let s = setup(
        r#"
        class Box {
            field String v;
            ctor (String v) { this.v = v; }
            method String get() { return this.v; }
        }
        class Main extends HttpServlet {
            static method void main() {
                HttpServletRequest req = new HttpServletRequest();
                HttpServletResponse resp = new HttpServletResponse();
                Main s = new Main();
                s.doGet(req, resp);
            }
            method void doGet(HttpServletRequest req, HttpServletResponse resp) {
                Box dirty = new Box(req.getParameter("name"));
                Box clean = new Box("constant");
                PrintWriter w = resp.getWriter();
                w.println(dirty.get()); // BAD
                w.println(clean.get()); // OK
            }
        }
        "#,
    );
    assert_eq!(run_hybrid(&s).flows.len(), 1, "hybrid distinguishes boxes");
    assert_eq!(run_cs(&s).unwrap().flows.len(), 1, "cs distinguishes boxes");
    assert_eq!(run_ci(&s).flows.len(), 2, "ci merges contexts: false positive expected");
}

/// A tainted value crosses threads through a shared field. The
/// flow-insensitive heap treatment (hybrid, CI) catches it; CS loses the
/// store performed by the spawned thread (§7.2's CS false negatives).
#[test]
fn cs_misses_cross_thread_flow() {
    let s = setup(
        r#"
        class Shared { field String v; ctor () { } }
        class Worker implements Runnable {
            field Shared shared;
            field HttpServletRequest req;
            ctor (Shared s, HttpServletRequest r) { this.shared = s; this.req = r; }
            method void run() {
                Shared s = this.shared;
                HttpServletRequest r = this.req;
                s.v = r.getParameter("name");
            }
        }
        class Main extends HttpServlet {
            static method void main() {
                HttpServletRequest req = new HttpServletRequest();
                HttpServletResponse resp = new HttpServletResponse();
                Main m = new Main();
                m.doGet(req, resp);
            }
            method void doGet(HttpServletRequest req, HttpServletResponse resp) {
                Shared s = new Shared();
                Thread t = new Thread(new Worker(s, req));
                t.start();
                String out = s.v;
                resp.getWriter().println(out);
            }
        }
        "#,
    );
    assert_eq!(run_hybrid(&s).flows.len(), 1, "hybrid is sound for threads");
    assert_eq!(run_ci(&s).flows.len(), 1, "ci is sound for threads");
    assert_eq!(
        run_cs(&s).unwrap().flows.len(),
        0,
        "cs misses the spawned thread's store (false negative)"
    );
}

#[test]
fn cs_runs_out_of_budget() {
    let s = setup(DIRECT_FLOW);
    let index = SliceIndex::build(&s.program, &s.pts, [&s.spec]);
    let view = ProgramView::build(&index, &s.spec);
    let bounds = SliceBounds { max_path_edges: Some(1), ..Default::default() };
    let err = CsSlicer::new(&view, bounds).run().unwrap_err();
    assert!(matches!(err, taj_sdg::SliceError::OutOfBudget { .. }));
}

#[test]
fn heap_transition_bound_limits_hybrid() {
    let s = setup(
        r#"
        class Holder { field String v; ctor () { } }
        class Main extends HttpServlet {
            static method void main() {
                HttpServletRequest req = new HttpServletRequest();
                HttpServletResponse resp = new HttpServletResponse();
                Main m = new Main();
                m.doGet(req, resp);
            }
            method void doGet(HttpServletRequest req, HttpServletResponse resp) {
                Holder h = new Holder();
                h.v = req.getParameter("name");
                String out = h.v;
                resp.getWriter().println(out);
            }
        }
        "#,
    );
    let index = SliceIndex::build(&s.program, &s.pts, [&s.spec]);
    let view = ProgramView::build(&index, &s.spec);
    let bounds = SliceBounds { max_heap_transitions: Some(0), ..Default::default() };
    let res = HybridSlicer::new(&view, bounds).run();
    assert!(res.budget_exhausted);
    assert!(res.flows.is_empty(), "zero heap budget blocks the heap flow");
}

#[test]
fn map_key_flow_precision() {
    // Tainted value under key "a"; the read of key "b" is clean.
    let s = setup(
        r#"
        class Main extends HttpServlet {
            static method void main() {
                HttpServletRequest req = new HttpServletRequest();
                HttpServletResponse resp = new HttpServletResponse();
                Main m = new Main();
                m.doGet(req, resp);
            }
            method void doGet(HttpServletRequest req, HttpServletResponse resp) {
                HashMap map = new HashMap();
                map.put("a", req.getParameter("name"));
                map.put("b", "constant");
                PrintWriter w = resp.getWriter();
                w.println(map.get("a")); // BAD
                w.println(map.get("b")); // OK
            }
        }
        "#,
    );
    assert_eq!(run_hybrid(&s).flows.len(), 1, "only the key-a read is tainted");
}

#[test]
fn reflective_invoke_flow() {
    let s = setup(
        r#"
        class Target {
            method String id(String x) { return x; }
        }
        class Main extends HttpServlet {
            static method void main() {
                HttpServletRequest req = new HttpServletRequest();
                HttpServletResponse resp = new HttpServletResponse();
                Main m = new Main();
                m.doGet(req, resp);
            }
            method void doGet(HttpServletRequest req, HttpServletResponse resp) {
                String t = req.getParameter("name");
                Class k = Class.forName("Target");
                Method idm = k.getMethod("id");
                Target target = new Target();
                Object r = idm.invoke(target, new Object[] { t });
                resp.getWriter().println(r);
            }
        }
        "#,
    );
    assert_eq!(run_hybrid(&s).flows.len(), 1, "taint flows through Method.invoke");
}

#[test]
fn sql_injection_flow() {
    let s = setup(
        r#"
        class Main extends HttpServlet {
            static method void main() {
                HttpServletRequest req = new HttpServletRequest();
                HttpServletResponse resp = new HttpServletResponse();
                Main m = new Main();
                m.doGet(req, resp);
            }
            method void doGet(HttpServletRequest req, HttpServletResponse resp) {
                String id = req.getParameter("id");
                String sql = "SELECT * FROM users WHERE id = " + id;
                Connection c = DriverManager.getConnection("jdbc:db");
                Statement st = c.createStatement();
                st.executeQuery(sql);
            }
        }
        "#,
    );
    let flows = run_hybrid(&s).flows;
    assert_eq!(flows.len(), 1);
    let sink = s.program.method(flows[0].sink_method);
    assert_eq!(sink.name, "executeQuery");
}

#[test]
fn string_builder_flow() {
    let s = setup(
        r#"
        class Main extends HttpServlet {
            static method void main() {
                HttpServletRequest req = new HttpServletRequest();
                HttpServletResponse resp = new HttpServletResponse();
                Main m = new Main();
                m.doGet(req, resp);
            }
            method void doGet(HttpServletRequest req, HttpServletResponse resp) {
                StringBuilder sb = new StringBuilder();
                sb.append("hello ");
                sb.append(req.getParameter("name"));
                String out = sb.toString();
                resp.getWriter().println(out);
            }
        }
        "#,
    );
    assert_eq!(run_hybrid(&s).flows.len(), 1, "taint flows through StringBuilder");
}

#[test]
fn flows_have_reconstructible_paths() {
    let s = setup(DIRECT_FLOW);
    let res = run_hybrid(&s);
    let flow = &res.flows[0];
    assert!(flow.path.len() >= 2, "path has at least seed and sink");
    assert_eq!(flow.path.first().unwrap().kind, taj_sdg::StepKind::Seed);
    assert_eq!(flow.path.first().unwrap().stmt, flow.source);
    assert_eq!(flow.path.last().unwrap().stmt, flow.sink);
}
