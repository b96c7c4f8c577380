//! Regenerates **Figure 2**: a fragment of the Hybrid SDG, rendered as
//! DOT. Solid edges are store→load *direct edges* (computed from the
//! points-to solution); dashed edges are *summary/local* propagation over
//! the no-heap SDG (RHS tabulation).
//!
//! Pipe into graphviz: `cargo run -p taj-bench --bin figure2 | dot -Tsvg`

use taj_core::RuleSet;
use taj_pointer::{analyze, PolicyConfig, SolverConfig};
use taj_sdg::{HybridSlicer, ProgramView, SliceBounds, SliceIndex, SliceSpec, StepKind};

/// A small program whose single flow exercises both HSDG edge kinds: the
/// tainted value crosses the heap twice (store/load pairs on two `Holder`
/// objects) with summary-edge propagation through `relay` in between.
const SOURCE: &str = r#"
    class Holder { field String v; ctor () { } }
    class Page extends HttpServlet {
        method void doGet(HttpServletRequest req, HttpServletResponse resp) {
            String t = req.getParameter("q");
            Holder h1 = new Holder();
            h1.v = t;
            String mid = this.relay(h1);
            Holder h2 = new Holder();
            h2.v = mid;
            String out = h2.v;
            resp.getWriter().println(out);
        }
        method String relay(Holder h) { return h.v; }
    }
"#;

fn main() {
    let mut program = jir::frontend::parse_program(SOURCE).expect("parses");
    taj_core::frameworks::synthesize_entrypoints(&mut program);
    jir::expand::expand_models(&mut program);
    jir::ssa::program_to_ssa(&mut program);
    let resolved = RuleSet::default_rules().resolve(&program);
    let pts = analyze(
        &program,
        &SolverConfig {
            policy: PolicyConfig { taint_methods: resolved.taint_methods() },
            source_methods: resolved.sources(),
            ..Default::default()
        },
    );
    let xss = resolved.iter().find(|r| r.issue == taj_core::IssueType::Xss).expect("xss rule");
    let mut spec = SliceSpec::default();
    spec.sources.extend(xss.sources());
    spec.sanitizers.extend(xss.sanitizers());
    for (m, pos) in xss.sinks() {
        spec.sinks.insert(m, pos.to_vec());
    }
    let index = SliceIndex::build(&program, &pts, [&spec]);
    let view = ProgramView::build(&index, &spec);
    let result = HybridSlicer::new(&view, SliceBounds::default()).run();
    assert!(!result.flows.is_empty(), "the demo flow must be found");

    println!("// Figure 2: fragment of the HSDG for the demo program's taint flow.");
    println!("// Solid black edges: store-to-load direct edges (pointer analysis).");
    println!("// Dashed gray edges: no-heap SDG propagation / summary edges (RHS).");
    println!("digraph hsdg {{");
    println!("  rankdir=LR;");
    println!("  node [fontname=\"monospace\", shape=box, fontsize=10];");
    for (fi, flow) in result.flows.iter().enumerate() {
        for (i, step) in flow.path.iter().enumerate() {
            let method = pts.callgraph.method_of(step.stmt.node);
            let mname = &program.method(method).name;
            let shape = match step.kind {
                StepKind::Seed => "oval",
                StepKind::HeapEdge => "ellipse",
                _ => "box",
            };
            println!(
                "  f{fi}_s{i} [label=\"{:?}\\n{}@{:?}\", shape={shape}];",
                step.kind, mname, step.stmt.loc
            );
            if i > 0 {
                let (style, color) = match step.kind {
                    StepKind::HeapEdge | StepKind::CarrierEdge => ("solid", "black"),
                    _ => ("dashed", "gray40"),
                };
                println!("  f{fi}_s{} -> f{fi}_s{i} [style={style}, color={color}];", i - 1);
            }
        }
    }
    println!("}}");
}
