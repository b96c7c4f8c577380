//! A per-call-graph-node view of the IR tailored to slicing: def-use
//! roles, load/store inventories, resolved call targets, and taint-rule
//! classifications. All three slicers (hybrid, CI, CS) consume this.

use std::collections::HashMap;

use jir::inst::{BinOp, Inst, Loc, Terminator, Var};
use jir::method::Intrinsic;
use jir::{FieldId, MethodId, Program};
use taj_pointer::{CGNodeId, PointsTo};

use crate::spec::{SliceSpec, StmtNode};

/// Field identity for heap-edge matching.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FieldKey {
    /// A named instance field.
    Field(FieldId),
    /// Array contents.
    Array,
}

/// One way a register is used inside a node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Use {
    /// Local value flow into another register at `loc`.
    Flow {
        /// Destination register.
        to: Var,
        /// Statement.
        loc: Loc,
    },
    /// Stored into the heap.
    Store {
        /// Statement.
        loc: Loc,
        /// Base register.
        base: Var,
        /// Field.
        field: FieldKey,
    },
    /// Stored into a static field.
    StaticStore {
        /// Statement.
        loc: Loc,
        /// Field.
        field: FieldId,
    },
    /// Passed as the `pos`-th argument of a call with body callees.
    Arg {
        /// Call statement.
        loc: Loc,
        /// 0-based argument position.
        pos: usize,
    },
    /// Used by the `return` terminator.
    Ret {
        /// Terminator pseudo-location.
        loc: Loc,
    },
    /// Passed at a vulnerable position of a sink call (§3).
    SinkArg {
        /// Call statement.
        loc: Loc,
        /// Resolved sink method.
        method: MethodId,
        /// Parameter position.
        pos: usize,
    },
    /// Passed to a sanitizer: propagation stops (§3.2).
    Sanitized {
        /// Call statement.
        loc: Loc,
    },
}

/// A heap load statement (instance, static, or array).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LoadStmt {
    /// Statement location.
    pub loc: Loc,
    /// Base register (`None` for static loads).
    pub base: Option<Var>,
    /// Field identity (`None` for static loads — see `static_field`).
    pub field: Option<FieldKey>,
    /// Static field when `base` is `None`.
    pub static_field: Option<FieldId>,
    /// Loaded-into register.
    pub dst: Var,
}

/// A taint seed: a call to a source method.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SourceCall {
    /// Call statement.
    pub loc: Loc,
    /// Register receiving the tainted value.
    pub dst: Var,
    /// The source method.
    pub method: MethodId,
}

/// A by-reference taint seed: see [`ProgramView::ref_seeds`].
#[derive(Clone, Debug)]
pub struct RefSeed {
    /// The call statement invoking the by-reference source.
    pub stmt: StmtNode,
    /// The resolved by-reference source method.
    pub method: MethodId,
    /// Points-to set of the tainted argument object.
    pub arg_pts: jir::util::BitSet,
    /// Initial slicing facts: destinations of loads that may read the
    /// tainted object's state, sorted and deduplicated.
    pub facts: Vec<(CGNodeId, Var)>,
}

/// Slicing-oriented view of one call-graph node.
#[derive(Clone, Debug, Default)]
pub struct NodeView {
    /// Register → uses.
    pub uses: HashMap<Var, Vec<Use>>,
    /// Heap/static loads in this node.
    pub loads: Vec<LoadStmt>,
    /// Source calls (taint seeds) in this node.
    pub sources: Vec<SourceCall>,
}

/// Program-wide slicing view: node views plus global indices for heap-edge
/// matching and return plumbing, and the rule's seed lists.
#[derive(Debug)]
pub struct ProgramView<'a> {
    /// The analyzed program.
    pub program: &'a Program,
    /// Phase-1 results.
    pub pts: &'a PointsTo,
    /// The rule projection.
    pub spec: &'a SliceSpec,
    views: Vec<NodeView>,
    /// All instance/array loads, grouped by field key.
    pub loads_by_field: HashMap<FieldKey, Vec<(CGNodeId, LoadStmt)>>,
    /// All static loads by field.
    pub static_loads: HashMap<FieldId, Vec<(CGNodeId, LoadStmt)>>,
    /// For each node: incoming call sites `(caller, loc, dst)` — where its
    /// return value lands.
    pub return_sites: HashMap<CGNodeId, Vec<(CGNodeId, Loc, Option<Var>)>>,
    /// Reflective invoke bindings grouped for array-store matching:
    /// `(caller node, call loc, array var, callee node)`.
    pub invoke_bindings: Vec<(CGNodeId, Loc, Var, CGNodeId)>,
    seeds: Vec<(StmtNode, SourceCall)>,
    ref_seeds: Vec<RefSeed>,
}

/// Aggregate size counters of a [`ProgramView`] — the SDG-side numbers
/// tracing attaches to the `phase2.views` span.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ViewStats {
    /// Call-graph node views built.
    pub nodes: usize,
    /// Register-use edges across all node views.
    pub use_edges: usize,
    /// Heap/static load statements indexed.
    pub loads: usize,
    /// Source (taint-seed) calls found.
    pub sources: usize,
}

impl ViewStats {
    /// Component-wise sum, for aggregating across per-rule views.
    pub fn add(&mut self, other: ViewStats) {
        self.nodes += other.nodes;
        self.use_edges += other.use_edges;
        self.loads += other.loads;
        self.sources += other.sources;
    }
}

impl<'a> ProgramView<'a> {
    /// Builds views for every call-graph node, and both seed lists once:
    /// every slicing unit of the rule borrows them.
    pub fn build(program: &'a Program, pts: &'a PointsTo, spec: &'a SliceSpec) -> Self {
        let mut views = Vec::with_capacity(pts.callgraph.len());
        for node in pts.callgraph.iter_nodes() {
            views.push(build_node_view(program, pts, spec, node));
        }
        let mut loads_by_field: HashMap<FieldKey, Vec<(CGNodeId, LoadStmt)>> = HashMap::new();
        let mut static_loads: HashMap<FieldId, Vec<(CGNodeId, LoadStmt)>> = HashMap::new();
        for (idx, view) in views.iter().enumerate() {
            let node = CGNodeId::new(idx);
            for l in &view.loads {
                if let Some(f) = l.field {
                    loads_by_field.entry(f).or_default().push((node, *l));
                } else if let Some(sf) = l.static_field {
                    static_loads.entry(sf).or_default().push((node, *l));
                }
            }
        }
        let mut return_sites: HashMap<CGNodeId, Vec<(CGNodeId, Loc, Option<Var>)>> = HashMap::new();
        for e in &pts.callgraph.edges {
            let dst = call_dst_at(program, pts, e.caller, e.loc);
            return_sites.entry(e.callee).or_default().push((e.caller, e.loc, dst));
        }
        let invoke_bindings =
            pts.invoke_bindings.iter().map(|b| (b.caller, b.loc, b.arg_array, b.callee)).collect();
        let mut view = ProgramView {
            program,
            pts,
            spec,
            views,
            loads_by_field,
            static_loads,
            return_sites,
            invoke_bindings,
            seeds: Vec::new(),
            ref_seeds: Vec::new(),
        };
        view.seeds = view.collect_seeds();
        view.ref_seeds = view.collect_ref_seeds();
        view
    }

    /// The view of `node`.
    pub fn node(&self, node: CGNodeId) -> &NodeView {
        &self.views[node.index()]
    }

    /// Aggregate size counters over every node view.
    pub fn stats(&self) -> ViewStats {
        let mut stats = ViewStats { nodes: self.views.len(), ..ViewStats::default() };
        for view in &self.views {
            stats.use_edges += view.uses.values().map(Vec::len).sum::<usize>();
            stats.loads += view.loads.len();
            stats.sources += view.sources.len();
        }
        stats
    }

    /// All taint seeds in the program: source calls plus synthetic source
    /// sites (§4.1.2).
    pub fn seeds(&self) -> &[(StmtNode, SourceCall)] {
        &self.seeds
    }

    /// By-reference taint seeds (footnote 2 of the paper): for every call
    /// site resolving to a `ref_sources` method, the contents of the
    /// flagged argument object become tainted. Lists, per site, the
    /// loads whose base may alias that object (their destinations are the
    /// initial slicing facts) and the argument's points-to set (for
    /// immediate carrier checks).
    pub fn ref_seeds(&self) -> &[RefSeed] {
        &self.ref_seeds
    }

    fn collect_seeds(&self) -> Vec<(StmtNode, SourceCall)> {
        let mut out = Vec::new();
        for node in self.pts.callgraph.iter_nodes() {
            for s in &self.node(node).sources {
                out.push((StmtNode { node, loc: s.loc }, *s));
            }
        }
        for site in &self.spec.synthetic_source_sites {
            if site.node.index() >= self.views.len() {
                continue;
            }
            if let Some((Some(d), method)) = self.call_at(site.node, site.loc) {
                let sc = SourceCall { loc: site.loc, dst: d, method };
                if !out.iter().any(|(st, _)| *st == *site) {
                    out.push((*site, sc));
                }
            }
        }
        out
    }

    fn collect_ref_seeds(&self) -> Vec<RefSeed> {
        let mut out = Vec::new();
        if self.spec.ref_sources.is_empty() {
            return out;
        }
        for node in self.pts.callgraph.iter_nodes() {
            let method = self.pts.callgraph.method_of(node);
            let Some(body) = self.program.method(method).body() else { continue };
            for (bid, block) in body.iter_blocks() {
                for (i, inst) in block.insts.iter().enumerate() {
                    let Inst::Call { args, .. } = inst else { continue };
                    let loc = Loc::new(bid, i);
                    let cg = &self.pts.callgraph;
                    let targets = cg.targets(node, loc).iter().map(|&t| cg.method_of(t));
                    let intrinsics = self.pts.intrinsics_at(node, loc).iter().map(|&(m, _)| m);
                    for callee in targets.chain(intrinsics) {
                        let Some(positions) = self.spec.ref_sources.get(&callee) else {
                            continue;
                        };
                        for &pos in positions {
                            let Some(&arg) = args.get(pos) else { continue };
                            let arg_pts = self.local_pts(node, arg);
                            if arg_pts.is_empty() {
                                continue;
                            }
                            let mut facts = Vec::new();
                            for loads in self.loads_by_field.values() {
                                for (lnode, l) in loads {
                                    let Some(lb) = l.base else { continue };
                                    let lpts = self.pts.local(*lnode, lb);
                                    if lpts.is_some_and(|s| s.intersects(&arg_pts)) {
                                        facts.push((*lnode, l.dst));
                                    }
                                }
                            }
                            // `loads_by_field` iterates in hash order.
                            facts.sort_unstable();
                            facts.dedup();
                            out.push(RefSeed {
                                stmt: StmtNode { node, loc },
                                method: callee,
                                arg_pts: arg_pts.clone(),
                                facts,
                            });
                        }
                    }
                }
            }
        }
        out
    }

    /// The destination register and first resolved callee of the call at
    /// `(node, loc)`, if it is a call.
    fn call_at(&self, node: CGNodeId, loc: Loc) -> Option<(Option<Var>, MethodId)> {
        let method = self.pts.callgraph.method_of(node);
        let body = self.program.method(method).body()?;
        let inst = body.blocks.get(loc.block.index())?.insts.get(loc.idx as usize)?;
        if let Inst::Call { dst, .. } = inst {
            let callee = self
                .pts
                .callgraph
                .targets(node, loc)
                .first()
                .map(|&t| self.pts.callgraph.method_of(t))
                .or_else(|| self.pts.intrinsics_at(node, loc).first().map(|&(m, _)| m))?;
            Some((*dst, callee))
        } else {
            None
        }
    }

    /// The points-to set of a local, empty if absent.
    pub fn local_pts(&self, node: CGNodeId, var: Var) -> jir::util::BitSet {
        self.pts.local(node, var).cloned().unwrap_or_default()
    }

    /// Whether the statement's owning method is library code (for LCP, §5).
    pub fn is_library_stmt(&self, stmt: StmtNode) -> bool {
        let m = self.pts.callgraph.method_of(stmt.node);
        self.program.class(self.program.method(m).owner).is_library
    }
}

fn call_dst_at(program: &Program, pts: &PointsTo, node: CGNodeId, loc: Loc) -> Option<Var> {
    let method = pts.callgraph.method_of(node);
    let body = program.method(method).body()?;
    let inst = body.blocks.get(loc.block.index())?.insts.get(loc.idx as usize)?;
    match inst {
        Inst::Call { dst, .. } => *dst,
        _ => None,
    }
}

fn build_node_view(
    program: &Program,
    pts: &PointsTo,
    spec: &SliceSpec,
    node: CGNodeId,
) -> NodeView {
    let method = pts.callgraph.method_of(node);
    let mut view = NodeView::default();
    let Some(body) = program.method(method).body() else {
        return view;
    };
    let mut add_use = |v: Var, u: Use| view.uses.entry(v).or_default().push(u);

    for (bid, block) in body.iter_blocks() {
        for (i, inst) in block.insts.iter().enumerate() {
            let loc = Loc::new(bid, i);
            match inst {
                Inst::Assign { dst, src, .. } => {
                    add_use(*src, Use::Flow { to: *dst, loc });
                }
                Inst::Phi { dst, srcs } => {
                    for (_, v) in srcs {
                        add_use(*v, Use::Flow { to: *dst, loc });
                    }
                }
                Inst::Select { dst, srcs } => {
                    for v in srcs {
                        add_use(*v, Use::Flow { to: *dst, loc });
                    }
                }
                Inst::Binary { dst, op, lhs, rhs } => {
                    // All binary operators are data dependencies; string
                    // concatenation is the taint-relevant one.
                    let _ = op;
                    let _ = BinOp::Concat;
                    add_use(*lhs, Use::Flow { to: *dst, loc });
                    add_use(*rhs, Use::Flow { to: *dst, loc });
                }
                Inst::Load { dst, base, field } => {
                    view.loads.push(LoadStmt {
                        loc,
                        base: Some(*base),
                        field: Some(FieldKey::Field(*field)),
                        static_field: None,
                        dst: *dst,
                    });
                }
                Inst::StaticLoad { dst, field } => {
                    view.loads.push(LoadStmt {
                        loc,
                        base: None,
                        field: None,
                        static_field: Some(*field),
                        dst: *dst,
                    });
                }
                Inst::ArrayLoad { dst, base, .. } => {
                    view.loads.push(LoadStmt {
                        loc,
                        base: Some(*base),
                        field: Some(FieldKey::Array),
                        static_field: None,
                        dst: *dst,
                    });
                }
                Inst::Store { base, field, src } => {
                    add_use(*src, Use::Store { loc, base: *base, field: FieldKey::Field(*field) });
                }
                Inst::ArrayStore { base, src, .. } => {
                    add_use(*src, Use::Store { loc, base: *base, field: FieldKey::Array });
                }
                Inst::StaticStore { field, src } => {
                    add_use(*src, Use::StaticStore { loc, field: *field });
                }
                Inst::Call { dst, recv, args, .. } => {
                    build_call_uses(
                        program,
                        pts,
                        spec,
                        node,
                        loc,
                        *dst,
                        *recv,
                        args,
                        &mut add_use,
                        &mut view.sources,
                    );
                    // Container intrinsics that survived model expansion
                    // (receiver static type too weak, e.g. an interface):
                    // model reads as pseudo-loads of the synthetic fields
                    // so direct store→load matching still applies.
                    for &(_, intr) in pts.intrinsics_at(node, loc) {
                        let field_names: &[&str] = match intr {
                            Intrinsic::CollGet => &[jir::expand::fields::ELEMS],
                            Intrinsic::BuilderToString => &[jir::expand::fields::CONTENT],
                            Intrinsic::MapGet => &[jir::expand::fields::MAP_UNKNOWN],
                            _ => continue,
                        };
                        if let (Some(d), Some(r)) = (*dst, *recv) {
                            for fname in field_names {
                                if let Some(f) = program.find_synthetic_field(fname) {
                                    view.loads.push(LoadStmt {
                                        loc,
                                        base: Some(r),
                                        field: Some(FieldKey::Field(f)),
                                        static_field: None,
                                        dst: d,
                                    });
                                }
                            }
                            // A fallback MapGet must cover every known key.
                            if intr == Intrinsic::MapGet {
                                for f in program.map_key_fields() {
                                    view.loads.push(LoadStmt {
                                        loc,
                                        base: Some(r),
                                        field: Some(FieldKey::Field(f)),
                                        static_field: None,
                                        dst: d,
                                    });
                                }
                            }
                        }
                    }
                }
                Inst::Const { .. }
                | Inst::New { .. }
                | Inst::NewArray { .. }
                | Inst::CatchBind { .. } => {}
            }
        }
        // Terminator: returns propagate to callers.
        let term_loc = Loc::new(bid, block.insts.len());
        if let Terminator::Return(Some(v)) = &block.term {
            add_use(*v, Use::Ret { loc: term_loc });
        }
    }
    view
}

#[allow(clippy::too_many_arguments)]
fn build_call_uses(
    _program: &Program,
    pts: &PointsTo,
    spec: &SliceSpec,
    node: CGNodeId,
    loc: Loc,
    dst: Option<Var>,
    recv: Option<Var>,
    args: &[Var],
    add_use: &mut impl FnMut(Var, Use),
    sources: &mut Vec<SourceCall>,
) {
    let mut has_body_target = false;
    let mut body_sanitizer = false;

    // Body callees (call-graph targets).
    for &target in pts.callgraph.targets(node, loc) {
        let callee = pts.callgraph.method_of(target);
        if spec.sanitizers.contains(&callee) {
            body_sanitizer = true;
            continue;
        }
        if let Some(positions) = spec.sinks.get(&callee) {
            for &p in positions {
                if let Some(&a) = args.get(p) {
                    add_use(a, Use::SinkArg { loc, method: callee, pos: p });
                }
            }
            continue; // flow does not continue into sink bodies
        }
        if spec.sources.contains(&callee) {
            if let Some(d) = dst {
                sources.push(SourceCall { loc, dst: d, method: callee });
            }
            continue;
        }
        has_body_target = true;
    }
    if has_body_target {
        for (i, &a) in args.iter().enumerate() {
            add_use(a, Use::Arg { loc, pos: i });
        }
    }

    // Intrinsic callees.
    for &(callee, intr) in pts.intrinsics_at(node, loc) {
        if spec.sanitizers.contains(&callee) {
            for &a in args {
                add_use(a, Use::Sanitized { loc });
            }
            continue;
        }
        if let Some(positions) = spec.sinks.get(&callee) {
            for &p in positions {
                if let Some(&a) = args.get(p) {
                    add_use(a, Use::SinkArg { loc, method: callee, pos: p });
                }
            }
        }
        if spec.sources.contains(&callee) {
            if let Some(d) = dst {
                sources.push(SourceCall { loc, dst: d, method: callee });
            }
            continue;
        }
        // Intrinsic dataflow.
        match intr {
            Intrinsic::Propagate | Intrinsic::GetMessage => {
                if let Some(d) = dst {
                    if let Some(r) = recv {
                        add_use(r, Use::Flow { to: d, loc });
                    }
                    if intr == Intrinsic::Propagate {
                        for &a in args {
                            add_use(a, Use::Flow { to: d, loc });
                        }
                    }
                }
            }
            Intrinsic::ReturnReceiver | Intrinsic::IterAlias => {
                if let (Some(d), Some(r)) = (dst, recv) {
                    add_use(r, Use::Flow { to: d, loc });
                }
            }
            // Container write fallbacks: model the stored value as a heap
            // store into the synthetic summary field.
            Intrinsic::CollAdd | Intrinsic::BuilderAppend | Intrinsic::MapPut => {
                let fname = match intr {
                    Intrinsic::CollAdd => jir::expand::fields::ELEMS,
                    Intrinsic::BuilderAppend => jir::expand::fields::CONTENT,
                    _ => jir::expand::fields::MAP_UNKNOWN,
                };
                if let (Some(r), Some(&v)) = (recv, args.last()) {
                    if let Some(f) = _program.find_synthetic_field(fname) {
                        add_use(v, Use::Store { loc, base: r, field: FieldKey::Field(f) });
                    }
                }
            }
            // The rest have no register-level dataflow to model.
            _ => {}
        }
    }

    // Sanitized args for body sanitizers (recorded once).
    if body_sanitizer {
        for &a in args {
            add_use(a, Use::Sanitized { loc });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taj_pointer::{analyze, SolverConfig};

    fn setup(src: &str) -> (Program, PointsTo) {
        let mut p = jir::frontend::build_program(src).unwrap();
        let c = p.class_by_name("Main").unwrap();
        let m = p.method_by_name(c, "main").unwrap();
        p.entrypoints.push(m);
        let pts = analyze(&p, &SolverConfig::default());
        (p, pts)
    }

    fn default_spec(p: &Program) -> SliceSpec {
        let req = p.class_by_name("HttpServletRequest").unwrap();
        let gp = p.method_by_name(req, "getParameter").unwrap();
        let pw = p.class_by_name("PrintWriter").unwrap();
        let println = p.method_by_name(pw, "println").unwrap();
        let enc = p.class_by_name("URLEncoder").unwrap();
        let encode = p.method_by_name(enc, "encode").unwrap();
        let mut spec = SliceSpec::default();
        spec.sources.insert(gp);
        spec.sinks.insert(println, vec![0]);
        spec.sanitizers.insert(encode);
        spec
    }

    #[test]
    fn seeds_found() {
        let (p, pts) = setup(
            r#"
            class Main {
                static method void main() {
                    HttpServletRequest req = new HttpServletRequest();
                    String t = req.getParameter("x");
                }
            }
            "#,
        );
        let spec = default_spec(&p);
        let view = ProgramView::build(&p, &pts, &spec);
        assert_eq!(view.seeds().len(), 1);
    }

    #[test]
    fn sink_args_classified() {
        let (p, pts) = setup(
            r#"
            class Main {
                static method void main() {
                    HttpServletResponse resp = new HttpServletResponse();
                    PrintWriter w = resp.getWriter();
                    w.println("x");
                }
            }
            "#,
        );
        let spec = default_spec(&p);
        let view = ProgramView::build(&p, &pts, &spec);
        let has_sink = pts.callgraph.iter_nodes().any(|n| {
            view.node(n).uses.values().flatten().any(|u| matches!(u, Use::SinkArg { .. }))
        });
        assert!(has_sink, "println argument should be a SinkArg");
    }

    #[test]
    fn sanitizer_stops_classification() {
        let (p, pts) = setup(
            r#"
            class Main {
                static method void main() {
                    HttpServletRequest req = new HttpServletRequest();
                    String t = req.getParameter("x");
                    String s = URLEncoder.encode(t);
                }
            }
            "#,
        );
        let spec = default_spec(&p);
        let view = ProgramView::build(&p, &pts, &spec);
        let has_sanitized = pts.callgraph.iter_nodes().any(|n| {
            view.node(n).uses.values().flatten().any(|u| matches!(u, Use::Sanitized { .. }))
        });
        assert!(has_sanitized);
        // And no Flow use may exist at the same statement as the
        // sanitization (the sanitizer's Propagate semantics are overridden).
        for n in pts.callgraph.iter_nodes() {
            let sanitized_locs: Vec<Loc> = view
                .node(n)
                .uses
                .values()
                .flatten()
                .filter_map(|u| match u {
                    Use::Sanitized { loc } => Some(*loc),
                    _ => None,
                })
                .collect();
            let flows_at_sanitizer = view
                .node(n)
                .uses
                .values()
                .flatten()
                .any(|u| matches!(u, Use::Flow { loc, .. } if sanitized_locs.contains(loc)));
            assert!(!flows_at_sanitizer, "sanitized arg must not also flow");
        }
    }

    #[test]
    fn concat_is_flow() {
        let (p, pts) = setup(
            r#"
            class Main {
                static method void main() {
                    HttpServletRequest req = new HttpServletRequest();
                    String t = req.getParameter("x");
                    String u = "pre" + t;
                }
            }
            "#,
        );
        let spec = default_spec(&p);
        let view = ProgramView::build(&p, &pts, &spec);
        let flows = pts
            .callgraph
            .iter_nodes()
            .flat_map(|n| view.node(n).uses.values().flatten().cloned().collect::<Vec<_>>())
            .filter(|u| matches!(u, Use::Flow { .. }))
            .count();
        assert!(flows >= 1, "concat should register local flow");
    }

    #[test]
    fn loads_indexed_by_field() {
        let (p, pts) = setup(
            r#"
            class Box { field Object v; ctor (Object v) { this.v = v; } method Object get() { return this.v; } }
            class Main {
                static method void main() {
                    Box b = new Box(new Object());
                    Object o = b.get();
                }
            }
            "#,
        );
        let spec = default_spec(&p);
        let view = ProgramView::build(&p, &pts, &spec);
        let box_c = p.class_by_name("Box").unwrap();
        let v_field = p.field_by_name(box_c, "v").unwrap();
        assert!(view.loads_by_field.contains_key(&FieldKey::Field(v_field)));
    }

    #[test]
    fn ref_seed_facts_do_not_depend_on_hash_order() {
        // Loads of four distinct fields alias the by-reference argument,
        // so they sit under four keys of the hash-ordered load index.
        let (p, pts) = setup(
            r#"
            class Chunk extends ByteBuffer { field String head; field String tail; field String mid; }
            class Main {
                static method void main() {
                    RandomAccessFile f = new RandomAccessFile("in.bin");
                    Chunk c = new Chunk();
                    f.readFully(c);
                    String a = c.head;
                    String b = c.tail;
                    String d = c.mid;
                    String e = c.data;
                }
            }
            "#,
        );
        let mut spec = default_spec(&p);
        let raf = p.class_by_name("RandomAccessFile").unwrap();
        spec.ref_sources.insert(p.method_by_name(raf, "readFully").unwrap(), vec![0]);
        let facts = || ProgramView::build(&p, &pts, &spec).ref_seeds()[0].facts.clone();
        let first = facts();
        assert!(first.len() >= 4, "every aliased load is a fact: {first:?}");
        for _ in 0..16 {
            assert_eq!(facts(), first);
        }
    }
}
