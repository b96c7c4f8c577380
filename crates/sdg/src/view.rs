//! The slicers' view of the program, in two layers.
//!
//! [`SliceIndex`] holds everything that does not depend on a security
//! rule: per-node def-use roles, the load inventories, return plumbing,
//! and the inventory of *rule-sensitive* call sites — the sites with a
//! body or intrinsic callee that some rule treats as a source, sink,
//! sanitizer or by-reference source. Only those sites are classified
//! differently per rule, so the index leaves their uses out. One index is
//! built per phase-2 pass.
//!
//! [`ProgramView`] is one rule's thin layer on top: that rule's
//! classification of the sensitive sites, merged into the few use lists
//! they touch, and the rule's seed lists. All slicers consume the view.

use jir::inst::{Inst, Loc, Terminator, Var};
use jir::method::{Body, Intrinsic};
use jir::util::{BitSet, FxHashMap, FxHashSet};
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
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
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

impl Use {
    /// The statement (or terminator pseudo-location) of the use.
    pub fn loc(&self) -> Loc {
        match *self {
            Use::Flow { loc, .. }
            | Use::Store { loc, .. }
            | Use::StaticStore { loc, .. }
            | Use::Arg { loc, .. }
            | Use::Ret { loc }
            | Use::SinkArg { loc, .. }
            | Use::Sanitized { loc } => loc,
        }
    }
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
#[derive(Clone, Debug, PartialEq)]
pub struct RefSeed {
    /// The call statement invoking the by-reference source.
    pub stmt: StmtNode,
    /// The resolved by-reference source method.
    pub method: MethodId,
    /// Points-to set of the tainted argument object.
    pub arg_pts: BitSet,
    /// Initial slicing facts: destinations of loads that may read the
    /// tainted object's state, sorted and deduplicated.
    pub facts: Vec<(CGNodeId, Var)>,
}

/// A call statement of a node, as the index inventories it.
#[derive(Clone, Copy, Debug)]
pub struct CallSite<'a> {
    /// The calling node.
    pub node: CGNodeId,
    /// The call statement.
    pub loc: Loc,
    /// Result register.
    pub dst: Option<Var>,
    /// Receiver register.
    pub recv: Option<Var>,
    /// Argument registers.
    pub args: &'a [Var],
}

/// Items grouped under dense keys: key `k`'s items are
/// `items[start[k]..start[k + 1]]`, in the order they were added. One
/// flat allocation instead of one per key.
#[derive(Debug)]
struct Grouped<T> {
    start: Vec<u32>,
    items: Vec<T>,
}

impl<T: Copy> Grouped<T> {
    fn new() -> Self {
        Grouped { start: vec![0], items: Vec::new() }
    }

    /// Key `k`'s items (empty past the last key).
    fn get(&self, k: usize) -> &[T] {
        match (self.start.get(k), self.start.get(k + 1)) {
            (Some(&s), Some(&e)) => &self.items[s as usize..e as usize],
            _ => &[],
        }
    }

    /// Closes the current key: the items added since the last close.
    fn close(&mut self) {
        self.start.push(self.items.len() as u32);
    }

    /// Appends `n` keys from `(key, item)` pairs numbered from the first
    /// new key, keeping each key's items in pair order (a stable sort),
    /// and empties `pairs`.
    fn extend_grouped(&mut self, n: usize, pairs: &mut Vec<(u32, T)>) {
        pairs.sort_by_key(|&(k, _)| k);
        let mut rest = pairs.drain(..).peekable();
        for k in 0..n as u32 {
            while let Some((_, item)) = rest.next_if(|&(pk, _)| pk == k) {
                self.items.push(item);
            }
            self.close();
        }
        debug_assert!(rest.next().is_none(), "key out of range");
    }
}

/// Marks a register slot no call site of any rule can change.
const NOT_SENSITIVE: u32 = u32::MAX;

/// Aggregate size counters of a [`SliceIndex`] or a [`ProgramView`] —
/// the SDG-side numbers tracing attaches to the `phase2.views` span.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ViewStats {
    /// Call-graph nodes indexed.
    pub nodes: usize,
    /// Register-use edges: the index's rule-independent ones, or the ones
    /// a rule classified at the rule-sensitive call sites.
    pub use_edges: usize,
    /// Heap/static load statements indexed.
    pub loads: usize,
    /// Source (taint-seed) calls found.
    pub sources: usize,
}

impl ViewStats {
    /// Component-wise sum, for aggregating the index and its rule views.
    pub fn add(&mut self, other: ViewStats) {
        self.nodes += other.nodes;
        self.use_edges += other.use_edges;
        self.loads += other.loads;
        self.sources += other.sources;
    }
}

/// The rule-independent slicing index over one phase-1 result: every
/// node's def-use roles and loads, the program-wide load and return
/// indices, and the rule-sensitive call sites. Built once per phase-2
/// pass; each rule's [`ProgramView`] borrows it.
#[derive(Debug)]
pub struct SliceIndex<'a> {
    /// The analyzed program.
    pub program: &'a Program,
    /// Phase-1 results.
    pub pts: &'a PointsTo,
    /// Methods some rule classifies: their call sites are rule-sensitive.
    sensitive_methods: FxHashSet<MethodId>,
    /// Each node's first register slot (one slot per SSA register of its
    /// body, `Body::num_vars`), then the total.
    node_slot: Vec<u32>,
    /// Uses per register slot in statement order, leaving out the uses
    /// at rule-sensitive call sites.
    uses: Grouped<Use>,
    /// Per slot: its position in `sensitive`, or [`NOT_SENSITIVE`].
    sensitive_rank: Vec<u32>,
    /// Registers read at a rule-sensitive call site, in `(node, var)`
    /// order: the only use lists a rule's classification changes.
    sensitive: Vec<(CGNodeId, Var)>,
    /// Loads per node in statement order, container pseudo-loads
    /// included.
    loads: Grouped<LoadStmt>,
    /// All instance/array loads, grouped by field key, in node order.
    pub loads_by_field: FxHashMap<FieldKey, Vec<(CGNodeId, LoadStmt)>>,
    /// All static loads by field, in node order.
    pub static_loads: FxHashMap<FieldId, Vec<(CGNodeId, LoadStmt)>>,
    /// Per callee node: incoming call sites `(caller, loc, dst)` — where
    /// its return value lands.
    return_sites: Grouped<(CGNodeId, Loc, Option<Var>)>,
    /// Reflective invoke bindings grouped for array-store matching:
    /// `(caller node, call loc, array var, callee node)`.
    pub invoke_bindings: Vec<(CGNodeId, Loc, Var, CGNodeId)>,
    /// Rule-sensitive call sites in `(node, loc)` order.
    sites: Vec<CallSite<'a>>,
    /// Sensitive callee method → positions of its sites in `sites`,
    /// ascending.
    sites_by_callee: FxHashMap<MethodId, Vec<u32>>,
    /// What `local_pts` lends for registers without a points-to set.
    empty_pts: BitSet,
}

impl<'a> SliceIndex<'a> {
    /// Builds the index for slicing under any of `specs`: a call site is
    /// rule-sensitive when one of its callees is among their sources,
    /// sinks, sanitizers or by-reference sources.
    pub fn build<'s>(
        program: &'a Program,
        pts: &'a PointsTo,
        specs: impl IntoIterator<Item = &'s SliceSpec>,
    ) -> Self {
        let cg = &pts.callgraph;
        let mut index = SliceIndex {
            program,
            pts,
            sensitive_methods: specs.into_iter().flat_map(SliceSpec::methods).collect(),
            node_slot: vec![0],
            uses: Grouped::new(),
            sensitive_rank: Vec::new(),
            sensitive: Vec::new(),
            loads: Grouped::new(),
            loads_by_field: FxHashMap::default(),
            static_loads: FxHashMap::default(),
            return_sites: Grouped::new(),
            invoke_bindings: Vec::new(),
            sites: Vec::new(),
            sites_by_callee: FxHashMap::default(),
            empty_pts: BitSet::new(),
        };
        let mut pairs: Vec<(u32, Use)> = Vec::new();
        for node in cg.iter_nodes() {
            let first_site = index.sites.len();
            let body = program.method(cg.method_of(node)).body();
            if let Some(body) = body {
                index.scan_body(node, body, &mut pairs);
            }
            let num_vars = body.map_or(0, |b| b.num_vars);
            index.uses.extend_grouped(num_vars as usize, &mut pairs);
            index.loads.close();
            let mut read: Vec<Var> = index.sites[first_site..]
                .iter()
                .flat_map(|s| s.recv.iter().chain(s.args))
                .copied()
                .collect();
            read.sort_unstable();
            read.dedup();
            let first_slot = index.node_slot[node.index()];
            index.sensitive_rank.resize((first_slot + num_vars) as usize, NOT_SENSITIVE);
            for v in read {
                index.sensitive_rank[(first_slot + v.0) as usize] = index.sensitive.len() as u32;
                index.sensitive.push((node, v));
            }
            index.node_slot.push(first_slot + num_vars);
        }
        for node in cg.iter_nodes() {
            for &l in index.loads.get(node.index()) {
                if let Some(f) = l.field {
                    index.loads_by_field.entry(f).or_default().push((node, l));
                } else if let Some(sf) = l.static_field {
                    index.static_loads.entry(sf).or_default().push((node, l));
                }
            }
        }
        let mut returns: Vec<_> = cg
            .edges
            .iter()
            .map(|e| (e.callee.0, (e.caller, e.loc, index.call_dst(e.caller, e.loc))))
            .collect();
        index.return_sites.extend_grouped(cg.len(), &mut returns);
        index.invoke_bindings =
            pts.invoke_bindings.iter().map(|b| (b.caller, b.loc, b.arg_array, b.callee)).collect();
        for (i, site) in index.sites.iter().enumerate() {
            for callee in callees(pts, site) {
                if index.sensitive_methods.contains(&callee) {
                    let ids = index.sites_by_callee.entry(callee).or_default();
                    if ids.last() != Some(&(i as u32)) {
                        ids.push(i as u32);
                    }
                }
            }
        }
        index
    }

    /// Records one body's rule-independent uses (as `(var, use)` pairs in
    /// statement order), loads and rule-sensitive call sites.
    fn scan_body(&mut self, node: CGNodeId, body: &'a Body, pairs: &mut Vec<(u32, Use)>) {
        let (program, pts) = (self.program, self.pts);
        let mut add_use = |v: Var, u: Use| pairs.push((v.0, u));
        for (bid, block) in body.iter_blocks() {
            for (i, inst) in block.insts.iter().enumerate() {
                let loc = Loc::new(bid, i);
                let mut load = |base: Option<Var>, field, static_field, dst| {
                    self.loads.items.push(LoadStmt { loc, base, field, static_field, dst });
                };
                match inst {
                    Inst::Assign { dst, src, .. } => add_use(*src, Use::Flow { to: *dst, loc }),
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
                    // Every binary operator is a data dependency; string
                    // concatenation is the taint-relevant one.
                    Inst::Binary { dst, lhs, rhs, .. } => {
                        add_use(*lhs, Use::Flow { to: *dst, loc });
                        add_use(*rhs, Use::Flow { to: *dst, loc });
                    }
                    Inst::Load { dst, base, field } => {
                        load(Some(*base), Some(FieldKey::Field(*field)), None, *dst)
                    }
                    Inst::StaticLoad { dst, field } => load(None, None, Some(*field), *dst),
                    Inst::ArrayLoad { dst, base, .. } => {
                        load(Some(*base), Some(FieldKey::Array), None, *dst)
                    }
                    Inst::Store { base, field, src } => add_use(
                        *src,
                        Use::Store { loc, base: *base, field: FieldKey::Field(*field) },
                    ),
                    Inst::ArrayStore { base, src, .. } => {
                        add_use(*src, Use::Store { loc, base: *base, field: FieldKey::Array })
                    }
                    Inst::StaticStore { field, src } => {
                        add_use(*src, Use::StaticStore { loc, field: *field })
                    }
                    Inst::Call { dst, recv, args, .. } => {
                        let site = CallSite { node, loc, dst: *dst, recv: *recv, args };
                        let targets = pts.callgraph.targets(node, loc);
                        let intrinsics = pts.intrinsics_at(node, loc);
                        container_loads(program, intrinsics, &site, &mut self.loads.items);
                        let body_callees = targets.iter().map(|&t| pts.callgraph.method_of(t));
                        let mut callees = body_callees.chain(intrinsics.iter().map(|&(m, _)| m));
                        if callees.any(|m| self.sensitive_methods.contains(&m)) {
                            self.sites.push(site);
                        } else {
                            // No rule classifies a callee: arguments flow
                            // into the body callees, and each intrinsic
                            // adds its own dataflow.
                            if !targets.is_empty() {
                                for (pos, &a) in args.iter().enumerate() {
                                    add_use(a, Use::Arg { loc, pos });
                                }
                            }
                            for &(_, intr) in intrinsics {
                                intrinsic_uses(program, intr, &site, &mut add_use);
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
            if let Terminator::Return(Some(v)) = &block.term {
                add_use(*v, Use::Ret { loc: Loc::new(bid, block.insts.len()) });
            }
        }
    }

    /// The register slot of `(node, var)`, if `var` is a register of the
    /// node's body.
    fn slot(&self, node: CGNodeId, var: Var) -> Option<usize> {
        let first = *self.node_slot.get(node.index())?;
        let end = *self.node_slot.get(node.index() + 1)?;
        let slot = first + var.0;
        (slot < end).then_some(slot as usize)
    }

    /// The number of register slots of `node` (its body's `num_vars`).
    pub(crate) fn num_vars(&self, node: CGNodeId) -> u32 {
        self.node_slot[node.index() + 1] - self.node_slot[node.index()]
    }

    /// The uses of `(node, var)` that no rule changes — every use
    /// outside the rule-sensitive call sites.
    fn base_uses(&self, node: CGNodeId, var: Var) -> &[Use] {
        self.slot(node, var).map_or(&[], |slot| self.uses.get(slot))
    }

    /// The registers of `node` with a use that no rule changes, in
    /// ascending order: they have uses under every rule.
    pub(crate) fn registers_with_shared_uses(
        &self,
        node: CGNodeId,
    ) -> impl Iterator<Item = Var> + '_ {
        (0..self.num_vars(node)).map(Var).filter(move |&v| !self.base_uses(node, v).is_empty())
    }

    /// The loads of `node`, in statement order.
    pub fn loads(&self, node: CGNodeId) -> &[LoadStmt] {
        self.loads.get(node.index())
    }

    /// Incoming call sites `(caller, loc, dst)` of `node`, in call-graph
    /// edge order.
    pub fn return_sites(&self, node: CGNodeId) -> &[(CGNodeId, Loc, Option<Var>)] {
        self.return_sites.get(node.index())
    }

    /// The rule-sensitive call sites that call any of `methods`, in
    /// `(node, loc)` order.
    pub fn sites_calling(&self, methods: impl IntoIterator<Item = MethodId>) -> Vec<&CallSite<'a>> {
        let mut ids: Vec<u32> = methods
            .into_iter()
            .filter_map(|m| self.sites_by_callee.get(&m))
            .flatten()
            .copied()
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids.into_iter().map(|i| &self.sites[i as usize]).collect()
    }

    /// The points-to set of a local, empty if absent.
    pub fn local_pts(&self, node: CGNodeId, var: Var) -> &BitSet {
        self.pts.local(node, var).unwrap_or(&self.empty_pts)
    }

    /// The destination register of the call at `(node, loc)`, if it is a
    /// call with one.
    pub fn call_dst(&self, node: CGNodeId, loc: Loc) -> Option<Var> {
        let body = self.program.method(self.pts.callgraph.method_of(node)).body()?;
        match body.blocks.get(loc.block.index())?.insts.get(loc.idx as usize)? {
            Inst::Call { dst, .. } => *dst,
            _ => None,
        }
    }

    /// Whether the statement's owning method is library code (for LCP, §5).
    pub fn is_library_stmt(&self, stmt: StmtNode) -> bool {
        let m = self.pts.callgraph.method_of(stmt.node);
        self.program.class(self.program.method(m).owner).is_library
    }

    /// Aggregate size counters (`sources` is per rule, so 0 here).
    pub fn stats(&self) -> ViewStats {
        ViewStats {
            nodes: self.node_slot.len() - 1,
            use_edges: self.uses.items.len(),
            loads: self.loads.items.len(),
            sources: 0,
        }
    }
}

/// Every resolved callee of a call site: body callees, then intrinsics.
fn callees<'p>(pts: &'p PointsTo, site: &CallSite<'_>) -> impl Iterator<Item = MethodId> + 'p {
    let cg = &pts.callgraph;
    let targets = cg.targets(site.node, site.loc).iter().map(|&t| cg.method_of(t));
    targets.chain(pts.intrinsics_at(site.node, site.loc).iter().map(|&(m, _)| m))
}

/// Container intrinsics that survived model expansion (receiver static
/// type too weak, e.g. an interface) model reads as pseudo-loads of the
/// synthetic fields, so direct store→load matching still applies.
fn container_loads(
    program: &Program,
    intrinsics: &[(MethodId, Intrinsic)],
    site: &CallSite<'_>,
    loads: &mut Vec<LoadStmt>,
) {
    let (Some(d), Some(r)) = (site.dst, site.recv) else { return };
    for &(_, intr) in intrinsics {
        let field_names: &[&str] = match intr {
            Intrinsic::CollGet => &[jir::expand::fields::ELEMS],
            Intrinsic::BuilderToString => &[jir::expand::fields::CONTENT],
            Intrinsic::MapGet => &[jir::expand::fields::MAP_UNKNOWN],
            _ => continue,
        };
        let mut load = |f| {
            loads.push(LoadStmt {
                loc: site.loc,
                base: Some(r),
                field: Some(FieldKey::Field(f)),
                static_field: None,
                dst: d,
            })
        };
        for fname in field_names {
            if let Some(f) = program.find_synthetic_field(fname) {
                load(f);
            }
        }
        // A fallback MapGet must cover every known key.
        if intr == Intrinsic::MapGet {
            for f in program.map_key_fields() {
                load(f);
            }
        }
    }
}

/// The register-level dataflow of an intrinsic callee at a call site.
fn intrinsic_uses(
    program: &Program,
    intr: Intrinsic,
    site: &CallSite<'_>,
    add_use: &mut impl FnMut(Var, Use),
) {
    let (loc, dst, recv, args) = (site.loc, site.dst, site.recv, site.args);
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
                if let Some(f) = program.find_synthetic_field(fname) {
                    add_use(v, Use::Store { loc, base: r, field: FieldKey::Field(f) });
                }
            }
        }
        // The rest have no register-level dataflow to model.
        _ => {}
    }
}

/// The uses of a call site's registers under `spec`, and the source calls
/// it makes (§3): sink arguments, sanitized arguments, arguments flowing
/// into the remaining body callees, and intrinsic dataflow.
fn classify_call(
    program: &Program,
    pts: &PointsTo,
    spec: &SliceSpec,
    site: &CallSite<'_>,
    add_use: &mut impl FnMut(Var, Use),
    seeds: &mut Vec<(StmtNode, SourceCall)>,
) {
    let (node, loc, dst, args) = (site.node, site.loc, site.dst, site.args);
    let stmt = StmtNode { node, loc };
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
                seeds.push((stmt, SourceCall { loc, dst: d, method: callee }));
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
                seeds.push((stmt, SourceCall { loc, dst: d, method: callee }));
            }
            continue;
        }
        intrinsic_uses(program, intr, site, add_use);
    }

    // Sanitized args for body sanitizers (recorded once).
    if body_sanitizer {
        for &a in args {
            add_use(a, Use::Sanitized { loc });
        }
    }
}

/// One rule's slicing view: the [`SliceIndex`] plus the rule's
/// classification of the rule-sensitive call sites and its seed lists.
#[derive(Debug)]
pub struct ProgramView<'a> {
    /// The analyzed program.
    pub program: &'a Program,
    /// Phase-1 results.
    pub pts: &'a PointsTo,
    /// The rule-independent index this view layers on.
    pub index: &'a SliceIndex<'a>,
    /// The rule projection.
    pub spec: &'a SliceSpec,
    /// The full use lists of the index's sensitive registers under this
    /// rule, by their position in `SliceIndex::sensitive`.
    overlay: Grouped<Use>,
    /// Uses this rule's classification added at the sensitive sites.
    classified_uses: usize,
    /// Source calls found (the seeds before synthetic sites).
    source_calls: usize,
    seeds: Vec<(StmtNode, SourceCall)>,
    ref_seeds: Vec<RefSeed>,
}

impl<'a> ProgramView<'a> {
    /// Classifies the index's rule-sensitive call sites under `spec`,
    /// and builds both seed lists once: every slicing unit of the rule
    /// borrows them.
    ///
    /// # Panics
    /// If `index` was built without `spec` among its rules.
    pub fn build(index: &'a SliceIndex<'a>, spec: &'a SliceSpec) -> Self {
        assert!(
            spec.methods().all(|m| index.sensitive_methods.contains(&m)),
            "the slice index was built without this rule's methods"
        );
        let mut seeds = Vec::new();
        let mut classified: Vec<(u32, Use)> = Vec::new();
        for site in &index.sites {
            let first_slot = index.node_slot[site.node.index()];
            let mut add_use = |v: Var, u: Use| {
                classified.push((index.sensitive_rank[(first_slot + v.0) as usize], u));
            };
            classify_call(index.program, index.pts, spec, site, &mut add_use, &mut seeds);
        }
        let classified_uses = classified.len();
        // Each sensitive register's list is its rule-independent uses and
        // this rule's, merged back into statement order (the two never
        // share a statement).
        let mut rule_uses = Grouped::new();
        rule_uses.extend_grouped(index.sensitive.len(), &mut classified);
        let mut overlay = Grouped::new();
        for (rank, &(node, var)) in index.sensitive.iter().enumerate() {
            let (base, rule) = (index.base_uses(node, var), rule_uses.get(rank));
            let (mut b, mut r) = (0, 0);
            while b < base.len() || r < rule.len() {
                if r == rule.len() || (b < base.len() && base[b].loc() < rule[r].loc()) {
                    overlay.items.push(base[b]);
                    b += 1;
                } else {
                    overlay.items.push(rule[r]);
                    r += 1;
                }
            }
            overlay.close();
        }
        let source_calls = seeds.len();
        for site in &spec.synthetic_source_sites {
            if site.node.index() >= index.pts.callgraph.len() {
                continue;
            }
            if let Some((Some(d), method)) = call_at(index, site.node, site.loc) {
                let sc = SourceCall { loc: site.loc, dst: d, method };
                if !seeds.iter().any(|(st, _)| *st == *site) {
                    seeds.push((*site, sc));
                }
            }
        }
        ProgramView {
            program: index.program,
            pts: index.pts,
            index,
            spec,
            overlay,
            classified_uses,
            source_calls,
            seeds,
            ref_seeds: collect_ref_seeds(index, spec),
        }
    }

    /// The uses of `(node, var)` under this rule, in statement order.
    pub fn uses(&self, node: CGNodeId, var: Var) -> &[Use] {
        let Some(slot) = self.index.slot(node, var) else { return &[] };
        match self.index.sensitive_rank[slot] {
            NOT_SENSITIVE => self.index.uses.get(slot),
            rank => self.overlay.get(rank as usize),
        }
    }

    /// The register of `callee` that receives argument `pos` (the
    /// receiver not counted), if the callee has that many parameters.
    pub(crate) fn param_register(&self, callee: MethodId, pos: usize) -> Option<Var> {
        let m = self.program.method(callee);
        let reg = pos + usize::from(!m.is_static);
        (reg < m.num_incoming()).then_some(Var(reg as u32))
    }

    /// Every parameter register of `callee`, the receiver not counted.
    pub(crate) fn param_registers(&self, callee: MethodId) -> impl Iterator<Item = Var> + '_ {
        (0..).map_while(move |pos| self.param_register(callee, pos))
    }

    /// Where taint passed as argument `pos` enters the body of `callee`:
    /// its parameter register, unless this rule makes the callee a
    /// sanitizer, source or sink, whose classified use handles the call.
    pub(crate) fn callee_entry(&self, callee: MethodId, pos: usize) -> Option<Var> {
        let spec = self.spec;
        if spec.sanitizers.contains(&callee)
            || spec.sources.contains(&callee)
            || spec.sinks.contains_key(&callee)
        {
            return None;
        }
        self.param_register(callee, pos)
    }

    /// The registers whose only uses are this rule's classification of
    /// rule-sensitive call sites, in `(node, var)` order: with
    /// [`SliceIndex::registers_with_shared_uses`], every register that
    /// has a use under this rule.
    pub(crate) fn rule_only_registers(&self) -> impl Iterator<Item = (CGNodeId, Var)> + '_ {
        let index = self.index;
        let registers = index.sensitive.iter().enumerate();
        registers
            .filter(move |&(rank, &(node, var))| {
                index.base_uses(node, var).is_empty() && !self.overlay.get(rank).is_empty()
            })
            .map(|(_, &register)| register)
    }

    /// Size counters of this rule's layer (`nodes` and `loads` belong to
    /// the index, so 0 here).
    pub fn stats(&self) -> ViewStats {
        ViewStats {
            use_edges: self.classified_uses,
            sources: self.source_calls,
            ..ViewStats::default()
        }
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
}

fn collect_ref_seeds(index: &SliceIndex<'_>, spec: &SliceSpec) -> Vec<RefSeed> {
    let mut out = Vec::new();
    for site in index.sites_calling(spec.ref_sources.keys().copied()) {
        for callee in callees(index.pts, site) {
            let Some(positions) = spec.ref_sources.get(&callee) else { continue };
            for &pos in positions {
                let Some(&arg) = site.args.get(pos) else { continue };
                let arg_pts = index.local_pts(site.node, arg);
                if arg_pts.is_empty() {
                    continue;
                }
                let mut facts = Vec::new();
                for loads in index.loads_by_field.values() {
                    for (lnode, l) in loads {
                        let Some(lb) = l.base else { continue };
                        if index.local_pts(*lnode, lb).intersects(arg_pts) {
                            facts.push((*lnode, l.dst));
                        }
                    }
                }
                // `loads_by_field` iterates in hash order.
                facts.sort_unstable();
                facts.dedup();
                out.push(RefSeed {
                    stmt: StmtNode { node: site.node, loc: site.loc },
                    method: callee,
                    arg_pts: arg_pts.clone(),
                    facts,
                });
            }
        }
    }
    out
}

/// The destination register and first resolved callee of the call at
/// `(node, loc)`, if it is a call.
fn call_at(index: &SliceIndex<'_>, node: CGNodeId, loc: Loc) -> Option<(Option<Var>, MethodId)> {
    let body = index.program.method(index.pts.callgraph.method_of(node)).body()?;
    let Inst::Call { dst, .. } = body.blocks.get(loc.block.index())?.insts.get(loc.idx as usize)?
    else {
        return None;
    };
    let callee = index
        .pts
        .callgraph
        .targets(node, loc)
        .first()
        .map(|&t| index.pts.callgraph.method_of(t))
        .or_else(|| index.pts.intrinsics_at(node, loc).first().map(|&(m, _)| m))?;
    Some((*dst, callee))
}

/// The per-node, per-rule classifier the index and its rule layer
/// replaced, kept as the reference they must agree with, and a program
/// that exercises every way a rule changes a call site.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use std::collections::HashMap;

    /// The method `class.name`.
    pub(crate) fn method(p: &Program, class: &str, name: &str) -> MethodId {
        p.method_by_name(p.class_by_name(class).unwrap(), name).unwrap()
    }

    /// Analyzes `src` with `Main.main` as the entrypoint.
    pub(crate) fn setup(src: &str) -> (Program, PointsTo) {
        let mut p = jir::frontend::build_program(src).unwrap();
        let c = p.class_by_name("Main").unwrap();
        let m = p.method_by_name(c, "main").unwrap();
        p.entrypoints.push(m);
        let pts = taj_pointer::analyze(&p, &taj_pointer::SolverConfig::default());
        (p, pts)
    }

    /// Exercises every way a rule changes a call site's classification.
    pub(crate) const RULE_SENSITIVE: &str = r#"
        class Base { ctor () { } method void emit(String s) { } }
        class Loud extends Base { ctor () { } method void emit(String s) { } }
        class Util {
            static method String clean(String s) { return s; }
            static method Base pick(boolean c) {
                Base b = new Base();
                if (c) { b = new Loud(); }
                return b;
            }
        }
        class Chunk extends ByteBuffer { field String head; }
        class Main {
            static method void main() {
                HttpServletRequest req = new HttpServletRequest();
                HttpServletResponse resp = new HttpServletResponse();
                PrintWriter w = resp.getWriter();
                String t = req.getParameter("x");
                String h = req.getHeader("h");
                w.println(t);
                String u = "pre" + t;
                Base b = Util.pick(true);
                b.emit(u);
                String c = Util.clean(h);
                String e = URLEncoder.encode(c);
                w.println(e);
                RandomAccessFile f = new RandomAccessFile("in.bin");
                Chunk k = new Chunk();
                f.readFully(k);
                String head = k.head;
                Map m = new HashMap();
                m.put("key", head);
                Object got = m.get("key");
                List l = new ArrayList();
                l.add(t);
                Object first = l.get(0);
                Main.show(w, got, first);
                Object plain = new Object();
                w.println(plain);
            }
            static method void show(PrintWriter w, Object a, Object b) {
                w.println(a);
                w.println(b);
            }
        }
    "#;

    /// Two rules that classify the same methods differently, plus the
    /// empty rule.
    pub(crate) fn rule_sensitive_specs(p: &Program) -> Vec<SliceSpec> {
        let (println, emit) = (method(p, "PrintWriter", "println"), method(p, "Loud", "emit"));
        let (clean, encode) = (method(p, "Util", "clean"), method(p, "URLEncoder", "encode"));
        let mut a = SliceSpec::default();
        a.sources.insert(method(p, "HttpServletRequest", "getParameter"));
        a.sinks.insert(println, vec![0]);
        a.sinks.insert(emit, vec![0]);
        a.sanitizers.extend([clean, encode]);
        a.ref_sources.insert(method(p, "RandomAccessFile", "readFully"), vec![0]);
        let mut b = SliceSpec::default();
        b.sources.insert(method(p, "HttpServletRequest", "getHeader"));
        b.sinks.insert(clean, vec![0]);
        b.sinks.insert(encode, vec![0]);
        b.sanitizers.insert(emit);
        b.sanitizers.insert(println);
        vec![a, b, SliceSpec::default()]
    }

    /// One node's uses, loads and source calls under one rule.
    #[derive(Debug, Default)]
    pub(crate) struct NodeView {
        pub(crate) uses: HashMap<Var, Vec<Use>>,
        pub(crate) loads: Vec<LoadStmt>,
        pub(crate) sources: Vec<SourceCall>,
    }

    pub(crate) fn build_node_view(
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
                let mut load = |base, field, static_field, dst| {
                    view.loads.push(LoadStmt { loc, base, field, static_field, dst })
                };
                match inst {
                    Inst::Assign { dst, src, .. } => add_use(*src, Use::Flow { to: *dst, loc }),
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
                    Inst::Binary { dst, lhs, rhs, .. } => {
                        add_use(*lhs, Use::Flow { to: *dst, loc });
                        add_use(*rhs, Use::Flow { to: *dst, loc });
                    }
                    Inst::Load { dst, base, field } => {
                        load(Some(*base), Some(FieldKey::Field(*field)), None, *dst)
                    }
                    Inst::StaticLoad { dst, field } => load(None, None, Some(*field), *dst),
                    Inst::ArrayLoad { dst, base, .. } => {
                        load(Some(*base), Some(FieldKey::Array), None, *dst)
                    }
                    Inst::Store { base, field, src } => add_use(
                        *src,
                        Use::Store { loc, base: *base, field: FieldKey::Field(*field) },
                    ),
                    Inst::ArrayStore { base, src, .. } => {
                        add_use(*src, Use::Store { loc, base: *base, field: FieldKey::Array })
                    }
                    Inst::StaticStore { field, src } => {
                        add_use(*src, Use::StaticStore { loc, field: *field })
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
                        let site = CallSite { node, loc, dst: *dst, recv: *recv, args };
                        let intrinsics = pts.intrinsics_at(node, loc);
                        container_loads(program, intrinsics, &site, &mut view.loads);
                    }
                    Inst::Const { .. }
                    | Inst::New { .. }
                    | Inst::NewArray { .. }
                    | Inst::CatchBind { .. } => {}
                }
            }
            if let Terminator::Return(Some(v)) = &block.term {
                add_use(*v, Use::Ret { loc: Loc::new(bid, block.insts.len()) });
            }
        }
        view
    }

    #[allow(clippy::too_many_arguments)]
    fn build_call_uses(
        program: &Program,
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
                continue;
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
            let site = CallSite { node, loc, dst, recv, args };
            intrinsic_uses(program, intr, &site, add_use);
        }
        if body_sanitizer {
            for &a in args {
                add_use(a, Use::Sanitized { loc });
            }
        }
    }

    /// Every node's reference view, in node order.
    pub(crate) fn node_views(program: &Program, pts: &PointsTo, spec: &SliceSpec) -> Vec<NodeView> {
        pts.callgraph.iter_nodes().map(|n| build_node_view(program, pts, spec, n)).collect()
    }

    /// The seed list: every node's source calls, then the synthetic
    /// source sites not already listed.
    pub(crate) fn seeds(
        index: &SliceIndex<'_>,
        spec: &SliceSpec,
        views: &[NodeView],
    ) -> Vec<(StmtNode, SourceCall)> {
        let mut out = Vec::new();
        for (i, view) in views.iter().enumerate() {
            let node = CGNodeId::new(i);
            out.extend(view.sources.iter().map(|s| (StmtNode { node, loc: s.loc }, *s)));
        }
        for site in &spec.synthetic_source_sites {
            if site.node.index() >= views.len() {
                continue;
            }
            if let Some((Some(d), method)) = call_at(index, site.node, site.loc) {
                if !out.iter().any(|(st, _)| st == site) {
                    out.push((*site, SourceCall { loc: site.loc, dst: d, method }));
                }
            }
        }
        out
    }

    /// The by-reference seeds, from a walk over every call statement.
    pub(crate) fn ref_seeds(
        program: &Program,
        pts: &PointsTo,
        spec: &SliceSpec,
        views: &[NodeView],
    ) -> Vec<RefSeed> {
        let mut out = Vec::new();
        let cg = &pts.callgraph;
        for node in cg.iter_nodes() {
            let Some(body) = program.method(cg.method_of(node)).body() else { continue };
            for (bid, block) in body.iter_blocks() {
                for (i, inst) in block.insts.iter().enumerate() {
                    let Inst::Call { args, .. } = inst else { continue };
                    let loc = Loc::new(bid, i);
                    let targets = cg.targets(node, loc).iter().map(|&t| cg.method_of(t));
                    let intrinsics = pts.intrinsics_at(node, loc).iter().map(|&(m, _)| m);
                    for callee in targets.chain(intrinsics) {
                        let Some(positions) = spec.ref_sources.get(&callee) else { continue };
                        for &pos in positions {
                            let Some(&arg) = args.get(pos) else { continue };
                            let Some(arg_pts) = pts.local(node, arg) else { continue };
                            if arg_pts.is_empty() {
                                continue;
                            }
                            let mut facts = Vec::new();
                            for (ln, view) in views.iter().enumerate() {
                                let lnode = CGNodeId::new(ln);
                                for l in view.loads.iter().filter(|l| l.field.is_some()) {
                                    let Some(lb) = l.base else { continue };
                                    if pts.local(lnode, lb).is_some_and(|s| s.intersects(arg_pts)) {
                                        facts.push((lnode, l.dst));
                                    }
                                }
                            }
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
}

#[cfg(test)]
mod tests {
    use super::reference::{method, rule_sensitive_specs, setup, RULE_SENSITIVE};
    use super::*;
    use std::collections::HashSet;

    fn default_spec(p: &Program) -> SliceSpec {
        let mut spec = SliceSpec::default();
        spec.sources.insert(method(p, "HttpServletRequest", "getParameter"));
        spec.sinks.insert(method(p, "PrintWriter", "println"), vec![0]);
        spec.sanitizers.insert(method(p, "URLEncoder", "encode"));
        spec
    }

    /// Builds the index over `spec` alone and the view on top of it.
    fn view_of<'a>(index: &'a SliceIndex<'a>, spec: &'a SliceSpec) -> ProgramView<'a> {
        ProgramView::build(index, spec)
    }

    fn all_uses<'v>(view: &'v ProgramView<'_>) -> impl Iterator<Item = (CGNodeId, Use)> + 'v {
        view.pts.callgraph.iter_nodes().flat_map(move |n| {
            (0..view.index.num_vars(n))
                .flat_map(move |v| view.uses(n, Var(v)).iter().map(move |&u| (n, u)))
        })
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
        let index = SliceIndex::build(&p, &pts, [&spec]);
        assert_eq!(view_of(&index, &spec).seeds().len(), 1);
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
        let index = SliceIndex::build(&p, &pts, [&spec]);
        let view = view_of(&index, &spec);
        let has_sink = all_uses(&view).any(|(_, u)| matches!(u, Use::SinkArg { .. }));
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
        let index = SliceIndex::build(&p, &pts, [&spec]);
        let view = view_of(&index, &spec);
        let uses: Vec<(CGNodeId, Use)> = all_uses(&view).collect();
        let sanitized: Vec<(CGNodeId, Loc)> = uses
            .iter()
            .filter_map(|&(n, u)| matches!(u, Use::Sanitized { .. }).then_some((n, u.loc())))
            .collect();
        assert!(!sanitized.is_empty());
        // And no Flow use may exist at the same statement as the
        // sanitization (the sanitizer's Propagate semantics are overridden).
        let flows_at_sanitizer = uses
            .iter()
            .any(|&(n, u)| matches!(u, Use::Flow { .. }) && sanitized.contains(&(n, u.loc())));
        assert!(!flows_at_sanitizer, "sanitized arg must not also flow");
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
        let index = SliceIndex::build(&p, &pts, [&spec]);
        let view = view_of(&index, &spec);
        let flows = all_uses(&view).filter(|(_, u)| matches!(u, Use::Flow { .. })).count();
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
        let index = SliceIndex::build(&p, &pts, [&spec]);
        let v_field = p.field_by_name(p.class_by_name("Box").unwrap(), "v").unwrap();
        assert!(index.loads_by_field.contains_key(&FieldKey::Field(v_field)));
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
        spec.ref_sources.insert(method(&p, "RandomAccessFile", "readFully"), vec![0]);
        let facts = || {
            let index = SliceIndex::build(&p, &pts, [&spec]);
            view_of(&index, &spec).ref_seeds()[0].facts.clone()
        };
        let first = facts();
        assert!(first.len() >= 4, "every aliased load is a fact: {first:?}");
        for _ in 0..16 {
            assert_eq!(facts(), first);
        }
    }

    /// Asserts that `view` agrees with the reference classifier on every
    /// node, register, seed and by-reference seed.
    fn assert_matches_reference(index: &SliceIndex<'_>, spec: &SliceSpec) {
        let (program, pts) = (index.program, index.pts);
        let view = ProgramView::build(index, spec);
        let reference = reference::node_views(program, pts, spec);
        for (i, expected) in reference.iter().enumerate() {
            let node = CGNodeId::new(i);
            let num_vars = index.num_vars(node);
            assert!(expected.uses.keys().all(|v| v.0 < num_vars), "register past num_vars");
            for v in (0..num_vars).map(Var) {
                let want = expected.uses.get(&v).map_or(&[][..], Vec::as_slice);
                assert_eq!(view.uses(node, v), want, "uses of {v:?} in {node:?}");
            }
            assert_eq!(index.loads(node), expected.loads.as_slice(), "loads of {node:?}");
        }
        assert_eq!(view.seeds(), reference::seeds(index, spec, &reference).as_slice());
        assert_eq!(view.ref_seeds(), reference::ref_seeds(program, pts, spec, &reference));
    }

    #[test]
    fn rule_views_match_the_per_node_reference() {
        let (p, pts) = setup(RULE_SENSITIVE);
        let specs = rule_sensitive_specs(&p);
        let index = SliceIndex::build(&p, &pts, &specs);
        // The program exercises what the layer must get right: rule-
        // sensitive sites, a by-reference seed, and surviving container
        // intrinsics (pseudo-loads and pseudo-stores).
        assert!(index.sites.len() >= 8, "sensitive sites: {}", index.sites.len());
        let intrinsic_store = pts.callgraph.iter_nodes().any(|n| {
            (0..index.num_vars(n)).any(|v| {
                index.base_uses(n, Var(v)).iter().any(|u| match u {
                    Use::Store { field: FieldKey::Field(f), .. } => {
                        p.field(*f).name.starts_with('$')
                    }
                    _ => false,
                })
            })
        });
        assert!(intrinsic_store, "a container write survived model expansion");
        let view_a = ProgramView::build(&index, &specs[0]);
        assert_eq!(view_a.ref_seeds().len(), 1);
        let uses_a: Vec<(CGNodeId, Use)> = all_uses(&view_a).collect();
        let at = |n: CGNodeId, loc: Loc, pred: fn(&Use) -> bool| {
            uses_a.iter().any(|&(un, u)| un == n && u.loc() == loc && pred(&u))
        };
        // `b.emit(u)` reaches a sink body and a plain body.
        assert!(uses_a.iter().any(|&(n, u)| matches!(u, Use::SinkArg { .. })
            && at(n, u.loc(), |u| matches!(u, Use::Arg { .. }))));
        // A body sanitizer (`clean`) and an intrinsic one (`encode`).
        let sanitized: HashSet<(CGNodeId, Loc)> = uses_a
            .iter()
            .filter_map(|&(n, u)| matches!(u, Use::Sanitized { .. }).then_some((n, u.loc())))
            .collect();
        assert_eq!(sanitized.len(), 2, "{sanitized:?}");
        // `t` is used at a sink call, then at a later concat.
        let sink_then_concat = pts.callgraph.iter_nodes().any(|n| {
            (0..index.num_vars(n)).any(|v| {
                let list = view_a.uses(n, Var(v));
                list.windows(2).any(|w| {
                    matches!(w[0], Use::SinkArg { .. }) && matches!(w[1], Use::Flow { .. })
                })
            })
        });
        assert!(sink_then_concat);
        for spec in &specs {
            // Under the index of every rule, and under an index of this
            // rule alone (where the other rules' sites are plain calls).
            assert_matches_reference(&index, spec);
            assert_matches_reference(&SliceIndex::build(&p, &pts, [spec]), spec);
        }
    }

    #[test]
    #[should_panic(expected = "built without this rule's methods")]
    fn a_view_needs_its_rule_in_the_index() {
        let (p, pts) = setup(RULE_SENSITIVE);
        let specs = rule_sensitive_specs(&p);
        let index = SliceIndex::build(&p, &pts, [&specs[1]]);
        ProgramView::build(&index, &specs[0]);
    }
}
