//! The Andersen-style, context-sensitive, field-sensitive pointer analysis
//! with on-the-fly call-graph construction (§3.1), including the
//! priority-driven bounded construction mode (§6.1).
//!
//! The solver alternates two phases, exactly as the paper describes:
//! **constraint adding** introduces the constraints of one pending
//! call-graph node (chosen FIFO, or by the taint-locality priority policy),
//! and **constraint solving** runs difference propagation to a fixpoint,
//! which may discover new reachable nodes.

use std::collections::{HashMap, HashSet, VecDeque};

use jir::inst::{CallTarget, ConstValue, Filter, Inst, Loc, Terminator, Var};
use jir::method::Intrinsic;
use jir::util::{BitSet, FxBuildHasher, FxHashMap, FxHashSet, Interner};
use jir::{FieldId, MethodId, Program};
use taj_supervise::{InterruptReason, Supervisor};

use crate::callgraph::{CGNodeId, CallEdge, CallGraph};
use crate::context::{ContextChoice, ContextElem, ContextId, PolicyConfig, ROOT_CONTEXT};
use crate::keys::{InstanceKey, InstanceKeyId, PointerKey, PointerKeyId, Site};
use crate::priority::NodeQueue;

/// Solver configuration.
#[derive(Clone, Debug, Default)]
pub struct SolverConfig {
    /// Context policy inputs (taint-relevant APIs).
    pub policy: PolicyConfig,
    /// Node budget: stop *adding* call-graph nodes beyond this bound,
    /// yielding an under-approximate call graph (§6.1).
    pub max_cg_nodes: Option<usize>,
    /// Enable priority-driven constraint adding (§6.1). Requires
    /// `source_methods` for the initial priority assignment.
    pub priority: bool,
    /// Methods considered taint sources (π = 0 seeds of the priority
    /// scheme).
    pub source_methods: HashSet<MethodId>,
    /// Cooperative supervision handle, checked at both fixpoint loops.
    /// The default is unbounded, so unsupervised callers never trip.
    pub supervisor: Supervisor,
}

/// Aggregate statistics of one solver run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Call-graph nodes created.
    pub nodes: usize,
    /// Call edges (to analyzable bodies).
    pub call_edges: usize,
    /// Distinct pointer keys.
    pub pointer_keys: usize,
    /// Distinct instance keys.
    pub instance_keys: usize,
    /// Total points-to set cardinality.
    pub pts_entries: usize,
    /// Difference-propagation steps executed.
    pub propagations: usize,
    /// Nodes whose constraints were never added because the budget ran out.
    pub nodes_dropped: usize,
    /// Distinct calling contexts interned (receiver/site elements).
    pub contexts: usize,
}

/// Record of a reflective `Method.invoke` binding, used by the SDG to model
/// dataflow from the argument array into the callee's parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InvokeBinding {
    /// Node containing the `invoke` call.
    pub caller: CGNodeId,
    /// Location of the call.
    pub loc: Loc,
    /// Register holding the `Object[]` argument array.
    pub arg_array: Var,
    /// Target node entered by the reflective dispatch.
    pub callee: CGNodeId,
}

/// The result of pointer analysis: call graph, points-to sets, and the
/// indices downstream phases need.
#[derive(Debug)]
pub struct PointsTo {
    /// The context-qualified call graph.
    pub callgraph: CallGraph,
    /// Statistics.
    pub stats: SolverStats,
    /// Whether the node budget was exhausted (result is under-approximate).
    pub budget_exhausted: bool,
    /// Why the solver stopped early, if it was interrupted by its
    /// supervisor. The call graph and points-to sets are still
    /// internally consistent, just under-approximate — the same shape
    /// as a `max_cg_nodes` truncation.
    pub interrupted: Option<InterruptReason>,
    /// Reflective invoke bindings for SDG construction.
    pub invoke_bindings: Vec<InvokeBinding>,
    pub(crate) ikeys: Interner<InstanceKey, FxBuildHasher>,
    pub(crate) pkeys: Interner<PointerKey, FxBuildHasher>,
    pub(crate) pts: Vec<BitSet>,
    /// Per call site, intrinsic callees `(method, intrinsic)` resolved
    /// there (body callees live in the call graph instead).
    pub(crate) intrinsic_targets: HashMap<(CGNodeId, Loc), Vec<(MethodId, Intrinsic)>>,
}

impl PointsTo {
    /// The points-to set of `key`, if the key ever arose.
    pub fn pts_of(&self, key: &PointerKey) -> Option<&BitSet> {
        // PointerKey is Copy-able and hashable; clone for lookup.
        self.pkeys.lookup(key).map(|id| &self.pts[id as usize])
    }

    /// The points-to set of a local register in a node.
    pub fn local(&self, node: CGNodeId, var: Var) -> Option<&BitSet> {
        self.pts_of(&PointerKey::Local { node, var })
    }

    /// The points-to set of an instance field.
    pub fn field_pts(&self, ik: InstanceKeyId, field: FieldId) -> Option<&BitSet> {
        self.pts_of(&PointerKey::Field { ik, field })
    }

    /// The points-to set of array contents.
    pub fn array_pts(&self, ik: InstanceKeyId) -> Option<&BitSet> {
        self.pts_of(&PointerKey::ArrayElem(ik))
    }

    /// Resolves an instance-key id.
    pub fn instance_key(&self, id: InstanceKeyId) -> &InstanceKey {
        self.ikeys.resolve(id.0)
    }

    /// Number of distinct instance keys.
    pub fn num_instance_keys(&self) -> usize {
        self.ikeys.len()
    }

    /// Iterates `(id, key)` over instance keys.
    pub fn iter_instance_keys(&self) -> impl Iterator<Item = (InstanceKeyId, &InstanceKey)> {
        self.ikeys.iter().map(|(i, k)| (InstanceKeyId(i), k))
    }

    /// Iterates `(id, key, pts)` over all pointer keys.
    pub fn iter_pointer_keys(&self) -> impl Iterator<Item = (PointerKeyId, &PointerKey, &BitSet)> {
        self.pkeys.iter().map(|(i, k)| (PointerKeyId(i), k, &self.pts[i as usize]))
    }

    /// Intrinsic callees resolved at a call site.
    pub fn intrinsics_at(&self, node: CGNodeId, loc: Loc) -> &[(MethodId, Intrinsic)] {
        self.intrinsic_targets.get(&(node, loc)).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// The solver's startup scan: static indices for the §6.1 priority
/// heuristic. The vectors list method ids (resp. field ids) in table
/// order, one entry per load/store occurrence in body order, duplicates
/// included.
struct PreScan {
    /// field → methods containing loads of it (instance and static).
    field_loaders: HashMap<FieldId, Vec<MethodId>>,
    /// method → fields it stores (instance and static).
    method_stores: HashMap<MethodId, Vec<FieldId>>,
    /// Methods that generate taint: the sources themselves plus methods
    /// whose bodies call a source (the π = 0 seeds of §6.1).
    source_adjacent: std::collections::HashSet<MethodId>,
}

impl PreScan {
    /// Walks the whole program and builds the scan.
    fn scan(program: &Program, source_methods: &std::collections::HashSet<MethodId>) -> Self {
        // Static indices for the priority heuristic.
        let mut field_loaders: HashMap<FieldId, Vec<MethodId>> = HashMap::new();
        let mut method_stores: HashMap<MethodId, Vec<FieldId>> = HashMap::new();
        for (mid, m) in program.iter_methods() {
            let Some(body) = m.body() else { continue };
            for block in &body.blocks {
                for inst in &block.insts {
                    match inst {
                        Inst::Load { field, .. } | Inst::StaticLoad { field, .. } => {
                            field_loaders.entry(*field).or_default().push(mid);
                        }
                        Inst::Store { field, .. } | Inst::StaticStore { field, .. } => {
                            method_stores.entry(mid).or_default().push(*field);
                        }
                        _ => {}
                    }
                }
            }
        }
        // Methods containing calls to source methods (sources are usually
        // intrinsic models and never become call-graph nodes, so the seeds
        // are the nodes *containing* source calls).
        let source_selectors: Vec<(String, usize)> = source_methods
            .iter()
            .map(|&m| {
                let meth = program.method(m);
                (meth.name.clone(), meth.params.len())
            })
            .collect();
        let mut source_adjacent: std::collections::HashSet<MethodId> = source_methods.clone();
        for (mid, m) in program.iter_methods() {
            let Some(body) = m.body() else { continue };
            let calls_source = body.blocks.iter().flat_map(|b| &b.insts).any(|i| {
                if let Inst::Call { target, args, .. } = i {
                    match target {
                        jir::CallTarget::Static(t) | jir::CallTarget::Special(t) => {
                            source_methods.contains(t)
                        }
                        jir::CallTarget::Virtual(sel) => {
                            let s = program.resolve_selector(*sel);
                            let _ = args;
                            source_selectors.iter().any(|(n, a)| *n == s.name && *a == s.arity)
                        }
                    }
                } else {
                    false
                }
            });
            if calls_source {
                source_adjacent.insert(mid);
            }
        }
        PreScan { field_loaders, method_stores, source_adjacent }
    }
}

/// Runs pointer analysis over `program` starting from its entrypoints.
pub fn analyze(program: &Program, config: &SolverConfig) -> PointsTo {
    analyze_traced(program, config, &taj_obs::Recorder::disabled())
}

/// [`analyze`] under a tracing recorder: records a `phase1.solve` span
/// carrying the solver's aggregate statistics (worklist iterations,
/// contexts created, call-graph size, points-to entries). With a
/// disabled recorder this is exactly [`analyze`].
pub fn analyze_traced(
    program: &Program,
    config: &SolverConfig,
    recorder: &taj_obs::Recorder,
) -> PointsTo {
    let mut span = recorder.span("phase1.solve");
    let pts = Solver::new(program, config).run();
    if recorder.is_enabled() {
        span.attr("worklist_iterations", pts.stats.propagations);
        span.attr("contexts", pts.stats.contexts);
        span.attr("cg_nodes", pts.stats.nodes);
        span.attr("call_edges", pts.stats.call_edges);
        span.attr("pointer_keys", pts.stats.pointer_keys);
        span.attr("instance_keys", pts.stats.instance_keys);
        span.attr("pts_entries", pts.stats.pts_entries);
        span.attr("nodes_dropped", pts.stats.nodes_dropped);
        if let Some(reason) = pts.interrupted {
            span.attr("interrupted", reason.as_str());
        }
    }
    span.finish();
    pts
}

/// A complex (base-dependent) constraint, triggered as the base pointer
/// key's points-to set grows.
#[derive(Clone, Debug)]
enum Constraint {
    /// `dst = base.field`
    Load { field: FieldId, dst: PointerKeyId },
    /// `base.field = src`
    Store { field: FieldId, src: PointerKeyId },
    /// `dst = base[*]`
    ArrayLoad { dst: PointerKeyId },
    /// `base[*] = src`
    ArrayStore { src: PointerKeyId },
    /// A receiver-dispatched call (virtual, or special with receiver).
    Dispatch {
        node: CGNodeId,
        loc: Loc,
        /// Fixed target for special calls; `None` resolves per receiver.
        fixed: Option<MethodId>,
        sel: Option<jir::SelectorId>,
        recv: Var,
        args: Vec<Var>,
        dst: Option<Var>,
    },
    /// `Method.invoke` parameter binding: array contents → callee param.
    BindParams { callee: CGNodeId, nparams: usize },
}

/// The solver's id-keyed tables hash with [`jir::util::FxHasher`]: their
/// keys are ids and locations the solver mints, never input text.
struct Solver<'p> {
    program: &'p Program,
    config: &'p SolverConfig,
    contexts: Interner<Vec<ContextElem>, FxBuildHasher>,
    node_ids: Interner<(MethodId, ContextId), FxBuildHasher>,
    ikeys: Interner<InstanceKey, FxBuildHasher>,
    pkeys: Interner<PointerKey, FxBuildHasher>,
    pts: Vec<BitSet>,
    delta: Vec<BitSet>,
    copy_out: Vec<Vec<(PointerKeyId, Option<Filter>)>>,
    base_deps: Vec<Vec<Constraint>>,
    wl: VecDeque<PointerKeyId>,
    on_wl: Vec<bool>,
    pending: NodeQueue,
    added: Vec<bool>,
    call_edges: Vec<CallEdge>,
    /// Per node, the other end of each of its call edges (both
    /// directions, one entry per edge): the call-graph part of §6.1's Tn.
    neighbours: Vec<Vec<CGNodeId>>,
    /// Per method (dense by id), the nodes created for it: the heap part
    /// of Tn selects nodes by method.
    method_nodes: Vec<Vec<CGNodeId>>,
    edge_seen: FxHashSet<(CGNodeId, Loc, CGNodeId)>,
    site_once: FxHashSet<(CGNodeId, Loc, u64)>,
    intrinsic_targets: HashMap<(CGNodeId, Loc), Vec<(MethodId, Intrinsic)>>,
    invoke_bindings: Vec<InvokeBinding>,
    entry_nodes: Vec<CGNodeId>,
    budget_exhausted: bool,
    interrupted: Option<InterruptReason>,
    nodes_dropped: usize,
    propagations: usize,
    /// Cached per-(node, block) exception targets.
    exc_targets: FxHashMap<(CGNodeId, jir::BlockId), (PointerKeyId, Option<Filter>)>,
    /// field → methods containing loads of it (for the §6.1 Tn heap match).
    field_loaders: HashMap<FieldId, Vec<MethodId>>,
    /// method → fields it stores (for Tn).
    method_stores: HashMap<MethodId, Vec<FieldId>>,
    /// Methods that generate taint: the sources themselves plus methods
    /// whose bodies call a source (sources are usually intrinsic models
    /// and never become call-graph nodes, so the π = 0 seeds of §6.1 are
    /// the nodes *containing* source calls).
    source_adjacent: std::collections::HashSet<MethodId>,
}

impl<'p> Solver<'p> {
    fn new(program: &'p Program, config: &'p SolverConfig) -> Self {
        let mut contexts = Interner::default();
        let root = contexts.intern(Vec::new());
        debug_assert_eq!(ContextId(root), ROOT_CONTEXT);
        let PreScan { field_loaders, method_stores, source_adjacent } =
            PreScan::scan(program, &config.source_methods);
        let max = config.max_cg_nodes.unwrap_or(usize::MAX);
        Solver {
            program,
            config,
            contexts,
            node_ids: Interner::default(),
            ikeys: Interner::default(),
            pkeys: Interner::default(),
            pts: Vec::new(),
            delta: Vec::new(),
            copy_out: Vec::new(),
            base_deps: Vec::new(),
            wl: VecDeque::new(),
            on_wl: Vec::new(),
            pending: NodeQueue::new(config.priority, max),
            added: Vec::new(),
            call_edges: Vec::new(),
            neighbours: Vec::new(),
            method_nodes: vec![Vec::new(); program.methods.len()],
            edge_seen: FxHashSet::default(),
            site_once: FxHashSet::default(),
            intrinsic_targets: HashMap::new(),
            invoke_bindings: Vec::new(),
            entry_nodes: Vec::new(),
            budget_exhausted: false,
            interrupted: None,
            nodes_dropped: 0,
            propagations: 0,
            exc_targets: FxHashMap::default(),
            field_loaders,
            method_stores,
            source_adjacent,
        }
    }

    fn run(mut self) -> PointsTo {
        for &e in &self.program.entrypoints.clone() {
            if let Some(n) = self.ensure_node(e, ROOT_CONTEXT) {
                // Entrypoints are the roots of exploration: give them top
                // priority so every servlet's lifecycle methods are at
                // least *created* (and can then compete on their own π).
                self.pending.lower_priority(n, 0);
                self.entry_nodes.push(n);
            }
        }
        // Main §6.1 loop: add constraints for one node, then solve.
        // A supervisor interrupt stops between nodes (or mid-propagation,
        // via the check inside `solve`), leaving the same consistent
        // under-approximation a `max_cg_nodes` truncation would.
        while let Some(node) = self.pending.pop() {
            if let Err(reason) = self.config.supervisor.check("pointer.run.node") {
                self.interrupted = Some(reason);
                break;
            }
            self.add_node_constraints(node);
            if self.config.priority {
                self.update_neighborhood_priorities(node);
            }
            self.solve();
            if self.interrupted.is_some() {
                break;
            }
        }
        let nodes: Vec<(MethodId, ContextId)> =
            self.node_ids.iter().map(|(_, &(m, c))| (m, c)).collect();
        let stats = SolverStats {
            nodes: nodes.len(),
            call_edges: self.call_edges.len(),
            pointer_keys: self.pkeys.len(),
            instance_keys: self.ikeys.len(),
            pts_entries: self.pts.iter().map(BitSet::len).sum(),
            propagations: self.propagations,
            nodes_dropped: self.nodes_dropped,
            contexts: self.contexts.len(),
        };
        let callgraph = CallGraph::from_parts(nodes, self.call_edges, self.entry_nodes);
        PointsTo {
            callgraph,
            stats,
            budget_exhausted: self.budget_exhausted,
            interrupted: self.interrupted,
            invoke_bindings: self.invoke_bindings,
            ikeys: self.ikeys,
            pkeys: self.pkeys,
            pts: self.pts,
            intrinsic_targets: self.intrinsic_targets,
        }
    }

    // ---- interning helpers ----

    fn pkey(&mut self, key: PointerKey) -> PointerKeyId {
        let id = self.pkeys.intern(key);
        if id as usize >= self.pts.len() {
            self.pts.push(BitSet::new());
            self.delta.push(BitSet::new());
            self.copy_out.push(Vec::new());
            self.base_deps.push(Vec::new());
            self.on_wl.push(false);
        }
        PointerKeyId(id)
    }

    fn ikey(&mut self, key: InstanceKey) -> InstanceKeyId {
        InstanceKeyId(self.ikeys.intern(key))
    }

    fn local(&mut self, node: CGNodeId, var: Var) -> PointerKeyId {
        self.pkey(PointerKey::Local { node, var })
    }

    /// Creates (or finds) the node for `(method, ctx)`, respecting the node
    /// budget. Returns `None` when the budget is exhausted and the node is
    /// new.
    fn ensure_node(&mut self, method: MethodId, ctx: ContextId) -> Option<CGNodeId> {
        if let Some(id) = self.node_ids.lookup(&(method, ctx)) {
            return Some(CGNodeId(id));
        }
        if let Some(max) = self.config.max_cg_nodes {
            if self.node_ids.len() >= max {
                self.budget_exhausted = true;
                self.nodes_dropped += 1;
                return None;
            }
        }
        let id = CGNodeId(self.node_ids.intern((method, ctx)));
        self.added.push(false);
        self.neighbours.push(Vec::new());
        self.method_nodes[method.index()].push(id);
        let is_source = self.source_adjacent.contains(&method);
        self.pending.push(id, is_source);
        Some(id)
    }

    // ---- propagation machinery ----

    fn add_to_pts(&mut self, key: PointerKeyId, ik: InstanceKeyId) {
        if self.pts[key.index()].insert(ik.0) {
            self.delta[key.index()].insert(ik.0);
            self.enqueue(key);
        }
    }

    fn enqueue(&mut self, key: PointerKeyId) {
        if !self.on_wl[key.index()] {
            self.on_wl[key.index()] = true;
            self.wl.push_back(key);
        }
    }

    fn add_copy(&mut self, from: PointerKeyId, to: PointerKeyId, filter: Option<Filter>) {
        if from == to {
            return;
        }
        if self.copy_out[from.index()].iter().any(|(t, f)| *t == to && *f == filter) {
            return;
        }
        self.copy_out[from.index()].push((to, filter.clone()));
        // Seed with the current points-to set.
        let current: Vec<u32> = self.pts[from.index()].iter().collect();
        self.flow(&current, to, &filter);
    }

    fn flow(&mut self, iks: &[u32], to: PointerKeyId, filter: &Option<Filter>) {
        for &raw in iks {
            let passes = match filter {
                None => true,
                Some(f) => {
                    let ik = self.ikeys.resolve(raw).clone();
                    ik.passes(self.program, f)
                }
            };
            if passes {
                self.add_to_pts(to, InstanceKeyId(raw));
            }
            self.propagations += 1;
        }
    }

    fn register_constraint(&mut self, base: PointerKeyId, c: Constraint) {
        self.base_deps[base.index()].push(c.clone());
        let current: Vec<u32> = self.pts[base.index()].iter().collect();
        if !current.is_empty() {
            self.process_constraint(base, &c, &current);
        }
    }

    fn solve(&mut self) {
        while let Some(p) = self.wl.pop_front() {
            if self.interrupted.is_none() {
                if let Err(reason) = self.config.supervisor.check("pointer.solve") {
                    self.interrupted = Some(reason);
                }
            }
            if self.interrupted.is_some() {
                // Drain the worklist without doing further propagation so
                // the `on_wl` bookkeeping stays consistent.
                self.on_wl[p.index()] = false;
                continue;
            }
            self.on_wl[p.index()] = false;
            let d: Vec<u32> = std::mem::take(&mut self.delta[p.index()]).iter().collect();
            if d.is_empty() {
                continue;
            }
            let copies = self.copy_out[p.index()].clone();
            for (to, filter) in copies {
                self.flow(&d, to, &filter);
            }
            let deps = self.base_deps[p.index()].clone();
            for c in deps {
                self.process_constraint(p, &c, &d);
            }
        }
    }

    fn process_constraint(&mut self, _base: PointerKeyId, c: &Constraint, new_iks: &[u32]) {
        match c {
            Constraint::Load { field, dst } => {
                for &raw in new_iks {
                    let fk = self.pkey(PointerKey::Field { ik: InstanceKeyId(raw), field: *field });
                    self.add_copy(fk, *dst, None);
                }
            }
            Constraint::Store { field, src } => {
                for &raw in new_iks {
                    let fk = self.pkey(PointerKey::Field { ik: InstanceKeyId(raw), field: *field });
                    self.add_copy(*src, fk, None);
                }
            }
            Constraint::ArrayLoad { dst } => {
                for &raw in new_iks {
                    let ak = self.pkey(PointerKey::ArrayElem(InstanceKeyId(raw)));
                    self.add_copy(ak, *dst, None);
                }
            }
            Constraint::ArrayStore { src } => {
                for &raw in new_iks {
                    let ak = self.pkey(PointerKey::ArrayElem(InstanceKeyId(raw)));
                    self.add_copy(*src, ak, None);
                }
            }
            Constraint::Dispatch { node, loc, fixed, sel, recv, args, dst } => {
                for &raw in new_iks {
                    self.dispatch_one(
                        *node,
                        *loc,
                        *fixed,
                        *sel,
                        *recv,
                        args,
                        *dst,
                        InstanceKeyId(raw),
                    );
                }
            }
            Constraint::BindParams { callee, nparams } => {
                // Arg-array contents flow into every parameter (reflective
                // invoke loses positions; real arities are 1 in practice).
                for &raw in new_iks {
                    let ak = self.pkey(PointerKey::ArrayElem(InstanceKeyId(raw)));
                    let callee_method = self.node_method(*callee);
                    let m = self.program.method(callee_method);
                    let recv_offset = usize::from(!m.is_static);
                    for i in 0..*nparams {
                        let pk = self.local(*callee, Var((i + recv_offset) as u32));
                        self.add_copy(ak, pk, None);
                    }
                }
            }
        }
    }

    fn node_method(&self, node: CGNodeId) -> MethodId {
        self.node_ids.resolve(node.0).0
    }

    fn node_ctx(&self, node: CGNodeId) -> ContextId {
        self.node_ids.resolve(node.0).1
    }

    // ---- constraint adding (one node) ----

    fn add_node_constraints(&mut self, node: CGNodeId) {
        if self.added[node.index()] {
            return;
        }
        self.added[node.index()] = true;
        let method = self.node_method(node);
        let program: &'p Program = self.program;
        let Some(body) = program.method(method).body() else { return };

        for (bid, block) in body.iter_blocks() {
            let exc_target = self.exc_target_of(node, body, bid);
            for (i, inst) in block.insts.iter().enumerate() {
                let loc = Loc::new(bid, i);
                self.add_inst_constraints(node, method, loc, inst, &exc_target);
            }
            match &block.term {
                Terminator::Return(Some(v)) => {
                    let from = self.local(node, *v);
                    let ret = self.pkey(PointerKey::Ret(node));
                    self.add_copy(from, ret, None);
                }
                Terminator::Throw(v) => {
                    let from = self.local(node, *v);
                    let (target, filter) = exc_target.clone();
                    self.add_copy(from, target, filter);
                }
                _ => {}
            }
        }
    }

    /// Where exceptions raised in `block` go: the handler's catch binder
    /// (with its class filter) or the node's exceptional escape.
    fn exc_target_of(
        &mut self,
        node: CGNodeId,
        body: &jir::Body,
        block: jir::BlockId,
    ) -> (PointerKeyId, Option<Filter>) {
        if let Some(t) = self.exc_targets.get(&(node, block)) {
            return t.clone();
        }
        let computed = self.compute_exc_target(node, body, block);
        self.exc_targets.insert((node, block), computed.clone());
        computed
    }

    fn compute_exc_target(
        &mut self,
        node: CGNodeId,
        body: &jir::Body,
        block: jir::BlockId,
    ) -> (PointerKeyId, Option<Filter>) {
        if let Some(h) = body.blocks[block.index()].handler {
            for inst in &body.blocks[h.index()].insts {
                if let Inst::CatchBind { dst, class } = inst {
                    let pk = self.local(node, *dst);
                    return (pk, Some(Filter::InstanceOf(*class)));
                }
            }
        }
        (self.pkey(PointerKey::Exc(node)), None)
    }

    #[allow(clippy::too_many_arguments)]
    fn add_inst_constraints(
        &mut self,
        node: CGNodeId,
        method: MethodId,
        loc: Loc,
        inst: &Inst,
        exc_target: &(PointerKeyId, Option<Filter>),
    ) {
        match inst {
            Inst::New { dst, class } => {
                let ik = self.alloc_key(node, method, loc, *class);
                let d = self.local(node, *dst);
                self.add_to_pts(d, ik);
            }
            Inst::NewArray { dst, elem } => {
                let ik =
                    self.ikey(InstanceKey::AllocArray { site: Site { method, loc }, elem: *elem });
                let d = self.local(node, *dst);
                self.add_to_pts(d, ik);
            }
            Inst::Const { dst, value: ConstValue::ClassLit(c) } => {
                let ik = self.ikey(InstanceKey::ClassObj(*c));
                let d = self.local(node, *dst);
                self.add_to_pts(d, ik);
            }
            Inst::Const { .. } | Inst::Binary { .. } | Inst::CatchBind { .. } => {}
            Inst::Assign { dst, src, filter } => {
                let s = self.local(node, *src);
                let d = self.local(node, *dst);
                self.add_copy(s, d, filter.clone());
            }
            Inst::Phi { dst, srcs } => {
                let d = self.local(node, *dst);
                for (_, v) in srcs {
                    let s = self.local(node, *v);
                    self.add_copy(s, d, None);
                }
            }
            Inst::Select { dst, srcs } => {
                let d = self.local(node, *dst);
                for v in srcs {
                    let s = self.local(node, *v);
                    self.add_copy(s, d, None);
                }
            }
            Inst::Load { dst, base, field } => {
                let b = self.local(node, *base);
                let d = self.local(node, *dst);
                self.register_constraint(b, Constraint::Load { field: *field, dst: d });
            }
            Inst::Store { base, field, src } => {
                let b = self.local(node, *base);
                let s = self.local(node, *src);
                self.register_constraint(b, Constraint::Store { field: *field, src: s });
            }
            Inst::StaticLoad { dst, field } => {
                let st = self.pkey(PointerKey::Static(*field));
                let d = self.local(node, *dst);
                self.add_copy(st, d, None);
            }
            Inst::StaticStore { field, src } => {
                let st = self.pkey(PointerKey::Static(*field));
                let s = self.local(node, *src);
                self.add_copy(s, st, None);
            }
            Inst::ArrayLoad { dst, base, .. } => {
                let b = self.local(node, *base);
                let d = self.local(node, *dst);
                self.register_constraint(b, Constraint::ArrayLoad { dst: d });
            }
            Inst::ArrayStore { base, src, .. } => {
                let b = self.local(node, *base);
                let s = self.local(node, *src);
                self.register_constraint(b, Constraint::ArrayStore { src: s });
            }
            Inst::Call { dst, target, recv, args } => {
                self.add_call(node, method, loc, dst, target, recv, args, exc_target);
            }
        }
    }

    fn alloc_key(
        &mut self,
        node: CGNodeId,
        method: MethodId,
        loc: Loc,
        class: jir::ClassId,
    ) -> InstanceKeyId {
        let site = Site { method, loc };
        // Collections: clone per allocating context (unlimited-depth object
        // sensitivity, §3.1), with a recursion cut.
        let heap_ctx = if self.program.class(class).is_collection {
            let ctx = self.node_ctx(node);
            if self.ctx_mentions_site(ctx, site) {
                ROOT_CONTEXT
            } else {
                ctx
            }
        } else {
            ROOT_CONTEXT
        };
        self.ikey(InstanceKey::Alloc { site, ctx: heap_ctx, class })
    }

    fn ctx_mentions_site(&self, ctx: ContextId, site: Site) -> bool {
        let elems = self.contexts.resolve(ctx.0);
        elems.iter().any(|e| match e {
            ContextElem::Receiver(ik) => matches!(
                self.ikeys.resolve(ik.0),
                InstanceKey::Alloc { site: s, .. } if *s == site
            ),
            ContextElem::Site(s) => *s == site,
        })
    }

    // ---- calls ----

    #[allow(clippy::too_many_arguments)]
    fn add_call(
        &mut self,
        node: CGNodeId,
        method: MethodId,
        loc: Loc,
        dst: &Option<Var>,
        target: &CallTarget,
        recv: &Option<Var>,
        args: &[Var],
        exc_target: &(PointerKeyId, Option<Filter>),
    ) {
        let _ = exc_target;
        match target {
            CallTarget::Static(m) => {
                self.direct_call(node, method, loc, *m, None, args, *dst);
            }
            CallTarget::Special(m) => match recv {
                Some(r) => {
                    // Receiver-contexted direct call: dispatch per receiver
                    // object so e.g. constructor bodies are cloned per
                    // allocation (1-object-sensitivity).
                    let b = self.local(node, *r);
                    self.register_constraint(
                        b,
                        Constraint::Dispatch {
                            node,
                            loc,
                            fixed: Some(*m),
                            sel: None,
                            recv: *r,
                            args: args.to_vec(),
                            dst: *dst,
                        },
                    );
                }
                None => self.direct_call(node, method, loc, *m, None, args, *dst),
            },
            CallTarget::Virtual(sel) => {
                let Some(r) = recv else { return };
                let b = self.local(node, *r);
                self.register_constraint(
                    b,
                    Constraint::Dispatch {
                        node,
                        loc,
                        fixed: None,
                        sel: Some(*sel),
                        recv: *r,
                        args: args.to_vec(),
                        dst: *dst,
                    },
                );
            }
        }
    }

    /// A statically-resolved call with no receiver dispatch.
    #[allow(clippy::too_many_arguments)]
    fn direct_call(
        &mut self,
        node: CGNodeId,
        caller_method: MethodId,
        loc: Loc,
        callee: MethodId,
        recv: Option<Var>,
        args: &[Var],
        dst: Option<Var>,
    ) {
        let m = self.program.method(callee);
        if let Some(intr) = m.intrinsic() {
            self.intrinsic_call(node, caller_method, loc, callee, intr, recv, None, args, dst);
            return;
        }
        if m.body().is_none() {
            return;
        }
        let choice = self.config.policy.choose(self.program, callee, recv.is_some());
        let ctx = match choice {
            ContextChoice::CallSite => {
                let site = Site { method: caller_method, loc };
                ContextId(self.contexts.intern(vec![ContextElem::Site(site)]))
            }
            _ => ROOT_CONTEXT,
        };
        let Some(callee_node) = self.ensure_node(callee, ctx) else { return };
        self.record_edge(node, loc, callee_node);
        self.bind_call(node, loc, callee_node, recv, args, dst, /*split_recv*/ None);
    }

    /// Receiver dispatch for one newly-discovered receiver object.
    #[allow(clippy::too_many_arguments)]
    fn dispatch_one(
        &mut self,
        node: CGNodeId,
        loc: Loc,
        fixed: Option<MethodId>,
        sel: Option<jir::SelectorId>,
        recv: Var,
        args: &[Var],
        dst: Option<Var>,
        ik: InstanceKeyId,
    ) {
        let caller_method = self.node_method(node);
        let ik_val = self.ikeys.resolve(ik.0).clone();
        let callee = match fixed {
            Some(m) => Some(m),
            None => {
                let sel = sel.expect("virtual dispatch has a selector");
                ik_val.class_of(self.program).and_then(|c| self.program.resolve_virtual(c, sel))
            }
        };
        let Some(callee) = callee else { return };
        let m = self.program.method(callee);
        if let Some(intr) = m.intrinsic() {
            self.intrinsic_call(
                node,
                caller_method,
                loc,
                callee,
                intr,
                Some(recv),
                Some(ik),
                args,
                dst,
            );
            return;
        }
        if m.body().is_none() {
            return;
        }
        let choice = self.config.policy.choose(self.program, callee, true);
        let ctx = match choice {
            ContextChoice::CallSite => {
                let site = Site { method: caller_method, loc };
                ContextId(self.contexts.intern(vec![ContextElem::Site(site)]))
            }
            ContextChoice::Receiver => {
                ContextId(self.contexts.intern(vec![ContextElem::Receiver(ik)]))
            }
            ContextChoice::Insensitive => ROOT_CONTEXT,
        };
        let Some(callee_node) = self.ensure_node(callee, ctx) else { return };
        self.record_edge(node, loc, callee_node);
        self.bind_call(node, loc, callee_node, Some(recv), args, dst, Some(ik));
    }

    /// Connects actuals to formals, return to destination, and exceptional
    /// flow. `split_recv` adds just the dispatching object to the callee's
    /// `this` (receiver splitting) instead of a full copy edge.
    #[allow(clippy::too_many_arguments)]
    fn bind_call(
        &mut self,
        node: CGNodeId,
        loc: Loc,
        callee_node: CGNodeId,
        recv: Option<Var>,
        args: &[Var],
        dst: Option<Var>,
        split_recv: Option<InstanceKeyId>,
    ) {
        let callee_method = self.node_method(callee_node);
        let m = self.program.method(callee_method);
        let recv_offset = usize::from(!m.is_static);
        // Receiver.
        if !m.is_static {
            let this_pk = self.local(callee_node, Var(0));
            match split_recv {
                Some(ik) => self.add_to_pts(this_pk, ik),
                None => {
                    if let Some(r) = recv {
                        let rp = self.local(node, r);
                        self.add_copy(rp, this_pk, None);
                    }
                }
            }
        }
        // Deduplicate the per-(site, callee) plumbing.
        if !self.site_once.insert((node, loc, callee_node.0 as u64)) {
            return;
        }
        for (i, &a) in args.iter().enumerate() {
            if i + recv_offset >= m.num_incoming() {
                break;
            }
            let ap = self.local(node, a);
            let fp = self.local(callee_node, Var((i + recv_offset) as u32));
            self.add_copy(ap, fp, None);
        }
        if let Some(d) = dst {
            let ret = self.pkey(PointerKey::Ret(callee_node));
            let dp = self.local(node, d);
            self.add_copy(ret, dp, None);
        }
        // Exceptional flow: callee's escaping exceptions reach this block's
        // handler (or escape further). The caller's exception targets were
        // cached when its constraints were added.
        if let Some((target, filter)) = self.exc_targets.get(&(node, loc.block)).cloned() {
            let exc = self.pkey(PointerKey::Exc(callee_node));
            self.add_copy(exc, target, filter);
        } else {
            let exc = self.pkey(PointerKey::Exc(callee_node));
            let out = self.pkey(PointerKey::Exc(node));
            self.add_copy(exc, out, None);
        }
    }

    fn record_edge(&mut self, caller: CGNodeId, loc: Loc, callee: CGNodeId) {
        if self.edge_seen.insert((caller, loc, callee)) {
            self.call_edges.push(CallEdge { caller, loc, callee });
            self.neighbours[caller.index()].push(callee);
            self.neighbours[callee.index()].push(caller);
        }
    }

    // ---- intrinsics ----

    #[allow(clippy::too_many_arguments)]
    fn intrinsic_call(
        &mut self,
        node: CGNodeId,
        caller_method: MethodId,
        loc: Loc,
        callee: MethodId,
        intr: Intrinsic,
        recv: Option<Var>,
        recv_ik: Option<InstanceKeyId>,
        args: &[Var],
        dst: Option<Var>,
    ) {
        // Record for the SDG (once per site/method).
        let entry = self.intrinsic_targets.entry((node, loc)).or_default();
        if !entry.iter().any(|(m, _)| *m == callee) {
            entry.push((callee, intr));
        }

        match intr {
            Intrinsic::Nop
            | Intrinsic::Fresh
            | Intrinsic::GetMessage
            | Intrinsic::MethodGetName => {}
            Intrinsic::Propagate => {
                // Pointer-level: the result may alias the receiver or any
                // argument (e.g. `PortableRemoteObject.narrow`).
                if let Some(d) = dst {
                    let dp = self.local(node, d);
                    if let Some(r) = recv {
                        let rp = self.local(node, r);
                        self.add_copy(rp, dp, None);
                    }
                    for &a in args {
                        let ap = self.local(node, a);
                        self.add_copy(ap, dp, None);
                    }
                }
            }
            Intrinsic::ReturnReceiver => {
                if let (Some(d), Some(r)) = (dst, recv) {
                    let dp = self.local(node, d);
                    let rp = self.local(node, r);
                    self.add_copy(rp, dp, None);
                }
            }
            Intrinsic::FreshObject(class) => {
                if let Some(d) = dst {
                    if self.site_once.insert((node, loc, 1 << 32)) {
                        let ik = self.alloc_key(node, caller_method, loc, class);
                        let dp = self.local(node, d);
                        self.add_to_pts(dp, ik);
                    }
                }
            }
            Intrinsic::ClassForName => {
                // Constant class-name argument resolves to a class literal
                // (§4.2.3); otherwise the call is ignored (documented
                // unsoundness shared with the paper's approach).
                if let (Some(d), Some(&arg)) = (dst, args.first()) {
                    let name = self
                        .program
                        .method(caller_method)
                        .body()
                        .and_then(|b| jir::constprop::constant_string(b, arg));
                    if let Some(name) = name {
                        if let Some(c) = self.program.class_by_name(&name) {
                            let ik = self.ikey(InstanceKey::ClassObj(c));
                            let dp = self.local(node, d);
                            self.add_to_pts(dp, ik);
                        }
                    }
                }
            }
            Intrinsic::ClassNewInstance => {
                if let (Some(d), Some(InstanceKey::ClassObj(c))) =
                    (dst, recv_ik.map(|ik| self.ikeys.resolve(ik.0).clone()))
                {
                    let site = Site { method: caller_method, loc };
                    let ik = self.ikey(InstanceKey::Alloc { site, ctx: ROOT_CONTEXT, class: c });
                    let dp = self.local(node, d);
                    self.add_to_pts(dp, ik);
                }
            }
            Intrinsic::GetMethods => {
                if let (Some(d), Some(InstanceKey::ClassObj(c))) =
                    (dst, recv_ik.map(|ik| self.ikeys.resolve(ik.0).clone()))
                {
                    let ma = self.ikey(InstanceKey::MethodArray(c));
                    let dp = self.local(node, d);
                    self.add_to_pts(dp, ma);
                    let elems = self.pkey(PointerKey::ArrayElem(ma));
                    for m in self.reflectable_methods(c) {
                        let mk = self.ikey(InstanceKey::MethodObj(c, m));
                        self.add_to_pts(elems, mk);
                    }
                }
            }
            Intrinsic::GetMethod => {
                if let (Some(d), Some(InstanceKey::ClassObj(c))) =
                    (dst, recv_ik.map(|ik| self.ikeys.resolve(ik.0).clone()))
                {
                    let name = args.first().and_then(|&a| {
                        self.program
                            .method(caller_method)
                            .body()
                            .and_then(|b| jir::constprop::constant_string(b, a))
                    });
                    if let Some(name) = name {
                        if let Some(m) = self.program.method_by_name(c, &name) {
                            let mk = self.ikey(InstanceKey::MethodObj(c, m));
                            let dp = self.local(node, d);
                            self.add_to_pts(dp, mk);
                        }
                    }
                }
            }
            Intrinsic::MethodInvoke => {
                let Some(InstanceKey::MethodObj(_c, m)) =
                    recv_ik.map(|ik| self.ikeys.resolve(ik.0).clone())
                else {
                    return;
                };
                if self.program.method(m).body().is_none() {
                    return;
                }
                let site = Site { method: caller_method, loc };
                let ctx = ContextId(self.contexts.intern(vec![ContextElem::Site(site)]));
                let Some(callee_node) = self.ensure_node(m, ctx) else { return };
                self.record_edge(node, loc, callee_node);
                // Receiver: args[0] of invoke.
                let mm = self.program.method(m);
                if !mm.is_static {
                    if let Some(&target_obj) = args.first() {
                        let tp = self.local(node, target_obj);
                        let this_pk = self.local(callee_node, Var(0));
                        self.add_copy(tp, this_pk, None);
                    }
                }
                // Parameters: contents of the Object[] argument.
                if let Some(&arr) = args.get(1) {
                    let ap = self.local(node, arr);
                    let nparams = mm.params.len();
                    self.register_constraint(
                        ap,
                        Constraint::BindParams { callee: callee_node, nparams },
                    );
                    self.invoke_bindings.push(InvokeBinding {
                        caller: node,
                        loc,
                        arg_array: arr,
                        callee: callee_node,
                    });
                }
                // Return value.
                if let Some(d) = dst {
                    let ret = self.pkey(PointerKey::Ret(callee_node));
                    let dp = self.local(node, d);
                    self.add_copy(ret, dp, None);
                }
            }
            Intrinsic::ThreadStart => {
                // `t.start()` runs `t.run()` on another thread.
                if let (Some(r), Some(ik)) = (recv, recv_ik) {
                    let ik_val = self.ikeys.resolve(ik.0).clone();
                    if let Some(c) = ik_val.class_of(self.program) {
                        if let Some(sel) = self.program.find_selector("run", 0) {
                            if let Some(run) = self.program.resolve_virtual(c, sel) {
                                if self.program.method(run).body().is_some() {
                                    let ctx = ContextId(
                                        self.contexts.intern(vec![ContextElem::Receiver(ik)]),
                                    );
                                    if let Some(cn) = self.ensure_node(run, ctx) {
                                        self.record_edge(node, loc, cn);
                                        let this_pk = self.local(cn, Var(0));
                                        self.add_to_pts(this_pk, ik);
                                        let _ = r;
                                    }
                                }
                            }
                        }
                    }
                }
            }
            // Container/builder intrinsics normally disappear during model
            // expansion; when the receiver's static type was too imprecise
            // to expand, fall back to the summary fields.
            Intrinsic::MapPut | Intrinsic::CollAdd | Intrinsic::BuilderAppend => {
                if let (Some(r), Some(&v)) = (recv, args.last()) {
                    let field_name = if intr == Intrinsic::BuilderAppend {
                        jir::expand::fields::CONTENT
                    } else if intr == Intrinsic::CollAdd {
                        jir::expand::fields::ELEMS
                    } else {
                        jir::expand::fields::MAP_UNKNOWN
                    };
                    if let Some(f) = self.program.find_synthetic_field(field_name) {
                        let b = self.local(node, r);
                        let s = self.local(node, v);
                        self.register_constraint(b, Constraint::Store { field: f, src: s });
                    }
                }
            }
            Intrinsic::MapGet | Intrinsic::CollGet | Intrinsic::BuilderToString => {
                if let (Some(r), Some(d)) = (recv, dst) {
                    let field_name = if intr == Intrinsic::BuilderToString {
                        jir::expand::fields::CONTENT
                    } else if intr == Intrinsic::CollGet {
                        jir::expand::fields::ELEMS
                    } else {
                        jir::expand::fields::MAP_UNKNOWN
                    };
                    if let Some(f) = self.program.find_synthetic_field(field_name) {
                        let b = self.local(node, r);
                        let dp = self.local(node, d);
                        self.register_constraint(b, Constraint::Load { field: f, dst: dp });
                    }
                }
            }
            Intrinsic::IterAlias => {
                if let (Some(r), Some(d)) = (recv, dst) {
                    let rp = self.local(node, r);
                    let dp = self.local(node, d);
                    self.add_copy(rp, dp, None);
                }
            }
        }
    }

    /// Concrete instance methods visible reflectively on `c`.
    fn reflectable_methods(&self, c: jir::ClassId) -> Vec<MethodId> {
        let mut out = Vec::new();
        let mut cur = Some(c);
        while let Some(cc) = cur {
            for &m in &self.program.class(cc).methods {
                let meth = self.program.method(m);
                if !meth.is_static
                    && meth.name != "<init>"
                    && meth.body().is_some()
                    && !out.iter().any(|&o| {
                        let om = self.program.method(o);
                        om.name == meth.name && om.params.len() == meth.params.len()
                    })
                {
                    out.push(m);
                }
            }
            cur = self.program.class(cc).superclass;
        }
        out
    }

    // ---- §6.1 priority propagation ----

    /// Applies `π(t) := min(π(t), π(n)+1)` over Tn, propagated to a
    /// fixpoint through call-graph neighbours. The fixpoint does not
    /// depend on the order neighbours are visited in, and the queue
    /// breaks ties by `(π, node id)`, so the pop order is a function of
    /// the graph alone.
    fn update_neighborhood_priorities(&mut self, n: CGNodeId) {
        // The work list starts as Tn: call-graph neighbours plus the nodes
        // whose methods load fields stored by n's method (possible heap
        // flow).
        let next = self.pending.priority_of(n).saturating_add(1);
        let mut work: Vec<(CGNodeId, usize)> =
            self.neighbours[n.index()].iter().map(|&t| (t, next)).collect();
        if let Some(stored) = self.method_stores.get(&self.node_method(n)) {
            let mut methods: Vec<MethodId> = stored
                .iter()
                .filter_map(|f| self.field_loaders.get(f))
                .flatten()
                .copied()
                .collect();
            methods.sort_unstable();
            methods.dedup();
            for m in methods {
                work.extend(self.method_nodes[m.index()].iter().map(|&t| (t, next)));
            }
        }
        while let Some((t, p)) = work.pop() {
            if self.pending.lower_priority(t, p) {
                let next = p.saturating_add(1);
                work.extend(self.neighbours[t.index()].iter().map(|&u| (u, next)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const APP: &str = r#"
        class Main {
            static method void main() {
                Helper h = new Helper();
                String s = h.id("x");
                Main.consume(s);
            }
            static method void consume(String s) { }
        }
        class Helper {
            field String last;
            method String id(String s) { this.last = s; return this.last; }
        }
    "#;

    fn entry_program() -> Program {
        let mut program = jir::frontend::build_program(APP).expect("parses");
        let main_class = program.class_by_name("Main").unwrap();
        let main = program.method_by_name(main_class, "main").unwrap();
        program.entrypoints.push(main);
        program
    }

    /// The scan marks source-calling methods as π = 0 seeds.
    #[test]
    fn prescan_source_adjacency() {
        let program = entry_program();
        let main_class = program.class_by_name("Main").unwrap();
        let helper = program.class_by_name("Helper").unwrap();
        let id = program.method_by_name(helper, "id").unwrap();
        let main = program.method_by_name(main_class, "main").unwrap();
        let sources: std::collections::HashSet<MethodId> = [id].into_iter().collect();
        let scan = PreScan::scan(&program, &sources);
        assert!(scan.source_adjacent.contains(&id), "sources are their own seeds");
        assert!(scan.source_adjacent.contains(&main), "main calls h.id virtually");
    }
}
