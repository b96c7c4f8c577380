//! The Andersen-style, context-sensitive, field-sensitive pointer analysis
//! with on-the-fly call-graph construction (§3.1), including the
//! priority-driven bounded construction mode (§6.1).
//!
//! The solver alternates two phases, exactly as the paper describes:
//! **constraint adding** introduces the constraints of one pending
//! call-graph node (chosen FIFO, or by the taint-locality priority policy),
//! and **constraint solving** runs difference propagation to a fixpoint,
//! which may discover new reachable nodes.

use std::collections::VecDeque;

use jir::inst::{CallTarget, ConstValue, Filter, Inst, Loc, Terminator, Var};
use jir::method::Intrinsic;
use jir::util::{BitSet, FxBuildHasher, FxHashMap, FxHashSet, Interner};
use jir::BlockId;
use jir::{ClassId, FieldId, MethodId, Program, SelectorId};
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
    pub source_methods: FxHashSet<MethodId>,
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
    pub(crate) pkeys: PointerKeys,
    pub(crate) pts: Vec<BitSet>,
    /// Per call site, intrinsic callees `(method, intrinsic)` resolved
    /// there (body callees live in the call graph instead).
    pub(crate) intrinsic_targets: FxHashMap<(CGNodeId, Loc), Vec<(MethodId, Intrinsic)>>,
}

impl PointsTo {
    /// The points-to set of `key`, if the key ever arose.
    pub fn pts_of(&self, key: &PointerKey) -> Option<&BitSet> {
        self.pkeys.lookup(key).map(|id| &self.pts[id.index()])
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
        self.pkeys.keys.iter().enumerate().map(|(i, k)| (PointerKeyId::new(i), k, &self.pts[i]))
    }

    /// Intrinsic callees resolved at a call site.
    pub fn intrinsics_at(&self, node: CGNodeId, loc: Loc) -> &[(MethodId, Intrinsic)] {
        self.intrinsic_targets.get(&(node, loc)).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// Marks an empty entry: a register slot with no key yet, a key with no
/// pending delta, a list with no cells.
const NONE: u32 = u32::MAX;

/// Pointer-key ids, dense in first-intern order. A node's register,
/// return and exception keys sit in its slot table: one slot per
/// register of the body, then one for the return value and one for the
/// exception, reserved when the node is created. So finding them hashes
/// nothing. Field, array and static keys, and a register outside its
/// body's `num_vars` (which well-formed IR never has), go through a hash
/// map.
#[derive(Debug, Default)]
pub(crate) struct PointerKeys {
    keys: Vec<PointerKey>,
    ids: FxHashMap<PointerKey, u32>,
    /// Per node, the index of its first slot in `slots`.
    node_slots: Vec<u32>,
    /// Per register of every node, then its return and exception: the
    /// key id or `NONE`.
    slots: Vec<u32>,
}

impl PointerKeys {
    /// Reserves the slots of the next node.
    fn add_node(&mut self, num_vars: u32) {
        self.node_slots.push(self.slots.len() as u32);
        self.slots.resize(self.slots.len() + num_vars as usize + 2, NONE);
    }

    /// The slot of a register, return or exception key, if its node has
    /// one for it.
    fn slot(&self, key: &PointerKey) -> Option<usize> {
        let (PointerKey::Local { node, .. } | PointerKey::Ret(node) | PointerKey::Exc(node)) = *key
        else {
            return None;
        };
        let start = *self.node_slots.get(node.index())? as usize;
        let end = self.node_slots.get(node.index() + 1).map_or(self.slots.len(), |&e| e as usize);
        match *key {
            PointerKey::Local { var, .. } => {
                (var.index() < end - start - 2).then_some(start + var.index())
            }
            PointerKey::Ret(_) => Some(end - 2),
            _ => Some(end - 1),
        }
    }

    /// The id of `key`, and whether this call created it.
    fn intern(&mut self, key: PointerKey) -> (PointerKeyId, bool) {
        let next = self.keys.len() as u32;
        let id = match self.slot(&key) {
            Some(slot) => {
                if self.slots[slot] == NONE {
                    self.slots[slot] = next;
                }
                self.slots[slot]
            }
            None => {
                debug_assert!(
                    !matches!(key, PointerKey::Ret(_) | PointerKey::Exc(_)),
                    "{key:?}: a node reserves its return and exception slots when created"
                );
                *self.ids.entry(key).or_insert(next)
            }
        };
        if id == next {
            self.keys.push(key);
        }
        (PointerKeyId(id), id == next)
    }

    fn lookup(&self, key: &PointerKey) -> Option<PointerKeyId> {
        let id = match self.slot(key) {
            Some(slot) => self.slots[slot],
            None => *self.ids.get(key)?,
        };
        (id != NONE).then_some(PointerKeyId(id))
    }

    fn len(&self) -> usize {
        self.keys.len()
    }
}

/// Append-only lists, one per pointer key, whose cells share one `Vec`:
/// a key costs no allocation of its own. Each list keeps its first and
/// last cell and iterates in append order.
struct ArenaLists<T> {
    /// A value and the next cell of its list, or `NONE`.
    cells: Vec<(T, u32)>,
    /// Per list, its first and last cell, or `NONE` while empty.
    ends: Vec<(u32, u32)>,
}

impl<T: Copy> ArenaLists<T> {
    fn new() -> Self {
        ArenaLists { cells: Vec::new(), ends: Vec::new() }
    }

    fn add_list(&mut self) {
        self.ends.push((NONE, NONE));
    }

    fn push(&mut self, list: usize, value: T) {
        let cell = self.cells.len() as u32;
        self.cells.push((value, NONE));
        let (first, last) = &mut self.ends[list];
        if *last == NONE {
            *first = cell;
        } else {
            self.cells[*last as usize].1 = cell;
        }
        *last = cell;
    }

    /// A walk over the cells `list` holds now; cells appended while it
    /// runs are not visited.
    fn walk(&self, list: usize) -> Walk {
        let (first, last) = self.ends[list];
        Walk { cell: first, last }
    }
}

impl<T: Copy + PartialEq> ArenaLists<T> {
    fn contains(&self, list: usize, value: T) -> bool {
        let mut walk = self.walk(list);
        std::iter::from_fn(|| walk.next(self)).any(|v| v == value)
    }
}

/// A cursor over a prefix of one arena list. It borrows the arena only
/// inside [`Walk::next`], so the list may grow between steps.
struct Walk {
    cell: u32,
    last: u32,
}

impl Walk {
    fn next<T: Copy>(&mut self, lists: &ArenaLists<T>) -> Option<T> {
        if self.cell == NONE {
            return None;
        }
        let (value, next) = lists.cells[self.cell as usize];
        self.cell = if self.cell == self.last { NONE } else { next };
        Some(value)
    }
}

/// A copy edge's target and filter; the filter indexes `Solver::filters`,
/// where [`NO_FILTER`] is the unfiltered edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct CopyEdge {
    to: PointerKeyId,
    filter: u32,
}

/// The id of `None` in `Solver::filters`.
const NO_FILTER: u32 = 0;

/// The solver's startup scan: static indices for the §6.1 priority
/// heuristic. The vectors list method ids (resp. field ids) in table
/// order, one entry per load/store occurrence in body order, duplicates
/// included. The tables are keyed by ids and only looked up, never
/// iterated, so they hash with Fx.
#[derive(Default)]
struct PreScan {
    /// field → methods containing loads of it (instance and static).
    field_loaders: FxHashMap<FieldId, Vec<MethodId>>,
    /// method → fields it stores (instance and static).
    method_stores: FxHashMap<MethodId, Vec<FieldId>>,
    /// Methods that generate taint: the sources themselves plus methods
    /// whose bodies call a source (the π = 0 seeds of §6.1).
    source_adjacent: FxHashSet<MethodId>,
}

impl PreScan {
    /// Walks the whole program and builds the scan.
    fn scan(program: &Program, source_methods: &FxHashSet<MethodId>) -> Self {
        // Static indices for the priority heuristic.
        let mut field_loaders: FxHashMap<FieldId, Vec<MethodId>> = FxHashMap::default();
        let mut method_stores: FxHashMap<MethodId, Vec<FieldId>> = FxHashMap::default();
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
        let mut source_adjacent: FxHashSet<MethodId> = source_methods.iter().copied().collect();
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
#[derive(Clone, Copy, Debug)]
enum Constraint {
    /// `dst = base.field`
    Load { field: FieldId, dst: PointerKeyId },
    /// `base.field = src`
    Store { field: FieldId, src: PointerKeyId },
    /// `dst = base[*]`
    ArrayLoad { dst: PointerKeyId },
    /// `base[*] = src`
    ArrayStore { src: PointerKeyId },
    /// A receiver-dispatched call (virtual, or special with receiver):
    /// the `Inst::Call` at `loc` in `node`'s body, read when it fires.
    Dispatch { node: CGNodeId, loc: Loc },
    /// `Method.invoke` parameter binding: array contents → callee param.
    BindParams { callee: CGNodeId, nparams: u32 },
}

/// The solver's id-keyed tables hash with [`jir::util::FxHasher`]: their
/// keys are ids and locations the solver mints, never input text.
struct Solver<'p> {
    program: &'p Program,
    config: &'p SolverConfig,
    /// Contexts hold at most one element; the root is `None`.
    contexts: Interner<Option<ContextElem>, FxBuildHasher>,
    /// The policy's context shape per `(callee, has_receiver)`, at
    /// `2 * callee + has_receiver`, decided on the callee's first call.
    choices: Vec<Option<ContextChoice>>,
    /// `Program::resolve_virtual` per receiver class and selector.
    virtual_targets: FxHashMap<(ClassId, SelectorId), Option<MethodId>>,
    node_ids: Interner<(MethodId, ContextId), FxBuildHasher>,
    ikeys: Interner<InstanceKey, FxBuildHasher>,
    pkeys: PointerKeys,
    pts: Vec<BitSet>,
    /// Per key, the `deltas` slot of its pending delta while it is
    /// queued, else `NONE`.
    delta_of: Vec<u32>,
    /// Pending deltas, one slot per queued key, in the order the
    /// members arrived; slots and their buffers are reused.
    deltas: Vec<Vec<u32>>,
    free_deltas: Vec<u32>,
    /// Reused buffers for the points-to snapshot that seeds a new copy
    /// edge or constraint. Seeding nests (dispatch → `bind_call` →
    /// `add_copy`), so there is a stack of them.
    spare: Vec<Vec<u32>>,
    /// Per key, its outgoing copy edges.
    copies: ArenaLists<CopyEdge>,
    /// Per key, the constraints that fire as its points-to set grows.
    deps: ArenaLists<Constraint>,
    /// Interned copy-edge filters; `None` is [`NO_FILTER`]. Method-name
    /// filters carry input text, so this table keeps std's hasher.
    filters: Interner<Option<Filter>>,
    wl: VecDeque<PointerKeyId>,
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
    intrinsic_targets: FxHashMap<(CGNodeId, Loc), Vec<(MethodId, Intrinsic)>>,
    invoke_bindings: Vec<InvokeBinding>,
    entry_nodes: Vec<CGNodeId>,
    budget_exhausted: bool,
    interrupted: Option<InterruptReason>,
    nodes_dropped: usize,
    propagations: usize,
    /// Cached per-(node, block) exception targets.
    exc_targets: FxHashMap<(CGNodeId, BlockId), CopyEdge>,
    /// field → methods containing loads of it (for the §6.1 Tn heap match).
    field_loaders: FxHashMap<FieldId, Vec<MethodId>>,
    /// method → fields it stores (for Tn).
    method_stores: FxHashMap<MethodId, Vec<FieldId>>,
    /// Methods that generate taint: the sources themselves plus methods
    /// whose bodies call a source (sources are usually intrinsic models
    /// and never become call-graph nodes, so the π = 0 seeds of §6.1 are
    /// the nodes *containing* source calls).
    source_adjacent: FxHashSet<MethodId>,
}

impl<'p> Solver<'p> {
    fn new(program: &'p Program, config: &'p SolverConfig) -> Self {
        let mut contexts = Interner::default();
        let root = contexts.intern(None);
        debug_assert_eq!(ContextId(root), ROOT_CONTEXT);
        let mut filters = Interner::new();
        let none = filters.intern(None);
        debug_assert_eq!(none, NO_FILTER);
        // Only the §6.1 queue reads π, so a FIFO run skips the scan.
        let PreScan { field_loaders, method_stores, source_adjacent } = if config.priority {
            PreScan::scan(program, &config.source_methods)
        } else {
            PreScan::default()
        };
        let max = config.max_cg_nodes.unwrap_or(usize::MAX);
        Solver {
            program,
            config,
            contexts,
            choices: vec![None; 2 * program.num_methods()],
            virtual_targets: FxHashMap::default(),
            node_ids: Interner::default(),
            ikeys: Interner::default(),
            pkeys: PointerKeys::default(),
            pts: Vec::new(),
            delta_of: Vec::new(),
            deltas: Vec::new(),
            free_deltas: Vec::new(),
            spare: Vec::new(),
            copies: ArenaLists::new(),
            deps: ArenaLists::new(),
            filters,
            wl: VecDeque::new(),
            pending: NodeQueue::new(config.priority, max),
            added: Vec::new(),
            call_edges: Vec::new(),
            neighbours: Vec::new(),
            method_nodes: vec![Vec::new(); program.num_methods()],
            edge_seen: FxHashSet::default(),
            site_once: FxHashSet::default(),
            intrinsic_targets: FxHashMap::default(),
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
        let (id, new) = self.pkeys.intern(key);
        if new {
            self.pts.push(BitSet::new());
            self.delta_of.push(NONE);
            self.copies.add_list();
            self.deps.add_list();
        }
        id
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
        self.pkeys.add_node(self.program.method(method).body().map_or(0, |b| b.num_vars));
        self.added.push(false);
        self.neighbours.push(Vec::new());
        self.method_nodes[method.index()].push(id);
        let is_source = self.source_adjacent.contains(&method);
        self.pending.push(id, is_source);
        Some(id)
    }

    // ---- propagation machinery ----

    fn add_to_pts(&mut self, key: PointerKeyId, ik: InstanceKeyId) {
        if !self.pts[key.index()].insert(ik.0) {
            return;
        }
        let mut slot = self.delta_of[key.index()];
        if slot == NONE {
            slot = self.free_deltas.pop().unwrap_or_else(|| {
                self.deltas.push(Vec::new());
                self.deltas.len() as u32 - 1
            });
            self.delta_of[key.index()] = slot;
            self.wl.push_back(key);
        }
        self.deltas[slot as usize].push(ik.0);
    }

    /// The id of a copy-edge filter.
    fn filter_id(&mut self, filter: &Option<Filter>) -> u32 {
        if filter.is_none() {
            return NO_FILTER;
        }
        match self.filters.lookup(filter) {
            Some(id) => id,
            None => self.filters.intern(filter.clone()),
        }
    }

    /// `key`'s current points-to set, ascending, in a pooled buffer; hand
    /// it back with [`Solver::recycle`].
    fn snapshot(&mut self, key: PointerKeyId) -> Vec<u32> {
        let mut buf = self.spare.pop().unwrap_or_default();
        buf.extend(self.pts[key.index()].iter());
        buf
    }

    fn recycle(&mut self, mut buf: Vec<u32>) {
        buf.clear();
        self.spare.push(buf);
    }

    fn add_copy(&mut self, from: PointerKeyId, to: PointerKeyId, filter: u32) {
        if from == to {
            return;
        }
        let edge = CopyEdge { to, filter };
        if self.copies.contains(from.index(), edge) {
            return;
        }
        self.copies.push(from.index(), edge);
        // Seed with the current points-to set.
        let current = self.snapshot(from);
        self.flow(&current, to, filter);
        self.recycle(current);
    }

    fn flow(&mut self, iks: &[u32], to: PointerKeyId, filter: u32) {
        for &raw in iks {
            let passes = match self.filters.resolve(filter) {
                None => true,
                Some(f) => self.ikeys.resolve(raw).passes(self.program, f),
            };
            if passes {
                self.add_to_pts(to, InstanceKeyId(raw));
            }
            self.propagations += 1;
        }
    }

    fn register_constraint(&mut self, base: PointerKeyId, c: Constraint) {
        self.deps.push(base.index(), c);
        if !self.pts[base.index()].is_empty() {
            let current = self.snapshot(base);
            self.process_constraint(c, &current);
            self.recycle(current);
        }
    }

    /// Difference propagation. A popped key's delta walks the copy edges
    /// and then the constraints the key had when it was popped, in place:
    /// both lists only grow meanwhile, and what they gain was seeded from
    /// the full points-to set already.
    fn solve(&mut self) {
        while let Some(p) = self.wl.pop_front() {
            if self.interrupted.is_none() {
                if let Err(reason) = self.config.supervisor.check("pointer.solve") {
                    self.interrupted = Some(reason);
                }
            }
            let slot = std::mem::replace(&mut self.delta_of[p.index()], NONE) as usize;
            let mut d = std::mem::take(&mut self.deltas[slot]);
            // After an interrupt, drain the worklist without further
            // propagation so the slot bookkeeping stays consistent.
            if self.interrupted.is_none() {
                // Members arrive in flow order; a dense set yielded them
                // ascending, and the pop order depends on it.
                d.sort_unstable();
                let mut copies = self.copies.walk(p.index());
                while let Some(CopyEdge { to, filter }) = copies.next(&self.copies) {
                    self.flow(&d, to, filter);
                }
                let mut deps = self.deps.walk(p.index());
                while let Some(c) = deps.next(&self.deps) {
                    self.process_constraint(c, &d);
                }
            }
            d.clear();
            self.deltas[slot] = d;
            self.free_deltas.push(slot as u32);
        }
    }

    fn process_constraint(&mut self, c: Constraint, new_iks: &[u32]) {
        match c {
            Constraint::Load { field, dst } => {
                for &raw in new_iks {
                    let fk = self.pkey(PointerKey::Field { ik: InstanceKeyId(raw), field });
                    self.add_copy(fk, dst, NO_FILTER);
                }
            }
            Constraint::Store { field, src } => {
                for &raw in new_iks {
                    let fk = self.pkey(PointerKey::Field { ik: InstanceKeyId(raw), field });
                    self.add_copy(src, fk, NO_FILTER);
                }
            }
            Constraint::ArrayLoad { dst } => {
                for &raw in new_iks {
                    let ak = self.pkey(PointerKey::ArrayElem(InstanceKeyId(raw)));
                    self.add_copy(ak, dst, NO_FILTER);
                }
            }
            Constraint::ArrayStore { src } => {
                for &raw in new_iks {
                    let ak = self.pkey(PointerKey::ArrayElem(InstanceKeyId(raw)));
                    self.add_copy(src, ak, NO_FILTER);
                }
            }
            Constraint::Dispatch { node, loc } => {
                let program: &'p Program = self.program;
                let call = program
                    .method(self.node_method(node))
                    .body()
                    .map(|body| &body.blocks[loc.block.index()].insts[loc.idx as usize]);
                let Some(Inst::Call { target, recv: Some(recv), args, dst }) = call else {
                    unreachable!("a dispatch constraint names a call with a receiver")
                };
                let (fixed, sel) = match *target {
                    CallTarget::Special(m) => (Some(m), None),
                    CallTarget::Virtual(sel) => (None, Some(sel)),
                    CallTarget::Static(_) => unreachable!("static calls do not dispatch"),
                };
                for &raw in new_iks {
                    self.dispatch_one(node, loc, fixed, sel, *recv, args, *dst, InstanceKeyId(raw));
                }
            }
            Constraint::BindParams { callee, nparams } => {
                // Arg-array contents flow into every parameter (reflective
                // invoke loses positions; real arities are 1 in practice).
                for &raw in new_iks {
                    let ak = self.pkey(PointerKey::ArrayElem(InstanceKeyId(raw)));
                    let callee_method = self.node_method(callee);
                    let m = self.program.method(callee_method);
                    let recv_offset = u32::from(!m.is_static);
                    for i in 0..nparams {
                        let pk = self.local(callee, Var(i + recv_offset));
                        self.add_copy(ak, pk, NO_FILTER);
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
                self.add_inst_constraints(node, method, loc, inst);
            }
            match &block.term {
                Terminator::Return(Some(v)) => {
                    let from = self.local(node, *v);
                    let ret = self.pkey(PointerKey::Ret(node));
                    self.add_copy(from, ret, NO_FILTER);
                }
                Terminator::Throw(v) => {
                    let from = self.local(node, *v);
                    self.add_copy(from, exc_target.to, exc_target.filter);
                }
                _ => {}
            }
        }
    }

    /// Where exceptions raised in `block` go: the handler's catch binder
    /// (with its class filter) or the node's exceptional escape.
    fn exc_target_of(&mut self, node: CGNodeId, body: &jir::Body, block: BlockId) -> CopyEdge {
        if let Some(&t) = self.exc_targets.get(&(node, block)) {
            return t;
        }
        let computed = self.compute_exc_target(node, body, block);
        self.exc_targets.insert((node, block), computed);
        computed
    }

    fn compute_exc_target(&mut self, node: CGNodeId, body: &jir::Body, block: BlockId) -> CopyEdge {
        if let Some(h) = body.blocks[block.index()].handler {
            for inst in &body.blocks[h.index()].insts {
                if let Inst::CatchBind { dst, class } = inst {
                    let to = self.local(node, *dst);
                    let filter = self.filter_id(&Some(Filter::InstanceOf(*class)));
                    return CopyEdge { to, filter };
                }
            }
        }
        CopyEdge { to: self.pkey(PointerKey::Exc(node)), filter: NO_FILTER }
    }

    fn add_inst_constraints(&mut self, node: CGNodeId, method: MethodId, loc: Loc, inst: &Inst) {
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
                let filter = self.filter_id(filter);
                self.add_copy(s, d, filter);
            }
            Inst::Phi { dst, srcs } => {
                let d = self.local(node, *dst);
                for (_, v) in srcs {
                    let s = self.local(node, *v);
                    self.add_copy(s, d, NO_FILTER);
                }
            }
            Inst::Select { dst, srcs } => {
                let d = self.local(node, *dst);
                for v in srcs {
                    let s = self.local(node, *v);
                    self.add_copy(s, d, NO_FILTER);
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
                self.add_copy(st, d, NO_FILTER);
            }
            Inst::StaticStore { field, src } => {
                let st = self.pkey(PointerKey::Static(*field));
                let s = self.local(node, *src);
                self.add_copy(s, st, NO_FILTER);
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
                self.add_call(node, method, loc, dst, target, recv, args);
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
        self.contexts.resolve(ctx.0).iter().any(|e| match e {
            ContextElem::Receiver(ik) => matches!(
                self.ikeys.resolve(ik.0),
                InstanceKey::Alloc { site: s, .. } if *s == site
            ),
            ContextElem::Site(s) => *s == site,
        })
    }

    // ---- calls ----

    /// The one-element context holding `elem`.
    fn context(&mut self, elem: ContextElem) -> ContextId {
        ContextId(self.contexts.intern(Some(elem)))
    }

    /// [`PolicyConfig::choose`] for `callee`, asked once per callee and
    /// receiver shape.
    fn context_choice(&mut self, callee: MethodId, has_receiver: bool) -> ContextChoice {
        let slot = 2 * callee.index() + usize::from(has_receiver);
        *self.choices[slot]
            .get_or_insert_with(|| self.config.policy.choose(self.program, callee, has_receiver))
    }

    /// The method a call on `selector` runs on a `class` receiver.
    fn resolve_virtual(&mut self, class: ClassId, selector: SelectorId) -> Option<MethodId> {
        let program = self.program;
        *self
            .virtual_targets
            .entry((class, selector))
            .or_insert_with(|| program.resolve_virtual(class, selector))
    }

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
    ) {
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
                    self.register_constraint(b, Constraint::Dispatch { node, loc });
                }
                None => self.direct_call(node, method, loc, *m, None, args, *dst),
            },
            CallTarget::Virtual(_) => {
                let Some(r) = recv else { return };
                let b = self.local(node, *r);
                self.register_constraint(b, Constraint::Dispatch { node, loc });
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
        let ctx = match self.context_choice(callee, recv.is_some()) {
            ContextChoice::CallSite => {
                self.context(ContextElem::Site(Site { method: caller_method, loc }))
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
        let callee = match fixed {
            Some(m) => Some(m),
            None => {
                let sel = sel.expect("virtual dispatch has a selector");
                let class = self.ikeys.resolve(ik.0).class_of(self.program);
                class.and_then(|c| self.resolve_virtual(c, sel))
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
        let ctx = match self.context_choice(callee, true) {
            ContextChoice::CallSite => {
                self.context(ContextElem::Site(Site { method: caller_method, loc }))
            }
            ContextChoice::Receiver => self.context(ContextElem::Receiver(ik)),
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
                        self.add_copy(rp, this_pk, NO_FILTER);
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
            self.add_copy(ap, fp, NO_FILTER);
        }
        if let Some(d) = dst {
            let ret = self.pkey(PointerKey::Ret(callee_node));
            let dp = self.local(node, d);
            self.add_copy(ret, dp, NO_FILTER);
        }
        // Exceptional flow: callee's escaping exceptions reach this block's
        // handler (or escape further). The caller's exception targets were
        // cached when its constraints were added.
        if let Some(&CopyEdge { to, filter }) = self.exc_targets.get(&(node, loc.block)) {
            let exc = self.pkey(PointerKey::Exc(callee_node));
            self.add_copy(exc, to, filter);
        } else {
            let exc = self.pkey(PointerKey::Exc(callee_node));
            let out = self.pkey(PointerKey::Exc(node));
            self.add_copy(exc, out, NO_FILTER);
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
                        self.add_copy(rp, dp, NO_FILTER);
                    }
                    for &a in args {
                        let ap = self.local(node, a);
                        self.add_copy(ap, dp, NO_FILTER);
                    }
                }
            }
            Intrinsic::ReturnReceiver => {
                if let (Some(d), Some(r)) = (dst, recv) {
                    let dp = self.local(node, d);
                    let rp = self.local(node, r);
                    self.add_copy(rp, dp, NO_FILTER);
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
                let Some(&InstanceKey::MethodObj(_, m)) =
                    recv_ik.map(|ik| self.ikeys.resolve(ik.0))
                else {
                    return;
                };
                if self.program.method(m).body().is_none() {
                    return;
                }
                let ctx = self.context(ContextElem::Site(Site { method: caller_method, loc }));
                let Some(callee_node) = self.ensure_node(m, ctx) else { return };
                self.record_edge(node, loc, callee_node);
                // Receiver: args[0] of invoke.
                let mm = self.program.method(m);
                if !mm.is_static {
                    if let Some(&target_obj) = args.first() {
                        let tp = self.local(node, target_obj);
                        let this_pk = self.local(callee_node, Var(0));
                        self.add_copy(tp, this_pk, NO_FILTER);
                    }
                }
                // Parameters: contents of the Object[] argument.
                if let Some(&arr) = args.get(1) {
                    let ap = self.local(node, arr);
                    let nparams = mm.params.len() as u32;
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
                    self.add_copy(ret, dp, NO_FILTER);
                }
            }
            Intrinsic::ThreadStart => {
                // `t.start()` runs `t.run()` on another thread.
                if let (Some(r), Some(ik)) = (recv, recv_ik) {
                    if let Some(c) = self.ikeys.resolve(ik.0).class_of(self.program) {
                        if let Some(sel) = self.program.find_selector("run", 0) {
                            if let Some(run) = self.resolve_virtual(c, sel) {
                                if self.program.method(run).body().is_some() {
                                    let ctx = self.context(ContextElem::Receiver(ik));
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
                    self.add_copy(rp, dp, NO_FILTER);
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
        let sources: FxHashSet<MethodId> = [id].into_iter().collect();
        let scan = PreScan::scan(&program, &sources);
        assert!(scan.source_adjacent.contains(&id), "sources are their own seeds");
        assert!(scan.source_adjacent.contains(&main), "main calls h.id virtually");
    }
}
