//! Inputs and outputs of the slicing phase: the security-rule projection
//! the slicers consume ([`SliceSpec`]) and the tainted flows they produce
//! ([`Flow`]).

use jir::inst::Loc;
use jir::util::{FxHashMap, FxHashSet};
use jir::MethodId;
use taj_pointer::CGNodeId;
use taj_supervise::InterruptReason;

/// A statement identified globally: call-graph node + location.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StmtNode {
    /// Owning call-graph node.
    pub node: CGNodeId,
    /// Location within the node's method body.
    pub loc: Loc,
}

/// What the slicers need to know from the security rules (§3): which
/// methods generate taint, which neutralize it, and which consume it
/// dangerously.
#[derive(Clone, Debug, Default)]
pub struct SliceSpec {
    /// Source methods: their return value is tainted.
    pub sources: FxHashSet<MethodId>,
    /// Sink methods → 0-based positions of their vulnerable parameters.
    pub sinks: FxHashMap<MethodId, Vec<usize>>,
    /// Sanitizer methods: flow stops at their arguments (§3.2: the no-heap
    /// SDG has no successor edges for sanitizer returns).
    pub sanitizers: FxHashSet<MethodId>,
    /// Additional synthetic source *statements* (e.g. the `getMessage`
    /// calls synthesized at catch sites, §4.1.2). Each is a call statement
    /// whose result is tainted.
    pub synthetic_source_sites: Vec<StmtNode>,
    /// By-reference sources (the paper's footnote 2: methods like
    /// `RandomAccessFile.readFully` that "receive parameters by reference
    /// and taint their internal state"): `(method, parameter position)`.
    /// Calling one taints the contents of the argument object.
    pub ref_sources: FxHashMap<MethodId, Vec<usize>>,
    /// Taint-carrier index (§4.1.1): for an abstract object (raw instance
    /// key id), the sink call statements whose sensitive arguments may
    /// reach it in the heap graph. A store whose base points to the object
    /// adds a direct HSDG edge to each listed sink.
    pub carrier_sinks: FxHashMap<u32, Vec<CarrierSink>>,
}

impl SliceSpec {
    /// Every method the rule classifies: sources, sinks, sanitizers and
    /// by-reference sources. A call to any of them is rule-sensitive.
    pub fn methods(&self) -> impl Iterator<Item = MethodId> + '_ {
        let sets = self.sources.iter().chain(&self.sanitizers);
        sets.chain(self.sinks.keys()).chain(self.ref_sources.keys()).copied()
    }
}

/// A sink reachable through a taint carrier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CarrierSink {
    /// The sink call statement.
    pub stmt: StmtNode,
    /// The resolved sink method.
    pub method: MethodId,
    /// Sensitive parameter position carrying the object.
    pub pos: usize,
}

/// How one step of a reconstructed flow was made.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepKind {
    /// The taint seed (source call).
    Seed,
    /// Local value flow through the statement.
    Local,
    /// Passed as an argument into a callee.
    CallArg,
    /// Returned from a callee back to the call site.
    ReturnTo,
    /// A heap direct edge: store matched to a load (§3.2).
    HeapEdge,
    /// A taint-carrier edge: store matched to a sink consuming the carrier
    /// object (§4.1.1).
    CarrierEdge,
}

/// One step of a flow: a statement plus how the taint got there.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowStep {
    /// The statement.
    pub stmt: StmtNode,
    /// Step kind.
    pub kind: StepKind,
}

/// A tainted source-to-sink flow reported by a slicer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Flow {
    /// The source statement (a source call, or a synthetic source site).
    pub source: StmtNode,
    /// The method whose call generated the taint.
    pub source_method: MethodId,
    /// The sink statement.
    pub sink: StmtNode,
    /// The resolved sink method.
    pub sink_method: MethodId,
    /// Which sink parameter received tainted data.
    pub sink_pos: usize,
    /// The witness path, source first, sink last.
    pub path: Vec<FlowStep>,
    /// Number of heap (store→load / carrier) transitions on the path.
    pub heap_transitions: usize,
}

impl Flow {
    /// Flow length as bounded by §6.2.2: the number of statements on the
    /// witness path.
    pub fn len(&self) -> usize {
        self.path.len()
    }

    /// Whether the path is empty (never true for real flows).
    pub fn is_empty(&self) -> bool {
        self.path.is_empty()
    }
}

/// Result of running a slicer over a program.
#[derive(Clone, Debug, Default)]
pub struct SliceResult {
    /// Distinct `(source, sink, position)` flows, each with one witness
    /// path.
    pub flows: Vec<Flow>,
    /// Heap store→load transitions performed during slicing (the §6.2.1
    /// budget counts these).
    pub heap_transitions: usize,
    /// Whether the heap-transition budget was exhausted (result may be
    /// under-approximate).
    pub budget_exhausted: bool,
    /// Path edges / facts processed (work measure; the CS slicer's memory
    /// proxy).
    pub work: usize,
    /// Why the slicer stopped early, if its supervisor interrupted it.
    /// `flows` then holds every flow completed before the interrupt
    /// (a sound-but-partial under-approximation).
    pub interrupted: Option<InterruptReason>,
}

/// Failure modes of a slicer run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SliceError {
    /// The slicer exceeded its memory budget (path-edge count) — the
    /// reproducible analogue of the paper's CS out-of-memory failures.
    OutOfBudget {
        /// Path edges created before giving up.
        path_edges: usize,
    },
}

impl std::fmt::Display for SliceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SliceError::OutOfBudget { path_edges } => {
                write!(f, "slicer exceeded its path-edge budget ({path_edges} edges)")
            }
        }
    }
}

impl std::error::Error for SliceError {}

/// Bounds on the slicing process (§6.2).
#[derive(Clone, Copy, Debug, Default)]
pub struct SliceBounds {
    /// Maximum store→load transitions during hybrid slicing (§6.2.1).
    pub max_heap_transitions: Option<usize>,
    /// Path-edge budget (memory proxy); exceeded ⇒ [`SliceError::OutOfBudget`].
    pub max_path_edges: Option<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_len_counts_path() {
        let s = StmtNode { node: CGNodeId(0), loc: Loc::new(jir::BlockId(0), 0) };
        let flow = Flow {
            source: s,
            source_method: MethodId(0),
            sink: s,
            sink_method: MethodId(1),
            sink_pos: 0,
            path: vec![
                FlowStep { stmt: s, kind: StepKind::Seed },
                FlowStep { stmt: s, kind: StepKind::Local },
            ],
            heap_transitions: 0,
        };
        assert_eq!(flow.len(), 2);
        assert!(!flow.is_empty());
    }

    #[test]
    fn slice_error_display() {
        let e = SliceError::OutOfBudget { path_edges: 10 };
        assert!(e.to_string().contains("10"));
    }
}
