//! Thread-escape analysis over the phase-1 points-to solution.
//!
//! The paper documents (§7.2, Figure 4) that CS thin slicing is unsound
//! for multithreaded applications — heap writes performed by a spawned
//! thread never propagate back across `Thread.start` — while the hybrid
//! slicer stays sound only by treating every store→load pair as
//! potentially inter-thread. Both slicers can do better with one cheap
//! post-pass over phase 1: the set of abstract objects that can actually
//! be *shared between threads*.
//!
//! An instance key escapes its creating thread iff it is reachable (by
//! field/array dereference in the [`HeapGraph`]) from
//!
//! 1. a receiver of a `Thread.start` call (the spawned `Runnable` and
//!    everything it can reach), or
//! 2. a static field (visible to every thread).
//!
//! Everything else is thread-local: a cross-thread heap dependence
//! through a non-escaping object is impossible, so dropping it is sound
//! and only removes false positives; conversely, re-adding spawn-edge
//! propagation *only* for escaping objects repairs the CS false
//! negatives without readmitting the full fact explosion.

use jir::inst::{Loc, Var};
use jir::method::Intrinsic;
use jir::util::BitSet;
use taj_supervise::{InterruptReason, Supervisor};

use crate::callgraph::CGNodeId;
use crate::heapgraph::HeapGraph;
use crate::keys::PointerKey;
use crate::solver::PointsTo;

/// One `Thread.start` call-graph edge: the spawning call site and the
/// spawned `run` node (already context-refined by the solver).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SpawnEdge {
    /// Node containing the `t.start()` call.
    pub caller: CGNodeId,
    /// Location of the `t.start()` call inside `caller`.
    pub loc: Loc,
    /// The spawned `run` method's call-graph node.
    pub callee: CGNodeId,
}

/// Collects every `Thread.start` call-graph edge. The edge triple —
/// caller, call-site location, *and* spawned callee — is the canonical
/// key shared by the CS slicer's spawn-site handling, the MHP relation,
/// and this escape analysis.
pub fn spawn_edges(pts: &PointsTo) -> Vec<SpawnEdge> {
    pts.callgraph
        .edges
        .iter()
        .filter(|e| {
            pts.intrinsics_at(e.caller, e.loc).iter().any(|&(_, i)| i == Intrinsic::ThreadStart)
        })
        .map(|e| SpawnEdge { caller: e.caller, loc: e.loc, callee: e.callee })
        .collect()
}

/// The thread-escape solution: which abstract objects may be shared
/// across threads.
#[derive(Clone, Debug)]
pub struct EscapeAnalysis {
    spawn_edges: Vec<SpawnEdge>,
    /// Escape roots: spawn receivers plus every object a static points to.
    roots: BitSet,
    /// Roots closed under field/array reachability.
    escaping: BitSet,
    /// Total number of instance keys in the solution (for reporting).
    total_objects: usize,
}

impl EscapeAnalysis {
    /// Computes the escaping-object set from a points-to solution and its
    /// heap graph.
    pub fn compute(pts: &PointsTo, heap: &HeapGraph) -> EscapeAnalysis {
        let spawn_edges = spawn_edges(pts);
        let mut roots = BitSet::new();
        // Root set 1: receivers at spawn sites. The solver seeds the
        // spawned `run` node's `this` (Var 0) with exactly the receiver
        // instance keys, so read them back from the callee.
        for e in &spawn_edges {
            if let Some(receivers) = pts.local(e.callee, Var(0)) {
                roots.union_into(receivers);
            }
        }
        // Root set 2: objects stored in static fields.
        for (_, key, set) in pts.iter_pointer_keys() {
            if matches!(key, PointerKey::Static(_)) {
                roots.union_into(set);
            }
        }
        let escaping = heap.reachable(&roots, None);
        EscapeAnalysis { spawn_edges, roots, escaping, total_objects: pts.num_instance_keys() }
    }

    /// Supervised variant of [`EscapeAnalysis::compute`] (site
    /// `escape.compute`). On an interrupt the *conservative*
    /// everything-escapes solution is returned: consumers treat escaping
    /// objects as shared, so over-approximating loses precision but
    /// never soundness.
    pub fn compute_supervised(
        pts: &PointsTo,
        heap: &HeapGraph,
        supervisor: &Supervisor,
    ) -> (EscapeAnalysis, Option<InterruptReason>) {
        if let Err(reason) = supervisor.check("escape.compute") {
            return (Self::all_escaping(pts), Some(reason));
        }
        (Self::compute(pts, heap), None)
    }

    /// The conservative top element: every object is considered shared
    /// across threads.
    pub fn all_escaping(pts: &PointsTo) -> EscapeAnalysis {
        let mut escaping = BitSet::new();
        for ik in 0..pts.num_instance_keys() as u32 {
            escaping.insert(ik);
        }
        EscapeAnalysis {
            spawn_edges: spawn_edges(pts),
            roots: escaping.clone(),
            escaping,
            total_objects: pts.num_instance_keys(),
        }
    }

    /// An escape analysis for a single-threaded program with no statics:
    /// nothing escapes, no spawn edges.
    pub fn empty() -> EscapeAnalysis {
        EscapeAnalysis {
            spawn_edges: Vec::new(),
            roots: BitSet::new(),
            escaping: BitSet::new(),
            total_objects: 0,
        }
    }

    /// Does the given instance key escape its creating thread?
    pub fn escapes(&self, ik: u32) -> bool {
        self.escaping.contains(ik)
    }

    /// The full escaping set.
    pub fn escaping(&self) -> &BitSet {
        &self.escaping
    }

    /// The escape roots (spawn receivers + statics, before closure).
    pub fn roots(&self) -> &BitSet {
        &self.roots
    }

    /// All `Thread.start` edges in the call graph.
    pub fn spawn_edges(&self) -> &[SpawnEdge] {
        &self.spawn_edges
    }

    /// Number of distinct spawn call sites (not edges: a site spawning
    /// several receiver contexts counts once).
    pub fn num_spawn_sites(&self) -> usize {
        let mut sites: Vec<(CGNodeId, Loc)> =
            self.spawn_edges.iter().map(|e| (e.caller, e.loc)).collect();
        sites.sort();
        sites.dedup();
        sites.len()
    }

    /// Number of escaping objects.
    pub fn num_escaping(&self) -> usize {
        self.escaping.len()
    }

    /// Total objects in the underlying points-to solution.
    pub fn total_objects(&self) -> usize {
        self.total_objects
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{analyze, SolverConfig};

    fn run(src: &str) -> (jir::Program, PointsTo, HeapGraph) {
        let mut program = jir::frontend::build_program(src).expect("builds");
        let mains: Vec<jir::MethodId> = program
            .iter_classes()
            .map(|(cid, _)| cid)
            .collect::<Vec<_>>()
            .into_iter()
            .filter_map(|cid| program.method_by_name(cid, "main"))
            .collect();
        program.entrypoints.extend(mains);
        let pts = analyze(&program, &SolverConfig::default());
        let heap = HeapGraph::build(&pts);
        (program, pts, heap)
    }

    fn class_of_ik(program: &jir::Program, pts: &PointsTo, ik: u32) -> String {
        pts.instance_key(crate::keys::InstanceKeyId(ik))
            .class_of(program)
            .map(|c| program.class(c).name.clone())
            .unwrap_or_default()
    }

    const THREADED: &str = r#"
        class Box { field String v; ctor () { } }
        class Inner { field Box held; ctor (Box b) { this.held = b; } }
        class Worker implements Runnable {
            field Inner shared;
            ctor (Inner s) { this.shared = s; }
            method void run() { Inner s = this.shared; }
        }
        class Main {
            static method void main() {
                Box b = new Box();
                Inner i = new Inner(b);
                Worker w = new Worker(i);
                Thread t = new Thread(w);
                t.start();
                Box local = new Box();
            }
        }
    "#;

    #[test]
    fn spawn_receivers_and_reachable_objects_escape() {
        let (program, pts, heap) = run(THREADED);
        let esc = EscapeAnalysis::compute(&pts, &heap);
        assert_eq!(esc.spawn_edges().len(), 1, "one Thread.start edge");
        assert_eq!(esc.num_spawn_sites(), 1);

        let class_names: Vec<String> =
            esc.escaping().iter().map(|ik| class_of_ik(&program, &pts, ik)).collect();
        // The worker and everything reachable from it escape.
        for expected in ["Worker", "Inner", "Box"] {
            assert!(
                class_names.iter().any(|n| n == expected),
                "{expected} should escape; escaping classes: {class_names:?}"
            );
        }
    }

    #[test]
    fn thread_local_objects_do_not_escape() {
        let (program, pts, heap) = run(THREADED);
        let esc = EscapeAnalysis::compute(&pts, &heap);
        // `local` is a second Box allocation never shared with the
        // thread: its instance key must not escape even though another
        // Box does.
        let boxes: Vec<u32> = pts
            .iter_instance_keys()
            .filter(|(_, k)| k.class_of(&program).is_some_and(|c| program.class(c).name == "Box"))
            .map(|(id, _)| id.0)
            .collect();
        assert!(boxes.len() >= 2, "two Box allocation sites: {boxes:?}");
        assert!(boxes.iter().any(|&ik| esc.escapes(ik)), "the shared Box escapes");
        assert!(boxes.iter().any(|&ik| !esc.escapes(ik)), "the local Box stays thread-local");
    }

    #[test]
    fn statics_escape_without_threads() {
        let (_program, pts, heap) = run(r#"
            class Holder { static field Object shared; }
            class Main {
                static method void main() {
                    Object o = new Object();
                    Holder.shared = o;
                    Object p = new Object();
                }
            }
        "#);
        let esc = EscapeAnalysis::compute(&pts, &heap);
        assert!(esc.spawn_edges().is_empty());
        assert!(esc.num_escaping() >= 1, "static-held object escapes");
        assert!(
            esc.num_escaping() < pts.num_instance_keys(),
            "the purely local object must not escape"
        );
    }

    #[test]
    fn single_threaded_no_statics_escapes_nothing() {
        let (_program, pts, heap) = run(r#"
            class Main {
                static method void main() {
                    Object o = new Object();
                }
            }
        "#);
        let esc = EscapeAnalysis::compute(&pts, &heap);
        assert!(esc.spawn_edges().is_empty());
        assert_eq!(esc.num_escaping(), 0, "{:?}", esc.escaping());
    }
}
