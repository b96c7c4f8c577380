//! May-happen-in-parallel (MHP) relation over call-graph nodes.
//!
//! A coarse but sound partition of the call graph into *thread sides*:
//!
//! - **main**: nodes reachable from the program entrypoints without
//!   crossing a `Thread.start` spawn edge;
//! - **spawned**: nodes reachable from a spawned `run` node (per spawn
//!   edge, so a node can be attributed to the specific threads that may
//!   execute it).
//!
//! A node can be on both sides (a helper called from `main` and from a
//! `run` body). [`MhpRelation::same_thread_possible`] is the query the
//! hybrid slicer's escape filter needs: a store→load heap edge between
//! nodes that can *only* execute on different threads is real only if
//! the object actually escapes.

use taj_pointer::{spawn_edges, CGNodeId, PointsTo};
use taj_supervise::{InterruptReason, Supervisor};

/// The computed MHP relation.
#[derive(Clone, Debug)]
pub struct MhpRelation {
    /// Per node: may it execute on the main thread?
    main: Vec<bool>,
    /// Per node: may it execute on any spawned thread?
    spawned_any: Vec<bool>,
    /// Per spawn edge: the nodes reachable from its spawned `run` node.
    spawned_reach: Vec<Vec<bool>>,
}

impl MhpRelation {
    /// Derives the MHP relation from the phase-1 call graph.
    pub fn compute(pts: &PointsTo) -> MhpRelation {
        Self::compute_supervised(pts, &Supervisor::new()).0
    }

    /// Supervised variant of [`MhpRelation::compute`]: checks run at the
    /// reachability loops (`mhp.reach` site). On an interrupt the
    /// *conservative* single-threaded relation is returned — it never
    /// lets the hybrid concurrency filter drop an edge, so a truncated
    /// MHP can only lose precision, never soundness.
    pub fn compute_supervised(
        pts: &PointsTo,
        supervisor: &Supervisor,
    ) -> (MhpRelation, Option<InterruptReason>) {
        let cg = &pts.callgraph;
        let n = cg.len();
        let edges = spawn_edges(pts);

        // Caller→callee pairs that exist *only* as spawn edges: the main
        // BFS must not cross them. (If the same pair also exists as an
        // ordinary call — e.g. code that invokes `run()` directly — it
        // stays traversable.)
        let mut spawn_only: Vec<(CGNodeId, CGNodeId)> =
            edges.iter().map(|e| (e.caller, e.callee)).collect();
        spawn_only.retain(|&(caller, callee)| {
            !cg.edges.iter().any(|e| {
                e.caller == caller
                    && e.callee == callee
                    && !edges
                        .iter()
                        .any(|s| s.caller == e.caller && s.loc == e.loc && s.callee == e.callee)
            })
        });

        let mut main = vec![false; n];
        let mut stack: Vec<CGNodeId> = Vec::new();
        for &e in &cg.entry_nodes {
            if !main[e.index()] {
                main[e.index()] = true;
                stack.push(e);
            }
        }
        while let Some(node) = stack.pop() {
            if let Err(reason) = supervisor.check("mhp.reach") {
                return (MhpRelation::single_threaded(n), Some(reason));
            }
            for &succ in cg.succs(node) {
                if spawn_only.contains(&(node, succ)) {
                    continue;
                }
                if !main[succ.index()] {
                    main[succ.index()] = true;
                    stack.push(succ);
                }
            }
        }

        let mut spawned_any = vec![false; n];
        let mut spawned_reach = Vec::with_capacity(edges.len());
        for &edge in &edges {
            let mut reach = vec![false; n];
            let mut stack = vec![edge.callee];
            reach[edge.callee.index()] = true;
            while let Some(node) = stack.pop() {
                if let Err(reason) = supervisor.check("mhp.reach") {
                    return (MhpRelation::single_threaded(n), Some(reason));
                }
                for &succ in cg.succs(node) {
                    if !reach[succ.index()] {
                        reach[succ.index()] = true;
                        stack.push(succ);
                    }
                }
            }
            for (i, &r) in reach.iter().enumerate() {
                if r {
                    spawned_any[i] = true;
                }
            }
            spawned_reach.push(reach);
        }

        (MhpRelation { main, spawned_any, spawned_reach }, None)
    }

    /// An MHP relation for a single-threaded program: everything is main.
    pub fn single_threaded(num_nodes: usize) -> MhpRelation {
        MhpRelation {
            main: vec![true; num_nodes],
            spawned_any: vec![false; num_nodes],
            spawned_reach: Vec::new(),
        }
    }

    /// May `node` execute on the main thread?
    pub fn on_main(&self, node: CGNodeId) -> bool {
        self.main.get(node.index()).copied().unwrap_or(true)
    }

    /// May `node` execute on a spawned thread?
    pub fn on_spawned(&self, node: CGNodeId) -> bool {
        self.spawned_any.get(node.index()).copied().unwrap_or(false)
    }

    /// Number of nodes that may execute on a spawned thread.
    pub fn num_parallel_nodes(&self) -> usize {
        self.spawned_any.iter().filter(|&&s| s).count()
    }

    /// Can `a` and `b` execute on the same thread in some run? True when
    /// both may run on main, or both may run on the *same* spawned
    /// thread. When this is false, any heap dependence between the two
    /// is necessarily inter-thread.
    pub fn same_thread_possible(&self, a: CGNodeId, b: CGNodeId) -> bool {
        if self.on_main(a) && self.on_main(b) {
            return true;
        }
        self.spawned_reach.iter().any(|reach| reach[a.index()] && reach[b.index()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taj_pointer::{analyze, SolverConfig};

    fn build(src: &str) -> (jir::Program, PointsTo) {
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
        (program, pts)
    }

    fn node_of(program: &jir::Program, pts: &PointsTo, class: &str, method: &str) -> CGNodeId {
        let cid = program.class_by_name(class).expect("class exists");
        let mid = program.method_by_name(cid, method).expect("method exists");
        pts.callgraph
            .nodes_of_method(mid)
            .first()
            .copied()
            .unwrap_or_else(|| panic!("{class}.{method} not in call graph"))
    }

    const SRC: &str = r#"
        class Helper {
            static method void tick() { }
        }
        class Worker implements Runnable {
            ctor () { }
            method void run() { this.inner(); }
            method void inner() { Helper.tick(); }
        }
        class Main {
            static method void prologue() { }
            static method void main() {
                Main.prologue();
                Worker w = new Worker();
                Thread t = new Thread(w);
                t.start();
                Main.epilogue();
            }
            static method void epilogue() { }
        }
    "#;

    #[test]
    fn partitions_main_and_spawned() {
        let (program, pts) = build(SRC);
        let mhp = MhpRelation::compute(&pts);
        let main_node = node_of(&program, &pts, "Main", "main");
        let run = node_of(&program, &pts, "Worker", "run");
        let inner = node_of(&program, &pts, "Worker", "inner");
        let prologue = node_of(&program, &pts, "Main", "prologue");

        assert!(mhp.on_main(main_node) && !mhp.on_spawned(main_node));
        assert!(mhp.on_spawned(run) && !mhp.on_main(run), "run is spawn-only");
        assert!(mhp.on_spawned(inner), "transitive spawned reachability");
        assert!(mhp.on_main(prologue));
    }

    #[test]
    fn helpers_called_from_both_sides_are_on_both() {
        let (program, pts) = build(SRC);
        let mhp = MhpRelation::compute(&pts);
        // Helper.tick is called from Worker.inner only → spawned only.
        let tick = node_of(&program, &pts, "Helper", "tick");
        assert!(mhp.on_spawned(tick));
        assert!(!mhp.on_main(tick));
    }

    #[test]
    fn same_thread_queries() {
        let (program, pts) = build(SRC);
        let mhp = MhpRelation::compute(&pts);
        let main_node = node_of(&program, &pts, "Main", "main");
        let run = node_of(&program, &pts, "Worker", "run");
        let inner = node_of(&program, &pts, "Worker", "inner");
        let epilogue = node_of(&program, &pts, "Main", "epilogue");

        // run/inner live on the same single thread.
        assert!(mhp.same_thread_possible(run, inner));
        assert!(!mhp.same_thread_possible(main_node, run));
        assert!(mhp.same_thread_possible(main_node, epilogue));
    }

    #[test]
    fn single_threaded_program_has_no_parallelism() {
        let (program, pts) = build(
            r#"
            class Main {
                static method void main() { Main.aux(); }
                static method void aux() { }
            }
        "#,
        );
        let mhp = MhpRelation::compute(&pts);
        let main_node = node_of(&program, &pts, "Main", "main");
        let aux = node_of(&program, &pts, "Main", "aux");
        assert_eq!(mhp.num_parallel_nodes(), 0);
        assert!(mhp.on_main(main_node) && mhp.on_main(aux));
        assert!(mhp.same_thread_possible(main_node, aux));
    }
}
