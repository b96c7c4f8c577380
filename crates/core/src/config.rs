//! The analysis configurations of the evaluation (Table 1): three hybrid
//! variants (unbounded, prioritized, fully optimized), the CS and CI
//! thin-slicing baselines, plus the concurrency-aware CS-Escape repair
//! (CS with thread-escape analysis closing the §7.2 soundness gap).

use serde::Serialize;

/// Which slicing algorithm drives phase 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize)]
pub enum Algorithm {
    /// Hybrid thin slicing (§3.2).
    Hybrid,
    /// Context-sensitive thin slicing (baseline).
    CsThin,
    /// Context-insensitive thin slicing (baseline).
    CiThin,
    /// IFDS tabulation over bounded-depth access-path facts (post-paper;
    /// the independent cross-check engine of the differential harness).
    Ifds,
}

/// A full analysis configuration (one column of Table 1).
#[derive(Clone, Copy, Debug, Serialize)]
pub struct TajConfig {
    /// Human-readable name as used in the paper's tables.
    pub name: &'static str,
    /// Slicing algorithm.
    pub algorithm: Algorithm,
    /// Call-graph node budget (§6.1); `None` = unbounded.
    pub max_cg_nodes: Option<usize>,
    /// Priority-driven call-graph construction (§6.1).
    pub priority: bool,
    /// Heap store→load transition bound during slicing (§6.2.1).
    pub max_heap_transitions: Option<usize>,
    /// Flow-length filter: drop flows longer than this (§6.2.2).
    pub max_flow_len: Option<usize>,
    /// Nested-taint field-dereference bound for carrier detection
    /// (§6.2.3); `None` = unbounded (sound) search.
    pub nested_depth: Option<usize>,
    /// Path-edge budget for the CS slicer (memory proxy; exceeding it is
    /// the paper's out-of-memory failure).
    pub cs_path_edge_budget: Option<usize>,
    /// Access-path depth bound `k` for the IFDS slicer: field chains
    /// longer than `k` widen to field-insensitive taint. Ignored by the
    /// other algorithms.
    pub access_path_depth: usize,
    /// Concurrency awareness: run the thread-escape + MHP analyses and
    /// use them in phase 2. For the CS slicer this reinstates heap-fact
    /// propagation across `Thread.start` edges for escaping objects
    /// (closing the §7.2 soundness gap); for the hybrid slicers it drops
    /// store→load edges that would require a cross-thread dependence on
    /// a non-escaping object (strictly a false-positive filter).
    pub escape_analysis: bool,
}

/// Paper-scale defaults, scaled ~10× down to our synthetic benchmarks:
/// the paper bounds call graphs at 20 000 nodes, heap transitions at
/// 20 000, flow length at 14, nested depth at 2.
pub mod defaults {
    /// Call-graph node budget for prioritized/optimized runs.
    pub const MAX_CG_NODES: usize = 3_500;
    /// Heap-transition budget for the optimized run.
    pub const MAX_HEAP_TRANSITIONS: usize = 2_000;
    /// Flow-length filter for the optimized run (same as the paper).
    pub const MAX_FLOW_LEN: usize = 14;
    /// Nested-taint depth for the optimized run (same as the paper).
    pub const NESTED_DEPTH: usize = 2;
    /// CS slicer path-edge budget (its "3 GB heap").
    pub const CS_PATH_EDGES: usize = 10_000;
    /// Access-path depth bound for the IFDS configuration.
    pub const ACCESS_PATH_DEPTH: usize = 2;
}

impl TajConfig {
    /// Hybrid, unbounded: runs to completion, no bounds (Table 1 col. 1).
    pub fn hybrid_unbounded() -> Self {
        TajConfig {
            name: "Hybrid-Unbounded",
            algorithm: Algorithm::Hybrid,
            max_cg_nodes: None,
            priority: false,
            max_heap_transitions: None,
            max_flow_len: None,
            nested_depth: None,
            cs_path_edge_budget: None,
            access_path_depth: defaults::ACCESS_PATH_DEPTH,
            escape_analysis: false,
        }
    }

    /// Hybrid, prioritized: priority-driven call-graph construction under
    /// a node budget (Table 1 col. 2).
    pub fn hybrid_prioritized() -> Self {
        TajConfig {
            name: "Hybrid-Prioritized",
            max_cg_nodes: Some(defaults::MAX_CG_NODES),
            priority: true,
            ..Self::hybrid_unbounded()
        }
    }

    /// Hybrid, fully optimized: priority + heap-transition bound +
    /// flow-length filter + nested-depth bound (Table 1 col. 3).
    pub fn hybrid_optimized() -> Self {
        TajConfig {
            name: "Hybrid-Optimized",
            max_heap_transitions: Some(defaults::MAX_HEAP_TRANSITIONS),
            max_flow_len: Some(defaults::MAX_FLOW_LEN),
            nested_depth: Some(defaults::NESTED_DEPTH),
            ..Self::hybrid_prioritized()
        }
    }

    /// Context-sensitive thin slicing (Table 1 col. 4).
    pub fn cs_thin() -> Self {
        TajConfig {
            name: "CS",
            algorithm: Algorithm::CsThin,
            cs_path_edge_budget: Some(defaults::CS_PATH_EDGES),
            ..Self::hybrid_unbounded()
        }
    }

    /// Context-insensitive thin slicing (Table 1 col. 5).
    pub fn ci_thin() -> Self {
        TajConfig { name: "CI", algorithm: Algorithm::CiThin, ..Self::hybrid_unbounded() }
    }

    /// CS thin slicing with the thread-escape repair (the sixth, post-paper
    /// configuration): identical to [`Self::cs_thin`] except that heap
    /// facts on escaping objects may cross `Thread.start` edges, recovering
    /// the multithreading false negatives of §7.2 / Figure 4.
    pub fn cs_escape() -> Self {
        TajConfig { name: "CS-Escape", escape_analysis: true, ..Self::cs_thin() }
    }

    /// IFDS tabulation with bounded-depth access paths (the seventh,
    /// post-paper configuration): a genuinely independent algorithm over
    /// the same phase-1 artifacts, used as the cross-check engine of the
    /// three-way differential harness. Unbounded like
    /// [`Self::hybrid_unbounded`] except for the access-path depth `k`
    /// (default [`defaults::ACCESS_PATH_DEPTH`]), past which taint
    /// widens to field-insensitive.
    pub fn ifds() -> Self {
        TajConfig { name: "IFDS", algorithm: Algorithm::Ifds, ..Self::hybrid_unbounded() }
    }

    /// A deliberately starved CS configuration (`cs-tiny`): a path-edge
    /// budget so small that any non-trivial program exhausts it. Exists
    /// to exercise the paper's out-of-memory failure mode — and the fall
    /// to Hybrid-Unbounded that replaces it — deterministically from
    /// every front door. Not a Table 1 column, so it is resolvable by
    /// name but absent from [`Self::all`].
    pub fn cs_tiny() -> Self {
        TajConfig { name: "CS-Tiny", cs_path_edge_budget: Some(4), ..Self::cs_thin() }
    }

    /// Looks a configuration up by name: either the Table 1 name
    /// (`Hybrid-Unbounded`, `CS`, ...) or the short CLI/protocol alias
    /// (`hybrid`, `cs`, `cs-escape`, ...). The single source of truth for
    /// every front door — the one-shot CLI, the daemon protocol, and the
    /// client all resolve names here, so they cannot drift.
    pub fn by_name(name: &str) -> Option<TajConfig> {
        Some(match name {
            "hybrid" | "unbounded" | "Hybrid-Unbounded" => Self::hybrid_unbounded(),
            "prioritized" | "Hybrid-Prioritized" => Self::hybrid_prioritized(),
            "optimized" | "Hybrid-Optimized" => Self::hybrid_optimized(),
            "cs" | "CS" => Self::cs_thin(),
            "ci" | "CI" => Self::ci_thin(),
            "cs_escape" | "cs-escape" | "escape" | "CS-Escape" => Self::cs_escape(),
            "cs_tiny" | "cs-tiny" | "CS-Tiny" => Self::cs_tiny(),
            "ifds" | "IFDS" => Self::ifds(),
            _ => return None,
        })
    }

    /// All seven configurations: the paper's five columns in order, then
    /// the CS-Escape repair and the IFDS cross-check engine.
    pub fn all() -> Vec<TajConfig> {
        vec![
            Self::hybrid_unbounded(),
            Self::hybrid_prioritized(),
            Self::hybrid_optimized(),
            Self::cs_thin(),
            Self::ci_thin(),
            Self::cs_escape(),
            Self::ifds(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_settings_matrix() {
        let u = TajConfig::hybrid_unbounded();
        assert!(!u.priority && u.max_cg_nodes.is_none() && u.max_flow_len.is_none());
        let p = TajConfig::hybrid_prioritized();
        assert!(p.priority && p.max_cg_nodes.is_some() && p.max_flow_len.is_none());
        let o = TajConfig::hybrid_optimized();
        assert!(
            o.priority
                && o.max_cg_nodes.is_some()
                && o.max_heap_transitions.is_some()
                && o.max_flow_len == Some(14)
                && o.nested_depth == Some(2)
        );
        let cs = TajConfig::cs_thin();
        assert_eq!(cs.algorithm, Algorithm::CsThin);
        assert!(cs.cs_path_edge_budget.is_some());
        assert!(!cs.escape_analysis);
        let ci = TajConfig::ci_thin();
        assert_eq!(ci.algorithm, Algorithm::CiThin);
        let ce = TajConfig::cs_escape();
        assert_eq!(ce.algorithm, Algorithm::CsThin);
        assert!(ce.escape_analysis);
        assert_eq!(ce.cs_path_edge_budget, cs.cs_path_edge_budget);
        let i = TajConfig::ifds();
        assert_eq!(i.algorithm, Algorithm::Ifds);
        assert_eq!(i.access_path_depth, defaults::ACCESS_PATH_DEPTH);
        assert!(i.max_cg_nodes.is_none() && i.max_heap_transitions.is_none());
    }

    #[test]
    fn by_name_resolves_table_names_and_aliases() {
        for c in TajConfig::all() {
            let resolved = TajConfig::by_name(c.name).expect("Table 1 name resolves");
            assert_eq!(resolved.name, c.name);
        }
        assert_eq!(TajConfig::by_name("hybrid").unwrap().name, "Hybrid-Unbounded");
        assert_eq!(TajConfig::by_name("cs-escape").unwrap().name, "CS-Escape");
        assert!(TajConfig::by_name("nope").is_none());
        assert!(TajConfig::by_name("").is_none());
    }

    #[test]
    fn seven_configurations() {
        let all = TajConfig::all();
        assert_eq!(all.len(), 7);
        // Only the repair configuration is concurrency-aware by default.
        assert_eq!(
            all.iter().filter(|c| c.escape_analysis).count(),
            1,
            "exactly one escape-enabled default configuration"
        );
        assert_eq!(all[5].name, "CS-Escape");
        assert_eq!(all[6].name, "IFDS");
    }
}
