//! The context-qualified call graph built on the fly during pointer
//! analysis (§3.1).

use jir::inst::Loc;
use jir::util::FxHashMap;
use jir::MethodId;

use crate::context::ContextId;

jir::index_type! {
    /// Id of a call-graph node: a method analyzed in a specific context.
    pub struct CGNodeId, "cg"
}

/// One call edge: `caller` invokes `callee` from the instruction at `loc`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CallEdge {
    /// Calling node.
    pub caller: CGNodeId,
    /// Call-site location within the caller's method body.
    pub loc: Loc,
    /// Callee node.
    pub callee: CGNodeId,
}

/// The finished call graph: nodes, edges, and per-site target lists.
#[derive(Debug, Clone, Default)]
pub struct CallGraph {
    /// `(method, context)` per node.
    pub nodes: Vec<(MethodId, ContextId)>,
    /// All call edges.
    pub edges: Vec<CallEdge>,
    /// Entry nodes (entrypoints in the root context).
    pub entry_nodes: Vec<CGNodeId>,
    site_targets: FxHashMap<(CGNodeId, Loc), Vec<CGNodeId>>,
    succs: Vec<Vec<CGNodeId>>,
    preds: Vec<Vec<CGNodeId>>,
}

impl CallGraph {
    /// Builds adjacency from raw parts (called by the solver).
    pub fn from_parts(
        nodes: Vec<(MethodId, ContextId)>,
        edges: Vec<CallEdge>,
        entry_nodes: Vec<CGNodeId>,
    ) -> Self {
        let mut site_targets: FxHashMap<(CGNodeId, Loc), Vec<CGNodeId>> = FxHashMap::default();
        let mut succs = vec![Vec::new(); nodes.len()];
        let mut preds = vec![Vec::new(); nodes.len()];
        for e in &edges {
            site_targets.entry((e.caller, e.loc)).or_default().push(e.callee);
            if !succs[e.caller.index()].contains(&e.callee) {
                succs[e.caller.index()].push(e.callee);
            }
            if !preds[e.callee.index()].contains(&e.caller) {
                preds[e.callee.index()].push(e.caller);
            }
        }
        CallGraph { nodes, edges, entry_nodes, site_targets, succs, preds }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The method of `node`.
    pub fn method_of(&self, node: CGNodeId) -> MethodId {
        self.nodes[node.index()].0
    }

    /// The context of `node`.
    pub fn context_of(&self, node: CGNodeId) -> ContextId {
        self.nodes[node.index()].1
    }

    /// Callee nodes resolved for the call at `(node, loc)`.
    pub fn targets(&self, node: CGNodeId, loc: Loc) -> &[CGNodeId] {
        self.site_targets.get(&(node, loc)).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Unique successor nodes of `node`.
    pub fn succs(&self, node: CGNodeId) -> &[CGNodeId] {
        &self.succs[node.index()]
    }

    /// Unique predecessor nodes of `node`.
    pub fn preds(&self, node: CGNodeId) -> &[CGNodeId] {
        &self.preds[node.index()]
    }

    /// Iterates over node ids.
    pub fn iter_nodes(&self) -> impl Iterator<Item = CGNodeId> {
        (0..self.nodes.len()).map(CGNodeId::new)
    }

    /// All nodes analyzing `method` (over every context).
    pub fn nodes_of_method(&self, method: MethodId) -> Vec<CGNodeId> {
        self.iter_nodes().filter(|&n| self.method_of(n) == method).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jir::BlockId;

    #[test]
    fn adjacency_deduplicates() {
        let nodes = vec![(MethodId(0), ContextId(0)), (MethodId(1), ContextId(0))];
        let loc = Loc::new(BlockId(0), 0);
        let edges = vec![
            CallEdge { caller: CGNodeId(0), loc, callee: CGNodeId(1) },
            CallEdge { caller: CGNodeId(0), loc, callee: CGNodeId(1) },
        ];
        let cg = CallGraph::from_parts(nodes, edges, vec![CGNodeId(0)]);
        assert_eq!(cg.succs(CGNodeId(0)), &[CGNodeId(1)]);
        assert_eq!(cg.preds(CGNodeId(1)), &[CGNodeId(0)]);
        assert_eq!(cg.targets(CGNodeId(0), loc).len(), 2, "site targets keep multiplicity");
        assert_eq!(cg.len(), 2);
    }

    #[test]
    fn nodes_of_method_spans_contexts() {
        let nodes = vec![
            (MethodId(5), ContextId(0)),
            (MethodId(5), ContextId(1)),
            (MethodId(6), ContextId(0)),
        ];
        let cg = CallGraph::from_parts(nodes, vec![], vec![]);
        assert_eq!(cg.nodes_of_method(MethodId(5)).len(), 2);
    }
}
