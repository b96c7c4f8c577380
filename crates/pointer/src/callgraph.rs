//! The context-qualified call graph built on the fly during pointer
//! analysis (§3.1).

use jir::inst::Loc;
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

/// The finished call graph: nodes, edges, and flat adjacency.
///
/// Each adjacency is one array with offsets: a node's call sites are a
/// range of `sites`, sorted by location, and each site's targets a range
/// of `site_targets`, in edge order. Successors and predecessors are
/// deduplicated and kept in first-edge order.
#[derive(Debug, Clone, Default)]
pub struct CallGraph {
    /// `(method, context)` per node.
    pub nodes: Vec<(MethodId, ContextId)>,
    /// All call edges.
    pub edges: Vec<CallEdge>,
    /// Entry nodes (entrypoints in the root context).
    pub entry_nodes: Vec<CGNodeId>,
    /// Per node, the start of its sites in `sites`, plus one end.
    node_sites: Vec<u32>,
    /// Call sites with edges, grouped by caller and sorted by location.
    sites: Vec<Loc>,
    /// Per site, the start of its targets in `site_targets`, plus one end.
    target_starts: Vec<u32>,
    site_targets: Vec<CGNodeId>,
    succs: Adjacency,
    preds: Adjacency,
}

/// One list of nodes per node, in a flat array with offsets.
#[derive(Debug, Clone, Default)]
struct Adjacency {
    /// Per node, the start of its list in `list`, plus one end.
    starts: Vec<u32>,
    list: Vec<CGNodeId>,
}

impl Adjacency {
    /// For each of `n` nodes, the distinct `to` ends of the edges whose
    /// `from` end it is, in first-edge order.
    fn build(n: usize, pairs: impl Iterator<Item = (CGNodeId, CGNodeId)> + Clone) -> Self {
        let mut starts = vec![0u32; n + 1];
        for (from, _) in pairs.clone() {
            starts[from.index() + 1] += 1;
        }
        for i in 0..n {
            starts[i + 1] += starts[i];
        }
        let mut fill = starts.clone();
        let mut list = vec![CGNodeId(0); starts[n] as usize];
        for (from, to) in pairs {
            list[fill[from.index()] as usize] = to;
            fill[from.index()] += 1;
        }
        // Compact each node's list in place, keeping first occurrences.
        let mut seen = vec![u32::MAX; n];
        let mut kept = 0;
        for node in 0..n {
            let (start, end) = (starts[node] as usize, starts[node + 1] as usize);
            starts[node] = kept as u32;
            for i in start..end {
                let to = list[i];
                if seen[to.index()] != node as u32 {
                    seen[to.index()] = node as u32;
                    list[kept] = to;
                    kept += 1;
                }
            }
        }
        starts[n] = kept as u32;
        list.truncate(kept);
        Adjacency { starts, list }
    }

    fn of(&self, node: CGNodeId) -> &[CGNodeId] {
        &self.list[self.starts[node.index()] as usize..self.starts[node.index() + 1] as usize]
    }
}

impl CallGraph {
    /// Builds adjacency from raw parts (called by the solver).
    pub fn from_parts(
        nodes: Vec<(MethodId, ContextId)>,
        edges: Vec<CallEdge>,
        entry_nodes: Vec<CGNodeId>,
    ) -> Self {
        let n = nodes.len();
        // Edges by caller and site; the sort is stable, so a site's
        // targets stay in edge order.
        let mut by_site: Vec<&CallEdge> = edges.iter().collect();
        by_site.sort_by_key(|e| (e.caller, e.loc));
        let mut node_sites = vec![0u32; n + 1];
        let mut sites = Vec::new();
        let mut target_starts = Vec::new();
        let mut site_targets = Vec::with_capacity(edges.len());
        for (i, e) in by_site.iter().enumerate() {
            if i == 0 || (by_site[i - 1].caller, by_site[i - 1].loc) != (e.caller, e.loc) {
                node_sites[e.caller.index() + 1] += 1;
                sites.push(e.loc);
                target_starts.push(site_targets.len() as u32);
            }
            site_targets.push(e.callee);
        }
        target_starts.push(site_targets.len() as u32);
        for i in 0..n {
            node_sites[i + 1] += node_sites[i];
        }
        let succs = Adjacency::build(n, edges.iter().map(|e| (e.caller, e.callee)));
        let preds = Adjacency::build(n, edges.iter().map(|e| (e.callee, e.caller)));
        CallGraph {
            nodes,
            edges,
            entry_nodes,
            node_sites,
            sites,
            target_starts,
            site_targets,
            succs,
            preds,
        }
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

    /// Callee nodes resolved for the call at `(node, loc)`, in edge order
    /// (a callee reached by several edges appears once per edge).
    pub fn targets(&self, node: CGNodeId, loc: Loc) -> &[CGNodeId] {
        let (Some(&start), Some(&end)) =
            (self.node_sites.get(node.index()), self.node_sites.get(node.index() + 1))
        else {
            return &[];
        };
        let (start, end) = (start as usize, end as usize);
        match self.sites[start..end].binary_search(&loc) {
            Ok(i) => {
                let site = start + i;
                let range = self.target_starts[site]..self.target_starts[site + 1];
                &self.site_targets[range.start as usize..range.end as usize]
            }
            Err(_) => &[],
        }
    }

    /// Unique successor nodes of `node`, in first-edge order.
    pub fn succs(&self, node: CGNodeId) -> &[CGNodeId] {
        self.succs.of(node)
    }

    /// Unique predecessor nodes of `node`, in first-edge order.
    pub fn preds(&self, node: CGNodeId) -> &[CGNodeId] {
        self.preds.of(node)
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

        // Edges appended out of site order, interleaved across sites and
        // callers.
        let nodes = (0..6).map(|m| (MethodId(m), ContextId(0))).collect();
        let l = |i| Loc::new(BlockId(0), i);
        let [n0, a, b, c, n4, idle] = [0, 1, 2, 3, 4, 5].map(CGNodeId);
        let edges = [
            (n4, l(1), c),
            (n0, l(2), a),
            (n0, l(1), b),
            (n0, l(2), c),
            (n4, l(0), a),
            (n0, l(2), a),
        ]
        .map(|(caller, loc, callee)| CallEdge { caller, loc, callee });
        let cg = CallGraph::from_parts(nodes, edges.to_vec(), vec![n0, n4]);
        assert_eq!(cg.targets(n0, l(2)), &[a, c, a], "edge order, multiplicity kept");
        assert_eq!(cg.targets(n0, l(1)), &[b]);
        assert_eq!(cg.targets(n4, l(1)), &[c]);
        assert_eq!(cg.targets(n4, l(0)), &[a]);
        assert!(cg.targets(n0, l(0)).is_empty(), "a site with no edge");
        assert!(cg.targets(n0, l(3)).is_empty(), "a site past the last one");
        assert!(cg.targets(idle, l(0)).is_empty(), "a node with no edges");
        assert!(cg.targets(CGNodeId(6), l(0)).is_empty(), "a node past the graph");
        assert_eq!(cg.succs(n0), &[a, b, c], "first-edge order");
        assert_eq!(cg.succs(n4), &[c, a], "first-edge order, not id order");
        assert_eq!(cg.preds(c), &[n4, n0], "first-edge order, not id order");
        assert_eq!(cg.preds(a), &[n0, n4]);
        assert!(cg.succs(idle).is_empty() && cg.preds(idle).is_empty());
        assert!(cg.preds(n0).is_empty());
        assert_eq!(cg.edges, edges, "the edge list is kept as given");
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
