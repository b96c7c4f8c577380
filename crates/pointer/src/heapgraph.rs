//! The heap graph (§4.1.1): a bipartite view of the points-to solution
//! with instance-key nodes and pointer-key nodes, supporting the
//! reachability queries that taint-carrier detection needs.

use jir::util::{BitSet, FxHashMap};
use jir::FieldId;

use crate::keys::{InstanceKeyId, PointerKey};
use crate::solver::PointsTo;

/// Heap graph derived from a [`PointsTo`] solution.
///
/// Edges `P → I` mean pointer key `P` may point to instance key `I`;
/// edges `I → P` mean `P` is a field (or the array contents) of `I`.
#[derive(Debug)]
pub struct HeapGraph {
    /// For each instance key: its field pointer keys `(field, pts)`.
    fields_of: FxHashMap<InstanceKeyId, Vec<(Option<FieldId>, BitSet)>>,
}

impl HeapGraph {
    /// Builds the heap graph from a points-to solution.
    pub fn build(pts: &PointsTo) -> HeapGraph {
        let mut fields_of: FxHashMap<InstanceKeyId, Vec<(Option<FieldId>, BitSet)>> =
            FxHashMap::default();
        for (_, key, set) in pts.iter_pointer_keys() {
            match key {
                PointerKey::Field { ik, field } => {
                    fields_of.entry(*ik).or_default().push((Some(*field), set.clone()));
                }
                PointerKey::ArrayElem(ik) => {
                    fields_of.entry(*ik).or_default().push((None, set.clone()));
                }
                _ => {}
            }
        }
        HeapGraph { fields_of }
    }

    /// Instance keys directly reachable from `ik` through one field or
    /// array dereference.
    pub fn succs(&self, ik: InstanceKeyId) -> impl Iterator<Item = InstanceKeyId> + '_ {
        self.fields_of
            .get(&ik)
            .into_iter()
            .flatten()
            .flat_map(|(_, set)| set.iter().map(InstanceKeyId))
    }

    /// All instance keys reachable from `roots` within `max_depth`
    /// dereferences (inclusive of the roots themselves at depth 0).
    ///
    /// This implements the bounded nested-taint search of §6.2.3: the paper
    /// found 2 levels of field dereference sufficient in practice;
    /// `max_depth = None` removes the bound (the sound but expensive
    /// configuration).
    pub fn reachable(&self, roots: &BitSet, max_depth: Option<usize>) -> BitSet {
        let mut seen = roots.clone();
        let mut frontier: Vec<InstanceKeyId> = roots.iter().map(InstanceKeyId).collect();
        let mut depth = 0usize;
        while !frontier.is_empty() {
            if let Some(max) = max_depth {
                if depth >= max {
                    break;
                }
            }
            let mut next = Vec::new();
            for ik in frontier {
                for succ in self.succs(ik) {
                    if seen.insert(succ.0) {
                        next.push(succ);
                    }
                }
            }
            frontier = next;
            depth += 1;
        }
        seen
    }

    /// Number of instance keys that have outgoing field edges.
    pub fn len(&self) -> usize {
        self.fields_of.len()
    }

    /// Whether no instance key has fields.
    pub fn is_empty(&self) -> bool {
        self.fields_of.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::PolicyConfig;
    use crate::solver::{analyze, SolverConfig};
    use jir::frontend;

    fn run(src: &str, entry_class: &str, entry_method: &str) -> (jir::Program, PointsTo) {
        let mut p = frontend::build_program(src).expect("builds");
        let c = p.class_by_name(entry_class).unwrap();
        let m = p.method_by_name(c, entry_method).unwrap();
        p.entrypoints.push(m);
        let cfg = SolverConfig { policy: PolicyConfig::default(), ..Default::default() };
        let pts = analyze(&p, &cfg);
        (p, pts)
    }

    #[test]
    fn nested_reachability_respects_depth() {
        let (_p, pts) = run(
            r#"
            class Inner { field Object o; ctor (Object o) { this.o = o; } }
            class Outer { field Inner inner; ctor (Inner i) { this.inner = i; } }
            class Main {
                static method void main() {
                    Object leaf = new Object();
                    Inner i = new Inner(leaf);
                    Outer o = new Outer(i);
                }
            }
            "#,
            "Main",
            "main",
        );
        let hg = HeapGraph::build(&pts);
        // Find the Outer allocation.
        let outer = pts
            .iter_instance_keys()
            .find(|(_, k)| matches!(k, crate::keys::InstanceKey::Alloc { .. }))
            .map(|(id, _)| id);
        assert!(outer.is_some());
        // From all allocs, depth 0 reaches only roots; depth 2 reaches the
        // leaf through Outer.inner.o.
        let roots: BitSet = pts
            .iter_instance_keys()
            .filter(|(_, k)| {
                matches!(k, crate::keys::InstanceKey::Alloc { class, .. }
                    if format!("{class:?}") != "")
            })
            .map(|(id, _)| id.0)
            .collect();
        let d0 = hg.reachable(&roots, Some(0));
        assert_eq!(d0.len(), roots.len());
        let d2 = hg.reachable(&roots, Some(2));
        assert!(d2.len() >= d0.len());
        let unbounded = hg.reachable(&roots, None);
        assert!(d2.is_subset(&unbounded));
    }
}
