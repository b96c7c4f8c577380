//! Dominator tree and dominance frontiers (Cooper–Harvey–Kennedy's
//! "A Simple, Fast Dominance Algorithm"), the substrate for SSA construction.

use crate::cfg::{BlockLists, Cfg};
use crate::inst::BlockId;

/// Immediate-dominator tree plus dominance frontiers for one CFG.
///
/// Frontiers and children are each one flat array with per-block offsets,
/// and [`DomTree::rebuild`] refills every table in place, as
/// [`Cfg::rebuild`] does.
#[derive(Debug, Clone, Default)]
pub struct DomTree {
    /// Immediate dominator per block; `idom[entry] == entry`; unreachable
    /// blocks map to `None`.
    pub idom: Vec<Option<BlockId>>,
    /// Dominance frontier per block.
    frontier: BlockLists,
    /// Children in the dominator tree.
    children: BlockLists,
    /// Per block: `b + 1` once join block `b` is in its frontier.
    stamp: Vec<u32>,
    /// `(block, member)` pairs of the frontiers, before grouping.
    pairs: Vec<(BlockId, BlockId)>,
}

impl DomTree {
    /// Computes dominators and frontiers for `cfg`.
    pub fn build(cfg: &Cfg) -> DomTree {
        let mut dom = DomTree::default();
        dom.rebuild(cfg);
        dom
    }

    /// Refills the tables for `cfg`, keeping their allocations.
    pub fn rebuild(&mut self, cfg: &Cfg) {
        let n = cfg.len();
        let idom = &mut self.idom;
        idom.clear();
        idom.resize(n, None);
        if let Some(entry) = idom.first_mut() {
            *entry = Some(BlockId(0));
        }

        // Iterate to fixpoint over reverse postorder.
        let mut changed = true;
        while changed {
            changed = false;
            for &b in cfg.rpo.iter().skip(1) {
                let mut new_idom: Option<BlockId> = None;
                for &p in cfg.preds(b) {
                    if idom[p.index()].is_none() {
                        continue; // not yet processed / unreachable
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(idom, &cfg.rpo_pos, p, cur),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[b.index()] != Some(ni) {
                        idom[b.index()] = Some(ni);
                        changed = true;
                    }
                }
            }
        }

        // Dominance frontiers (standard runner algorithm). Each join block
        // is visited once, so a runner that already holds `b` was reached
        // by an earlier predecessor's walk, which went on to `b`'s idom.
        self.stamp.clear();
        self.stamp.resize(n, 0);
        self.pairs.clear();
        for &b in &cfg.rpo {
            let preds = cfg.preds(b);
            if preds.len() < 2 {
                continue;
            }
            let b_idom = idom[b.index()].expect("reachable join has idom");
            for &p in preds {
                if idom[p.index()].is_none() {
                    continue; // unreachable predecessor
                }
                let mut runner = p;
                while runner != b_idom && self.stamp[runner.index()] != b.0 + 1 {
                    self.stamp[runner.index()] = b.0 + 1;
                    self.pairs.push((runner, b));
                    runner = idom[runner.index()].expect("reachable pred has idom");
                }
            }
        }
        self.frontier.group(n, self.pairs.iter().copied());

        // Dominator-tree children, in block order.
        self.children.group(
            n,
            idom.iter().enumerate().filter_map(|(i, &d)| {
                let d = d?;
                (d.index() != i).then_some((d, BlockId(i as u32)))
            }),
        );
    }

    /// The dominance frontier of `block`.
    pub fn frontier(&self, block: BlockId) -> &[BlockId] {
        self.frontier.of(block)
    }

    /// The children of `block` in the dominator tree, in block order.
    pub fn children(&self, block: BlockId) -> &[BlockId] {
        self.children.of(block)
    }

    /// Whether `a` dominates `b` (reflexive).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.idom[cur.index()] {
                Some(d) if d != cur => cur = d,
                _ => return false,
            }
        }
    }
}

fn intersect(
    idom: &[Option<BlockId>],
    rpo_pos: &[usize],
    mut a: BlockId,
    mut b: BlockId,
) -> BlockId {
    while a != b {
        while rpo_pos[a.index()] > rpo_pos[b.index()] {
            a = idom[a.index()].expect("intersect over processed nodes");
        }
        while rpo_pos[b.index()] > rpo_pos[a.index()] {
            b = idom[b.index()].expect("intersect over processed nodes");
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{Terminator, Var};
    use crate::method::{BasicBlock, Body};

    fn body_from_edges(n: usize, edges: &[(u32, u32)]) -> Body {
        // Encode arbitrary out-degree <= 2 graphs with Goto/If terminators.
        let mut body = Body { num_vars: 1, ..Default::default() };
        for i in 0..n {
            let outs: Vec<u32> =
                edges.iter().filter(|(s, _)| *s == i as u32).map(|(_, t)| *t).collect();
            let term = match outs.len() {
                0 => Terminator::Return(None),
                1 => Terminator::Goto(BlockId(outs[0])),
                2 => Terminator::If {
                    cond: Var(0),
                    then_bb: BlockId(outs[0]),
                    else_bb: BlockId(outs[1]),
                },
                _ => panic!("out-degree > 2 unsupported in this helper"),
            };
            body.blocks.push(BasicBlock { term, ..Default::default() });
        }
        body
    }

    #[test]
    fn diamond_dominators() {
        // 0 -> 1,2 ; 1 -> 3 ; 2 -> 3
        let body = body_from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let cfg = Cfg::build(&body);
        let dom = DomTree::build(&cfg);
        assert_eq!(dom.idom[1], Some(BlockId(0)));
        assert_eq!(dom.idom[2], Some(BlockId(0)));
        assert_eq!(dom.idom[3], Some(BlockId(0)), "join dominated by branch head");
        assert!(dom.dominates(BlockId(0), BlockId(3)));
        assert!(!dom.dominates(BlockId(1), BlockId(3)));
        // Frontier of 1 and 2 is the join block 3.
        assert_eq!(dom.frontier(BlockId(1)), [BlockId(3)]);
        assert_eq!(dom.frontier(BlockId(2)), [BlockId(3)]);
        assert!(dom.frontier(BlockId(0)).is_empty());
    }

    #[test]
    fn loop_dominators() {
        // 0 -> 1 ; 1 -> 2,3 ; 2 -> 1 (back edge) ; 3 exit
        let body = body_from_edges(4, &[(0, 1), (1, 2), (1, 3), (2, 1)]);
        let cfg = Cfg::build(&body);
        let dom = DomTree::build(&cfg);
        assert_eq!(dom.idom[2], Some(BlockId(1)));
        assert_eq!(dom.idom[3], Some(BlockId(1)));
        // Loop header is in its own body's frontier.
        assert!(dom.frontier(BlockId(2)).contains(&BlockId(1)));
        assert!(dom.frontier(BlockId(1)).contains(&BlockId(1)));
    }

    #[test]
    fn nested_ifs() {
        // 0 -> 1,4 ; 1 -> 2,3 ; 2 -> 5; 3 -> 5; 5 -> 6; 4 -> 6
        let body =
            body_from_edges(7, &[(0, 1), (0, 4), (1, 2), (1, 3), (2, 5), (3, 5), (5, 6), (4, 6)]);
        let cfg = Cfg::build(&body);
        let dom = DomTree::build(&cfg);
        assert_eq!(dom.idom[5], Some(BlockId(1)));
        assert_eq!(dom.idom[6], Some(BlockId(0)));
        assert!(dom.dominates(BlockId(1), BlockId(5)));
        assert!(!dom.dominates(BlockId(1), BlockId(6)));
    }

    #[test]
    fn children_partition_blocks() {
        let body = body_from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let cfg = Cfg::build(&body);
        let dom = DomTree::build(&cfg);
        let mut all: Vec<BlockId> =
            (0..4).flat_map(|b| dom.children(BlockId(b))).copied().collect();
        all.sort();
        assert_eq!(all, vec![BlockId(1), BlockId(2), BlockId(3)]);
    }
}
