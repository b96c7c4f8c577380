//! Control-flow graph views over a [`Body`]: successor/predecessor maps and
//! reverse postorder, including exceptional edges to handler blocks.

use crate::inst::{BlockId, Inst, Terminator};
use crate::method::Body;

/// Precomputed CFG adjacency for one body.
///
/// Successors and predecessors are each one flat array with per-block
/// offsets. [`Cfg::rebuild`] refills every table in place, so a caller
/// that converts many bodies keeps one `Cfg` and allocates only when a
/// body outgrows the last.
#[derive(Debug, Clone, Default)]
pub struct Cfg {
    /// Successors per block (normal + exceptional).
    succs: BlockLists,
    /// Predecessors per block (normal + exceptional), in block order.
    preds: BlockLists,
    /// Blocks in reverse postorder from the entry.
    pub rpo: Vec<BlockId>,
    /// Position of each block in `rpo` (`usize::MAX` when unreachable).
    pub rpo_pos: Vec<usize>,
    /// The depth-first search's stack: a block and its next successor.
    stack: Vec<(BlockId, u32)>,
}

impl Cfg {
    /// Builds the CFG for `body`.
    ///
    /// A block gains an exceptional edge to its handler when it contains a
    /// call (which may throw) or ends in `throw`.
    pub fn build(body: &Body) -> Cfg {
        let mut cfg = Cfg::default();
        cfg.rebuild(body);
        cfg
    }

    /// Refills the tables for `body`, keeping their allocations.
    pub fn rebuild(&mut self, body: &Body) {
        let n = body.blocks.len();
        let succs = &mut self.succs;
        succs.starts.clear();
        succs.list.clear();
        succs.starts.push(0);
        for block in &body.blocks {
            let start = succs.list.len();
            succs.list.extend(block.term.successors());
            if let Some(h) = block.handler {
                let may_throw = block.insts.iter().any(Inst::is_call)
                    || matches!(block.term, Terminator::Throw(_));
                if may_throw && !succs.list[start..].contains(&h) {
                    succs.list.push(h);
                }
            }
            succs.starts.push(succs.list.len() as u32);
        }
        // A block's predecessors in block order, duplicates included: the
        // edges, taken in block order, grouped stably by target.
        let succs = &self.succs;
        self.preds.group(
            n,
            (0..n).flat_map(|b| {
                let b = BlockId(b as u32);
                succs.of(b).iter().map(move |&s| (s, b))
            }),
        );

        // Reverse postorder via iterative DFS; a block is visited once its
        // `rpo_pos` leaves `usize::MAX`.
        self.rpo.clear();
        self.rpo_pos.clear();
        self.rpo_pos.resize(n, usize::MAX);
        if n > 0 {
            self.stack.clear();
            self.stack.push((BlockId(0), 0));
            self.rpo_pos[0] = 0;
            while let Some(&mut (b, ref mut next)) = self.stack.last_mut() {
                let ss = self.succs.of(b);
                if let Some(&s) = ss.get(*next as usize) {
                    *next += 1;
                    if self.rpo_pos[s.index()] == usize::MAX {
                        self.rpo_pos[s.index()] = 0;
                        self.stack.push((s, 0));
                    }
                } else {
                    self.rpo.push(b);
                    self.stack.pop();
                }
            }
        }
        self.rpo.reverse();
        for (i, &b) in self.rpo.iter().enumerate() {
            self.rpo_pos[b.index()] = i;
        }
    }

    /// Successors of `block` (normal, then exceptional).
    pub fn succs(&self, block: BlockId) -> &[BlockId] {
        self.succs.of(block)
    }

    /// Predecessors of `block`, in block order; a block branching to
    /// `block` on both arms of an `If` appears twice.
    pub fn preds(&self, block: BlockId) -> &[BlockId] {
        self.preds.of(block)
    }

    /// Whether `block` is reachable from the entry.
    pub fn is_reachable(&self, block: BlockId) -> bool {
        self.rpo_pos[block.index()] != usize::MAX
    }

    /// Number of blocks (including unreachable ones).
    pub fn len(&self) -> usize {
        self.rpo_pos.len()
    }

    /// Whether the CFG has no blocks.
    pub fn is_empty(&self) -> bool {
        self.rpo_pos.is_empty()
    }
}

/// One list of blocks per block, in a flat array with offsets.
#[derive(Debug, Clone, Default)]
pub(crate) struct BlockLists {
    /// Per block, the start of its list in `list`, plus one end.
    starts: Vec<u32>,
    list: Vec<BlockId>,
}

impl BlockLists {
    /// The list of `block`.
    pub(crate) fn of(&self, block: BlockId) -> &[BlockId] {
        &self.list[self.starts[block.index()] as usize..self.starts[block.index() + 1] as usize]
    }

    /// Refills the lists of `n` blocks from `(block, member)` pairs by a
    /// counting sort: each block's members keep the pairs' order.
    pub(crate) fn group(
        &mut self,
        n: usize,
        pairs: impl Iterator<Item = (BlockId, BlockId)> + Clone,
    ) {
        // Count block `b`'s members at `b + 2`; after the prefix sum,
        // `starts[b + 1]` is where `b`'s list starts and serves as its
        // fill cursor, which leaves it where the list ends.
        self.starts.clear();
        self.starts.resize(n + 2, 0);
        for (b, _) in pairs.clone() {
            self.starts[b.index() + 2] += 1;
        }
        for i in 2..n + 2 {
            self.starts[i] += self.starts[i - 1];
        }
        self.list.clear();
        self.list.resize(self.starts[n + 1] as usize, BlockId(0));
        for (b, m) in pairs {
            let at = &mut self.starts[b.index() + 1];
            self.list[*at as usize] = m;
            *at += 1;
        }
        self.starts.truncate(n + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{CallTarget, Var};
    use crate::method::{BasicBlock, MethodId};

    fn diamond() -> Body {
        // bb0 -> bb1, bb2; bb1 -> bb3; bb2 -> bb3; bb3 -> return
        let mut body = Body { num_vars: 1, ..Default::default() };
        body.blocks = vec![
            BasicBlock {
                term: Terminator::If { cond: Var(0), then_bb: BlockId(1), else_bb: BlockId(2) },
                ..Default::default()
            },
            BasicBlock { term: Terminator::Goto(BlockId(3)), ..Default::default() },
            BasicBlock { term: Terminator::Goto(BlockId(3)), ..Default::default() },
            BasicBlock { term: Terminator::Return(None), ..Default::default() },
        ];
        body
    }

    #[test]
    fn diamond_adjacency() {
        let cfg = Cfg::build(&diamond());
        assert_eq!(cfg.succs(BlockId(0)), [BlockId(1), BlockId(2)]);
        assert_eq!(cfg.preds(BlockId(3)), [BlockId(1), BlockId(2)]);
        assert_eq!(cfg.rpo[0], BlockId(0));
        assert_eq!(*cfg.rpo.last().unwrap(), BlockId(3));
        assert_eq!(cfg.rpo.len(), 4);
    }

    #[test]
    fn handler_edge_added_for_calls() {
        let mut body = diamond();
        body.blocks[1].handler = Some(BlockId(2));
        body.blocks[1].insts.push(Inst::Call {
            dst: None,
            target: CallTarget::Static(MethodId(0)),
            recv: None,
            args: vec![],
        });
        let cfg = Cfg::build(&body);
        assert!(cfg.succs(BlockId(1)).contains(&BlockId(2)), "exceptional edge to handler");
    }

    #[test]
    fn no_handler_edge_without_throwing_insts() {
        let mut body = diamond();
        body.blocks[1].handler = Some(BlockId(2));
        let cfg = Cfg::build(&body);
        assert_eq!(cfg.succs(BlockId(1)), [BlockId(3)]);
    }

    #[test]
    fn unreachable_block_detected() {
        let mut body = diamond();
        body.blocks.push(BasicBlock { term: Terminator::Return(None), ..Default::default() });
        let cfg = Cfg::build(&body);
        assert!(!cfg.is_reachable(BlockId(4)));
        assert!(cfg.is_reachable(BlockId(3)));
    }
}
