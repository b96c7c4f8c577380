//! Semi-pruned SSA construction (Cytron et al. φ-placement on iterated
//! dominance frontiers + dominator-tree renaming).
//!
//! TAJ relies on an SSA register-transfer representation "which gives a
//! measure of flow sensitivity for points-to sets of local variables"
//! (§3.1); every analysis in this workspace assumes bodies are in SSA form.

use crate::cfg::Cfg;
use crate::dom::DomTree;
use crate::inst::{BlockId, Inst, Var};
use crate::method::{Body, MethodKind};
use crate::program::Program;

/// Converts every method body in `program` to SSA form.
pub fn program_to_ssa(program: &mut Program) {
    for m in &mut program.methods {
        let incoming = m.params.len() + usize::from(!m.is_static);
        if let MethodKind::Body(body) = &mut m.kind {
            if !body.is_ssa {
                to_ssa(body, incoming);
            }
        }
    }
}

/// Converts one body to SSA form. `num_incoming` registers (receiver +
/// parameters) are treated as defined at entry.
#[allow(clippy::needless_range_loop)] // index loops mirror the textbook algorithm
pub fn to_ssa(body: &mut Body, num_incoming: usize) {
    if body.blocks.is_empty() {
        body.is_ssa = true;
        return;
    }
    // Clear unreachable blocks first: the renaming walk only visits the
    // dominator tree of the entry, so stale instructions in dead blocks
    // would otherwise keep their original (now duplicated) names.
    // Clearing a block drops its edges, so the CFG is rebuilt only then.
    let cfg = {
        let pre = Cfg::build(body);
        let mut cleared = false;
        for (i, block) in body.blocks.iter_mut().enumerate() {
            if !pre.is_reachable(crate::inst::BlockId(i as u32)) {
                block.insts.clear();
                block.term = crate::inst::Terminator::Unreachable;
                cleared = true;
            }
        }
        if cleared {
            Cfg::build(body)
        } else {
            pre
        }
    };
    let dom = DomTree::build(&cfg);
    let orig_vars = body.num_vars;

    // ---- 1. Find "global" variables (live across blocks) and def blocks.
    let mut def_blocks: Vec<Vec<BlockId>> = vec![Vec::new(); orig_vars as usize];
    let mut globals = vec![false; orig_vars as usize];
    let mut uses_buf = Vec::new();
    // `killed[v] == stamp` iff `v` is defined earlier in the current
    // block; the stamp is the block's index plus one, so one array serves
    // every block.
    let mut killed = vec![0u32; orig_vars as usize];
    for (bid, block) in body.iter_blocks() {
        let stamp = bid.0 + 1;
        for inst in &block.insts {
            uses_buf.clear();
            inst.uses(&mut uses_buf);
            for &u in &uses_buf {
                if killed[u.index()] != stamp {
                    globals[u.index()] = true;
                }
            }
            if let Some(d) = inst.def() {
                killed[d.index()] = stamp;
                if !def_blocks[d.index()].contains(&bid) {
                    def_blocks[d.index()].push(bid);
                }
            }
        }
        if let Some(u) = block.term.use_var() {
            if killed[u.index()] != stamp {
                globals[u.index()] = true;
            }
        }
    }
    // Incoming registers are defined at entry.
    for v in 0..num_incoming.min(orig_vars as usize) {
        if !def_blocks[v].contains(&BlockId(0)) {
            def_blocks[v].push(BlockId(0));
        }
    }

    // ---- 2. Place φ-functions at iterated dominance frontiers.
    let nblocks = body.blocks.len();
    let mut phi_list: Vec<Vec<Var>> = vec![Vec::new(); nblocks]; // orig vars, insertion order

    // `has_phi[b] == v + 1` iff block `b` already has a φ for `v`.
    let mut has_phi = vec![0u32; nblocks];
    let mut work: Vec<BlockId> = Vec::new();
    for v in 0..orig_vars {
        let var = Var(v);
        if !globals[v as usize] && def_blocks[v as usize].len() <= 1 {
            continue; // semi-pruned: single-block locals need no φ
        }
        work.extend_from_slice(&def_blocks[v as usize]);
        while let Some(d) = work.pop() {
            if !cfg.is_reachable(d) {
                continue;
            }
            for &f in &dom.frontier[d.index()] {
                if has_phi[f.index()] != v + 1 {
                    has_phi[f.index()] = v + 1;
                    phi_list[f.index()].push(var);
                    if !def_blocks[v as usize].contains(&f) {
                        work.push(f);
                    }
                }
            }
        }
    }
    // Materialize φ instructions at block starts (operands initially the
    // original variable; renaming fixes them up).
    for b in 0..nblocks {
        if phi_list[b].is_empty() {
            continue;
        }
        let preds = cfg.preds[b].clone();
        let mut phis: Vec<Inst> = Vec::with_capacity(phi_list[b].len());
        for &v in &phi_list[b] {
            phis.push(Inst::Phi { dst: v, srcs: preds.iter().map(|&p| (p, v)).collect() });
        }
        let block = &mut body.blocks[b];
        let old = std::mem::take(&mut block.insts);
        block.insts = phis.into_iter().chain(old).collect();
    }

    // ---- 3. Rename via dominator-tree walk.
    let mut stacks: Vec<Vec<Var>> = vec![Vec::new(); orig_vars as usize];
    let mut name_taken = vec![false; orig_vars as usize];
    for v in 0..num_incoming.min(orig_vars as usize) {
        stacks[v].push(Var(v as u32)); // parameters keep their names
        name_taken[v] = true;
    }
    // Fresh-name allocation preserving declared types.
    let mut var_types = std::mem::take(&mut body.var_types);
    let default_ty = crate::types::NULL;
    let mut fresh = |body: &mut Body, orig: Var| -> Var {
        let nv = body.fresh_var();
        let ty = var_types.get(orig.index()).copied().unwrap_or(default_ty);
        var_types.push(ty);
        nv
    };

    // Iterative DFS over dominator tree, with per-block pop lists.
    enum Step {
        Enter(BlockId),
        Exit(Vec<Var>), // orig vars whose stacks to pop
    }
    let mut agenda = vec![Step::Enter(BlockId(0))];
    while let Some(step) = agenda.pop() {
        match step {
            Step::Exit(pops) => {
                for v in pops {
                    stacks[v.index()].pop();
                }
            }
            Step::Enter(b) => {
                let mut pops: Vec<Var> = Vec::new();
                // Rename within the block.
                let ninsts = body.blocks[b.index()].insts.len();
                for i in 0..ninsts {
                    let is_phi = matches!(body.blocks[b.index()].insts[i], Inst::Phi { .. });
                    if !is_phi {
                        let inst = &mut body.blocks[b.index()].insts[i];
                        inst.rewrite_uses(|v| stacks[v.index()].last().copied().unwrap_or(v));
                    }
                    let def = body.blocks[b.index()].insts[i].def();
                    if let Some(d) = def {
                        if d.0 < orig_vars {
                            let new_name = if !name_taken[d.index()] {
                                name_taken[d.index()] = true;
                                d // first def anywhere keeps the source name
                            } else {
                                fresh(body, d)
                            };
                            stacks[d.index()].push(new_name);
                            pops.push(d);
                            body.blocks[b.index()].insts[i].rewrite_def(|_| new_name);
                        }
                    }
                }
                {
                    let term = &mut body.blocks[b.index()].term;
                    term.rewrite_uses(|v| stacks[v.index()].last().copied().unwrap_or(v));
                }
                // Fill φ operands in successors.
                for &s in &cfg.succs[b.index()] {
                    for inst in &mut body.blocks[s.index()].insts {
                        if let Inst::Phi { srcs, .. } = inst {
                            for (pred, val) in srcs.iter_mut() {
                                if *pred == b && val.0 < orig_vars {
                                    if let Some(&top) = stacks[val.index()].last() {
                                        *val = top;
                                    }
                                }
                            }
                        } else {
                            break; // φs are a prefix of the block
                        }
                    }
                }
                agenda.push(Step::Exit(pops));
                for &c in dom.children[b.index()].iter().rev() {
                    agenda.push(Step::Enter(c));
                }
            }
        }
    }

    body.var_types = var_types;
    body.is_ssa = true;
}

/// Returns, for each register, the location of its unique definition
/// (`None` for parameters and never-defined registers).
///
/// # Panics
/// Panics (in debug builds) if the body is not in SSA form and a register
/// has multiple definitions.
pub fn def_sites(body: &Body) -> Vec<Option<crate::inst::Loc>> {
    let mut defs: Vec<Option<crate::inst::Loc>> = vec![None; body.num_vars as usize];
    for (bid, block) in body.iter_blocks() {
        for (i, inst) in block.insts.iter().enumerate() {
            if let Some(d) = inst.def() {
                debug_assert!(
                    defs[d.index()].is_none() || !body.is_ssa,
                    "multiple defs of {d:?} in SSA body"
                );
                defs[d.index()] = Some(crate::inst::Loc::new(bid, i));
            }
        }
    }
    defs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{BinOp, ConstValue, Terminator};
    use crate::method::BasicBlock;

    /// x = 1; if c { x = 2 } ; use x  — classic φ test.
    fn branchy_body() -> Body {
        let mut body = Body { num_vars: 3, ..Default::default() }; // v0=c, v1=x, v2=use
        body.var_types = vec![crate::types::TypeTable::new().int(); 3];
        body.blocks = vec![
            BasicBlock {
                insts: vec![Inst::Const { dst: Var(1), value: ConstValue::Int(1) }],
                term: Terminator::If { cond: Var(0), then_bb: BlockId(1), else_bb: BlockId(2) },
                ..Default::default()
            },
            BasicBlock {
                insts: vec![Inst::Const { dst: Var(1), value: ConstValue::Int(2) }],
                term: Terminator::Goto(BlockId(2)),
                ..Default::default()
            },
            BasicBlock {
                insts: vec![Inst::Binary { dst: Var(2), op: BinOp::Add, lhs: Var(1), rhs: Var(1) }],
                term: Terminator::Return(Some(Var(2))),
                ..Default::default()
            },
        ];
        body
    }

    #[test]
    fn phi_inserted_at_join() {
        let mut body = branchy_body();
        to_ssa(&mut body, 1);
        assert!(body.is_ssa);
        let join = &body.blocks[2];
        assert!(
            matches!(join.insts[0], Inst::Phi { .. }),
            "join block should start with a φ, got {:?}",
            join.insts[0]
        );
        if let Inst::Phi { dst, srcs } = &join.insts[0] {
            assert_eq!(srcs.len(), 2);
            let (a, b) = (srcs[0].1, srcs[1].1);
            assert_ne!(a, b, "φ operands must differ across the two paths");
            // The use below must read the φ result.
            if let Inst::Binary { lhs, rhs, .. } = &join.insts[1] {
                assert_eq!(*lhs, *dst);
                assert_eq!(*rhs, *dst);
            } else {
                panic!("expected binary after φ");
            }
        }
    }

    #[test]
    fn ssa_bodies_have_unique_defs() {
        let mut body = branchy_body();
        to_ssa(&mut body, 1);
        let mut seen = std::collections::HashSet::new();
        for (_, block) in body.iter_blocks() {
            for inst in &block.insts {
                if let Some(d) = inst.def() {
                    assert!(seen.insert(d), "register {d:?} defined twice");
                }
            }
        }
    }

    #[test]
    fn straightline_body_untouched_structure() {
        let mut body = Body { num_vars: 2, ..Default::default() };
        body.var_types = vec![crate::types::TypeTable::new().int(); 2];
        body.blocks = vec![BasicBlock {
            insts: vec![
                Inst::Const { dst: Var(1), value: ConstValue::Int(7) },
                Inst::Binary { dst: Var(1), op: BinOp::Add, lhs: Var(1), rhs: Var(1) },
            ],
            term: Terminator::Return(Some(Var(1))),
            ..Default::default()
        }];
        to_ssa(&mut body, 1);
        // Second def of v1 must be renamed; the return reads the renamed one.
        let b = &body.blocks[0];
        let d0 = b.insts[0].def().unwrap();
        let d1 = b.insts[1].def().unwrap();
        assert_ne!(d0, d1);
        if let Inst::Binary { lhs, rhs, .. } = &b.insts[1] {
            assert_eq!(*lhs, d0);
            assert_eq!(*rhs, d0);
        }
        assert_eq!(b.term, Terminator::Return(Some(d1)));
    }

    #[test]
    fn loop_gets_phi_at_header() {
        // x = 0; while (c) { x = x + 1 }; return x
        let mut body = Body { num_vars: 3, ..Default::default() };
        body.var_types = vec![crate::types::TypeTable::new().int(); 3];
        body.blocks = vec![
            BasicBlock {
                insts: vec![Inst::Const { dst: Var(1), value: ConstValue::Int(0) }],
                term: Terminator::Goto(BlockId(1)),
                ..Default::default()
            },
            BasicBlock {
                term: Terminator::If { cond: Var(0), then_bb: BlockId(2), else_bb: BlockId(3) },
                ..Default::default()
            },
            BasicBlock {
                insts: vec![Inst::Binary { dst: Var(1), op: BinOp::Add, lhs: Var(1), rhs: Var(1) }],
                term: Terminator::Goto(BlockId(1)),
                ..Default::default()
            },
            BasicBlock { term: Terminator::Return(Some(Var(1))), ..Default::default() },
        ];
        to_ssa(&mut body, 1);
        assert!(
            matches!(body.blocks[1].insts.first(), Some(Inst::Phi { .. })),
            "loop header needs a φ for x"
        );
    }

    #[test]
    fn dead_block_adds_no_phi_operand() {
        // The branchy body plus a dead block that also jumps to the join:
        // clearing it must drop its edge before φs get their operands.
        let mut body = branchy_body();
        body.blocks.push(BasicBlock {
            insts: vec![Inst::Const { dst: Var(1), value: ConstValue::Int(3) }],
            term: Terminator::Goto(BlockId(2)),
            ..Default::default()
        });
        to_ssa(&mut body, 1);
        assert!(body.blocks[3].insts.is_empty(), "the dead block is cleared");
        match &body.blocks[2].insts[0] {
            Inst::Phi { srcs, .. } => {
                let preds: Vec<BlockId> = srcs.iter().map(|&(p, _)| p).collect();
                assert_eq!(preds, vec![BlockId(0), BlockId(1)]);
            }
            other => panic!("expected a φ at the join, got {other:?}"),
        }
    }

    #[test]
    fn def_sites_unique_after_ssa() {
        let mut body = branchy_body();
        to_ssa(&mut body, 1);
        let defs = def_sites(&body);
        // Every non-parameter register that is used somewhere has a def.
        let mut used = Vec::new();
        for (_, block) in body.iter_blocks() {
            for inst in &block.insts {
                inst.uses(&mut used);
            }
        }
        for u in used {
            if u.0 >= 1 {
                assert!(defs[u.index()].is_some(), "{u:?} used but never defined");
            }
        }
    }
}
