//! Semi-pruned SSA construction (Cytron et al. φ-placement on iterated
//! dominance frontiers + dominator-tree renaming).
//!
//! TAJ relies on an SSA register-transfer representation "which gives a
//! measure of flow sensitivity for points-to sets of local variables"
//! (§3.1); every analysis in this workspace assumes bodies are in SSA form.
//!
//! The per-register state lives in flat tables that [`program_to_ssa`]
//! reuses across bodies: def blocks as `(register, block)` pairs, φ
//! placements as `(block, register)` pairs, and one current-name array
//! whose undo log the dominator walk unwinds as it leaves each block.
//! The CFG and the dominator tree are reused the same way: one [`Cfg`]
//! and one [`DomTree`], rebuilt in place for every body.

use crate::cfg::Cfg;
use crate::dom::DomTree;
use crate::inst::{BlockId, Inst, Var};
use crate::method::{Body, MethodKind};
use crate::program::Program;

/// Converts every method body in `program` to SSA form. The library's
/// bodies already are, so only the program's own are visited.
pub fn program_to_ssa(program: &mut Program) {
    let mut scratch = Scratch::default();
    for mid in program.own_method_ids() {
        let m = program.method_mut(mid);
        let incoming = m.params.len() + usize::from(!m.is_static);
        if let MethodKind::Body(body) = &mut m.kind {
            if !body.is_ssa {
                convert(body, incoming, &mut scratch);
            }
        }
    }
}

/// Converts one body to SSA form. `num_incoming` registers (receiver +
/// parameters) are treated as defined at entry.
pub fn to_ssa(body: &mut Body, num_incoming: usize) {
    convert(body, num_incoming, &mut Scratch::default());
}

/// Tables one conversion fills and the next reuses. Each is reset (or
/// fully unwound) per body, so a conversion never sees its predecessor's
/// state.
#[derive(Default)]
struct Scratch {
    cfg: Cfg,
    dom: DomTree,
    /// Per register: read in a block that does not define it first.
    globals: Vec<bool>,
    /// Per register: `block + 1` of the last block seen defining it.
    killed: Vec<u32>,
    uses: Vec<Var>,
    /// `(register, block)` for each block defining a register, sorted so
    /// each register's blocks are contiguous.
    defs: Vec<(u32, BlockId)>,
    /// Per block: `register + 1` when the block is a def block of the
    /// register being placed.
    is_def: Vec<u32>,
    /// Per block: `register + 1` when the block has a φ for that register.
    has_phi: Vec<u32>,
    work: Vec<BlockId>,
    /// `(block, register)` for each φ, sorted by block, then register.
    phis: Vec<(BlockId, u32)>,
    /// Per original register: its current name in the dominator walk.
    name: Vec<Var>,
    /// Undo log for `name`: the register and the name it replaced.
    renamed: Vec<(Var, Var)>,
    name_taken: Vec<bool>,
    agenda: Vec<Step>,
}

/// A step of the iterative dominator-tree walk.
enum Step {
    Enter(BlockId),
    /// Leave a block: unwind `renamed` to this length.
    Exit(usize),
}

/// Resets `v` to `n` copies of `x`, keeping its allocation.
fn reset<T: Clone>(v: &mut Vec<T>, n: usize, x: T) {
    v.clear();
    v.resize(n, x);
}

#[allow(clippy::needless_range_loop)] // index loops mirror the textbook algorithm
fn convert(body: &mut Body, num_incoming: usize, s: &mut Scratch) {
    if body.blocks.is_empty() {
        body.is_ssa = true;
        return;
    }
    // Clear unreachable blocks first: the renaming walk only visits the
    // dominator tree of the entry, so stale instructions in dead blocks
    // would otherwise keep their original (now duplicated) names.
    // Clearing a block drops its edges, so the CFG is rebuilt only then.
    s.cfg.rebuild(body);
    let mut cleared = false;
    for (i, block) in body.blocks.iter_mut().enumerate() {
        if !s.cfg.is_reachable(BlockId(i as u32)) {
            block.insts.clear();
            block.term = crate::inst::Terminator::Unreachable;
            cleared = true;
        }
    }
    if cleared {
        s.cfg.rebuild(body);
    }
    s.dom.rebuild(&s.cfg);
    let orig_vars = body.num_vars;
    let nvars = orig_vars as usize;
    let nblocks = body.blocks.len();

    // ---- 1. Find "global" variables (live across blocks) and def blocks.
    reset(&mut s.globals, nvars, false);
    // `killed[v] == stamp` iff `v` is defined earlier in the current
    // block; the stamp is the block's index plus one, so one array serves
    // every block. A register's first def in a block records the block.
    reset(&mut s.killed, nvars, 0);
    s.defs.clear();
    for (bid, block) in body.iter_blocks() {
        let stamp = bid.0 + 1;
        for inst in &block.insts {
            s.uses.clear();
            inst.uses(&mut s.uses);
            for &u in &s.uses {
                if s.killed[u.index()] != stamp {
                    s.globals[u.index()] = true;
                }
            }
            if let Some(d) = inst.def() {
                if s.killed[d.index()] != stamp {
                    s.killed[d.index()] = stamp;
                    s.defs.push((d.0, bid));
                }
            }
        }
        if let Some(u) = block.term.use_var() {
            if s.killed[u.index()] != stamp {
                s.globals[u.index()] = true;
            }
        }
    }
    // Incoming registers are defined at entry.
    for v in 0..num_incoming.min(nvars) {
        s.defs.push((v as u32, BlockId(0)));
    }
    s.defs.sort_unstable();
    s.defs.dedup();

    // ---- 2. Place φ-functions at iterated dominance frontiers.
    reset(&mut s.is_def, nblocks, 0);
    reset(&mut s.has_phi, nblocks, 0);
    s.phis.clear();
    let mut rest = &s.defs[..];
    while let Some(&(v, _)) = rest.first() {
        let len = rest.iter().take_while(|&&(r, _)| r == v).count();
        let (blocks, tail) = rest.split_at(len);
        rest = tail;
        if !s.globals[v as usize] && blocks.len() <= 1 {
            continue; // semi-pruned: single-block locals need no φ
        }
        for &(_, b) in blocks {
            s.is_def[b.index()] = v + 1;
        }
        s.work.extend(blocks.iter().map(|&(_, b)| b));
        while let Some(d) = s.work.pop() {
            if !s.cfg.is_reachable(d) {
                continue;
            }
            for &f in s.dom.frontier(d) {
                if s.has_phi[f.index()] != v + 1 {
                    s.has_phi[f.index()] = v + 1;
                    s.phis.push((f, v));
                    if s.is_def[f.index()] != v + 1 {
                        s.work.push(f);
                    }
                }
            }
        }
    }
    // Materialize φ instructions at block starts (operands initially the
    // original variable; renaming fixes them up). Registers are placed in
    // increasing order, so sorting by block then register is stable by
    // block.
    s.phis.sort_unstable();
    let mut rest = &s.phis[..];
    while let Some(&(b, _)) = rest.first() {
        let len = rest.iter().take_while(|&&(blk, _)| blk == b).count();
        let (here, tail) = rest.split_at(len);
        rest = tail;
        let preds = s.cfg.preds(b);
        let phis = here.iter().map(|&(_, v)| Inst::Phi {
            dst: Var(v),
            srcs: preds.iter().map(|&p| (p, Var(v))).collect(),
        });
        body.blocks[b.index()].insts.splice(0..0, phis);
    }

    // ---- 3. Rename via dominator-tree walk.
    // A register with no name pushed reads as itself.
    s.name.clear();
    s.name.extend((0..orig_vars).map(Var));
    s.renamed.clear();
    reset(&mut s.name_taken, nvars, false);
    for v in 0..num_incoming.min(nvars) {
        s.name_taken[v] = true; // parameters keep their names
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

    // Iterative DFS over the dominator tree; each block's exit step
    // unwinds the names it pushed.
    s.agenda.clear();
    s.agenda.push(Step::Enter(BlockId(0)));
    while let Some(step) = s.agenda.pop() {
        match step {
            Step::Exit(mark) => {
                for (v, prev) in s.renamed.drain(mark..).rev() {
                    s.name[v.index()] = prev;
                }
            }
            Step::Enter(b) => {
                let mark = s.renamed.len();
                // Rename within the block.
                let ninsts = body.blocks[b.index()].insts.len();
                for i in 0..ninsts {
                    let is_phi = matches!(body.blocks[b.index()].insts[i], Inst::Phi { .. });
                    if !is_phi {
                        let inst = &mut body.blocks[b.index()].insts[i];
                        inst.rewrite_uses(|v| s.name[v.index()]);
                    }
                    let def = body.blocks[b.index()].insts[i].def();
                    if let Some(d) = def {
                        if d.0 < orig_vars {
                            let new_name = if !s.name_taken[d.index()] {
                                s.name_taken[d.index()] = true;
                                d // first def anywhere keeps the source name
                            } else {
                                fresh(body, d)
                            };
                            let prev = std::mem::replace(&mut s.name[d.index()], new_name);
                            s.renamed.push((d, prev));
                            body.blocks[b.index()].insts[i].rewrite_def(|_| new_name);
                        }
                    }
                }
                {
                    let term = &mut body.blocks[b.index()].term;
                    term.rewrite_uses(|v| s.name[v.index()]);
                }
                // Fill φ operands in successors.
                for &succ in s.cfg.succs(b) {
                    for inst in &mut body.blocks[succ.index()].insts {
                        if let Inst::Phi { srcs, .. } = inst {
                            for (pred, val) in srcs.iter_mut() {
                                if *pred == b && val.0 < orig_vars {
                                    *val = s.name[val.index()];
                                }
                            }
                        } else {
                            break; // φs are a prefix of the block
                        }
                    }
                }
                s.agenda.push(Step::Exit(mark));
                for &c in s.dom.children(b).iter().rev() {
                    s.agenda.push(Step::Enter(c));
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
