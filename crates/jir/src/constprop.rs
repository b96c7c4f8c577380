//! Lightweight constant resolution over registers: given a register, find
//! the string (or class) constant it must hold, if any.
//!
//! This powers constant-key dictionary modeling (§4.2.1) and reflection
//! resolution (§4.2.3). It is deliberately conservative: a register
//! resolves only if it has exactly one definition whose value chain
//! bottoms out in a literal.

use crate::inst::{ConstValue, Inst, Var};
use crate::method::Body;

/// Map from register to its defining instruction, when unique, indexed
/// by register.
#[derive(Debug)]
pub struct DefMap<'a> {
    defs: Vec<Option<&'a Inst>>,
    multi: Vec<bool>,
}

impl<'a> DefMap<'a> {
    /// Builds the definition map for `body` (works pre- and post-SSA; a
    /// register with several defs resolves to nothing, and so does one
    /// outside `0..num_vars`, which [`crate::validate`] rejects).
    pub fn build(body: &'a Body) -> Self {
        let mut defs: Vec<Option<&'a Inst>> = vec![None; body.num_vars as usize];
        let mut multi = vec![false; body.num_vars as usize];
        for block in &body.blocks {
            for inst in &block.insts {
                let Some(d) = inst.def() else { continue };
                if let Some(slot) = defs.get_mut(d.index()) {
                    if slot.replace(inst).is_some() {
                        multi[d.index()] = true;
                    }
                }
            }
        }
        DefMap { defs, multi }
    }

    /// The unique defining instruction of `v`, if any.
    pub fn def(&self, v: Var) -> Option<&'a Inst> {
        if *self.multi.get(v.index())? {
            None
        } else {
            self.defs[v.index()]
        }
    }

    /// Resolves `v` to a constant value by chasing unique copies.
    pub fn constant(&self, v: Var) -> Option<&'a ConstValue> {
        let mut cur = v;
        for _ in 0..64 {
            // depth bound guards against copy cycles
            match self.def(cur)? {
                Inst::Const { value, .. } => return Some(value),
                Inst::Assign { src, filter: None, .. } => cur = *src,
                _ => return None,
            }
        }
        None
    }

    /// Resolves `v` to a constant string.
    pub fn constant_string(&self, v: Var) -> Option<&'a str> {
        match self.constant(v)? {
            ConstValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Convenience: resolve a register to a constant string in one shot.
pub fn constant_string(body: &Body, v: Var) -> Option<String> {
    DefMap::build(body).constant_string(v).map(str::to_owned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Terminator;
    use crate::method::BasicBlock;

    fn body_with(insts: Vec<Inst>, num_vars: u32) -> Body {
        Body {
            blocks: vec![BasicBlock { insts, term: Terminator::Return(None), handler: None }],
            num_vars,
            var_types: vec![],
            is_ssa: false,
        }
    }

    #[test]
    fn resolves_direct_literal() {
        let b =
            body_with(vec![Inst::Const { dst: Var(0), value: ConstValue::Str("key".into()) }], 1);
        assert_eq!(constant_string(&b, Var(0)).as_deref(), Some("key"));
    }

    #[test]
    fn resolves_through_copies() {
        let b = body_with(
            vec![
                Inst::Const { dst: Var(0), value: ConstValue::Str("key".into()) },
                Inst::Assign { dst: Var(1), src: Var(0), filter: None },
                Inst::Assign { dst: Var(2), src: Var(1), filter: None },
            ],
            3,
        );
        assert_eq!(constant_string(&b, Var(2)).as_deref(), Some("key"));
    }

    #[test]
    fn multiple_defs_do_not_resolve() {
        let b = body_with(
            vec![
                Inst::Const { dst: Var(0), value: ConstValue::Str("a".into()) },
                Inst::Const { dst: Var(0), value: ConstValue::Str("b".into()) },
            ],
            1,
        );
        assert_eq!(constant_string(&b, Var(0)), None);
    }

    #[test]
    fn filtered_copies_do_not_resolve() {
        let b = body_with(
            vec![
                Inst::Const { dst: Var(0), value: ConstValue::Str("a".into()) },
                Inst::Assign {
                    dst: Var(1),
                    src: Var(0),
                    filter: Some(crate::inst::Filter::MethodNameEquals("m".into())),
                },
            ],
            2,
        );
        assert_eq!(constant_string(&b, Var(1)), None);
    }

    #[test]
    fn non_string_constants() {
        let b = body_with(vec![Inst::Const { dst: Var(0), value: ConstValue::Int(4) }], 1);
        let dm = DefMap::build(&b);
        assert_eq!(dm.constant(Var(0)), Some(&ConstValue::Int(4)));
        assert_eq!(dm.constant_string(Var(0)), None);
    }

    #[test]
    fn out_of_range_def_resolves_to_nothing() {
        // Registers 1 and 2 lie outside `num_vars`; 2 is defined twice.
        let b = body_with(
            vec![
                Inst::Const { dst: Var(0), value: ConstValue::Str("a".into()) },
                Inst::Const { dst: Var(1), value: ConstValue::Str("b".into()) },
                Inst::Const { dst: Var(2), value: ConstValue::Str("c".into()) },
                Inst::Const { dst: Var(2), value: ConstValue::Str("d".into()) },
            ],
            1,
        );
        let dm = DefMap::build(&b);
        assert_eq!(dm.constant_string(Var(0)), Some("a"));
        assert_eq!(dm.def(Var(1)), None);
        assert_eq!(dm.def(Var(2)), None);
        assert_eq!(dm.def(Var(7)), None);
    }

    #[test]
    fn copy_cycle_terminates() {
        let b = body_with(
            vec![
                Inst::Assign { dst: Var(0), src: Var(1), filter: None },
                Inst::Assign { dst: Var(1), src: Var(0), filter: None },
            ],
            2,
        );
        assert_eq!(constant_string(&b, Var(0)), None);
    }
}
