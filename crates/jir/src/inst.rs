//! The register-transfer instruction set.
//!
//! Every instruction reads and writes virtual registers ([`Var`]). After SSA
//! construction each register has exactly one definition; [`Phi`]
//! instructions appear at block starts.
//!
//! [`Phi`]: Inst::Phi

use crate::class::{ClassId, FieldId, SelectorId};
use crate::index_type;
use crate::method::MethodId;
use crate::types::TypeId;

index_type! {
    /// A virtual register, local to one method body.
    pub struct Var, "v"
}

index_type! {
    /// A basic block within one method body.
    pub struct BlockId, "bb"
}

/// Position of an instruction inside a method body.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Loc {
    /// Containing basic block.
    pub block: BlockId,
    /// Index within the block's instruction list.
    pub idx: u32,
}

impl Loc {
    /// Creates a location.
    pub fn new(block: BlockId, idx: usize) -> Self {
        Loc { block, idx: idx as u32 }
    }
}

/// A compile-time constant.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum ConstValue {
    /// Integer literal.
    Int(i64),
    /// Boolean literal.
    Bool(bool),
    /// String literal; drives constant-key dictionary modeling (§4.2.1) and
    /// reflection resolution (§4.2.3).
    Str(String),
    /// The `null` reference.
    Null,
    /// A class literal produced by resolving `Class.forName("C")`.
    ClassLit(ClassId),
}

/// A filter attached to a copy, restricting which abstract objects flow
/// across it.
///
/// Cast expressions produce [`Filter::InstanceOf`]; the reflection-narrowing
/// pass (§4.2.3) produces [`Filter::MethodNameEquals`] for the
/// `if (m.getName().equals("id")) target = m;` idiom.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Filter {
    /// Only objects whose class is a subtype of the given class pass.
    InstanceOf(ClassId),
    /// Only reflective `Method` objects whose method name equals the given
    /// string pass.
    MethodNameEquals(String),
}

/// Binary operators. String `+` lowers to [`BinOp::Concat`], which analyses
/// treat as taint-propagating from both operands.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Integer addition.
    Add,
    /// Integer subtraction.
    Sub,
    /// Integer multiplication.
    Mul,
    /// String concatenation (taint-propagating).
    Concat,
    /// Equality comparison.
    Eq,
    /// Inequality comparison.
    Ne,
    /// Less-than.
    Lt,
    /// Greater-than.
    Gt,
    /// Logical and.
    And,
    /// Logical or.
    Or,
}

/// The callee designator of a [`Inst::Call`].
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum CallTarget {
    /// Direct call to a static method.
    Static(MethodId),
    /// Virtually dispatched call through the receiver.
    Virtual(SelectorId),
    /// Direct (non-virtual) call: constructors and `super` calls.
    Special(MethodId),
}

/// One IR instruction.
#[derive(Clone, Debug, PartialEq)]
pub enum Inst {
    /// `dst = const`.
    Const {
        /// Destination register.
        dst: Var,
        /// The constant.
        value: ConstValue,
    },
    /// `dst = src`, optionally restricted by a [`Filter`] (casts, reflective
    /// method-name narrowing).
    Assign {
        /// Destination register.
        dst: Var,
        /// Source register.
        src: Var,
        /// Optional flow filter.
        filter: Option<Filter>,
    },
    /// `dst = new C` — heap allocation; the allocation site is this
    /// instruction's location.
    New {
        /// Destination register.
        dst: Var,
        /// Allocated class.
        class: ClassId,
    },
    /// `dst = new T[..]`.
    NewArray {
        /// Destination register.
        dst: Var,
        /// Element type.
        elem: TypeId,
    },
    /// `dst = base.field` — instance field load.
    Load {
        /// Destination register.
        dst: Var,
        /// Base object.
        base: Var,
        /// Loaded field.
        field: FieldId,
    },
    /// `base.field = src` — instance field store.
    Store {
        /// Base object.
        base: Var,
        /// Stored field.
        field: FieldId,
        /// Stored value.
        src: Var,
    },
    /// `dst = C.field` — static field load.
    StaticLoad {
        /// Destination register.
        dst: Var,
        /// Loaded static field.
        field: FieldId,
    },
    /// `C.field = src` — static field store.
    StaticStore {
        /// Stored static field.
        field: FieldId,
        /// Stored value.
        src: Var,
    },
    /// `dst = base[i]` — array load. The static analyses are
    /// index-insensitive (they merge array contents), but the index is
    /// retained for the concrete interpreter.
    ArrayLoad {
        /// Destination register.
        dst: Var,
        /// Array object.
        base: Var,
        /// Index register, when the source had one.
        index: Option<Var>,
    },
    /// `base[i] = src` — array store (see [`Inst::ArrayLoad`] on indices).
    ArrayStore {
        /// Array object.
        base: Var,
        /// Index register, when the source had one.
        index: Option<Var>,
        /// Stored value.
        src: Var,
    },
    /// Method invocation.
    Call {
        /// Register receiving the return value, if any.
        dst: Option<Var>,
        /// Callee designator.
        target: CallTarget,
        /// Receiver for instance calls.
        recv: Option<Var>,
        /// Actual arguments (excluding the receiver).
        args: Vec<Var>,
    },
    /// `dst = lhs op rhs`.
    Binary {
        /// Destination register.
        dst: Var,
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Var,
        /// Right operand.
        rhs: Var,
    },
    /// SSA φ-function: `dst = φ(block₁: v₁, …)`. Operand order matches the
    /// block's predecessor order.
    Phi {
        /// Destination register.
        dst: Var,
        /// `(predecessor, value)` operands.
        srcs: Vec<(BlockId, Var)>,
    },
    /// Nondeterministic choice: `dst = select(v₁, …, vₙ)` — dataflow from
    /// every source, position-independent. Produced by model expansion
    /// (constant-key dictionary reads, §4.2.1) and framework synthesis
    /// (tainted `ActionForm` population, §4.2.2), where a value may come
    /// from any of several places with no corresponding control flow.
    Select {
        /// Destination register.
        dst: Var,
        /// Possible sources.
        srcs: Vec<Var>,
    },
    /// Binds the in-flight exception at the start of a handler block.
    CatchBind {
        /// Register receiving the caught exception.
        dst: Var,
        /// Class of exceptions caught (catch-all uses the root
        /// `Throwable`-like class).
        class: ClassId,
    },
}

impl Inst {
    /// The register defined by this instruction, if any.
    pub fn def(&self) -> Option<Var> {
        match self {
            Inst::Const { dst, .. }
            | Inst::Assign { dst, .. }
            | Inst::New { dst, .. }
            | Inst::NewArray { dst, .. }
            | Inst::Load { dst, .. }
            | Inst::StaticLoad { dst, .. }
            | Inst::ArrayLoad { dst, .. }
            | Inst::Binary { dst, .. }
            | Inst::Phi { dst, .. }
            | Inst::Select { dst, .. }
            | Inst::CatchBind { dst, .. } => Some(*dst),
            Inst::Call { dst, .. } => *dst,
            Inst::Store { .. } | Inst::StaticStore { .. } | Inst::ArrayStore { .. } => None,
        }
    }

    /// Collects the registers used (read) by this instruction. Phi operands
    /// are included.
    pub fn uses(&self, out: &mut Vec<Var>) {
        match self {
            Inst::Const { .. } => {}
            Inst::Assign { src, .. } => out.push(*src),
            Inst::New { .. } | Inst::NewArray { .. } | Inst::CatchBind { .. } => {}
            Inst::Load { base, .. } => out.push(*base),
            Inst::Store { base, src, .. } => {
                out.push(*base);
                out.push(*src);
            }
            Inst::StaticLoad { .. } => {}
            Inst::StaticStore { src, .. } => out.push(*src),
            Inst::ArrayLoad { base, index, .. } => {
                out.push(*base);
                if let Some(i) = index {
                    out.push(*i);
                }
            }
            Inst::ArrayStore { base, index, src } => {
                out.push(*base);
                if let Some(i) = index {
                    out.push(*i);
                }
                out.push(*src);
            }
            Inst::Call { recv, args, .. } => {
                if let Some(r) = recv {
                    out.push(*r);
                }
                out.extend(args.iter().copied());
            }
            Inst::Binary { lhs, rhs, .. } => {
                out.push(*lhs);
                out.push(*rhs);
            }
            Inst::Phi { srcs, .. } => out.extend(srcs.iter().map(|(_, v)| *v)),
            Inst::Select { srcs, .. } => out.extend(srcs.iter().copied()),
        }
    }

    /// Rewrites every used register through `f` (used by SSA renaming).
    /// Phi operands are *not* rewritten here; renaming handles them at the
    /// predecessor.
    pub fn rewrite_uses(&mut self, mut f: impl FnMut(Var) -> Var) {
        match self {
            Inst::Const { .. }
            | Inst::New { .. }
            | Inst::NewArray { .. }
            | Inst::StaticLoad { .. }
            | Inst::CatchBind { .. }
            | Inst::Phi { .. } => {}
            Inst::Assign { src, .. } => *src = f(*src),
            Inst::Load { base, .. } => *base = f(*base),
            Inst::Store { base, src, .. } => {
                *base = f(*base);
                *src = f(*src);
            }
            Inst::StaticStore { src, .. } => *src = f(*src),
            Inst::ArrayLoad { base, index, .. } => {
                *base = f(*base);
                if let Some(i) = index {
                    *i = f(*i);
                }
            }
            Inst::ArrayStore { base, index, src } => {
                *base = f(*base);
                if let Some(i) = index {
                    *i = f(*i);
                }
                *src = f(*src);
            }
            Inst::Call { recv, args, .. } => {
                if let Some(r) = recv {
                    *r = f(*r);
                }
                for a in args {
                    *a = f(*a);
                }
            }
            Inst::Binary { lhs, rhs, .. } => {
                *lhs = f(*lhs);
                *rhs = f(*rhs);
            }
            Inst::Select { srcs, .. } => {
                for s in srcs {
                    *s = f(*s);
                }
            }
        }
    }

    /// Rewrites the defined register through `f`.
    pub fn rewrite_def(&mut self, mut f: impl FnMut(Var) -> Var) {
        match self {
            Inst::Const { dst, .. }
            | Inst::Assign { dst, .. }
            | Inst::New { dst, .. }
            | Inst::NewArray { dst, .. }
            | Inst::Load { dst, .. }
            | Inst::StaticLoad { dst, .. }
            | Inst::ArrayLoad { dst, .. }
            | Inst::Binary { dst, .. }
            | Inst::Phi { dst, .. }
            | Inst::Select { dst, .. }
            | Inst::CatchBind { dst, .. } => *dst = f(*dst),
            Inst::Call { dst, .. } => {
                if let Some(d) = dst {
                    *d = f(*d);
                }
            }
            Inst::Store { .. } | Inst::StaticStore { .. } | Inst::ArrayStore { .. } => {}
        }
    }

    /// Whether this is a call instruction.
    pub fn is_call(&self) -> bool {
        matches!(self, Inst::Call { .. })
    }
}

/// Block terminator.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum Terminator {
    /// Unconditional jump.
    Goto(BlockId),
    /// Two-way conditional branch on a boolean register.
    If {
        /// Condition register.
        cond: Var,
        /// Successor when true.
        then_bb: BlockId,
        /// Successor when false.
        else_bb: BlockId,
    },
    /// Method return.
    Return(Option<Var>),
    /// Throws the given register's value.
    Throw(Var),
    /// Placeholder used while a body is under construction.
    #[default]
    Unreachable,
}

impl Terminator {
    /// Normal-control-flow successor blocks; an `If` whose arms agree
    /// yields its target twice.
    pub fn successors(&self) -> impl Iterator<Item = BlockId> {
        let (first, second) = match *self {
            Terminator::Goto(b) => (Some(b), None),
            Terminator::If { then_bb, else_bb, .. } => (Some(then_bb), Some(else_bb)),
            Terminator::Return(_) | Terminator::Throw(_) | Terminator::Unreachable => (None, None),
        };
        first.into_iter().chain(second)
    }

    /// The register read by this terminator, if any.
    pub fn use_var(&self) -> Option<Var> {
        match self {
            Terminator::If { cond, .. } => Some(*cond),
            Terminator::Return(v) => *v,
            Terminator::Throw(v) => Some(*v),
            Terminator::Goto(_) | Terminator::Unreachable => None,
        }
    }

    /// Rewrites the used register through `f`.
    pub fn rewrite_uses(&mut self, mut f: impl FnMut(Var) -> Var) {
        match self {
            Terminator::If { cond, .. } => *cond = f(*cond),
            Terminator::Return(Some(v)) => *v = f(*v),
            Terminator::Throw(v) => *v = f(*v),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn def_use_of_store() {
        let st = Inst::Store { base: Var(1), field: FieldId(0), src: Var(2) };
        assert_eq!(st.def(), None);
        let mut uses = Vec::new();
        st.uses(&mut uses);
        assert_eq!(uses, vec![Var(1), Var(2)]);
    }

    #[test]
    fn def_use_of_call() {
        let call = Inst::Call {
            dst: Some(Var(0)),
            target: CallTarget::Virtual(SelectorId(3)),
            recv: Some(Var(1)),
            args: vec![Var(2), Var(3)],
        };
        assert_eq!(call.def(), Some(Var(0)));
        let mut uses = Vec::new();
        call.uses(&mut uses);
        assert_eq!(uses, vec![Var(1), Var(2), Var(3)]);
    }

    #[test]
    fn rewrite_uses_shifts_registers() {
        let mut add = Inst::Binary { dst: Var(0), op: BinOp::Add, lhs: Var(1), rhs: Var(2) };
        add.rewrite_uses(|v| Var(v.0 + 10));
        match add {
            Inst::Binary { lhs, rhs, .. } => {
                assert_eq!(lhs, Var(11));
                assert_eq!(rhs, Var(12));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn terminator_successors() {
        let t = Terminator::If { cond: Var(0), then_bb: BlockId(1), else_bb: BlockId(2) };
        assert_eq!(t.successors().collect::<Vec<_>>(), vec![BlockId(1), BlockId(2)]);
        assert_eq!(Terminator::Return(None).successors().collect::<Vec<_>>(), vec![]);
        assert_eq!(t.use_var(), Some(Var(0)));
    }
}
