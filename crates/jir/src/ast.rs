//! Abstract syntax tree for **jweb**, the miniature Java-like source
//! language the benchmark generator and tests write programs in.
//!
//! jweb is deliberately small but covers everything TAJ's evaluation needs:
//! classes with inheritance and interfaces, instance/static fields and
//! methods, constructors, `if`/`while`/`for`, `try`/`catch`/`throw`, casts,
//! arrays, string concatenation, and calls (virtual, static, constructor).
//!
//! Names are interned per parse: the AST holds [`Sym`]s, and the
//! [`Names`] table holds one `String` per distinct name.

use std::fmt;

use crate::index_type;

index_type! {
    /// An interned identifier: an index into its parse's [`Names`].
    pub struct Sym, "s"
}

impl Sym {
    /// `String`, the string-carrier type.
    pub const STRING: Sym = Sym(0);
    /// `length`, an array's length in field position.
    pub const LENGTH: Sym = Sym(1);
    /// `getName`, in the reflective narrowing idiom.
    pub const GET_NAME: Sym = Sym(2);
    /// `equals`, in the reflective narrowing idiom.
    pub const EQUALS: Sym = Sym(3);
    /// `<init>`, the name every constructor gets.
    pub const INIT: Sym = Sym(4);
    /// `Object`, the root class.
    pub const OBJECT: Sym = Sym(5);
}

/// The names the frontend compares by text, at their fixed symbols.
const FIXED: [&str; 6] = ["String", "length", "getName", "equals", "<init>", "Object"];

/// The identifiers of one parse, one `String` per distinct name, in
/// first-seen order after the fixed symbols of [`Sym`].
#[derive(Debug, Clone)]
pub struct Names {
    texts: Vec<String>,
}

impl Names {
    /// A table holding only the fixed symbols.
    pub(crate) fn new() -> Self {
        Names { texts: FIXED.iter().map(|s| s.to_string()).collect() }
    }

    /// Appends a name the table does not hold yet.
    pub(crate) fn push(&mut self, text: &str) -> Sym {
        self.texts.push(text.to_string());
        Sym::new(self.texts.len() - 1)
    }

    /// The fixed names, to seed an interning map.
    pub(crate) fn fixed() -> impl Iterator<Item = (&'static str, Sym)> {
        FIXED.iter().enumerate().map(|(i, &s)| (s, Sym::new(i)))
    }

    /// The text of `sym`.
    pub fn text(&self, sym: Sym) -> &str {
        &self.texts[sym.index()]
    }

    /// Number of distinct names, the fixed ones included.
    pub(crate) fn len(&self) -> usize {
        self.texts.len()
    }
}

/// A parsed compilation unit.
#[derive(Debug, Clone)]
pub struct ProgramAst {
    /// Declared classes in source order.
    pub classes: Vec<ClassDecl>,
    /// The names the classes' [`Sym`]s index.
    pub names: Names,
}

/// A class or interface declaration.
#[derive(Debug, Clone)]
pub struct ClassDecl {
    /// Class name.
    pub name: Sym,
    /// `extends` clause.
    pub superclass: Option<Sym>,
    /// `implements` clause.
    pub interfaces: Vec<Sym>,
    /// Declared with the `interface` keyword.
    pub is_interface: bool,
    /// Declared with the `library` modifier; library classes are excluded
    /// from application-side reporting (§5) and may be whitelisted away.
    pub is_library: bool,
    /// Fields in source order.
    pub fields: Vec<FieldDecl>,
    /// Methods (and constructors, named `<init>`) in source order.
    pub methods: Vec<MethodDecl>,
    /// Source line of the declaration.
    pub line: u32,
}

/// A field declaration: `field String name;`.
#[derive(Debug, Clone)]
pub struct FieldDecl {
    /// Field name.
    pub name: Sym,
    /// Declared type.
    pub ty: TypeAst,
    /// `static` modifier.
    pub is_static: bool,
}

/// A method or constructor declaration.
#[derive(Debug, Clone)]
pub struct MethodDecl {
    /// Method name; constructors use the reserved name `<init>`.
    pub name: Sym,
    /// Parameters as `(type, name)` pairs.
    pub params: Vec<(TypeAst, Sym)>,
    /// Return type.
    pub ret: TypeAst,
    /// `static` modifier.
    pub is_static: bool,
    /// Body; `None` for abstract/interface methods.
    pub body: Option<Block>,
    /// Source line of the declaration.
    pub line: u32,
}

/// A surface type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeAst {
    /// `void`.
    Void,
    /// `int`.
    Int,
    /// `boolean`.
    Boolean,
    /// `String` (primitive string carrier).
    Str,
    /// A class or interface by name.
    Named(Sym),
    /// `T[]`.
    Array(Box<TypeAst>),
}

/// A `{ … }` statement list.
#[derive(Debug, Clone, Default)]
pub struct Block {
    /// Statements in order.
    pub stmts: Vec<Stmt>,
}

/// A statement.
#[derive(Debug, Clone)]
pub enum Stmt {
    /// `T x = e;` / `T x;`
    VarDecl {
        /// Declared type.
        ty: TypeAst,
        /// Variable name.
        name: Sym,
        /// Optional initializer.
        init: Option<Expr>,
        /// Source line.
        line: u32,
    },
    /// `lhs = e;`
    Assign {
        /// Assignment target.
        lhs: LValue,
        /// Right-hand side.
        rhs: Expr,
        /// Source line.
        line: u32,
    },
    /// An expression evaluated for effect (usually a call).
    Expr(Expr),
    /// `if (c) { … } else { … }`
    If {
        /// Condition.
        cond: Expr,
        /// Then-branch.
        then_blk: Block,
        /// Optional else-branch.
        else_blk: Option<Block>,
    },
    /// `while (c) { … }`
    While {
        /// Condition.
        cond: Expr,
        /// Loop body.
        body: Block,
    },
    /// `return;` / `return e;`
    Return(Option<Expr>, u32),
    /// `throw e;`
    Throw(Expr, u32),
    /// `try { … } catch (E e) { … }`
    Try {
        /// Protected region.
        body: Block,
        /// Caught exception class name.
        catch_class: Sym,
        /// Binder for the caught exception.
        catch_name: Sym,
        /// Handler block.
        handler: Block,
    },
}

/// An assignable place.
#[derive(Debug, Clone)]
pub enum LValue {
    /// A local variable.
    Var(Sym),
    /// `base.f` — also covers `Class.f` for static fields (disambiguated
    /// during lowering).
    Field {
        /// Base expression.
        base: Expr,
        /// Field name.
        name: Sym,
    },
    /// `base[i]`.
    Index {
        /// Array expression.
        base: Expr,
        /// Index expression (ignored by the index-insensitive IR).
        index: Expr,
    },
}

/// An expression.
#[derive(Debug, Clone)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Boolean literal.
    Bool(bool),
    /// String literal.
    Str(String),
    /// `null`.
    Null,
    /// A name: local variable, or class name in static-access position.
    Var(Sym, u32),
    /// `this`.
    This(u32),
    /// `base.f` (instance or static field read).
    Field {
        /// Base expression.
        base: Box<Expr>,
        /// Field name.
        name: Sym,
        /// Source line.
        line: u32,
    },
    /// `base[i]`.
    Index {
        /// Array expression.
        base: Box<Expr>,
        /// Index expression.
        index: Box<Expr>,
    },
    /// A call: `base.m(args)`, `m(args)` (implicit `this`/own class), or
    /// `Class.m(args)` (static).
    Call {
        /// Receiver/class expression; `None` for unqualified calls.
        base: Option<Box<Expr>>,
        /// Method name.
        name: Sym,
        /// Arguments.
        args: Vec<Expr>,
        /// Source line.
        line: u32,
    },
    /// `new C(args)`.
    New {
        /// Class name.
        class: Sym,
        /// Constructor arguments.
        args: Vec<Expr>,
        /// Source line.
        line: u32,
    },
    /// `new T[n]` or `new T[] { e1, … }`.
    NewArray {
        /// Element type.
        elem: TypeAst,
        /// Optional element initializers.
        init: Vec<Expr>,
        /// Source line.
        line: u32,
    },
    /// `lhs op rhs`.
    Binary {
        /// Operator token.
        op: AstBinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// `!e`.
    Not(Box<Expr>),
    /// `(T) e`.
    Cast {
        /// Target type.
        ty: TypeAst,
        /// Operand.
        expr: Box<Expr>,
        /// Source line.
        line: u32,
    },
}

impl Expr {
    /// The source line of this expression, where tracked.
    pub fn line(&self) -> u32 {
        match self {
            Expr::Var(_, l) | Expr::This(l) => *l,
            Expr::Field { line, .. }
            | Expr::Call { line, .. }
            | Expr::New { line, .. }
            | Expr::NewArray { line, .. }
            | Expr::Cast { line, .. } => *line,
            Expr::Binary { lhs, .. } => lhs.line(),
            Expr::Not(e) | Expr::Index { base: e, .. } => e.line(),
            _ => 0,
        }
    }
}

/// Surface binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AstBinOp {
    /// `+` (integer add or string concat, decided by lowering).
    Plus,
    /// `-`.
    Minus,
    /// `*`.
    Star,
    /// `==`.
    EqEq,
    /// `!=`.
    NotEq,
    /// `<`.
    Lt,
    /// `>`.
    Gt,
    /// `&&`.
    AndAnd,
    /// `||`.
    OrOr,
}

/// Formats an AST node as its derived `Debug` does, but with each [`Sym`]
/// written as its quoted text. Parser errors that quote an expression use
/// it, so the message names identifiers, not symbol numbers.
#[derive(Clone, Copy)]
pub struct WithNames<'a, T>(pub &'a T, pub &'a Names);

impl fmt::Debug for WithNames<'_, TypeAst> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names = self.1;
        match self.0 {
            TypeAst::Named(s) => f.debug_tuple("Named").field(&names.text(*s)).finish(),
            TypeAst::Array(e) => f.debug_tuple("Array").field(&WithNames(&**e, names)).finish(),
            other => fmt::Debug::fmt(other, f),
        }
    }
}

impl fmt::Debug for WithNames<'_, Expr> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn all<'b>(es: &'b [Expr], names: &'b Names) -> Vec<WithNames<'b, Expr>> {
            es.iter().map(|e| WithNames(e, names)).collect()
        }
        let names = self.1;
        let w = |e| WithNames(e, names);
        match self.0 {
            Expr::Var(s, l) => f.debug_tuple("Var").field(&names.text(*s)).field(l).finish(),
            Expr::Field { base, name, line } => f
                .debug_struct("Field")
                .field("base", &w(&**base))
                .field("name", &names.text(*name))
                .field("line", line)
                .finish(),
            Expr::Index { base, index } => f
                .debug_struct("Index")
                .field("base", &w(&**base))
                .field("index", &w(&**index))
                .finish(),
            Expr::Call { base, name, args, line } => f
                .debug_struct("Call")
                .field("base", &base.as_deref().map(w))
                .field("name", &names.text(*name))
                .field("args", &all(args, names))
                .field("line", line)
                .finish(),
            Expr::New { class, args, line } => f
                .debug_struct("New")
                .field("class", &names.text(*class))
                .field("args", &all(args, names))
                .field("line", line)
                .finish(),
            Expr::NewArray { elem, init, line } => f
                .debug_struct("NewArray")
                .field("elem", &WithNames(elem, names))
                .field("init", &all(init, names))
                .field("line", line)
                .finish(),
            Expr::Binary { op, lhs, rhs } => f
                .debug_struct("Binary")
                .field("op", op)
                .field("lhs", &w(&**lhs))
                .field("rhs", &w(&**rhs))
                .finish(),
            Expr::Not(e) => f.debug_tuple("Not").field(&w(&**e)).finish(),
            Expr::Cast { ty, expr, line } => f
                .debug_struct("Cast")
                .field("ty", &WithNames(ty, names))
                .field("expr", &w(&**expr))
                .field("line", line)
                .finish(),
            Expr::Int(_) | Expr::Bool(_) | Expr::Str(_) | Expr::Null | Expr::This(_) => {
                fmt::Debug::fmt(self.0, f)
            }
        }
    }
}
