//! AST → IR lowering: names resolved, expressions flattened to registers,
//! control flow structured into basic blocks, casts and the reflective
//! method-name-narrowing idiom turned into [`Filter`]ed copies (§4.2.3).
//!
//! Names resolve through tables indexed by [`Sym`], built once per parse:
//! each symbol's class, each symbol's innermost local (one table for all
//! scopes, with an undo log that a block unwinds on exit), and caches of
//! selectors and methods by name and arity.

use crate::ast::{self, AstBinOp, Block, Expr, LValue, Names, ProgramAst, Stmt, Sym, TypeAst};
use crate::class::{Class, ClassId, Field, FieldId, SelectorId};
use crate::inst::{BinOp, BlockId, CallTarget, ConstValue, Filter, Inst, Terminator, Var};
use crate::method::{BasicBlock, Body, Method, MethodId, MethodKind};
use crate::parser::ParseError;
use crate::program::Program;
use crate::types::{Type, TypeId};
use crate::util::FxHashMap;

/// Lowers `ast` into `program` (which usually already contains the
/// intrinsic model library).
///
/// # Errors
/// Returns a [`ParseError`] on unresolved names, arity mismatches, or
/// malformed constructs.
pub fn lower(program: &mut Program, ast: &ProgramAst) -> Result<(), ParseError> {
    let names = &ast.names;
    // Pass 1: declare classes.
    let mut declared: Vec<ClassId> = Vec::with_capacity(ast.classes.len());
    for decl in &ast.classes {
        let name = names.text(decl.name);
        if program.class_by_name(name).is_some() {
            return Err(ParseError::msg(format!("class `{name}` already defined")));
        }
        let mut class = Class::new(name);
        class.is_interface = decl.is_interface;
        class.is_library = decl.is_library;
        declared.push(program.add_class(class));
    }
    let mut cx = Lowerer::new(program, names);
    // Pass 2: resolve supertypes, declare fields and method signatures.
    let object = cx.class_of[Sym::OBJECT.index()]
        .ok_or_else(|| ParseError::msg("model library must define `Object`"))?;
    let mut method_ids: Vec<Vec<MethodId>> = Vec::with_capacity(ast.classes.len());
    for (decl, &cid) in ast.classes.iter().zip(&declared) {
        let superclass = match decl.superclass {
            Some(name) => Some(cx.resolve_class(name, decl.line)?),
            None if decl.is_interface => None,
            None if cid == object => None, // the root has no superclass
            None => Some(object),
        };
        cx.program.class_mut(cid).superclass = superclass;
        let mut ifaces = Vec::new();
        for &i in &decl.interfaces {
            ifaces.push(cx.resolve_class(i, decl.line)?);
        }
        cx.program.class_mut(cid).interfaces = ifaces;
        for f in &decl.fields {
            let ty = cx.resolve_type(&f.ty, decl.line)?;
            cx.program.add_field(Field {
                name: names.text(f.name).to_string(),
                owner: cid,
                ty,
                is_static: f.is_static,
            });
        }
        let mut mids = Vec::new();
        for m in &decl.methods {
            let params = m
                .params
                .iter()
                .map(|(t, _)| cx.resolve_type(t, m.line))
                .collect::<Result<Vec<_>, _>>()?;
            let ret = cx.resolve_type(&m.ret, m.line)?;
            let kind = if m.body.is_some() {
                MethodKind::Body(Body::default()) // replaced in pass 3
            } else {
                MethodKind::Abstract
            };
            mids.push(cx.program.add_method(Method {
                name: names.text(m.name).to_string(),
                owner: cid,
                params,
                ret,
                is_static: m.is_static,
                kind,
                is_factory: false,
            }));
        }
        method_ids.push(mids);
    }
    // Pass 3: lower bodies.
    for ((decl, &cid), mids) in ast.classes.iter().zip(&declared).zip(&method_ids) {
        for (m, &mid) in decl.methods.iter().zip(mids) {
            if let Some(block) = &m.body {
                let body = cx.lower_body(cid, m, block)?;
                *cx.program.method_mut(mid).body_mut().expect("declared with body") = body;
            }
        }
    }
    Ok(())
}

/// A local's register and declared type.
type Local = (Var, TypeId);

/// Lowering state for one parse. The tables indexed by symbol and the
/// caches serve every body; the rest is the body being lowered.
struct Lowerer<'a> {
    program: &'a mut Program,
    names: &'a Names,
    /// The class each symbol names, looked up once after pass 1.
    class_of: Vec<Option<ClassId>>,
    /// The innermost local each symbol names in the current body.
    locals: Vec<Option<Local>>,
    /// Undo log for `locals`: each declaration's symbol and the binding
    /// it shadowed. A block unwinds it to its length at block entry.
    shadowed: Vec<(Sym, Option<Local>)>,
    selectors: FxHashMap<(Sym, usize), SelectorId>,
    /// Methods by `(class, name, arity)`, searched up the superclass
    /// chain; a `None` class finds the first such method anywhere.
    methods: FxHashMap<(Option<ClassId>, Sym, usize), Option<MethodId>>,
    class: ClassId,
    is_static: bool,
    body: Body,
    /// The block being filled.
    cur: BlockId,
    /// The instructions emitted into `cur` so far. They move into the
    /// block at their exact size when lowering leaves it.
    pending: Vec<Inst>,
    handlers: Vec<BlockId>,
    /// Active reflective narrowing facts: `(local name, method name)` from
    /// enclosing `if (x.getName().equals("m"))` conditions.
    narrows: Vec<(Sym, String)>,
}

impl<'a> Lowerer<'a> {
    fn new(program: &'a mut Program, names: &'a Names) -> Self {
        let class_of =
            (0..names.len()).map(|i| program.class_by_name(names.text(Sym::new(i)))).collect();
        Lowerer {
            program,
            names,
            class_of,
            locals: vec![None; names.len()],
            shadowed: Vec::new(),
            selectors: FxHashMap::default(),
            methods: FxHashMap::default(),
            class: ClassId(0),
            is_static: false,
            body: Body::default(),
            cur: BlockId(0),
            pending: Vec::new(),
            handlers: Vec::new(),
            narrows: Vec::new(),
        }
    }

    fn lower_body(
        &mut self,
        class: ClassId,
        decl: &ast::MethodDecl,
        block: &Block,
    ) -> Result<Body, ParseError> {
        self.class = class;
        self.is_static = decl.is_static;
        self.cur = BlockId(0);
        self.pending.clear();
        self.handlers.clear();
        self.narrows.clear();
        if !decl.is_static {
            let this_ty = self.program.types.class(class);
            let v = self.fresh(this_ty);
            debug_assert_eq!(v, Var(0));
        }
        for (i, (t, name)) in decl.params.iter().enumerate() {
            let ty = self.resolve_type(t, decl.line)?;
            let v = self.fresh(ty);
            debug_assert_eq!(v.index(), i + usize::from(!decl.is_static));
            self.declare(*name, v, ty);
        }
        self.body.blocks.push(BasicBlock::default());
        self.lower_block(block)?;
        self.finish_block();
        // Fall-through return for void methods / unfinished blocks.
        if matches!(self.body.blocks[self.cur.index()].term, Terminator::Unreachable) {
            self.body.blocks[self.cur.index()].term = Terminator::Return(None);
        }
        self.unwind(0); // the parameters go out of scope
        Ok(std::mem::take(&mut self.body))
    }

    // ---- names ----

    fn text(&self, name: Sym) -> &'a str {
        self.names.text(name)
    }

    fn resolve_class(&self, name: Sym, line: u32) -> Result<ClassId, ParseError> {
        self.class_of[name.index()].ok_or_else(|| ParseError {
            msg: format!("unknown class `{}`", self.text(name)),
            line,
            col: 0,
        })
    }

    fn resolve_type(&mut self, ty: &TypeAst, line: u32) -> Result<TypeId, ParseError> {
        Ok(match ty {
            TypeAst::Void => self.program.types.void(),
            TypeAst::Int => self.program.types.int(),
            TypeAst::Boolean => self.program.types.boolean(),
            TypeAst::Str => self.program.types.string(),
            TypeAst::Named(n) => {
                let c = self.resolve_class(*n, line)?;
                self.program.types.class(c)
            }
            TypeAst::Array(elem) => {
                let e = self.resolve_type(elem, line)?;
                self.program.types.array(e)
            }
        })
    }

    fn lookup(&self, name: Sym) -> Option<Local> {
        self.locals[name.index()]
    }

    fn declare(&mut self, name: Sym, v: Var, ty: TypeId) {
        let prev = self.locals[name.index()].replace((v, ty));
        self.shadowed.push((name, prev));
    }

    /// Restores the bindings the declarations after `mark` shadowed.
    fn unwind(&mut self, mark: usize) {
        for (name, prev) in self.shadowed.drain(mark..).rev() {
            self.locals[name.index()] = prev;
        }
    }

    fn selector(&mut self, name: Sym, arity: usize) -> SelectorId {
        if let Some(&sel) = self.selectors.get(&(name, arity)) {
            return sel;
        }
        let sel = self.program.selector(self.names.text(name), arity);
        self.selectors.insert((name, arity), sel);
        sel
    }

    /// The method named `name` with `arity` parameters on `class` or a
    /// superclass, or with `class` `None`, the first one in the program.
    fn method(&mut self, class: Option<ClassId>, name: Sym, arity: usize) -> Option<MethodId> {
        let (program, text) = (&*self.program, self.names.text(name));
        *self.methods.entry((class, name, arity)).or_insert_with(|| match class {
            Some(c) => program.method_by_arity(c, text, arity),
            None => program
                .iter_methods()
                .find(|(_, m)| m.name == text && m.params.len() == arity)
                .map(|(id, _)| id),
        })
    }

    // ---- block/terminator plumbing ----

    fn new_block(&mut self) -> BlockId {
        let id = BlockId(self.body.blocks.len() as u32);
        self.body
            .blocks
            .push(BasicBlock { handler: self.handlers.last().copied(), ..Default::default() });
        id
    }

    fn emit(&mut self, inst: Inst) {
        self.pending.push(inst);
    }

    /// Moves the pending instructions into `cur`, at their exact size.
    fn finish_block(&mut self) {
        let insts = &mut self.body.blocks[self.cur.index()].insts;
        debug_assert!(insts.is_empty(), "{:?} is filled twice", self.cur);
        *insts = self.pending.drain(..).collect();
    }

    /// Leaves `cur` and makes `b` the block being filled. Lowering fills
    /// each block in one stretch: structured statements and the dead
    /// block after `return`/`throw` always move on to a fresh block and
    /// never re-enter a finished one.
    fn switch_to(&mut self, b: BlockId) {
        self.finish_block();
        debug_assert!(self.body.blocks[b.index()].insts.is_empty(), "{b:?} is re-entered");
        self.cur = b;
    }

    fn terminate(&mut self, term: Terminator) {
        let b = &mut self.body.blocks[self.cur.index()];
        if matches!(b.term, Terminator::Unreachable) {
            b.term = term;
        }
    }

    fn fresh(&mut self, ty: TypeId) -> Var {
        let v = self.body.fresh_var();
        self.body.var_types.push(ty);
        v
    }

    // ---- statements ----

    fn lower_block(&mut self, block: &Block) -> Result<(), ParseError> {
        let mark = self.shadowed.len();
        for stmt in &block.stmts {
            self.lower_stmt(stmt)?;
        }
        self.unwind(mark);
        Ok(())
    }

    fn lower_stmt(&mut self, stmt: &Stmt) -> Result<(), ParseError> {
        match stmt {
            Stmt::VarDecl { ty, name, init, line } => {
                let tyid = self.resolve_type(ty, *line)?;
                let v = self.fresh(tyid);
                if let Some(e) = init {
                    let (src, _) = self.lower_expr(e)?;
                    let filter = self.narrow_filter_for(e);
                    self.emit(Inst::Assign { dst: v, src, filter });
                } else {
                    self.emit(Inst::Const { dst: v, value: default_const(self.program, tyid) });
                }
                self.declare(*name, v, tyid);
            }
            Stmt::Assign { lhs, rhs, line } => match lhs {
                LValue::Var(name) => {
                    let (dst, _ty) = self.lookup(*name).ok_or_else(|| ParseError {
                        msg: format!("unknown variable `{}`", self.text(*name)),
                        line: *line,
                        col: 0,
                    })?;
                    let (src, _) = self.lower_expr(rhs)?;
                    let filter = self.narrow_filter_for(rhs);
                    self.emit(Inst::Assign { dst, src, filter });
                }
                LValue::Field { base, name } => {
                    let (src, _) = self.lower_expr(rhs)?;
                    match self.static_class_of(base) {
                        Some(cid) => {
                            let f = self.resolve_field(cid, *name, *line)?;
                            self.emit(Inst::StaticStore { field: f, src });
                        }
                        None => {
                            let (b, bty) = self.lower_expr(base)?;
                            let f = self.field_on(bty, *name, *line)?;
                            self.emit(Inst::Store { base: b, field: f, src });
                        }
                    }
                }
                LValue::Index { base, index } => {
                    let (b, _) = self.lower_expr(base)?;
                    let (idx, _) = self.lower_expr(index)?;
                    let (src, _) = self.lower_expr(rhs)?;
                    self.emit(Inst::ArrayStore { base: b, index: Some(idx), src });
                }
            },
            Stmt::Expr(e) => {
                self.lower_expr(e)?;
            }
            Stmt::If { cond, then_blk, else_blk } => {
                let (c, _) = self.lower_expr(cond)?;
                let then_bb = self.new_block();
                let else_bb = self.new_block();
                let join = self.new_block();
                self.terminate(Terminator::If { cond: c, then_bb, else_bb });
                // Reflective narrowing applies in the then-branch only.
                let narrow = narrow_pattern(cond);
                self.switch_to(then_bb);
                if let Some(n) = &narrow {
                    self.narrows.push(n.clone());
                }
                self.lower_block(then_blk)?;
                if narrow.is_some() {
                    self.narrows.pop();
                }
                self.terminate(Terminator::Goto(join));
                self.switch_to(else_bb);
                if let Some(eb) = else_blk {
                    self.lower_block(eb)?;
                }
                self.terminate(Terminator::Goto(join));
                self.switch_to(join);
            }
            Stmt::While { cond, body } => {
                let header = self.new_block();
                self.terminate(Terminator::Goto(header));
                self.switch_to(header);
                let (c, _) = self.lower_expr(cond)?;
                let body_bb = self.new_block();
                let exit = self.new_block();
                self.terminate(Terminator::If { cond: c, then_bb: body_bb, else_bb: exit });
                self.switch_to(body_bb);
                self.lower_block(body)?;
                self.terminate(Terminator::Goto(header));
                self.switch_to(exit);
            }
            Stmt::Return(value, _line) => {
                let v = match value {
                    Some(e) => Some(self.lower_expr(e)?.0),
                    None => None,
                };
                self.terminate(Terminator::Return(v));
                let dead = self.new_block(); // dead continuation
                self.switch_to(dead);
            }
            Stmt::Throw(e, _line) => {
                let (v, _) = self.lower_expr(e)?;
                self.terminate(Terminator::Throw(v));
                let dead = self.new_block();
                self.switch_to(dead);
            }
            Stmt::Try { body, catch_class, catch_name, handler } => {
                let exc_class = self.resolve_class(*catch_class, 0)?;
                let exc_ty = self.program.types.class(exc_class);
                let handler_bb = self.new_block(); // handler itself uses outer handler
                                                   // Protected region.
                self.handlers.push(handler_bb);
                let protected = self.new_block();
                self.terminate(Terminator::Goto(protected));
                self.switch_to(protected);
                self.lower_block(body)?;
                self.handlers.pop();
                let join = self.new_block();
                self.terminate(Terminator::Goto(join));
                // Handler.
                self.switch_to(handler_bb);
                let evar = self.fresh(exc_ty);
                self.emit(Inst::CatchBind { dst: evar, class: exc_class });
                let mark = self.shadowed.len();
                self.declare(*catch_name, evar, exc_ty);
                for s in &handler.stmts {
                    self.lower_stmt(s)?;
                }
                self.unwind(mark);
                self.terminate(Terminator::Goto(join));
                self.switch_to(join);
            }
        }
        Ok(())
    }

    // ---- expressions ----

    fn lower_expr(&mut self, e: &Expr) -> Result<(Var, TypeId), ParseError> {
        match e {
            Expr::Int(n) => {
                let ty = self.program.types.int();
                let v = self.fresh(ty);
                self.emit(Inst::Const { dst: v, value: ConstValue::Int(*n) });
                Ok((v, ty))
            }
            Expr::Bool(b) => {
                let ty = self.program.types.boolean();
                let v = self.fresh(ty);
                self.emit(Inst::Const { dst: v, value: ConstValue::Bool(*b) });
                Ok((v, ty))
            }
            Expr::Str(s) => {
                let ty = self.program.types.string();
                let v = self.fresh(ty);
                self.emit(Inst::Const { dst: v, value: ConstValue::Str(s.clone()) });
                Ok((v, ty))
            }
            Expr::Null => {
                let ty = self.program.types.null();
                let v = self.fresh(ty);
                self.emit(Inst::Const { dst: v, value: ConstValue::Null });
                Ok((v, ty))
            }
            Expr::This(line) => {
                if self.is_static {
                    return Err(ParseError {
                        msg: "`this` in static method".into(),
                        line: *line,
                        col: 0,
                    });
                }
                Ok((Var(0), self.program.types.class(self.class)))
            }
            Expr::Var(name, line) => self.lookup(*name).ok_or_else(|| ParseError {
                msg: format!("unknown variable `{}`", self.text(*name)),
                line: *line,
                col: 0,
            }),
            Expr::Field { base, name, line } => {
                if let Some(cid) = self.static_class_of(base) {
                    let f = self.resolve_field(cid, *name, *line)?;
                    let ty = self.program.field(f).ty;
                    let v = self.fresh(ty);
                    self.emit(Inst::StaticLoad { dst: v, field: f });
                    return Ok((v, ty));
                }
                let (b, bty) = self.lower_expr(base)?;
                if *name == Sym::LENGTH && matches!(self.program.types.resolve(bty), Type::Array(_))
                {
                    // `arr.length` → opaque int.
                    let ty = self.program.types.int();
                    let v = self.fresh(ty);
                    self.emit(Inst::Const { dst: v, value: ConstValue::Int(0) });
                    return Ok((v, ty));
                }
                let f = self.field_on(bty, *name, *line)?;
                let ty = self.program.field(f).ty;
                let v = self.fresh(ty);
                self.emit(Inst::Load { dst: v, base: b, field: f });
                Ok((v, ty))
            }
            Expr::Index { base, index } => {
                let (b, bty) = self.lower_expr(base)?;
                let (idx, _) = self.lower_expr(index)?;
                let elem_ty = match self.program.types.resolve(bty) {
                    Type::Array(e) => e,
                    _ => self.object_type(),
                };
                let v = self.fresh(elem_ty);
                self.emit(Inst::ArrayLoad { dst: v, base: b, index: Some(idx) });
                Ok((v, elem_ty))
            }
            Expr::Call { base, name, args, line } => self.lower_call(base, *name, args, *line),
            Expr::New { class, args, line } => {
                if *class == Sym::STRING {
                    // `new String(x)` is a copy of the string-carrier value.
                    if let Some(a0) = args.first() {
                        let (src, _) = self.lower_expr(a0)?;
                        let ty = self.program.types.string();
                        let v = self.fresh(ty);
                        self.emit(Inst::Assign { dst: v, src, filter: None });
                        return Ok((v, ty));
                    }
                    let ty = self.program.types.string();
                    let v = self.fresh(ty);
                    self.emit(Inst::Const { dst: v, value: ConstValue::Str(String::new()) });
                    return Ok((v, ty));
                }
                let cid = self.resolve_class(*class, *line)?;
                let ty = self.program.types.class(cid);
                let v = self.fresh(ty);
                self.emit(Inst::New { dst: v, class: cid });
                let mut lowered = Vec::with_capacity(args.len());
                for a in args {
                    lowered.push(self.lower_expr(a)?.0);
                }
                // A constructor with matching arity in the chain.
                if let Some(init) = self.method(Some(cid), Sym::INIT, args.len()) {
                    self.emit(Inst::Call {
                        dst: None,
                        target: CallTarget::Special(init),
                        recv: Some(v),
                        args: lowered,
                    });
                } else if !args.is_empty() {
                    return Err(ParseError {
                        msg: format!(
                            "no {}-ary constructor on `{}`",
                            args.len(),
                            self.text(*class)
                        ),
                        line: *line,
                        col: 0,
                    });
                }
                Ok((v, ty))
            }
            Expr::NewArray { elem, init, line } => {
                let elem_ty = self.resolve_type(elem, *line)?;
                let arr_ty = self.program.types.array(elem_ty);
                let v = self.fresh(arr_ty);
                self.emit(Inst::NewArray { dst: v, elem: elem_ty });
                for (pos, e) in init.iter().enumerate() {
                    let (src, _) = self.lower_expr(e)?;
                    let ity = self.program.types.int();
                    let iv = self.fresh(ity);
                    self.emit(Inst::Const { dst: iv, value: ConstValue::Int(pos as i64) });
                    self.emit(Inst::ArrayStore { base: v, index: Some(iv), src });
                }
                Ok((v, arr_ty))
            }
            Expr::Binary { op, lhs, rhs } => {
                let (l, lt) = self.lower_expr(lhs)?;
                let (r, rt) = self.lower_expr(rhs)?;
                let str_ty = self.program.types.string();
                let (irop, ty) = match op {
                    AstBinOp::Plus if lt == str_ty || rt == str_ty => (BinOp::Concat, str_ty),
                    AstBinOp::Plus => (BinOp::Add, self.program.types.int()),
                    AstBinOp::Minus => (BinOp::Sub, self.program.types.int()),
                    AstBinOp::Star => (BinOp::Mul, self.program.types.int()),
                    AstBinOp::EqEq => (BinOp::Eq, self.program.types.boolean()),
                    AstBinOp::NotEq => (BinOp::Ne, self.program.types.boolean()),
                    AstBinOp::Lt => (BinOp::Lt, self.program.types.boolean()),
                    AstBinOp::Gt => (BinOp::Gt, self.program.types.boolean()),
                    AstBinOp::AndAnd => (BinOp::And, self.program.types.boolean()),
                    AstBinOp::OrOr => (BinOp::Or, self.program.types.boolean()),
                };
                let v = self.fresh(ty);
                self.emit(Inst::Binary { dst: v, op: irop, lhs: l, rhs: r });
                Ok((v, ty))
            }
            Expr::Not(inner) => {
                let (x, _) = self.lower_expr(inner)?;
                let bty = self.program.types.boolean();
                let f = self.fresh(bty);
                self.emit(Inst::Const { dst: f, value: ConstValue::Bool(false) });
                let v = self.fresh(bty);
                self.emit(Inst::Binary { dst: v, op: BinOp::Eq, lhs: x, rhs: f });
                Ok((v, bty))
            }
            Expr::Cast { ty, expr, line } => {
                let (src, _) = self.lower_expr(expr)?;
                let tyid = self.resolve_type(ty, *line)?;
                let v = self.fresh(tyid);
                let filter = match self.program.types.resolve(tyid) {
                    Type::Class(c) => Some(Filter::InstanceOf(c)),
                    _ => None,
                };
                self.emit(Inst::Assign { dst: v, src, filter });
                Ok((v, tyid))
            }
        }
    }

    fn lower_call(
        &mut self,
        base: &Option<Box<Expr>>,
        name: Sym,
        args: &[Expr],
        line: u32,
    ) -> Result<(Var, TypeId), ParseError> {
        let arity = args.len();
        // Static call through a class name?
        if let Some(b) = base {
            if let Some(cid) = self.static_class_of(b) {
                let mid = self.method(Some(cid), name, arity).ok_or_else(|| ParseError {
                    msg: format!(
                        "no static method `{}.{}/{arity}`",
                        self.program.class(cid).name,
                        self.text(name)
                    ),
                    line,
                    col: 0,
                })?;
                if !self.program.method(mid).is_static {
                    return Err(ParseError {
                        msg: format!("`{}` is not static", self.text(name)),
                        line,
                        col: 0,
                    });
                }
                return self.static_call(mid, args);
            }
        }
        // Receiver expression (explicit base or implicit `this`).
        let (recv, recv_ty) = match base {
            Some(b) => self.lower_expr(b)?,
            None => {
                // Unqualified: method on the current class (static or not).
                if let Some(mid) = self.method(Some(self.class), name, arity) {
                    if self.program.method(mid).is_static {
                        return self.static_call(mid, args);
                    }
                }
                if self.is_static {
                    return Err(ParseError {
                        msg: format!("unqualified call `{}` in static method", self.text(name)),
                        line,
                        col: 0,
                    });
                }
                (Var(0), self.program.types.class(self.class))
            }
        };
        let mut lowered = Vec::with_capacity(arity);
        for a in args {
            lowered.push(self.lower_expr(a)?.0);
        }
        let sel = self.selector(name, arity);
        // Determine a return type from the static receiver type when
        // possible, else from any program method with this name and arity.
        let ret = match self.program.types.resolve(recv_ty).as_class() {
            Some(c) => self.method(Some(c), name, arity),
            None => None,
        }
        .or_else(|| self.method(None, name, arity))
        .map(|m| self.program.method(m).ret)
        .unwrap_or_else(|| self.object_type());
        let dst = self.call_dst(ret);
        self.emit(Inst::Call {
            dst,
            target: CallTarget::Virtual(sel),
            recv: Some(recv),
            args: lowered,
        });
        Ok((dst.unwrap_or(Var(0)), ret))
    }

    fn static_call(&mut self, mid: MethodId, args: &[Expr]) -> Result<(Var, TypeId), ParseError> {
        let mut lowered = Vec::with_capacity(args.len());
        for a in args {
            lowered.push(self.lower_expr(a)?.0);
        }
        let ret = self.program.method(mid).ret;
        let dst = self.call_dst(ret);
        self.emit(Inst::Call { dst, target: CallTarget::Static(mid), recv: None, args: lowered });
        Ok((dst.unwrap_or(Var(0)), ret))
    }

    fn call_dst(&mut self, ret: TypeId) -> Option<Var> {
        if ret == self.program.types.void() {
            None
        } else {
            Some(self.fresh(ret))
        }
    }

    // ---- helpers ----

    /// If `e` is a bare identifier naming a class (and not shadowed by a
    /// local), returns that class: static-access position.
    fn static_class_of(&self, e: &Expr) -> Option<ClassId> {
        match e {
            Expr::Var(name, _) if self.lookup(*name).is_none() => self.class_of[name.index()],
            _ => None,
        }
    }

    fn resolve_field(&self, class: ClassId, name: Sym, line: u32) -> Result<FieldId, ParseError> {
        self.program.field_by_name(class, self.text(name)).ok_or_else(|| ParseError {
            msg: format!("no field `{}` on `{}`", self.text(name), self.program.class(class).name),
            line,
            col: 0,
        })
    }

    fn field_on(&self, base_ty: TypeId, name: Sym, line: u32) -> Result<FieldId, ParseError> {
        match self.program.types.resolve(base_ty) {
            Type::Class(c) => self.resolve_field(c, name, line),
            other => Err(ParseError {
                msg: format!("field access `{}` on non-class type {other:?}", self.text(name)),
                line,
                col: 0,
            }),
        }
    }

    fn object_type(&mut self) -> TypeId {
        let obj = self.class_of[Sym::OBJECT.index()].expect("Object exists");
        self.program.types.class(obj)
    }

    /// If `e` is a bare read of a variable with an active reflective
    /// narrowing fact, produce the corresponding filter.
    fn narrow_filter_for(&self, e: &Expr) -> Option<Filter> {
        if let Expr::Var(name, _) = e {
            for (var, mname) in self.narrows.iter().rev() {
                if var == name {
                    return Some(Filter::MethodNameEquals(mname.clone()));
                }
            }
        }
        None
    }
}

fn default_const(program: &Program, ty: TypeId) -> ConstValue {
    match program.types.resolve(ty) {
        Type::Int => ConstValue::Int(0),
        Type::Boolean => ConstValue::Bool(false),
        Type::Str => ConstValue::Str(String::new()),
        _ => ConstValue::Null,
    }
}

/// Recognizes the reflective narrowing idiom in an `if` condition:
/// `x.getName().equals("m")` or `x.getName() == "m"`, returning
/// `(local name, method name)`.
fn narrow_pattern(cond: &Expr) -> Option<(Sym, String)> {
    fn get_name_recv(e: &Expr) -> Option<Sym> {
        if let Expr::Call { base: Some(b), name: Sym::GET_NAME, args, .. } = e {
            if args.is_empty() {
                if let Expr::Var(v, _) = &**b {
                    return Some(*v);
                }
            }
        }
        None
    }
    match cond {
        Expr::Call { base: Some(b), name: Sym::EQUALS, args, .. } if args.len() == 1 => {
            let v = get_name_recv(b)?;
            if let Expr::Str(s) = &args[0] {
                return Some((v, s.clone()));
            }
            None
        }
        Expr::Binary { op: AstBinOp::EqEq, lhs, rhs } => {
            let v = get_name_recv(lhs)?;
            if let Expr::Str(s) = &**rhs {
                return Some((v, s.clone()));
            }
            None
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn lower_src(src: &str) -> Program {
        let mut p = crate::stdlib::stdlib_program();
        let ast = parse(src).unwrap();
        lower(&mut p, &ast).unwrap();
        p
    }

    #[test]
    fn lowers_simple_method() {
        let p = lower_src(
            r#"
            class A {
                field String s;
                method String get() { return this.s; }
            }
            "#,
        );
        let a = p.class_by_name("A").unwrap();
        let m = p.method_by_name(a, "get").unwrap();
        let body = p.method(m).body().unwrap();
        assert!(matches!(body.blocks[0].insts[0], Inst::Load { .. }));
        assert!(matches!(body.blocks[0].term, Terminator::Return(Some(_))));
    }

    #[test]
    fn constructor_call_lowered_as_special() {
        let p = lower_src(
            r#"
            class Box {
                field String v;
                ctor (String v) { this.v = v; }
            }
            class Use {
                method Box mk(String s) { return new Box(s); }
            }
            "#,
        );
        let u = p.class_by_name("Use").unwrap();
        let m = p.method_by_name(u, "mk").unwrap();
        let body = p.method(m).body().unwrap();
        let has_special = body
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .any(|i| matches!(i, Inst::Call { target: CallTarget::Special(_), .. }));
        assert!(has_special, "constructor should lower to a Special call");
    }

    #[test]
    fn cast_produces_instanceof_filter() {
        let p = lower_src(
            r#"
            class Widget { }
            class C {
                method Widget f(Object o) { return (Widget) o; }
            }
            "#,
        );
        let c = p.class_by_name("C").unwrap();
        let m = p.method_by_name(c, "f").unwrap();
        let body = p.method(m).body().unwrap();
        let widget = p.class_by_name("Widget").unwrap();
        let found = body.blocks.iter().flat_map(|b| &b.insts).any(|i| {
            matches!(i, Inst::Assign { filter: Some(Filter::InstanceOf(w)), .. } if *w == widget)
        });
        assert!(found, "cast should carry an InstanceOf filter");
    }

    #[test]
    fn reflective_narrowing_filter_attached() {
        let p = lower_src(
            r#"
            class C {
                method void pick(Method m) {
                    Method chosen = null;
                    if (m.getName().equals("id")) { chosen = m; }
                }
            }
            "#,
        );
        let c = p.class_by_name("C").unwrap();
        let m = p.method_by_name(c, "pick").unwrap();
        let body = p.method(m).body().unwrap();
        let found = body.blocks.iter().flat_map(|b| &b.insts).any(|i| {
            matches!(
                i,
                Inst::Assign { filter: Some(Filter::MethodNameEquals(n)), .. } if n == "id"
            )
        });
        assert!(found, "narrowing filter expected, body: {body:#?}");
    }

    #[test]
    fn try_catch_sets_handler_and_catchbind() {
        let p = lower_src(
            r#"
            class C {
                method void f() {
                    try { this.g(); } catch (Exception e) { this.h(e); }
                }
                method void g() { }
                method void h(Exception e) { }
            }
            "#,
        );
        let c = p.class_by_name("C").unwrap();
        let m = p.method_by_name(c, "f").unwrap();
        let body = p.method(m).body().unwrap();
        let has_bind =
            body.blocks.iter().flat_map(|b| &b.insts).any(|i| matches!(i, Inst::CatchBind { .. }));
        assert!(has_bind);
        let protected_has_handler =
            body.blocks.iter().any(|b| b.handler.is_some() && b.insts.iter().any(Inst::is_call));
        assert!(protected_has_handler, "protected call should sit in a handled block");
    }

    #[test]
    fn string_concat_lowered() {
        let p = lower_src(
            r#"
            class C { method String f(String a, int b) { return a + b; } }
            "#,
        );
        let c = p.class_by_name("C").unwrap();
        let m = p.method_by_name(c, "f").unwrap();
        let body = p.method(m).body().unwrap();
        let concat = body
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .any(|i| matches!(i, Inst::Binary { op: BinOp::Concat, .. }));
        assert!(concat);
    }

    #[test]
    fn static_call_via_class_name() {
        let p = lower_src(
            r#"
            class Util {
                static method String id(String s) { return s; }
            }
            class C { method String f(String s) { return Util.id(s); } }
            "#,
        );
        let c = p.class_by_name("C").unwrap();
        let m = p.method_by_name(c, "f").unwrap();
        let body = p.method(m).body().unwrap();
        let is_static = body
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .any(|i| matches!(i, Inst::Call { target: CallTarget::Static(_), .. }));
        assert!(is_static);
    }

    #[test]
    fn unknown_variable_is_error() {
        let mut p = crate::stdlib::stdlib_program();
        let ast = parse("class C { method void f() { x = 1; } }").unwrap();
        let err = lower(&mut p, &ast).unwrap_err();
        assert!(err.msg.contains("unknown variable"), "{err}");
    }

    #[test]
    fn while_produces_loop_cfg() {
        let p = lower_src(
            r#"
            class C {
                method int f(int n) {
                    int x = 0;
                    while (n > 0) { x = x + 1; n = n - 1; }
                    return x;
                }
            }
            "#,
        );
        let c = p.class_by_name("C").unwrap();
        let m = p.method_by_name(c, "f").unwrap();
        let body = p.method(m).body().unwrap();
        let cfg = crate::cfg::Cfg::build(body);
        // Some block must have a back edge to an earlier block.
        let has_back_edge = cfg.rpo.iter().any(|&b| {
            cfg.succs(b).iter().any(|s| cfg.rpo_pos[s.index()] <= cfg.rpo_pos[b.index()])
        });
        assert!(has_back_edge, "loop should create a back edge");
    }
}
