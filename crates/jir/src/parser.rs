//! Recursive-descent parser for jweb.

use std::fmt;

use crate::ast::*;
use crate::lexer::{lex, LexError, Tok, Token};

/// A parse (or lowering) failure with source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Explanation.
    pub msg: String,
    /// 1-based line (0 when unknown).
    pub line: u32,
    /// 1-based column (0 when unknown).
    pub col: u32,
}

impl ParseError {
    /// Creates an error without position information (used by lowering).
    pub fn msg(msg: impl Into<String>) -> Self {
        ParseError { msg: msg.into(), line: 0, col: 0 }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "error: {}", self.msg)
        } else {
            write!(f, "error at {}:{}: {}", self.line, self.col, self.msg)
        }
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError { msg: e.msg, line: e.line, col: e.col }
    }
}

/// Parses jweb source into an AST.
///
/// # Errors
/// Returns the first syntax error encountered.
pub fn parse(src: &str) -> Result<ProgramAst, ParseError> {
    let (tokens, names) = lex(src)?;
    let mut p = Parser { tokens, pos: 0, names };
    let classes = p.program()?;
    Ok(ProgramAst { classes, names: p.names })
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// The table the tokens' identifiers index; errors quote from it.
    names: Names,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.tokens[self.pos].tok
    }

    fn peek_at(&self, off: usize) -> &Tok {
        let i = (self.pos + off).min(self.tokens.len() - 1);
        &self.tokens[i].tok
    }

    fn line(&self) -> u32 {
        self.tokens[self.pos].line
    }

    /// Consumes the current token and returns it. `pos` never moves
    /// back, so the token is moved out rather than cloned; the final
    /// `Eof` is never consumed, only copied.
    fn advance(&mut self) -> Tok {
        if self.pos < self.tokens.len() - 1 {
            let t = std::mem::replace(&mut self.tokens[self.pos].tok, Tok::Eof);
            self.pos += 1;
            t
        } else {
            self.tokens[self.pos].tok.clone()
        }
    }

    fn eat(&mut self, expected: &Tok) -> Result<(), ParseError> {
        if self.peek() == expected {
            self.advance();
            Ok(())
        } else {
            Err(self.err(format!(
                "expected {}, found {}",
                expected.describe(&self.names),
                self.describe(self.peek())
            )))
        }
    }

    fn eat_ident(&mut self) -> Result<Sym, ParseError> {
        match *self.peek() {
            Tok::Ident(s) => {
                self.advance();
                Ok(s)
            }
            ref other => {
                Err(self.err(format!("expected identifier, found {}", self.describe(other))))
            }
        }
    }

    fn describe(&self, tok: &Tok) -> String {
        tok.describe(&self.names)
    }

    fn err(&self, msg: String) -> ParseError {
        ParseError { msg, line: self.tokens[self.pos].line, col: self.tokens[self.pos].col }
    }

    // ---- declarations ----

    fn program(&mut self) -> Result<Vec<ClassDecl>, ParseError> {
        let mut classes = Vec::new();
        while *self.peek() != Tok::Eof {
            classes.push(self.class_decl()?);
        }
        Ok(classes)
    }

    fn class_decl(&mut self) -> Result<ClassDecl, ParseError> {
        let line = self.line();
        let mut is_library = false;
        if *self.peek() == Tok::Library {
            self.advance();
            is_library = true;
        }
        let is_interface = match self.advance() {
            Tok::Class => false,
            Tok::Interface => true,
            other => {
                return Err(self
                    .err(format!("expected `class`/`interface`, found {}", self.describe(&other))))
            }
        };
        let name = self.eat_ident()?;
        let mut superclass = None;
        if *self.peek() == Tok::Extends {
            self.advance();
            superclass = Some(self.eat_ident()?);
        }
        let mut interfaces = Vec::new();
        if *self.peek() == Tok::Implements {
            self.advance();
            interfaces.push(self.eat_ident()?);
            while *self.peek() == Tok::Comma {
                self.advance();
                interfaces.push(self.eat_ident()?);
            }
        }
        self.eat(&Tok::LBrace)?;
        let mut fields = Vec::new();
        let mut methods = Vec::new();
        while *self.peek() != Tok::RBrace {
            let mut is_static = false;
            if *self.peek() == Tok::Static {
                self.advance();
                is_static = true;
            }
            match self.peek() {
                Tok::FieldKw => {
                    self.advance();
                    let ty = self.parse_type()?;
                    let fname = self.eat_ident()?;
                    self.eat(&Tok::Semi)?;
                    fields.push(FieldDecl { name: fname, ty, is_static });
                }
                Tok::MethodKw => {
                    self.advance();
                    let mline = self.line();
                    let ret = self.parse_type()?;
                    let mname = self.eat_ident()?;
                    let params = self.param_list()?;
                    let body = if *self.peek() == Tok::Semi {
                        self.advance();
                        None
                    } else {
                        Some(self.block()?)
                    };
                    methods.push(MethodDecl {
                        name: mname,
                        params,
                        ret,
                        is_static,
                        body,
                        line: mline,
                    });
                }
                Tok::Ctor => {
                    self.advance();
                    let mline = self.line();
                    let params = self.param_list()?;
                    let body = Some(self.block()?);
                    methods.push(MethodDecl {
                        name: Sym::INIT,
                        params,
                        ret: TypeAst::Void,
                        is_static: false,
                        body,
                        line: mline,
                    });
                }
                other => {
                    return Err(self.err(format!(
                        "expected `field`, `method` or `ctor`, found {}",
                        self.describe(other)
                    )))
                }
            }
        }
        self.eat(&Tok::RBrace)?;
        Ok(ClassDecl {
            name,
            superclass,
            interfaces,
            is_interface,
            is_library,
            fields,
            methods,
            line,
        })
    }

    fn param_list(&mut self) -> Result<Vec<(TypeAst, Sym)>, ParseError> {
        self.eat(&Tok::LParen)?;
        let mut params = Vec::new();
        if *self.peek() != Tok::RParen {
            loop {
                let ty = self.parse_type()?;
                let name = self.eat_ident()?;
                params.push((ty, name));
                if *self.peek() == Tok::Comma {
                    self.advance();
                } else {
                    break;
                }
            }
        }
        self.eat(&Tok::RParen)?;
        Ok(params)
    }

    fn parse_type(&mut self) -> Result<TypeAst, ParseError> {
        let mut ty = match self.advance() {
            Tok::Void => TypeAst::Void,
            Tok::IntKw => TypeAst::Int,
            Tok::BooleanKw => TypeAst::Boolean,
            Tok::Ident(Sym::STRING) => TypeAst::Str,
            Tok::Ident(s) => TypeAst::Named(s),
            other => {
                return Err(self.err(format!("expected type, found {}", self.describe(&other))))
            }
        };
        while *self.peek() == Tok::LBracket && *self.peek_at(1) == Tok::RBracket {
            self.advance();
            self.advance();
            ty = TypeAst::Array(Box::new(ty));
        }
        Ok(ty)
    }

    // ---- statements ----

    fn block(&mut self) -> Result<Block, ParseError> {
        self.eat(&Tok::LBrace)?;
        let mut stmts = Vec::new();
        while *self.peek() != Tok::RBrace {
            self.stmt(&mut stmts)?;
        }
        self.eat(&Tok::RBrace)?;
        Ok(Block { stmts })
    }

    fn stmt(&mut self, out: &mut Vec<Stmt>) -> Result<(), ParseError> {
        match self.peek() {
            Tok::If => {
                self.advance();
                self.eat(&Tok::LParen)?;
                let cond = self.expr()?;
                self.eat(&Tok::RParen)?;
                let then_blk = self.block()?;
                let else_blk = if *self.peek() == Tok::Else {
                    self.advance();
                    if *self.peek() == Tok::If {
                        // else-if chain: wrap in a synthetic block.
                        let mut inner = Vec::new();
                        self.stmt(&mut inner)?;
                        Some(Block { stmts: inner })
                    } else {
                        Some(self.block()?)
                    }
                } else {
                    None
                };
                out.push(Stmt::If { cond, then_blk, else_blk });
            }
            Tok::While => {
                self.advance();
                self.eat(&Tok::LParen)?;
                let cond = self.expr()?;
                self.eat(&Tok::RParen)?;
                let body = self.block()?;
                out.push(Stmt::While { cond, body });
            }
            Tok::For => {
                // for (init; cond; update) { body }  ≡  init; while (cond) { body; update }
                self.advance();
                self.eat(&Tok::LParen)?;
                let mut init = Vec::new();
                if *self.peek() != Tok::Semi {
                    self.simple_stmt(&mut init)?;
                }
                self.eat(&Tok::Semi)?;
                let cond = self.expr()?;
                self.eat(&Tok::Semi)?;
                let mut update = Vec::new();
                if *self.peek() != Tok::RParen {
                    self.simple_stmt(&mut update)?;
                }
                self.eat(&Tok::RParen)?;
                let mut body = self.block()?;
                body.stmts.extend(update);
                out.extend(init);
                out.push(Stmt::While { cond, body });
            }
            Tok::Return => {
                let line = self.line();
                self.advance();
                let value = if *self.peek() == Tok::Semi { None } else { Some(self.expr()?) };
                self.eat(&Tok::Semi)?;
                out.push(Stmt::Return(value, line));
            }
            Tok::Throw => {
                let line = self.line();
                self.advance();
                let e = self.expr()?;
                self.eat(&Tok::Semi)?;
                out.push(Stmt::Throw(e, line));
            }
            Tok::Try => {
                self.advance();
                let body = self.block()?;
                self.eat(&Tok::Catch)?;
                self.eat(&Tok::LParen)?;
                let catch_class = self.eat_ident()?;
                let catch_name = self.eat_ident()?;
                self.eat(&Tok::RParen)?;
                let handler = self.block()?;
                out.push(Stmt::Try { body, catch_class, catch_name, handler });
            }
            _ => {
                self.simple_stmt(out)?;
                self.eat(&Tok::Semi)?;
            }
        }
        Ok(())
    }

    /// Parses a declaration, assignment, or expression statement (without
    /// the trailing semicolon); used by both `stmt` and `for` headers.
    fn simple_stmt(&mut self, out: &mut Vec<Stmt>) -> Result<(), ParseError> {
        let line = self.line();
        if self.looks_like_decl() {
            let ty = self.parse_type()?;
            let name = self.eat_ident()?;
            let init = if *self.peek() == Tok::Assign {
                self.advance();
                Some(self.expr()?)
            } else {
                None
            };
            out.push(Stmt::VarDecl { ty, name, init, line });
            return Ok(());
        }
        let e = self.expr()?;
        if *self.peek() == Tok::Assign {
            self.advance();
            let rhs = self.expr()?;
            let lhs = match e {
                Expr::Var(name, _) => LValue::Var(name),
                Expr::Field { base, name, .. } => LValue::Field { base: *base, name },
                Expr::Index { base, index } => LValue::Index { base: *base, index: *index },
                other => {
                    return Err(self.err(format!(
                        "invalid assignment target: {:?}",
                        WithNames(&other, &self.names)
                    )))
                }
            };
            out.push(Stmt::Assign { lhs, rhs, line });
        } else {
            out.push(Stmt::Expr(e));
        }
        Ok(())
    }

    /// Lookahead: does the upcoming token sequence start a variable
    /// declaration (`Type name …`)?
    fn looks_like_decl(&self) -> bool {
        match self.peek() {
            Tok::IntKw | Tok::BooleanKw | Tok::Void => true,
            Tok::Ident(_) => {
                // `Foo x` or `Foo[] x`
                let mut off = 1;
                while *self.peek_at(off) == Tok::LBracket && *self.peek_at(off + 1) == Tok::RBracket
                {
                    off += 2;
                }
                matches!(self.peek_at(off), Tok::Ident(_))
            }
            _ => false,
        }
    }

    // ---- expressions ----

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.binary_expr(0)
    }

    /// The binary operator at the current token and its precedence,
    /// loosest first.
    fn binary_op(&self) -> Option<(AstBinOp, u8)> {
        Some(match self.peek() {
            Tok::OrOr => (AstBinOp::OrOr, 1),
            Tok::AndAnd => (AstBinOp::AndAnd, 2),
            Tok::EqEq => (AstBinOp::EqEq, 3),
            Tok::NotEq => (AstBinOp::NotEq, 3),
            Tok::Lt => (AstBinOp::Lt, 4),
            Tok::Gt => (AstBinOp::Gt, 4),
            Tok::Plus => (AstBinOp::Plus, 5),
            Tok::Minus => (AstBinOp::Minus, 5),
            Tok::Star => (AstBinOp::Star, 6),
            _ => return None,
        })
    }

    /// Precedence climbing: an operand followed by every operator that
    /// binds tighter than `min`. Each right operand climbs from its
    /// operator's own precedence, so operators of equal precedence
    /// associate to the left.
    fn binary_expr(&mut self, min: u8) -> Result<Expr, ParseError> {
        let mut e = self.unary_expr()?;
        while let Some((op, prec)) = self.binary_op() {
            if prec <= min {
                break;
            }
            self.advance();
            let r = self.binary_expr(prec)?;
            e = Expr::Binary { op, lhs: Box::new(e), rhs: Box::new(r) };
        }
        Ok(e)
    }

    fn unary_expr(&mut self) -> Result<Expr, ParseError> {
        if *self.peek() == Tok::Bang {
            self.advance();
            return Ok(Expr::Not(Box::new(self.unary_expr()?)));
        }
        if self.looks_like_cast() {
            let line = self.line();
            self.eat(&Tok::LParen)?;
            let ty = self.parse_type()?;
            self.eat(&Tok::RParen)?;
            let operand = self.unary_expr()?;
            return Ok(Expr::Cast { ty, expr: Box::new(operand), line });
        }
        self.postfix_expr()
    }

    /// Heuristic cast detection: `( TypeName [..] )` followed by a token
    /// that can start an expression. `(x) + 1` therefore parses as a
    /// parenthesized variable, while `(Foo) x` parses as a cast.
    fn looks_like_cast(&self) -> bool {
        if *self.peek() != Tok::LParen {
            return false;
        }
        let mut off = 1;
        match self.peek_at(off) {
            Tok::Ident(_) | Tok::IntKw | Tok::BooleanKw => off += 1,
            _ => return false,
        }
        while *self.peek_at(off) == Tok::LBracket && *self.peek_at(off + 1) == Tok::RBracket {
            off += 2;
        }
        if *self.peek_at(off) != Tok::RParen {
            return false;
        }
        matches!(
            self.peek_at(off + 1),
            Tok::Ident(_)
                | Tok::Int(_)
                | Tok::Str(_)
                | Tok::This
                | Tok::New
                | Tok::LParen
                | Tok::Null
        )
    }

    fn postfix_expr(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.primary_expr()?;
        loop {
            match self.peek() {
                Tok::Dot => {
                    self.advance();
                    let line = self.line();
                    let name = self.eat_ident()?;
                    if *self.peek() == Tok::LParen {
                        let args = self.arg_list()?;
                        e = Expr::Call { base: Some(Box::new(e)), name, args, line };
                    } else {
                        e = Expr::Field { base: Box::new(e), name, line };
                    }
                }
                Tok::LBracket => {
                    self.advance();
                    let idx = self.expr()?;
                    self.eat(&Tok::RBracket)?;
                    e = Expr::Index { base: Box::new(e), index: Box::new(idx) };
                }
                _ => break,
            }
        }
        Ok(e)
    }

    fn arg_list(&mut self) -> Result<Vec<Expr>, ParseError> {
        self.eat(&Tok::LParen)?;
        let mut args = Vec::new();
        if *self.peek() != Tok::RParen {
            loop {
                args.push(self.expr()?);
                if *self.peek() == Tok::Comma {
                    self.advance();
                } else {
                    break;
                }
            }
        }
        self.eat(&Tok::RParen)?;
        Ok(args)
    }

    fn primary_expr(&mut self) -> Result<Expr, ParseError> {
        let line = self.line();
        match self.advance() {
            Tok::Int(n) => Ok(Expr::Int(n)),
            Tok::Str(s) => Ok(Expr::Str(s)),
            Tok::True => Ok(Expr::Bool(true)),
            Tok::False => Ok(Expr::Bool(false)),
            Tok::Null => Ok(Expr::Null),
            Tok::This => Ok(Expr::This(line)),
            Tok::Ident(name) => {
                if *self.peek() == Tok::LParen {
                    let args = self.arg_list()?;
                    Ok(Expr::Call { base: None, name, args, line })
                } else {
                    Ok(Expr::Var(name, line))
                }
            }
            Tok::LParen => {
                let e = self.expr()?;
                self.eat(&Tok::RParen)?;
                Ok(e)
            }
            Tok::New => {
                // `new C(args)` | `new T[n]` | `new T[] { e, … }`
                let ty = self.parse_type_no_array()?;
                if *self.peek() == Tok::LParen {
                    let class = match ty {
                        TypeAst::Named(n) => n,
                        TypeAst::Str => Sym::STRING,
                        other => {
                            return Err(
                                self.err(format!("cannot construct non-class type {other:?}"))
                            )
                        }
                    };
                    let args = self.arg_list()?;
                    Ok(Expr::New { class, args, line })
                } else if *self.peek() == Tok::LBracket {
                    self.advance();
                    if *self.peek() == Tok::RBracket {
                        self.advance();
                        // `new T[] { … }`
                        self.eat(&Tok::LBrace)?;
                        let mut init = Vec::new();
                        if *self.peek() != Tok::RBrace {
                            loop {
                                init.push(self.expr()?);
                                if *self.peek() == Tok::Comma {
                                    self.advance();
                                } else {
                                    break;
                                }
                            }
                        }
                        self.eat(&Tok::RBrace)?;
                        Ok(Expr::NewArray { elem: ty, init, line })
                    } else {
                        let _len = self.expr()?;
                        self.eat(&Tok::RBracket)?;
                        Ok(Expr::NewArray { elem: ty, init: vec![], line })
                    }
                } else {
                    Err(self.err("expected `(` or `[` after `new T`".into()))
                }
            }
            other => Err(ParseError {
                msg: format!("expected expression, found {}", self.describe(&other)),
                line,
                col: 0,
            }),
        }
    }

    fn parse_type_no_array(&mut self) -> Result<TypeAst, ParseError> {
        match self.advance() {
            Tok::IntKw => Ok(TypeAst::Int),
            Tok::BooleanKw => Ok(TypeAst::Boolean),
            Tok::Ident(Sym::STRING) => Ok(TypeAst::Str),
            Tok::Ident(s) => Ok(TypeAst::Named(s)),
            other => Err(self.err(format!("expected type, found {}", self.describe(&other)))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_class_with_members() {
        let ast = parse(
            r#"
            class Foo extends Bar implements Baz, Qux {
                field String name;
                static field int count;
                ctor (String n) { this.name = n; }
                method String getName() { return this.name; }
                method void abstractish();
            }
            "#,
        )
        .unwrap();
        assert_eq!(ast.classes.len(), 1);
        let c = &ast.classes[0];
        let text = |s| ast.names.text(s);
        assert_eq!(c.superclass.map(text), Some("Bar"));
        assert_eq!(c.interfaces.iter().map(|&i| text(i)).collect::<Vec<_>>(), ["Baz", "Qux"]);
        assert_eq!(c.fields.len(), 2);
        assert!(c.fields[1].is_static);
        assert_eq!(c.methods.len(), 3);
        assert_eq!(c.methods[0].name, Sym::INIT);
        assert_eq!(text(c.methods[2].name), "abstractish");
        assert!(c.methods[2].body.is_none());
    }

    #[test]
    fn parses_control_flow() {
        let ast = parse(
            r#"
            class C {
                method int f(int x) {
                    int y = 0;
                    while (x > 0) { y = y + x; x = x - 1; }
                    if (y == 0) { return 1; } else { return y; }
                }
            }
            "#,
        )
        .unwrap();
        let m = &ast.classes[0].methods[0];
        let b = m.body.as_ref().unwrap();
        assert!(matches!(b.stmts[0], Stmt::VarDecl { .. }));
        assert!(matches!(b.stmts[1], Stmt::While { .. }));
        assert!(matches!(b.stmts[2], Stmt::If { .. }));
    }

    #[test]
    fn for_desugars_to_while() {
        let ast = parse(
            r#"
            class C {
                method void f() {
                    for (int i = 0; i < 10; i = i + 1) { this.g(i); }
                }
                method void g(int i) { }
            }
            "#,
        )
        .unwrap();
        let b = ast.classes[0].methods[0].body.as_ref().unwrap();
        assert!(matches!(b.stmts[0], Stmt::VarDecl { .. }), "init hoisted");
        match &b.stmts[1] {
            Stmt::While { body, .. } => {
                assert!(
                    matches!(body.stmts.last(), Some(Stmt::Assign { .. })),
                    "update appended to loop body"
                );
            }
            other => panic!("expected while, got {other:?}"),
        }
    }

    #[test]
    fn cast_vs_paren() {
        let ast = parse(
            r#"
            class C {
                method void f(Object o) {
                    Widget w = (Widget) o;
                }
            }
            "#,
        )
        .unwrap();
        let b = ast.classes[0].methods[0].body.as_ref().unwrap();
        match &b.stmts[0] {
            Stmt::VarDecl { init: Some(Expr::Cast { ty: TypeAst::Named(s), .. }), .. } => {
                assert_eq!(ast.names.text(*s), "Widget");
            }
            other => panic!("expected cast initializer, got {other:?}"),
        }
    }

    #[test]
    fn array_literal() {
        let ast = parse(
            r#"
            class C {
                method Object[] f(Object a) {
                    return new Object[] { a };
                }
            }
            "#,
        )
        .unwrap();
        let b = ast.classes[0].methods[0].body.as_ref().unwrap();
        match &b.stmts[0] {
            Stmt::Return(Some(Expr::NewArray { init, .. }), _) => assert_eq!(init.len(), 1),
            other => panic!("expected array literal return, got {other:?}"),
        }
    }

    #[test]
    fn try_catch_throw() {
        let ast = parse(
            r#"
            class C {
                method void f() {
                    try { this.g(); } catch (Exception e) { throw e; }
                }
                method void g() { }
            }
            "#,
        )
        .unwrap();
        let b = ast.classes[0].methods[0].body.as_ref().unwrap();
        match &b.stmts[0] {
            Stmt::Try { catch_class, catch_name, handler, .. } => {
                assert_eq!(ast.names.text(*catch_class), "Exception");
                assert_eq!(ast.names.text(*catch_name), "e");
                assert!(matches!(handler.stmts[0], Stmt::Throw(..)));
            }
            other => panic!("expected try, got {other:?}"),
        }
    }

    #[test]
    fn library_modifier() {
        let ast = parse("library class L { }").unwrap();
        assert!(ast.classes[0].is_library);
    }

    #[test]
    fn error_reports_position() {
        let err = parse("class { }").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.msg.contains("identifier"));
    }

    #[test]
    fn chained_calls_and_fields() {
        let ast = parse(
            r#"
            class C {
                method void f(Req r, Resp p) {
                    p.getWriter().println(r.getParameter("x"));
                }
            }
            "#,
        )
        .unwrap();
        let b = ast.classes[0].methods[0].body.as_ref().unwrap();
        match &b.stmts[0] {
            Stmt::Expr(Expr::Call { name, base: Some(inner), .. }) => {
                assert_eq!(ast.names.text(*name), "println");
                assert!(matches!(**inner, Expr::Call { .. }));
            }
            other => panic!("expected chained call, got {other:?}"),
        }
    }
}
