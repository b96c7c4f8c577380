//! # jir — a Java-like IR for taint analysis
//!
//! This crate is the frontend substrate of the `taj-rs` workspace, a Rust
//! reproduction of *TAJ: Effective Taint Analysis of Web Applications*
//! (Tripp, Pistoia, Fink, Sridharan, Weisman — PLDI 2009). It provides:
//!
//! - a register-transfer IR with classes, fields, virtual dispatch, heap
//!   allocation, and exceptions ([`inst`], [`method`], [`program`]);
//! - CFG, dominator, and SSA machinery ([`mod@cfg`], [`dom`], [`ssa`]);
//! - a miniature Java-like source language, **jweb**, with a lexer, parser,
//!   and AST→IR lowering ([`lexer`], [`parser`], [`ast`], [`lower`]);
//! - an intrinsic model library standing in for the Java standard library
//!   and servlet/EE APIs ([`stdlib`]), and the model-expansion pass that
//!   rewrites container/builder intrinsics into plain loads and stores
//!   ([`expand`]), mirroring TAJ's synthetic models (§4.2 of the paper).
//!
//! ## Quick example
//!
//! ```
//! let src = r#"
//!     class Greeter {
//!         method String greet(String who) { return "hi " + who; }
//!     }
//! "#;
//! let mut program = jir::frontend::parse_program(src).expect("parses");
//! jir::ssa::program_to_ssa(&mut program);
//! let greeter = program.class_by_name("Greeter").unwrap();
//! assert!(program.method_by_name(greeter, "greet").is_some());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::or_fun_call)]

pub mod ast;
pub mod cfg;
pub mod class;
pub mod constprop;
pub mod dom;
pub mod expand;
pub mod inst;
pub mod lexer;
pub mod lower;
pub mod method;
pub mod parser;
pub mod pretty;
pub mod program;
pub mod ssa;
pub mod stdlib;
pub mod types;
pub mod util;
pub mod validate;

pub use class::{Class, ClassId, Field, FieldId, Selector, SelectorId};
pub use inst::{BinOp, BlockId, CallTarget, ConstValue, Filter, Inst, Loc, Terminator, Var};
pub use method::{BasicBlock, Body, Intrinsic, Method, MethodId, MethodKind};
pub use program::{Program, ProgramStats};
pub use types::{Type, TypeId, TypeTable};

/// End-to-end frontend entry points: source text → analysis-ready program.
pub mod frontend {
    use crate::program::Program;

    /// Parses jweb source on top of the intrinsic model library, lowers it
    /// to IR, and returns the program. Its own bodies are not yet in SSA
    /// form; the library's bodies arrive in SSA form, since the shared
    /// library is built that way once per process.
    ///
    /// # Errors
    /// Returns a [`crate::parser::ParseError`] describing the first syntax
    /// or resolution problem.
    pub fn parse_program(src: &str) -> Result<Program, crate::parser::ParseError> {
        let mut program = crate::stdlib::stdlib_program();
        let ast = crate::parser::parse(src)?;
        crate::lower::lower(&mut program, &ast)?;
        Ok(program)
    }

    /// Full pipeline used by the analyses: parse, lower, expand intrinsic
    /// models into loads/stores, convert to SSA.
    ///
    /// # Errors
    /// Returns a [`crate::parser::ParseError`] on any frontend failure.
    pub fn build_program(src: &str) -> Result<Program, crate::parser::ParseError> {
        let mut program = parse_program(src)?;
        crate::expand::expand_models(&mut program);
        crate::ssa::program_to_ssa(&mut program);
        Ok(program)
    }
}
