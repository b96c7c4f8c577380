//! # taj-pointer — phase 1 of TAJ: pointer analysis & call graph
//!
//! A context-sensitive variant of Andersen's analysis with on-the-fly
//! call-graph construction, reproducing §3.1 of *TAJ: Effective Taint
//! Analysis of Web Applications* (PLDI 2009):
//!
//! - **1-object-sensitivity** for ordinary instance methods;
//! - **1-call-string** contexts for library factories and taint APIs;
//! - **field sensitivity** and SSA-based flow sensitivity for locals;
//! - **collection cloning** (unlimited-depth object sensitivity for
//!   collections, realized via per-context heap cloning on top of the
//!   model expansion from [`jir::expand`]);
//! - **reflection resolution** for constant `Class.forName` /
//!   `getMethod(s)` / `Method.invoke` chains (§4.2.3);
//! - **priority-driven bounded construction** under a node budget (§6.1).
//!
//! ```
//! use taj_pointer::{analyze, SolverConfig};
//!
//! let src = r#"
//!     class Main {
//!         static method void main() {
//!             Object o = new Object();
//!         }
//!     }
//! "#;
//! let mut program = jir::frontend::build_program(src)?;
//! let main_class = program.class_by_name("Main").unwrap();
//! program.entrypoints.push(program.method_by_name(main_class, "main").unwrap());
//! let result = analyze(&program, &SolverConfig::default());
//! assert!(result.stats.nodes >= 1);
//! # Ok::<(), jir::parser::ParseError>(())
//! ```

#![warn(missing_docs)]

pub mod callgraph;
pub mod context;
pub mod escape;
pub mod heapgraph;
pub mod keys;
pub mod priority;
pub mod solver;

pub use callgraph::{CGNodeId, CallEdge, CallGraph};
pub use context::{ContextElem, ContextId, PolicyConfig, ROOT_CONTEXT};
pub use escape::{spawn_edges, EscapeAnalysis, SpawnEdge};
pub use heapgraph::HeapGraph;
pub use keys::{InstanceKey, InstanceKeyId, PointerKey, PointerKeyId, Site};
pub use solver::{analyze, analyze_traced, InvokeBinding, PointsTo, SolverConfig, SolverStats};
