//! # taj-core — TAJ: Taint Analysis for Java(-like programs), in Rust
//!
//! The top of the `taj-rs` workspace: a faithful reproduction of *TAJ:
//! Effective Taint Analysis of Web Applications* (Tripp, Pistoia, Fink,
//! Sridharan, Weisman — PLDI 2009). It wires together:
//!
//! - security [`rules`] `(sources, sanitizers, sinks)` per issue type (§3);
//! - the two-phase [`driver`]: pointer analysis & call graph
//!   (crate `taj-pointer`, §3.1) followed by hybrid/CI/CS thin slicing
//!   (crate `taj-sdg`, §3.2);
//! - code modeling: taint [`carriers`] (§4.1.1), [`exceptions`] (§4.1.2),
//!   and web-[`frameworks`] — servlet & Struts entrypoint synthesis and
//!   EJB deployment-descriptor modeling (§4.2.2);
//! - [`lcp`] report minimization (§5);
//! - the bounded-analysis [`config`]urations of Table 1 (§6);
//! - TP/FP [`scoring`] against generated ground truth (Figure 4).
//!
//! ## Quick start
//!
//! ```
//! use taj_core::{analyze_source, RuleSet, TajConfig};
//!
//! let report = analyze_source(
//!     r#"
//!     class Page extends HttpServlet {
//!         method void doGet(HttpServletRequest req, HttpServletResponse resp) {
//!             String name = req.getParameter("name");
//!             resp.getWriter().println(name); // reflected XSS
//!         }
//!     }
//!     "#,
//!     None,
//!     taj_core::RuleSet::default_rules(),
//!     &TajConfig::hybrid_unbounded(),
//! )?;
//! assert_eq!(report.issue_count(), 1);
//! # Ok::<(), taj_core::TajError>(())
//! ```

#![warn(missing_docs)]

pub mod carriers;
pub mod config;
pub mod driver;
pub mod exceptions;
pub mod frameworks;
pub mod lcp;
pub mod parallel;
pub mod report;
pub mod rulefile;
pub mod rules;
pub mod scoring;

pub use config::{Algorithm, TajConfig};
pub use driver::{
    analyze_prepared, analyze_prepared_opts, analyze_source, analyze_source_opts,
    analyze_with_phase1, analyze_with_phase1_opts, prepare, prepare_traced, run_phase1,
    run_phase1_supervised, run_phase1_traced, AnalysisStats, AnalyzedFlow, ConcurrencyReport,
    DegradationReport, DegradationStep, Phase1, PreparedProgram, RunOptions, TajError, TajFinding,
    TajReport,
};
pub use frameworks::{DeploymentDescriptor, EjbEntry};
pub use lcp::Finding;
pub use report::{concurrency_text, profile_text, to_sarif, to_text};
pub use rulefile::{parse_rules, RuleParseError};
pub use rules::{IssueType, MethodRef, ResolvedRule, RuleSet, SecurityRule};
pub use scoring::{score, GroundTruth, Score};
pub use taj_obs::Recorder;
pub use taj_supervise::{InterruptReason, Supervisor};
