//! # taj-sdg — phase 2 of TAJ: dependence graphs and thin slicing
//!
//! Implements the slicing layer of *TAJ: Effective Taint Analysis of Web
//! Applications* (PLDI 2009):
//!
//! - [`hybrid`] — **hybrid thin slicing** (§3.2), the paper's novel
//!   algorithm: flow/context-sensitive propagation through locals (RHS
//!   tabulation over the no-heap SDG, realized as endpoint summaries) plus
//!   flow-insensitive direct store→load heap edges from the phase-1
//!   points-to solution;
//! - [`ci`] — context-insensitive thin slicing (baseline);
//! - [`ifds`] — an independent IFDS formulation (Reps–Horwitz–Sagiv
//!   tabulation over access-path facts with a configurable depth bound),
//!   used by the three-way differential harness as a cross-check;
//! - [`cs`] — context-sensitive thin slicing with heap-through-calls
//!   propagation, a deterministic memory budget standing in for the
//!   paper's out-of-memory runs, and the multithreading unsoundness the
//!   paper observes;
//! - [`view`] — the rule-independent slice index (def-use, loads, call
//!   plumbing) built once per pass, and each rule's thin view on top;
//! - `kernel` (crate-private) — what the four slicers share: the RHS
//!   endpoint summary table (hybrid and IFDS), per-seed traversal state
//!   and witness paths, flow emission, and the seed loop;
//! - [`spec`] — rule projections in, tainted [`spec::Flow`]s out, and the
//!   §6.2 bounds.
//!
//! The four slicers expose the same interface so the taint-analysis
//! driver (crate `taj-core`) can swap them per configuration (Table 1).

#![warn(missing_docs)]

pub mod ci;
pub mod cs;
pub mod hybrid;
pub mod ifds;
mod kernel;
pub mod mhp;
pub mod spec;
pub mod view;

pub use ci::{CiCache, CiSlicer};
pub use cs::CsSlicer;
pub use hybrid::HybridSlicer;
pub use ifds::{ApFields, IfdsAliases, IfdsSlicer};
pub use mhp::MhpRelation;
pub use spec::{
    CarrierSink, Flow, FlowStep, SliceBounds, SliceError, SliceResult, SliceSpec, StepKind,
    StmtNode,
};
pub use view::{CallSite, FieldKey, LoadStmt, ProgramView, SliceIndex, SourceCall, Use, ViewStats};
