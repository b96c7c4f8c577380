//! # taj-webgen — synthetic web-application benchmarks for taj-rs
//!
//! The paper evaluates TAJ on 22 industrial Java EE applications we cannot
//! obtain (several are anonymized IBM customer codes). This crate builds
//! the closest synthetic equivalent: a deterministic generator emitting
//! jweb web applications whose *relative* sizes track Table 2, seeded with
//! a pattern library whose per-configuration behaviour (true positives,
//! false positives, false negatives) is engineered to exercise exactly the
//! phenomena the paper's evaluation reports — see [`patterns`] for the map
//! from pattern to expected outcome, [`table2`] for the 22 presets, and
//! [`micro`] for the SecuriBench-Micro-style regression suite.

#![warn(missing_docs)]

pub mod edits;
pub mod generate;
pub mod interp;
pub mod micro;
pub mod patterns;
pub mod securibench;
pub mod table2;

pub use edits::{apply_edit, EditKind, EDIT_KINDS};
pub use generate::{generate, standard_mix, BenchmarkSpec, GenStats, GeneratedBenchmark};
pub use interp::{run_program, DynHit, InterpConfig};
pub use micro::{micro_suite, motivating, MicroTest};
pub use patterns::Pattern;
pub use securibench::{cases as securibench_cases, joined as securibench_joined, SecuriCase};
pub use table2::{presets, BenchmarkPreset, Scale};
