//! pe-flow: dataflow analysis over S₀ residual programs.
//!
//! The specializer's output language S₀ (defined here, in
//! [`s0`], and re-exported by pe-core) is first-order and
//! tail-recursive: procedures bind only at entry, bodies are acyclic
//! trees of conditionals, and loops are inter-procedural tail calls.
//! That makes it an ideal target for classic dataflow analysis — and
//! this crate provides the framework plus the analyses the rest of the
//! pipeline builds on:
//!
//! * [`cfg`](mod@cfg) — explicit per-procedure control-flow graphs;
//! * [`solver`] — a generic worklist fixpoint solver, governed by the
//!   same [`pe_governor`] fuel discipline as the rest of the pipeline;
//! * [`liveness`] — per-point liveness and the interprocedural
//!   parameter-liveness fixpoint;
//! * [`constprop`] — interprocedural copy/constant propagation;
//! * [`slots`] — closure-shape analysis: slot usage, escape pinning,
//!   dispatch-arm decidability;
//! * [`opt`] — the residual optimizer: Unmix-style syntactic
//!   post-processing ([`postprocess`]) plus the flow passes
//!   ([`optimize`]);
//! * [`check`](mod@check) — flow-based verification lints (definite binding,
//!   dispatch-arm reachability, dead closure slots).
//!
//! The crate sits *below* pe-core: the specializer post-processes and
//! verifies through these analyses — `pe_core::run` times
//! [`postprocess`] and [`optimize`] under its `post` and `flow` spans and
//! attributes that time to residual procedures with
//! [`S0Program::attribute_by_size`](s0::S0Program::attribute_by_size) —
//! and pe-core re-exports [`s0`] and
//! [`opt`] under their historical paths (`pe_core::s0`,
//! `pe_core::post`).

pub mod cfg;
pub mod check;
pub mod constprop;
pub mod liveness;
pub mod opt;
pub mod s0;
pub mod slots;
pub mod solver;

pub use check::{check, FlowDiag, FlowSeverity};
pub use opt::{optimize, optimize_with, postprocess, FlowOptions, FlowStats};
pub use solver::{solve, Analysis, Direction};
