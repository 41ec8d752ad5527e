//! The frontend of the realistic-pe compiler suite.
//!
//! Implements the subject language of Sperber & Thiemann's *Realistic
//! Compilation by Partial Evaluation* (PLDI 1996):
//!
//! * [`ast`] — the surface syntax of Fig. 2 (higher-order recursion
//!   equations over a purely functional Scheme subset);
//! * [`parse`] — the scope- and arity-checking parser;
//! * [`dast`] — the desugared simple/serious tail form of Fig. 5;
//! * [`desugar`](mod@desugar) — the desugaring phase of §4.3;
//! * [`flow`] — the "simple equational flow analysis" of §4.2 used to
//!   restrict The Trick's dispatch, a monovariant 0CFA;
//! * [`gen_analysis`] — the offline generalization analysis of §4.5
//!   marking self-embedding lambdas and cons sites.

pub mod ast;
pub mod dast;
pub mod desugar;
pub mod flow;
pub mod gen_analysis;
pub mod parse;

pub use ast::{Constant, Definition, Expr, Label, Prim, Program};
pub use dast::{DDef, DLabel, DProgram, LamId, LambdaDef, ProcId, SimpleExpr, TailExpr, VarId};
pub use desugar::{desugar, DesugarError};
pub use flow::{FlowAnalysis, LamSet};
pub use gen_analysis::GenAnalysis;
pub use parse::{
    parse_program, parse_program_positioned, parse_source, parse_source_with, ParseError,
};
