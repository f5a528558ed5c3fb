//! # epa-bench — the reproduction harness
//!
//! One runner per table, figure and case study of the paper, shared by the
//! `reproduce` binary and the integration tests. Every runner returns a
//! structured result plus a printable rendering in the paper's layout, so
//! `cargo run -p epa-bench --bin reproduce -- all` regenerates the whole
//! evaluation section.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cli;
pub mod experiments;

pub use experiments::*;
