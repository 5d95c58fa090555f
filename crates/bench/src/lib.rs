//! # cvg-bench
//!
//! Experiment harness for the EDBT 2024 coverage reproduction: one binary
//! per table/figure of the paper (indexed in `docs/ARCHITECTURE.md`, "Where
//! the paper's artifacts are reproduced"), plus three timing gates under
//! `benches/` (`daemon`, `http_plane`, `fleet`), each a plain `fn main`
//! that asserts its bound.

#![forbid(unsafe_code)]

pub mod scenarios;
pub mod table;

pub use table::TablePrinter;
