//! # pp-bench — experiment reproduction harness
//!
//! The paper's figures are reproduced by `pp-sweep run <plan>`. This crate
//! holds what is not a sweep plan: kernel measurement ([`kernelbench`]
//! and its `BENCH_engine.json` binary), the topology scan
//! ([`toposcan`]), the standalone `exact_vs_sim` check (see `src/bin/`),
//! and Criterion micro-benchmarks under `benches/`.

#![forbid(unsafe_code)]
#![deny(clippy::dbg_macro, clippy::todo)]

pub mod kernelbench;
pub mod toposcan;
