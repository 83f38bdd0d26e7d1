//! # pp-analysis — experiment harness and statistics
//!
//! Everything between "a protocol and a simulator" and "the rows of the
//! paper's figures": deterministic parallel trial fan-out ([`runner`]),
//! streaming statistics ([`stats`]), the Figure 4 grouping-time
//! decomposition ([`grouping`]), growth-law fitting for the paper's
//! scaling claims ([`fit`]), and CSV/markdown emission ([`table`]).
//!
//! The paper's methodology (§5): for each data point, run 100 simulations
//! under the uniform random scheduler and report the mean number of
//! interactions to reach a stable configuration. [`runner::run_trials`]
//! reproduces exactly that, fanning [`runner::run_trial`] out over threads
//! with rayon — each trial's RNG is derived from `(master_seed,
//! trial_index)` so results are independent of thread interleaving and
//! bit-reproducible.

#![forbid(unsafe_code)]
#![deny(clippy::dbg_macro, clippy::todo, clippy::print_stdout)]
#![warn(missing_docs)]

pub mod config;
pub mod experiments;
pub mod fit;
pub mod grouping;
pub mod histogram;
pub mod runner;
pub mod stats;
pub mod table;
