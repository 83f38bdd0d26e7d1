//! `perfbench`: one benchmark for the uniform k-partition reproduction.
//!
//! Four workloads, each run in its own process by the `perfbench`
//! binary:
//!
//! * [`giant`] — k=8, n=10⁵ batch-kernel trials, each to the
//!   certified stable signature (engine only);
//! * [`sweep`] — the union of the `fig3` and `fig6` plans at 100 trials
//!   per cell: a cold pass into a fresh store, then warm passes against
//!   the reopened store (lint gate, runner, store, reports);
//! * [`serve`] — pp-serve in process, driven over HTTP by two
//!   closed-loop clients with a seeded mix of hits, misses, concurrent
//!   duplicates and multi-cell requests;
//! * [`verify`] — exhaustive configuration-graph exploration and
//!   terminal-SCC verification at n=30 for k=4,5,6, plus a hitting-time
//!   solve.
//!
//! Every workload drives the program through public interfaces only.
//! The untraced run measures end-to-end metrics; the traced run
//! (`--trace 1`) reruns the same inputs with benchmark-side observers,
//! store decorators and registry deltas attached and reports per-layer
//! metrics. Nothing inside the program is instrumented for the
//! benchmark.

#![forbid(unsafe_code)]

pub mod env;
pub mod giant;
pub mod jsonlite;
pub mod report;
pub mod serve;
pub mod spans;
pub mod stats;
pub mod sweep;
pub mod timing;
pub mod verify;

use std::path::PathBuf;

/// Problem size: the benchmark proper, or a seconds-long toy version
/// of the same workload for the benchmark's own tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark reports on.
    Full,
    /// Tiny inputs exercising the same code paths.
    Toy,
}

/// Everything a workload needs to run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Measured seconds (the timed loop stops starting new tasks once
    /// the next one would overrun this).
    pub seconds: f64,
    /// Attach observers and decorators, report per-layer metrics.
    pub trace: bool,
    /// Problem size.
    pub scale: Scale,
    /// Fresh scratch directory owned by this run.
    pub tmp: PathBuf,
}

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["giant-n", "paper-sweep", "serve-mix", "verify-envelope"];

/// Median seconds to compile the k-partition protocol for `k` (the
/// `protocols.compile_s` layer metric).
pub fn compile_s(k: usize) -> f64 {
    env::median_time(|| {
        std::hint::black_box(pp_protocols::kpartition::UniformKPartition::new(k).compile());
    })
}

/// Seconds of `cfg.seconds` left since `start`.
pub fn remaining(cfg: &RunConfig, start: std::time::Instant) -> f64 {
    cfg.seconds - start.elapsed().as_secs_f64()
}

/// Run the named workload.
pub fn run_workload(name: &str, cfg: &RunConfig) -> Result<report::Outcome, String> {
    match name {
        "giant-n" => Ok(giant::run(cfg)),
        "paper-sweep" => sweep::run(cfg),
        "serve-mix" => serve::run(cfg),
        "verify-envelope" => Ok(verify::run(cfg)),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}
