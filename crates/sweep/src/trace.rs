//! Per-cell execution traces: `pp-sweep run --trace <glob>`.
//!
//! Tracing a cell records **trial 0** of that cell — same protocol, same
//! derived seed, same kernel, same budget as the trial the store holds —
//! through a [`pp_trace::TraceRecorder`] and writes the sealed stream to
//! `<store>/<stem>.trace`, next to the cell's content-addressed result.
//! Because trial 0's seed is a pure function of the spec, the trace can
//! be (re)captured at any time, including on a cache hit, and always
//! describes the exact run whose record sits in `<stem>.json`. Cells
//! with a non-default `dynamics` block are recorded through the same
//! agent-based loop their trials execute on (see
//! [`record_dynamics_trial0`]), lifecycle events included — never
//! silently re-simulated on the complete-graph kernels.
//!
//! Captured traces feed the telemetry export: record/byte totals for
//! every traced cell, plus per-rule firings and chain-lifecycle totals
//! for k-partition cells (see [`pp_trace::export`]). `pp-sweep status`
//! reports which cells have traces; `pp-sweep gc` keeps them alive.

use std::path::PathBuf;

use pp_engine::population::{CountPopulation, Population};
use pp_engine::scheduler::UniformRandomScheduler;
use pp_engine::seeds;
use pp_engine::simulator::{RunError, Simulator};
use pp_engine::Kernel;
use pp_trace::{Trace, TraceKernel, TraceRecorder};

use crate::spec::{CellMode, CellSpec, MaterializedCell, ProtocolId};
use crate::store::ResultStore;

/// Match a shell-style glob (`*` = any run, `?` = any one char) against a
/// full name. Hand-rolled (two-pointer with star backtracking) so the
/// sweep stays dependency-free.
pub fn glob_match(pattern: &str, name: &str) -> bool {
    let p: Vec<char> = pattern.chars().collect();
    let s: Vec<char> = name.chars().collect();
    let (mut pi, mut si) = (0usize, 0usize);
    let mut star: Option<(usize, usize)> = None; // (pattern pos after *, name pos it matched to)
    while si < s.len() {
        if pi < p.len() && (p[pi] == '?' || p[pi] == s[si]) {
            pi += 1;
            si += 1;
        } else if pi < p.len() && p[pi] == '*' {
            star = Some((pi + 1, si));
            pi += 1;
        } else if let Some((sp, mark)) = star {
            // Extend the last * by one more character and retry.
            star = Some((sp, mark + 1));
            pi = sp;
            si = mark + 1;
        } else {
            return false;
        }
    }
    p[pi..].iter().all(|&c| c == '*')
}

/// Where a cell's trace lives: `<store>/<stem>.trace` for
/// directory-backed stores; for mem/log backends (which have no store
/// directory) traces land under `<results>/traces/` instead.
pub fn trace_path(store: &ResultStore, spec: &CellSpec) -> PathBuf {
    let dir = match store.fs_dir() {
        Some(d) => d.to_path_buf(),
        None => pp_analysis::config::results_dir().join("traces"),
    };
    dir.join(format!("{}.trace", spec.file_stem()))
}

/// What tracing one cell produced.
#[derive(Clone, Debug)]
pub struct CellTrace {
    /// The cell's store file stem.
    pub stem: String,
    /// Where the trace was written (or found).
    pub path: PathBuf,
    /// Whether this call recorded the trace (false: reused on disk).
    pub fresh: bool,
    /// Sealed trace size in bytes.
    pub bytes: u64,
    /// Effective interactions in the trace.
    pub effective: u64,
}

/// The seed trial 0 of a cell runs with — the same derivation
/// [`crate::exec::run_one_trial`] uses, so the trace describes exactly
/// the trial the store holds.
fn trial0_seed(spec: &CellSpec) -> u64 {
    match spec.mode {
        CellMode::Trajectory { .. } => spec.seed,
        _ => seeds::derive(spec.seed, 0),
    }
}

/// Record trial 0 of a cell whose `dynamics` block is non-default
/// (restricted topology, skewed/adversarial edge scheduler, or churn).
/// Those trials execute through the agent-based loop in [`pp_topo`], not
/// the count-vector kernels, so the trace is captured through the same
/// loop with the same seed — lifecycle events included — and describes
/// exactly the run the store holds. The header is tagged
/// [`TraceKernel::Naive`]: the dynamics loop is interaction-granular
/// like the naive kernel, and the trace decodes, replays, and
/// classifies like any other. (Only `pp-trace verify`'s live re-run,
/// which assumes the complete-graph kernels, does not apply here.)
fn record_dynamics_trial0(spec: &CellSpec, cell: &MaterializedCell, seed: u64) -> Vec<u8> {
    let pop = CountPopulation::new(&cell.proto, spec.n);
    let mut rec = TraceRecorder::for_run(&cell.proto, &pop, seed, TraceKernel::Naive);
    let outcome = pp_topo::run_dynamics(
        &cell.proto,
        spec.n as usize,
        &spec.dynamics,
        &cell.criterion,
        spec.budget,
        seed,
        &mut rec,
    )
    .unwrap_or_else(|e| panic!("dynamics trace of {} failed: {e}", spec.file_stem()));
    rec.finish(&outcome.final_counts)
}

/// The kernel trial 0 of a cell on `kernel` is traced (and its timeline
/// probed) on. The batch kernel fires whole leaps in bulk and so has no
/// interaction-granular event stream to record: a batch cell is traced
/// on the exact leap kernel instead, a faithful exact execution of the
/// same cell seed — a diagnostic stand-in rather than a replay of the
/// stored (bounded-error) batch trial.
pub(crate) fn trace_kernel(kernel: Kernel) -> TraceKernel {
    match kernel {
        Kernel::Naive => TraceKernel::Naive,
        Kernel::Leap | Kernel::Batch => TraceKernel::Leap,
    }
}

/// Record trial 0 of `spec` and return the sealed trace bytes.
fn record_trial0(spec: &CellSpec) -> Vec<u8> {
    let cell = spec.materialize();
    let seed = trial0_seed(spec);
    if !spec.dynamics.is_default() {
        return record_dynamics_trial0(spec, &cell, seed);
    }
    let kernel = trace_kernel(spec.kernel);
    let mut pop = CountPopulation::new(&cell.proto, spec.n);
    let mut sched = UniformRandomScheduler::from_seed(seed);
    let mut rec = TraceRecorder::for_run(&cell.proto, &pop, seed, kernel);
    let outcome = Simulator::new(&cell.proto).run_kernel(
        kernel.kernel(),
        &mut pop,
        &mut sched,
        &cell.criterion,
        spec.budget,
        &mut rec,
    );
    match outcome {
        Ok(_) | Err(RunError::InteractionLimit { .. }) => {}
        Err(e) => panic!("trace trial failed: {e}"),
    }
    rec.finish(pop.counts())
}

/// Trace one cell: reuse `<stem>.trace` if present (it is content-addressed
/// by the stem, like the result it sits next to), otherwise record trial 0
/// and write it atomically. Either way, decode the trace and export its
/// telemetry series — per-rule firings and chain-lifecycle totals when the
/// cell runs the paper's k-partition protocol.
pub fn trace_cell(spec: &CellSpec, store: &ResultStore) -> Result<CellTrace, String> {
    let path = trace_path(store, spec);
    let (bytes, fresh) = match std::fs::read(&path) {
        Ok(b) => (b, false),
        Err(_) => {
            let b = record_trial0(spec);
            pp_trace::cli::write_atomic(&path, &b)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            (b, true)
        }
    };
    let trace = Trace::decode(&bytes).map_err(|e| format!("{}: {e}", path.display()))?;
    let reg = pp_telemetry::global();
    pp_trace::export::export_trace_stats(reg, &trace, bytes.len());
    if matches!(spec.protocol, ProtocolId::UniformKPartition { .. }) {
        let diag = pp_trace::classify(&trace).map_err(|e| format!("{}: {e}", path.display()))?;
        pp_trace::export::export_diagnostics(reg, &diag);
    }
    Ok(CellTrace {
        stem: spec.file_stem(),
        path,
        fresh,
        bytes: bytes.len() as u64,
        effective: trace.effective_len(),
    })
}

/// Trace every cell whose file stem matches `glob` (deduplicated —
/// plans can share cells). Returns the traced cells in input order.
pub fn trace_matching(
    cells: &[CellSpec],
    store: &ResultStore,
    glob: &str,
) -> Result<Vec<CellTrace>, String> {
    let mut seen = std::collections::HashSet::new();
    let mut traced = Vec::new();
    for spec in cells {
        let stem = spec.file_stem();
        if glob_match(glob, &stem) && seen.insert(stem) {
            traced.push(trace_cell(spec, store)?);
        }
    }
    Ok(traced)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CriterionKind;

    fn temp_store(tag: &str) -> ResultStore {
        let dir = std::env::temp_dir().join(format!("pp_sweep_trace_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ResultStore::at(dir)
    }

    fn ukp_spec(kernel: Kernel) -> CellSpec {
        CellSpec {
            protocol: ProtocolId::UniformKPartition { k: 3 },
            n: 12,
            trials: 4,
            seed: 41,
            criterion: CriterionKind::Stable,
            budget: 10_000_000,
            mode: CellMode::Summary,
            kernel,
            dynamics: pp_topo::Dynamics::default_dynamics(),
        }
    }

    #[test]
    fn glob_match_covers_star_and_question() {
        assert!(glob_match("*", "anything"));
        assert!(glob_match("ukp-*", "ukp-k4-n96-abc"));
        assert!(glob_match("*-n96-*", "ukp-k4-n96-abc"));
        assert!(glob_match("ukp-k?-n12-*", "ukp-k3-n12-0123456789abcdef"));
        assert!(!glob_match("ukp-*", "basic-k4-n96-abc"));
        assert!(!glob_match("ukp", "ukp-k4"));
        assert!(!glob_match("?", ""));
        assert!(glob_match("**", ""));
        assert!(glob_match("a*b*c", "a-x-b-y-c"));
        assert!(!glob_match("a*b*c", "a-x-b-y"));
    }

    #[test]
    fn trace_matches_stored_trial0_and_verifies() {
        for kernel in [Kernel::Naive, Kernel::Leap] {
            let store = temp_store(if kernel == Kernel::Naive {
                "t0n"
            } else {
                "t0l"
            });
            let spec = ukp_spec(kernel);
            let t = trace_cell(&spec, &store).unwrap();
            assert!(t.fresh);
            assert!(t.path.exists());

            // The trace is the run the store's trial 0 describes.
            let r = crate::exec::run_cell(
                &spec,
                &store,
                &crate::observer::NullObserver,
                &crate::exec::ExecOptions::default(),
            )
            .unwrap()
            .expect_complete();
            let bytes = std::fs::read(&t.path).unwrap();
            let trace = Trace::decode(&bytes).unwrap();
            assert_eq!(Some(trace.last_step()), r.records[0].interactions);

            // And it passes the full bit-identity verification.
            pp_trace::verify_against_live(&trace).unwrap();

            // Re-tracing reuses the file.
            let again = trace_cell(&spec, &store).unwrap();
            assert!(!again.fresh);
            assert_eq!(again.bytes, t.bytes);
            let _ = std::fs::remove_dir_all(store.dir());
        }
    }

    #[test]
    fn dynamics_cells_trace_through_the_dynamics_loop() {
        // Ring (strands, censors at budget) and complete-with-churn
        // (lifecycle events in the stream): both must be recorded by the
        // same agent-based loop the stored trials ran on, not silently
        // re-simulated on the complete-graph kernels.
        for (tag, fragment, lifecycle) in [
            ("ring", "ring;uniform;j0.l0.c0.p0", 0u64),
            ("churn", "complete;uniform;j2.l1.c1.p200", 4u64),
        ] {
            let store = temp_store(&format!("dyn_{tag}"));
            let mut spec = ukp_spec(Kernel::Naive);
            spec.budget = 3_000;
            spec.dynamics = pp_topo::Dynamics::parse(fragment).unwrap();
            assert!(!spec.dynamics.is_default());
            let t = trace_cell(&spec, &store).unwrap();
            assert!(t.fresh);

            // The trace describes the dynamics run the store's trial 0
            // holds: re-running the same loop with the trial-0 seed must
            // land on the recorded final counts.
            let cell = spec.materialize();
            let outcome = pp_topo::run_dynamics(
                &cell.proto,
                spec.n as usize,
                &spec.dynamics,
                &cell.criterion,
                spec.budget,
                trial0_seed(&spec),
                &mut pp_engine::observer::NullObserver,
            )
            .unwrap();
            let bytes = std::fs::read(&t.path).unwrap();
            let trace = Trace::decode(&bytes).unwrap();
            assert_eq!(trace.final_counts, outcome.final_counts);

            // And it replays clean — transitions and lifecycle
            // arithmetic checked record by record.
            let summary = trace.replay_checked(&cell.proto).unwrap();
            assert_eq!(summary.lifecycle, lifecycle);
            let _ = std::fs::remove_dir_all(store.dir());
        }
    }

    #[test]
    fn trace_matching_dedupes_and_filters() {
        let store = temp_store("match");
        let spec = ukp_spec(Kernel::Leap);
        let cells = vec![spec.clone(), spec.clone()];
        let traced = trace_matching(&cells, &store, "ukp-*").unwrap();
        assert_eq!(traced.len(), 1, "duplicate cells traced once");
        let none = trace_matching(&cells, &store, "basic-*").unwrap();
        assert!(none.is_empty());
        let _ = std::fs::remove_dir_all(store.dir());
    }
}
