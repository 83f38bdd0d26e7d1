//! `paper-sweep`: the union of the `fig3` and `fig6` plans at the
//! paper's 100 trials per cell, as `pp-sweep run` executes it — lint
//! pre-flight, sharded simulation with journaling and promotion into a
//! fresh file store, report rendering — then warm passes against the
//! reopened store.
//!
//! The untraced run times cold passes (the task) and warm passes. The
//! traced run repeats one cold pass and a few warm passes through a
//! timing store decorator, then replays a sample of cells on one thread
//! to split `run_cell` time into trial simulation and sweep overhead.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use pp_sweep::backend::{FsBackend, StoreBackend};
use pp_sweep::exec::{run_cell, run_one_trial, ExecOptions};
use pp_sweep::lintgate::lint_cells;
use pp_sweep::observer::NullObserver;
use pp_sweep::plan::{Plan, PlanConfig};
use pp_sweep::runner::run_cells;
use pp_sweep::spec::CellSpec;
use pp_sweep::store::{encode_cell_doc, ResultStore};

use crate::report::Outcome;
use crate::spans::SpanLog;
use crate::timing::{StoreTimes, TimingBackend};
use crate::{RunConfig, Scale};

/// Per-layer metrics of this workload.
pub const LAYER: &[(&str, &str)] = &[
    ("analysis.trial_s", "s"),
    ("sweep.lint_preflight_s", "s"),
    ("sweep.journal_appends", "count"),
    ("sweep.journal_append_s", "s"),
    ("sweep.store_saves", "count"),
    ("sweep.store_save_s", "s"),
    ("sweep.store_bytes_written", "bytes"),
    ("sweep.shard_utilisation_pct", "%"),
    ("sweep.store_open_s", "s"),
    ("sweep.store_loads", "count"),
    ("sweep.store_load_s", "s"),
    ("sweep.cache_hit_ratio", "ratio"),
    ("sweep.report_s", "s"),
    ("sweep.warm_pass_s", "s"),
    ("sweep.overhead_share", "ratio"),
];

/// Warm passes in the traced run.
const TRACED_WARM_PASSES: usize = 5;
/// Time kept back from the warm passes for the final checks.
const CHECK_SECONDS: f64 = 1.0;
/// Cold passes in the untraced run.
const COLD_PASSES: usize = 2;
/// The traced run replays every `REPLAY_STRIDE`-th cell on one thread.
const REPLAY_STRIDE: usize = 4;

/// The plans this workload runs, with their master seed from `seed`.
pub fn plans(seed: u64, scale: Scale) -> Vec<Plan> {
    let cfg = PlanConfig {
        trials: match scale {
            Scale::Full => 100,
            Scale::Toy => 2,
        },
        master_seed: pp_engine::seeds::derive(seed, 0x0053_5745_4550),
    };
    let mut plans = vec![pp_sweep::plans::fig3::plan(cfg)];
    if scale == Scale::Full {
        plans.push(pp_sweep::plans::fig6::plan(cfg));
    }
    plans
}

/// Distinct cells of `plans`, in plan order.
pub fn union_cells(plans: &[Plan]) -> Vec<CellSpec> {
    let mut seen = std::collections::HashSet::new();
    plans
        .iter()
        .flat_map(|p| p.cells.iter())
        .filter(|c| seen.insert(c.content_hash()))
        .cloned()
        .collect()
}

/// One pass as `pp-sweep run` makes it: lint gate, run every cell,
/// render every report. Returns the concatenated reports.
fn pass(
    plans: &[Plan],
    cells: &[CellSpec],
    store: &ResultStore,
    spans: &SpanLog,
    parent: u64,
) -> Result<String, String> {
    spans
        .time("sweep.lint_cells", parent, |_| lint_cells(cells))
        .0
        .map_err(|e| format!("lint gate refused the plan: {e}"))?;
    spans
        .time("sweep.run_cells", parent, |_| {
            run_cells(cells, store, &NullObserver, &ExecOptions::default())
        })
        .0
        .map_err(|e| format!("run_cells failed: {e}"))?;
    spans
        .time("sweep.report", parent, |_| {
            plans.iter().try_fold(String::new(), |mut acc, p| {
                acc.push_str(
                    &(p.report)(store).map_err(|e| format!("report {} failed: {e}", p.name))?,
                );
                Ok(acc)
            })
        })
        .0
}

/// Every cell's canonical document as stored, in `cells` order.
fn docs(cells: &[CellSpec], store: &ResultStore) -> Vec<Option<String>> {
    cells
        .iter()
        .map(|c| store.load(c).map(|r| encode_cell_doc(c, &r.records)))
        .collect()
}

fn fs_store(dir: &Path) -> ResultStore {
    ResultStore::with_backend(Arc::new(FsBackend::at(dir)))
}

fn timed_store(dir: &Path) -> (ResultStore, Arc<StoreTimes>) {
    let backend = TimingBackend::new(Arc::new(FsBackend::at(dir)));
    let times = Arc::clone(&backend.times);
    (
        ResultStore::with_backend(Arc::new(backend) as Arc<dyn StoreBackend>),
        times,
    )
}

/// Run the workload.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let start = Instant::now();
    let mut out = Outcome::default();
    let spans = SpanLog::new(cfg.trace);

    // Set-up: plan construction, protocol compilation of every distinct
    // cell, and store creation (the file store creates its directory
    // lazily, on the first save).
    let setup_s = crate::env::median_time(|| {
        let plans = plans(cfg.seed, cfg.scale);
        let cells = union_cells(&plans);
        let mut protocols = std::collections::HashSet::new();
        for c in cells.iter().filter(|c| protocols.insert(c.protocol)) {
            std::hint::black_box(c.materialize());
        }
        std::hint::black_box(fs_store(&cfg.tmp.join("setup")));
    });
    // Cold passes, each into a fresh store with its own master seed (so
    // a run averages two draws of the straggler cells). Warm passes and
    // the traced run use pass 0's plans and store.
    let cold_n = if cfg.trace { 1 } else { COLD_PASSES };
    let pass_plans: Vec<Vec<Plan>> = (0..cold_n)
        .map(|i| plans(pp_engine::seeds::derive(cfg.seed, i as u64), cfg.scale))
        .collect();
    let pass_cells: Vec<Vec<CellSpec>> = pass_plans.iter().map(|p| union_cells(p)).collect();
    let cold = crate::env::timed(cfg.seconds, 1, cold_n, cold_n, |i| {
        let store = fs_store(&cfg.tmp.join(format!("cold-{i}")));
        let id = spans.id();
        let t0 = Instant::now();
        let report = pass(&pass_plans[i], &pass_cells[i], &store, &spans, id);
        spans.record(id, 0, "sweep.cold_pass", t0, Instant::now(), 0);
        report
    });
    let cold_times: Vec<f64> = cold.iter().map(|c| c.0).collect();
    let cold_reports = cold
        .into_iter()
        .map(|c| c.1)
        .collect::<Result<Vec<String>, String>>()?;
    for (i, cells) in pass_cells.iter().enumerate() {
        let store = fs_store(&cfg.tmp.join(format!("cold-{i}")));
        for c in cells {
            out.check(match store.load(c) {
                None => Some(format!(
                    "cell {} missing after cold pass {i}",
                    c.file_stem()
                )),
                Some(r) if r.censored() > 0 => Some(format!(
                    "cell {}: {} censored trials",
                    c.file_stem(),
                    r.censored()
                )),
                Some(_) => None,
            });
        }
    }
    let (plans, cells) = (&pass_plans[0], &pass_cells[0]);
    let cold_dir = cfg.tmp.join("cold-0");
    let cold_docs = docs(cells, &fs_store(&cold_dir));

    if !cfg.trace {
        // Warm passes against a freshly reopened store.
        let warm = crate::env::timed(
            crate::remaining(cfg, start) - CHECK_SECONDS,
            1,
            5,
            10_000,
            |_| {
                let store = fs_store(&cold_dir);
                let id = spans.id();
                let t0 = Instant::now();
                let report = pass(plans, cells, &store, &spans, id);
                spans.record(id, 0, "sweep.warm_pass", t0, Instant::now(), 0);
                report
            },
        );
        let warm_times: Vec<f64> = warm.iter().map(|w| w.0).collect();
        let warm_reports: Vec<Result<String, String>> = warm.into_iter().map(|w| w.1).collect();
        check_warm(&mut out, &warm_reports, &cold_reports[0]);
        out.check(
            (docs(cells, &fs_store(&cold_dir)) != cold_docs)
                .then(|| "warm store documents differ from the cold pass".to_string()),
        );
        let task_s = crate::stats::median(&cold_times);
        out.metric("setup_s", setup_s, "s");
        out.metric("task_s", task_s, "s");
        out.metric(
            "tasks_per_s",
            cold_times.len() as f64 / cold_times.iter().sum::<f64>(),
            "1/s",
        );
        out.metric("peak_rss_mb", crate::env::peak_rss_mb(), "MB");
        out.note(format!(
            "paper-sweep {} cells: sweep_cold_s = {task_s:.4} s (median of {cold_times:.3?}), sweep_warm_s = {:.5} s (median of {} warm passes)",
            cells.len(),
            crate::stats::median(&warm_times),
            warm_times.len()
        ));
        return Ok(out);
    }

    // Traced cold pass through the timing decorator.
    let traced_dir = cfg.tmp.join("traced");
    let (store, cold_t) = timed_store(&traced_dir);
    let id = spans.id();
    let t0 = Instant::now();
    let lint_t0 = Instant::now();
    lint_cells(cells).map_err(|e| format!("lint gate refused the plan: {e}"))?;
    let lint_s = lint_t0.elapsed().as_secs_f64();
    run_cells(cells, &store, &NullObserver, &ExecOptions::default())
        .map_err(|e| format!("run_cells failed: {e}"))?;
    let utilisation = pp_telemetry::Snapshot::capture_global()
        .value("sweep.shard.utilisation_pct")
        .unwrap_or(0);
    let traced_report = plans.iter().try_fold(String::new(), |mut acc, p| {
        acc.push_str(&(p.report)(&store).map_err(|e| format!("report {} failed: {e}", p.name))?);
        Ok::<_, String>(acc)
    })?;
    let traced_cold_s = t0.elapsed().as_secs_f64();
    spans.record(id, 0, "sweep.cold_pass.traced", t0, Instant::now(), 0);
    let bytes_written = store.stats().bytes;
    out.check(
        (docs(cells, &store) != cold_docs)
            .then(|| "traced cold pass stored different documents".to_string()),
    );
    out.check(
        (traced_report != cold_reports[0]).then(|| "traced cold pass report differs".to_string()),
    );

    // Traced warm passes, each against a freshly reopened store.
    let mut warm = Vec::new();
    let mut open_s = Vec::new();
    let mut report_s = Vec::new();
    let mut warm_reports = Vec::new();
    for _ in 0..TRACED_WARM_PASSES {
        let t0 = Instant::now();
        let (store, times) = timed_store(&traced_dir);
        open_s.push(t0.elapsed().as_secs_f64());
        lint_cells(cells).map_err(|e| format!("lint gate refused the plan: {e}"))?;
        run_cells(cells, &store, &NullObserver, &ExecOptions::default())
            .map_err(|e| format!("run_cells failed: {e}"))?;
        let r0 = Instant::now();
        warm_reports.push(plans.iter().try_fold(String::new(), |mut acc, p| {
            acc.push_str(
                &(p.report)(&store).map_err(|e| format!("report {} failed: {e}", p.name))?,
            );
            Ok(acc)
        }));
        report_s.push(r0.elapsed().as_secs_f64());
        warm.push((t0.elapsed().as_secs_f64(), times));
    }
    check_warm(&mut out, &warm_reports, &cold_reports[0]);
    let (warm_s, warm_t): (Vec<f64>, Vec<Arc<StoreTimes>>) = warm.into_iter().unzip();
    let last = warm_t.last().expect("at least one warm pass");
    let loads = StoreTimes::get(&last.loads);

    // One-thread replay of a cell sample: run_cell vs its trials alone.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let mut cell_s = 0.0;
    let mut trial_s = 0.0;
    for (i, c) in cells
        .iter()
        .enumerate()
        .filter(|(i, _)| i % REPLAY_STRIDE == 0)
    {
        let store = fs_store(&cfg.tmp.join(format!("replay-{i}")));
        let ((), dt) = spans.time("sweep.replay.run_cell", 0, |_| {
            let _ = run_cell(c, &store, &NullObserver, &ExecOptions::default());
        });
        cell_s += dt;
        let m = c.materialize();
        trial_s += spans
            .time("sweep.replay.trials", 0, |_| {
                for t in 0..c.trials as u64 {
                    std::hint::black_box(run_one_trial(c, &m, t));
                }
            })
            .1;
    }
    std::env::set_var("RAYON_NUM_THREADS", crate::env::threads().to_string());

    out.metric("protocols.compile_s", crate::compile_s(12), "s");
    out.metric(
        "bench.trace_overhead_pct",
        100.0 * (traced_cold_s - cold_times[0]) / cold_times[0],
        "%",
    );
    out.metric("analysis.trial_s", trial_s, "s");
    out.metric("sweep.lint_preflight_s", lint_s, "s");
    out.metric(
        "sweep.journal_appends",
        StoreTimes::get(&cold_t.appends) as f64,
        "count",
    );
    out.metric("sweep.journal_append_s", cold_t.append_s(), "s");
    out.metric(
        "sweep.store_saves",
        StoreTimes::get(&cold_t.saves) as f64,
        "count",
    );
    out.metric("sweep.store_save_s", cold_t.save_s(), "s");
    out.metric("sweep.store_bytes_written", bytes_written as f64, "bytes");
    out.metric("sweep.shard_utilisation_pct", utilisation as f64, "%");
    out.metric("sweep.store_open_s", crate::stats::median(&open_s), "s");
    out.metric("sweep.store_loads", loads as f64, "count");
    out.metric("sweep.store_load_s", last.load_s(), "s");
    out.metric(
        "sweep.cache_hit_ratio",
        StoreTimes::get(&last.load_hits) as f64 / loads.max(1) as f64,
        "ratio",
    );
    out.metric("sweep.report_s", crate::stats::median(&report_s), "s");
    out.metric("sweep.warm_pass_s", crate::stats::median(&warm_s), "s");
    out.metric("sweep.overhead_share", (cell_s - trial_s) / cell_s, "ratio");
    out.spans = spans.to_ndjson();
    Ok(out)
}

fn check_warm(out: &mut Outcome, warm_reports: &[Result<String, String>], cold: &str) {
    for (i, r) in warm_reports.iter().enumerate() {
        out.check(match r {
            Ok(r) if r == cold => None,
            Ok(_) => Some(format!("warm pass {i} report differs from the cold pass")),
            Err(e) => Some(format!("warm pass {i}: {e}")),
        });
    }
}
