//! `giant-n`: k=8, n=10⁵ trials on the batch kernel, each run to the
//! certified stable signature on one thread.
//!
//! The untraced run times `pp_sweep::exec::run_one_trial` on a batch
//! `CellSpec`. The traced run replays trial 0 through the engine with a
//! benchmark-side [`Observer`] that timestamps only leap and
//! fallback-burst boundaries, and checks that it reproduces the
//! untraced trial exactly.

use std::time::Instant;

use pp_engine::observer::{FallbackReason, Observer};
use pp_engine::population::{CountPopulation, Population};
use pp_engine::protocol::{CompiledProtocol, StateId};
use pp_engine::scheduler::UniformRandomScheduler;
use pp_engine::seeds;
use pp_engine::simulator::Simulator;
use pp_protocols::kpartition::UniformKPartition;
use pp_sweep::exec::run_one_trial;
use pp_sweep::spec::{CellMode, CellSpec, CriterionKind, KernelChoice, ProtocolId};
use pp_sweep::store::TrialRecord;

use crate::report::Outcome;
use crate::spans::SpanLog;
use crate::{RunConfig, Scale};

/// Per-layer metrics of this workload.
pub const LAYER: &[(&str, &str)] = &[
    ("engine.leaps", "count"),
    ("engine.fallback_bursts.small_leap", "count"),
    ("engine.fallback_bursts.low_count", "count"),
    ("engine.fallback_bursts.near_convergence", "count"),
    ("engine.fallback_bursts.overdraw", "count"),
    ("engine.exact_share", "ratio"),
    ("engine.leap_busy_s", "s"),
    ("engine.exact_busy_s", "s"),
    ("engine.effective_interactions", "count"),
    ("engine.stability_rescans", "count"),
];

/// `(k, n)` of the workload at each scale.
pub fn size(scale: Scale) -> (usize, u64) {
    match scale {
        Scale::Full => (8, 100_000),
        Scale::Toy => (4, 20_000),
    }
}

/// The batch-kernel cell this workload runs; trial `i` uses seed
/// `derive(cell seed, i)`.
pub fn cell_spec(seed: u64, scale: Scale, trials: usize) -> CellSpec {
    let (k, n) = size(scale);
    CellSpec {
        protocol: ProtocolId::UniformKPartition { k },
        n,
        trials,
        seed: seeds::derive_labelled(seed, k as u64, n),
        criterion: CriterionKind::Stable,
        budget: UniformKPartition::new(k).interaction_budget(n),
        mode: CellMode::Full,
        kernel: KernelChoice::Batch,
        dynamics: pp_topo::Dynamics::default_dynamics(),
    }
}

/// Check a finished trial: stable signature, group sizes within 1 of
/// each other, and every Lemma 1 residual
/// `#g_x − Σ_{p>x} #m_p − Σ_{q≥x} #d_q − #g_k` zero.
pub fn check_final(
    kp: &UniformKPartition,
    proto: &CompiledProtocol,
    n: u64,
    rec: &TrialRecord,
) -> Option<String> {
    let Some(counts) = &rec.final_counts else {
        return Some(format!("trial {}: no final configuration", rec.trial));
    };
    if rec.interactions.is_none() {
        return Some(format!("trial {}: censored", rec.trial));
    }
    if !kp.stable_signature(n).matches(counts) {
        return Some(format!(
            "trial {}: final counts miss the stable signature",
            rec.trial
        ));
    }
    let mut groups = vec![0u64; proto.num_groups()];
    for s in proto.states() {
        groups[proto.group_of(s).number() - 1] += counts[s.index()];
    }
    let lo = groups.iter().copied().min().unwrap_or(0);
    let hi = groups.iter().copied().max().unwrap_or(0);
    if groups.iter().sum::<u64>() != n || hi - lo > 1 {
        return Some(format!(
            "trial {}: group sizes {groups:?} are not uniform",
            rec.trial
        ));
    }
    let k = kp.k();
    let c = |s: StateId| counts[s.index()] as i64;
    for x in 1..=k {
        let mut r = c(kp.g(x)) - c(kp.g(k));
        for p in (x + 1).max(2)..k {
            r -= c(kp.m(p));
        }
        for q in x.max(1)..=k.saturating_sub(2) {
            r -= c(kp.d(q));
        }
        if r != 0 {
            return Some(format!(
                "trial {}: Lemma 1 residual {r} at x = {x}",
                rec.trial
            ));
        }
    }
    None
}

/// Benchmark-side engine observer: counts leaps, fallback bursts by
/// reason and effective firings, and splits wall time at leap and
/// fallback-burst boundaries (never per interaction).
#[derive(Debug)]
pub struct EngineProbe {
    last: Instant,
    in_exact: bool,
    /// Applied tau-leaps.
    pub leaps: u64,
    /// Effective firings inside leaps.
    pub leap_effective: u64,
    /// Effective firings in exact-fallback stretches.
    pub exact_effective: u64,
    /// Fallback bursts by reason: small leap, low count, near
    /// convergence, overdraw.
    pub bursts: [u64; 4],
    /// Time from a leap boundary to the next leap.
    pub leap_busy_s: f64,
    /// Time from a fallback to the next leap (or the end of the run).
    pub exact_busy_s: f64,
}

impl EngineProbe {
    /// Start the clock.
    pub fn new() -> Self {
        EngineProbe {
            last: Instant::now(),
            in_exact: false,
            leaps: 0,
            leap_effective: 0,
            exact_effective: 0,
            bursts: [0; 4],
            leap_busy_s: 0.0,
            exact_busy_s: 0.0,
        }
    }

    fn boundary(&mut self, exact_next: bool) {
        let now = Instant::now();
        let dt = now.duration_since(self.last).as_secs_f64();
        if self.in_exact {
            self.exact_busy_s += dt;
        } else {
            self.leap_busy_s += dt;
        }
        self.last = now;
        self.in_exact = exact_next;
    }

    /// Close the last stretch when the run ends.
    pub fn finish(&mut self) {
        let exact = self.in_exact;
        self.boundary(exact);
    }
}

impl Default for EngineProbe {
    fn default() -> Self {
        Self::new()
    }
}

impl Observer for EngineProbe {
    #[inline(always)]
    fn on_interaction(
        &mut self,
        _: u64,
        _: StateId,
        _: StateId,
        _: StateId,
        _: StateId,
        _: &[u64],
    ) {
        self.exact_effective += 1;
    }

    fn on_leap_batch(&mut self, _last_step: u64, _tau: u64, effective: u64, _counts: &[u64]) {
        self.boundary(false);
        self.leaps += 1;
        self.leap_effective += effective;
    }

    fn on_batch_fallback(&mut self, reason: FallbackReason) {
        self.boundary(true);
        let i = match reason {
            FallbackReason::SmallLeap => 0,
            FallbackReason::LowCount => 1,
            FallbackReason::NearConvergence => 2,
            FallbackReason::Overdraw => 3,
        };
        self.bursts[i] += 1;
    }
}

fn counter(name: &str) -> u64 {
    pp_telemetry::Snapshot::capture_global()
        .value(name)
        .unwrap_or(0)
}

/// Run the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let start = Instant::now();
    let mut out = Outcome::default();
    let spans = SpanLog::new(cfg.trace);
    let (k, n) = size(cfg.scale);
    let kp = UniformKPartition::new(k);
    let max_trials = if cfg.trace { 1 } else { 200 };
    let spec = cell_spec(cfg.seed, cfg.scale, max_trials);

    // Set-up: protocol compilation and cell materialisation.
    let setup_s = crate::env::median_time(|| {
        std::hint::black_box(spec.materialize());
    });
    let cell = spec.materialize();

    // Untraced: independent trials, one per thread on every core, so a
    // run holds enough of them for a steady median. Traced: trial 0 alone.
    let threads = if cfg.trace { 1 } else { crate::env::threads() };
    let done = crate::env::timed(crate::remaining(cfg, start), threads, 1, max_trials, |i| {
        spans
            .time("giant.trial", 0, |_| run_one_trial(&spec, &cell, i as u64))
            .0
    });
    let times: Vec<f64> = done.iter().map(|d| d.0).collect();
    let records: Vec<TrialRecord> = done.into_iter().map(|d| d.1).collect();
    for rec in &records {
        out.check(check_final(&kp, &cell.proto, n, rec));
    }
    let task_s = crate::stats::median(&times);

    if !cfg.trace {
        out.metric("setup_s", setup_s, "s");
        out.metric("task_s", task_s, "s");
        // Busy time per thread, not pool wall time: the pool's last
        // trial leaves the other thread idle for up to one trial.
        let busy_s = times.iter().sum::<f64>() / threads as f64;
        out.metric("tasks_per_s", times.len() as f64 / busy_s, "1/s");
        out.metric("peak_rss_mb", crate::env::peak_rss_mb(), "MB");
        out.note(format!(
            "giant-n k={k} n={n}: stabilise_s = {task_s:.4} s (median of {} trials on {threads} threads)",
            times.len()
        ));
        return out;
    }

    // Traced replay of trial 0 through the engine with the probe.
    let rescans_before = counter("engine.stability.rescans");
    let mut probe = EngineProbe::new();
    let mut pop = CountPopulation::new(&cell.proto, n);
    let mut sched = UniformRandomScheduler::from_seed(seeds::derive(spec.seed, 0));
    let (res, traced_s) = spans.time("giant.trial.traced", 0, |_| {
        let r = Simulator::new(&cell.proto).run_batch_observed(
            &mut pop,
            &mut sched,
            &cell.criterion,
            spec.budget,
            &mut probe,
        );
        probe.finish();
        r
    });
    let rescans = counter("engine.stability.rescans") - rescans_before;
    let untraced = &records[0];
    out.check(match &res {
        Ok(r)
            if Some(r.interactions) == untraced.interactions
                && untraced.final_counts.as_deref() == Some(pop.counts())
                && r.effective_interactions == probe.leap_effective + probe.exact_effective =>
        {
            None
        }
        Ok(r) => Some(format!(
            "traced trial 0 diverged: {} interactions vs {:?}, effective {} vs probe {}",
            r.interactions,
            untraced.interactions,
            r.effective_interactions,
            probe.leap_effective + probe.exact_effective
        )),
        Err(e) => Some(format!("traced trial 0 failed: {e}")),
    });
    let effective = probe.leap_effective + probe.exact_effective;
    out.metric("protocols.compile_s", crate::compile_s(k), "s");
    out.metric(
        "bench.trace_overhead_pct",
        100.0 * (traced_s - times[0]) / times[0],
        "%",
    );
    out.metric("engine.leaps", probe.leaps as f64, "count");
    for (i, name) in ["small_leap", "low_count", "near_convergence", "overdraw"]
        .iter()
        .enumerate()
    {
        out.metric(
            &format!("engine.fallback_bursts.{name}"),
            probe.bursts[i] as f64,
            "count",
        );
    }
    out.metric(
        "engine.exact_share",
        probe.exact_effective as f64 / effective.max(1) as f64,
        "ratio",
    );
    out.metric("engine.leap_busy_s", probe.leap_busy_s, "s");
    out.metric("engine.exact_busy_s", probe.exact_busy_s, "s");
    out.metric("engine.effective_interactions", effective as f64, "count");
    out.metric("engine.stability_rescans", rescans as f64, "count");
    out.spans = spans.to_ndjson();
    out
}
