//! One trial, and a parallel fan-out of trials.
//!
//! [`run_trial`] is the unit of work: one execution of a protocol with
//! `n` agents, all in the initial state, under the uniform random
//! scheduler on a chosen [`Kernel`], until the stability criterion holds
//! or the interaction budget runs out. [`run_trials`] reproduces the
//! paper's methodology: `trials` independent executions mapped over a
//! rayon thread pool. Determinism is preserved because trial `i`'s RNG
//! seed is `seeds::derive(master_seed, i)` regardless of which thread
//! runs it, and `pp-sweep`'s journaled executor runs trial `i` of a cell
//! as exactly the same [`run_trial`] call, so a resumed sweep reproduces
//! a fresh one bit for bit (per kernel — the kernel is part of a sweep
//! cell's identity). Neither function reads the environment: callers
//! pass the kernel (the `experiments` helpers resolve `PP_KERNEL`
//! through [`crate::config::kernel`]).

use pp_engine::metrics::TelemetryObserver;
use pp_engine::observer::{Chain, Observer};
use pp_engine::population::{CountPopulation, Population};
use pp_engine::protocol::CompiledProtocol;
use pp_engine::scheduler::UniformRandomScheduler;
use pp_engine::seeds;
use pp_engine::simulator::{Kernel, RunError, Simulator};
use pp_engine::stability::StabilityCriterion;
use rayon::prelude::*;

/// Configuration of a trial batch.
#[derive(Clone, Copy, Debug)]
pub struct TrialConfig {
    /// Number of independent executions (the paper uses 100).
    pub trials: usize,
    /// Master seed; trial `i` runs with `derive(master_seed, i)`.
    pub master_seed: u64,
    /// Per-trial interaction budget; runs exceeding it are reported as
    /// censored rather than aborting the batch.
    pub max_interactions: u64,
}

/// Outcome of a trial batch.
#[derive(Clone, Debug)]
pub struct TrialBatch {
    /// Interactions-to-stability of every *completed* trial, in trial
    /// order (censored trials omitted).
    pub interactions: Vec<u64>,
    /// Number of trials that hit the interaction budget.
    pub censored: usize,
}

impl TrialBatch {
    /// Split trial outcomes into completed interaction counts (in trial
    /// order) and the number censored.
    pub fn new(outcomes: impl IntoIterator<Item = TrialOutcome>) -> Self {
        let mut interactions = Vec::new();
        let mut censored = 0;
        for o in outcomes {
            match o.interactions {
                Some(x) => interactions.push(x),
                None => censored += 1,
            }
        }
        TrialBatch {
            interactions,
            censored,
        }
    }

    /// Mean interactions over completed trials (the paper's reported
    /// statistic).
    ///
    /// # Panics
    /// If every trial was censored.
    pub fn mean(&self) -> f64 {
        assert!(
            !self.interactions.is_empty(),
            "all trials censored — raise max_interactions"
        );
        self.interactions.iter().sum::<u64>() as f64 / self.interactions.len() as f64
    }

    /// Full summary statistics over completed trials.
    pub fn summary(&self) -> crate::stats::Summary {
        crate::stats::Summary::of_u64(&self.interactions)
    }
}

/// One trial's outcome: interactions to stability and the final
/// configuration (available even for censored runs, whose `interactions`
/// is `None`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrialOutcome {
    /// Interactions to stability; `None` if the budget was hit.
    pub interactions: Option<u64>,
    /// Final count vector.
    pub final_counts: Vec<u64>,
}

/// One instrumented trial: completion times of each watched-state
/// increment, plus the total if the run stabilised — what a
/// [`pp_engine::observer::GroupCompletionObserver`] passed to
/// [`run_trial`] records (the paper's Figure 4 instrumentation).
#[derive(Clone, Debug)]
pub struct WatchedTrial {
    /// Total interactions to stability; `None` if censored.
    pub total: Option<u64>,
    /// `completions[i]` = interaction at which the watched count first
    /// reached `i + 1`.
    pub completions: Vec<u64>,
}

/// Run one trial with an already-derived `seed` on `kernel`, reporting
/// every event to `observer` (pass `&mut NullObserver` for none).
///
/// Telemetry rides along: a [`TelemetryObserver`] is chained behind
/// `observer`. It never touches scheduling or RNG state, so trajectories
/// — and the sweep cache's content hashes built on them — are
/// bit-identical to an unobserved run.
///
/// # Panics
/// On any simulator error other than the interaction budget.
pub fn run_trial<C, O>(
    proto: &CompiledProtocol,
    n: u64,
    criterion: &C,
    seed: u64,
    max_interactions: u64,
    kernel: Kernel,
    observer: &mut O,
) -> TrialOutcome
where
    C: StabilityCriterion,
    O: Observer,
{
    let mut pop = CountPopulation::new(proto, n);
    let mut sched = UniformRandomScheduler::from_seed(seed);
    let mut obs = Chain(observer, TelemetryObserver::new());
    let res = Simulator::new(proto).run_kernel(
        kernel,
        &mut pop,
        &mut sched,
        criterion,
        max_interactions,
        &mut obs,
    );
    let interactions = match res {
        Ok(r) => Some(r.interactions),
        Err(RunError::InteractionLimit { .. }) => {
            obs.1.mark_censored();
            None
        }
        Err(e) => panic!("trial failed: {e}"),
    };
    TrialOutcome {
        interactions,
        final_counts: pop.counts().to_vec(),
    }
}

/// Run `cfg.trials` independent executions of `proto` with `n` agents in
/// parallel: trial `i` is [`run_trial`] with seed
/// `seeds::derive(cfg.master_seed, i)` and a fresh `observer()`. Returns
/// each trial's outcome with its observer, in trial order.
pub fn run_trials<C, O, F>(
    proto: &CompiledProtocol,
    n: u64,
    criterion: &C,
    cfg: TrialConfig,
    kernel: Kernel,
    observer: F,
) -> Vec<(TrialOutcome, O)>
where
    C: StabilityCriterion + Sync,
    O: Observer + Send,
    F: Fn() -> O + Sync,
{
    (0..cfg.trials as u64)
        .into_par_iter()
        .map(|i| {
            let mut obs = observer();
            let outcome = run_trial(
                proto,
                n,
                criterion,
                seeds::derive(cfg.master_seed, i),
                cfg.max_interactions,
                kernel,
                &mut obs,
            );
            (outcome, obs)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_engine::observer::{GroupCompletionObserver, NullObserver};
    use pp_engine::spec::ProtocolSpec;
    use pp_engine::stability::Silent;

    fn two_phase() -> (CompiledProtocol, pp_engine::protocol::StateId) {
        // (a, a) -> (b, b): pairs settle; odd agent remains. Watched: b.
        let mut spec = ProtocolSpec::new("pairing");
        let a = spec.add_state("a", 1);
        let b = spec.add_state("b", 2);
        spec.set_initial(a);
        spec.add_rule(a, a, b, b);
        (spec.compile().unwrap(), b)
    }

    fn batch<C: StabilityCriterion + Sync>(
        p: &CompiledProtocol,
        n: u64,
        criterion: &C,
        cfg: TrialConfig,
        kernel: Kernel,
    ) -> TrialBatch {
        TrialBatch::new(
            run_trials(p, n, criterion, cfg, kernel, || NullObserver)
                .into_iter()
                .map(|(o, _)| o),
        )
    }

    #[test]
    fn trials_are_deterministic_in_master_seed() {
        let (p, _) = two_phase();
        let cfg = TrialConfig {
            trials: 16,
            master_seed: 99,
            max_interactions: 1_000_000,
        };
        let a = batch(&p, 11, &Silent, cfg, Kernel::Leap);
        let b = batch(&p, 11, &Silent, cfg, Kernel::Leap);
        assert_eq!(a.interactions, b.interactions);
        assert_eq!(a.censored, 0);
        assert_eq!(a.interactions.len(), 16);
        // Different master seed gives a different batch.
        let c = batch(
            &p,
            11,
            &Silent,
            TrialConfig {
                master_seed: 100,
                ..cfg
            },
            Kernel::Leap,
        );
        assert_ne!(a.interactions, c.interactions);
    }

    #[test]
    fn fan_out_equals_per_trial_runs() {
        // n = 301 is large enough for the batch kernel to take leaps.
        let (p, _) = two_phase();
        let cfg = TrialConfig {
            trials: 20,
            master_seed: 77,
            max_interactions: 1_000_000,
        };
        for kernel in Kernel::ALL {
            let fanned: Vec<TrialOutcome> =
                run_trials(&p, 301, &Silent, cfg, kernel, || NullObserver)
                    .into_iter()
                    .map(|(o, _)| o)
                    .collect();
            let single: Vec<TrialOutcome> = (0..cfg.trials as u64)
                .map(|i| {
                    run_trial(
                        &p,
                        301,
                        &Silent,
                        seeds::derive(cfg.master_seed, i),
                        cfg.max_interactions,
                        kernel,
                        &mut NullObserver,
                    )
                })
                .collect();
            assert_eq!(fanned, single, "{kernel}");
            assert!(fanned.iter().all(|o| o.interactions.is_some()), "{kernel}");
        }
    }

    #[test]
    fn censoring_counts_budget_hits() {
        let (p, _) = two_phase();
        let cfg = TrialConfig {
            trials: 8,
            master_seed: 1,
            max_interactions: 1, // absurdly tight: n=11 needs ≥ 5 pairings
        };
        for kernel in Kernel::ALL {
            let batch = batch(&p, 11, &Silent, cfg, kernel);
            assert_eq!(batch.censored, 8, "{kernel}");
            assert!(batch.interactions.is_empty(), "{kernel}");
        }
    }

    #[test]
    fn watching_records_monotone_completions() {
        let (p, b) = two_phase();
        let cfg = TrialConfig {
            trials: 4,
            master_seed: 5,
            max_interactions: 1_000_000,
        };
        let trials = run_trials(&p, 10, &Silent, cfg, Kernel::Leap, || {
            GroupCompletionObserver::new(b)
        });
        for (o, gc) in trials {
            let total = o.interactions.expect("not censored");
            let completions = gc.into_completions();
            // 10 agents -> 5 pairings -> watched count reaches 10.
            assert_eq!(completions.len(), 10);
            assert!(completions.windows(2).all(|w| w[0] <= w[1]));
            assert_eq!(*completions.last().unwrap(), total);
        }
    }

    #[test]
    fn batch_mean_and_summary_agree() {
        let batch = TrialBatch {
            interactions: vec![10, 20, 30],
            censored: 0,
        };
        assert!((batch.mean() - 20.0).abs() < 1e-12);
        assert!((batch.summary().mean - 20.0).abs() < 1e-12);
    }
}
