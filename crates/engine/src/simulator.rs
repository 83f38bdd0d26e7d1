//! The execution driver.
//!
//! A [`Simulator`] repeatedly asks a scheduler for an interaction pair,
//! applies the protocol's transition, notifies an observer, and — after
//! every *count-changing* interaction — consults a stability criterion.
//! (Identity interactions cannot alter stability, so skipping the check on
//! them is an exact optimisation, not an approximation; the criterion is
//! also evaluated once on the initial configuration.)
//!
//! The returned [`RunResult::interactions`] is precisely the paper's §5
//! metric: the number of interactions performed strictly before the first
//! stable configuration (a population that starts stable reports 0).
//!
//! [`Simulator::run_kernel`] is the one entry point for count-vector
//! populations under the uniform random scheduler; it dispatches on a
//! [`Kernel`]:
//!
//! * [`Kernel::Naive`] — one sampled pair per iteration
//!   ([`Simulator::run_observed`], which also takes adversarial
//!   [`PairScheduler`]s).
//! * [`Kernel::Leap`] — skips each maximal run of identity interactions
//!   in closed form (see [`crate::leap`]), paying per *effective*
//!   interaction instead of per interaction. Same distribution over
//!   outcomes, orders of magnitude faster near stabilisation where
//!   identity interactions dominate.
//! * [`Kernel::Batch`] — fires whole batches of rule applications per
//!   step with bounded propensity drift and exact-leap fallback near
//!   convergence (see [`crate::batch`];
//!   [`Simulator::run_batch_configured`] takes a non-default
//!   [`BatchConfig`]). Bounded-error in the bulk, exact in the endgame;
//!   the giant-`n` workhorse.
//!
//! [`Simulator::run_agents_observed`] drives per-agent populations and
//! [`Simulator::run_fixed`] a fixed number of steps with no criterion.

use crate::batch::{BatchConfig, BatchCore, BatchTrial, Scratch, StepOutcome};
use crate::leap::{sample_identity_run, IdentityWeights};
use crate::observer::Observer;
use crate::population::{AgentPopulation, CountPopulation, Population};
use crate::protocol::CompiledProtocol;
use crate::scheduler::{AgentScheduler, PairScheduler, UniformRandomScheduler};
use crate::stability::StabilityCriterion;
use std::fmt;

/// A simulation kernel for count populations under the uniform random
/// scheduler (see the module docs). The kernels agree in distribution
/// but consume randomness differently, so one seed gives a different,
/// equally valid run under each: the kernel is part of the identity of
/// every stored result.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// The naive loop: one sampled pair per interaction.
    Naive,
    /// The leap kernel: identity runs skipped in closed form.
    Leap,
    /// The tau-leap batch kernel with exact-leap fallback.
    Batch,
}

impl Kernel {
    /// Every kernel.
    pub const ALL: [Kernel; 3] = [Kernel::Naive, Kernel::Leap, Kernel::Batch];

    /// Lower-case name: a `PP_KERNEL` value, the `kernel=` fragment of
    /// `pp-sweep`'s content addresses, and the label in reports. Stored
    /// results are keyed on these strings, so they must never change.
    pub fn label(self) -> &'static str {
        match self {
            Kernel::Naive => "naive",
            Kernel::Leap => "leap",
            Kernel::Batch => "batch",
        }
    }

    /// The kernel whose [`Kernel::label`] is exactly `s`.
    pub fn parse(s: &str) -> Option<Kernel> {
        Kernel::ALL.into_iter().find(|k| k.label() == s)
    }

    /// A kernel knob value, read case-insensitively: `Ok(None)` for
    /// `auto`, `Err(value)` when it names no kernel. What `auto` and
    /// unknown values mean is up to the caller.
    pub fn parse_knob(value: &str) -> Result<Option<Kernel>, String> {
        let lower = value.to_ascii_lowercase();
        match lower.as_str() {
            "auto" => Ok(None),
            s => Kernel::parse(s).map(Some).ok_or(lower),
        }
    }

    /// The `PP_KERNEL` environment knob through [`Kernel::parse_knob`];
    /// unset or empty reads as `auto`. The only reader of `PP_KERNEL`.
    pub fn from_env() -> Result<Option<Kernel>, String> {
        match std::env::var("PP_KERNEL") {
            Ok(v) if !v.is_empty() => Kernel::parse_knob(&v),
            _ => Ok(None),
        }
    }
}

impl fmt::Display for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Outcome of a completed (stabilised) run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunResult {
    /// Interactions performed before the first stable configuration,
    /// including identity (null) interactions — the paper's time metric.
    pub interactions: u64,
    /// Of those, interactions whose transition changed at least one state.
    pub effective_interactions: u64,
}

/// A run failed to reach stability.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunError {
    /// The interaction limit was reached before stabilisation. Carries the
    /// limit so callers can report the censoring point.
    InteractionLimit {
        /// The limit that was exhausted.
        limit: u64,
    },
    /// Fewer than two agents: no interaction is possible and the
    /// configuration is not stable under the supplied criterion.
    PopulationTooSmall,
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::InteractionLimit { limit } => {
                write!(f, "no stable configuration within {limit} interactions")
            }
            RunError::PopulationTooSmall => {
                write!(f, "population has fewer than two agents")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// Drives executions of one compiled protocol.
#[derive(Clone, Copy, Debug)]
pub struct Simulator<'a> {
    proto: &'a CompiledProtocol,
}

impl<'a> Simulator<'a> {
    /// A simulator for `proto`.
    pub fn new(proto: &'a CompiledProtocol) -> Self {
        Simulator { proto }
    }

    /// The protocol being simulated.
    pub fn protocol(&self) -> &'a CompiledProtocol {
        self.proto
    }

    /// Run a count-vector population until stability, reporting every
    /// interaction to `observer`.
    pub fn run_observed<S, C, O>(
        &self,
        pop: &mut CountPopulation,
        scheduler: &mut S,
        criterion: &C,
        max_interactions: u64,
        observer: &mut O,
    ) -> Result<RunResult, RunError>
    where
        S: PairScheduler,
        C: StabilityCriterion,
        O: Observer,
    {
        if criterion.is_stable(self.proto, pop.counts()) {
            return Ok(RunResult {
                interactions: 0,
                effective_interactions: 0,
            });
        }
        if pop.num_agents() < 2 {
            return Err(RunError::PopulationTooSmall);
        }
        let mut interactions: u64 = 0;
        let mut effective: u64 = 0;
        while interactions < max_interactions {
            let (p, q) = scheduler.select_pair(pop);
            let (p2, q2) = self.proto.delta(p, q);
            interactions += 1;
            if p2 == p && q2 == q {
                observer.on_interaction(interactions, p, q, p2, q2, pop.counts());
                continue;
            }
            pop.apply(p, q, p2, q2);
            effective += 1;
            observer.on_interaction(interactions, p, q, p2, q2, pop.counts());
            if criterion.is_stable(self.proto, pop.counts()) {
                return Ok(RunResult {
                    interactions,
                    effective_interactions: effective,
                });
            }
        }
        Err(RunError::InteractionLimit {
            limit: max_interactions,
        })
    }

    /// Run a count-vector population until `criterion` reports stability
    /// on `kernel`, reporting interactions to `observer`. Every kernel has
    /// the `RunResult`/`RunError` contract of [`Simulator::run_observed`]
    /// (the naive kernel), and the returned statistics follow the same
    /// distribution (the kernels consume randomness differently, so
    /// individual runs differ for a given seed — equality is in law, not
    /// bit-for-bit; the batch kernel's up to its bounded tau-leap error).
    ///
    /// The **leap kernel** samples each maximal run of consecutive
    /// identity interactions in closed form (geometric in the
    /// identity-pair probability, see [`crate::leap`]) and credits it to
    /// the interaction counter in O(1), then samples one *effective* pair
    /// from the exact conditional distribution and applies it. Observers
    /// see every effective interaction via [`Observer::on_interaction`]
    /// with its true cumulative interaction number, and each skipped
    /// identity run via [`Observer::on_identity_run`]; per-identity
    /// callbacks do not happen, but because counts are constant across a
    /// run, observers can derive any per-step quantity inside it in closed
    /// form (as [`crate::observer::TrajectorySampler`] does for its period
    /// boundaries). On the [`RunError::InteractionLimit`] path the
    /// trailing identity run that overflows the budget is not reported.
    /// Stability is consulted through the criterion's incremental
    /// [`crate::stability::StabilityTracker`], fed the same ±1 count
    /// deltas the population applies.
    ///
    /// The **batch kernel** runs with the default [`BatchConfig`]; see
    /// [`Simulator::run_batch_configured`] for its semantics.
    ///
    /// The scheduler is the concrete [`UniformRandomScheduler`] because
    /// the leap and batch kernels rely on algebraic properties of
    /// precisely that scheduler.
    pub fn run_kernel<C, O>(
        &self,
        kernel: Kernel,
        pop: &mut CountPopulation,
        scheduler: &mut UniformRandomScheduler,
        criterion: &C,
        max_interactions: u64,
        observer: &mut O,
    ) -> Result<RunResult, RunError>
    where
        C: StabilityCriterion,
        O: Observer,
    {
        match kernel {
            Kernel::Naive => {
                self.run_observed(pop, scheduler, criterion, max_interactions, observer)
            }
            Kernel::Leap => self.run_leap(pop, scheduler, criterion, max_interactions, observer),
            Kernel::Batch => {
                self.run_batch_observed(pop, scheduler, criterion, max_interactions, observer)
            }
        }
    }

    /// The leap kernel's body; see [`Simulator::run_kernel`].
    fn run_leap<C, O>(
        &self,
        pop: &mut CountPopulation,
        scheduler: &mut UniformRandomScheduler,
        criterion: &C,
        max_interactions: u64,
        observer: &mut O,
    ) -> Result<RunResult, RunError>
    where
        C: StabilityCriterion,
        O: Observer,
    {
        if criterion.is_stable(self.proto, pop.counts()) {
            return Ok(RunResult {
                interactions: 0,
                effective_interactions: 0,
            });
        }
        let n = pop.num_agents();
        if n < 2 {
            return Err(RunError::PopulationTooSmall);
        }
        let total = n * (n - 1);
        let mut weights = IdentityWeights::new(self.proto, pop.counts());
        let mut tracker = criterion.tracker(self.proto, pop.counts());
        let mut interactions: u64 = 0;
        let mut effective: u64 = 0;
        loop {
            let w_id = weights.identity_weight();
            if w_id == total {
                // Every enabled pair is an identity: the configuration can
                // never change again, and the criterion already judged it
                // unstable — the naive loop would spin to the limit.
                return Err(RunError::InteractionLimit {
                    limit: max_interactions,
                });
            }
            let g = sample_identity_run(scheduler.rng_mut(), w_id, total);
            // The naive loop admits the stabilising interaction only while
            // the counter is below the limit: g identities plus one
            // effective interaction must fit in the remaining budget.
            if g >= max_interactions - interactions {
                return Err(RunError::InteractionLimit {
                    limit: max_interactions,
                });
            }
            if g > 0 {
                interactions += g;
                observer.on_identity_run(interactions, g, pop.counts());
            }
            let (p, q) = weights.sample_effective(self.proto, n, pop.counts(), scheduler.rng_mut());
            let (p2, q2) = self.proto.delta(p, q);
            interactions += 1;
            effective += 1;
            for (s, delta) in [(p, -1), (q, -1), (p2, 1), (q2, 1)] {
                weights.apply_delta(self.proto, s, delta);
                tracker.apply_delta(s, delta);
            }
            pop.apply(p, q, p2, q2);
            observer.on_interaction(interactions, p, q, p2, q2, pop.counts());
            if tracker.is_stable(self.proto, pop.counts()) {
                return Ok(RunResult {
                    interactions,
                    effective_interactions: effective,
                });
            }
        }
    }

    /// Run a count-vector population until stability with the **batch
    /// kernel** and its default [`BatchConfig`], reporting leaps and
    /// interactions to `observer`.
    pub fn run_batch_observed<C, O>(
        &self,
        pop: &mut CountPopulation,
        scheduler: &mut UniformRandomScheduler,
        criterion: &C,
        max_interactions: u64,
        observer: &mut O,
    ) -> Result<RunResult, RunError>
    where
        C: StabilityCriterion,
        O: Observer,
    {
        self.run_batch_configured(
            pop,
            scheduler,
            criterion,
            max_interactions,
            &BatchConfig::default(),
            observer,
        )
    }

    /// Run a count-vector population until stability with the **batch
    /// (tau-leap) kernel**: per step the kernel either fires a whole
    /// batch of rule applications in one multinomial draw over the
    /// channel set, or — near convergence, at low counts, or when a leap
    /// would be degenerate — falls back to exact leap stepping (see
    /// [`crate::batch`] for the propensity model, error bound, and
    /// fallback policy).
    ///
    /// Identical `RunResult`/`RunError` contract to
    /// [`Simulator::run_kernel`]. Statistics follow the leap kernel's law
    /// up to the tau-leap approximation (bounded propensity drift of O(ε)
    /// per leap); with `cfg.safety_threshold ≥ n` every step falls back
    /// and the run is **bit-identical** to the leap kernel for the same
    /// seed.
    ///
    /// Observers see exact-fallback stretches through
    /// [`Observer::on_interaction`] / [`Observer::on_identity_run`]
    /// exactly as under the leap kernel, and each applied leap through
    /// [`Observer::on_leap_batch`]; fallback transitions are reported via
    /// [`Observer::on_batch_fallback`].
    pub fn run_batch_configured<C, O>(
        &self,
        pop: &mut CountPopulation,
        scheduler: &mut UniformRandomScheduler,
        criterion: &C,
        max_interactions: u64,
        cfg: &BatchConfig,
        observer: &mut O,
    ) -> Result<RunResult, RunError>
    where
        C: StabilityCriterion,
        O: Observer,
    {
        if criterion.is_stable(self.proto, pop.counts()) {
            return Ok(RunResult {
                interactions: 0,
                effective_interactions: 0,
            });
        }
        let n = pop.num_agents();
        if n < 2 {
            return Err(RunError::PopulationTooSmall);
        }
        let core = BatchCore::compile(self.proto);
        let mut scratch = Scratch::new(&core);
        let mut counts: Vec<u64> = pop.counts().to_vec();
        let mut trial = BatchTrial::new(self.proto, criterion, &counts);
        let outcome = loop {
            match trial.step(
                self.proto,
                &core,
                &mut counts,
                n,
                scheduler.rng_mut(),
                max_interactions,
                cfg,
                &mut scratch,
                observer,
            ) {
                StepOutcome::Continue => {}
                out => break out,
            }
        };
        // Write the detached count vector back through the population's
        // own accounting (sum-preserving, so `num_agents` is unchanged).
        for (s, &c) in counts.iter().enumerate() {
            pop.set_count(crate::protocol::StateId(s as u16), c);
        }
        match outcome {
            StepOutcome::Stable => Ok(RunResult {
                interactions: trial.interactions,
                effective_interactions: trial.effective,
            }),
            _ => Err(RunError::InteractionLimit {
                limit: max_interactions,
            }),
        }
    }

    /// Run a per-agent population until stability (on its count
    /// projection), reporting every interaction to `observer`.
    pub fn run_agents_observed<S, C, O>(
        &self,
        pop: &mut AgentPopulation,
        scheduler: &mut S,
        criterion: &C,
        max_interactions: u64,
        observer: &mut O,
    ) -> Result<RunResult, RunError>
    where
        S: AgentScheduler,
        C: StabilityCriterion,
        O: Observer,
    {
        if criterion.is_stable(self.proto, pop.counts()) {
            return Ok(RunResult {
                interactions: 0,
                effective_interactions: 0,
            });
        }
        if pop.num_agents() < 2 {
            return Err(RunError::PopulationTooSmall);
        }
        let mut interactions: u64 = 0;
        let mut effective: u64 = 0;
        while interactions < max_interactions {
            let (i, j) = scheduler.select_agents(pop);
            let (p, q, p2, q2) = pop.interact(self.proto, i, j);
            interactions += 1;
            let changed = p2 != p || q2 != q;
            if changed {
                effective += 1;
            }
            observer.on_interaction(interactions, p, q, p2, q2, pop.counts());
            if changed && criterion.is_stable(self.proto, pop.counts()) {
                return Ok(RunResult {
                    interactions,
                    effective_interactions: effective,
                });
            }
        }
        Err(RunError::InteractionLimit {
            limit: max_interactions,
        })
    }

    /// Perform exactly `steps` interactions on a count population,
    /// reporting each (identity or not) to `observer` exactly as
    /// [`Simulator::run_observed`] would — but with **no stability
    /// criterion**: the run never short-circuits, and no stability check
    /// is evaluated (not even initially). Useful for warm-up and for
    /// protocols without a stability notion.
    ///
    /// Returns a [`FixedRunSummary`] whose `interactions` always equals
    /// `steps` and whose `effective_interactions` counts the
    /// state-changing subset, mirroring [`RunResult`]'s fields.
    pub fn run_fixed<S, O>(
        &self,
        pop: &mut CountPopulation,
        scheduler: &mut S,
        steps: u64,
        observer: &mut O,
    ) -> FixedRunSummary
    where
        S: PairScheduler,
        O: Observer,
    {
        let mut effective: u64 = 0;
        for step in 1..=steps {
            let (p, q) = scheduler.select_pair(pop);
            let (p2, q2) = self.proto.delta(p, q);
            if p2 != p || q2 != q {
                pop.apply(p, q, p2, q2);
                effective += 1;
            }
            observer.on_interaction(step, p, q, p2, q2, pop.counts());
        }
        FixedRunSummary {
            interactions: steps,
            effective_interactions: effective,
        }
    }
}

/// Summary of a [`Simulator::run_fixed`] run (which cannot fail and does
/// not stop early, hence no `Result`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct FixedRunSummary {
    /// Interactions performed — always the requested `steps`.
    pub interactions: u64,
    /// Of those, interactions whose transition changed at least one state.
    pub effective_interactions: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::NullObserver;
    use crate::scheduler::UniformRandomScheduler;
    use crate::spec::ProtocolSpec;
    use crate::stability::{Never, Silent};

    fn epidemic() -> CompiledProtocol {
        let mut spec = ProtocolSpec::new("epidemic");
        let s = spec.add_state("S", 1);
        let i = spec.add_state("I", 2);
        spec.set_initial(s);
        spec.add_rule_symmetric(i, s, i, i);
        spec.compile().unwrap()
    }

    #[test]
    fn epidemic_stabilises_everyone_infected() {
        let p = epidemic();
        let s = p.state_by_name("S").unwrap();
        let i = p.state_by_name("I").unwrap();
        // n = 4096 is large enough for the batch kernel to take leaps.
        for (kernel, n) in [
            (Kernel::Naive, 64),
            (Kernel::Leap, 64),
            (Kernel::Batch, 4096),
        ] {
            let mut pop = CountPopulation::new(&p, n);
            pop.set_count(s, n - 1);
            pop.set_count(i, 1);
            let mut sched = UniformRandomScheduler::from_seed(11);
            let res = Simulator::new(&p)
                .run_kernel(
                    kernel,
                    &mut pop,
                    &mut sched,
                    &Silent,
                    u64::MAX,
                    &mut NullObserver,
                )
                .unwrap();
            assert_eq!(pop.count(i), n, "{kernel}");
            // Effective interactions are exactly the n − 1 infections on
            // every path, whether fired one by one or in bulk.
            assert_eq!(res.effective_interactions, n - 1, "{kernel}");
            assert!(res.interactions >= n - 1, "{kernel}");
        }
    }

    #[test]
    fn kernel_labels_round_trip() {
        for k in Kernel::ALL {
            assert_eq!(Kernel::parse(k.label()), Some(k));
            assert_eq!(k.to_string(), k.label());
        }
        assert_eq!(Kernel::parse("auto"), None);
        assert_eq!(Kernel::parse("Leap"), None);
        assert_eq!(Kernel::parse_knob("Leap"), Ok(Some(Kernel::Leap)));
        assert_eq!(Kernel::parse_knob("AUTO"), Ok(None));
        assert_eq!(Kernel::parse_knob("fast"), Err("fast".to_string()));
    }

    #[test]
    fn already_stable_returns_zero() {
        let p = epidemic();
        let i = p.state_by_name("I").unwrap();
        for kernel in Kernel::ALL {
            let mut pop = CountPopulation::new(&p, 5);
            pop.set_count(p.initial_state(), 0);
            pop.set_count(i, 5);
            let mut sched = UniformRandomScheduler::from_seed(0);
            let res = Simulator::new(&p)
                .run_kernel(
                    kernel,
                    &mut pop,
                    &mut sched,
                    &Silent,
                    100,
                    &mut NullObserver,
                )
                .unwrap();
            assert_eq!(res.interactions, 0, "{kernel}");
        }
    }

    #[test]
    fn limit_is_reported() {
        let p = epidemic();
        let s = p.state_by_name("S").unwrap();
        let i = p.state_by_name("I").unwrap();
        for kernel in Kernel::ALL {
            let mut pop = CountPopulation::new(&p, 1000);
            pop.set_count(s, 999);
            pop.set_count(i, 1);
            let mut sched = UniformRandomScheduler::from_seed(2);
            // At n = 1000, stabilising takes ≫ 5 interactions (999
            // infections).
            let err = Simulator::new(&p)
                .run_kernel(kernel, &mut pop, &mut sched, &Silent, 5, &mut NullObserver)
                .unwrap_err();
            assert_eq!(err, RunError::InteractionLimit { limit: 5 }, "{kernel}");
        }
    }

    #[test]
    fn too_small_population_errors() {
        let p = epidemic();
        for kernel in Kernel::ALL {
            let mut pop = CountPopulation::new(&p, 1);
            let mut sched = UniformRandomScheduler::from_seed(2);
            // A single agent can never interact; with a never-satisfied
            // criterion the simulator must report the population as too
            // small rather than spinning.
            let err = Simulator::new(&p)
                .run_kernel(kernel, &mut pop, &mut sched, &Never, 5, &mut NullObserver)
                .unwrap_err();
            assert_eq!(err, RunError::PopulationTooSmall, "{kernel}");
        }
    }

    #[test]
    fn agent_and_count_representations_agree_in_distribution() {
        // Same protocol, same seed policy; expect identical *final* states
        // and statistically indistinguishable interaction counts. Here we
        // only check final-state agreement per run.
        let p = epidemic();
        let s = p.state_by_name("S").unwrap();
        let i = p.state_by_name("I").unwrap();
        for seed in 0..10 {
            let mut cpop = CountPopulation::new(&p, 30);
            cpop.set_count(s, 29);
            cpop.set_count(i, 1);
            let mut sched = UniformRandomScheduler::from_seed(seed);
            Simulator::new(&p)
                .run_observed(&mut cpop, &mut sched, &Silent, 1_000_000, &mut NullObserver)
                .unwrap();

            let mut apop = AgentPopulation::new(&p, 30);
            apop.set_state(0, i);
            let mut sched = UniformRandomScheduler::from_seed(seed);
            Simulator::new(&p)
                .run_agents_observed(&mut apop, &mut sched, &Silent, 1_000_000, &mut NullObserver)
                .unwrap();

            assert_eq!(cpop.count(i), 30);
            assert_eq!(apop.count(i), 30);
        }
    }

    #[test]
    fn run_fixed_performs_exact_step_count() {
        let p = epidemic();
        let s = p.state_by_name("S").unwrap();
        let i = p.state_by_name("I").unwrap();
        let mut pop = CountPopulation::new(&p, 10);
        pop.set_count(s, 9);
        pop.set_count(i, 1);
        let mut sched = UniformRandomScheduler::from_seed(4);
        let mut seen = 0u64;
        struct Counter<'a>(&'a mut u64);
        impl crate::observer::Observer for Counter<'_> {
            fn on_interaction(
                &mut self,
                _s: u64,
                _p: crate::protocol::StateId,
                _q: crate::protocol::StateId,
                _p2: crate::protocol::StateId,
                _q2: crate::protocol::StateId,
                _c: &[u64],
            ) {
                *self.0 += 1;
            }
        }
        Simulator::new(&p).run_fixed(&mut pop, &mut sched, 123, &mut Counter(&mut seen));
        assert_eq!(seen, 123);
    }

    #[test]
    fn never_criterion_always_hits_limit() {
        let p = epidemic();
        let mut pop = CountPopulation::new(&p, 10);
        let mut sched = UniformRandomScheduler::from_seed(4);
        let err = Simulator::new(&p)
            .run_observed(&mut pop, &mut sched, &Never, 50, &mut NullObserver)
            .unwrap_err();
        assert_eq!(err, RunError::InteractionLimit { limit: 50 });
    }

    #[test]
    fn run_fixed_counts_effective_interactions() {
        let p = epidemic();
        let s = p.state_by_name("S").unwrap();
        let i = p.state_by_name("I").unwrap();
        let mut pop = CountPopulation::new(&p, 10);
        pop.set_count(s, 9);
        pop.set_count(i, 1);
        let mut sched = UniformRandomScheduler::from_seed(4);
        let summary = Simulator::new(&p).run_fixed(&mut pop, &mut sched, 5_000, &mut NullObserver);
        assert_eq!(summary.interactions, 5_000);
        // 5 000 interactions at n = 10 is ample to infect everyone:
        // exactly 9 effective (infection) interactions happened.
        assert_eq!(summary.effective_interactions, 9);
        assert_eq!(pop.count(i), 10);
    }

    #[test]
    fn all_identity_configuration_hits_limit_immediately() {
        // All agents infected and criterion Never: every enabled pair is
        // an identity, so the configuration can never change. The naive
        // loop spins to the limit; the leap and batch kernels report the
        // limit without spinning.
        let p = epidemic();
        let i = p.state_by_name("I").unwrap();
        for kernel in [Kernel::Leap, Kernel::Batch] {
            let mut pop = CountPopulation::new(&p, 50);
            pop.set_count(p.initial_state(), 0);
            pop.set_count(i, 50);
            let mut sched = UniformRandomScheduler::from_seed(3);
            let err = Simulator::new(&p)
                .run_kernel(
                    kernel,
                    &mut pop,
                    &mut sched,
                    &Never,
                    u64::MAX,
                    &mut NullObserver,
                )
                .unwrap_err();
            assert_eq!(
                err,
                RunError::InteractionLimit { limit: u64::MAX },
                "{kernel}"
            );
        }
    }

    #[test]
    fn leap_observer_sees_consistent_interaction_numbering() {
        // The cumulative step numbers reported to the observer must be
        // strictly increasing, count every skipped identity, and end at
        // the RunResult totals.
        struct Checker {
            last_step: u64,
            effective_seen: u64,
            identities_seen: u64,
        }
        impl crate::observer::Observer for Checker {
            fn on_interaction(
                &mut self,
                step: u64,
                _p: crate::protocol::StateId,
                _q: crate::protocol::StateId,
                _p2: crate::protocol::StateId,
                _q2: crate::protocol::StateId,
                _c: &[u64],
            ) {
                assert_eq!(step, self.last_step + 1, "effective step must follow");
                self.last_step = step;
                self.effective_seen += 1;
            }
            fn on_identity_run(&mut self, last_step: u64, skipped: u64, _c: &[u64]) {
                assert!(skipped >= 1);
                assert_eq!(last_step, self.last_step + skipped);
                self.last_step = last_step;
                self.identities_seen += skipped;
            }
        }
        let p = epidemic();
        let s = p.state_by_name("S").unwrap();
        let i = p.state_by_name("I").unwrap();
        let mut pop = CountPopulation::new(&p, 40);
        pop.set_count(s, 39);
        pop.set_count(i, 1);
        let mut sched = UniformRandomScheduler::from_seed(17);
        let mut obs = Checker {
            last_step: 0,
            effective_seen: 0,
            identities_seen: 0,
        };
        let res = Simulator::new(&p)
            .run_kernel(
                Kernel::Leap,
                &mut pop,
                &mut sched,
                &Silent,
                10_000_000,
                &mut obs,
            )
            .unwrap();
        assert_eq!(obs.effective_seen, res.effective_interactions);
        assert_eq!(
            obs.identities_seen + obs.effective_seen,
            res.interactions,
            "every interaction is accounted for"
        );
        assert_eq!(obs.last_step, res.interactions);
    }

    #[test]
    fn leap_and_naive_agree_on_mean_interactions() {
        // Same protocol, same grid of seeds: the two kernels must produce
        // statistically indistinguishable interactions-to-stability. The
        // epidemic at n = 24 has mean ≈ n(n−1)/2 · H_{n−1} ≈ 1040; with
        // 200 trials per kernel a 4-sigma band on the difference of means
        // is a tight yet reliable check.
        let p = epidemic();
        let s = p.state_by_name("S").unwrap();
        let i = p.state_by_name("I").unwrap();
        let n = 24u64;
        let trials = 200u64;
        let sample = |leap: bool| -> Vec<f64> {
            (0..trials)
                .map(|t| {
                    let mut pop = CountPopulation::new(&p, n);
                    pop.set_count(s, n - 1);
                    pop.set_count(i, 1);
                    let mut sched =
                        UniformRandomScheduler::from_seed(1000 + t + u64::from(leap) * 7919);
                    let kernel = if leap { Kernel::Leap } else { Kernel::Naive };
                    Simulator::new(&p)
                        .run_kernel(
                            kernel,
                            &mut pop,
                            &mut sched,
                            &Silent,
                            u64::MAX,
                            &mut NullObserver,
                        )
                        .unwrap()
                        .interactions as f64
                })
                .collect()
        };
        let naive = sample(false);
        let leap = sample(true);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let var = |v: &[f64], m: f64| {
            v.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (v.len() - 1) as f64
        };
        let (mn, ml) = (mean(&naive), mean(&leap));
        let se = ((var(&naive, mn) + var(&leap, ml)) / trials as f64).sqrt();
        let z = (mn - ml) / se;
        assert!(
            z.abs() < 4.0,
            "kernel means diverge: z = {z:.2} (naive {mn:.0}, leap {ml:.0})"
        );
    }
}
