//! The tau-leap **batch kernel**: whole batches of rule firings per step.
//!
//! ## Propensity model
//!
//! Under the uniform random scheduler each interaction draws an ordered
//! pair of distinct agents uniformly from the `T = n(n−1)` possibilities.
//! Every ordered state pair `(p, q)` whose transition is not the identity
//! is a *channel* `i` with weight
//!
//! ```text
//! w_i(c) = c_p · (c_q − [p = q])
//! ```
//!
//! so a single interaction fires channel `i` with probability `w_i / T`
//! and is an identity with probability `W_id / T`, where
//! `Σ_i w_i = W_eff = T − W_id` exactly (the channels partition the
//! non-identity pairs). **Freezing the propensities** over a horizon of
//! `tau` interactions, the number of effective firings is
//! `F ~ Binomial(tau, W_eff / T)` and the per-channel counts are the
//! multinomial split of `F` proportional to `w_i` — sampled here by
//! binomial splitting, one [`sample_binomial`] draw per enabled channel.
//! One leap therefore costs O(|channels|) regardless of how many of the
//! `tau` interactions it covers, against the leap kernel's one sampling
//! step per *effective* interaction.
//!
//! ## Error bound (the tau-leap approximation, clearly labelled)
//!
//! The *only* approximation is the propensity freeze: real propensities
//! drift as counts change inside the leap. The horizon is chosen with the
//! standard Cao–Gillespie–Petzold bound — `tau` small enough that every
//! reactant state's expected count change and its standard deviation stay
//! within `max(ε · c_s, 1)`:
//!
//! ```text
//! tau ≤ min_s  max(ε c_s, 1) · T / |μ_s|,   max(ε c_s, 1)² · T / σ²_s
//! μ_s  = Σ_i d_{i,s} · w_i        (net drift of state s per interaction · T)
//! σ²_s = Σ_i d²_{i,s} · w_i
//! ```
//!
//! so relative propensity drift per leap is O(ε). Two further bounded
//! approximations: the binomial sampler switches to a normal
//! approximation above mean ≈ 32 (error exponentially small in the
//! mean), and firings inside one leap are unordered (observers see
//! leap-granular, not interaction-granular, trajectories — see
//! [`Observer::on_leap_batch`]). Statistics of the *stabilised* outcome
//! are protected by the fallback policy below; distribution tests in
//! `tests/batch_kernel.rs` bound the residual error empirically.
//!
//! ## Fallback policy (terminal behaviour is exact)
//!
//! Before each leap the kernel re-checks eligibility and hands control to
//! **exact stepping** for a burst of [`BatchConfig::exact_burst`]
//! composite steps. An exact step draws the same geometric skip and
//! conditional pair as the leap kernel ([`crate::simulator::Kernel::Leap`])
//! and reaches the same values, but applies the firing through its
//! channel's precompiled deltas ([`BatchCore::fire`]) rather than the leap
//! kernel's four per-state updates. The kernel falls back when:
//!
//! * **near convergence** — the stability tracker's
//!   [`StabilityTracker::violations_hint`] is at most
//!   [`BatchConfig::near_convergence_violations`]: the endgame that
//!   decides the paper's §5 metric is simulated exactly;
//! * **low counts** — channels whose reactant counts are at or below
//!   [`BatchConfig::safety_threshold`] carry enough propensity that a
//!   leap of useful size would likely fire them (`tau` is capped so the
//!   *expected* number of low-count firings per leap stays below one;
//!   when that cap squeezes the leap under [`BatchConfig::min_batch`]
//!   expected firings, the kernel steps exactly instead) — low-count
//!   species are where tau-leaping's error concentrates;
//! * **small leap** — the ε bound itself yields fewer than
//!   [`BatchConfig::min_batch`] expected firings: exact stepping is
//!   cheaper than a degenerate multinomial;
//! * **overdraw** — [`BatchConfig::max_retries`] tau-halvings could not
//!   produce a draw keeping every count non-negative.
//!
//! Eligibility checks consume **no randomness**, so a configuration that
//! always falls back (e.g. `safety_threshold = n`) makes the batch kernel
//! consume the RNG identically to the leap kernel and produce the same
//! values —
//! the bit-identity contract the full-fallback proptest in
//! `tests/batch_kernel.rs` pins down.

use crate::leap::{sample_identity_run, IdentityDelta, IdentityWeights};
use crate::observer::{FallbackReason, Observer};
use crate::protocol::{CompiledProtocol, StateId};
use crate::stability::{StabilityCriterion, StabilityTracker};
use rand::rngs::SmallRng;
use rand::RngCore;

/// Tuning knobs of the batch kernel. The defaults are deliberately
/// conservative; `safety_threshold = n` makes every step fall back, and
/// the run is then bit-identical to the leap kernel's.
#[derive(Clone, Copy, Debug)]
pub struct BatchConfig {
    /// Relative propensity-drift bound ε per leap (Cao-style tau
    /// selection): expected count change of any reactant state inside one
    /// leap stays within `max(ε · c_s, 1)`.
    pub epsilon: f64,
    /// Reactant counts at or below this are *low*: leaps are capped so
    /// low-count channels are not expected to fire inside them.
    pub safety_threshold: u64,
    /// Minimum expected effective firings for a leap to be worth taking;
    /// below it the kernel steps exactly.
    pub min_batch: u64,
    /// Number of exact composite steps per fallback burst before
    /// eligibility is re-evaluated.
    pub exact_burst: u64,
    /// Fall back for good-measure exactness once the stability tracker
    /// reports at most this many violated constraints.
    pub near_convergence_violations: u64,
    /// Tau-halving retries when a drawn leap would push a count negative.
    pub max_retries: u32,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            epsilon: 0.05,
            safety_threshold: 16,
            min_batch: 16,
            exact_burst: 64,
            near_convergence_violations: 3,
            max_retries: 3,
        }
    }
}

/// One non-identity ordered state pair, with its full per-firing effect.
#[derive(Clone, Debug)]
struct Channel {
    p: usize,
    q: usize,
    /// Net per-firing count deltas, pre-combined over `(p, −1)`, `(q, −1)`,
    /// `(p2, +1)`, `(q2, +1)` (at most 4 distinct states, zeros dropped).
    deltas: Vec<(usize, i64)>,
    /// The firing's effect on the identity weights.
    identity: IdentityDelta,
}

/// The compiled rule set of the batch kernel: one [`Channel`] per
/// non-identity ordered state pair, compiled once per run.
#[derive(Clone, Debug)]
pub struct BatchCore {
    channels: Vec<Channel>,
    /// `pair_channel[p · |Q| + q]`: index of the channel of `(p, q)`
    /// (`u32::MAX` for identity pairs).
    pair_channel: Vec<u32>,
    num_states: usize,
}

impl BatchCore {
    /// Compile the channel set of `proto`.
    pub fn compile(proto: &CompiledProtocol) -> Self {
        let num_states = proto.num_states();
        let channels: Vec<Channel> = proto
            .non_identity_rules()
            .into_iter()
            .map(|(p, q, p2, q2)| {
                let mut deltas: Vec<(usize, i64)> = Vec::with_capacity(4);
                for (s, d) in [
                    (p.index(), -1i64),
                    (q.index(), -1),
                    (p2.index(), 1),
                    (q2.index(), 1),
                ] {
                    match deltas.iter_mut().find(|(t, _)| *t == s) {
                        Some((_, acc)) => *acc += d,
                        None => deltas.push((s, d)),
                    }
                }
                deltas.retain(|&(_, d)| d != 0);
                Channel {
                    p: p.index(),
                    q: q.index(),
                    identity: IdentityDelta::new(proto, &deltas),
                    deltas,
                }
            })
            .collect();
        let mut pair_channel = vec![u32::MAX; num_states * num_states];
        for (i, ch) in channels.iter().enumerate() {
            pair_channel[ch.p * num_states + ch.q] = i as u32;
        }
        BatchCore {
            channels,
            pair_channel,
            num_states,
        }
    }

    /// Number of channels (non-identity ordered state pairs).
    pub fn num_channels(&self) -> usize {
        self.channels.len()
    }

    /// Fire the effective pair `(p, q)` once: apply its channel's net
    /// count deltas to `counts` and its precompiled identity-marginal
    /// deltas and `ΔW_id` to `weights`, in O(net deltas + marginal
    /// deltas). Returns the net deltas for the caller's other per-state
    /// bookkeeping (the stability tracker).
    ///
    /// Panics if `(p, q)` is an identity pair.
    pub fn fire(
        &self,
        p: StateId,
        q: StateId,
        counts: &mut [u64],
        weights: &mut IdentityWeights,
    ) -> &[(usize, i64)] {
        let ch =
            &self.channels[self.pair_channel[p.index() * self.num_states + q.index()] as usize];
        weights.apply_channel(&ch.deltas, &ch.identity);
        for &(s, d) in &ch.deltas {
            counts[s] = counts[s]
                .checked_add_signed(d)
                .expect("fired a channel whose reactants are absent");
        }
        &ch.deltas
    }
}

/// Reusable per-step workspace, fully reinitialised by every leap
/// attempt, so the hot loop allocates nothing.
#[derive(Clone, Debug, Default)]
pub(crate) struct Scratch {
    /// Per-channel weight `w_i` for the current configuration.
    weights: Vec<u64>,
    /// Per-state net count delta of the drawn leap.
    deltas: Vec<i64>,
    /// Per-state drift `μ_s` and variance `σ²_s` accumulators.
    mu: Vec<f64>,
    sigma2: Vec<f64>,
    /// Per-state flag: a reactant of some enabled channel.
    reactant: Vec<bool>,
}

impl Scratch {
    /// Workspace sized for `core`.
    pub fn new(core: &BatchCore) -> Self {
        Scratch {
            weights: vec![0; core.channels.len()],
            deltas: vec![0; core.num_states],
            mu: vec![0.0; core.num_states],
            sigma2: vec![0.0; core.num_states],
            reactant: vec![false; core.num_states],
        }
    }
}

/// Outcome of one [`BatchTrial::step`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum StepOutcome {
    /// The run continues.
    Continue,
    /// The configuration is stable; the trial is finished.
    Stable,
    /// The interaction budget is exhausted (or the configuration is
    /// frozen); the trial is censored.
    Limit,
}

/// Per-trial state of one batch-kernel run: the identity-weight algebra,
/// the incremental stability tracker, the interaction counters, and the
/// exact-burst countdown, driven by
/// [`crate::simulator::Simulator::run_batch_configured`].
pub(crate) struct BatchTrial<'a> {
    weights: IdentityWeights,
    tracker: Box<dyn StabilityTracker + 'a>,
    /// Cumulative interactions (identities included), the paper's metric.
    pub interactions: u64,
    /// Cumulative effective (state-changing) interactions.
    pub effective: u64,
    /// Remaining exact composite steps in the current fallback burst.
    exact_left: u64,
}

impl<'a> BatchTrial<'a> {
    /// Trial state for configuration `counts` under `criterion`.
    ///
    /// The caller has already checked that `counts` is not initially
    /// stable and that `n ≥ 2` (as [`crate::simulator::Simulator`] does).
    pub fn new<C: StabilityCriterion>(
        proto: &CompiledProtocol,
        criterion: &'a C,
        counts: &[u64],
    ) -> Self {
        BatchTrial {
            weights: IdentityWeights::new(proto, counts),
            tracker: criterion.tracker(proto, counts),
            interactions: 0,
            effective: 0,
            exact_left: 0,
        }
    }

    /// Advance the trial by one step: either one tau-leap or one exact
    /// composite step (identity run + one effective interaction),
    /// depending on eligibility.
    #[allow(clippy::too_many_arguments)]
    pub fn step<O: Observer>(
        &mut self,
        proto: &CompiledProtocol,
        core: &BatchCore,
        counts: &mut [u64],
        n: u64,
        rng: &mut SmallRng,
        max_interactions: u64,
        cfg: &BatchConfig,
        scratch: &mut Scratch,
        observer: &mut O,
    ) -> StepOutcome {
        let total = n * (n - 1);
        if self.exact_left == 0 {
            match self.try_leap(
                proto,
                core,
                counts,
                rng,
                total,
                max_interactions,
                cfg,
                scratch,
                observer,
            ) {
                LeapOutcome::Done(out) => return out,
                LeapOutcome::Fallback(reason) => {
                    observer.on_batch_fallback(reason);
                    self.exact_left = cfg.exact_burst.max(1);
                }
            }
        }
        self.exact_left -= 1;
        self.exact_step(
            proto,
            core,
            counts,
            n,
            total,
            rng,
            max_interactions,
            observer,
        )
    }

    /// One exact composite step: an identity run, then one effective
    /// interaction applied through its channel's precompiled deltas
    /// (counts, identity weights and tracker in O(net deltas + marginal
    /// deltas)). It draws the same randomness and produces the same
    /// values, counters and observer events as one step of
    /// the leap kernel ([`crate::simulator::Kernel::Leap`]); the bitwise
    /// full-fallback proptest in `tests/batch_kernel.rs` pins that.
    #[allow(clippy::too_many_arguments)]
    fn exact_step<O: Observer>(
        &mut self,
        proto: &CompiledProtocol,
        core: &BatchCore,
        counts: &mut [u64],
        n: u64,
        total: u64,
        rng: &mut SmallRng,
        max_interactions: u64,
        observer: &mut O,
    ) -> StepOutcome {
        let w_id = self.weights.identity_weight();
        if w_id == total {
            // Every enabled pair is an identity: frozen configuration.
            return StepOutcome::Limit;
        }
        let g = sample_identity_run(rng, w_id, total);
        if g >= max_interactions - self.interactions {
            return StepOutcome::Limit;
        }
        if g > 0 {
            self.interactions += g;
            observer.on_identity_run(self.interactions, g, counts);
        }
        let (p, q) = self.weights.sample_effective(proto, n, counts, rng);
        let (p2, q2) = proto.delta(p, q);
        self.interactions += 1;
        self.effective += 1;
        for &(s, d) in core.fire(p, q, counts, &mut self.weights) {
            self.tracker.apply_delta(StateId(s as u16), d);
        }
        observer.on_interaction(self.interactions, p, q, p2, q2, counts);
        if self.tracker.is_stable(proto, counts) {
            StepOutcome::Stable
        } else {
            StepOutcome::Continue
        }
    }

    /// Attempt one tau-leap. Consumes randomness only once eligibility is
    /// established — a fallback decision is RNG-free.
    #[allow(clippy::too_many_arguments)]
    fn try_leap<O: Observer>(
        &mut self,
        proto: &CompiledProtocol,
        core: &BatchCore,
        counts: &mut [u64],
        rng: &mut SmallRng,
        total: u64,
        max_interactions: u64,
        cfg: &BatchConfig,
        scratch: &mut Scratch,
        observer: &mut O,
    ) -> LeapOutcome {
        // Terminal exactness first: close to stability, hand over.
        if let Some(v) = self.tracker.violations_hint() {
            if v <= cfg.near_convergence_violations {
                return LeapOutcome::Fallback(FallbackReason::NearConvergence);
            }
        }

        // Channel weights for the frozen configuration.
        let mut w_eff: u64 = 0;
        let mut w_low: u64 = 0;
        scratch.reactant.iter_mut().for_each(|r| *r = false);
        for (i, ch) in core.channels.iter().enumerate() {
            let cp = counts[ch.p];
            let cq = counts[ch.q];
            // w_i = c_p · (c_q − [p = q]): a self-pair needs two agents.
            let w = if ch.p == ch.q {
                cp * cp.saturating_sub(1)
            } else {
                cp * cq
            };
            scratch.weights[i] = w;
            if w == 0 {
                continue;
            }
            w_eff += w;
            scratch.reactant[ch.p] = true;
            scratch.reactant[ch.q] = true;
            if cp <= cfg.safety_threshold || cq <= cfg.safety_threshold {
                w_low += w;
            }
        }
        debug_assert_eq!(w_eff, total - self.weights.identity_weight());
        if w_eff == 0 {
            // Frozen configuration — same verdict the leap kernel reaches via its
            // w_id == total check, with no randomness drawn.
            return LeapOutcome::Done(StepOutcome::Limit);
        }

        // Cao-style tau selection over reactant states.
        let total_f = total as f64;
        let w_eff_f = w_eff as f64;
        scratch.mu.iter_mut().for_each(|x| *x = 0.0);
        scratch.sigma2.iter_mut().for_each(|x| *x = 0.0);
        for (i, ch) in core.channels.iter().enumerate() {
            let w = scratch.weights[i] as f64;
            if w == 0.0 {
                continue;
            }
            for &(s, d) in &ch.deltas {
                let d = d as f64;
                scratch.mu[s] += d * w;
                scratch.sigma2[s] += d * d * w;
            }
        }
        let remaining = max_interactions - self.interactions;
        let mut tau = remaining as f64;
        // One bound per distinct reactant state of an enabled channel (a
        // minimum, so independent of visiting order and repeats).
        for (s, _) in scratch.reactant.iter().enumerate().filter(|(_, &r)| r) {
            let bound = (cfg.epsilon * counts[s] as f64).max(1.0);
            let mu = scratch.mu[s];
            if mu != 0.0 {
                tau = tau.min(bound * total_f / mu.abs());
            }
            let s2 = scratch.sigma2[s];
            if s2 > 0.0 {
                tau = tau.min(bound * bound * total_f / s2);
            }
        }
        if tau * w_eff_f / total_f < cfg.min_batch as f64 {
            return LeapOutcome::Fallback(FallbackReason::SmallLeap);
        }
        if w_low > 0 {
            // Cap so low-count channels are not *expected* to fire within
            // the leap (hybrid tau-leap/exact partitioning).
            let tau_low = total_f / w_low as f64;
            if tau_low * w_eff_f / total_f < cfg.min_batch as f64 {
                return LeapOutcome::Fallback(FallbackReason::LowCount);
            }
            tau = tau.min(tau_low);
        }
        let mut tau = (tau.floor() as u64).clamp(1, remaining);

        // Draw the leap, halving tau when a draw would overdraw a state.
        for attempt in 0..=cfg.max_retries {
            let f = sample_binomial(rng, tau, w_eff_f / total_f);
            // Binomial splitting of the multinomial over channels.
            scratch.deltas.iter_mut().for_each(|d| *d = 0);
            let mut left_f = f;
            let mut left_w = w_eff;
            for (i, ch) in core.channels.iter().enumerate() {
                if left_f == 0 {
                    break;
                }
                let w = scratch.weights[i];
                if w == 0 {
                    continue;
                }
                let fi = if w == left_w {
                    left_f
                } else {
                    sample_binomial(rng, left_f, w as f64 / left_w as f64)
                };
                left_f -= fi;
                left_w -= w;
                if fi > 0 {
                    for &(s, d) in &ch.deltas {
                        scratch.deltas[s] += d * fi as i64;
                    }
                }
                if left_w == 0 {
                    break;
                }
            }
            let overdraw = scratch
                .deltas
                .iter()
                .enumerate()
                .any(|(s, &d)| (counts[s] as i128) + i128::from(d) < 0);
            if overdraw {
                if attempt == cfg.max_retries {
                    return LeapOutcome::Fallback(FallbackReason::Overdraw);
                }
                tau = (tau / 2).max(1);
                continue;
            }

            // Commit the leap: counts, tracker, identity weights, counters.
            for (s, &d) in scratch.deltas.iter().enumerate() {
                if d != 0 {
                    counts[s] = ((counts[s] as i128) + i128::from(d)) as u64;
                    self.tracker.apply_delta(StateId(s as u16), d);
                }
            }
            self.weights = IdentityWeights::new(proto, counts);
            self.interactions += tau;
            self.effective += f;
            observer.on_leap_batch(self.interactions, tau, f, counts);
            if self.tracker.is_stable(proto, counts) {
                return LeapOutcome::Done(StepOutcome::Stable);
            }
            if self.interactions >= max_interactions {
                return LeapOutcome::Done(StepOutcome::Limit);
            }
            return LeapOutcome::Done(StepOutcome::Continue);
        }
        unreachable!("overdraw loop returns on its last attempt");
    }
}

/// Internal verdict of a leap attempt.
enum LeapOutcome {
    /// A leap (or a terminal verdict) happened; the step is over.
    Done(StepOutcome),
    /// No leap: fall back to exact stepping for a burst.
    Fallback(FallbackReason),
}

/// A uniform deviate in `[0, 1)` from the top 53 bits of one `u64`.
#[inline]
fn uniform53(rng: &mut SmallRng) -> f64 {
    ((rng.next_u64() >> 11) as f64) / ((1u64 << 53) as f64)
}

/// A standard normal deviate via Box–Muller (two uniforms per call; the
/// second Box–Muller root is discarded to keep the draw-count per call
/// fixed per call).
#[inline]
fn sample_std_normal(rng: &mut SmallRng) -> f64 {
    // First uniform shifted into (0, 1] so the logarithm is finite.
    let u1 = (((rng.next_u64() >> 11) + 1) as f64) / ((1u64 << 53) as f64);
    let u2 = uniform53(rng);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Draw `Binomial(t, p)`.
///
/// Exact CDF-inversion walk while the rarer-outcome mean is below ~32
/// (one uniform, expected O(mean) iterations); above that, the normal
/// approximation with continuity correction, clamped to `[0, t]` — a
/// bounded-error regime whose deviation from the exact law is
/// exponentially small in the mean (see the module docs' error model).
pub fn sample_binomial(rng: &mut SmallRng, t: u64, p: f64) -> u64 {
    if t == 0 || p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return t;
    }
    // Sample the rarer outcome for numerical stability.
    if p > 0.5 {
        return t - sample_binomial_small_p(rng, t, 1.0 - p);
    }
    sample_binomial_small_p(rng, t, p)
}

/// `Binomial(t, p)` for `p ≤ 0.5`.
fn sample_binomial_small_p(rng: &mut SmallRng, t: u64, p: f64) -> u64 {
    let mean = t as f64 * p;
    if mean < 32.0 {
        // Inversion: walk the CDF from k = 0. `pdf` underflow is
        // impossible here (|t · ln(1 − p)| ≤ 2 · mean < 64).
        let tf = t as f64;
        let r = p / (1.0 - p);
        let mut pdf = (tf * (1.0 - p).ln()).exp();
        let mut cdf = pdf;
        let u = uniform53(rng);
        let mut k: u64 = 0;
        // The walk is capped ~40σ past the mean: P(overshoot) is far
        // below 2⁻⁵³, so the cap only guards degenerate float states.
        let cap = (mean + 40.0 * (mean + 1.0).sqrt()).ceil() as u64;
        while u > cdf && k < t && k <= cap {
            k += 1;
            pdf *= ((t - k + 1) as f64 / k as f64) * r;
            cdf += pdf;
        }
        k.min(t)
    } else {
        // Normal approximation with continuity correction (labelled
        // bounded-error; mean ≥ 32 keeps the tails negligible).
        let sd = (t as f64 * p * (1.0 - p)).sqrt();
        let x = mean + sd * sample_std_normal(rng) + 0.5;
        if x <= 0.0 {
            0
        } else if x >= t as f64 {
            t
        } else {
            x as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::NullObserver;
    use crate::population::{CountPopulation, Population};
    use crate::scheduler::UniformRandomScheduler;
    use crate::simulator::{Kernel, Simulator};
    use crate::spec::ProtocolSpec;
    use crate::stability::Silent;
    use rand::SeedableRng;

    fn epidemic() -> CompiledProtocol {
        let mut spec = ProtocolSpec::new("epidemic");
        let s = spec.add_state("S", 1);
        let i = spec.add_state("I", 2);
        spec.set_initial(s);
        spec.add_rule_symmetric(i, s, i, i);
        spec.compile().unwrap()
    }

    #[test]
    fn binomial_moments_small_mean() {
        let mut rng = SmallRng::seed_from_u64(42);
        let (t, p) = (100u64, 0.05);
        let trials = 50_000;
        let samples: Vec<f64> = (0..trials)
            .map(|_| sample_binomial(&mut rng, t, p) as f64)
            .collect();
        let mean = samples.iter().sum::<f64>() / trials as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (trials - 1) as f64;
        // Exact regime: mean 5, var 4.75.
        assert!((mean - 5.0).abs() < 0.06, "mean = {mean}");
        assert!((var - 4.75).abs() < 0.2, "var = {var}");
    }

    #[test]
    fn binomial_moments_normal_regime() {
        let mut rng = SmallRng::seed_from_u64(43);
        let (t, p) = (1_000_000u64, 0.25);
        let trials = 20_000;
        let samples: Vec<f64> = (0..trials)
            .map(|_| sample_binomial(&mut rng, t, p) as f64)
            .collect();
        let mean = samples.iter().sum::<f64>() / trials as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (trials - 1) as f64;
        // Normal-approximation regime: mean 250 000, var 187 500.
        assert!((mean - 250_000.0).abs() < 20.0, "mean = {mean}");
        assert!((var / 187_500.0 - 1.0).abs() < 0.05, "var = {var}");
    }

    #[test]
    fn binomial_symmetry_flip_and_edges() {
        let mut rng = SmallRng::seed_from_u64(44);
        assert_eq!(sample_binomial(&mut rng, 0, 0.3), 0);
        assert_eq!(sample_binomial(&mut rng, 10, 0.0), 0);
        assert_eq!(sample_binomial(&mut rng, 10, 1.0), 10);
        for _ in 0..1000 {
            let x = sample_binomial(&mut rng, 7, 0.9);
            assert!(x <= 7);
        }
        // p close to 1 has mean close to t.
        let trials = 20_000;
        let sum: u64 = (0..trials)
            .map(|_| sample_binomial(&mut rng, 50, 0.98))
            .sum();
        let mean = sum as f64 / trials as f64;
        assert!((mean - 49.0).abs() < 0.05, "mean = {mean}");
    }

    #[test]
    fn batch_core_channels_cover_non_identity_pairs() {
        let proto = epidemic();
        let core = BatchCore::compile(&proto);
        // Epidemic: (I, S) and (S, I) are the only non-identity pairs.
        assert_eq!(core.num_channels(), 2);
        // Net deltas: S −1, I +1 for both orderings.
        for ch in &core.channels {
            let mut d = ch.deltas.clone();
            d.sort();
            assert_eq!(d, vec![(0, -1), (1, 1)]);
        }
    }

    #[test]
    fn channel_firings_match_per_state_deltas_and_recompute() {
        // Random protocols cover every rule shape: catalysts whose −1/+1
        // cancel, self-pairs, swaps, and double deltas on one state.
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..40 {
            let m = 2 + (rng.next_u64() % 5) as usize;
            let mut spec = ProtocolSpec::new("random");
            let states: Vec<StateId> = (0..m).map(|i| spec.add_state(format!("s{i}"), 1)).collect();
            spec.set_initial(states[0]);
            for &p in &states {
                for &q in &states {
                    if rng.next_u64() % 2 == 0 {
                        let p2 = states[(rng.next_u64() % m as u64) as usize];
                        let q2 = states[(rng.next_u64() % m as u64) as usize];
                        spec.add_rule(p, q, p2, q2);
                    }
                }
            }
            let proto = spec.compile().unwrap();
            let core = BatchCore::compile(&proto);
            let n = 40u64;
            let mut counts = vec![0u64; m];
            for _ in 0..n {
                counts[(rng.next_u64() % m as u64) as usize] += 1;
            }
            let mut fast = IdentityWeights::new(&proto, &counts);
            let mut reference = fast.clone();
            for _ in 0..200 {
                if fast.identity_weight() == n * (n - 1) {
                    break;
                }
                let (p, q) = fast.sample_effective(&proto, n, &counts, &mut rng);
                let (p2, q2) = proto.delta(p, q);
                for (s, d) in [(p, -1), (q, -1), (p2, 1), (q2, 1)] {
                    reference.apply_delta(&proto, s, d);
                }
                core.fire(p, q, &mut counts, &mut fast);
                assert_eq!(fast, reference);
                assert_eq!(fast, IdentityWeights::new(&proto, &counts));
            }
        }
    }

    #[test]
    fn batch_takes_leaps_on_large_populations() {
        let proto = epidemic();
        let s = proto.state_by_name("S").unwrap();
        let i = proto.state_by_name("I").unwrap();
        let mut pop = CountPopulation::new(&proto, 100_000);
        pop.set_count(s, 99_999);
        pop.set_count(i, 1);
        let mut sched = UniformRandomScheduler::from_seed(7);
        struct LeapCounter {
            batches: u64,
            fallbacks: u64,
        }
        impl Observer for LeapCounter {
            fn on_interaction(
                &mut self,
                _s: u64,
                _p: StateId,
                _q: StateId,
                _p2: StateId,
                _q2: StateId,
                _c: &[u64],
            ) {
            }
            fn on_leap_batch(&mut self, _l: u64, tau: u64, _e: u64, _c: &[u64]) {
                assert!(tau >= 1);
                self.batches += 1;
            }
            fn on_batch_fallback(&mut self, _r: FallbackReason) {
                self.fallbacks += 1;
            }
        }
        let mut obs = LeapCounter {
            batches: 0,
            fallbacks: 0,
        };
        let res = Simulator::new(&proto)
            .run_batch_observed(&mut pop, &mut sched, &Silent, u64::MAX, &mut obs)
            .unwrap();
        assert_eq!(pop.count(i), 100_000);
        assert_eq!(res.effective_interactions, 99_999);
        // The mid-run regime must actually engage the leap path, and the
        // endgame must have handed back to exact stepping at least once.
        assert!(obs.batches > 10, "batches = {}", obs.batches);
        assert!(obs.fallbacks >= 1, "fallbacks = {}", obs.fallbacks);
    }

    #[test]
    fn batch_full_fallback_matches_leap_bitwise() {
        // safety_threshold = n: every step falls back, so the batch kernel
        // must replicate the leap kernel's RNG consumption and counters
        // exactly.
        let proto = epidemic();
        let s = proto.state_by_name("S").unwrap();
        let i = proto.state_by_name("I").unwrap();
        let n = 300u64;
        for seed in [1u64, 7, 42] {
            let mut pop_a = CountPopulation::new(&proto, n);
            pop_a.set_count(s, n - 1);
            pop_a.set_count(i, 1);
            let mut sched_a = UniformRandomScheduler::from_seed(seed);
            let leap = Simulator::new(&proto)
                .run_kernel(
                    Kernel::Leap,
                    &mut pop_a,
                    &mut sched_a,
                    &Silent,
                    u64::MAX,
                    &mut NullObserver,
                )
                .unwrap();

            let mut pop_b = CountPopulation::new(&proto, n);
            pop_b.set_count(s, n - 1);
            pop_b.set_count(i, 1);
            let mut sched_b = UniformRandomScheduler::from_seed(seed);
            let cfg = BatchConfig {
                safety_threshold: n,
                ..BatchConfig::default()
            };
            let batch = Simulator::new(&proto)
                .run_batch_configured(
                    &mut pop_b,
                    &mut sched_b,
                    &Silent,
                    u64::MAX,
                    &cfg,
                    &mut NullObserver,
                )
                .unwrap();
            assert_eq!(leap, batch, "seed {seed}");
            assert_eq!(pop_a.counts(), pop_b.counts(), "seed {seed}");
        }
    }
}
