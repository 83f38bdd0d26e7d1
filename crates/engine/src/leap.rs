//! The leap kernel's algebra: identity-pair weights and batched skips.
//!
//! Under the uniform random scheduler, the next interaction draws an
//! ordered pair of distinct agents uniformly from the `T = n(n−1)`
//! possibilities. In configuration `c` the number of those pairs whose
//! transition is the *identity* is
//!
//! ```text
//! W_id(c) = Σ_{p,q} id(p, q) · c_p · (c_q − [p = q])
//! ```
//!
//! so each step is an identity with probability `ρ = W_id / T`,
//! independently of everything else, *as long as the configuration does
//! not change* — and identity interactions are exactly the ones that do
//! not change it. The number `G` of consecutive identity interactions
//! before the next effective one is therefore geometric:
//! `P(G = g) = ρ^g (1 − ρ)`. The leap kernel samples `G` in closed form
//! (inversion: `G = ⌊ln U / ln ρ⌋` for `U` uniform on `(0, 1]`), credits
//! `G` interactions to the paper's §5 counter in O(1), and then samples
//! one pair from the conditional distribution on *effective* pairs. The
//! composite process has exactly the law of the naive one-step loop; the
//! only deviation is the f64 rounding inside the geometric inversion
//! (one sample from a distribution within ~2⁻⁵³ of exact), which is far
//! below statistical resolution at any feasible trial count.
//!
//! [`IdentityWeights`] maintains `W_id` incrementally: per applied
//! transition (four ±1 count deltas) the update costs O(|Q|), against the
//! O(1) lookup cost of the naive loop — a trade that wins whenever the
//! expected identity-run length exceeds a few |Q|, which is precisely the
//! stabilisation-dominated regime the paper's large-`n` measurements live
//! in. `IdentityWeights::apply_channel` folds a whole transition from
//! its precompiled `IdentityDelta` in O(non-zero entries) instead; the
//! batch kernel's exact steps use it, while the leap kernel keeps the
//! per-state path as the reference.

use crate::protocol::{CompiledProtocol, StateId};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore};

/// Maintained weight of identity ordered pairs in the current
/// configuration, with per-state row/column marginals for O(|Q|) updates
/// and O(occupied states) conditional sampling.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IdentityWeights {
    /// `row[p] = Σ_q id(p, q) · c_q` — identity mass of state `p` as
    /// first participant, per agent of `p` (before the `p = q` exclusion).
    row: Vec<u64>,
    /// `col[s] = Σ_p id(p, s) · c_p` — identity mass of state `s` as
    /// second participant, per agent of `s`.
    col: Vec<u64>,
    /// `diag[p] = id(p, p)` cached.
    diag: Vec<bool>,
    /// `W_id` for the current configuration.
    w_id: u64,
}

impl IdentityWeights {
    /// Compute the weights of configuration `counts` from scratch
    /// (O(|Q|²)); done once per run.
    pub fn new(proto: &CompiledProtocol, counts: &[u64]) -> Self {
        let m = counts.len();
        debug_assert_eq!(m, proto.num_states());
        let mut row = vec![0u64; m];
        let mut col = vec![0u64; m];
        let mut diag = vec![false; m];
        for p in 0..m {
            let id_row = proto.identity_row(StateId(p as u16));
            diag[p] = id_row[p];
            let mut r = 0;
            for (q, &cq) in counts.iter().enumerate() {
                if id_row[q] {
                    r += cq;
                    col[q] += counts[p];
                }
            }
            row[p] = r;
        }
        // W_id = Σ_p c_p·(row[p] − id(p,p)): the [p = q] exclusion removes
        // one pairing per agent of each identity-diagonal state. When
        // c_p ≥ 1 and id(p,p), row[p] ≥ c_p ≥ 1, so the subtraction is safe.
        let w_id: u64 = counts
            .iter()
            .enumerate()
            .map(|(p, &cp)| {
                if cp == 0 {
                    0
                } else {
                    cp * (row[p] - u64::from(diag[p]))
                }
            })
            .sum();
        IdentityWeights {
            row,
            col,
            diag,
            w_id,
        }
    }

    /// Current `W_id`: the number of ordered agent pairs whose interaction
    /// would be an identity.
    #[inline(always)]
    pub fn identity_weight(&self) -> u64 {
        self.w_id
    }

    /// Fold one count delta (`delta ∈ {−1, +1}`) on state `s`, keeping
    /// `W_id` and the marginals exact. O(|Q|).
    ///
    /// With `R = row[s]`, `C = col[s]` *before* the delta,
    /// `ΔW_id = δ·(R + C) + (δ² − δ)·id(s, s)` — the algebraic expansion
    /// of `W_id` under `c_s → c_s + δ` (the `(δ² − δ)` term folds the
    /// diagonal product change and the `[p = q]` exclusion together).
    #[inline]
    pub fn apply_delta(&mut self, proto: &CompiledProtocol, s: StateId, delta: i64) {
        debug_assert!(delta == 1 || delta == -1);
        let si = s.index();
        let rc = self.row[si] + self.col[si];
        if delta > 0 {
            self.w_id += rc;
        } else {
            self.w_id = self.w_id + 2 * u64::from(self.diag[si]) - rc;
        }
        let id_col = proto.identity_col(s); // id(p, s): feeds row[p]
        let id_row = proto.identity_row(s); // id(s, p): feeds col[p]
        if delta > 0 {
            for (p, (&in_row, &in_col)) in id_col.iter().zip(id_row).enumerate() {
                self.row[p] += u64::from(in_row);
                self.col[p] += u64::from(in_col);
            }
        } else {
            for (p, (&in_row, &in_col)) in id_col.iter().zip(id_row).enumerate() {
                self.row[p] -= u64::from(in_row);
                self.col[p] -= u64::from(in_col);
            }
        }
    }

    /// Fold one firing of a precompiled transition: net count deltas
    /// `deltas` (`(s, d_s)`, zeros dropped) and their [`IdentityDelta`].
    /// Leaves the weights exactly as the per-state [`Self::apply_delta`]
    /// sequence would, in O(|deltas| + |marginal deltas|) instead of
    /// O(|Q|) per participant.
    ///
    /// With `row`/`col` read *before* the firing,
    /// `ΔW_id = Σ_s d_s·(row[s] + col[s]) + K`, where `K` is the
    /// count-independent [`IdentityDelta`] constant.
    #[inline]
    pub(crate) fn apply_channel(&mut self, deltas: &[(usize, i64)], effect: &IdentityDelta) {
        const OUT_OF_SYNC: &str = "channel deltas out of sync with the identity weights";
        let mut dw = effect.w_id_const;
        for &(s, d) in deltas {
            dw += d * (self.row[s] + self.col[s]) as i64;
        }
        self.w_id = self.w_id.checked_add_signed(dw).expect(OUT_OF_SYNC);
        for &(x, dr, dc) in &effect.marginals {
            self.row[x] = self.row[x].checked_add_signed(dr).expect(OUT_OF_SYNC);
            self.col[x] = self.col[x].checked_add_signed(dc).expect(OUT_OF_SYNC);
        }
    }

    /// Sample an ordered pair of distinct agents conditioned on the
    /// interaction being *effective* (non-identity), with the exact
    /// conditional distribution of the uniform random scheduler.
    ///
    /// Takes the population as a raw `(n, counts)` pair so callers that
    /// work on detached count vectors (the batch kernel's exact-fallback
    /// steps) can share this code path bit-for-bit with the leap kernel
    /// ([`crate::simulator::Kernel::Leap`]).
    ///
    /// Requires `W_eff = n(n−1) − W_id > 0`. Cost is O(occupied states)
    /// for the row scan plus O(|Q|) for the column scan of the chosen row.
    pub fn sample_effective(
        &self,
        proto: &CompiledProtocol,
        n: u64,
        counts: &[u64],
        rng: &mut SmallRng,
    ) -> (StateId, StateId) {
        let total = n * (n - 1);
        let w_eff = total - self.w_id;
        debug_assert!(w_eff > 0, "no effective pair enabled");
        let mut target = rng.gen_range(0..w_eff);
        for (pi, &cp) in counts.iter().enumerate() {
            if cp == 0 {
                continue;
            }
            let d = u64::from(self.diag[pi]);
            // Effective weight of row p: c_p·(n−1) total minus the row's
            // identity weight c_p·(row[p] − id(p,p)).
            debug_assert!(n - 1 + d >= self.row[pi]);
            let row_eff = cp * (n - 1 + d - self.row[pi]);
            if target >= row_eff {
                target -= row_eff;
                continue;
            }
            let p = StateId(pi as u16);
            let id_row = proto.identity_row(p);
            for (qi, &cq) in counts.iter().enumerate() {
                if id_row[qi] {
                    continue;
                }
                let w = cp * (cq - u64::from(qi == pi));
                if target < w {
                    return (p, StateId(qi as u16));
                }
                target -= w;
            }
            unreachable!("effective-pair column scan exhausted");
        }
        unreachable!("effective-pair row scan exhausted");
    }
}

/// The count-independent part of one transition's effect on
/// [`IdentityWeights`], for `IdentityWeights::apply_channel`.
///
/// Under net count deltas `d`, `row[x] = Σ_q id(x, q)·c_q` moves by
/// `Σ_s id(x, s)·d_s` and `col[x] = Σ_p id(p, x)·c_p` by
/// `Σ_s id(s, x)·d_s`; expanding
/// `W_id = Σ_{a,b} id(a, b)·c_a·c_b − Σ_a id(a, a)·c_a` gives
///
/// ```text
/// ΔW_id = Σ_s d_s·(row[s] + col[s]) + Σ_{a,b} id(a, b)·d_a·d_b − Σ_a id(a, a)·d_a
/// ```
///
/// whose last two sums depend on the transition alone.
#[derive(Clone, Debug)]
pub(crate) struct IdentityDelta {
    /// `(x, Δrow[x], Δcol[x])` for every `x` with a non-zero entry.
    marginals: Vec<(usize, i64, i64)>,
    /// `Σ_{a,b} id(a, b)·d_a·d_b − Σ_a id(a, a)·d_a`.
    w_id_const: i64,
}

impl IdentityDelta {
    /// Precompute the effect of net count deltas `deltas` (`(s, d_s)`)
    /// under `proto`'s identity relation. O(|deltas| · |Q|).
    pub(crate) fn new(proto: &CompiledProtocol, deltas: &[(usize, i64)]) -> Self {
        let m = proto.num_states();
        let mut marginals = Vec::new();
        for x in 0..m {
            let (mut dr, mut dc) = (0i64, 0i64);
            for &(s, d) in deltas {
                let s = StateId(s as u16);
                dr += i64::from(proto.identity_col(s)[x]) * d;
                dc += i64::from(proto.identity_row(s)[x]) * d;
            }
            if dr != 0 || dc != 0 {
                marginals.push((x, dr, dc));
            }
        }
        let mut w_id_const = 0i64;
        for &(a, da) in deltas {
            let id_row = proto.identity_row(StateId(a as u16));
            for &(b, db) in deltas {
                w_id_const += i64::from(id_row[b]) * da * db;
            }
            w_id_const -= i64::from(id_row[a]) * da;
        }
        IdentityDelta {
            marginals,
            w_id_const,
        }
    }
}

/// Sample the length of the maximal run of consecutive identity
/// interactions before the next effective one: `G ~ Geometric(1 − ρ)`
/// with `ρ = w_id / total`, via inversion `G = ⌊ln U / ln ρ⌋` for `U`
/// uniform on `(0, 1]`.
///
/// Requires `w_id < total` (some effective pair is enabled); saturates at
/// `u64::MAX`, which every caller treats as exceeding its remaining
/// interaction budget.
pub fn sample_identity_run(rng: &mut SmallRng, w_id: u64, total: u64) -> u64 {
    debug_assert!(w_id < total);
    if w_id == 0 {
        return 0;
    }
    // Clamp ρ strictly below 1.0: for total > 2^53 the f64 quotient can
    // round to exactly 1.0, which would make the inversion divide by zero.
    let rho = ((w_id as f64) / (total as f64)).min(1.0 - f64::EPSILON / 2.0);
    // 53 high bits of a u64, shifted into (0, 1]: never exactly 0, so the
    // logarithm is finite.
    let u = (((rng.next_u64() >> 11) + 1) as f64) / ((1u64 << 53) as f64);
    let g = u.ln() / rho.ln();
    debug_assert!(g >= 0.0);
    if g >= u64::MAX as f64 {
        u64::MAX
    } else {
        g as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::{CountPopulation, Population};
    use crate::spec::ProtocolSpec;
    use rand::SeedableRng;

    /// Epidemic: (I, S) and (S, I) are the only non-identity pairs.
    fn epidemic() -> CompiledProtocol {
        let mut spec = ProtocolSpec::new("epidemic");
        let s = spec.add_state("S", 1);
        let i = spec.add_state("I", 2);
        spec.set_initial(s);
        spec.add_rule_symmetric(i, s, i, i);
        spec.compile().unwrap()
    }

    /// Brute-force W_id for cross-checking.
    fn w_id_brute(proto: &CompiledProtocol, counts: &[u64]) -> u64 {
        let mut w = 0;
        for p in proto.states() {
            for q in proto.states() {
                if proto.is_identity(p, q) {
                    let cp = counts[p.index()];
                    let cq = counts[q.index()];
                    w += cp * (cq - u64::from(p == q).min(cq));
                }
            }
        }
        w
    }

    #[test]
    fn weights_match_brute_force() {
        let proto = epidemic();
        for counts in [[10, 0], [0, 10], [7, 3], [1, 1], [2, 0]] {
            let w = IdentityWeights::new(&proto, &counts);
            assert_eq!(
                w.identity_weight(),
                w_id_brute(&proto, &counts),
                "{counts:?}"
            );
        }
    }

    #[test]
    fn apply_delta_tracks_brute_force() {
        let proto = epidemic();
        let s = proto.state_by_name("S").unwrap();
        let i = proto.state_by_name("I").unwrap();
        let mut counts = vec![8u64, 2];
        let mut w = IdentityWeights::new(&proto, &counts);
        // Replay a sequence of infections (S count down, I count up).
        for _ in 0..8 {
            w.apply_delta(&proto, s, -1);
            counts[s.index()] -= 1;
            w.apply_delta(&proto, i, 1);
            counts[i.index()] += 1;
            assert_eq!(
                w.identity_weight(),
                w_id_brute(&proto, &counts),
                "{counts:?}"
            );
        }
        // And back down again (hypothetical reverse deltas).
        for _ in 0..4 {
            w.apply_delta(&proto, i, -1);
            counts[i.index()] -= 1;
            w.apply_delta(&proto, s, 1);
            counts[s.index()] += 1;
            assert_eq!(
                w.identity_weight(),
                w_id_brute(&proto, &counts),
                "{counts:?}"
            );
        }
    }

    #[test]
    fn effective_sampling_matches_conditional_distribution() {
        let proto = epidemic();
        let s = proto.state_by_name("S").unwrap();
        let i = proto.state_by_name("I").unwrap();
        let mut pop = CountPopulation::new(&proto, 10);
        pop.set_count(s, 6);
        pop.set_count(i, 4);
        let w = IdentityWeights::new(&proto, pop.counts());
        // Effective pairs: (S, I) weight 6·4 = 24, (I, S) weight 4·6 = 24.
        let mut rng = SmallRng::seed_from_u64(7);
        let trials = 20_000;
        let mut si = 0u32;
        for _ in 0..trials {
            let (p, q) = w.sample_effective(&proto, pop.num_agents(), pop.counts(), &mut rng);
            assert!(!proto.is_identity(p, q));
            if (p, q) == (s, i) {
                si += 1;
            } else {
                assert_eq!((p, q), (i, s));
            }
        }
        let frac = f64::from(si) / f64::from(trials);
        assert!((frac - 0.5).abs() < 0.02, "frac = {frac}");
    }

    #[test]
    fn identity_run_mean_matches_geometric() {
        // ρ = 3/4 → E[G] = ρ/(1−ρ) = 3.
        let mut rng = SmallRng::seed_from_u64(99);
        let trials = 100_000;
        let sum: u64 = (0..trials)
            .map(|_| sample_identity_run(&mut rng, 3, 4))
            .sum();
        let mean = sum as f64 / trials as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean = {mean}");
    }

    #[test]
    fn identity_run_zero_weight_is_zero() {
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(sample_identity_run(&mut rng, 0, 12), 0);
    }
}
