//! The 4-state uniform bipartition protocol (Yasumi et al., OPODIS 2017).
//!
//! The paper's prior work: a symmetric protocol with designated initial
//! states that divides the population into two groups of equal size (±1)
//! under global fairness, using four states — proved there to be both
//! necessary and sufficient for symmetric protocols. The mechanism is the
//! pairing trick the k-partition paper's introduction describes: whenever
//! an `initial` agent meets an `initial'` agent, the two settle into
//! *different* groups simultaneously, so group sizes stay equal by
//! construction. (This is precisely why the construction does not extend
//! beyond `k = 2`: a single interaction involves only two agents and
//! cannot populate `k > 2` groups at once — the motivation for the
//! k-partition protocol's chain mechanism.)
//!
//! The paper states that its Algorithm 1 instantiated at `k = 2` *is* this
//! protocol; `tests::matches_kpartition_at_k2` verifies the transition
//! tables agree state-for-state.

use pp_engine::protocol::{CompiledProtocol, StateId};
use pp_engine::spec::ProtocolSpec;
use pp_engine::stability::Signature;

/// The 4-state uniform bipartition protocol.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UniformBipartition;

impl UniformBipartition {
    /// The protocol handle.
    pub fn new() -> Self {
        UniformBipartition
    }

    /// The designated initial state.
    pub fn initial(&self) -> StateId {
        StateId(0)
    }

    /// The `initial'` state.
    pub fn initial_prime(&self) -> StateId {
        StateId(1)
    }

    /// Settled member of group 1.
    pub fn one(&self) -> StateId {
        StateId(2)
    }

    /// Settled member of group 2.
    pub fn two(&self) -> StateId {
        StateId(3)
    }

    /// Build the protocol description.
    pub fn spec(&self) -> ProtocolSpec {
        let mut spec = ProtocolSpec::new("uniform-bipartition");
        let ini = spec.add_state("initial", 1);
        let inip = spec.add_state("initial'", 1);
        let one = spec.add_state("g1", 1);
        let two = spec.add_state("g2", 2);
        spec.set_initial(ini);
        let flip = |s: StateId| if s == ini { inip } else { ini };
        spec.add_rule(ini, ini, inip, inip);
        spec.add_rule(inip, inip, ini, ini);
        spec.add_rule_symmetric(ini, inip, one, two);
        for x in [ini, inip] {
            for g in [one, two] {
                spec.add_rule_symmetric(g, x, g, flip(x));
            }
        }
        spec
    }

    /// Compile into the engine's dense-table form.
    pub fn compile(&self) -> CompiledProtocol {
        self.spec()
            .compile()
            .expect("bipartition spec is internally consistent")
    }

    /// Stable-configuration signature for population size `n`: `⌊n/2⌋`
    /// agents in each group, plus one perpetually flipping free agent when
    /// `n` is odd.
    pub fn stable_signature(&self, n: u64) -> Signature {
        let q = n / 2;
        if n % 2 == 0 {
            Signature::exact(vec![0, 0, q, q])
        } else {
            Signature::new(
                vec![None, None, Some(q), Some(q)],
                vec![(vec![self.initial(), self.initial_prime()], 1)],
            )
        }
    }

    /// Group sizes at stability: `⌈n/2⌉` and `⌊n/2⌋`.
    pub fn expected_group_sizes(&self, n: u64) -> Vec<u64> {
        vec![n - n / 2, n / 2]
    }
}

/// A 3-state **asymmetric** bipartition protocol — what giving up
/// symmetry buys.
///
/// The paper restricts itself to symmetric protocols, where two agents in
/// the same state must leave an interaction in the same state; that is
/// why `initial'` exists (4 states total, proved optimal for the
/// symmetric class in Yasumi et al. 2017). Dropping the restriction, one
/// interaction can split a same-state pair directly:
///
/// ```text
/// (initial, initial) -> (g1, g2)
/// ```
///
/// Three states, trivially correct (every pair of free agents settles
/// one-to-each-group; an odd population leaves one free agent, counted in
/// group 1) — demonstrating that the symmetry requirement costs exactly
/// one state at `k = 2`. The engine supports asymmetric protocols, and
/// the model checker verifies this one in the test suite.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AsymmetricBipartition;

impl AsymmetricBipartition {
    /// The protocol handle.
    pub fn new() -> Self {
        AsymmetricBipartition
    }

    /// Build and compile the 3-state protocol.
    pub fn compile(&self) -> CompiledProtocol {
        let mut spec = ProtocolSpec::new("asymmetric-bipartition");
        let ini = spec.add_state("initial", 1);
        let one = spec.add_state("g1", 1);
        let two = spec.add_state("g2", 2);
        spec.set_initial(ini);
        spec.add_rule(ini, ini, one, two);
        spec.compile()
            .expect("asymmetric bipartition spec is internally consistent")
    }

    /// Stable signature: all agents settled, plus the odd leftover.
    pub fn stable_signature(&self, n: u64) -> Signature {
        let q = n / 2;
        Signature::exact(vec![n % 2, q, q])
    }

    /// Group sizes at stability: `⌈n/2⌉` and `⌊n/2⌋`.
    pub fn expected_group_sizes(&self, n: u64) -> Vec<u64> {
        vec![n - n / 2, n / 2]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kpartition::UniformKPartition;
    use pp_engine::observer::NullObserver;
    use pp_engine::population::{CountPopulation, Population};
    use pp_engine::scheduler::UniformRandomScheduler;
    use pp_engine::simulator::Simulator;

    #[test]
    fn matches_kpartition_at_k2() {
        let bi = UniformBipartition::new().compile();
        let k2 = UniformKPartition::new(2).compile();
        assert_eq!(bi.num_states(), k2.num_states());
        for p in bi.states() {
            assert_eq!(bi.state_name(p), k2.state_name(p));
            assert_eq!(bi.group_of(p), k2.group_of(p));
            for q in bi.states() {
                assert_eq!(
                    bi.delta(p, q),
                    k2.delta(p, q),
                    "tables differ at ({}, {})",
                    bi.state_name(p),
                    bi.state_name(q)
                );
            }
        }
    }

    #[test]
    fn four_states_symmetric() {
        let p = UniformBipartition::new().compile();
        assert_eq!(p.num_states(), 4);
        assert!(p.is_symmetric());
    }

    #[test]
    fn bipartitions_even_and_odd_populations() {
        let bi = UniformBipartition::new();
        let p = bi.compile();
        for n in [4u64, 9, 16, 31] {
            let mut pop = CountPopulation::new(&p, n);
            let mut sched = UniformRandomScheduler::from_seed(n);
            let sig = bi.stable_signature(n);
            Simulator::new(&p)
                .run_observed(&mut pop, &mut sched, &sig, 100_000_000, &mut NullObserver)
                .unwrap();
            assert_eq!(pop.group_sizes(&p), bi.expected_group_sizes(n), "n = {n}");
        }
    }

    #[test]
    fn asymmetric_three_states_suffice() {
        let ab = AsymmetricBipartition::new();
        let p = ab.compile();
        assert_eq!(p.num_states(), 3);
        assert!(!p.is_symmetric());
        for n in [2u64, 4, 9, 30] {
            let mut pop = CountPopulation::new(&p, n);
            let mut sched = UniformRandomScheduler::from_seed(n);
            Simulator::new(&p)
                .run_observed(
                    &mut pop,
                    &mut sched,
                    &ab.stable_signature(n),
                    10_000_000,
                    &mut NullObserver,
                )
                .unwrap();
            assert_eq!(pop.group_sizes(&p), ab.expected_group_sizes(n), "n = {n}");
        }
    }

    #[test]
    fn asymmetric_solves_n2_where_symmetric_cannot() {
        // The symmetric impossibility at n = 2 (two agents in lockstep)
        // vanishes once asymmetric transitions are allowed.
        let ab = AsymmetricBipartition::new();
        let p = ab.compile();
        let mut pop = CountPopulation::new(&p, 2);
        let mut sched = UniformRandomScheduler::from_seed(1);
        let res = Simulator::new(&p)
            .run_observed(
                &mut pop,
                &mut sched,
                &ab.stable_signature(2),
                1000,
                &mut NullObserver,
            )
            .unwrap();
        assert_eq!(res.interactions, 1);
        assert_eq!(pop.group_sizes(&p), vec![1, 1]);
    }

    #[test]
    fn n2_cannot_bipartition() {
        // Two agents in a symmetric protocol evolve in lockstep: the
        // signature is unreachable (the paper's reason for assuming n ≥ 3).
        let bi = UniformBipartition::new();
        let p = bi.compile();
        let mut pop = CountPopulation::new(&p, 2);
        let mut sched = UniformRandomScheduler::from_seed(5);
        let sig = bi.stable_signature(2);
        let res =
            Simulator::new(&p).run_observed(&mut pop, &mut sched, &sig, 10_000, &mut NullObserver);
        assert!(res.is_err());
        // Still flipping in lockstep: both agents share one state.
        let counts = pop.counts();
        assert!(counts[0] == 2 || counts[1] == 2, "{counts:?}");
    }
}
