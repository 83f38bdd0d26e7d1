//! Classic population protocols from the paper's related-work landscape
//! (§1.2): epidemic/one-way broadcast, leader election, and the 3-state
//! approximate majority of Angluin, Aspnes, and Eisenstat (2008).
//!
//! These are not part of the paper's contribution; they exercise the
//! engine's generality (including *asymmetric* protocols, which the
//! k-partition paper excludes from its own design space but which the
//! engine supports) and serve as documented, tested examples of building
//! protocols against [`pp_engine::spec::ProtocolSpec`].

use pp_engine::protocol::{CompiledProtocol, StateId};
use pp_engine::spec::ProtocolSpec;

/// One-way epidemic: `(I, S) → (I, I)`. Group 1 = susceptible, group 2 =
/// infected. Stabilises (silently) with everyone infected once at least
/// one agent starts infected.
pub fn epidemic() -> CompiledProtocol {
    let mut spec = ProtocolSpec::new("epidemic");
    let s = spec.add_state("S", 1);
    let i = spec.add_state("I", 2);
    spec.set_initial(s);
    spec.add_rule_symmetric(i, s, i, i);
    spec.compile().expect("epidemic spec is consistent")
}

/// Classic 2-state leader election: `(L, L) → (L, F)`. All agents start
/// as leaders; pairwise duels leave exactly one. **Asymmetric** — two
/// equal states map to different states — so it lies outside the class of
/// protocols the paper considers, and serves as the engine's asymmetric
/// test vehicle.
pub fn leader_election() -> CompiledProtocol {
    let mut spec = ProtocolSpec::new("leader-election");
    let l = spec.add_state("L", 1);
    let f = spec.add_state("F", 2);
    spec.set_initial(l);
    spec.add_rule(l, l, l, f);
    spec.compile().expect("leader election spec is consistent")
}

/// States of [`approximate_majority`], for callers that seed populations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MajorityStates {
    /// Supporter of opinion X (group 1).
    pub x: StateId,
    /// Supporter of opinion Y (group 2).
    pub y: StateId,
    /// Undecided (group 3).
    pub blank: StateId,
}

/// The 3-state approximate majority protocol (Angluin–Aspnes–Eisenstat):
///
/// ```text
/// (x, y) → (x, b)    (y, x) → (y, b)
/// (x, b) → (x, x)    (y, b) → (y, y)
/// ```
///
/// With a clear initial majority it converges (w.h.p. under the uniform
/// random scheduler) to a consensus on the majority opinion. Initial state
/// is `b` (callers seed `x`/`y` counts explicitly).
pub fn approximate_majority() -> (CompiledProtocol, MajorityStates) {
    let mut spec = ProtocolSpec::new("approximate-majority");
    let x = spec.add_state("x", 1);
    let y = spec.add_state("y", 2);
    let b = spec.add_state("b", 3);
    spec.set_initial(b);
    spec.add_rule(x, y, x, b);
    spec.add_rule(y, x, y, b);
    spec.add_rule(x, b, x, x);
    spec.add_rule(b, x, x, x);
    spec.add_rule(y, b, y, y);
    spec.add_rule(b, y, y, y);
    let proto = spec.compile().expect("majority spec is consistent");
    (proto, MajorityStates { x, y, blank: b })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_engine::observer::NullObserver;
    use pp_engine::population::{CountPopulation, Population};
    use pp_engine::scheduler::UniformRandomScheduler;
    use pp_engine::simulator::Simulator;
    use pp_engine::stability::Silent;

    #[test]
    fn epidemic_infects_everyone() {
        let p = epidemic();
        let s = p.state_by_name("S").unwrap();
        let i = p.state_by_name("I").unwrap();
        let mut pop = CountPopulation::new(&p, 40);
        pop.set_count(s, 39);
        pop.set_count(i, 1);
        let mut sched = UniformRandomScheduler::from_seed(1);
        Simulator::new(&p)
            .run_observed(&mut pop, &mut sched, &Silent, 1_000_000, &mut NullObserver)
            .unwrap();
        assert_eq!(pop.count(i), 40);
    }

    #[test]
    fn leader_election_leaves_exactly_one_leader() {
        let p = leader_election();
        assert!(!p.is_symmetric());
        let l = p.state_by_name("L").unwrap();
        let mut pop = CountPopulation::new(&p, 100);
        let mut sched = UniformRandomScheduler::from_seed(2);
        Simulator::new(&p)
            .run_observed(&mut pop, &mut sched, &Silent, 10_000_000, &mut NullObserver)
            .unwrap();
        assert_eq!(pop.count(l), 1);
    }

    #[test]
    fn approximate_majority_converges_to_clear_majority() {
        let (p, st) = approximate_majority();
        let mut wins = 0;
        for seed in 0..10 {
            let mut pop = CountPopulation::new(&p, 300);
            pop.set_count(st.blank, 0);
            pop.set_count(st.x, 200);
            pop.set_count(st.y, 100);
            let mut sched = UniformRandomScheduler::from_seed(seed);
            Simulator::new(&p)
                .run_observed(
                    &mut pop,
                    &mut sched,
                    &Silent,
                    100_000_000,
                    &mut NullObserver,
                )
                .unwrap();
            // Consensus: only one opinion remains (blanks absorbed).
            let x = pop.count(st.x);
            let y = pop.count(st.y);
            assert!(x == 300 || y == 300, "no consensus: x={x} y={y}");
            if x == 300 {
                wins += 1;
            }
        }
        // 2:1 majority on n = 300: X should essentially always win.
        assert!(wins >= 9, "majority won only {wins}/10 trials");
    }

    #[test]
    fn majority_blank_tie_still_reaches_consensus() {
        let (p, st) = approximate_majority();
        let mut pop = CountPopulation::new(&p, 100);
        pop.set_count(st.blank, 98);
        pop.set_count(st.x, 1);
        pop.set_count(st.y, 1);
        let mut sched = UniformRandomScheduler::from_seed(77);
        Simulator::new(&p)
            .run_observed(
                &mut pop,
                &mut sched,
                &Silent,
                100_000_000,
                &mut NullObserver,
            )
            .unwrap();
        assert!(pop.count(st.x) == 100 || pop.count(st.y) == 100);
    }
}
