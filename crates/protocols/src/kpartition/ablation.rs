//! The "basic strategy" ablation: Algorithm 1 with rules 1–7 only.
//!
//! §3.2 of the paper motivates the `D` states with a failure scenario:
//! without rules 8–10, several chain-builder (`m`) agents can start
//! concurrently and between them absorb every free agent, leaving partial
//! chains that can never complete. The resulting configuration is *silent*
//! — no rule applies — but not a uniform k-partition: low-numbered groups
//! (`g1, g2, …`) are overfull and high-numbered groups are empty.
//!
//! [`BasicStrategyKPartition`] implements exactly that truncated rule set
//! (on the state set `I ∪ G ∪ M`, `2k` states) so the failure is
//! measurable. The experiment harness (`ablation_d_states`) reports, per
//! `(n, k)`, how often random executions end in a deadlocked non-uniform
//! configuration, and the worst group imbalance observed — the
//! quantitative counterpart of the paper's Figure 2 narrative.

use pp_engine::protocol::{CompiledProtocol, StateId};
use pp_engine::spec::ProtocolSpec;

/// Algorithm 1 truncated to rules 1–7 (no chain abort/unwind).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BasicStrategyKPartition {
    k: usize,
}

impl BasicStrategyKPartition {
    /// Basic strategy for `k ≥ 3` groups. (For `k = 2` the basic strategy
    /// and the full protocol coincide; use
    /// [`crate::kpartition::UniformKPartition`].)
    pub fn new(k: usize) -> Self {
        assert!(k >= 3, "the basic-strategy ablation is defined for k >= 3");
        BasicStrategyKPartition { k }
    }

    /// Number of groups `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// `|Q| = 2k` (the full protocol's `3k − 2` minus the `k − 2` states
    /// of `D`).
    pub fn num_states(&self) -> usize {
        2 * self.k
    }

    /// The designated initial state.
    pub fn initial(&self) -> StateId {
        StateId(0)
    }

    /// The `initial'` state.
    pub fn initial_prime(&self) -> StateId {
        StateId(1)
    }

    /// Settled-group state `g_i`, `1 ≤ i ≤ k`.
    pub fn g(&self, i: usize) -> StateId {
        assert!((1..=self.k).contains(&i));
        StateId((2 + i - 1) as u16)
    }

    /// Chain-builder state `m_i`, `2 ≤ i ≤ k − 1`.
    pub fn m(&self, i: usize) -> StateId {
        assert!((2..=self.k - 1).contains(&i));
        StateId((2 + self.k + i - 2) as u16)
    }

    /// Build the truncated protocol description.
    pub fn spec(&self) -> ProtocolSpec {
        let k = self.k;
        let mut spec = ProtocolSpec::new(format!("basic-strategy-{k}-partition"));
        let ini = spec.add_state("initial", 1);
        let inip = spec.add_state("initial'", 1);
        for i in 1..=k {
            spec.add_state(format!("g{i}"), i as u16);
        }
        for i in 2..=k - 1 {
            spec.add_state(format!("m{i}"), i as u16);
        }
        spec.set_initial(ini);
        let flip = |s: StateId| if s == ini { inip } else { ini };

        spec.add_rule(ini, ini, inip, inip);
        spec.add_rule(inip, inip, ini, ini);
        spec.add_rule_symmetric(ini, inip, self.g(1), self.m(2));
        for x in [ini, inip] {
            for i in 1..=k {
                spec.add_rule_symmetric(self.g(i), x, self.g(i), flip(x));
            }
        }
        for i in 2..=k.saturating_sub(2) {
            for x in [ini, inip] {
                spec.add_rule_symmetric(x, self.m(i), self.g(i), self.m(i + 1));
            }
        }
        for x in [ini, inip] {
            spec.add_rule_symmetric(x, self.m(k - 1), self.g(k - 1), self.g(k));
        }
        // Rules 8–10 deliberately absent: (m_i, m_j) is a null interaction.
        spec
    }

    /// Compile into the engine's dense-table form.
    pub fn compile(&self) -> CompiledProtocol {
        let p = self
            .spec()
            .compile()
            .expect("basic-strategy spec is internally consistent");
        debug_assert!(p.is_symmetric());
        debug_assert_eq!(p.num_states(), self.num_states());
        p
    }

    /// Whether `counts` is a *deadlocked* configuration: at least one
    /// chain-builder remains but no free agents, so no rule can ever fire
    /// again (the failure mode of §3.2).
    pub fn is_deadlocked(&self, counts: &[u64]) -> bool {
        let free: u64 = counts[self.initial().index()] + counts[self.initial_prime().index()];
        let builders: u64 = (2..=self.k - 1).map(|i| counts[self.m(i).index()]).sum();
        free == 0 && builders > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_engine::observer::NullObserver;
    use pp_engine::population::{CountPopulation, Population};
    use pp_engine::scheduler::{GreedyPriorityScheduler, UniformRandomScheduler};
    use pp_engine::simulator::Simulator;
    use pp_engine::stability::{Silent, StabilityCriterion};

    #[test]
    fn m_collision_is_null() {
        let bp = BasicStrategyKPartition::new(4);
        let p = bp.compile();
        assert!(p.is_identity(bp.m(2), bp.m(3)));
        assert!(p.is_identity(bp.m(2), bp.m(2)));
    }

    /// Deterministically reproduce §3.2's failure (n = 12, k = 4): four
    /// chains start, each recruits two agents, and the population
    /// deadlocks at g1×4 g2×4 m3×4.
    #[test]
    fn adversarial_schedule_deadlocks() {
        let bp = BasicStrategyKPartition::new(4);
        let p = bp.compile();
        let mut pop = CountPopulation::new(&p, 12);
        // Priority: start chains first (rule 5 via flips), then feed each
        // chain exactly up to m3 — encoded as "prefer interactions that
        // advance the lowest chain"; a greedy schedule that always performs
        // some enabled non-null interaction suffices here because with this
        // priority order chains are created before being fed.
        let ini = bp.initial();
        let inip = bp.initial_prime();
        let m2 = bp.m(2);
        let m3 = bp.m(3);
        let mut sched = GreedyPriorityScheduler::new(
            move |a: StateId, b: StateId| {
                // Highest: create new chains. Then advance m2 -> m3.
                if (a, b) == (ini, inip) || (a, b) == (inip, ini) {
                    3
                } else if (a == m2 && (b == ini || b == inip))
                    || (b == m2 && (a == ini || a == inip))
                {
                    2
                } else if (a, b) == (ini, ini) || (a, b) == (inip, inip) {
                    1
                } else {
                    0
                }
            },
            1,
        );
        let res = Simulator::new(&p).run_observed(
            &mut pop,
            &mut sched,
            &Silent,
            10_000,
            &mut NullObserver,
        );
        assert!(res.is_ok(), "greedy schedule should reach a silent sink");
        assert!(bp.is_deadlocked(pop.counts()));
        assert_eq!(pop.count(bp.g(1)), 4);
        assert_eq!(pop.count(bp.g(2)), 4);
        assert_eq!(pop.count(m3), 4);
        assert_eq!(pop.count(bp.g(4)), 0);
        // Non-uniform: group 4 is empty while group 1 has 4 agents.
        let sizes = pop.group_sizes(&p);
        assert_eq!(sizes, vec![4, 4, 4, 0]);
    }

    /// Under the uniform random scheduler the basic strategy always ends
    /// in a silent configuration — sometimes uniform, sometimes
    /// deadlocked. Either way it terminates, and when it deadlocks group
    /// sizes are imbalanced by more than 1.
    #[test]
    fn random_runs_end_silent_and_sometimes_fail() {
        let bp = BasicStrategyKPartition::new(4);
        let p = bp.compile();
        let mut deadlocks = 0;
        let trials = 40;
        for seed in 0..trials {
            let mut pop = CountPopulation::new(&p, 12);
            let mut sched = UniformRandomScheduler::from_seed(seed);
            Simulator::new(&p)
                .run_observed(
                    &mut pop,
                    &mut sched,
                    &Silent,
                    100_000_000,
                    &mut NullObserver,
                )
                .expect("basic strategy always reaches a silent configuration");
            if bp.is_deadlocked(pop.counts()) {
                deadlocks += 1;
                let sizes = pop.group_sizes(&p);
                let mx = *sizes.iter().max().unwrap();
                let mn = *sizes.iter().min().unwrap();
                assert!(mx - mn > 1, "deadlock but balanced? {sizes:?}");
            } else {
                assert_eq!(pop.group_sizes(&p), vec![3, 3, 3, 3]);
            }
        }
        // With n = 12, k = 4 deadlocks are common; at least one in 40
        // seeded trials is a safe deterministic expectation.
        assert!(
            deadlocks > 0,
            "expected at least one deadlock in {trials} trials"
        );
    }

    #[test]
    fn silent_check_matches_deadlock_predicate() {
        let bp = BasicStrategyKPartition::new(5);
        let p = bp.compile();
        // g1 g2 m3 ×3 with no free agents: silent and deadlocked.
        let mut counts = vec![0u64; p.num_states()];
        counts[bp.g(1).index()] = 3;
        counts[bp.g(2).index()] = 3;
        counts[bp.m(3).index()] = 3;
        assert!(Silent.is_stable(&p, &counts));
        assert!(bp.is_deadlocked(&counts));
        // Add one free agent: no longer silent (rule 6 applies).
        counts[bp.initial().index()] = 1;
        assert!(!Silent.is_stable(&p, &counts));
        assert!(!bp.is_deadlocked(&counts));
    }

    #[test]
    #[should_panic(expected = "k >= 3")]
    fn k2_rejected() {
        BasicStrategyKPartition::new(2);
    }
}
