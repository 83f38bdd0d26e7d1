//! Global fairness is about schedules, not probability. The paper proves
//! correctness for *every* globally fair execution; the simulations merely
//! sample the random scheduler (fair with probability 1). Here we drive
//! the protocol with the engine's deterministic [`LeastVisitedScheduler`]
//! — fair by construction, zero randomness — and with adversarial
//! schedulers that are *not* fair, to delimit the guarantee.

use pp_engine::scheduler::{GreedyPriorityScheduler, LeastVisitedScheduler};
use pp_engine::stability::Never;
use uniform_k_partition::prelude::*;

/// The k-partition protocol stabilises under the deterministic fair
/// scheduler — no randomness anywhere in the run.
#[test]
fn stabilises_under_deterministic_global_fairness() {
    for (k, n) in [(2usize, 7u64), (3, 8), (4, 9)] {
        let kp = UniformKPartition::new(k);
        let proto = kp.compile();
        let mut pop = CountPopulation::new(&proto, n);
        let mut sched = LeastVisitedScheduler::new();
        let res = Simulator::new(&proto)
            .run_observed(
                &mut pop,
                &mut sched,
                &kp.stable_signature(n),
                10_000_000,
                &mut NullObserver,
            )
            .unwrap_or_else(|e| panic!("k={k} n={n}: {e}"));
        assert_eq!(pop.group_sizes(&proto), kp.expected_group_sizes(n));
        // Deterministic: same run twice gives the same count.
        let mut pop2 = CountPopulation::new(&proto, n);
        let mut sched2 = LeastVisitedScheduler::new();
        let res2 = Simulator::new(&proto)
            .run_observed(
                &mut pop2,
                &mut sched2,
                &kp.stable_signature(n),
                10_000_000,
                &mut NullObserver,
            )
            .unwrap();
        assert_eq!(res.interactions, res2.interactions, "k={k} n={n}");
    }
}

/// An *unfair* schedule can starve the protocol forever: alternating
/// rule 1 and rule 2 keeps every agent free. This is the paper's
/// Figure 1 (b)↔(c) loop — legal for a mere weakly-fair scheduler,
/// excluded by global fairness.
#[test]
fn unfair_flip_schedule_never_stabilises() {
    let kp = UniformKPartition::new(3);
    let proto = kp.compile();
    let mut pop = CountPopulation::new(&proto, 6);
    let ini = kp.initial();
    let inip = kp.initial_prime();
    // Priority: always prefer the same-state flips, never rule 5.
    let mut sched = GreedyPriorityScheduler::new(
        move |a, b| {
            if (a == ini && b == ini) || (a == inip && b == inip) {
                1
            } else {
                0
            }
        },
        0,
    );
    // 10k interactions later nothing has settled.
    let res = Simulator::new(&proto).run_observed(
        &mut pop,
        &mut sched,
        &Never,
        10_000,
        &mut NullObserver,
    );
    assert!(res.is_err());
    assert_eq!(
        pop.count(ini) + pop.count(inip),
        6,
        "all agents must still be free under the flip-only schedule"
    );
}

/// The deterministic fair scheduler also drives the *recovery* path: from
/// a hand-built two-chain deadlock-in-waiting (Figure 2's setup), it
/// reaches the uniform partition.
#[test]
fn deterministic_fairness_recovers_from_chain_collision_setup() {
    let kp = UniformKPartition::new(6);
    let proto = kp.compile();
    // Two chains already started: g1 g1 m2 m2 + two free agents (n = 6).
    let mut counts = vec![0u64; proto.num_states()];
    counts[kp.g(1).index()] = 2;
    counts[kp.m(2).index()] = 2;
    counts[kp.initial().index()] = 2;
    let mut pop = CountPopulation::from_counts(counts);
    assert!(kp.lemma1_holds(pop.counts()));
    let mut sched = LeastVisitedScheduler::new();
    Simulator::new(&proto)
        .run_observed(
            &mut pop,
            &mut sched,
            &kp.stable_signature(6),
            10_000_000,
            &mut NullObserver,
        )
        .expect("fair execution must resolve the chain collision");
    assert_eq!(pop.group_sizes(&proto), vec![1; 6]);
}
