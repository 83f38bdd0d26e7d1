//! Property-based tests (V2 and engine-level invariants) with proptest:
//! Lemma 1 along random executions, conservation of agents, symmetry of
//! the compiled table, stable-outcome correctness across the parameter
//! space, and bit-reproducibility.

use pp_engine::observer::Observer;
use pp_engine::protocol::StateId;
use pp_engine::stability::StabilityCriterion;
use proptest::prelude::*;
use uniform_k_partition::prelude::*;

/// Observer asserting Lemma 1 after every interaction.
struct Lemma1Checker {
    kp: UniformKPartition,
    violations: u64,
}

impl Observer for Lemma1Checker {
    fn on_interaction(
        &mut self,
        _step: u64,
        _p: StateId,
        _q: StateId,
        _p2: StateId,
        _q2: StateId,
        counts: &[u64],
    ) {
        if !self.kp.lemma1_holds(counts) {
            self.violations += 1;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Lemma 1 holds after every single interaction of a random run, and
    /// the run ends in the expected uniform partition.
    #[test]
    fn lemma1_holds_along_random_runs(
        k in 2usize..7,
        n in 3u64..40,
        seed in any::<u64>(),
    ) {
        let kp = UniformKPartition::new(k);
        let proto = kp.compile();
        let mut pop = CountPopulation::new(&proto, n);
        let mut sched = UniformRandomScheduler::from_seed(seed);
        let mut checker = Lemma1Checker { kp, violations: 0 };
        let res = Simulator::new(&proto).run_observed(
            &mut pop,
            &mut sched,
            &kp.stable_signature(n),
            kp.interaction_budget(n),
            &mut checker,
        );
        prop_assert!(res.is_ok(), "did not stabilise: {res:?}");
        prop_assert_eq!(checker.violations, 0, "Lemma 1 violated mid-run");
        prop_assert_eq!(pop.group_sizes(&proto), kp.expected_group_sizes(n));
    }

    /// Agent conservation: counts always sum to n, whatever the protocol
    /// does (checked on the k-partition protocol across the sweep).
    #[test]
    fn population_is_conserved(
        k in 2usize..7,
        n in 3u64..40,
        seed in any::<u64>(),
        steps in 1u64..3000,
    ) {
        let kp = UniformKPartition::new(k);
        let proto = kp.compile();
        let mut pop = CountPopulation::new(&proto, n);
        let mut sched = UniformRandomScheduler::from_seed(seed);
        struct SumCheck { n: u64, bad: bool }
        impl Observer for SumCheck {
            fn on_interaction(&mut self, _s: u64, _p: StateId, _q: StateId,
                              _p2: StateId, _q2: StateId, counts: &[u64]) {
                if counts.iter().sum::<u64>() != self.n { self.bad = true; }
            }
        }
        let mut chk = SumCheck { n, bad: false };
        Simulator::new(&proto).run_fixed(&mut pop, &mut sched, steps, &mut chk);
        prop_assert!(!chk.bad);
        prop_assert_eq!(pop.counts().iter().sum::<u64>(), n);
    }

    /// The compiled protocol is symmetric and deterministic for every k,
    /// and its state count is exactly 3k − 2.
    #[test]
    fn protocol_shape(k in 2usize..24) {
        let kp = UniformKPartition::new(k);
        let proto = kp.compile();
        prop_assert!(proto.is_symmetric());
        prop_assert_eq!(proto.num_states(), 3 * k - 2);
        prop_assert_eq!(proto.num_groups(), k);
        // f maps every state into 1..=k.
        for s in proto.states() {
            let g = proto.group_of(s).number();
            prop_assert!(g >= 1 && g <= k);
        }
    }

    /// Transition totals: every rule preserves the number of agents (2 in,
    /// 2 out) — trivially true by construction, so instead check the
    /// *semantic* conservation laws: settled g_k agents are never consumed
    /// by any rule.
    #[test]
    fn gk_is_absorbing(k in 3usize..12) {
        let kp = UniformKPartition::new(k);
        let proto = kp.compile();
        let gk = kp.g(k);
        for p in proto.states() {
            let (r1, r2) = proto.delta(gk, p);
            prop_assert_eq!(r1, gk, "rule consumes g_k: ({:?}, {:?})", gk, p);
            let (s1, s2) = proto.delta(p, gk);
            prop_assert_eq!(s2, gk);
            let _ = (r2, s1);
        }
    }

    /// Determinism: identical seeds give identical runs; different seeds
    /// (almost surely) differ in interaction counts for non-trivial n.
    #[test]
    fn runs_are_reproducible(k in 2usize..6, n in 10u64..40, seed in any::<u64>()) {
        let kp = UniformKPartition::new(k);
        let proto = kp.compile();
        let run = |s: u64| {
            let mut pop = CountPopulation::new(&proto, n);
            let mut sched = UniformRandomScheduler::from_seed(s);
            let r = Simulator::new(&proto)
                .run_observed(&mut pop, &mut sched, &kp.stable_signature(n), kp.interaction_budget(n), &mut NullObserver)
                .unwrap();
            (r.interactions, pop.counts().to_vec())
        };
        let a = run(seed);
        let b = run(seed);
        prop_assert_eq!(a, b);
    }

    /// The stable signature is group-closure-stable: whenever the
    /// signature fires, the sound-and-complete criterion agrees.
    #[test]
    fn signature_implies_group_closure(k in 2usize..6, n in 3u64..24, seed in any::<u64>()) {
        let kp = UniformKPartition::new(k);
        let proto = kp.compile();
        let mut pop = CountPopulation::new(&proto, n);
        let mut sched = UniformRandomScheduler::from_seed(seed);
        Simulator::new(&proto)
            .run_observed(&mut pop, &mut sched, &kp.stable_signature(n), kp.interaction_budget(n), &mut NullObserver)
            .unwrap();
        prop_assert!(pp_engine::stability::GroupClosure::default()
            .is_stable(&proto, pop.counts()));
    }

    /// Ratio partitions hit their exact expected sizes for random ratios.
    #[test]
    fn ratio_partition_exact_sizes(
        r1 in 1u32..4, r2 in 1u32..4, r3 in 1u32..3,
        mult in 1u64..5,
        seed in any::<u64>(),
    ) {
        use uniform_k_partition::protocols::ratio::RatioPartition;
        let rp = RatioPartition::new(vec![r1, r2, r3]);
        let s = rp.num_slots() as u64;
        let n = s * mult + 3; // deliberately non-divisible sometimes
        let proto = rp.compile();
        let mut pop = CountPopulation::new(&proto, n);
        let mut sched = UniformRandomScheduler::from_seed(seed);
        Simulator::new(&proto)
            .run_observed(&mut pop, &mut sched, &rp.stable_signature(n), rp.slots().interaction_budget(n), &mut NullObserver)
            .unwrap();
        prop_assert_eq!(pop.group_sizes(&proto), rp.expected_group_sizes(n));
    }
}

/// Non-proptest sanity: the Lemma 1 residual is *sensitive* — corrupting
/// a stable configuration breaks it (guards against a vacuous invariant).
#[test]
fn lemma1_checker_is_not_vacuous() {
    let kp = UniformKPartition::new(5);
    let proto = kp.compile();
    let mut pop = CountPopulation::new(&proto, 20);
    let mut sched = UniformRandomScheduler::from_seed(1);
    Simulator::new(&proto)
        .run_observed(
            &mut pop,
            &mut sched,
            &kp.stable_signature(20),
            kp.interaction_budget(20),
            &mut NullObserver,
        )
        .unwrap();
    assert!(kp.lemma1_holds(pop.counts()));
    let mut corrupted = pop.counts().to_vec();
    corrupted[kp.g(5).index()] += 1;
    corrupted[kp.g(1).index()] -= 1;
    assert!(!kp.lemma1_holds(&corrupted));
}
