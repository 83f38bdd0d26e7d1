//! The leap kernel is distribution-exact: on cells small enough for the
//! exact Markov-chain solver, naive and leap sample means of the paper's
//! interactions-to-stability metric must both match the exact
//! expectation (and hence each other). A fixed-seed regression test pins
//! the leap kernel's RNG-stream consumption so accidental changes to the
//! sampling order are caught immediately, and `Simulator::run_kernel` is
//! checked to run exactly each kernel's body.

use proptest::prelude::*;

use uniform_k_partition::prelude::*;
use uniform_k_partition::verify::hitting::{hitting_moments, SolverOptions};
use uniform_k_partition::verify::ConfigGraph;

/// Mean and standard error of interactions-to-stability over `trials`
/// seeded runs of one kernel.
fn sample_mean(kernel: Kernel, k: usize, n: u64, trials: u64, seed_base: u64) -> (f64, f64) {
    let kp = UniformKPartition::new(k);
    let proto = kp.compile();
    let sig = kp.stable_signature(n);
    let sim = Simulator::new(&proto);
    let mut sum = 0u64;
    let mut sumsq = 0f64;
    for t in 0..trials {
        let mut pop = CountPopulation::new(&proto, n);
        let mut sched = UniformRandomScheduler::from_seed(seed_base + t);
        let r = sim
            .run_kernel(
                kernel,
                &mut pop,
                &mut sched,
                &sig,
                u64::MAX,
                &mut NullObserver,
            )
            .unwrap();
        sum += r.interactions;
        sumsq += (r.interactions as f64).powi(2);
    }
    let mean = sum as f64 / trials as f64;
    let var = (sumsq / trials as f64 - mean * mean).max(0.0);
    (mean, (var / trials as f64).sqrt())
}

/// Exact expected interactions-to-stability from the configuration
/// graph.
fn exact_mean(k: usize, n: u64) -> f64 {
    let kp = UniformKPartition::new(k);
    let proto = kp.compile();
    let graph = ConfigGraph::explore(&proto, n, 1_000_000).unwrap();
    let sig = kp.stable_signature(n);
    hitting_moments(
        &graph,
        |cfg| {
            let counts: Vec<u64> = cfg.iter().map(|&c| u64::from(c)).collect();
            sig.matches(&counts)
        },
        SolverOptions::default(),
    )
    .unwrap()
    .mean
}

proptest! {
    // Each case solves a Markov chain and runs 2 × 150 trials; keep the
    // case count small — the grid below only has a handful of cells
    // anyway.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Both kernels' sample means sit within 4 standard errors of the
    /// exact expectation on every small (k, n) cell.
    #[test]
    fn both_kernels_match_exact_hitting_time(
        k in 2usize..=3,
        n in 5u64..=7,
        seed_base in 1u64..10_000,
    ) {
        let trials = 150;
        let exact = exact_mean(k, n);
        for kernel in [Kernel::Naive, Kernel::Leap] {
            let (mean, sem) = sample_mean(kernel, k, n, trials, seed_base);
            let z = (mean - exact) / sem;
            prop_assert!(
                z.abs() < 4.0,
                "{kernel:?} k={k} n={n}: exact {exact}, sim {mean} ± {sem} (z = {z:.2})"
            );
        }
    }
}

/// Welch two-sample comparison of naive vs leap on a cell too large for
/// the exact solver: the two kernels must agree in distribution, not
/// just with the exact solver on tiny cells.
#[test]
fn kernels_agree_on_larger_cell() {
    let (k, n, trials) = (4, 20, 200);
    let (m_naive, s_naive) = sample_mean(Kernel::Naive, k, n, trials, 100_000);
    let (m_leap, s_leap) = sample_mean(Kernel::Leap, k, n, trials, 200_000);
    let z = (m_naive - m_leap) / (s_naive * s_naive + s_leap * s_leap).sqrt();
    assert!(
        z.abs() < 4.0,
        "naive {m_naive} ± {s_naive} vs leap {m_leap} ± {s_leap} (z = {z:.2})"
    );
}

/// Fixed-seed regression: the leap kernel's exact RNG-stream consumption
/// (one geometric draw per identity run, two weighted draws per
/// effective interaction). If the sampling order changes, this value
/// changes — bump it only with a distribution-level justification.
#[test]
fn leap_fixed_seed_regression() {
    let kp = UniformKPartition::new(4);
    let proto = kp.compile();
    let mut pop = CountPopulation::new(&proto, 30);
    let mut sched = UniformRandomScheduler::from_seed(2024);
    let r = Simulator::new(&proto)
        .run_kernel(
            Kernel::Leap,
            &mut pop,
            &mut sched,
            &kp.stable_signature(30),
            u64::MAX,
            &mut NullObserver,
        )
        .unwrap();
    assert_eq!(pop.group_sizes(&proto), vec![8, 8, 7, 7]);
    assert_eq!((r.interactions, r.effective_interactions), (354, 84));
}

/// `run_kernel` is a pure dispatch: for every kernel and seed it returns
/// the same `RunResult` and final counts as that kernel's public body —
/// `run_observed` for naive, `run_batch_observed` for batch, and for leap
/// the full-fallback batch configuration, which is bit-identical to the
/// leap kernel (`tests/batch_kernel.rs`).
#[test]
fn run_kernel_runs_each_kernels_body() {
    for (k, n) in [(3usize, 12u64), (4, 30), (8, 400)] {
        let kp = UniformKPartition::new(k);
        let proto = kp.compile();
        let sig = kp.stable_signature(n);
        let sim = Simulator::new(&proto);
        for seed in 0..5u64 {
            for kernel in Kernel::ALL {
                let mut pop = CountPopulation::new(&proto, n);
                let mut sched = UniformRandomScheduler::from_seed(seed);
                let dispatched = sim
                    .run_kernel(
                        kernel,
                        &mut pop,
                        &mut sched,
                        &sig,
                        u64::MAX,
                        &mut NullObserver,
                    )
                    .unwrap();
                let mut body_pop = CountPopulation::new(&proto, n);
                let mut sched = UniformRandomScheduler::from_seed(seed);
                let p = &mut body_pop;
                let body = match kernel {
                    Kernel::Naive => {
                        sim.run_observed(p, &mut sched, &sig, u64::MAX, &mut NullObserver)
                    }
                    Kernel::Leap => sim.run_batch_configured(
                        p,
                        &mut sched,
                        &sig,
                        u64::MAX,
                        &BatchConfig {
                            safety_threshold: n,
                            ..BatchConfig::default()
                        },
                        &mut NullObserver,
                    ),
                    Kernel::Batch => {
                        sim.run_batch_observed(p, &mut sched, &sig, u64::MAX, &mut NullObserver)
                    }
                }
                .unwrap();
                let ctx = format!("{kernel} k={k} n={n} seed={seed}");
                assert_eq!(dispatched, body, "{ctx}");
                assert_eq!(pop.counts(), body_pop.counts(), "{ctx}");
            }
        }
    }
}
