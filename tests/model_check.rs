//! V1/V2: mechanical verification of Theorem 1 and Lemma 1 on small
//! instances, plus a *negative* control (the basic-strategy ablation must
//! fail verification, confirming the checker has teeth).

use uniform_k_partition::prelude::*;
use uniform_k_partition::protocols::bipartition::UniformBipartition;
use uniform_k_partition::protocols::kpartition::ablation::BasicStrategyKPartition;
use uniform_k_partition::verify::{ConfigGraph, VerifyFailure};

/// Theorem 1 for k ∈ {2, 3, 4}, n ∈ 3..=10 (plus a taller n for k = 2):
/// every terminal SCC of the reachable configuration graph is a correct,
/// group-frozen uniform partition.
#[test]
fn theorem1_verified_exhaustively() {
    for (k, ns) in [(2usize, 3u64..=12), (3, 3..=10), (4, 3..=10)] {
        let kp = UniformKPartition::new(k);
        let proto = kp.compile();
        for n in ns {
            let graph = ConfigGraph::explore(&proto, n, 2_000_000)
                .unwrap_or_else(|e| panic!("k={k} n={n}: {e}"));
            let expected = kp.expected_group_sizes(n);
            let report = graph.verify_stable_partition(|groups| groups == expected);
            assert!(
                report.verified(),
                "k={k} n={n}: {:?} over {} configs",
                report.failure,
                report.num_configs
            );
        }
    }
}

/// Lemma 1 holds in *every* reachable configuration, not just sampled
/// ones.
#[test]
fn lemma1_verified_exhaustively() {
    for (k, n) in [(3usize, 9u64), (3, 10), (4, 8), (4, 11), (5, 8)] {
        let kp = UniformKPartition::new(k);
        let proto = kp.compile();
        let graph = ConfigGraph::explore(&proto, n, 2_000_000).unwrap();
        let violation = graph.check_invariant(|cfg| {
            let counts: Vec<u64> = cfg.iter().map(|&c| u64::from(c)).collect();
            kp.lemma1_holds(&counts)
        });
        assert_eq!(violation, None, "k={k} n={n}");
    }
}

/// The stable signature characterises exactly the terminal-SCC
/// configurations (up to the r = 1 free-agent flip): every terminal SCC
/// config matches the signature, and every reachable signature-matching
/// config lies in a terminal SCC.
#[test]
fn stable_signature_equals_terminal_sccs() {
    for (k, n) in [(3usize, 7u64), (3, 8), (4, 9), (4, 10), (2, 7)] {
        let kp = UniformKPartition::new(k);
        let proto = kp.compile();
        let graph = ConfigGraph::explore(&proto, n, 2_000_000).unwrap();
        let sig = kp.stable_signature(n);
        let matching: std::collections::HashSet<u32> = graph
            .matching_configs(|cfg| {
                let counts: Vec<u64> = cfg.iter().map(|&c| u64::from(c)).collect();
                sig.matches(&counts)
            })
            .into_iter()
            .collect();
        let in_terminals: std::collections::HashSet<u32> =
            graph.terminal_sccs().into_iter().flatten().collect();
        assert_eq!(matching, in_terminals, "k={k} n={n}");
        assert!(!matching.is_empty(), "k={k} n={n}: no stable configuration");
    }
}

/// The 4-state bipartition protocol verifies for both parities of n.
#[test]
fn bipartition_verified_exhaustively() {
    let bi = UniformBipartition::new();
    let proto = bi.compile();
    for n in 3..=14u64 {
        let graph = ConfigGraph::explore(&proto, n, 100_000).unwrap();
        let expected = bi.expected_group_sizes(n);
        let report = graph.verify_stable_partition(|g| g == expected);
        assert!(report.verified(), "n={n}: {:?}", report.failure);
    }
}

/// Negative control: without the D states, verification must FAIL — the
/// deadlocked partial-chain configurations are terminal but not uniform.
/// This is the paper's §3.2 made mechanical.
#[test]
fn basic_strategy_fails_verification() {
    let bp = BasicStrategyKPartition::new(4);
    let proto = bp.compile();
    let n = 12u64;
    let graph = ConfigGraph::explore(&proto, n, 2_000_000).unwrap();
    let report = graph.verify_stable_partition(|groups| {
        let max = groups.iter().max().unwrap();
        let min = groups.iter().min().unwrap();
        max - min <= 1
    });
    assert!(
        matches!(report.failure, Some(VerifyFailure::BadGroupSizes { .. })),
        "expected a non-uniform terminal configuration, got {:?}",
        report.failure
    );
}

/// …and with the D states restored, the very same instance verifies.
#[test]
fn full_protocol_passes_where_basic_fails() {
    let kp = UniformKPartition::new(4);
    let proto = kp.compile();
    let graph = ConfigGraph::explore(&proto, 12, 2_000_000).unwrap();
    let report = graph.verify_stable_partition(|g| g == [3, 3, 3, 3]);
    assert!(report.verified(), "{:?}", report.failure);
}

/// Lemmas 2–4 mechanically: from every reachable configuration with
/// `n − k·#g_k ≥ k`, a configuration with strictly more `g_k` agents is
/// reachable — so `#g_k` can always ratchet until it reaches `⌊n/k⌋`
/// (and by Lemma 4's monotonicity, under global fairness it *will*).
#[test]
fn lemmas_2_3_4_progress_verified_exhaustively() {
    for (k, n) in [(3usize, 9u64), (3, 11), (4, 9), (4, 12)] {
        let kp = UniformKPartition::new(k);
        let proto = kp.compile();
        let graph = ConfigGraph::explore(&proto, n, 2_000_000).unwrap();
        let gk = kp.g(k).index();
        let best = graph.max_reachable(|cfg| u64::from(cfg[gk]));
        for id in 0..graph.num_configs() as u32 {
            let cfg = graph.config(id);
            let here = u64::from(cfg[gk]);
            // Lemma 2/3 precondition: enough unsettled agents for one
            // more complete grouping.
            if n - (k as u64) * here >= k as u64 {
                assert!(
                    best[id as usize] > here,
                    "k={k} n={n}: no grouping progress from {cfg:?}"
                );
            }
            // And the global maximum is ⌊n/k⌋ from everywhere below it.
            assert_eq!(
                best[id as usize],
                (n / k as u64).max(here),
                "k={k} n={n}: wrong reachable maximum from {cfg:?}"
            );
        }
    }
}

/// Our one-sided-abort extension (kpartition::variant) is not proved in
/// the paper — so prove it here, the same way: every terminal SCC of its
/// reachable graph is a correct frozen partition, for k ∈ {3, 4} across
/// a range of n. (Runtime comparisons live in the `variants` binary.)
#[test]
fn one_sided_abort_variant_verified_exhaustively() {
    use uniform_k_partition::protocols::kpartition::variant::OneSidedAbortKPartition;
    for (k, ns) in [(3usize, 3u64..=10), (4, 3..=10)] {
        let v = OneSidedAbortKPartition::new(k);
        let proto = v.compile();
        for n in ns {
            let graph = ConfigGraph::explore(&proto, n, 2_000_000)
                .unwrap_or_else(|e| panic!("k={k} n={n}: {e}"));
            let expected = v.base().expected_group_sizes(n);
            let report = graph.verify_stable_partition(|groups| groups == expected);
            assert!(
                report.verified(),
                "variant k={k} n={n}: {:?} over {} configs",
                report.failure,
                report.num_configs
            );
            // Lemma 1 holds for the variant's reachable set too.
            assert_eq!(
                graph.check_invariant(|cfg| {
                    let counts: Vec<u64> = cfg.iter().map(|&c| u64::from(c)).collect();
                    v.base().lemma1_holds(&counts)
                }),
                None,
                "variant k={k} n={n}: Lemma 1 violated"
            );
        }
    }
}

/// Cross-check simulator against model checker: the final configuration
/// of a random run is one of the graph's terminal configurations.
#[test]
fn simulator_ends_in_a_terminal_configuration() {
    let kp = UniformKPartition::new(3);
    let proto = kp.compile();
    let n = 8u64;
    let graph = ConfigGraph::explore(&proto, n, 2_000_000).unwrap();
    let terminal: std::collections::HashSet<Vec<u32>> = graph
        .terminal_sccs()
        .into_iter()
        .flatten()
        .map(|id| graph.config(id).to_vec())
        .collect();
    for seed in 0..5 {
        let mut pop = CountPopulation::new(&proto, n);
        let mut sched = UniformRandomScheduler::from_seed(seed);
        Simulator::new(&proto)
            .run_observed(
                &mut pop,
                &mut sched,
                &kp.stable_signature(n),
                kp.interaction_budget(n),
                &mut NullObserver,
            )
            .unwrap();
        let as_u32: Vec<u32> = pop.counts().iter().map(|&c| c as u32).collect();
        assert!(
            terminal.contains(&as_u32),
            "seed {seed}: simulator ended outside the terminal SCCs"
        );
    }
}
