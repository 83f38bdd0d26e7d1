//! A1: the basic-strategy ablation (rules 1–7 without the D states) fails
//! on random executions with measurable probability, while the full
//! protocol succeeds on every one — the quantitative form of §3.2.

use pp_analysis::runner::{run_trials, TrialConfig, TrialOutcome};
use pp_engine::population::{CountPopulation, Population};
use pp_engine::stability::Silent;
use uniform_k_partition::prelude::*;
use uniform_k_partition::protocols::kpartition::ablation::BasicStrategyKPartition;

/// Every trial's outcome on the leap kernel.
fn run_trials_full<C: StabilityCriterion + Sync>(
    proto: &CompiledProtocol,
    n: u64,
    criterion: &C,
    cfg: TrialConfig,
) -> Vec<TrialOutcome> {
    run_trials(proto, n, criterion, cfg, Kernel::Leap, || NullObserver)
        .into_iter()
        .map(|(o, _)| o)
        .collect()
}

#[test]
fn basic_strategy_deadlocks_with_positive_probability() {
    let bp = BasicStrategyKPartition::new(4);
    let proto = bp.compile();
    let n = 12u64;
    let outcomes = run_trials_full(
        &proto,
        n,
        &Silent,
        TrialConfig {
            trials: 60,
            master_seed: 2,
            max_interactions: 1_000_000_000,
        },
    );
    let mut deadlocks = 0;
    for o in &outcomes {
        assert!(
            o.interactions.is_some(),
            "basic strategy must always reach a silent configuration"
        );
        let pop = CountPopulation::from_counts(o.final_counts.clone());
        let sizes = pop.group_sizes(&proto);
        if bp.is_deadlocked(&o.final_counts) {
            deadlocks += 1;
            // Deadlocked runs are non-uniform…
            assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() > 1);
        } else {
            // …and non-deadlocked runs are perfectly uniform.
            assert_eq!(sizes, vec![3, 3, 3, 3]);
        }
    }
    // At n = 12, k = 4 concurrent chains are common; over 60 seeded trials
    // the deadlock count is deterministic and comfortably positive.
    assert!(
        deadlocks >= 5,
        "expected frequent deadlocks, saw {deadlocks}/60"
    );
}

#[test]
fn full_protocol_never_deadlocks_on_same_cells() {
    for (k, n) in [(4usize, 12u64), (5, 20), (6, 24)] {
        let kp = UniformKPartition::new(k);
        let proto = kp.compile();
        let outcomes = run_trials_full(
            &proto,
            n,
            &kp.stable_signature(n),
            TrialConfig {
                trials: 30,
                master_seed: 3,
                max_interactions: kp.interaction_budget(n),
            },
        );
        for o in &outcomes {
            assert!(o.interactions.is_some(), "k={k} n={n}: censored run");
            let pop = CountPopulation::from_counts(o.final_counts.clone());
            assert_eq!(
                pop.group_sizes(&proto),
                kp.expected_group_sizes(n),
                "k={k} n={n}"
            );
        }
    }
}

/// The D states cost something: on cells where the basic strategy
/// *happens* to succeed it can be cheaper than the full protocol, but the
/// full protocol's price buys certainty. This test just documents that
/// both protocols produce comparable interaction scales (within 100x) so
/// the ablation table is meaningful.
#[test]
fn ablation_costs_are_comparable() {
    let kp = UniformKPartition::new(4);
    let full = {
        let proto = kp.compile();
        let out = run_trials_full(
            &proto,
            12,
            &kp.stable_signature(12),
            TrialConfig {
                trials: 20,
                master_seed: 4,
                max_interactions: kp.interaction_budget(12),
            },
        );
        out.iter().map(|o| o.interactions.unwrap()).sum::<u64>() as f64 / 20.0
    };
    let bp = BasicStrategyKPartition::new(4);
    let basic = {
        let proto = bp.compile();
        let out = run_trials_full(
            &proto,
            12,
            &Silent,
            TrialConfig {
                trials: 20,
                master_seed: 4,
                max_interactions: 1_000_000_000,
            },
        );
        out.iter().map(|o| o.interactions.unwrap()).sum::<u64>() as f64 / 20.0
    };
    assert!(basic > 0.0 && full > 0.0);
    assert!(full / basic < 100.0 && basic / full < 100.0);
}
