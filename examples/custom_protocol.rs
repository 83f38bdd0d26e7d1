//! Build, simulate, solve, and verify *your own* population protocol —
//! the full toolkit in one file.
//!
//! ```sh
//! cargo run --release --example custom_protocol
//! ```
//!
//! The protocol under study is not from the paper: a symmetric
//! "handshake matching" protocol where agents pair off into couples
//! (group 2) and at most one agent remains single (group 1):
//!
//! ```text
//! (idle , idle ) -> (idle', idle')
//! (idle', idle') -> (idle , idle )
//! (idle , idle') -> (matched, matched)
//! (matched, idle) -> (matched, idle̅)        [flip, for fairness traction]
//! ```
//!
//! — i.e. exactly the k = 2 skeleton of the paper's machinery, re-derived
//! from scratch against the engine API. The walkthrough then:
//!
//! 1. simulates it (sampled behaviour),
//! 2. solves its exact expected stabilisation time (Markov analysis),
//! 3. model-checks it under global fairness (all terminal SCCs good),
//! 4. prints its rule graph as GraphViz DOT.

use pp_engine::dot::protocol_dot;
use uniform_k_partition::prelude::*;
use uniform_k_partition::verify::hitting::{hitting_moments, SolverOptions};
use uniform_k_partition::verify::ConfigGraph;

fn main() {
    // --- 1. Describe and compile -----------------------------------
    let mut spec = ProtocolSpec::new("handshake-matching");
    let idle = spec.add_state("idle", 1);
    let idle2 = spec.add_state("idle'", 1);
    let matched = spec.add_state("matched", 2);
    spec.set_initial(idle);
    spec.add_rule(idle, idle, idle2, idle2);
    spec.add_rule(idle2, idle2, idle, idle);
    spec.add_rule_symmetric(idle, idle2, matched, matched);
    spec.add_rule_symmetric(matched, idle, matched, idle2);
    spec.add_rule_symmetric(matched, idle2, matched, idle);
    let proto = spec.compile().expect("consistent spec");
    println!(
        "protocol `{}`: {} states, symmetric = {}",
        proto.name(),
        proto.num_states(),
        proto.is_symmetric()
    );

    let n: u64 = 9;
    // Stable: ⌊n/2⌋ pairs matched, n mod 2 agents still idle.
    let stable = move |counts: &[u64]| counts[matched.index()] == (n / 2) * 2;

    // --- 2. Simulate -------------------------------------------------
    let mut pop = CountPopulation::new(&proto, n);
    let mut sched = UniformRandomScheduler::from_seed(7);
    struct Crit<F>(F);
    impl<F: Fn(&[u64]) -> bool> StabilityCriterion for Crit<F> {
        fn is_stable(&self, _p: &CompiledProtocol, c: &[u64]) -> bool {
            (self.0)(c)
        }
    }
    let run = Simulator::new(&proto)
        .run_observed(
            &mut pop,
            &mut sched,
            &Crit(stable),
            1_000_000,
            &mut NullObserver,
        )
        .expect("stabilises");
    println!(
        "simulated: stabilised after {} interactions; groups {:?}",
        run.interactions,
        pop.group_sizes(&proto)
    );

    // --- 3. Solve exactly -------------------------------------------
    let graph = ConfigGraph::explore(&proto, n, 100_000).expect("small graph");
    let moments = hitting_moments(
        &graph,
        |cfg| {
            let counts: Vec<u64> = cfg.iter().map(|&c| u64::from(c)).collect();
            stable(&counts)
        },
        SolverOptions::default(),
    )
    .expect("solvable");
    println!(
        "exact: E[T] = {:.2} ± {:.2} over {} reachable configurations \
         (optimal schedule: {} interactions)",
        moments.mean,
        moments.std_dev,
        graph.num_configs(),
        graph
            .min_interactions_to(|cfg| {
                let counts: Vec<u64> = cfg.iter().map(|&c| u64::from(c)).collect();
                stable(&counts)
            })
            .unwrap()
    );

    // --- 4. Verify under global fairness ----------------------------
    let report = graph.verify_stable_partition(|groups| {
        groups == [n % 2, n - n % 2] // singles in group 1, matched in 2
    });
    println!(
        "verified: {} ({} terminal SCCs)",
        if report.verified() { "yes ✓" } else { "NO" },
        report.num_terminal_sccs
    );
    assert!(report.verified());

    // --- 5. Export the rule graph -----------------------------------
    let dot = protocol_dot(&proto);
    let path = std::env::temp_dir().join("handshake-matching.dot");
    std::fs::write(&path, &dot).expect("write dot");
    println!(
        "rule graph written to {} (render with `dot -Tsvg`)",
        path.display()
    );
}
