//! Quickstart: divide a population into k equal groups.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Builds the paper's uniform k-partition protocol for `k = 4`, runs it
//! on a population of 30 agents under the uniform random scheduler, and
//! prints the stable partition together with the paper's §5 metric (the
//! number of interactions until stability).

use uniform_k_partition::prelude::*;

fn main() {
    let k = 4;
    let n = 30u64;

    // 1. Build and compile the protocol (3k − 2 = 10 states).
    let kp = UniformKPartition::new(k);
    let proto = kp.compile();
    println!(
        "protocol: {} — {} states, symmetric: {}",
        proto.name(),
        proto.num_states(),
        proto.is_symmetric()
    );

    // 2. All agents start in the designated initial state.
    let mut pop = CountPopulation::new(&proto, n);

    // 3. The paper's scheduler: uniform random pair each step. The seed
    //    makes the run reproducible.
    let mut sched = UniformRandomScheduler::from_seed(2024);

    // 4. Run until the stable configuration characterised by the paper's
    //    Lemmas 4–6 is reached.
    let criterion = kp.stable_signature(n);
    let result = Simulator::new(&proto)
        .run_observed(
            &mut pop,
            &mut sched,
            &criterion,
            kp.interaction_budget(n),
            &mut NullObserver,
        )
        .expect("the protocol stabilises under global fairness");

    println!(
        "stabilised after {} interactions ({} of them state-changing)",
        result.interactions, result.effective_interactions
    );

    // 5. Read off the partition through the output map f.
    let sizes = pop.group_sizes(&proto);
    for (g, &size) in sizes.iter().enumerate() {
        println!("group {}: {size} agents", g + 1);
    }
    assert_eq!(sizes, kp.expected_group_sizes(n));
    println!("uniform: max group difference <= 1  ✓");

    // The Lemma 1 invariant held all along; spot-check it at the end.
    assert!(kp.lemma1_holds(pop.counts()));
}
