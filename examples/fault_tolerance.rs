//! Application: repartitioning after agent failures ("when birds die").
//!
//! ```sh
//! cargo run --release --example fault_tolerance
//! ```
//!
//! The paper's introduction cites fault tolerance (Delporte-Gallet et al.,
//! "When birds die") as a use of uniform k-partition. This example
//! demonstrates the failure mode and the recovery path:
//!
//! 1. A swarm of 40 sensors partitions into 4 groups of 10.
//! 2. A storm knocks out a quarter of the swarm — disproportionately
//!    from group 1 —
//!    leaving the partition badly skewed (the protocol has designated
//!    initial states and is *not* self-stabilizing, so it cannot repair
//!    itself: the survivors' states are frozen).
//! 3. A reset wave re-initialises the survivors (in practice a broadcast
//!    or epidemic reset), and the protocol re-partitions the 29 survivors
//!    into 8+7+7+7 from scratch.
//!
//! The per-agent [`AgentPopulation`] representation is what makes step 2
//! expressible: we remove specific agents, not just counts.

use pp_engine::scheduler::AgentScheduler;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use uniform_k_partition::prelude::*;

fn main() {
    let k = 4;
    let n = 40usize;
    let kp = UniformKPartition::new(k);
    let proto = kp.compile();

    // Phase 1: partition the healthy swarm.
    let mut pop = AgentPopulation::new(&proto, n);
    let mut sched = UniformRandomScheduler::from_seed(13);
    let sig = kp.stable_signature(n as u64);
    let run = Simulator::new(&proto)
        .run_agents_observed(
            &mut pop,
            &mut sched,
            &sig,
            kp.interaction_budget(n as u64),
            &mut NullObserver,
        )
        .expect("initial partition stabilises");
    println!(
        "phase 1: {} sensors -> groups {:?} after {} interactions",
        n,
        pop.group_sizes(&proto),
        run.interactions
    );

    // Phase 2: the storm. Kill 8 of group 1's sensors and 3 others.
    let mut rng = SmallRng::seed_from_u64(4242);
    let mut group1: Vec<usize> = (0..pop.num_agents() as usize)
        .filter(|&i| pop.group_of(&proto, i).number() == 1)
        .collect();
    group1.shuffle(&mut rng);
    let mut doomed: Vec<usize> = group1.into_iter().take(8).collect();
    let extra: Vec<usize> = [0, 1, 2]
        .into_iter()
        .filter(|i| !doomed.contains(i))
        .take(3)
        .collect();
    doomed.extend(extra);
    doomed.sort_unstable_by(|a, b| b.cmp(a)); // remove from the back first
    for i in doomed {
        pop.remove_agent(i);
    }
    let skewed = pop.group_sizes(&proto);
    println!(
        "phase 2: storm leaves {} survivors, groups {:?} — imbalance {}",
        pop.num_agents(),
        skewed,
        skewed.iter().max().unwrap() - skewed.iter().min().unwrap()
    );
    assert!(
        skewed.iter().max().unwrap() - skewed.iter().min().unwrap() > 1,
        "the partition is no longer uniform"
    );

    // The frozen survivors cannot repair themselves: their configuration
    // is already group-stable (settled g-agents never interact usefully).
    let survivors = pop.num_agents();

    // Phase 3: reset wave re-initialises every survivor; re-partition.
    for i in 0..survivors as usize {
        pop.set_state(i, proto.initial_state());
    }
    let sig = kp.stable_signature(survivors);
    let mut sched = UniformRandomScheduler::from_seed(14);
    let run = Simulator::new(&proto)
        .run_agents_observed(
            &mut pop,
            &mut sched,
            &sig,
            kp.interaction_budget(survivors),
            &mut NullObserver,
        )
        .expect("re-partition stabilises");
    let healed = pop.group_sizes(&proto);
    println!(
        "phase 3: re-partitioned {survivors} survivors -> {:?} after {} interactions",
        healed, run.interactions
    );
    assert_eq!(healed, kp.expected_group_sizes(survivors));
    println!("uniformity restored  ✓");

    // Bonus: the same machinery runs on restricted interaction graphs.
    // On a ring the chain-builder can still meet everyone eventually, but
    // scheduling is graph-limited; this is outside the paper's model
    // (complete graphs) and shown here only as an engine capability.
    let g = uniform_k_partition::topo::EdgeListTopology::ring(survivors as usize);
    let mut ring_sched = uniform_k_partition::topo::TopologyScheduler::uniform(Box::new(g), 15);
    let mut ring_pop = AgentPopulation::new(&proto, survivors as usize);
    let _ = ring_sched.select_agents(&ring_pop);
    let res = Simulator::new(&proto).run_agents_observed(
        &mut ring_pop,
        &mut ring_sched,
        &kp.stable_signature(survivors),
        5_000_000,
        &mut NullObserver,
    );
    match res {
        Ok(r) => println!(
            "ring topology: stabilised anyway after {} interactions (slower mixing)",
            r.interactions
        ),
        Err(e) => println!("ring topology: {e} — the complete-graph assumption matters"),
    }
}
