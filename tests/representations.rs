//! Cross-representation and cross-scheduler consistency: the count-vector
//! population (used for all figures) and the per-agent population must be
//! statistically interchangeable, and the graph scheduler on a complete
//! graph must match the uniform-pair scheduler.

use pp_engine::population::AgentPopulation;
use pp_topo::{CompleteTopology, EdgeListTopology, TopologyScheduler};
use uniform_k_partition::prelude::*;

/// Means of interactions-to-stability from the two representations agree
/// within sampling error (they implement the same Markov chain).
#[test]
fn count_and_agent_representations_agree_statistically() {
    let kp = UniformKPartition::new(3);
    let proto = kp.compile();
    let n = 24u64;
    let trials = 60u64;
    let sig = kp.stable_signature(n);

    let mut count_sum = 0u64;
    for seed in 0..trials {
        let mut pop = CountPopulation::new(&proto, n);
        let mut sched = UniformRandomScheduler::from_seed(seed);
        count_sum += Simulator::new(&proto)
            .run_observed(
                &mut pop,
                &mut sched,
                &sig,
                kp.interaction_budget(n),
                &mut NullObserver,
            )
            .unwrap()
            .interactions;
        assert_eq!(pop.group_sizes(&proto), kp.expected_group_sizes(n));
    }

    let mut agent_sum = 0u64;
    for seed in 0..trials {
        let mut pop = AgentPopulation::new(&proto, n as usize);
        let mut sched = UniformRandomScheduler::from_seed(1_000_000 + seed);
        agent_sum += Simulator::new(&proto)
            .run_agents_observed(
                &mut pop,
                &mut sched,
                &sig,
                kp.interaction_budget(n),
                &mut NullObserver,
            )
            .unwrap()
            .interactions;
        assert_eq!(pop.group_sizes(&proto), kp.expected_group_sizes(n));
    }

    let count_mean = count_sum as f64 / trials as f64;
    let agent_mean = agent_sum as f64 / trials as f64;
    let ratio = count_mean / agent_mean;
    assert!(
        (0.6..1.67).contains(&ratio),
        "means diverge: count {count_mean} vs agent {agent_mean}"
    );
}

/// The complete-graph TopologyScheduler is the same process as the
/// uniform-pair scheduler: identical stable outcomes, comparable cost.
#[test]
fn complete_graph_scheduler_equivalent_to_uniform() {
    let kp = UniformKPartition::new(4);
    let proto = kp.compile();
    let n = 20usize;
    let sig = kp.stable_signature(n as u64);
    let mut sum = 0u64;
    for seed in 0..30 {
        let mut pop = AgentPopulation::new(&proto, n);
        let mut sched = TopologyScheduler::uniform(Box::new(CompleteTopology::new(n)), seed);
        sum += Simulator::new(&proto)
            .run_agents_observed(
                &mut pop,
                &mut sched,
                &sig,
                kp.interaction_budget(n as u64),
                &mut NullObserver,
            )
            .unwrap()
            .interactions;
        assert_eq!(pop.group_sizes(&proto), kp.expected_group_sizes(n as u64));
    }
    assert!(sum > 0);
}

/// Per-agent stability semantics: once the run stops, every agent's
/// group is frozen — continue interacting at random and confirm no agent
/// ever changes its group again (the paper's §2.2 stability definition,
/// checked per agent rather than per count).
#[test]
fn per_agent_groups_frozen_after_stability() {
    let kp = UniformKPartition::new(4);
    let proto = kp.compile();
    let n = 21usize; // r = 1: the lone free agent keeps flipping states
    let sig = kp.stable_signature(n as u64);
    let mut pop = AgentPopulation::new(&proto, n);
    let mut sched = UniformRandomScheduler::from_seed(5);
    Simulator::new(&proto)
        .run_agents_observed(
            &mut pop,
            &mut sched,
            &sig,
            kp.interaction_budget(n as u64),
            &mut NullObserver,
        )
        .unwrap();
    let groups_before: Vec<usize> = (0..n).map(|i| pop.group_of(&proto, i).number()).collect();

    // Keep scheduling long after stability.
    use pp_engine::scheduler::AgentScheduler;
    let mut flips = 0u64;
    for _ in 0..50_000 {
        let (i, j) = sched.select_agents(&pop);
        let (p, q, p2, q2) = pop.interact(&proto, i, j);
        if p != p2 || q != q2 {
            flips += 1;
        }
    }
    let groups_after: Vec<usize> = (0..n).map(|i| pop.group_of(&proto, i).number()).collect();
    assert_eq!(
        groups_before, groups_after,
        "a group changed post-stability"
    );
    // With r = 1 the free agent's initial/initial' flips continue forever
    // (rules 3–4) — state changes happen, group changes don't.
    assert!(flips > 0, "expected the lone free agent to keep flipping");
}

/// The complete-graph assumption is load-bearing: on a star, once the
/// hub settles (the first rule-5 firing always involves the hub), leaves
/// can only ever meet the settled hub and flip — no further agent can
/// settle, so the uniform partition is unreachable. The engine's graph
/// machinery makes this failure observable.
#[test]
fn star_graph_cannot_partition() {
    let kp = UniformKPartition::new(2);
    let proto = kp.compile();
    let n = 9usize;
    let sig = kp.stable_signature(n as u64);
    let mut pop = AgentPopulation::new(&proto, n);
    let mut sched = TopologyScheduler::uniform(Box::new(EdgeListTopology::star(n)), 8);
    let res = Simulator::new(&proto).run_agents_observed(
        &mut pop,
        &mut sched,
        &sig,
        200_000,
        &mut NullObserver,
    );
    assert!(res.is_err(), "bipartition cannot stabilise on a star");
    // Exactly one pair (hub + one leaf) ever settles: one agent in g2.
    let sizes = pop.group_sizes(&proto);
    assert_eq!(
        sizes[1], 1,
        "only the hub's partner reaches group 2: {sizes:?}"
    );
}
