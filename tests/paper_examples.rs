//! E1/E2: exact replays of the paper's worked examples (Figures 1 and 2).
//!
//! Figure 1 (§3.1) walks the basic strategy's happy path on `n = k = 6`;
//! Figure 2 (§3.2) shows two colliding chains being unwound through the
//! `D` states. The interaction sequences and agent labels follow the
//! paper's prose; configuration (a) of Figure 2 is reconstructed from the
//! prose plus the Lemma 1 invariant (two concurrent chains imply two `g1`
//! agents).

use pp_engine::population::Population;
use pp_engine::trace::ScriptedExecution;
use uniform_k_partition::prelude::*;

#[test]
fn figure1_execution() {
    let kp = UniformKPartition::new(6);
    let proto = kp.compile();
    let mut exec = ScriptedExecution::new(&proto, 6);
    let ini = kp.initial();
    let inip = kp.initial_prime();

    // (a) -> (b): interactions (a1,a2), (a3,a4), (a5,a6) flip everyone to
    // initial'.
    exec.interact_all(&[(0, 1), (2, 3), (4, 5)]);
    assert_eq!(exec.population().count(inip), 6, "Fig 1(b): all initial'");

    // (b) -> (c): (a1,a6), (a2,a3), (a4,a5) flip everyone back. The paper
    // notes this could loop forever under an unfair scheduler — global
    // fairness is what rules it out.
    exec.interact_all(&[(0, 5), (1, 2), (3, 4)]);
    assert_eq!(exec.population().count(ini), 6, "Fig 1(c): all initial");

    // (c) -> (d): (a5,a6) makes a5, a6 initial'.
    exec.interact(4, 5);
    assert_eq!(exec.population().count(inip), 2, "Fig 1(d)");

    // (d) -> (e): (a1,a6) is an (initial, initial') meeting — rule 5.
    let rec = exec.interact(0, 5);
    assert_eq!(rec.p2, kp.g(1), "a1 enters g1");
    assert_eq!(rec.q2, kp.m(2), "a6 enters m2");

    // (e) -> (f): a6 recruits a2, a3, a4 (rule 6) then settles with a5
    // (rule 7), ending with one agent per group.
    exec.interact(5, 1);
    assert_eq!(exec.population().state_of(1), kp.g(2));
    exec.interact(5, 2);
    assert_eq!(exec.population().state_of(2), kp.g(3));
    exec.interact(5, 3);
    assert_eq!(exec.population().state_of(3), kp.g(4));
    let rec = exec.interact(5, 4);
    assert_eq!(rec.p2, kp.g(6), "a6 settles into g6");
    assert_eq!(rec.q2, kp.g(5), "a5 settles into g5");

    assert_eq!(
        exec.population().group_sizes(&proto),
        vec![1, 1, 1, 1, 1, 1],
        "Fig 1(f): uniform 6-partition of 6 agents"
    );
    // The stable signature agrees.
    assert!(kp.stable_signature(6).matches(exec.population().counts()));
}

#[test]
fn figure2_execution() {
    let kp = UniformKPartition::new(6);
    let proto = kp.compile();
    // Fig 2(a): two chains started concurrently. Lemma 1 forces #g1 = 2.
    let mut exec = ScriptedExecution::from_states(
        &proto,
        vec![
            kp.g(1),      // a1
            kp.g(1),      // a2
            kp.initial(), // a3
            kp.initial(), // a4
            kp.m(2),      // a5
            kp.m(2),      // a6
        ],
    );
    assert!(kp.lemma1_holds(exec.population().counts()));

    // (a) -> (c): a5 absorbs the remaining free agents.
    exec.interact(2, 4);
    assert_eq!(exec.population().state_of(4), kp.m(3));
    exec.interact(3, 4);
    assert_eq!(exec.population().state_of(4), kp.m(4));
    assert_eq!(
        exec.population().count(kp.initial()) + exec.population().count(kp.initial_prime()),
        0,
        "Fig 2(c): no free agents — rules 1-7 all disabled"
    );
    // Rules 1–7 are indeed all disabled: every enabled pair that is not
    // (m, m) is an identity.
    for s in proto.states() {
        for t in proto.states() {
            if exec.population().count(s) == 0 || exec.population().count(t) == 0 {
                continue;
            }
            let is_mm = kp.m_index(s).is_some() && kp.m_index(t).is_some();
            if !is_mm {
                assert!(proto.is_identity(s, t), "unexpected enabled rule");
            }
        }
    }

    // (c) -> (d): rule 8, (a5, a6) = (m4, m2) -> (d3, d1).
    let rec = exec.interact(4, 5);
    assert_eq!(rec.p2, kp.d(3));
    assert_eq!(rec.q2, kp.d(1));
    assert!(kp.lemma1_holds(exec.population().counts()));

    // (d) -> (e): the paper's exact sequence (a1,a6), (a4,a5), (a3,a5),
    // (a2,a5) returns every agent to initial.
    exec.interact(0, 5); // rule 10
    exec.interact(3, 4); // rule 9: d3 + g3 -> d2 + initial
    exec.interact(2, 4); // rule 9: d2 + g2 -> d1 + initial
    exec.interact(1, 4); // rule 10
    assert_eq!(
        exec.population().count(kp.initial()),
        6,
        "Fig 2(e): all agents back in initial"
    );
    assert!(kp.lemma1_holds(exec.population().counts()));
}

/// After the Figure 2 reset, the population can still stabilise — the
/// unwind loses no agents and corrupts no invariant.
#[test]
fn figure2_population_recovers_to_uniform_partition() {
    let kp = UniformKPartition::new(6);
    let proto = kp.compile();
    let mut exec = ScriptedExecution::from_states(
        &proto,
        vec![
            kp.g(1),
            kp.g(1),
            kp.initial(),
            kp.initial(),
            kp.m(2),
            kp.m(2),
        ],
    );
    exec.interact_all(&[(2, 4), (3, 4), (4, 5), (0, 5), (3, 4), (2, 4), (1, 4)]);

    // Hand the recovered population to the random simulator.
    let mut pop =
        pp_engine::population::CountPopulation::from_counts(exec.population().counts().to_vec());
    let mut sched = UniformRandomScheduler::from_seed(3);
    Simulator::new(&proto)
        .run_observed(
            &mut pop,
            &mut sched,
            &kp.stable_signature(6),
            kp.interaction_budget(6),
            &mut NullObserver,
        )
        .expect("recovered population stabilises");
    assert_eq!(pop.group_sizes(&proto), vec![1; 6]);
}
