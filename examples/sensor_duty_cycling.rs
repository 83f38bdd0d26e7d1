//! Application: energy-saving duty cycling in a sensor swarm.
//!
//! ```sh
//! cargo run --release --example sensor_duty_cycling
//! ```
//!
//! The paper's introduction motivates uniform k-partition with energy
//! management: "switching on some groups and switching off the others".
//! This example plays that scenario end to end on the bird-sensor network
//! the paper describes: a swarm of sensors with no identifiers and no
//! knowledge of `n` partitions itself into `k` shifts via opportunistic
//! pairwise encounters; the shifts then take turns being awake.
//!
//! We compare the battery lifetime of the duty-cycled swarm against an
//! always-on swarm, charging each sensor for its share of the partition
//! protocol's interactions plus its awake time.

use uniform_k_partition::prelude::*;

/// Energy model (arbitrary units per time slot / event).
const BATTERY: f64 = 10_000.0;
const AWAKE_COST_PER_SLOT: f64 = 1.0;
const ASLEEP_COST_PER_SLOT: f64 = 0.05;
const INTERACTION_COST: f64 = 0.01;

fn main() {
    let k = 3; // three shifts
    let n = 60u64; // sixty sensors

    let kp = UniformKPartition::new(k);
    let proto = kp.compile();
    let mut pop = CountPopulation::new(&proto, n);
    let mut sched = UniformRandomScheduler::from_seed(7);
    let criterion = kp.stable_signature(n);
    let run = Simulator::new(&proto)
        .run_observed(
            &mut pop,
            &mut sched,
            &criterion,
            kp.interaction_budget(n),
            &mut NullObserver,
        )
        .expect("partition stabilises");

    let sizes = pop.group_sizes(&proto);
    println!("partitioned {n} sensors into {k} shifts: {sizes:?}");
    println!(
        "partitioning cost: {} interactions total (~{:.1} per sensor)",
        run.interactions,
        run.interactions as f64 / n as f64
    );

    // Each sensor participated in ~2·interactions/n pairwise exchanges.
    let partition_energy = 2.0 * run.interactions as f64 / n as f64 * INTERACTION_COST;

    // Duty cycling: shift i is awake every k-th slot.
    let duty_cost_per_slot =
        (AWAKE_COST_PER_SLOT + (k as f64 - 1.0) * ASLEEP_COST_PER_SLOT) / k as f64;
    let lifetime_duty = (BATTERY - partition_energy) / duty_cost_per_slot;
    let lifetime_always_on = BATTERY / AWAKE_COST_PER_SLOT;

    println!();
    println!("always-on lifetime : {lifetime_always_on:>10.0} slots");
    println!(
        "duty-cycled ({} shifts): {lifetime_duty:>10.0} slots ({:.2}x, partition \
         overhead {:.3} units/sensor)",
        k,
        lifetime_duty / lifetime_always_on,
        partition_energy
    );

    // Uniformity is what makes rotation fair: every shift covers the
    // field with (almost) the same sensor count.
    let max = sizes.iter().max().unwrap();
    let min = sizes.iter().min().unwrap();
    assert!(max - min <= 1);
    println!(
        "coverage per shift: between {min} and {max} sensors — every slot has \
         within-1 identical sensing capacity"
    );
}
