//! Application: weighted task allocation with the ratio-partition
//! extension.
//!
//! ```sh
//! cargo run --release --example task_allocation
//! ```
//!
//! The paper's second motivating application: "assign different tasks to
//! different groups and make agents execute multiple tasks at the same
//! time". Real task mixes are rarely uniform, which is exactly what the
//! R-generalized partition (Umino et al., the extension cited in §1.2)
//! handles: here a molecular-robot swarm splits 3:2:1 between *sensing*,
//! *transport*, and *repair* duty.

use pp_engine::observer::NullObserver;
use pp_engine::population::{CountPopulation, Population};
use pp_engine::scheduler::UniformRandomScheduler;
use pp_engine::simulator::Simulator;
use uniform_k_partition::protocols::ratio::RatioPartition;

const TASKS: [&str; 3] = ["sensing", "transport", "repair"];

fn main() {
    let ratios = vec![3u32, 2, 1];
    let n = 120u64;

    let rp = RatioPartition::new(ratios.clone());
    let proto = rp.compile();
    println!(
        "ratio partition {:?} over {} slots — {} states",
        ratios,
        rp.num_slots(),
        proto.num_states()
    );

    let mut pop = CountPopulation::new(&proto, n);
    let mut sched = UniformRandomScheduler::from_seed(99);
    let criterion = rp.stable_signature(n);
    let run = Simulator::new(&proto)
        .run_observed(
            &mut pop,
            &mut sched,
            &criterion,
            rp.slots().interaction_budget(n),
            &mut NullObserver,
        )
        .expect("ratio partition stabilises");

    println!("stabilised after {} interactions\n", run.interactions);

    let sizes = pop.group_sizes(&proto);
    let total_ratio: u32 = ratios.iter().sum();
    for ((task, &size), &r) in TASKS.iter().zip(&sizes).zip(&ratios) {
        let ideal = n as f64 * r as f64 / total_ratio as f64;
        println!(
            "{task:<10} {size:>4} robots (ideal {ideal:>5.1}, deviation {:+.1})",
            size as f64 - ideal
        );
    }
    assert_eq!(sizes, rp.expected_group_sizes(n));

    // The deviation guarantee: group i misses its ideal share by < r_i.
    for (i, (&size, &r)) in sizes.iter().zip(&ratios).enumerate() {
        let ideal = n as f64 * r as f64 / total_ratio as f64;
        assert!(
            (size as f64 - ideal).abs() < r as f64 + 1e-9,
            "group {} deviates more than its ratio weight",
            i + 1
        );
    }
    println!("\nall groups within their ratio-weight deviation bound  ✓");
}
