//! Cross-validation: exact expected stabilisation times (Markov-chain
//! first-step analysis on the full configuration graph) against the
//! simulation harness's sample means, on instances small enough to solve
//! exactly.
//!
//! This is the strongest possible check of the reproduction pipeline: if
//! the simulator's sampling, transition table, or stability criterion
//! were off by anything, sample means would drift from the solved
//! expectation. Agreement is asserted at 4 standard errors.
//!
//! Output: markdown table + `results/exact_vs_sim.csv`.

#![forbid(unsafe_code)]

use pp_analysis::config;
use pp_analysis::experiments::kpartition_cell;
use pp_analysis::table::{fmt_f64, Table};
use pp_protocols::kpartition::UniformKPartition;
use pp_verify::hitting::{hitting_moments, SolverOptions};
use pp_verify::ConfigGraph;

fn main() {
    let seed = config::master_seed();
    println!(
        "== Exact vs simulated — Markov-chain expectations vs sample means \
         (paper's metric, solved exactly)"
    );
    println!(
        "   trials/cell = {}, master seed = {seed} (override with PP_TRIALS / PP_SEED)\n",
        config::trials()
    );
    let trials = config::trials().max(100);

    let mut table = Table::new(vec![
        "k",
        "n",
        "configs",
        "optimal",
        "exact E[T]",
        "exact std",
        "sim mean",
        "sim std",
        "sim sem",
        "z-score",
    ]);

    for (k, n) in [
        (2usize, 4u64),
        (2, 8),
        (2, 12),
        (3, 6),
        (3, 9),
        (3, 12),
        (4, 8),
        (4, 12),
        (5, 10),
    ] {
        let kp = UniformKPartition::new(k);
        let proto = kp.compile();
        let graph = ConfigGraph::explore(&proto, n, 5_000_000).expect("graph fits");
        let sig = kp.stable_signature(n);
        let exact = hitting_moments(
            &graph,
            |cfg| {
                let counts: Vec<u64> = cfg.iter().map(|&c| u64::from(c)).collect();
                sig.matches(&counts)
            },
            SolverOptions::default(),
        )
        .expect("solvable");

        let optimal = graph
            .min_interactions_to(|cfg| {
                let counts: Vec<u64> = cfg.iter().map(|&c| u64::from(c)).collect();
                sig.matches(&counts)
            })
            .expect("stable set reachable");

        let cell = kpartition_cell(k, n, trials, seed);
        let s = cell.summary();
        let z = (s.mean - exact.mean) / s.sem.max(1e-12);
        table.row(vec![
            k.to_string(),
            n.to_string(),
            graph.num_configs().to_string(),
            optimal.to_string(),
            format!("{:.3}", exact.mean),
            format!("{:.3}", exact.std_dev),
            fmt_f64(s.mean),
            fmt_f64(s.std_dev),
            fmt_f64(s.sem),
            format!("{z:+.2}"),
        ]);
        assert!(
            z.abs() < 4.0,
            "k={k} n={n}: simulation drifted from the exact expectation (z = {z:.2})"
        );
    }

    println!("{}", table.to_markdown());
    println!(
        "All |z| < 4: the simulator's sample means are statistically \
         indistinguishable from the exact Markov-chain expectations."
    );
    let path = config::results_path("exact_vs_sim.csv");
    table.write_csv(&path).expect("write csv");
    println!("wrote {}", path.display());
}
