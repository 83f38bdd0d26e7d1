//! `verify-envelope`: exhaustive `ConfigGraph::explore` plus
//! `verify_stable_partition` for k=4,5,6 at n=30, and the
//! `hitting::expected_interactions` solve at k=6, n=20. Each pass runs
//! on one thread; the untraced run keeps one pass stream per core.
//!
//! The workload is deterministic: the seed selects nothing, and the
//! configuration counts are pinned (they match `BENCH_verify.json`).

use std::time::Instant;

use pp_engine::protocol::CompiledProtocol;
use pp_protocols::kpartition::UniformKPartition;
use pp_verify::hitting::{expected_interactions, SolverOptions};
use pp_verify::ConfigGraph;

use crate::report::Outcome;
use crate::spans::SpanLog;
use crate::{RunConfig, Scale};

/// Per-layer metrics of this workload.
pub const LAYER: &[(&str, &str)] = &[
    ("verify.explore_s", "s"),
    ("verify.scc_s", "s"),
    ("verify.hitting_s", "s"),
    ("verify.configs", "count"),
    ("verify.edges", "count"),
    ("verify.frontier_peak", "count"),
];

/// Exploration budget (far above the largest cell).
const MAX_CONFIGS: usize = 2_000_000;

/// `(k, n, pinned reachable configurations)` of one verified cell.
pub type Verified = (usize, u64, usize);

/// The verified cells, and `(k, n)` of the hitting-time solve, at each
/// scale.
pub fn cells(scale: Scale) -> (Vec<Verified>, (usize, u64)) {
    match scale {
        Scale::Full => (
            vec![(4, 30, 27_947), (5, 30, 81_920), (6, 30, 161_626)],
            (6, 20),
        ),
        Scale::Toy => (vec![(3, 12, 249), (4, 10, 275)], (3, 8)),
    }
}

/// Per-pass timings and counts.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Pass {
    /// Seconds in `ConfigGraph::explore`.
    pub explore_s: f64,
    /// Seconds in `verify_stable_partition`.
    pub scc_s: f64,
    /// Seconds in the hitting-time graph build and solve.
    pub hitting_s: f64,
    /// Reachable configurations of the verified cells.
    pub configs: u64,
    /// Edges of their configuration graphs.
    pub edges: u64,
    /// Expected interactions of the hitting-time solve.
    pub expected: f64,
    /// One entry per check: `Some` describes a failure.
    pub checks: Vec<Option<String>>,
}

impl Pass {
    /// Same counts, and the same expected hitting time up to the
    /// solver's tolerance (configuration ids, and so the Gauss–Seidel
    /// sweep order, may differ between explorations).
    pub fn agrees(&self, other: &Pass) -> bool {
        self.configs == other.configs
            && self.edges == other.edges
            && (self.expected - other.expected).abs() <= 1e-6 * other.expected
    }
}

fn edges(g: &ConfigGraph<'_>) -> u64 {
    (0..g.num_configs() as u32)
        .map(|id| g.successors(id).len() as u64)
        .sum()
}

/// One envelope pass, with its check results in [`Pass::checks`].
pub fn pass(
    protos: &[(UniformKPartition, CompiledProtocol)],
    scale: Scale,
    spans: &SpanLog,
) -> Pass {
    let (verified, (hk, hn)) = cells(scale);
    let mut p = Pass::default();
    for (kp, proto) in protos
        .iter()
        .filter(|(kp, _)| verified.iter().any(|c| c.0 == kp.k()))
    {
        let &(k, n, pinned) = verified.iter().find(|c| c.0 == kp.k()).expect("filtered");
        let (graph, dt) = spans.time("verify.explore", 0, |_| {
            ConfigGraph::explore(proto, n, MAX_CONFIGS)
        });
        p.explore_s += dt;
        let graph = match graph {
            Ok(g) => g,
            Err(e) => {
                p.checks.push(Some(format!("k={k} n={n}: {e}")));
                continue;
            }
        };
        let expected = kp.expected_group_sizes(n);
        let (report, dt) = spans.time("verify.scc", 0, |_| {
            graph.verify_stable_partition(|g| g == expected)
        });
        p.scc_s += dt;
        p.configs += graph.num_configs() as u64;
        p.edges += edges(&graph);
        p.checks.push(
            if !report.verified() || report.num_terminal_sccs != 1 || graph.num_configs() != pinned
            {
                Some(format!(
                    "k={k} n={n}: verified {}, {} terminal SCCs, {} configs (pinned {pinned})",
                    report.verified(),
                    report.num_terminal_sccs,
                    graph.num_configs()
                ))
            } else {
                None
            },
        );
    }
    let (kp, proto) = protos
        .iter()
        .find(|(kp, _)| kp.k() == hk)
        .expect("hitting protocol compiled");
    let sig = kp.stable_signature(hn);
    let (solved, dt) = spans.time("verify.hitting", 0, |_| {
        let graph = ConfigGraph::explore(proto, hn, MAX_CONFIGS).map_err(|e| e.to_string())?;
        let stable =
            |cfg: &[u32]| sig.matches(&cfg.iter().map(|&c| u64::from(c)).collect::<Vec<_>>());
        expected_interactions(&graph, stable, SolverOptions::default()).map_err(|e| e.to_string())
    });
    p.hitting_s = dt;
    match solved {
        Ok(h) if h.expected_from_initial.is_finite() && h.expected_from_initial > 0.0 => {
            p.expected = h.expected_from_initial;
            p.checks.push(None);
        }
        Ok(h) => p.checks.push(Some(format!(
            "hitting solve gave {}",
            h.expected_from_initial
        ))),
        Err(e) => p.checks.push(Some(format!("hitting solve failed: {e}"))),
    }
    p
}

/// Run the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let start = Instant::now();
    let mut out = Outcome::default();
    let spans = SpanLog::new(cfg.trace);
    let (verified, (hk, _)) = cells(cfg.scale);
    let mut ks: Vec<usize> = verified.iter().map(|c| c.0).chain([hk]).collect();
    ks.sort_unstable();
    ks.dedup();
    let compile = || -> Vec<(UniformKPartition, CompiledProtocol)> {
        ks.iter()
            .map(|&k| {
                let kp = UniformKPartition::new(k);
                let proto = kp.compile();
                (kp, proto)
            })
            .collect()
    };
    let setup_s = crate::env::median_time(|| {
        std::hint::black_box(compile());
    });
    let protos = compile();

    // Untraced: one pass stream per core, in lockstep rounds, so a run
    // holds enough passes for a steady median, no single core's share
    // of the host decides it, and the streams' memory peaks coincide.
    // Traced: one pass alone. An untimed warm-up round fills the
    // allocator's free lists; its first pass is the reference every
    // pass must agree with.
    let (threads, max) = if cfg.trace {
        (1, 1)
    } else {
        (crate::env::threads(), 1000)
    };
    let warm = crate::env::lockstep(0.0, threads, 1, || {
        pass(&protos, cfg.scale, &SpanLog::new(false))
    });
    let rounds = crate::env::lockstep(crate::remaining(cfg, start), threads, max, || {
        pass(&protos, cfg.scale, &spans)
    });
    let reference = &warm[0].1[0].1;
    let passes: Vec<&Pass> = warm
        .iter()
        .chain(&rounds)
        .flat_map(|r| r.1.iter().map(|c| &c.1))
        .collect();
    for c in passes.iter().flat_map(|p| &p.checks) {
        out.check(c.clone());
    }
    for (i, p) in passes.iter().enumerate().skip(1) {
        out.check(
            (!p.agrees(reference)).then(|| format!("pass {i} disagrees with the warm-up pass")),
        );
    }
    let times: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.1.iter().map(|c| c.0))
        .collect();
    if !cfg.trace {
        let task_s = crate::stats::median(&times);
        out.metric("setup_s", setup_s, "s");
        out.metric("task_s", task_s, "s");
        // A round completes one pass per core.
        let walls: Vec<f64> = rounds.iter().map(|r| r.0).collect();
        out.metric(
            "tasks_per_s",
            threads as f64 / crate::stats::median(&walls),
            "1/s",
        );
        out.metric("peak_rss_mb", crate::env::peak_rss_mb(), "MB");
        out.note(format!(
            "verify-envelope: verify_s = {task_s:.4} s (median of {} passes, in rounds of {threads} concurrent passes; {} configs, {} edges)",
            times.len(),
            reference.configs,
            reference.edges
        ));
        return out;
    }

    // Traced pass: same calls, each timed on its own; results must match.
    let t0 = Instant::now();
    let traced = pass(&protos, cfg.scale, &spans);
    for c in &traced.checks {
        out.check(c.clone());
    }
    let traced_s = t0.elapsed().as_secs_f64();
    out.check(
        (!traced.agrees(reference))
            .then(|| "traced pass disagrees with the warm-up pass".to_string()),
    );
    let frontier = pp_telemetry::Snapshot::capture_global()
        .value("verify.frontier_peak")
        .unwrap_or(0);
    out.metric("protocols.compile_s", crate::compile_s(6), "s");
    out.metric(
        "bench.trace_overhead_pct",
        100.0 * (traced_s - times[0]) / times[0],
        "%",
    );
    out.metric("verify.explore_s", traced.explore_s, "s");
    out.metric("verify.scc_s", traced.scc_s, "s");
    out.metric("verify.hitting_s", traced.hitting_s, "s");
    out.metric("verify.configs", traced.configs as f64, "count");
    out.metric("verify.edges", traced.edges as f64, "count");
    out.metric("verify.frontier_peak", frontier as f64, "count");
    out.spans = spans.to_ndjson();
    out
}
