//! Edge schedulers: who interacts next, on a given topology.
//!
//! The engine's `UniformRandomScheduler` hard-codes the paper's model
//! (uniform ordered pair on the complete graph). An [`EdgeScheduler`]
//! generalises it to arbitrary [`Topology`] values and three activation
//! regimes:
//!
//! * [`UniformEdgeScheduler`] — uniform over enabled edges, uniform
//!   orientation. On the complete graph it reproduces
//!   `UniformRandomScheduler`'s ordered-pair distribution (and its exact
//!   sampling procedure, so the equivalence is testable with fixed seeds).
//! * [`ZipfScheduler`] — Zipf-skewed per-agent activation rates, modelling
//!   heterogeneous interaction speeds.
//! * [`AdversarialFairScheduler`] — a round-based greedy scheduler that
//!   tries to *delay* stabilisation while remaining provably fair: every
//!   enabled edge fires within a bounded window, witnessed by a
//!   machine-checkable [`FairnessCertificate`].

use crate::topology::Topology;
use pp_engine::population::{AgentPopulation, Population};
use pp_engine::scheduler::AgentScheduler;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Chooses the next ordered agent pair on a topology.
///
/// Unlike `pp_engine::scheduler::AgentScheduler`, the topology is passed
/// per call: under churn the graph mutates between interactions and the
/// dynamics runner owns it. [`Self::on_topology_changed`] notifies
/// stateful schedulers of mutations.
pub trait EdgeScheduler {
    /// Select an ordered pair of distinct agents joined by an enabled
    /// edge. Requires `topo.num_edges() > 0` and the population/topology
    /// agent counts to agree.
    fn next_pair(&mut self, topo: &dyn Topology, pop: &AgentPopulation) -> (usize, usize);

    /// Called after the topology mutates (join/leave/crash), with the
    /// interaction count at the mutation. Default: no-op.
    fn on_topology_changed(&mut self, _topo: &dyn Topology, _step: u64) {}

    /// The fairness certificate accumulated so far, for schedulers that
    /// carry one. Default: `None` (randomised schedulers are fair with
    /// probability 1, not within a deterministic window).
    fn certificate(&self) -> Option<FairnessCertificate> {
        None
    }
}

/// Uniform-over-edges scheduler: each step an enabled edge is chosen
/// uniformly and oriented uniformly.
///
/// On a [`crate::topology::CompleteTopology`] the implementation draws
/// `i ~ U(0..n)`, `j ~ U(0..n-1)` skipping `i` — byte-for-byte the same
/// RNG consumption as `UniformRandomScheduler::select_agents`, so with
/// equal seeds the two produce identical pair sequences.
#[derive(Clone, Debug)]
pub struct UniformEdgeScheduler {
    rng: SmallRng,
}

impl UniformEdgeScheduler {
    /// Deterministic scheduler from an explicit seed.
    pub fn from_seed(seed: u64) -> Self {
        UniformEdgeScheduler {
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl EdgeScheduler for UniformEdgeScheduler {
    fn next_pair(&mut self, topo: &dyn Topology, _pop: &AgentPopulation) -> (usize, usize) {
        if topo.is_complete() {
            let n = topo.num_agents();
            let i = self.rng.gen_range(0..n);
            let mut j = self.rng.gen_range(0..n - 1);
            if j >= i {
                j += 1;
            }
            return (i, j);
        }
        let m = topo.num_edges();
        debug_assert!(m > 0, "no enabled edges to schedule");
        let (u, v) = topo.edge_at(self.rng.gen_range(0..m));
        if self.rng.gen_bool(0.5) {
            (u, v)
        } else {
            (v, u)
        }
    }
}

/// Zipf-skewed activation: agent `u` initiates the next interaction with
/// probability ∝ `(u + 1)^(-s)`; the responder is a uniform neighbour.
///
/// Sampled by rejection against the maximal weight (agent 0's), which is
/// exact and needs no per-agent tables — important because the agent set
/// changes under churn. Skew `s = 0` degenerates to uniform *agent*
/// activation (≠ uniform edge activation on irregular graphs).
#[derive(Clone, Debug)]
pub struct ZipfScheduler {
    s: f64,
    rng: SmallRng,
}

impl ZipfScheduler {
    /// Deterministic scheduler with skew `s_x10 / 10` from an explicit
    /// seed.
    pub fn from_seed(seed: u64, s_x10: u32) -> Self {
        ZipfScheduler {
            s: s_x10 as f64 / 10.0,
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl EdgeScheduler for ZipfScheduler {
    fn next_pair(&mut self, topo: &dyn Topology, _pop: &AgentPopulation) -> (usize, usize) {
        debug_assert!(topo.num_edges() > 0, "no enabled edges to schedule");
        let n = topo.num_agents();
        loop {
            let u = self.rng.gen_range(0..n);
            let w = ((u + 1) as f64).powf(-self.s);
            if !self.rng.gen_bool(w) {
                continue;
            }
            let d = topo.degree(u);
            if d == 0 {
                // Isolated agent (possible after churn): cannot initiate.
                continue;
            }
            let v = topo.neighbor_at(u, self.rng.gen_range(0..d));
            return (u, v);
        }
    }
}

/// Machine-checkable witness that a scheduler satisfied bounded-window
/// fairness over a finished run: every enabled edge fired within
/// `window_bound` interactions of its previous firing (or of becoming
/// enabled).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FairnessCertificate {
    /// The claimed bound: twice the largest edge count the topology ever
    /// had (one full round can elapse before a fresh round reaches a
    /// given edge, and a round fires each currently enabled edge once).
    pub window_bound: u64,
    /// The largest observed gap between consecutive firings of any edge.
    pub max_observed_lag: u64,
    /// Completed scheduling rounds.
    pub rounds: u64,
}

impl FairnessCertificate {
    /// The machine check: the observed behaviour stayed within the
    /// claimed window.
    pub fn verified(&self) -> bool {
        self.max_observed_lag <= self.window_bound
    }
}

/// Adversarial-but-fair scheduler: maximises time-to-stabilise subject to
/// bounded-window fairness.
///
/// Operates in **rounds**. At the start of each round it snapshots the
/// enabled edge set; within the round it greedily picks, among the edges
/// not yet fired this round, one joining two agents in the *same* state
/// (for the paper's protocol these are identity or chain-colliding
/// interactions — the ones that stall progress), falling back to the last
/// unfired edge. Every enabled edge therefore fires exactly once per
/// round, which yields the `2·max|E|` window bound recorded in the
/// [`FairnessCertificate`]. Topology mutations abort the current round
/// (the next call starts a fresh one over the new edge set), which
/// preserves the bound: a partial round plus a full round is at most two
/// maximal rounds.
///
/// Deterministic: consumes no randomness, so runs are replayable from the
/// topology/churn seeds alone.
#[derive(Clone, Debug, Default)]
pub struct AdversarialFairScheduler {
    /// Edges of the current round not yet fired.
    round: Vec<(u32, u32)>,
    /// Last interaction index at which each enabled edge fired (or became
    /// enabled).
    last_fired: HashMap<(u32, u32), u64>,
    /// Interactions scheduled so far.
    step: u64,
    max_lag: u64,
    max_edges: u64,
    rounds: u64,
}

impl AdversarialFairScheduler {
    /// A fresh scheduler (no seed: the policy is deterministic).
    pub fn new() -> Self {
        Self::default()
    }
}

impl EdgeScheduler for AdversarialFairScheduler {
    fn next_pair(&mut self, topo: &dyn Topology, pop: &AgentPopulation) -> (usize, usize) {
        if self.round.is_empty() {
            self.round = topo.edges();
            debug_assert!(!self.round.is_empty(), "no enabled edges to schedule");
            self.rounds += 1;
            self.max_edges = self.max_edges.max(self.round.len() as u64);
        }
        // Greedy delay heuristic: prefer a same-state pair.
        let pick = self
            .round
            .iter()
            .position(|&(u, v)| pop.state_of(u as usize) == pop.state_of(v as usize))
            .unwrap_or(self.round.len() - 1);
        let (u, v) = self.round.swap_remove(pick);
        self.step += 1;
        let entry = self.last_fired.entry((u, v)).or_insert(self.step - 1);
        self.max_lag = self.max_lag.max(self.step - *entry);
        *entry = self.step;
        (u as usize, v as usize)
    }

    fn on_topology_changed(&mut self, topo: &dyn Topology, _step: u64) {
        // Abort the round; rebuild lazily from the mutated edge set.
        self.round.clear();
        let current: std::collections::HashSet<(u32, u32)> = topo.edges().into_iter().collect();
        // Forget departed edges; register fresh ones as enabled-now.
        self.last_fired.retain(|e, _| current.contains(e));
        for e in current {
            self.last_fired.entry(e).or_insert(self.step);
        }
    }

    fn certificate(&self) -> Option<FairnessCertificate> {
        Some(FairnessCertificate {
            window_bound: 2 * self.max_edges,
            max_observed_lag: self.max_lag,
            rounds: self.rounds,
        })
    }
}

/// Adapter running an [`EdgeScheduler`] over a *static* topology as an
/// engine [`AgentScheduler`], so `Simulator::run_agents_observed` works
/// unchanged on restricted graphs. (Churn needs the dynamics runner in
/// [`crate::dynamics`], which owns and mutates the topology instead.)
pub struct TopologyScheduler {
    topo: Box<dyn Topology>,
    sched: Box<dyn EdgeScheduler>,
}

impl TopologyScheduler {
    /// Combine a topology and an edge scheduler.
    ///
    /// # Panics
    /// If the topology has no edges to schedule.
    pub fn new(topo: Box<dyn Topology>, sched: Box<dyn EdgeScheduler>) -> Self {
        assert!(topo.num_edges() > 0, "graph has no edges to schedule");
        TopologyScheduler { topo, sched }
    }

    /// The historical `GraphScheduler` construction: uniform edge
    /// scheduling over a fixed graph, deterministically seeded.
    pub fn uniform(topo: Box<dyn Topology>, seed: u64) -> Self {
        Self::new(topo, Box::new(UniformEdgeScheduler::from_seed(seed)))
    }

    /// The underlying topology.
    pub fn topology(&self) -> &dyn Topology {
        &*self.topo
    }

    /// The inner scheduler's fairness certificate, if it carries one.
    pub fn certificate(&self) -> Option<FairnessCertificate> {
        self.sched.certificate()
    }
}

impl AgentScheduler for TopologyScheduler {
    fn select_agents(&mut self, pop: &AgentPopulation) -> (usize, usize) {
        debug_assert_eq!(
            pop.num_agents() as usize,
            self.topo.num_agents(),
            "population size does not match scheduler topology"
        );
        self.sched.next_pair(&*self.topo, pop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{CompleteTopology, EdgeListTopology};
    use pp_engine::spec::ProtocolSpec;

    fn one_state_pop(n: usize) -> (pp_engine::protocol::CompiledProtocol, AgentPopulation) {
        let mut spec = ProtocolSpec::new("t");
        let a = spec.add_state("a", 1);
        spec.set_initial(a);
        let p = spec.compile().unwrap();
        let pop = AgentPopulation::new(&p, n);
        (p, pop)
    }

    // Migrated from the old `pp_engine::graph` module.
    #[test]
    fn graph_scheduler_respects_edges() {
        let (_p, pop) = one_state_pop(4);
        let mut sched = TopologyScheduler::uniform(Box::new(EdgeListTopology::ring(4)), 7);
        for _ in 0..200 {
            let (i, j) = sched.select_agents(&pop);
            let d = (i as i64 - j as i64).rem_euclid(4);
            assert!(d == 1 || d == 3, "non-ring pair ({i}, {j})");
        }
    }

    // Migrated from the old `pp_engine::graph` module.
    #[test]
    fn complete_graph_scheduler_covers_all_pairs() {
        let (_p, pop) = one_state_pop(3);
        let mut sched = TopologyScheduler::uniform(Box::new(CompleteTopology::new(3)), 7);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..500 {
            seen.insert(sched.select_agents(&pop));
        }
        assert_eq!(seen.len(), 6);
    }

    #[test]
    fn uniform_edge_on_complete_matches_uniform_random_scheduler() {
        // Same seed ⇒ byte-identical pair sequence (the complete-graph
        // branch consumes RNG exactly like UniformRandomScheduler).
        let (_p, pop) = one_state_pop(9);
        for seed in [0u64, 7, 123] {
            let mut a = UniformEdgeScheduler::from_seed(seed);
            let mut b = pp_engine::scheduler::UniformRandomScheduler::from_seed(seed);
            let topo = CompleteTopology::new(9);
            for _ in 0..300 {
                assert_eq!(
                    a.next_pair(&topo, &pop),
                    pp_engine::scheduler::AgentScheduler::select_agents(&mut b, &pop),
                    "seed {seed}"
                );
            }
        }
    }

    #[test]
    fn zipf_skews_towards_low_indices() {
        let (_p, pop) = one_state_pop(16);
        let topo = CompleteTopology::new(16);
        let mut sched = ZipfScheduler::from_seed(3, 20); // s = 2.0
        let mut initiations = [0u64; 16];
        for _ in 0..4000 {
            let (i, _) = sched.next_pair(&topo, &pop);
            initiations[i] += 1;
        }
        assert!(
            initiations[0] > 8 * initiations[8].max(1),
            "agent 0 should dominate: {initiations:?}"
        );
    }

    #[test]
    fn adversarial_scheduler_is_fair_with_verified_certificate() {
        let (_p, pop) = one_state_pop(8);
        let topo = EdgeListTopology::ring(8);
        let mut sched = AdversarialFairScheduler::new();
        let mut fired: HashMap<(usize, usize), u64> = HashMap::new();
        for step in 1..=800u64 {
            let (u, v) = sched.next_pair(&topo, &pop);
            let key = (u.min(v), u.max(v));
            if let Some(prev) = fired.insert(key, step) {
                assert!(
                    step - prev <= 16,
                    "edge {key:?} starved for {}",
                    step - prev
                );
            }
        }
        assert_eq!(fired.len(), 8, "every ring edge fired");
        let cert = sched.certificate().unwrap();
        assert!(cert.verified(), "{cert:?}");
        assert_eq!(cert.window_bound, 16);
        assert_eq!(cert.rounds, 100);
    }

    #[test]
    fn adversarial_scheduler_survives_topology_mutation() {
        let (_p, mut pop) = one_state_pop(6);
        let mut topo = EdgeListTopology::ring(6);
        let mut sched = AdversarialFairScheduler::new();
        for _ in 0..10 {
            sched.next_pair(&topo, &pop);
        }
        use crate::topology::Topology as _;
        topo.remove_agent(2);
        pop.remove_agent(2);
        sched.on_topology_changed(&topo, 10);
        let mut fired = std::collections::HashSet::new();
        for _ in 0..topo.num_edges() * 2 {
            let (u, v) = sched.next_pair(&topo, &pop);
            assert!(u < 5 && v < 5, "stale agent index ({u}, {v})");
            fired.insert((u.min(v) as u32, u.max(v) as u32));
        }
        let edges: std::collections::HashSet<(u32, u32)> = topo.edges().into_iter().collect();
        assert_eq!(fired, edges, "post-churn rounds cover the new edge set");
        assert!(sched.certificate().unwrap().verified());
    }
}
