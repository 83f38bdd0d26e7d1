//! The dynamics runner: one trial of a protocol under non-default
//! dynamics (restricted topology, skewed/adversarial scheduling, churn).
//!
//! Mirrors `Simulator::run_agents_observed`'s loop and accounting, with
//! three insertions: lifecycle events are applied between interactions
//! (mutating population *and* topology in lock-step and reporting each
//! through [`Observer::on_lifecycle`]), the scheduler is an
//! [`EdgeScheduler`] over the owned topology, and the stability criterion
//! — built for the *final* population size — is consulted only once the
//! event stream is exhausted (while events remain, the run cannot be
//! permanently stable).
//!
//! Censoring is a first-class outcome here, not just a budget artefact:
//! on a ring, chain-builders strand when their neighbours settle; under
//! departure churn, settled groups lose members they can never replace.
//! Such trials report `interactions: None` and feed the convergence-
//! fraction columns of the `topo-*` sweep plans.

use crate::churn::{ChurnEvent, ChurnPlan};
use crate::metrics::topo_metrics;
use crate::scheduler::{EdgeScheduler, FairnessCertificate};
use crate::spec::Dynamics;
use crate::topology::Topology;
use pp_engine::observer::{LifecycleKind, Observer};
use pp_engine::population::{AgentPopulation, Population};
use pp_engine::protocol::CompiledProtocol;
use pp_engine::seeds;
use pp_engine::simulator::Kernel;
use pp_engine::stability::StabilityCriterion;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Seed-derivation labels for the independent random streams of one
/// dynamics trial (graph construction, scheduling, churn), all derived
/// from the single trial seed.
const LBL_GRAPH: u64 = 0x746f_706f; // "topo"
const LBL_SCHED: u64 = 0x7363_6864; // "schd"
const LBL_CHURN: u64 = 0x6368_726e; // "chrn"

/// Why a dynamics run could not be performed at all (distinct from
/// censoring, which is a completed run without stabilisation).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DynamicsError {
    /// The batch (tau-leap) kernel is only sound on the complete graph:
    /// its propensity model counts unordered state pairs, which assumes
    /// every agent pair may interact. Returned instead of silently wrong
    /// results.
    BatchRequiresComplete {
        /// The offending topology family.
        family: String,
    },
    /// The requested kernel's closed-form identity skipping is derived
    /// for the uniform scheduler on the complete graph with a fixed
    /// population; any other dynamics must run the per-agent naive path.
    KernelRequiresDefaultDynamics {
        /// The offending kernel.
        kernel: Kernel,
    },
    /// The dynamics specification is invalid for this population size.
    Spec(crate::spec::SpecError),
    /// Fewer than two agents: no interaction is possible.
    PopulationTooSmall,
}

impl std::fmt::Display for DynamicsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DynamicsError::BatchRequiresComplete { family } => write!(
                f,
                "the batch kernel requires the complete topology (got `{family}`)"
            ),
            DynamicsError::KernelRequiresDefaultDynamics { kernel } => write!(
                f,
                "kernel `{kernel}` requires default dynamics (complete graph, uniform scheduler, no churn)"
            ),
            DynamicsError::Spec(e) => write!(f, "{e}"),
            DynamicsError::PopulationTooSmall => {
                write!(f, "population has fewer than two agents")
            }
        }
    }
}

impl std::error::Error for DynamicsError {}

impl From<crate::spec::SpecError> for DynamicsError {
    fn from(e: crate::spec::SpecError) -> Self {
        DynamicsError::Spec(e)
    }
}

/// Check a kernel against a dynamics description. Default dynamics
/// admit every kernel; anything else admits only the naive per-agent
/// path, with the batch kernel's refusal singled out as
/// [`DynamicsError::BatchRequiresComplete`] when the topology is the
/// problem.
pub fn ensure_kernel_compatible(kernel: Kernel, dynamics: &Dynamics) -> Result<(), DynamicsError> {
    if dynamics.is_default() || kernel == Kernel::Naive {
        return Ok(());
    }
    if kernel == Kernel::Batch && !matches!(dynamics.topo, crate::spec::TopoSpec::Complete) {
        return Err(DynamicsError::BatchRequiresComplete {
            family: dynamics.topo.family().to_string(),
        });
    }
    Err(DynamicsError::KernelRequiresDefaultDynamics { kernel })
}

/// Outcome of one completed dynamics trial.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DynRunOutcome {
    /// Interactions before the first stable configuration, or `None` if
    /// the run was censored (budget exhausted, or the topology ran out
    /// of enabled edges).
    pub interactions: Option<u64>,
    /// Interactions whose transition changed at least one state.
    pub effective_interactions: u64,
    /// The final configuration's count vector.
    pub final_counts: Vec<u64>,
    /// The final population size (initial n plus net churn applied).
    pub final_n: u64,
    /// Lifecycle events applied, by kind (join, leave, crash).
    pub applied: [u32; 3],
    /// The scheduler's fairness certificate, when it carries one.
    pub certificate: Option<FairnessCertificate>,
}

impl DynRunOutcome {
    /// True if the run reached stability within budget.
    pub fn stabilised(&self) -> bool {
        self.interactions.is_some()
    }
}

/// Run one trial under `dynamics`, materialising the churn plan from the
/// spec. `criterion` must be built for the **final** population size
/// (`n + churn.net()`). See [`run_dynamics_with_plan`].
pub fn run_dynamics<C, O>(
    proto: &CompiledProtocol,
    n: usize,
    dynamics: &Dynamics,
    criterion: &C,
    max_interactions: u64,
    seed: u64,
    observer: &mut O,
) -> Result<DynRunOutcome, DynamicsError>
where
    C: StabilityCriterion,
    O: Observer,
{
    let churn_seed = seeds::derive_labelled(seed, LBL_CHURN, 0);
    let plan = ChurnPlan::materialize(&dynamics.churn, churn_seed);
    run_dynamics_with_plan(
        proto,
        n,
        dynamics,
        &plan,
        criterion,
        max_interactions,
        seed,
        observer,
    )
}

/// Run one trial under `dynamics` with an explicit churn plan (tests use
/// this to aim departures at specific states via
/// [`ChurnEvent::target_state`]).
///
/// Determinism: the graph, scheduler, and churn-application streams are
/// derived from `seed` with distinct labels, so identical
/// `(proto, n, dynamics, plan, seed)` reproduce the trial bit-for-bit —
/// including every lifecycle event — which the trace layer relies on.
#[allow(clippy::too_many_arguments)]
pub fn run_dynamics_with_plan<C, O>(
    proto: &CompiledProtocol,
    n: usize,
    dynamics: &Dynamics,
    plan: &ChurnPlan,
    criterion: &C,
    max_interactions: u64,
    seed: u64,
    observer: &mut O,
) -> Result<DynRunOutcome, DynamicsError>
where
    C: StabilityCriterion,
    O: Observer,
{
    dynamics.topo.validate(n)?;
    if n < 2 {
        return Err(DynamicsError::PopulationTooSmall);
    }
    let metrics = topo_metrics();
    let mut topo = dynamics
        .topo
        .build(n, seeds::derive_labelled(seed, LBL_GRAPH, 0))?;
    let mut sched = dynamics
        .sched
        .build(seeds::derive_labelled(seed, LBL_SCHED, 0));
    // Stream for victim/attachment draws; distinct from the plan-
    // materialisation stream so hand-built plans stay deterministic too.
    let mut churn_rng = SmallRng::seed_from_u64(seeds::derive_labelled(seed, LBL_CHURN, 1));
    let mut pop = AgentPopulation::new(proto, n);

    let events = plan.events();
    let mut next_event = 0usize;
    let mut applied = [0u32; 3];
    let mut step: u64 = 0;
    let mut effective: u64 = 0;
    // Once the event stream is exhausted the population is final; from
    // then on stability is checked like the engine's naive loop: once
    // up-front, then after every count-changing interaction.
    let mut check_stability = events.is_empty();

    let outcome = loop {
        while next_event < events.len() && events[next_event].at <= step {
            apply_event(
                &events[next_event],
                proto,
                &mut pop,
                &mut *topo,
                &mut *sched,
                &mut churn_rng,
                step,
                &mut applied,
                observer,
            );
            next_event += 1;
            if next_event == events.len() {
                check_stability = true;
            }
        }
        if check_stability && criterion.is_stable(proto, pop.counts()) {
            break Some(step);
        }
        if step >= max_interactions {
            break None;
        }
        if topo.num_edges() == 0 {
            // Stranded: no enabled transition exists and the criterion
            // is unsatisfied — the run can never stabilise.
            metrics.stranded_runs.inc();
            break None;
        }
        debug_assert!(pop.num_agents() >= 2);
        let (i, j) = sched.next_pair(&*topo, &pop);
        let (p, q, p2, q2) = pop.interact(proto, i, j);
        step += 1;
        let changed = p2 != p || q2 != q;
        if changed {
            effective += 1;
        }
        observer.on_interaction(step, p, q, p2, q2, pop.counts());
        check_stability = changed && next_event >= events.len();
    };

    metrics.runs.inc();
    let certificate = sched.certificate();
    if let Some(cert) = &certificate {
        metrics.adversarial_rounds.add(cert.rounds);
    }
    Ok(DynRunOutcome {
        interactions: outcome,
        effective_interactions: effective,
        final_n: pop.num_agents(),
        final_counts: pop.counts().to_vec(),
        applied,
        certificate,
    })
}

/// Apply one lifecycle event to the population/topology pair, notify the
/// scheduler and observer, and bump telemetry.
#[allow(clippy::too_many_arguments)]
fn apply_event<O: Observer>(
    event: &ChurnEvent,
    proto: &CompiledProtocol,
    pop: &mut AgentPopulation,
    topo: &mut dyn Topology,
    sched: &mut dyn EdgeScheduler,
    churn_rng: &mut SmallRng,
    step: u64,
    applied: &mut [u32; 3],
    observer: &mut O,
) {
    let metrics = topo_metrics();
    match event.kind {
        LifecycleKind::Join => {
            let s = proto.initial_state();
            let idx = pop.add_agent(s);
            let hint = join_degree_hint(topo);
            let tidx = topo.add_agent(hint, churn_rng);
            debug_assert_eq!(idx, tidx, "population/topology index drift");
            sched.on_topology_changed(topo, step);
            applied[0] += 1;
            metrics.joins.inc();
            observer.on_lifecycle(step, LifecycleKind::Join, s, pop.counts());
        }
        kind @ (LifecycleKind::Leave | LifecycleKind::Crash) => {
            let n_cur = pop.num_agents() as usize;
            if n_cur <= 2 {
                // Dropping below 2 agents would deadlock the run; skip
                // the departure (counted, so the loss is visible).
                metrics.dropped_events.inc();
                return;
            }
            let victim = match event.target_state {
                Some(ts) => {
                    let candidates: Vec<usize> =
                        (0..n_cur).filter(|&i| pop.state_of(i) == ts).collect();
                    if candidates.is_empty() {
                        churn_rng.gen_range(0..n_cur)
                    } else {
                        candidates[churn_rng.gen_range(0..candidates.len())]
                    }
                }
                None => churn_rng.gen_range(0..n_cur),
            };
            let s = pop.remove_agent(victim);
            topo.remove_agent(victim);
            sched.on_topology_changed(topo, step);
            if kind == LifecycleKind::Leave {
                applied[1] += 1;
                metrics.leaves.inc();
            } else {
                applied[2] += 1;
                metrics.crashes.inc();
            }
            observer.on_lifecycle(step, kind, s, pop.counts());
        }
    }
}

/// Characteristic attachment degree for joins, inferred from the live
/// topology (complete topologies ignore it; edge lists attach to the
/// current average degree, clamped to at least 1 so joiners are never
/// born stranded).
fn join_degree_hint(topo: &dyn Topology) -> usize {
    let n = topo.num_agents().max(1) as u64;
    ((2 * topo.num_edges()).div_ceil(n) as usize).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ChurnSpec, SchedSpec, TopoSpec};
    use pp_engine::observer::NullObserver;
    use pp_engine::spec::ProtocolSpec;
    use pp_engine::stability::Silent;

    fn epidemic() -> CompiledProtocol {
        let mut spec = ProtocolSpec::new("epidemic");
        let s = spec.add_state("S", 1);
        let i = spec.add_state("I", 2);
        spec.set_initial(s);
        spec.add_rule_symmetric(i, s, i, i);
        spec.compile().unwrap()
    }

    fn dynamics(topo: TopoSpec) -> Dynamics {
        Dynamics {
            topo,
            sched: SchedSpec::UniformEdge,
            churn: ChurnSpec::none(),
        }
    }

    /// Seed one infected agent via a hand-built plan? Simpler: the
    /// epidemic from all-S is already stable under Silent (no enabled
    /// rule), so use a two-state seeding through a scripted initial
    /// population is not available here — instead run the epidemic with
    /// one join event that cannot help and check the trivial paths, and
    /// use pp-protocols in the integration tests for the real protocol.
    #[test]
    fn all_initial_population_is_silent_immediately() {
        let proto = epidemic();
        let out = run_dynamics(
            &proto,
            10,
            &dynamics(TopoSpec::Ring),
            &Silent,
            1_000,
            7,
            &mut NullObserver,
        )
        .unwrap();
        // All agents susceptible: no enabled transition, Silent holds.
        assert_eq!(out.interactions, Some(0));
        assert_eq!(out.final_n, 10);
    }

    #[test]
    fn kernel_compatibility_matrix() {
        let default = Dynamics::default_dynamics();
        for kernel in Kernel::ALL {
            assert!(ensure_kernel_compatible(kernel, &default).is_ok());
        }
        let ring = dynamics(TopoSpec::Ring);
        assert!(ensure_kernel_compatible(Kernel::Naive, &ring).is_ok());
        assert_eq!(
            ensure_kernel_compatible(Kernel::Batch, &ring),
            Err(DynamicsError::BatchRequiresComplete {
                family: "ring".into()
            })
        );
        assert_eq!(
            ensure_kernel_compatible(Kernel::Leap, &ring),
            Err(DynamicsError::KernelRequiresDefaultDynamics {
                kernel: Kernel::Leap
            })
        );
        // Complete graph but churned: batch is refused for the churn,
        // not the topology.
        let churned = Dynamics {
            topo: TopoSpec::Complete,
            sched: SchedSpec::UniformEdge,
            churn: ChurnSpec {
                joins: 1,
                leaves: 0,
                crashes: 0,
                period: 10,
            },
        };
        assert_eq!(
            ensure_kernel_compatible(Kernel::Batch, &churned),
            Err(DynamicsError::KernelRequiresDefaultDynamics {
                kernel: Kernel::Batch
            })
        );
    }

    #[test]
    fn too_small_population_is_rejected() {
        let proto = epidemic();
        let err = run_dynamics(
            &proto,
            1,
            &Dynamics::default_dynamics(),
            &Silent,
            100,
            0,
            &mut NullObserver,
        )
        .unwrap_err();
        assert_eq!(err, DynamicsError::PopulationTooSmall);
    }

    #[test]
    fn invalid_topology_for_n_is_a_spec_error() {
        let proto = epidemic();
        let err = run_dynamics(
            &proto,
            23,
            &dynamics(TopoSpec::Torus { rows: 3, cols: 8 }),
            &Silent,
            100,
            0,
            &mut NullObserver,
        )
        .unwrap_err();
        assert!(matches!(err, DynamicsError::Spec(_)), "{err:?}");
    }

    /// Counts `on_interaction` calls, so tests can tell a stranded run
    /// (zero interactions ever scheduled) from a budget-censored one.
    #[derive(Default)]
    struct StepCounter(u64);
    impl Observer for StepCounter {
        fn on_interaction(
            &mut self,
            _s: u64,
            _p: pp_engine::protocol::StateId,
            _q: pp_engine::protocol::StateId,
            _p2: pp_engine::protocol::StateId,
            _q2: pp_engine::protocol::StateId,
            _c: &[u64],
        ) {
            self.0 += 1;
        }
    }

    #[test]
    fn stranded_topology_censors() {
        // A star whose centre crashes before any interaction leaves no
        // enabled edges: the run must censor immediately (zero
        // interactions performed), not spin to the budget or panic. The
        // crash victim is uniform, so scan seeds for one that hits the
        // centre (1/4 chance each) and require at least one does.
        let proto = epidemic();
        let dyn_ = Dynamics {
            topo: TopoSpec::Star,
            sched: SchedSpec::UniformEdge,
            churn: ChurnSpec {
                joins: 0,
                leaves: 0,
                crashes: 1,
                period: 5,
            },
        };
        let plan = ChurnPlan::from_events(vec![ChurnEvent {
            at: 0,
            kind: LifecycleKind::Crash,
            target_state: None,
        }]);
        let mut hit = false;
        for seed in 0..32u64 {
            let mut steps = StepCounter::default();
            let out = run_dynamics_with_plan(
                &proto,
                4,
                &dyn_,
                &plan,
                &pp_engine::stability::Never,
                1_000,
                seed,
                &mut steps,
            )
            .unwrap();
            assert_eq!(out.final_n, 3);
            assert!(out.interactions.is_none(), "Never criterion censors");
            if steps.0 == 0 {
                hit = true;
                break;
            }
        }
        assert!(hit, "some seed crashes the star centre and strands the run");
    }

    #[test]
    fn joins_are_applied_and_reported() {
        let proto = epidemic();
        struct LifecycleLog(Vec<(u64, LifecycleKind)>);
        impl Observer for LifecycleLog {
            fn on_interaction(
                &mut self,
                _s: u64,
                _p: pp_engine::protocol::StateId,
                _q: pp_engine::protocol::StateId,
                _p2: pp_engine::protocol::StateId,
                _q2: pp_engine::protocol::StateId,
                _c: &[u64],
            ) {
            }
            fn on_lifecycle(
                &mut self,
                step: u64,
                kind: LifecycleKind,
                _state: pp_engine::protocol::StateId,
                _counts: &[u64],
            ) {
                self.0.push((step, kind));
            }
        }
        let dyn_ = Dynamics {
            topo: TopoSpec::Ring,
            sched: SchedSpec::UniformEdge,
            churn: ChurnSpec {
                joins: 2,
                leaves: 0,
                crashes: 0,
                period: 3,
            },
        };
        let mut log = LifecycleLog(Vec::new());
        // Never stabilises (criterion Never): run to the cap so all
        // events apply.
        let out = run_dynamics(
            &proto,
            6,
            &dyn_,
            &pp_engine::stability::Never,
            50,
            11,
            &mut log,
        )
        .unwrap();
        assert_eq!(out.interactions, None, "Never criterion censors");
        assert_eq!(out.final_n, 8);
        assert_eq!(out.applied, [2, 0, 0]);
        assert_eq!(
            log.0,
            vec![(3, LifecycleKind::Join), (6, LifecycleKind::Join)]
        );
        let total: u64 = out.final_counts.iter().sum();
        assert_eq!(total, 8, "counts track the final population");
    }

    #[test]
    fn identical_seeds_reproduce_identical_outcomes() {
        // Flip protocol so the count vector actually evolves with the
        // (seed-dependent) interaction sequence.
        let mut spec = ProtocolSpec::new("flip");
        let s = spec.add_state("s", 1);
        let i = spec.add_state("i", 2);
        spec.set_initial(s);
        spec.add_rule(s, s, i, i);
        spec.add_rule(i, i, s, s);
        let proto = spec.compile().unwrap();
        let dyn_ = Dynamics {
            topo: TopoSpec::RandomRegular { degree: 4 },
            sched: SchedSpec::Zipf { s_x10: 12 },
            churn: ChurnSpec {
                joins: 1,
                leaves: 1,
                crashes: 1,
                period: 7,
            },
        };
        let run = |seed: u64| {
            run_dynamics(
                &proto,
                12,
                &dyn_,
                &pp_engine::stability::Never,
                200,
                seed,
                &mut NullObserver,
            )
            .unwrap()
        };
        assert_eq!(run(5), run(5));
        assert_eq!(run(5).final_n, 11, "net churn is 1 join - 2 departures");
    }
}
