//! Observer composition: `Chain` forwarding and telemetry riding along
//! with measurement observers under both kernels.
//!
//! The telemetry subsystem only works if attaching it changes nothing:
//! chained hooks must all fire (including the leap-only
//! `on_identity_run`), and a measurement observer must see the exact same
//! events whether or not a `TelemetryObserver` is chained behind it.

use pp_engine::metrics::TelemetryObserver;
use pp_engine::observer::{Chain, GroupCompletionObserver, Observer};
use pp_engine::population::CountPopulation;
use pp_engine::protocol::{CompiledProtocol, StateId};
use pp_engine::scheduler::UniformRandomScheduler;
use pp_engine::simulator::{Kernel, Simulator};
use pp_engine::spec::ProtocolSpec;
use pp_engine::stability::Silent;
use pp_telemetry::{Registry, Snapshot};

/// Epidemic: (I, S) → (I, I); I is group 2, so watching I's count gives
/// one "completion" per infection.
fn epidemic() -> CompiledProtocol {
    let mut spec = ProtocolSpec::new("epidemic");
    let s = spec.add_state("S", 1);
    let i = spec.add_state("I", 2);
    spec.set_initial(s);
    spec.add_rule_symmetric(i, s, i, i);
    spec.compile().unwrap()
}

fn seeded_pop(proto: &CompiledProtocol, n: u64) -> CountPopulation {
    let s = proto.state_by_name("S").unwrap();
    let i = proto.state_by_name("I").unwrap();
    let mut pop = CountPopulation::new(proto, n);
    pop.set_count(s, n - 1);
    pop.set_count(i, 1);
    pop
}

/// Records every hook invocation verbatim.
#[derive(Default)]
struct Probe {
    interactions: Vec<(u64, StateId, StateId, StateId, StateId)>,
    identity_runs: Vec<(u64, u64)>,
}

impl Observer for Probe {
    fn on_interaction(
        &mut self,
        step: u64,
        p: StateId,
        q: StateId,
        p2: StateId,
        q2: StateId,
        _counts: &[u64],
    ) {
        self.interactions.push((step, p, q, p2, q2));
    }

    fn on_identity_run(&mut self, last_step: u64, skipped: u64, _counts: &[u64]) {
        self.identity_runs.push((last_step, skipped));
    }
}

#[test]
fn chain_forwards_on_identity_run_to_both_sides() {
    let mut chained = Chain(Probe::default(), Probe::default());
    let a = StateId(0);
    chained.on_identity_run(10, 7, &[2, 0]);
    chained.on_interaction(11, a, a, a, a, &[2, 0]);
    chained.on_identity_run(20, 3, &[2, 0]);
    for probe in [&chained.0, &chained.1] {
        assert_eq!(probe.identity_runs, [(10, 7), (20, 3)]);
        assert_eq!(probe.interactions.len(), 1);
    }
}

#[test]
fn leap_kernel_reaches_chained_identity_run_hooks() {
    // End-to-end: both sides of a chain see the identity runs the leap
    // kernel skips, and their views agree event-for-event.
    let proto = epidemic();
    let mut pop = seeded_pop(&proto, 32);
    let mut sched = UniformRandomScheduler::from_seed(23);
    let mut obs = Chain(Probe::default(), Probe::default());
    let res = Simulator::new(&proto)
        .run_kernel(
            Kernel::Leap,
            &mut pop,
            &mut sched,
            &Silent,
            1_000_000,
            &mut obs,
        )
        .unwrap();
    assert!(
        !obs.0.identity_runs.is_empty(),
        "a 32-agent epidemic run skips at least one identity run"
    );
    assert_eq!(obs.0.identity_runs, obs.1.identity_runs);
    assert_eq!(obs.0.interactions, obs.1.interactions);
    let skipped: u64 = obs.0.identity_runs.iter().map(|(_, g)| g).sum();
    assert_eq!(skipped + obs.0.interactions.len() as u64, res.interactions);
}

#[test]
fn telemetry_observer_is_invisible_to_chained_measurement() {
    // Satellite: GroupCompletionObserver + TelemetryObserver compose
    // correctly under both kernels — same seed, same completions as the
    // measurement observer running alone.
    let proto = epidemic();
    let watched = proto.state_by_name("I").unwrap();
    let n = 48u64;
    for kernel in [Kernel::Naive, Kernel::Leap] {
        let seed = 77u64;

        // Alone.
        let mut alone = GroupCompletionObserver::new(watched);
        let mut pop = seeded_pop(&proto, n);
        let mut sched = UniformRandomScheduler::from_seed(seed);
        let sim = Simulator::new(&proto);
        let res_alone = sim
            .run_kernel(
                kernel, &mut pop, &mut sched, &Silent, 10_000_000, &mut alone,
            )
            .unwrap();

        // Chained with telemetry.
        let reg = Registry::new();
        let mut chained = Chain(
            GroupCompletionObserver::new(watched),
            TelemetryObserver::in_registry(&reg),
        );
        let mut pop = seeded_pop(&proto, n);
        let mut sched = UniformRandomScheduler::from_seed(seed);
        let res_chained = sim
            .run_kernel(
                kernel,
                &mut pop,
                &mut sched,
                &Silent,
                10_000_000,
                &mut chained,
            )
            .unwrap();

        // Observers never touch RNG or dynamics: bit-identical runs.
        assert_eq!(res_alone, res_chained, "{kernel}");
        assert_eq!(
            alone.completions(),
            chained.0.completions(),
            "completions diverged with telemetry chained ({kernel})"
        );
        assert_eq!(
            chained.0.completions().len() as u64,
            n, // watched count goes 1 → n; max starts at 0 so n new maxima
            "epidemic ends fully infected ({kernel})"
        );

        // And the telemetry side tallied the whole run.
        let Chain(_, mut tel) = chained;
        tel.flush();
        let snap = Snapshot::capture(&reg);
        assert_eq!(
            snap.value("engine.interactions"),
            Some(res_chained.interactions),
            "{kernel}"
        );
        assert_eq!(
            snap.value("engine.effective_interactions"),
            Some(res_chained.effective_interactions),
            "{kernel}"
        );
    }
}
