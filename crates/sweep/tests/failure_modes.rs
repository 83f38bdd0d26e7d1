//! Failure-mode guarantees of the sweep subsystem, pinned as tests:
//!
//! * **resume equals fresh** — kill a cell after an arbitrary number of
//!   trials (even repeatedly), resume, and the stored result — and any
//!   CSV rendered from it — is bit-identical to an uninterrupted run;
//! * **journal corruption recovery** — torn tails and garbage regions in
//!   a journal lose at most the corrupt suffix's trials, never the cell;
//! * **content-hash stability** — the store address of a spec is a fixed
//!   function of its canonical key, stable across processes and
//!   toolchains (hardcoded expected value).

use proptest::prelude::*;

use pp_engine::Kernel;
use pp_sweep::exec::{run_cell, CellOutcome, ExecOptions};
use pp_sweep::observer::NullObserver;
use pp_sweep::spec::{CellMode, CellSpec, CriterionKind, ProtocolId};
use pp_sweep::store::ResultStore;

const TRIALS: usize = 7;

fn small_cell(seed: u64, mode: CellMode) -> CellSpec {
    CellSpec {
        protocol: ProtocolId::UniformKPartition { k: 3 },
        n: 12,
        trials: TRIALS,
        seed,
        criterion: CriterionKind::Stable,
        budget: 10_000_000,
        mode,
        kernel: Kernel::Leap,
        dynamics: pp_topo::Dynamics::default_dynamics(),
    }
}

fn temp_store(tag: &str) -> ResultStore {
    let dir = std::env::temp_dir().join(format!(
        "pp_sweep_failure_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    ResultStore::at(dir)
}

fn complete(spec: &CellSpec, store: &ResultStore) -> pp_sweep::store::CellResult {
    run_cell(spec, store, &NullObserver, &ExecOptions::default())
        .unwrap()
        .expect_complete()
}

/// Render a cell the way the figure reporters do, for byte comparison.
fn render_csv(cell: &pp_sweep::store::CellResult) -> String {
    let mut t = pp_analysis::table::Table::new(
        std::iter::once("n".to_string())
            .chain(
                pp_analysis::table::Table::SUMMARY_HEADERS
                    .iter()
                    .map(|h| h.to_string()),
            )
            .collect::<Vec<_>>(),
    );
    t.push_summary_row(
        vec![cell.spec.n.to_string()],
        &cell.summary(),
        cell.censored(),
        vec![],
    );
    t.to_csv()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Kill after `kill1` trials, resume and kill again after `kill2`
    /// more, then run to completion: the stored bytes and the rendered
    /// CSV equal an uninterrupted run's, for every kill point and seed.
    #[test]
    fn resume_equals_fresh(seed in 1u64..5000, kill1 in 0usize..TRIALS, kill2 in 0usize..TRIALS) {
        let spec = small_cell(seed, CellMode::Summary);

        let store_fresh = temp_store("fresh");
        let fresh = complete(&spec, &store_fresh);

        let store_resumed = temp_store("resumed");
        for kill in [kill1, kill2] {
            let out = run_cell(
                &spec,
                &store_resumed,
                &NullObserver,
                &ExecOptions { kill_after: Some(kill) },
            )
            .unwrap();
            if let CellOutcome::Complete(_) = out {
                // Both kill points already covered every trial; fine.
                break;
            }
        }
        let resumed = complete(&spec, &store_resumed);

        prop_assert_eq!(&fresh.records, &resumed.records);
        prop_assert_eq!(
            std::fs::read(store_fresh.result_path(&spec)).unwrap(),
            std::fs::read(store_resumed.result_path(&spec)).unwrap(),
            "stored cell files must be bit-identical"
        );
        prop_assert_eq!(render_csv(&fresh), render_csv(&resumed));

        let _ = std::fs::remove_dir_all(store_fresh.dir());
        let _ = std::fs::remove_dir_all(store_resumed.dir());
    }

    /// Truncate the journal at an arbitrary byte after an interrupted
    /// run (a torn final write): recovery drops at most the torn suffix
    /// and the resumed cell still matches a fresh one exactly.
    #[test]
    fn truncated_journal_recovers(seed in 1u64..5000, kill in 1usize..TRIALS, cut in 1usize..200) {
        let spec = small_cell(seed, CellMode::Summary);

        let store_fresh = temp_store("tfresh");
        let fresh = complete(&spec, &store_fresh);

        let store_cut = temp_store("tcut");
        run_cell(
            &spec,
            &store_cut,
            &NullObserver,
            &ExecOptions { kill_after: Some(kill) },
        )
        .unwrap();
        let jpath = store_cut.journal_path(&spec);
        let bytes = std::fs::read(&jpath).unwrap();
        prop_assert!(!bytes.is_empty());
        // Chop the journal at an arbitrary byte offset from the end.
        let keep = bytes.len().saturating_sub(cut % bytes.len());
        std::fs::write(&jpath, &bytes[..keep]).unwrap();

        let resumed = complete(&spec, &store_cut);
        prop_assert_eq!(&fresh.records, &resumed.records);

        let _ = std::fs::remove_dir_all(store_fresh.dir());
        let _ = std::fs::remove_dir_all(store_cut.dir());
    }
}

/// A garbage region *inside* the journal (not just a torn tail) must not
/// poison recovery: everything before it is kept, everything after is
/// re-run, and the result still matches a fresh run.
#[test]
fn corrupted_journal_middle_recovers() {
    let spec = small_cell(77, CellMode::Summary);

    let store_fresh = temp_store("cfresh");
    let fresh = complete(&spec, &store_fresh);

    let store_bad = temp_store("cbad");
    run_cell(
        &spec,
        &store_bad,
        &NullObserver,
        &ExecOptions {
            kill_after: Some(4),
        },
    )
    .unwrap();
    let jpath = store_bad.journal_path(&spec);
    let text = std::fs::read_to_string(&jpath).unwrap();
    let mut lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 4);
    lines.insert(2, "{\"trial\": 999, \"interac");
    std::fs::write(&jpath, lines.join("\n") + "\n").unwrap();

    let resumed = complete(&spec, &store_bad);
    assert_eq!(fresh.records, resumed.records);

    let _ = std::fs::remove_dir_all(store_fresh.dir());
    let _ = std::fs::remove_dir_all(store_bad.dir());
}

/// The content hash is a pure, stable function of the canonical key.
/// The expected value is hardcoded: if this test fails, the key format
/// or the hash changed, which silently orphans every existing store —
/// bump `KEY_VERSION` instead of letting addresses drift.
#[test]
fn content_hash_is_stable_across_processes() {
    let spec = CellSpec {
        protocol: ProtocolId::UniformKPartition { k: 4 },
        n: 96,
        trials: 100,
        seed: 12345,
        criterion: CriterionKind::Stable,
        budget: 1_000_000,
        mode: CellMode::Summary,
        kernel: Kernel::Leap,
        dynamics: pp_topo::Dynamics::default_dynamics(),
    };
    assert_eq!(
        spec.canonical_key(),
        "v3|ukp:k=4|n=96|trials=100|seed=12345|crit=stable|budget=1000000|mode=summary|kernel=leap"
    );
    assert_eq!(spec.content_hash(), 0xd8d8_21c3_3843_a521);
    assert_eq!(spec.file_stem(), "ukp-k4-n96-d8d821c33843a521");
}

/// Watched-mode cells (richer records) resume identically too — the
/// journal format round-trips every capture mode.
#[test]
fn watched_mode_resume_equals_fresh() {
    let spec = small_cell(31, CellMode::Watched);

    let store_fresh = temp_store("wfresh");
    let fresh = complete(&spec, &store_fresh);

    let store_resumed = temp_store("wresumed");
    run_cell(
        &spec,
        &store_resumed,
        &NullObserver,
        &ExecOptions {
            kill_after: Some(3),
        },
    )
    .unwrap();
    let resumed = complete(&spec, &store_resumed);

    assert_eq!(fresh.records, resumed.records);
    assert_eq!(
        std::fs::read(store_fresh.result_path(&spec)).unwrap(),
        std::fs::read(store_resumed.result_path(&spec)).unwrap()
    );

    let _ = std::fs::remove_dir_all(store_fresh.dir());
    let _ = std::fs::remove_dir_all(store_resumed.dir());
}
