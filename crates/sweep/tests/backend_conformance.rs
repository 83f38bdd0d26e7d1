//! Backend conformance: every [`StoreBackend`] honours the same
//! contract the historical file store defined — put/get round-trips,
//! journal recovery, gc, stats — plus the pinned content-hash check
//! that keeps today's on-disk store layouts valid forever.

use std::collections::HashSet;
use std::path::PathBuf;

use pp_engine::Kernel;
use pp_sweep::exec::{run_cell, ExecOptions};
use pp_sweep::observer::NullObserver;
use pp_sweep::spec::{CellMode, CellSpec, CriterionKind, ProtocolId};
use pp_sweep::store::{ResultStore, TrialRecord};

fn spec(seed: u64) -> CellSpec {
    CellSpec {
        protocol: ProtocolId::UniformKPartition { k: 3 },
        n: 16,
        trials: 3,
        seed,
        criterion: CriterionKind::Stable,
        budget: 10_000_000,
        mode: CellMode::Summary,
        kernel: Kernel::Leap,
        dynamics: pp_topo::Dynamics::default_dynamics(),
    }
}

fn records_for(s: &CellSpec) -> Vec<TrialRecord> {
    (0..s.trials as u64)
        .map(|t| TrialRecord::summary(t, Some(1000 + t)))
        .collect()
}

/// One fresh store per backend kind, with the temp paths to clean up.
fn all_backends(tag: &str) -> Vec<(ResultStore, Vec<PathBuf>)> {
    let pid = std::process::id();
    let fs_dir = std::env::temp_dir().join(format!("pp_conf_fs_{tag}_{pid}"));
    let _ = std::fs::remove_dir_all(&fs_dir);
    let log_path = std::env::temp_dir().join(format!("pp_conf_log_{tag}_{pid}.log"));
    let _ = std::fs::remove_file(&log_path);
    vec![
        (ResultStore::in_memory(), vec![]),
        (ResultStore::at(fs_dir.clone()), vec![fs_dir]),
        (
            ResultStore::log_at(log_path.clone()).unwrap(),
            vec![log_path],
        ),
    ]
}

fn cleanup(paths: &[PathBuf]) {
    for p in paths {
        let _ = std::fs::remove_dir_all(p);
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn file_stems_and_content_hashes_are_pinned() {
    // These stems are the store's on-disk contract: existing result
    // directories were written under them, so any change to the
    // canonical key, the hash function, or the stem format silently
    // orphans every cached cell. Values captured from the current
    // implementation and pinned here bit-for-bit.
    let fig_cell = CellSpec {
        protocol: ProtocolId::UniformKPartition { k: 3 },
        n: 40,
        trials: 100,
        seed: 12345,
        criterion: CriterionKind::Stable,
        budget: 50_000_000,
        mode: CellMode::Summary,
        kernel: Kernel::Leap,
        dynamics: pp_topo::Dynamics::default_dynamics(),
    };
    assert_eq!(fig_cell.file_stem(), "ukp-k3-n40-761460d4e2f1bf4f");
    assert_eq!(
        fig_cell.canonical_key(),
        "v3|ukp:k=3|n=40|trials=100|seed=12345|crit=stable|budget=50000000|mode=summary|kernel=leap"
    );
    assert_eq!(fig_cell.content_hash(), 0x761460d4e2f1bf4f);

    let basic = CellSpec {
        protocol: ProtocolId::BasicStrategy { k: 4 },
        n: 96,
        ..fig_cell.clone()
    };
    assert_eq!(basic.file_stem(), "basic-k4-n96-be81c8c88411aa45");

    let small = CellSpec {
        protocol: ProtocolId::UniformKPartition { k: 2 },
        n: 16,
        trials: 3,
        seed: 7,
        budget: 1_000_000,
        ..fig_cell
    };
    assert_eq!(small.file_stem(), "ukp-k2-n16-d09df707bd965577");
}

#[test]
fn fs_backend_layout_is_bit_stable() {
    // The fs backend must keep writing the historical layout: one
    // `<stem>.json` per cell whose content is the canonical cell doc.
    let dir = std::env::temp_dir().join(format!("pp_conf_layout_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ResultStore::at(dir.clone());
    let s = spec(7);
    let recs = records_for(&s);
    store.save(&s, recs.clone()).unwrap();

    let path = dir.join(format!("{}.json", s.file_stem()));
    let text = std::fs::read_to_string(&path).expect("cell file at historical path");
    assert_eq!(text, pp_sweep::store::encode_cell_doc(&s, &recs));
    assert!(text.contains(&s.canonical_key()));
    cleanup(&[dir]);
}

#[test]
fn save_load_round_trips_on_every_backend() {
    for (store, paths) in all_backends("roundtrip") {
        let s = spec(11);
        assert!(
            store.load(&s).is_none(),
            "{}: empty store hit",
            store.kind()
        );
        let recs = records_for(&s);
        let saved = store.save(&s, recs.clone()).unwrap();
        assert_eq!(saved.records, recs);
        let loaded = store
            .load(&s)
            .unwrap_or_else(|| panic!("{}: lost cell", store.kind()));
        assert_eq!(loaded.records, recs, "{}: records differ", store.kind());
        assert_eq!(loaded.spec, s);
        // A different spec misses.
        assert!(store.load(&spec(12)).is_none());
        cleanup(&paths);
    }
}

#[test]
fn journal_lifecycle_on_every_backend() {
    for (store, paths) in all_backends("journal") {
        let kind = store.kind();
        let s = spec(21);
        assert!(!store.has_journal(&s), "{kind}: phantom journal");
        assert_eq!(store.journal_state(&s).records.len(), 0);

        let sink = store.journal_sink(&s).unwrap();
        let recs = records_for(&s);
        sink.append(&recs[0]).unwrap();
        sink.append(&recs[1]).unwrap();
        // Duplicate append of trial 0: first occurrence wins.
        let dup = TrialRecord::summary(0, Some(999_999));
        sink.append(&dup).unwrap();
        drop(sink);

        assert!(store.has_journal(&s), "{kind}: journal missing");
        let st = store.journal_state(&s);
        assert_eq!(st.records.len(), 2, "{kind}: wrong recovery count");
        assert_eq!(st.records[&0], recs[0], "{kind}: duplicate overwrote");
        assert_eq!(st.records[&1], recs[1]);

        // Promotion to a finished cell retires the journal.
        store.save(&s, recs.clone()).unwrap();
        assert!(!store.has_journal(&s), "{kind}: journal survived save");
        assert_eq!(store.load(&s).unwrap().records, recs);
        cleanup(&paths);
    }
}

#[test]
fn resume_after_interrupt_is_bit_identical_on_every_backend() {
    // Kill mid-cell, resume from the journal, and compare against an
    // uninterrupted run in a fresh store: the determinism contract the
    // fs backend has always had, now required of every backend.
    for (store, paths) in all_backends("resume") {
        let kind = store.kind();
        let s = spec(31);
        let interrupted = run_cell(
            &s,
            &store,
            &NullObserver,
            &ExecOptions {
                kill_after: Some(1),
            },
        )
        .unwrap();
        assert!(
            matches!(
                interrupted,
                pp_sweep::exec::CellOutcome::Interrupted { journaled: 1 }
            ),
            "{kind}: expected interruption"
        );
        assert!(store.has_journal(&s), "{kind}: no journal after kill");

        let resumed = run_cell(&s, &store, &NullObserver, &ExecOptions::default())
            .unwrap()
            .expect_complete();

        let fresh_store = ResultStore::in_memory();
        let fresh = run_cell(&s, &fresh_store, &NullObserver, &ExecOptions::default())
            .unwrap()
            .expect_complete();
        assert_eq!(resumed.records, fresh.records, "{kind}: resume diverged");
        assert!(!store.has_journal(&s), "{kind}: journal not retired");
        cleanup(&paths);
    }
}

#[test]
fn gc_keeps_live_cells_and_reports_removals() {
    for (store, paths) in all_backends("gc") {
        let kind = store.kind();
        let live = spec(41);
        let dead = spec(42);
        store.save(&live, records_for(&live)).unwrap();
        store.save(&dead, records_for(&dead)).unwrap();
        // An orphan journal (no plan references it) is collectable too.
        let orphan = spec(43);
        let sink = store.journal_sink(&orphan).unwrap();
        sink.append(&records_for(&orphan)[0]).unwrap();
        drop(sink);

        let live_stems: HashSet<String> = [live.file_stem()].into_iter().collect();
        let out = store.gc(&live_stems).unwrap();
        assert!(
            out.removed.iter().any(|r| r.contains(&dead.file_stem())),
            "{kind}: dead cell not removed: {:?}",
            out.removed
        );
        assert!(store.load(&live).is_some(), "{kind}: live cell collected");
        assert!(store.load(&dead).is_none(), "{kind}: dead cell survived");
        assert!(
            !store.has_journal(&orphan),
            "{kind}: orphan journal survived"
        );
        cleanup(&paths);
    }
}

#[test]
fn stats_count_cells_journals_and_bytes() {
    for (store, paths) in all_backends("stats") {
        let kind = store.kind();
        let s1 = spec(51);
        let s2 = spec(52);
        store.save(&s1, records_for(&s1)).unwrap();
        store.save(&s2, records_for(&s2)).unwrap();
        let sink = store.journal_sink(&spec(53)).unwrap();
        sink.append(&records_for(&spec(53))[0]).unwrap();
        drop(sink);

        let st = store.stats();
        assert_eq!(st.cells, 2, "{kind}: cell count");
        assert_eq!(st.journals, 1, "{kind}: journal count");
        assert!(st.bytes > 0, "{kind}: zero bytes");
        assert!(st.live_bytes <= st.bytes, "{kind}: live > total");
        let line = st.summary();
        assert!(line.contains("2 cells"), "{kind}: summary {line:?}");
        cleanup(&paths);
    }
}

#[test]
fn cell_docs_are_portable_across_backends() {
    // A cell saved through one backend re-encodes to the same canonical
    // document everywhere — backends differ in framing, not content.
    let s = spec(61);
    let recs = records_for(&s);
    let doc = pp_sweep::store::encode_cell_doc(&s, &recs);
    for (store, paths) in all_backends("portable") {
        store.save(&s, recs.clone()).unwrap();
        let loaded = store.load(&s).unwrap();
        assert_eq!(
            pp_sweep::store::encode_cell_doc(&loaded.spec, &loaded.records),
            doc,
            "{}: canonical doc drifted",
            store.kind()
        );
        cleanup(&paths);
    }
}

// ---------------------------------------------------------------------
// Log-backend specifics: crash recovery and compaction.
// ---------------------------------------------------------------------

use pp_sweep::backend::LogBackend;
use std::sync::Arc;

fn temp_log(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("pp_conf_logx_{tag}_{}.log", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

#[test]
fn log_reopen_recovers_cells_and_truncates_torn_tail() {
    let path = temp_log("torn");
    let s = spec(71);
    let recs = records_for(&s);
    {
        let store = ResultStore::log_at(path.clone()).unwrap();
        store.save(&s, recs.clone()).unwrap();
    }
    let clean_len = std::fs::metadata(&path).unwrap().len();

    // Crash mid-append: a torn (newline-less) half line at the tail.
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .unwrap();
    f.write_all(b"{\"t\":\"cell\",\"key\":\"v3|half").unwrap();
    drop(f);
    assert!(std::fs::metadata(&path).unwrap().len() > clean_len);

    let reopened = ResultStore::log_at(path.clone()).unwrap();
    assert_eq!(
        reopened.load(&s).expect("cell survives torn tail").records,
        recs
    );
    // The torn bytes were truncated away on recovery.
    assert_eq!(std::fs::metadata(&path).unwrap().len(), clean_len);
    cleanup(&[path]);
}

#[test]
fn log_journal_survives_reopen_and_resume_matches_fresh() {
    let path = temp_log("resume");
    let s = spec(72);
    {
        let store = ResultStore::log_at(path.clone()).unwrap();
        let out = run_cell(
            &s,
            &store,
            &NullObserver,
            &ExecOptions {
                kill_after: Some(2),
            },
        )
        .unwrap();
        assert!(matches!(
            out,
            pp_sweep::exec::CellOutcome::Interrupted { journaled: 2 }
        ));
        store.flush().unwrap();
    }

    // A fresh process over the same file sees the journaled trials and
    // completes the cell bit-identically to an uninterrupted run.
    let store = ResultStore::log_at(path.clone()).unwrap();
    assert_eq!(store.journal_state(&s).records.len(), 2);
    let resumed = run_cell(&s, &store, &NullObserver, &ExecOptions::default())
        .unwrap()
        .expect_complete();
    let fresh = run_cell(
        &s,
        &ResultStore::in_memory(),
        &NullObserver,
        &ExecOptions::default(),
    )
    .unwrap()
    .expect_complete();
    assert_eq!(resumed.records, fresh.records);
    cleanup(&[path]);
}

#[test]
fn log_compaction_reclaims_dead_bytes_and_keeps_live_cells() {
    let path = temp_log("compact");
    // Tiny threshold: a handful of superseded saves must trigger it.
    let backend = Arc::new(LogBackend::open_with_threshold(path.clone(), 64).unwrap());
    let store = ResultStore::with_backend(backend.clone());

    let cells: Vec<CellSpec> = (80..84).map(spec).collect();
    for c in &cells {
        store.save(c, records_for(c)).unwrap();
    }
    // Re-save every cell several times: each save supersedes a line.
    for round in 0..5 {
        for c in &cells {
            store.save(c, records_for(c)).unwrap();
        }
        let _ = round;
    }
    assert!(
        backend.compactions() >= 1,
        "no compaction after {} dead saves (stats: {})",
        5 * cells.len(),
        store.stats().summary()
    );
    // Compaction preserved every live cell.
    for c in &cells {
        assert_eq!(store.load(c).unwrap().records, records_for(c));
    }
    // And the file holds only live lines (plus nothing dead).
    let st = store.stats();
    assert_eq!(st.cells, cells.len() as u64);
    assert_eq!(
        st.dead_bytes,
        0,
        "compaction left dead bytes: {}",
        st.summary()
    );

    // The compacted file reopens cleanly.
    drop(store);
    drop(backend);
    let reopened = ResultStore::log_at(path.clone()).unwrap();
    for c in &cells {
        assert_eq!(reopened.load(c).unwrap().records, records_for(c));
    }
    cleanup(&[path]);
}

#[test]
fn log_gc_compacts_instead_of_deleting_files() {
    // `gc` on the log backend is compaction: the journal file itself
    // stays (one file is the whole store), but dead cells' bytes are
    // reclaimed immediately.
    let path = temp_log("gc");
    let store = ResultStore::log_at(path.clone()).unwrap();
    let live = spec(90);
    let dead = spec(91);
    store.save(&live, records_for(&live)).unwrap();
    store.save(&dead, records_for(&dead)).unwrap();
    let before = std::fs::metadata(&path).unwrap().len();

    let live_stems: HashSet<String> = [live.file_stem()].into_iter().collect();
    let out = store.gc(&live_stems).unwrap();
    assert_eq!(out.kept, 1);
    assert!(path.exists(), "gc must not delete the log file");
    let after = std::fs::metadata(&path).unwrap().len();
    assert!(
        after < before,
        "gc did not reclaim bytes ({before} -> {after})"
    );
    assert!(store.load(&live).is_some());
    assert!(store.load(&dead).is_none());
    cleanup(&[path]);
}
