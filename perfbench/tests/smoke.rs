//! Seconds-long smoke runs of every workload at toy size, the
//! name-consistency check against `BENCHMARK.json`, and the timing
//! store decorator's transparency.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! from the repository root (debug builds work too, only slower).

use std::path::{Path, PathBuf};
use std::sync::Arc;

use perfbench::report::{self, Declared, END_TO_END};
use perfbench::timing::TimingBackend;
use perfbench::{env, RunConfig, Scale, WORKLOADS};
use pp_sweep::backend::{FsBackend, LogBackend, StoreBackend};
use pp_sweep::exec::ExecOptions;
use pp_sweep::observer::NullObserver;
use pp_sweep::store::{encode_cell_doc, ResultStore};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .to_path_buf()
}

fn declared() -> Declared {
    Declared::load(&repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json parses")
}

fn scratch(tag: &str) -> env::TempDir {
    let parent = Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-tests");
    env::TempDir::new(&parent, tag).unwrap()
}

fn smoke(workload: &str, trace: bool) {
    let tmp = scratch(workload);
    env::hermetic(&Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-results"));
    let cfg = RunConfig {
        seed: 7,
        seconds: 1.0,
        trace,
        scale: Scale::Toy,
        tmp: tmp.path().to_path_buf(),
    };
    let out = perfbench::run_workload(workload, &cfg).unwrap();
    assert!(out.attempted > 0, "{workload}: nothing attempted");
    assert_eq!(
        out.failed, 0,
        "{workload} (trace {trace}): {:?}",
        out.problems
    );
    let declared = declared();
    let metrics = report::finalize(workload, trace, &out.metrics, &declared).unwrap();
    let want = if trace {
        &declared.per_layer
    } else {
        &declared.end_to_end
    };
    assert_eq!(metrics.len(), want.len());
    for (name, unit) in want {
        let m = metrics
            .iter()
            .find(|m| &m.name == name)
            .unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(&m.unit, unit, "{name}");
        assert!(m.value.is_finite(), "{name} = {}", m.value);
        if !trace {
            assert!(m.value > 0.0, "{workload}: end-to-end {name} = {}", m.value);
        }
    }
    let line = report::result_line(true, out.attempted, out.failed, &metrics);
    let parsed = perfbench::jsonlite::Json::parse(&line).unwrap();
    assert!(parsed.get("metrics").is_some());
    if trace {
        assert!(
            !out.spans.is_empty(),
            "{workload}: traced run kept no spans"
        );
    }
}

#[test]
fn giant_n_smoke() {
    smoke("giant-n", false);
    smoke("giant-n", true);
}

#[test]
fn paper_sweep_smoke() {
    smoke("paper-sweep", false);
    smoke("paper-sweep", true);
}

#[test]
fn serve_mix_smoke() {
    smoke("serve-mix", false);
    smoke("serve-mix", true);
}

#[test]
fn verify_envelope_smoke() {
    smoke("verify-envelope", false);
    smoke("verify-envelope", true);
}

#[test]
fn benchmark_json_declares_exactly_what_the_workloads_print() {
    let d = declared();
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(d.end_to_end, e2e);
    let layer: Vec<(String, String)> = report::all_layer_metrics()
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(d.per_layer, layer);
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
    let doc = perfbench::jsonlite::Json::parse(&text).unwrap();
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(|w| w.as_arr())
        .unwrap()
        .iter()
        .filter_map(|w| w.get("name").and_then(|n| n.as_str()))
        .collect();
    assert_eq!(names, WORKLOADS);
}

/// Every file under `dir`: name → contents (all JSON text).
fn tree(dir: &Path) -> Vec<(String, String)> {
    let mut out: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (
                e.file_name().to_string_lossy().into_owned(),
                String::from_utf8_lossy(&std::fs::read(e.path()).unwrap()).into_owned(),
            )
        })
        .collect();
    out.sort();
    out
}

#[test]
fn timing_decorator_stores_the_same_bytes() {
    let tmp = scratch("decorator");
    let plans = perfbench::sweep::plans(11, Scale::Toy);
    let cells: Vec<_> = perfbench::sweep::union_cells(&plans)
        .into_iter()
        .take(12)
        .collect();
    let run = |backend: Arc<dyn StoreBackend>| {
        let store = ResultStore::with_backend(backend);
        pp_sweep::runner::run_cells(&cells, &store, &NullObserver, &ExecOptions::default())
            .unwrap();
        store.flush().unwrap();
    };

    let (plain, timed) = (tmp.path().join("fs-plain"), tmp.path().join("fs-timed"));
    run(Arc::new(FsBackend::at(&plain)));
    let decorated = TimingBackend::new(Arc::new(FsBackend::at(&timed)));
    let times = Arc::clone(&decorated.times);
    run(Arc::new(decorated));
    assert_eq!(tree(&plain), tree(&timed));
    assert_eq!(
        times.saves.load(std::sync::atomic::Ordering::Relaxed),
        cells.len() as u64
    );

    // The log's byte order follows trial completion order, which the
    // thread pool does not fix; compare what each log stores per cell.
    let (plain, timed) = (tmp.path().join("plain.log"), tmp.path().join("timed.log"));
    run(Arc::new(LogBackend::open(&plain).unwrap()));
    run(Arc::new(TimingBackend::new(Arc::new(
        LogBackend::open(&timed).unwrap(),
    ))));
    let docs = |path: &Path| -> Vec<String> {
        let store = ResultStore::with_backend(Arc::new(LogBackend::open(path).unwrap()));
        cells
            .iter()
            .map(|c| encode_cell_doc(c, &store.load(c).expect("cell stored").records))
            .collect()
    };
    assert_eq!(docs(&plain), docs(&timed));
}

#[test]
fn debug_builds_refuse_to_measure() {
    if !cfg!(debug_assertions) {
        return;
    }
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "verify-envelope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .current_dir(repo_root())
        .output()
        .unwrap();
    assert_ne!(out.status.code(), Some(0));
    assert!(out.stdout.is_empty(), "no result line from a debug build");
}
