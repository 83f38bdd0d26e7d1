//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload in this process and prints, as the last line of
//! standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`). Run it from the repository root:
//! it reads `BENCHMARK.json` there and keeps its scratch files under
//! `.perfbench-tmp/`; traced runs leave their spans in
//! `perfbench-out/<workload>-seed<seed>.spans.ndjson`.

use std::path::Path;
use std::process::ExitCode;

use perfbench::report::{self, Declared};
use perfbench::{env, RunConfig, Scale};

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        perfbench::WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to measure a debug build; build with --release");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(val) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = val.parse::<u64>().ok(),
            "--seconds" => seconds = val.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(val.as_str(), "0" | "1").then(|| val == "1"),
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds (> 0) and --trace (0 or 1) are all required");
    };
    let declared = match Declared::load(Path::new("BENCHMARK.json")) {
        Ok(d) => d,
        Err(e) => return usage(&e),
    };

    let tmp = match env::TempDir::new(Path::new(".perfbench-tmp"), &workload) {
        Ok(t) => t,
        Err(e) => return usage(&format!("cannot create a scratch directory: {e}")),
    };
    env::hermetic(&tmp.path().join("results"));
    let stamp = env::stamp(&workload, seed, trace);
    let cfg = RunConfig {
        seed,
        seconds,
        trace,
        scale: Scale::Full,
        tmp: tmp.path().to_path_buf(),
    };
    let outcome = match perfbench::run_workload(&workload, &cfg) {
        Ok(o) => o,
        Err(e) => return usage(&e),
    };
    drop(tmp);

    for line in &outcome.notes {
        eprintln!("perfbench: {line}");
    }
    for p in &outcome.problems {
        eprintln!("perfbench: FAILED CHECK: {p}");
    }
    if trace {
        let path = Path::new("perfbench-out").join(format!("{workload}-seed{seed}.spans.ndjson"));
        if let Err(e) = std::fs::create_dir_all("perfbench-out")
            .and_then(|_| std::fs::write(&path, format!("{stamp}\n{}", outcome.spans)))
        {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::from(1);
        }
        eprintln!("perfbench: spans written to {}", path.display());
    }
    let metrics = match report::finalize(&workload, trace, &outcome.metrics, &declared) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: metric names disagree with BENCHMARK.json: {e}");
            return ExitCode::from(1);
        }
    };
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    println!("{stamp}");
    println!(
        "{}",
        report::result_line(correct, outcome.attempted, outcome.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
