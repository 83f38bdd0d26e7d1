//! Hermetic process set-up, run stamps, scratch directories and the
//! timed loop.

use std::path::{Path, PathBuf};
use std::time::Instant;

/// Upper bound on compute threads: the load is sized for a 2-core host.
pub const MAX_THREADS: usize = 2;

/// Compute threads this run uses: `min(nproc, MAX_THREADS)`.
pub fn threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(MAX_THREADS)
}

/// Clear every `PP_*` knob that changes cell identity or behaviour
/// (`PP_KERNEL`, `PP_TRIALS`, `PP_SEED`, `PP_FIG6_KMAX`,
/// `PP_STORE_BACKEND`, `PP_FLIGHT_*`, …), point `PP_RESULTS_DIR` (where
/// plan reports write their CSVs) into the run's scratch directory, and
/// pin the compute pool to [`threads`]. Call before any thread starts.
pub fn hermetic(results_dir: &Path) {
    let knobs: Vec<_> = std::env::vars_os()
        .filter_map(|(k, _)| {
            k.to_str()
                .filter(|k| k.starts_with("PP_"))
                .map(String::from)
        })
        .collect();
    for k in knobs {
        std::env::remove_var(k);
    }
    std::env::set_var("PP_RESULTS_DIR", results_dir);
    std::env::set_var("RAYON_NUM_THREADS", threads().to_string());
}

/// `git rev-parse HEAD` of the working directory, or `unknown` when it
/// is not a git checkout (git is not allowed to search parent
/// directories).
pub fn revision() -> String {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let ceiling = cwd
        .parent()
        .map(Path::to_path_buf)
        .unwrap_or_else(|| cwd.clone());
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Host name from the kernel, or `unknown`.
pub fn host() -> String {
    std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

/// One JSON line identifying what produced a result.
pub fn stamp(workload: &str, seed: u64, trace: bool) -> String {
    format!(
        "{{\"stamp\": {{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {}, \"rev\": \"{}\", \"host\": \"{}\", \"threads\": {}, \"nproc\": {}}}}}",
        u8::from(trace),
        revision(),
        host(),
        threads(),
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
    )
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// A scratch directory removed (with everything in it) on drop.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Create `<parent>/<tag>-<pid>-<nanos>`.
    pub fn new(parent: &Path, tag: &str) -> std::io::Result<TempDir> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos())
            .unwrap_or(0);
        let path = parent.join(format!("{tag}-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(TempDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        if let Some(parent) = self.path.parent() {
            // Only succeeds when no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Run `task(i)` for i = 0, 1, … on `threads` threads sharing one task
/// counter (on the calling thread when `threads` is 1), and return
/// each call's wall seconds and result in index order. At least `min`
/// and at most `max` tasks run; past `min`, a thread stops before a
/// task its previous one suggests would end after `seconds`.
pub fn timed<R: Send>(
    seconds: f64,
    threads: usize,
    min: usize,
    max: usize,
    task: impl Fn(usize) -> R + Sync,
) -> Vec<(f64, R)> {
    let start = Instant::now();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let worker = || {
        let mut mine = Vec::new();
        let mut last = 0.0;
        loop {
            let claimed = next.load(std::sync::atomic::Ordering::Relaxed);
            if claimed >= min && start.elapsed().as_secs_f64() + last > seconds {
                break;
            }
            let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if i >= max {
                break;
            }
            let t0 = Instant::now();
            let r = task(i);
            last = t0.elapsed().as_secs_f64();
            mine.push((i, last, r));
        }
        mine
    };
    let mut done = if threads <= 1 {
        worker()
    } else {
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("a timed task panicked"))
                .collect()
        })
    };
    done.sort_by_key(|d| d.0);
    done.into_iter().map(|(_, t, r)| (t, r)).collect()
}

/// Run rounds of `threads` concurrent calls of `task` (each round
/// starts every call together and waits for all of them), and return
/// each round's wall seconds with its calls' wall seconds and results.
/// At least one and at most `max` rounds run; a round is not started
/// when the previous one suggests it would end after `seconds`. Unlike
/// [`timed`], the calls stay in phase, so each always shares the host
/// with the same stage of its siblings.
pub fn lockstep<R: Send>(
    seconds: f64,
    threads: usize,
    max: usize,
    task: impl Fn() -> R + Sync,
) -> Vec<(f64, Vec<(f64, R)>)> {
    let start = Instant::now();
    let call = || {
        let t0 = Instant::now();
        let r = task();
        (t0.elapsed().as_secs_f64(), r)
    };
    let mut rounds: Vec<(f64, Vec<(f64, R)>)> = Vec::new();
    while rounds.len() < max {
        if let Some(last) = rounds.last() {
            if start.elapsed().as_secs_f64() + last.0 > seconds {
                break;
            }
        }
        let t0 = Instant::now();
        let calls = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads.max(1)).map(|_| scope.spawn(call)).collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("a lockstep task panicked"))
                .collect()
        });
        rounds.push((t0.elapsed().as_secs_f64(), calls));
    }
    rounds
}

/// Median wall seconds of one call of `f`, over at least 15 samples
/// and at least [`SETUP_SECONDS`] (set-up steps take microseconds, so
/// one call would be all noise). A sample is the mean of a batch of
/// calls that doubles until it lasts [`SAMPLE_SECONDS`], so the sample
/// count, and with it this process's memory, does not grow with the
/// host's speed.
pub fn median_time(mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut times = Vec::new();
    let mut batch = 1u32;
    while times.len() < 15 || start.elapsed().as_secs_f64() < SETUP_SECONDS {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        let dt = t0.elapsed().as_secs_f64();
        times.push(dt / f64::from(batch));
        if dt < SAMPLE_SECONDS {
            batch *= 2;
        }
    }
    crate::stats::median(&times)
}

/// Shortest sample [`median_time`] aims for.
pub const SAMPLE_SECONDS: f64 = 0.001;

/// Minimum time [`median_time`] spends repeating a set-up step. The
/// host slows down in bursts of a few tenths of a second; a window a
/// few times longer keeps one burst from moving the median.
pub const SETUP_SECONDS: f64 = 1.0;
