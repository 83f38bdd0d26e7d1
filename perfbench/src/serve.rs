//! `serve-mix`: pp-serve in process on `127.0.0.1:0` with a log-backend
//! store and 2 workers, driven over HTTP by 2 closed-loop clients with
//! a seeded script: unseen single cells, repeats of earlier cells, one
//! unseen cell sent by both clients at once, and multi-cell requests
//! mixing hits and misses. Every caller waits for its `done` event
//! before sending the next request.
//!
//! The untraced run plays the script for the measured seconds. The
//! traced run plays a fixed prefix twice — plain, then with a timing
//! store decorator, `GET /metrics` span-histogram deltas and client
//! spans — and checks that both returned the same records.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use pp_serve::server::{ServeConfig, Server};
use pp_sweep::backend::{LogBackend, StoreBackend};
use pp_sweep::exec::{run_cell, ExecOptions};
use pp_sweep::json::Value;
use pp_sweep::observer::NullObserver;
use pp_sweep::spec::{CellMode, CellSpec, CriterionKind, KernelChoice, ProtocolId};
use pp_sweep::store::ResultStore;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::report::Outcome;
use crate::spans::SpanLog;
use crate::timing::{StoreTimes, TimingBackend};
use crate::{RunConfig, Scale};

/// Per-layer metrics of this workload.
pub const LAYER: &[(&str, &str)] = &[
    ("serve.req_p50_ms", "ms"),
    ("serve.req_p99_ms", "ms"),
    ("serve.requests", "count"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.coalesced_p50_ms", "ms"),
    ("serve.ttfb_ms", "ms"),
    ("serve.admission_ms", "ms"),
    ("serve.store_lookup_ms", "ms"),
    ("serve.coalesce_wait_ms", "ms"),
    ("serve.simulate_ms", "ms"),
    ("serve.stream_flush_ms", "ms"),
    ("serve.outside_span_ms", "ms"),
    ("serve.coalesce_ratio", "ratio"),
    ("serve.rejected", "count"),
    ("serve.queue_depth_max", "count"),
    ("serve.store_load_s", "s"),
    ("serve.store_save_s", "s"),
];

/// Closed-loop clients (and server workers).
const CLIENTS: usize = 2;
/// Share of `--seconds` the untraced run plays the script for; the
/// rest goes to checking every served cell against an in-process run.
const PLAY_SHARE: f64 = 0.4;
/// Sequential hit requests the traced run uses to isolate time spent
/// outside the server's request span.
const HIT_PROBES: usize = 50;
/// Server-side spans whose `obs.span.micros` histograms the traced run
/// scrapes, with the per-layer metric each one feeds.
const SPANS: [(&str, &str); 5] = [
    ("serve.admission", "serve.admission_ms"),
    ("serve.store_lookup", "serve.store_lookup_ms"),
    ("serve.coalesce_wait", "serve.coalesce_wait_ms"),
    ("serve.simulate", "serve.simulate_ms"),
    ("serve.stream_flush", "serve.stream_flush_ms"),
];

/// One scripted request.
#[derive(Clone, Debug)]
pub enum Item {
    /// A single cell (unseen or a repeat) from one client.
    One(usize),
    /// One unseen cell sent by both clients at once.
    Dup(usize),
    /// Several cells in one request, mixing repeats and unseen cells.
    Multi(Vec<usize>),
}

/// A seeded request script: the cells, and each client's requests in
/// order. `Dup` items appear in both lists at matching positions.
#[derive(Clone, Debug)]
pub struct Script {
    /// Every distinct cell the script references.
    pub cells: Vec<CellSpec>,
    /// Per-client request lists.
    pub clients: [Vec<Item>; CLIENTS],
}

fn new_cell(rng: &mut SmallRng, scale: Scale) -> CellSpec {
    let (k, n, trials) = match scale {
        Scale::Full => (rng.gen_range(3..=5usize), rng.gen_range(64..=512u64), 20),
        Scale::Toy => (rng.gen_range(3..=4usize), rng.gen_range(16..=48u64), 4),
    };
    CellSpec {
        protocol: ProtocolId::UniformKPartition { k },
        n,
        trials,
        seed: rng.next_u64(),
        criterion: CriterionKind::Stable,
        budget: pp_protocols::kpartition::UniformKPartition::new(k).interaction_budget(n),
        mode: CellMode::Summary,
        kernel: KernelChoice::Leap,
        dynamics: pp_topo::Dynamics::default_dynamics(),
    }
}

/// One block of script steps: 6 unseen single cells, 12 repeats, one
/// concurrent duplicate (2 requests) and one multi-cell request — 21
/// requests, shuffled per block.
const BLOCK: [Kind; 20] = {
    let mut b = [Kind::Repeat; 20];
    b[0] = Kind::Unseen;
    b[1] = Kind::Unseen;
    b[2] = Kind::Unseen;
    b[3] = Kind::Unseen;
    b[4] = Kind::Unseen;
    b[5] = Kind::Unseen;
    b[6] = Kind::Dup;
    b[7] = Kind::Multi;
    b
};
/// Multi-cell request sizes, shuffled per group of five.
const MULTI_SIZES: [usize; 5] = [8, 14, 20, 26, 32];

#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    Unseen,
    Repeat,
    Dup,
    Multi,
}

fn shuffle<T>(rng: &mut SmallRng, xs: &mut [T]) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.gen_range(0..=i));
    }
}

/// Generate `steps` script steps from `seed`, stratified so every run
/// gets the same mix: ~29% unseen single cells, ~57% repeats of earlier
/// cells, ~10% concurrent duplicates and ~5% multi-cell requests of
/// 8–32 cells, half of them unseen.
pub fn script(seed: u64, scale: Scale, steps: usize) -> Script {
    let mut rng = SmallRng::seed_from_u64(pp_engine::seeds::derive(seed, 0x0053_4552_5645));
    let mut cells: Vec<CellSpec> = Vec::new();
    let mut clients: [Vec<Item>; CLIENTS] = [Vec::new(), Vec::new()];
    let fresh = |rng: &mut SmallRng, cells: &mut Vec<CellSpec>| {
        cells.push(new_cell(rng, scale));
        cells.len() - 1
    };
    let mut kinds = Vec::new();
    let mut sizes = Vec::new();
    for step in 0..steps {
        if kinds.is_empty() {
            kinds = BLOCK.to_vec();
            shuffle(&mut rng, &mut kinds);
        }
        let who = step % CLIENTS;
        match kinds.pop().expect("refilled") {
            Kind::Repeat if !cells.is_empty() => {
                let c = rng.gen_range(0..cells.len());
                clients[who].push(Item::One(c));
            }
            Kind::Unseen | Kind::Repeat => {
                let c = fresh(&mut rng, &mut cells);
                clients[who].push(Item::One(c));
            }
            Kind::Dup => {
                let c = fresh(&mut rng, &mut cells);
                for list in clients.iter_mut() {
                    list.push(Item::Dup(c));
                }
            }
            Kind::Multi => {
                if sizes.is_empty() {
                    sizes = MULTI_SIZES.to_vec();
                    shuffle(&mut rng, &mut sizes);
                }
                let m = sizes.pop().expect("refilled");
                let pick = (0..m)
                    .map(|i| {
                        if i % 2 == 0 {
                            fresh(&mut rng, &mut cells)
                        } else {
                            rng.gen_range(0..cells.len())
                        }
                    })
                    .collect();
                clients[who].push(Item::Multi(pick));
            }
        }
    }
    Script { cells, clients }
}

/// What one request returned.
#[derive(Clone, Debug, Default)]
pub struct Reply {
    /// HTTP status.
    pub status: u16,
    /// Seconds from sending to the `accepted` event.
    pub ttfb_s: f64,
    /// Seconds from sending to the `done` event.
    pub latency_s: f64,
    /// Whether a `done` event arrived.
    pub done: bool,
    /// The server's request span id, from the `accepted` event.
    pub span: u64,
    /// `(cell stem, source, encoded records)` per `result` event.
    pub results: Vec<(String, String, Vec<String>)>,
    /// `error` events.
    pub errors: Vec<String>,
}

/// `POST /cells?records=1` and read the NDJSON stream, timing the
/// `accepted` and `done` events. Right after sending, `depth_max` takes
/// the server's admission-queue depth gauge if it is higher.
pub fn post_cells(addr: SocketAddr, body: &str, depth_max: &AtomicU64) -> std::io::Result<Reply> {
    let t0 = Instant::now();
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(10))?;
    stream.set_read_timeout(Some(Duration::from_secs(120)))?;
    write!(
        stream,
        "POST /cells?records=1 HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()?;
    depth_max.fetch_max(
        pp_serve::telemetry::serve_metrics().queue_depth.get(),
        Ordering::Relaxed,
    );
    let mut reader = BufReader::new(stream);
    let mut reply = Reply::default();
    let mut line = String::new();
    reader.read_line(&mut line)?;
    reply.status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 || line.trim().is_empty() {
            break;
        }
    }
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        let Ok(ev) = Value::parse(line.trim()) else {
            reply
                .errors
                .push(format!("unparsable line {:?}", line.trim()));
            continue;
        };
        match ev.get("event").and_then(Value::as_str) {
            Some("accepted") => {
                reply.ttfb_s = t0.elapsed().as_secs_f64();
                reply.span = ev.get("span").and_then(Value::as_u64).unwrap_or(0);
            }
            Some("result") => {
                let field = |k: &str| ev.get(k).and_then(Value::as_str).unwrap_or("").to_string();
                let records = ev
                    .get("records")
                    .and_then(Value::as_arr)
                    .map(|rs| rs.iter().map(Value::encode).collect())
                    .unwrap_or_default();
                reply
                    .results
                    .push((field("cell"), field("source"), records));
            }
            Some("error") => reply.errors.push(ev.encode()),
            Some("done") => {
                reply.latency_s = t0.elapsed().as_secs_f64();
                reply.done = true;
            }
            _ => {}
        }
    }
    Ok(reply)
}

fn body_of(cells: &[CellSpec], ids: &[usize]) -> String {
    ids.iter()
        .map(|&i| cells[i].to_json().encode() + "\n")
        .collect()
}

type ServerThread = std::thread::JoinHandle<std::io::Result<pp_serve::server::ServeSummary>>;

/// A running in-process server; dropping it without [`Running::stop`]
/// (an early error return) still shuts it down and joins it.
pub struct Running {
    /// Bound address.
    pub addr: SocketAddr,
    flag: Arc<pp_serve::server::ShutdownFlag>,
    thread: Option<ServerThread>,
}

impl Running {
    /// Bind on an ephemeral port, start serving, wait until healthy.
    pub fn start(store: ResultStore) -> Result<Running, String> {
        let cfg = ServeConfig {
            addr: "127.0.0.1:0".into(),
            queue: 64,
            workers: CLIENTS,
        };
        let server = Server::bind(cfg, store).map_err(|e| format!("bind failed: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let flag = server.shutdown_flag();
        let running = Running {
            addr,
            flag,
            thread: Some(std::thread::spawn(move || server.run())),
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        while !pp_serve::client::healthy(addr) {
            if Instant::now() > deadline {
                return Err("server never became healthy".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(running)
    }

    /// Trip shutdown and join the server thread (which drains its
    /// workers and flushes the store).
    pub fn stop(mut self) -> Result<(), String> {
        self.flag.trip();
        match self.thread.take().map(std::thread::JoinHandle::join) {
            Some(Ok(Ok(_))) | None => Ok(()),
            Some(Ok(Err(e))) => Err(format!("server failed: {e}")),
            Some(Err(_)) => Err("server thread panicked".into()),
        }
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        self.flag.trip();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn log_store(dir: &Path, timed: bool) -> Result<(ResultStore, Option<Arc<StoreTimes>>), String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let log: Arc<dyn StoreBackend> =
        Arc::new(LogBackend::open(dir.join("cells.log")).map_err(|e| format!("log store: {e}"))?);
    if !timed {
        return Ok((ResultStore::with_backend(log), None));
    }
    let backend = TimingBackend::new(log);
    let times = Arc::clone(&backend.times);
    Ok((ResultStore::with_backend(Arc::new(backend)), Some(times)))
}

/// One client-observed request.
#[derive(Clone, Debug)]
struct Sample {
    latency_s: f64,
    ttfb_s: f64,
    /// Source of a single-cell request's result; `multi` otherwise.
    class: String,
    dup: bool,
}

/// What playing a script produced.
#[derive(Debug, Default)]
struct Played {
    samples: Vec<Sample>,
    wall_s: f64,
    /// First records seen per cell stem.
    records: BTreeMap<String, Vec<String>>,
    problems: Vec<String>,
    attempted: u64,
    queue_depth_max: u64,
}

/// Play `script` with both clients. With `deadline_s`, clients stop at
/// the first duplicate rendezvous past it (both decide together, so
/// neither waits forever); without, they play their whole lists.
fn play(
    addr: SocketAddr,
    script: &Script,
    deadline_s: Option<f64>,
    spans: Option<&SpanLog>,
) -> Played {
    let barrier = Barrier::new(CLIENTS);
    let stop = AtomicBool::new(false);
    let depth_max = AtomicU64::new(0);
    let merged = Mutex::new(Played::default());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for list in &script.clients {
            let (barrier, stop, depth_max, merged) = (&barrier, &stop, &depth_max, &merged);
            scope.spawn(move || {
                let mut mine = Played::default();
                for item in list {
                    let (ids, dup) = match item {
                        Item::One(c) => (vec![*c], false),
                        Item::Dup(c) => {
                            if barrier.wait().is_leader() {
                                let over =
                                    deadline_s.is_some_and(|d| start.elapsed().as_secs_f64() > d);
                                stop.store(over, Ordering::SeqCst);
                            }
                            barrier.wait();
                            if stop.load(Ordering::SeqCst) {
                                break;
                            }
                            (vec![*c], true)
                        }
                        Item::Multi(cs) => (cs.clone(), false),
                    };
                    let sent = Instant::now();
                    let reply = post_cells(addr, &body_of(&script.cells, &ids), depth_max);
                    mine.attempted += 1;
                    let reply = match reply {
                        Ok(r) => r,
                        Err(e) => {
                            mine.problems.push(format!("request failed: {e}"));
                            continue;
                        }
                    };
                    if let Some(log) = spans {
                        let id = log.id();
                        log.record(
                            id,
                            0,
                            "serve.client.request",
                            sent,
                            sent + Duration::from_secs_f64(reply.latency_s),
                            reply.span,
                        );
                    }
                    let mut want: Vec<String> =
                        ids.iter().map(|&i| script.cells[i].file_stem()).collect();
                    want.sort();
                    want.dedup();
                    let mut got: Vec<String> = reply.results.iter().map(|r| r.0.clone()).collect();
                    got.sort();
                    if reply.status != 200 || !reply.done || !reply.errors.is_empty() || got != want
                    {
                        mine.problems.push(format!(
                            "bad reply: status {}, done {}, {} results for {} cells, errors {:?}",
                            reply.status,
                            reply.done,
                            got.len(),
                            want.len(),
                            reply.errors
                        ));
                        continue;
                    }
                    for (stem, _, recs) in &reply.results {
                        mine.records
                            .entry(stem.clone())
                            .or_insert_with(|| recs.clone());
                        if mine.records[stem] != *recs {
                            mine.problems
                                .push(format!("cell {stem}: records changed between replies"));
                        }
                    }
                    let class = if ids.len() == 1 {
                        reply.results[0].1.clone()
                    } else {
                        "multi".into()
                    };
                    mine.samples.push(Sample {
                        latency_s: reply.latency_s,
                        ttfb_s: reply.ttfb_s,
                        class,
                        dup,
                    });
                }
                let mut all = merged.lock().expect("a client thread panicked");
                all.samples.extend(mine.samples);
                all.problems.extend(mine.problems);
                all.attempted += mine.attempted;
                for (stem, recs) in mine.records {
                    if all.records.get(&stem).is_some_and(|r| *r != recs) {
                        all.problems
                            .push(format!("cell {stem}: clients saw different records"));
                    }
                    all.records.insert(stem, recs);
                }
            });
        }
    });
    let mut played = merged.into_inner().expect("a client thread panicked");
    played.wall_s = start.elapsed().as_secs_f64();
    played.queue_depth_max = depth_max.load(Ordering::Relaxed);
    played
}

/// Check every served cell against an in-process `run_cell` of the
/// same spec on an in-memory store.
fn verify_records(out: &mut Outcome, script: &Script, played: &Played) {
    for spec in &script.cells {
        let stem = spec.file_stem();
        let Some(served) = played.records.get(&stem) else {
            continue;
        };
        let expected: Vec<String> = match run_cell(
            spec,
            &ResultStore::in_memory(),
            &NullObserver,
            &ExecOptions::default(),
        ) {
            Ok(o) => o
                .expect_complete()
                .records
                .iter()
                .map(|r| r.to_json().encode())
                .collect(),
            Err(e) => {
                out.check(Some(format!("in-process run of {stem} failed: {e}")));
                continue;
            }
        };
        out.check(
            (served != &expected)
                .then(|| format!("cell {stem}: served records differ from run_cell")),
        );
    }
}

/// `obs.span.micros` `(sum, count)` per span name from `GET /metrics`.
fn scrape_spans(addr: SocketAddr) -> Result<BTreeMap<String, (f64, f64)>, String> {
    let resp = pp_serve::client::request(addr, "GET", "/metrics", "")
        .map_err(|e| format!("GET /metrics: {e}"))?;
    let mut out: BTreeMap<String, (f64, f64)> = BTreeMap::new();
    for line in resp.body.lines() {
        for (suffix, is_sum) in [
            ("obs_span_micros_sum{", true),
            ("obs_span_micros_count{", false),
        ] {
            let Some(rest) = line.strip_prefix(suffix) else {
                continue;
            };
            let Some((labels, value)) = rest.split_once("} ") else {
                continue;
            };
            let Some(name) = labels
                .split("span=\"")
                .nth(1)
                .and_then(|s| s.split('"').next())
            else {
                continue;
            };
            let v: f64 = value.trim().parse().unwrap_or(0.0);
            let slot = out.entry(name.to_string()).or_default();
            if is_sum {
                slot.0 = v;
            } else {
                slot.1 = v;
            }
        }
    }
    Ok(out)
}

/// Mean milliseconds per span between two scrapes.
fn span_ms(
    before: &BTreeMap<String, (f64, f64)>,
    after: &BTreeMap<String, (f64, f64)>,
    name: &str,
) -> f64 {
    let (s1, c1) = after.get(name).copied().unwrap_or_default();
    let (s0, c0) = before.get(name).copied().unwrap_or_default();
    if c1 > c0 {
        (s1 - s0) / (c1 - c0) / 1000.0
    } else {
        0.0
    }
}

fn ms_p50(samples: &[Sample], pred: impl Fn(&Sample) -> bool) -> f64 {
    let xs: Vec<f64> = samples
        .iter()
        .filter(|s| pred(s))
        .map(|s| s.latency_s * 1000.0)
        .collect();
    crate::stats::median(&xs)
}

/// Script steps at each scale: more than the measured window can play.
fn steps(scale: Scale, trace: bool) -> usize {
    match (scale, trace) {
        (Scale::Full, false) => 20_000,
        (Scale::Full, true) => 1_000,
        (Scale::Toy, _) => 60,
    }
}

/// Run the workload.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let start = Instant::now();
    let mut out = Outcome::default();
    let spans = SpanLog::new(cfg.trace);
    let script = script(cfg.seed, cfg.scale, steps(cfg.scale, cfg.trace));

    // Set-up: store open, bind, worker spawn, first health answer.
    // Stopping a server flushes (fsyncs) its log, so the repeat budget
    // counts the whole cycle, not just the timed start. Every cycle
    // reopens the same (empty) log: hundreds of fsynced logs would take
    // longer to delete than the run takes to measure.
    let mut setups = Vec::new();
    let mut setup_err = Ok(());
    while setup_err.is_ok()
        && (setups.len() < 15 || start.elapsed().as_secs_f64() < crate::env::SETUP_SECONDS)
    {
        let t0 = Instant::now();
        let started =
            log_store(&cfg.tmp.join("setup"), false).and_then(|(store, _)| Running::start(store));
        setups.push(t0.elapsed().as_secs_f64());
        setup_err = started.and_then(Running::stop);
    }
    setup_err?;
    let setup_s = crate::stats::median(&setups);

    let (store, _) = log_store(&cfg.tmp.join("plain"), false)?;
    let server = Running::start(store)?;
    let deadline = (!cfg.trace).then_some(PLAY_SHARE * cfg.seconds - start.elapsed().as_secs_f64());
    let plain = play(server.addr, &script, deadline, None);
    server.stop()?;
    out.absorb(plain.attempted, &plain.problems);
    verify_records(&mut out, &script, &plain);

    let lat_ms: Vec<f64> = plain.samples.iter().map(|s| s.latency_s * 1000.0).collect();
    let p50 = crate::stats::median(&lat_ms);
    let p99 = crate::stats::quantile(&lat_ms, 0.99);
    if !cfg.trace {
        out.metric("setup_s", setup_s, "s");
        out.metric("task_s", p50 / 1000.0, "s");
        out.metric(
            "tasks_per_s",
            plain.samples.len() as f64 / plain.wall_s,
            "1/s",
        );
        out.metric("peak_rss_mb", crate::env::peak_rss_mb(), "MB");
        out.note(format!(
            "serve-mix: req_p50_ms = {p50:.3} ms, req_p99_ms = {p99:.3} ms over {} requests ({} distinct cells), req_per_s = {:.1}",
            lat_ms.len(),
            plain.records.len(),
            plain.samples.len() as f64 / plain.wall_s
        ));
        return Ok(out);
    }

    // Traced replay of the same script on a fresh server.
    let (store, times) = log_store(&cfg.tmp.join("traced"), true)?;
    let times = times.expect("timed store");
    let server = Running::start(store)?;
    let rejected =
        |snap: &pp_telemetry::Snapshot| snap.value("serve.requests.rejected").unwrap_or(0);
    let rejected_before = rejected(&pp_telemetry::Snapshot::capture_global());
    let before = scrape_spans(server.addr)?;
    let traced = play(server.addr, &script, None, Some(&spans));
    let after = scrape_spans(server.addr)?;
    let rejected_n = rejected(&pp_telemetry::Snapshot::capture_global()) - rejected_before;

    // Sequential single-cell hits: client latency minus request span.
    let hit_cell = traced.records.keys().next().cloned();
    let hit_spec = script
        .cells
        .iter()
        .find(|c| Some(c.file_stem()) == hit_cell);
    let mut probe_ms = Vec::new();
    let probe_before = scrape_spans(server.addr)?;
    if let Some(spec) = hit_spec {
        let body = spec.to_json().encode() + "\n";
        for _ in 0..HIT_PROBES {
            match post_cells(server.addr, &body, &AtomicU64::new(0)) {
                Ok(r) if r.done && r.status == 200 => probe_ms.push(r.latency_s * 1000.0),
                Ok(r) => out.check(Some(format!(
                    "hit probe got status {} done {}",
                    r.status, r.done
                ))),
                Err(e) => out.check(Some(format!("hit probe failed: {e}"))),
            }
        }
    }
    let probe_after = scrape_spans(server.addr)?;
    server.stop()?;
    out.absorb(traced.attempted, &traced.problems);
    out.check(
        (traced.records != plain.records)
            .then(|| "traced replay returned different records".to_string()),
    );

    let t = &traced.samples;
    let dups = t.iter().filter(|s| s.dup).count();
    let coalesced = t.iter().filter(|s| s.dup && s.class == "coalesced").count();
    let traced_ms: Vec<f64> = t.iter().map(|s| s.latency_s * 1000.0).collect();
    out.metric("protocols.compile_s", crate::compile_s(5), "s");
    out.metric(
        "bench.trace_overhead_pct",
        100.0 * (traced.wall_s - plain.wall_s) / plain.wall_s,
        "%",
    );
    out.metric("serve.req_p50_ms", crate::stats::median(&traced_ms), "ms");
    out.metric(
        "serve.req_p99_ms",
        crate::stats::quantile(&traced_ms, 0.99),
        "ms",
    );
    out.metric("serve.requests", t.len() as f64, "count");
    out.metric("serve.hit_p50_ms", ms_p50(t, |s| s.class == "cache"), "ms");
    out.metric(
        "serve.miss_p50_ms",
        ms_p50(t, |s| s.class == "simulated"),
        "ms",
    );
    out.metric(
        "serve.coalesced_p50_ms",
        ms_p50(t, |s| s.class == "coalesced"),
        "ms",
    );
    out.metric(
        "serve.ttfb_ms",
        crate::stats::median(&t.iter().map(|s| s.ttfb_s * 1000.0).collect::<Vec<_>>()),
        "ms",
    );
    for (span, metric) in SPANS {
        out.metric(metric, span_ms(&before, &after, span), "ms");
    }
    out.metric(
        "serve.outside_span_ms",
        crate::stats::mean(&probe_ms) - span_ms(&probe_before, &probe_after, "serve.request"),
        "ms",
    );
    out.metric(
        "serve.coalesce_ratio",
        coalesced as f64 / (dups / 2).max(1) as f64,
        "ratio",
    );
    out.metric("serve.rejected", rejected_n as f64, "count");
    out.metric(
        "serve.queue_depth_max",
        traced.queue_depth_max as f64,
        "count",
    );
    out.metric("serve.store_load_s", times.load_s(), "s");
    out.metric("serve.store_save_s", times.save_s(), "s");
    out.spans = spans.to_ndjson();
    Ok(out)
}
