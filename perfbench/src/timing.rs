//! A timing decorator for the store seam: wraps any
//! [`StoreBackend`] (and the [`JournalSink`]s it hands out), counts
//! calls and accumulates their wall time, and forwards everything else
//! untouched — stored bytes are the same with and without it.

use std::collections::HashSet;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use pp_sweep::backend::{BackendStats, GcOutcome, JournalSink, StoreBackend};
use pp_sweep::journal::JournalState;
use pp_sweep::spec::CellSpec;
use pp_sweep::store::{CellResult, TrialRecord};

/// Call counts and busy nanoseconds, shared by a backend and its sinks.
#[derive(Debug, Default)]
pub struct StoreTimes {
    /// `load` calls (hits and misses).
    pub loads: AtomicU64,
    /// `load` calls that found the cell.
    pub load_hits: AtomicU64,
    /// Nanoseconds inside `load`.
    pub load_ns: AtomicU64,
    /// `save` calls.
    pub saves: AtomicU64,
    /// Nanoseconds inside `save`.
    pub save_ns: AtomicU64,
    /// Journal appends.
    pub appends: AtomicU64,
    /// Nanoseconds inside journal `append`.
    pub append_ns: AtomicU64,
}

fn add_since(slot: &AtomicU64, t0: Instant) {
    slot.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
}

fn secs(slot: &AtomicU64) -> f64 {
    slot.load(Ordering::Relaxed) as f64 * 1e-9
}

impl StoreTimes {
    /// Seconds inside `load`.
    pub fn load_s(&self) -> f64 {
        secs(&self.load_ns)
    }
    /// Seconds inside `save`.
    pub fn save_s(&self) -> f64 {
        secs(&self.save_ns)
    }
    /// Seconds inside journal appends.
    pub fn append_s(&self) -> f64 {
        secs(&self.append_ns)
    }
    /// A counter's current value.
    pub fn get(slot: &AtomicU64) -> u64 {
        slot.load(Ordering::Relaxed)
    }
}

/// The decorator.
#[derive(Debug)]
pub struct TimingBackend {
    inner: Arc<dyn StoreBackend>,
    /// Shared tallies.
    pub times: Arc<StoreTimes>,
}

impl TimingBackend {
    /// Wrap `inner`.
    pub fn new(inner: Arc<dyn StoreBackend>) -> Self {
        TimingBackend {
            inner,
            times: Arc::new(StoreTimes::default()),
        }
    }
}

struct TimingSink {
    inner: Box<dyn JournalSink>,
    times: Arc<StoreTimes>,
}

impl JournalSink for TimingSink {
    fn append(&self, record: &TrialRecord) -> std::io::Result<()> {
        let t0 = Instant::now();
        let r = self.inner.append(record);
        add_since(&self.times.append_ns, t0);
        self.times.appends.fetch_add(1, Ordering::Relaxed);
        r
    }
}

impl StoreBackend for TimingBackend {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }
    fn location(&self) -> String {
        self.inner.location()
    }
    fn load(&self, spec: &CellSpec) -> Option<CellResult> {
        let t0 = Instant::now();
        let r = self.inner.load(spec);
        add_since(&self.times.load_ns, t0);
        self.times.loads.fetch_add(1, Ordering::Relaxed);
        if r.is_some() {
            self.times.load_hits.fetch_add(1, Ordering::Relaxed);
        }
        r
    }
    fn save(&self, spec: &CellSpec, records: Vec<TrialRecord>) -> std::io::Result<CellResult> {
        let t0 = Instant::now();
        let r = self.inner.save(spec, records);
        add_since(&self.times.save_ns, t0);
        self.times.saves.fetch_add(1, Ordering::Relaxed);
        r
    }
    fn journal_state(&self, spec: &CellSpec) -> JournalState {
        self.inner.journal_state(spec)
    }
    fn journal_sink(&self, spec: &CellSpec) -> std::io::Result<Box<dyn JournalSink>> {
        Ok(Box::new(TimingSink {
            inner: self.inner.journal_sink(spec)?,
            times: Arc::clone(&self.times),
        }))
    }
    fn has_journal(&self, spec: &CellSpec) -> bool {
        self.inner.has_journal(spec)
    }
    fn gc(&self, live_stems: &HashSet<String>) -> std::io::Result<GcOutcome> {
        self.inner.gc(live_stems)
    }
    fn stats(&self) -> BackendStats {
        self.inner.stats()
    }
    fn flush(&self) -> std::io::Result<()> {
        self.inner.flush()
    }
    fn fs_dir(&self) -> Option<&Path> {
        self.inner.fs_dir()
    }
}
