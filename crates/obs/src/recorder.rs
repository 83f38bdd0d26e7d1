//! The flight recorder: a fixed-size, lock-free ring of recent records.
//!
//! Each write claims one global index with a single `fetch_add` and then
//! publishes into slot `index % capacity` under a per-slot seqlock, so a
//! write is O(1) atomic stores and never blocks another writer or a
//! reader. Readers ([`FlightRecorder::snapshot`]) never block writers
//! either: a slot caught mid-write fails its sequence re-check and is
//! skipped. The ring therefore always holds (a consistent view of) the
//! most recent `capacity` records, which is exactly the "what just
//! happened" evidence wanted after a panic or SIGTERM.
//!
//! The only lock in the module guards the name/label interner and the
//! write-index claim, taken when a record is written (names come from a
//! small fixed set, labels from cell stems, so the critical section is a
//! `BTreeMap` lookup) and once per snapshot to resolve the string ids. The
//! hot slot publish itself is lock-free. The interner keeps only strings
//! that records still in the ring can reference, so it is bounded by the
//! capacity like the ring itself.

use pp_telemetry::json::Value;
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::path::Path;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Monotonic process clock: microseconds since the first call.
pub fn now_micros() -> u64 {
    static START: OnceLock<Instant> = OnceLock::new();
    let start = *START.get_or_init(Instant::now);
    start.elapsed().as_micros() as u64
}

/// What a ring slot holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordKind {
    /// A point event with an attached integer value.
    Event,
    /// A span was opened (its close may still be pending — or never come,
    /// which after a crash is itself the interesting signal).
    SpanOpen,
    /// A span closed; carries both endpoints.
    SpanClose,
}

impl RecordKind {
    fn code(self) -> u64 {
        match self {
            RecordKind::Event => 0,
            RecordKind::SpanOpen => 1,
            RecordKind::SpanClose => 2,
        }
    }

    fn from_code(code: u64) -> Option<RecordKind> {
        match code {
            0 => Some(RecordKind::Event),
            1 => Some(RecordKind::SpanOpen),
            2 => Some(RecordKind::SpanClose),
            _ => None,
        }
    }

    /// Stable wire name used in the NDJSON dump.
    pub fn as_str(self) -> &'static str {
        match self {
            RecordKind::Event => "event",
            RecordKind::SpanOpen => "span_open",
            RecordKind::SpanClose => "span",
        }
    }
}

/// One decoded record, as returned by [`FlightRecorder::snapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Record {
    /// Global write index (total ring writes before this one); snapshot
    /// order and the `seq` field of the NDJSON line.
    pub seq: u64,
    /// Which kind of record this is.
    pub kind: RecordKind,
    /// Span id (0 for plain events, which belong to their parent span).
    pub id: u64,
    /// Parent span id, 0 for roots.
    pub parent: u64,
    /// Interned record name, e.g. `serve.request`.
    pub name: String,
    /// Free-form label (cell stem, reason, ...); empty when absent.
    pub label: String,
    /// Event/open time, or span start, in [`now_micros`] ticks.
    pub start_micros: u64,
    /// Span end; equals `start_micros` for events and opens.
    pub end_micros: u64,
    /// Attached integer payload (events only; 0 otherwise).
    pub value: u64,
}

impl Record {
    /// Encode as one NDJSON line (no trailing newline). Integer-and-string
    /// JSON only, matching the workspace's export conventions.
    pub fn to_json(&self) -> Value {
        let mut pairs = vec![
            ("seq", Value::U64(self.seq)),
            ("kind", Value::Str(self.kind.as_str().into())),
            ("id", Value::U64(self.id)),
            ("parent", Value::U64(self.parent)),
            ("name", Value::Str(self.name.clone())),
            ("micros", Value::U64(self.start_micros)),
        ];
        if self.kind == RecordKind::SpanClose {
            pairs.push(("end_micros", Value::U64(self.end_micros)));
        }
        if self.kind == RecordKind::Event {
            pairs.push(("value", Value::U64(self.value)));
        }
        if !self.label.is_empty() {
            pairs.push(("label", Value::Str(self.label.clone())));
        }
        Value::obj(pairs)
    }
}

/// Slot sequence encoding: `0` = never written, `2i + 1` = write `i` in
/// progress, `2i + 2` = write `i` published.
const EMPTY: u64 = 0;

struct Slot {
    seq: AtomicU64,
    kind: AtomicU64,
    id: AtomicU64,
    parent: AtomicU64,
    name: AtomicU64,
    label: AtomicU64,
    start: AtomicU64,
    end: AtomicU64,
    value: AtomicU64,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            seq: AtomicU64::new(EMPTY),
            kind: AtomicU64::new(0),
            id: AtomicU64::new(0),
            parent: AtomicU64::new(0),
            name: AtomicU64::new(0),
            label: AtomicU64::new(0),
            start: AtomicU64::new(0),
            end: AtomicU64::new(0),
            value: AtomicU64::new(0),
        }
    }
}

/// The string table behind the slots' `name`/`label` ids.
///
/// Ids are never reused, so an id read from a slot resolves to its own
/// string or, once evicted, to nothing. A string is evicted only after
/// every write that used it has been superseded in the ring.
#[derive(Default)]
struct Interner {
    /// String → (id, index of the last write that used it).
    by_name: BTreeMap<String, (u64, u64)>,
    /// Id → string; id 0 is the empty string, meaning "no label".
    names: HashMap<u64, String>,
    next_id: u64,
}

impl Interner {
    /// Id of `s` for write `index`, recording that use.
    fn intern(&mut self, s: &str, index: u64) -> u64 {
        if self.names.is_empty() {
            self.names.insert(0, String::new());
            self.next_id = 1;
        }
        if s.is_empty() {
            return 0;
        }
        if let Some((id, last)) = self.by_name.get_mut(s) {
            *last = index;
            return *id;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.names.insert(id, s.to_string());
        self.by_name.insert(s.to_string(), (id, index));
        id
    }

    /// Drop strings no live record can reference once write `index` is
    /// claimed: writes at or before `index − capacity` have had their slots
    /// claimed by later writes. The ring's live records use at most
    /// `2 · capacity` strings, so sweeping only past `4 · capacity` keeps
    /// the table O(capacity) at amortised O(1) cost per write.
    fn evict(&mut self, index: u64, capacity: u64) {
        if self.by_name.len() as u64 <= 4 * capacity {
            return;
        }
        let names = &mut self.names;
        self.by_name.retain(|_, &mut (id, last)| {
            let live = last + capacity > index;
            if !live {
                names.remove(&id);
            }
            live
        });
    }
}

/// A fixed-size lock-free ring of recent [`Record`]s.
///
/// Capacity 0 disables the recorder entirely: writes become no-ops and
/// snapshots are empty. The process-wide instance ([`recorder`]) sizes
/// itself from `PP_FLIGHT_CAPACITY` (default 4096).
pub struct FlightRecorder {
    slots: Box<[Slot]>,
    next: AtomicU64,
    interner: Mutex<Interner>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.slots.len())
            .field("written", &self.next.load(Ordering::Relaxed))
            .finish()
    }
}

impl FlightRecorder {
    /// A recorder holding the most recent `capacity` records.
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            slots: (0..capacity).map(|_| Slot::new()).collect(),
            next: AtomicU64::new(0),
            interner: Mutex::new(Interner::default()),
        }
    }

    /// Ring capacity (0 = disabled).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Whether writes land anywhere.
    pub fn enabled(&self) -> bool {
        !self.slots.is_empty()
    }

    /// Total records ever written (not capped by capacity).
    pub fn written(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    /// Write one record. Lock-free except for name/label interning and
    /// the write-index claim.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        kind: RecordKind,
        id: u64,
        parent: u64,
        name: &str,
        label: &str,
        start_micros: u64,
        end_micros: u64,
        value: u64,
    ) {
        if self.slots.is_empty() {
            return;
        }
        // The index is claimed under the interner lock, so eviction sees
        // every write that precedes it.
        let (index, name_idx, label_idx) = {
            let mut interner = self.interner.lock().expect("recorder interner poisoned");
            let index = self.next.fetch_add(1, Ordering::Relaxed);
            interner.evict(index, self.slots.len() as u64);
            (
                index,
                interner.intern(name, index),
                interner.intern(label, index),
            )
        };
        let slot = &self.slots[(index % self.slots.len() as u64) as usize];
        // Per-slot seqlock publish: mark the slot as mid-write, store the
        // fields, then publish with the even sequence. The release fence
        // orders the odd mark before the field stores, so a reader that
        // observes any new field and then re-reads the sequence is
        // guaranteed to see the odd mark (or a later value) and discard.
        slot.seq.store(2 * index + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        slot.kind.store(kind.code(), Ordering::Relaxed);
        slot.id.store(id, Ordering::Relaxed);
        slot.parent.store(parent, Ordering::Relaxed);
        slot.name.store(name_idx, Ordering::Relaxed);
        slot.label.store(label_idx, Ordering::Relaxed);
        slot.start.store(start_micros, Ordering::Relaxed);
        slot.end.store(end_micros, Ordering::Relaxed);
        slot.value.store(value, Ordering::Relaxed);
        slot.seq.store(2 * index + 2, Ordering::Release);
    }

    /// Consistent snapshot of every published record, oldest first.
    ///
    /// Non-destructive: the ring keeps recording. Slots caught mid-write
    /// (or overwritten between the two sequence reads) are skipped.
    pub fn snapshot(&self) -> Vec<Record> {
        let mut raw = Vec::new();
        for slot in self.slots.iter() {
            let seq1 = slot.seq.load(Ordering::Acquire);
            if seq1 == EMPTY || seq1 % 2 == 1 {
                continue;
            }
            let kind = slot.kind.load(Ordering::Relaxed);
            let id = slot.id.load(Ordering::Relaxed);
            let parent = slot.parent.load(Ordering::Relaxed);
            let name = slot.name.load(Ordering::Relaxed);
            let label = slot.label.load(Ordering::Relaxed);
            let start = slot.start.load(Ordering::Relaxed);
            let end = slot.end.load(Ordering::Relaxed);
            let value = slot.value.load(Ordering::Relaxed);
            // The acquire fence keeps the re-read below from being hoisted
            // above the field loads; paired with the writer's release
            // fence it makes a torn read visible as a sequence change.
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != seq1 {
                continue;
            }
            let Some(kind) = RecordKind::from_code(kind) else {
                continue;
            };
            raw.push((
                name,
                label,
                Record {
                    seq: (seq1 - 2) / 2,
                    kind,
                    id,
                    parent,
                    name: String::new(),
                    label: String::new(),
                    start_micros: start,
                    end_micros: end,
                    value,
                },
            ));
        }
        // Resolve after reading the slots: ids are never reused, so every
        // record still live at this point finds its strings.
        let interner = self.interner.lock().expect("recorder interner poisoned");
        let resolve = |id: u64| interner.names.get(&id).cloned().unwrap_or_default();
        let mut out: Vec<Record> = raw
            .into_iter()
            .map(|(name, label, rec)| Record {
                name: resolve(name),
                label: resolve(label),
                ..rec
            })
            .collect();
        drop(interner);
        out.sort_by_key(|r| r.seq);
        out
    }

    /// The snapshot as NDJSON (one record per line, trailing newline;
    /// empty string when the ring is empty or disabled).
    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        for rec in self.snapshot() {
            out.push_str(&rec.to_json().encode());
            out.push('\n');
        }
        out
    }

    /// Dump the snapshot to `path` as NDJSON.
    pub fn dump_to(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.to_ndjson())
    }
}

/// The process-wide recorder. Capacity comes from `PP_FLIGHT_CAPACITY`
/// on first use (default 4096; `0` disables recording).
pub fn recorder() -> &'static FlightRecorder {
    static GLOBAL: OnceLock<FlightRecorder> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let capacity = std::env::var("PP_FLIGHT_CAPACITY")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(4096);
        FlightRecorder::with_capacity(capacity)
    })
}

static DUMP_OVERRIDE: OnceLock<std::path::PathBuf> = OnceLock::new();

/// Programmatic override for [`default_dump_path`] — how a binary's
/// `--flight-dump PATH` flag takes effect without mutating the process
/// environment. First caller wins; later calls are no-ops.
pub fn set_dump_path(path: impl Into<std::path::PathBuf>) {
    let _ = DUMP_OVERRIDE.set(path.into());
}

/// Where panic/SIGTERM dumps land: [`set_dump_path`]'s override if any,
/// else `PP_FLIGHT_DUMP` if set, else `pp-flight-<pid>.ndjson` in the
/// temp dir.
pub fn default_dump_path() -> std::path::PathBuf {
    if let Some(p) = DUMP_OVERRIDE.get() {
        return p.clone();
    }
    match std::env::var_os("PP_FLIGHT_DUMP") {
        Some(p) if !p.is_empty() => std::path::PathBuf::from(p),
        _ => std::env::temp_dir().join(format!("pp-flight-{}.ndjson", std::process::id())),
    }
}

/// Install a panic hook that dumps the global recorder to
/// [`default_dump_path`] before delegating to the previous hook, so a
/// crashing process leaves its last `capacity` records behind. Idempotent
/// per process (second call is a no-op).
pub fn install_panic_hook() {
    static INSTALLED: OnceLock<()> = OnceLock::new();
    INSTALLED.get_or_init(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let path = default_dump_path();
            if recorder().dump_to(&path).is_ok() {
                eprintln!("pp-obs: flight recorder dumped to {}", path.display());
            }
            previous(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_round_trip_in_order() {
        let rec = FlightRecorder::with_capacity(8);
        rec.record(RecordKind::Event, 0, 3, "a", "", 10, 10, 7);
        rec.record(RecordKind::SpanOpen, 5, 0, "b", "cell-x", 11, 11, 0);
        rec.record(RecordKind::SpanClose, 5, 0, "b", "cell-x", 11, 42, 0);
        let snap = rec.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0].name, "a");
        assert_eq!(snap[0].value, 7);
        assert_eq!(snap[0].parent, 3);
        assert_eq!(snap[1].kind, RecordKind::SpanOpen);
        assert_eq!(snap[2].end_micros, 42);
        assert_eq!(snap[2].label, "cell-x");
        assert_eq!(
            snap.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn wraparound_keeps_newest_records_sorted() {
        let rec = FlightRecorder::with_capacity(4);
        for i in 0..11u64 {
            rec.record(RecordKind::Event, 0, 0, "tick", "", i, i, i);
        }
        let snap = rec.snapshot();
        // Exactly the last `capacity` writes survive, in write order.
        assert_eq!(
            snap.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![7, 8, 9, 10]
        );
        assert_eq!(
            snap.iter().map(|r| r.value).collect::<Vec<_>>(),
            vec![7, 8, 9, 10]
        );
        assert_eq!(rec.written(), 11);
    }

    #[test]
    fn zero_capacity_disables_recording() {
        let rec = FlightRecorder::with_capacity(0);
        assert!(!rec.enabled());
        rec.record(RecordKind::Event, 0, 0, "x", "", 0, 0, 0);
        assert!(rec.snapshot().is_empty());
        assert_eq!(rec.to_ndjson(), "");
    }

    #[test]
    fn ndjson_lines_parse_back() {
        let rec = FlightRecorder::with_capacity(4);
        rec.record(
            RecordKind::SpanClose,
            9,
            2,
            "serve.request",
            "POST /cells",
            1,
            5,
            0,
        );
        let text = rec.to_ndjson();
        let v = Value::parse(text.trim()).unwrap();
        assert_eq!(v.get("kind").and_then(Value::as_str), Some("span"));
        assert_eq!(v.get("id").and_then(Value::as_u64), Some(9));
        assert_eq!(v.get("parent").and_then(Value::as_u64), Some(2));
        assert_eq!(v.get("end_micros").and_then(Value::as_u64), Some(5));
        assert_eq!(v.get("label").and_then(Value::as_str), Some("POST /cells"));
    }

    #[test]
    fn interner_reuses_indices() {
        let rec = FlightRecorder::with_capacity(4);
        for _ in 0..3 {
            rec.record(RecordKind::Event, 0, 0, "same", "lbl", 0, 0, 0);
        }
        assert_eq!(rec.interner.lock().unwrap().names.len(), 3); // "", "same", "lbl"
    }

    #[test]
    fn interner_stays_bounded_by_capacity() {
        let capacity = 16usize;
        let rec = FlightRecorder::with_capacity(capacity);
        let writes = 10 * capacity;
        for i in 0..writes {
            let label = format!("cell-{i}");
            rec.record(RecordKind::SpanClose, 1, 0, "serve.cell", &label, 0, 1, 0);
            // At most 4 · capacity strings survive a sweep check, plus the
            // write's own name and label, plus the empty string.
            let interner = rec.interner.lock().unwrap();
            assert!(
                interner.names.len() <= 4 * capacity + 3,
                "{}",
                interner.names.len()
            );
            assert_eq!(interner.names.len(), interner.by_name.len() + 1);
        }
        // Every live record still resolves its own name and label.
        let snap = rec.snapshot();
        assert_eq!(snap.len(), capacity);
        for r in &snap {
            assert_eq!(r.name, "serve.cell");
            assert_eq!(r.label, format!("cell-{}", r.seq));
        }
    }
}
