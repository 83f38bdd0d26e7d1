//! The benchmark's own spans, recorded around its calls into each
//! layer (never inside the program). Kept in memory and written out as
//! NDJSON when the run ends.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique within the log, starting at 1.
    pub id: u64,
    /// The span that caused this one (0 = root).
    pub parent: u64,
    /// Layer boundary name, e.g. `sweep.cold_pass`.
    pub name: String,
    /// Microseconds since the log was created.
    pub start_us: u64,
    /// Microseconds since the log was created.
    pub end_us: u64,
    /// Request id shared by every span of one serve request (0 = none).
    pub request: u64,
}

/// Thread-safe in-memory span log.
#[derive(Debug)]
pub struct SpanLog {
    enabled: bool,
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    /// A log that records only when `enabled` (traced runs); a disabled
    /// log still times [`SpanLog::time`] calls but keeps nothing.
    pub fn new(enabled: bool) -> Self {
        SpanLog {
            enabled,
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Allocate a span id before the span closes (so children can name
    /// their parent).
    pub fn id(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a closed span with a preallocated id.
    pub fn record(
        &self,
        id: u64,
        parent: u64,
        name: &str,
        start: Instant,
        end: Instant,
        request: u64,
    ) {
        if !self.enabled {
            return;
        }
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_micros() as u64;
        self.spans.lock().expect("span log poisoned").push(Span {
            id,
            parent,
            name: name.to_string(),
            start_us: us(start),
            end_us: us(end),
            request,
        });
    }

    /// Time `f` as a span; returns its result and the elapsed seconds.
    pub fn time<R>(&self, name: &str, parent: u64, f: impl FnOnce(u64) -> R) -> (R, f64) {
        let id = self.id();
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        self.record(id, parent, name, start, end, 0);
        (out, end.duration_since(start).as_secs_f64())
    }

    /// All spans as NDJSON, in start order.
    pub fn to_ndjson(&self) -> String {
        let mut spans = self.spans.lock().expect("span log poisoned").clone();
        spans.sort_by_key(|s| (s.start_us, s.id));
        let mut out = String::new();
        for s in spans {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"request\":{}}}",
                s.id, s.parent, s.name, s.start_us, s.end_us, s.request
            );
        }
        out
    }
}
