//! In-memory span recorder for the traced runs.
//!
//! Spans are recorded only by the benchmark's own code, around calls
//! into the repository's public functions; nothing inside the program
//! under test is instrumented. Each span carries a name, start and end
//! (nanoseconds since the tracer's epoch), its parent (the span open
//! when it started — traced work is single-threaded), and a group id
//! shared by every span of one batch or request. Spans stay in memory
//! until [`Tracer::write_jsonl`] dumps them at the end of the run.

use crate::stats::{self_times, Interval};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One finished (or still open, `end == u64::MAX`) span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `sched.solve`.
    pub name: &'static str,
    /// Batch or request id shared by all spans of one unit of work.
    pub group: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, ns since the tracer epoch.
    pub start: u64,
    /// End, ns since the tracer epoch.
    pub end: u64,
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
    group: u64,
}

/// The recorder. `Sync` so it can sit inside solver wrappers that the
/// solver facade requires to be `Send + Sync`; the mutex is never
/// contended because traced work runs on one thread.
pub struct Tracer {
    epoch: Instant,
    inner: Mutex<Inner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("tracer lock is never held across a panic")
    }

    /// Set the group id stamped on spans opened from now on.
    pub fn set_group(&self, group: u64) {
        self.lock().group = group;
    }

    /// The current group id.
    pub fn group(&self) -> u64 {
        self.lock().group
    }

    /// Open the next group and return its id.
    pub fn next_group(&self) -> u64 {
        let mut inner = self.lock();
        inner.group += 1;
        inner.group
    }

    /// Time `f` as a span named `name`, nested under the open span.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = {
            let start = self.now();
            let mut inner = self.lock();
            let id = inner.spans.len();
            let parent = inner.open.last().copied();
            let group = inner.group;
            inner.spans.push(Span {
                name,
                group,
                parent,
                start,
                end: u64::MAX,
            });
            inner.open.push(id);
            id
        };
        let out = f();
        let end = self.now();
        let mut inner = self.lock();
        inner.spans[id].end = end;
        let popped = inner.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close in LIFO order");
        out
    }

    /// A copy of every recorded span.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    /// Write the spans as JSON lines (`name`, `group`, `parent`,
    /// `start_ns`, `end_ns`, `self_ns`).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let selfs = self_times(&intervals(&spans));
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, own)) in spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"group\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
                s.name, s.group, s.start, s.end
            )?;
        }
        out.flush()
    }
}

fn intervals(spans: &[Span]) -> Vec<Interval> {
    spans
        .iter()
        .map(|s| Interval {
            parent: s.parent,
            start: s.start,
            end: s.end,
        })
        .collect()
}

/// Per-name aggregates of a span set.
#[derive(Clone, Debug, Default)]
pub struct NameStats {
    /// Number of spans.
    pub count: u64,
    /// Summed duration, seconds.
    pub total_s: f64,
    /// Summed self time, seconds.
    pub self_s: f64,
    /// Every duration, seconds (for percentiles).
    pub durations: Vec<f64>,
}

/// Aggregate spans by name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, NameStats> {
    let selfs = self_times(&intervals(spans));
    let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        let d = (s.end - s.start) as f64 * 1e-9;
        e.count += 1;
        e.total_s += d;
        e.self_s += own as f64 * 1e-9;
        e.durations.push(d);
    }
    out
}
