//! Benchmark-side spans around each public call the benchmark makes into the
//! program: job, submit, wait, kernel-profile diff and wire encode/decode.
//!
//! Spans carry a name, start, end, parent and the id of the job they belong
//! to.  They are kept in memory and written out when the run ends.  A
//! disabled tracer records nothing, so untraced runs pay one branch per call.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.  Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique span id.
    pub id: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u64>,
    /// The job this span belongs to (shared by every span of one job).
    pub job: u64,
    /// What the span covers.
    pub name: &'static str,
    /// Start, ns since origin.
    pub start: u64,
    /// End, ns since origin.
    pub end: u64,
}

/// In-memory span recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder; `enabled == false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Reserve a span id, so children can name their parent before the
    /// parent span has ended.
    pub fn reserve(&self) -> u64 {
        if !self.enabled {
            return 0;
        }
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a span under a reserved `id`.
    pub fn record(
        &self,
        id: u64,
        name: &'static str,
        job: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let span = Span {
            id,
            parent,
            job,
            name,
            start: self.ns(start),
            end: self.ns(end),
        };
        self.spans
            .lock()
            .expect("no thread panics while holding the span list")
            .push(span);
    }

    /// Run `f` inside a fresh span and return its result.
    pub fn span<R>(
        &self,
        name: &'static str,
        job: u64,
        parent: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.enabled {
            return f();
        }
        let id = self.reserve();
        let start = Instant::now();
        let out = f();
        self.record(id, name, job, parent, start, Instant::now());
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("no thread panics while holding the span list")
            .clone()
    }
}

/// Self time of every span: its duration minus the part of its interval that
/// its children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children
                .entry(parent)
                .or_default()
                .push((span.start, span.end));
        }
    }
    spans
        .iter()
        .map(|span| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&span.id) {
                kids.sort_unstable();
                let mut cursor = span.start;
                for &(start, end) in kids.iter() {
                    let (start, end) = (start.max(cursor), end.min(span.end));
                    if end > start {
                        covered += end - start;
                        cursor = end;
                    }
                }
            }
            (span.id, (span.end - span.start).saturating_sub(covered))
        })
        .collect()
}

/// Per-name totals: `(count, total ns, self ns)`.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, (usize, u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (usize, u64, u64)> = BTreeMap::new();
    for span in spans {
        let entry = out.entry(span.name).or_default();
        entry.0 += 1;
        entry.1 += span.end - span.start;
        entry.2 += selfs[&span.id];
    }
    out
}

/// Write spans as JSON lines.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"job\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, parent, s.job, s.name, s.start, s.end
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            job: 1,
            name: "s",
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 20, 50),  // overlaps span 2
            span(4, Some(1), 90, 120), // runs past the parent's end
            span(5, Some(2), 12, 14),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 40 - 10);
        assert_eq!(selfs[&2], 18);
        assert_eq!(selfs[&3], 30);
        assert_eq!(selfs[&5], 2);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.span("x", 1, None, || 7), 7);
        assert!(tracer.spans().is_empty());
        let tracer = Tracer::new(true);
        let id = tracer.reserve();
        tracer.span("child", 1, Some(id), || ());
        let now = Instant::now();
        tracer.record(id, "parent", 1, None, now, now);
        assert_eq!(tracer.spans().len(), 2);
    }
}
