//! In-memory span recorder for the traced run.
//!
//! Every span is `{id, parent, name, tag, start_ns, end_ns}`; spans are
//! recorded from the benchmark's own files around calls into the engine's
//! public API (timers inside the engine are a later change). They are kept
//! in memory and written out as JSON lines when the run ends.
//!
//! A span's **self time** is its duration minus the part of its interval
//! covered by its children. Children of one parent may run on several
//! threads (the clients under `serve`), so coverage is the union of the
//! child intervals, not their sum.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

/// Identifier of a recorded span; 0 is "no span" (the root's parent, and
/// what a disabled tracer hands out).
pub type SpanId = u32;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within the run, starting at 1.
    pub id: SpanId,
    /// The span that caused this one (0 for a root).
    pub parent: SpanId,
    /// Layer boundary, e.g. `execute`, `observe_timed`, `checkpoint`.
    pub name: &'static str,
    /// Statement shape / hot-cold tag for `execute` spans, else empty.
    pub tag: &'static str,
    /// Start, nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the run's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The run's clock and id source, shared by every thread's [`Tracer`].
#[derive(Debug)]
pub struct Clock {
    epoch: Instant,
    next_id: AtomicU32,
}

impl Clock {
    /// A clock whose epoch is now.
    pub fn new() -> Self {
        Clock {
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// A per-thread span buffer. Disabled tracers record nothing, so the
/// measured run pays one branch per boundary.
#[derive(Debug)]
pub struct Tracer<'c> {
    clock: &'c Clock,
    enabled: bool,
    spans: Vec<Span>,
}

impl<'c> Tracer<'c> {
    /// A tracer on `clock`; `enabled = false` makes every call a no-op.
    pub fn new(clock: &'c Clock, enabled: bool) -> Self {
        Tracer {
            clock,
            enabled,
            spans: Vec::new(),
        }
    }

    /// The clock this tracer stamps with.
    pub fn clock(&self) -> &'c Clock {
        self.clock
    }

    /// A second buffer on the same clock, for another thread.
    pub fn fork(&self) -> Tracer<'c> {
        Tracer::new(self.clock, self.enabled)
    }

    /// Record a finished span with explicit timestamps (the serve loop
    /// already holds both for its latency sample).
    pub fn record(
        &mut self,
        parent: SpanId,
        name: &'static str,
        tag: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let id = self.clock.next_id.fetch_add(1, Ordering::Relaxed);
        self.spans.push(Span {
            id,
            parent,
            name,
            tag,
            start_ns,
            end_ns,
        });
        id
    }

    /// Open a span now; close it with [`Tracer::end`]. Returns 0 when
    /// disabled.
    pub fn begin(&mut self, parent: SpanId, name: &'static str) -> SpanId {
        let now = self.clock.now_ns();
        self.record(parent, name, "", now, now)
    }

    /// Close a span opened by [`Tracer::begin`] on this tracer.
    pub fn end(&mut self, id: SpanId) {
        if id == 0 {
            return;
        }
        let now = self.clock.now_ns();
        if let Some(s) = self.spans.iter_mut().rev().find(|s| s.id == id) {
            s.end_ns = now;
        }
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, parent: SpanId, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = self.clock.now_ns();
        let out = f();
        let end = self.clock.now_ns();
        self.record(parent, name, "", start, end);
        out
    }

    /// Move another thread's spans into this buffer.
    pub fn absorb(&mut self, other: Tracer<'_>) {
        self.spans.extend(other.spans);
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `intervals`.
fn covered_ns(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = start;
    for &(s, e) in intervals.iter() {
        let s = s.max(cursor);
        let e = e.min(end);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Self time of span `id`: its duration minus the union of its children's
/// intervals. `None` if no such span was recorded.
pub fn self_time_ns(spans: &[Span], id: SpanId) -> Option<u64> {
    let span = spans.iter().find(|s| s.id == id)?;
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == id)
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    let covered = covered_ns(span.start_ns, span.end_ns, &mut children);
    Some(span.dur_ns() - covered)
}

/// Share of the spans' combined duration that their children account for
/// (1 − self/duration, over all of `ids`): how much of a timed window the
/// trace explains.
pub fn coverage_share(spans: &[Span], ids: &[SpanId]) -> f64 {
    let mut dur = 0u64;
    let mut own = 0u64;
    for &id in ids {
        if let (Some(s), Some(self_ns)) =
            (spans.iter().find(|s| s.id == id), self_time_ns(spans, id))
        {
            dur += s.dur_ns();
            own += self_ns;
        }
    }
    if dur == 0 {
        0.0
    } else {
        1.0 - own as f64 / dur as f64
    }
}

/// Write spans as JSON lines (one object per span).
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"tag\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.name, s.tag, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: SpanId, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            tag: "",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, 0, 100),
            // two overlapping children on different threads: union [10, 60)
            span(2, 1, 10, 50),
            span(3, 1, 30, 60),
            // a grandchild never counts against the grandparent
            span(4, 2, 10, 20),
            // a child poking past the parent's end is clipped: [90, 100)
            span(5, 1, 90, 120),
        ];
        assert_eq!(self_time_ns(&spans, 1), Some(100 - 50 - 10));
        assert_eq!(self_time_ns(&spans, 2), Some(40 - 10));
        assert_eq!(self_time_ns(&spans, 4), Some(10));
        assert_eq!(self_time_ns(&spans, 9), None);
        assert!((coverage_share(&spans, &[1]) - 0.6).abs() < 1e-12);
        assert_eq!(coverage_share(&spans, &[]), 0.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let clock = Clock::new();
        let mut t = Tracer::new(&clock, false);
        let id = t.begin(0, "x");
        t.end(id);
        assert_eq!(t.span(0, "y", || 7), 7);
        assert!(t.spans().is_empty());

        let mut on = Tracer::new(&clock, true);
        let root = on.begin(0, "root");
        let mut worker = on.fork();
        worker.record(root, "execute", "insert", 1, 2);
        on.end(root);
        on.absorb(worker);
        assert_eq!(on.spans().len(), 2);
        assert_eq!(on.spans()[1].parent, root);
        assert!(on.spans()[0].end_ns >= on.spans()[0].start_ns);
    }
}
