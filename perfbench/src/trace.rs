//! In-memory spans for the traced run.
//!
//! A span is one timed call: which request it belongs to, which layer
//! call it wraps, when it started and ended, and the span that caused
//! it. Spans stay in memory while the run measures and are written out
//! as JSON lines when it ends. A layer's self time is its span's duration
//! minus the part of that interval its child spans cover; children that
//! ran in parallel (a fan-out's probes) are merged before subtracting, so
//! overlapping children are not subtracted twice.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Request the call belongs to (a client call and its replay share it).
    pub req: u64,
    /// The layer call, e.g. `query.reused`.
    pub name: &'static str,
    /// Nanoseconds since the trace epoch.
    pub start: u64,
    /// Nanoseconds since the trace epoch; never before `start`.
    pub end: u64,
    /// Index of the causing span in the same trace.
    pub parent: Option<usize>,
}

/// A list of spans sharing one epoch.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
    /// When set, the trace keeps only the latest this-many spans, each
    /// new one overwriting the oldest (root spans only: an overwritten
    /// span could otherwise still be some child's parent).
    ring: Option<usize>,
    recorded: usize,
}

impl Trace {
    /// An empty trace whose clock starts now.
    pub fn new() -> Self {
        Trace::with_epoch(Instant::now())
    }

    /// An empty trace on a shared clock, so spans recorded on other
    /// threads can be merged in with [`Trace::absorb`].
    pub fn with_epoch(epoch: Instant) -> Self {
        Trace {
            epoch,
            spans: Vec::new(),
            ring: None,
            recorded: 0,
        }
    }

    /// A trace on a shared clock that keeps only its latest `cap` root
    /// spans, so a fast loop's memory stays bounded while every call is
    /// still recorded at full cost.
    pub fn ring(epoch: Instant, cap: usize) -> Self {
        Trace {
            ring: Some(cap.max(1)),
            ..Trace::with_epoch(epoch)
        }
    }

    /// The clock every span is measured against.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Records a finished call and returns its index (for children).
    pub fn record(
        &mut self,
        req: u64,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let span = Span {
            req,
            name,
            start: ns(start),
            end: ns(end).max(ns(start)),
            parent,
        };
        self.recorded += 1;
        match self.ring {
            Some(cap) if self.spans.len() >= cap => {
                debug_assert!(parent.is_none(), "a ring trace holds root spans only");
                let slot = (self.recorded - 1) % cap;
                self.spans[slot] = span;
                slot
            }
            _ => {
                self.spans.push(span);
                self.spans.len() - 1
            }
        }
    }

    /// Runs `f` as one span and returns its result with the span index.
    pub fn time<T>(
        &mut self,
        req: u64,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let t0 = Instant::now();
        let out = f();
        let id = self.record(req, name, parent, t0, Instant::now());
        (out, id)
    }

    /// Opens a span whose end is set by [`Trace::close`]; children can
    /// name it as their parent in between.
    pub fn open(&mut self, req: u64, name: &'static str, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(req, name, parent, now, now)
    }

    /// Ends a span opened with [`Trace::open`].
    pub fn close(&mut self, id: usize) {
        let end = Instant::now()
            .saturating_duration_since(self.epoch)
            .as_nanos() as u64;
        let span = &mut self.spans[id];
        span.end = end.max(span.start);
    }

    /// Appends spans recorded on another thread against the same epoch.
    /// Their parent indexes are shifted to stay inside their own group.
    pub fn absorb(&mut self, other: Trace) {
        debug_assert_eq!(self.epoch, other.epoch, "traces must share an epoch");
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Every span recorded so far.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in microseconds, grouped by span name.
    pub fn self_us_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (span, ns) in self.spans.iter().zip(self_times(&self.spans)) {
            out.entry(span.name).or_default().push(ns as f64 / 1e3);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.req, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Self time of each span in nanoseconds: its duration minus the union
/// of its children's intervals, each clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            let mut clipped: Vec<(u64, u64)> = kids
                .iter()
                .map(|&(a, b)| (a.max(s.start), b.min(s.end)))
                .filter(|(a, b)| a < b)
                .collect();
            clipped.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in clipped {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.end - s.start) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            req: 1,
            name,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span("fanout", 0, 100, None),
            // Two parallel probes overlapping on 20..40 cover 10..60
            // together: 50, not 30 + 40.
            span("probe", 10, 40, Some(0)),
            span("probe", 20, 60, Some(0)),
            // A child poking out of its parent counts only inside it
            // (90..100), leaving the parent 100 - 50 - 10.
            span("merge", 90, 120, Some(0)),
            // A grandchild is its child's business, not the root's.
            span("inner", 25, 35, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![40, 30, 30, 30, 10]);
    }

    #[test]
    fn self_time_of_nested_and_disjoint_children() {
        let spans = vec![
            span("root", 0, 50, None),
            span("a", 0, 10, Some(0)),
            span("b", 20, 30, Some(0)),
            span("c", 22, 28, Some(0)),
            span("leaf", 5, 5, None),
        ];
        assert_eq!(self_times(&spans), vec![30, 10, 10, 6, 0]);
    }

    #[test]
    fn ring_keeps_the_latest_spans() {
        let mut t = Trace::ring(Instant::now(), 3);
        for req in 0..7 {
            t.time(req, "client.query", None, || ());
        }
        let mut kept: Vec<u64> = t.spans().iter().map(|s| s.req).collect();
        kept.sort_unstable();
        assert_eq!(kept, vec![4, 5, 6]);
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let mut main = Trace::new();
        let root = main.open(7, "root", None);
        let mut side = Trace::with_epoch(main.epoch());
        let (_, p) = side.time(7, "probe", None, || ());
        side.time(7, "inner", Some(p), || ());
        main.absorb(side);
        main.close(root);
        let spans = main.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans.iter().all(|s| s.end >= s.start));
        let by_name = main.self_us_by_name();
        assert_eq!(by_name["probe"].len(), 1);
    }
}
