//! The traced run: spans around every call the benchmark makes into a
//! layer, self times, and the ladder arithmetic.
//!
//! Each thread records into its own [`SpanBuf`]. A span holds its name,
//! start and end (ns since the run's epoch), its parent (an index into the
//! same buffer) and a request id. The first [`KEEP`] spans of a buffer are
//! kept for self-time analysis and written out at exit; per-name counts
//! and totals cover every span, kept or not.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Spans kept per buffer.
pub const KEEP: usize = 1 << 18;

const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer call, e.g. `engine.get.spp`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
    /// Index of the parent span in the same buffer, or `u32::MAX`.
    pub parent: u32,
    /// The request this span serves.
    pub req: u64,
}

/// An open span; close it with [`SpanBuf::end`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId {
    name: &'static str,
    start: u64,
    /// Index in the buffer, or `u32::MAX` when not kept (or tracing off).
    idx: u32,
}

/// Per-name totals over every span of a buffer.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Agg {
    /// Spans closed.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
}

/// One thread's spans.
#[derive(Debug)]
pub struct SpanBuf {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    aggs: Vec<(&'static str, Agg)>,
}

impl SpanBuf {
    /// A buffer timing from `epoch`; with `on == false` every call is a
    /// no-op, so untraced code paths pay one branch.
    pub fn new(on: bool, epoch: Instant) -> SpanBuf {
        SpanBuf {
            on,
            epoch,
            spans: Vec::new(),
            aggs: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Now, in ns since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span.
    pub fn begin(&mut self, name: &'static str, req: u64, parent: Option<SpanId>) -> SpanId {
        if !self.on {
            return SpanId {
                name,
                start: 0,
                idx: NO_PARENT,
            };
        }
        let start = self.now();
        self.open_at(name, req, parent, start)
    }

    /// Open a span that started at `start` (e.g. a request's scheduled
    /// send time).
    pub fn open_at(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<SpanId>,
        start: u64,
    ) -> SpanId {
        let mut idx = NO_PARENT;
        if self.on && self.spans.len() < KEEP {
            idx = self.spans.len() as u32;
            self.spans.push(Span {
                name,
                start,
                end: start,
                parent: parent.map_or(NO_PARENT, |p| p.idx),
                req,
            });
        }
        SpanId { name, start, idx }
    }

    /// Close a span; returns its duration in ns (0 with tracing off).
    pub fn end(&mut self, id: SpanId) -> u64 {
        if !self.on {
            return 0;
        }
        let end = self.now();
        if id.idx != NO_PARENT {
            self.spans[id.idx as usize].end = end;
        }
        let dur = end.saturating_sub(id.start);
        match self.aggs.iter_mut().find(|(n, _)| *n == id.name) {
            Some((_, a)) => {
                a.count += 1;
                a.total_ns += dur;
            }
            None => self.aggs.push((
                id.name,
                Agg {
                    count: 1,
                    total_ns: dur,
                },
            )),
        }
        dur
    }

    /// Per-name totals.
    pub fn aggs(&self) -> &[(&'static str, Agg)] {
        &self.aggs
    }

    /// The kept spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Every thread's buffers of one traced run.
#[derive(Debug, Default)]
pub struct Trace {
    bufs: Vec<SpanBuf>,
}

impl Trace {
    /// Add one thread's buffer.
    pub fn add(&mut self, buf: SpanBuf) {
        if buf.on {
            self.bufs.push(buf);
        }
    }

    /// Take every buffer of `other`.
    pub fn merge(&mut self, other: Trace) {
        self.bufs.extend(other.bufs);
    }

    /// Per-name totals over all buffers.
    pub fn agg(&self, name: &str) -> Agg {
        let mut out = Agg::default();
        for b in &self.bufs {
            for (n, a) in b.aggs() {
                if *n == name {
                    out.count += a.count;
                    out.total_ns += a.total_ns;
                }
            }
        }
        out
    }

    /// Mean duration of spans named `name`, in µs (`None` if none).
    pub fn mean_us(&self, name: &str) -> Option<f64> {
        let a = self.agg(name);
        (a.count > 0).then(|| a.total_ns as f64 / a.count as f64 / 1e3)
    }

    /// Per-name `(kept spans, total ns, self ns)` over the kept spans.
    pub fn self_table(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut out = BTreeMap::new();
        for b in &self.bufs {
            let selfs = self_times(b.spans());
            for (s, own) in b.spans().iter().zip(selfs) {
                let e = out.entry(s.name).or_insert((0, 0, 0));
                e.0 += 1;
                e.1 += s.end - s.start;
                e.2 += own;
            }
        }
        out
    }

    /// Write every kept span as TSV (`thread name req start end parent`).
    ///
    /// # Errors
    ///
    /// File errors.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "thread\tname\treq\tstart_ns\tend_ns\tparent")?;
        for (t, b) in self.bufs.iter().enumerate() {
            for s in b.spans() {
                let parent = if s.parent == NO_PARENT {
                    -1
                } else {
                    i64::from(s.parent)
                };
                writeln!(
                    w,
                    "{t}\t{}\t{}\t{}\t{}\t{parent}",
                    s.name, s.req, s.start, s.end
                )?;
            }
        }
        w.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers. Children may nest,
/// overlap each other (concurrent calls) or stick out of the parent; only
/// the covered part inside the parent counts.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            if let Some(k) = kids.get_mut(s.parent as usize) {
                k.push((s.start, s.end));
            }
        }
    }
    spans
        .iter()
        .zip(kids.iter_mut())
        .map(|(s, k)| (s.end - s.start) - covered(s.start, s.end, k))
        .collect()
}

/// Length of `[lo, hi)` covered by the union of `ivs`.
fn covered(lo: u64, hi: u64, ivs: &mut [(u64, u64)]) -> u64 {
    ivs.sort_unstable();
    let mut total = 0;
    let mut cur = lo;
    for &(a, b) in ivs.iter() {
        let a = a.max(cur);
        let b = b.min(hi);
        if b > a {
            total += b - a;
            cur = b;
        }
    }
    total
}

/// A ladder: per-op time of the same op stream replayed through rungs of
/// increasing depth. Each rung's cost over the rung below is that layer's.
#[derive(Debug, Default, Clone)]
pub struct Ladder {
    /// `(layer name, per-op µs at the rung that adds it)`, bottom first.
    pub rungs: Vec<(&'static str, f64)>,
}

impl Ladder {
    /// Add the next rung up.
    pub fn push(&mut self, layer: &'static str, per_op_us: f64) {
        self.rungs.push((layer, per_op_us));
    }

    /// Each layer's cost: its rung minus the rung below (the bottom rung
    /// counts whole).
    pub fn deltas(&self) -> Vec<(&'static str, f64)> {
        let mut below = 0.0;
        self.rungs
            .iter()
            .map(|&(name, t)| {
                let d = t - below;
                below = t;
                (name, d)
            })
            .collect()
    }

    /// How far the summed layer costs miss `top_us`, the traced top rung,
    /// as a share of it.
    pub fn unexplained_frac(&self, top_us: f64) -> f64 {
        let sum: f64 = self.deltas().iter().map(|d| d.1).sum();
        (top_us - sum).abs() / top_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            req: 0,
        }
    }

    #[test]
    fn nested_spans_subtract_direct_children_only() {
        // root [0,100) > mid [10,60) > leaf [20,30)
        let spans = [
            span("root", 0, 100, NO_PARENT),
            span("mid", 10, 60, 0),
            span("leaf", 20, 30, 1),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn overlapping_children_count_their_union_once() {
        // Two concurrent children [10,50) and [30,70), plus a disjoint
        // [80,90): union covers 60 + 10 of the parent's 100.
        let spans = [
            span("root", 0, 100, NO_PARENT),
            span("a", 10, 50, 0),
            span("b", 30, 70, 0),
            span("c", 80, 90, 0),
        ];
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn children_sticking_out_are_clipped() {
        let spans = [
            span("root", 10, 50, NO_PARENT),
            span("early", 0, 20, 0),
            span("late", 40, 90, 0),
            span("inside", 20, 25, 0),
        ];
        // Covered inside [10,50): [10,20) + [20,25) + [40,50) = 25.
        assert_eq!(self_times(&spans)[0], 15);
    }

    #[test]
    fn buffer_links_parents_and_aggregates() {
        let mut b = SpanBuf::new(true, Instant::now());
        let root = b.begin("root", 7, None);
        let kid = b.begin("kid", 7, Some(root));
        b.end(kid);
        b.end(root);
        assert_eq!(b.spans().len(), 2);
        assert_eq!(b.spans()[1].parent, 0);
        assert_eq!(b.spans()[1].req, 7);
        let mut t = Trace::default();
        t.add(b);
        assert_eq!(t.agg("kid").count, 1);
        let table = t.self_table();
        let (n, total, own) = table["root"];
        assert_eq!(n, 1);
        assert!(own <= total);
    }

    #[test]
    fn off_buffer_records_nothing() {
        let mut b = SpanBuf::new(false, Instant::now());
        let s = b.begin("x", 0, None);
        assert_eq!(b.end(s), 0);
        assert!(b.spans().is_empty() && b.aggs().is_empty());
    }

    #[test]
    fn ladder_layers_sum_to_the_top_rung() {
        let mut l = Ladder::default();
        l.push("engine", 2.0);
        l.push("group", 5.0);
        l.push("wire", 5.5);
        l.push("frontend", 30.0);
        let d = l.deltas();
        assert_eq!(
            d,
            vec![
                ("engine", 2.0),
                ("group", 3.0),
                ("wire", 0.5),
                ("frontend", 24.5)
            ]
        );
        // The rungs explain a 30 µs traced top exactly, and a 40 µs one
        // only to three quarters.
        assert_eq!(l.unexplained_frac(30.0), 0.0);
        assert_eq!(l.unexplained_frac(40.0), 0.25);
    }
}
