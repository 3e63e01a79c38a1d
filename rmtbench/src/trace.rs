//! Span recorder for traced runs and the folds over its spans.
//!
//! Spans are recorded by the benchmark's own code around each call it
//! makes into a layer of the program. They stay in memory until the run
//! ends, when [`Tracer::write_jsonl`] writes them out.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `thermal.solve`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request id shared by the spans of one daemon submission or
    /// sweep job.
    pub req: Option<u64>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Thread-safe in-memory span store.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        req: Option<u64>,
    ) -> usize {
        let mut spans = self.spans.lock().expect("no span writer panicked");
        spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            req,
        });
        spans.len() - 1
    }

    /// Opens a span that [`Tracer::end`] closes; returns its index.
    pub fn begin(&self, name: &'static str, parent: Option<usize>, req: Option<u64>) -> usize {
        let now = self.now_ns();
        self.record(name, now, now, parent, req)
    }

    /// Closes span `id` now.
    pub fn end(&self, id: usize) {
        let now = self.now_ns();
        self.spans.lock().expect("no span writer panicked")[id].end_ns = now;
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("no span writer panicked").clone()
    }

    /// Writes every span, one JSON object per line, with its self time.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let mut out = String::new();
        for (i, s) in spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}",
                s.name,
                s.start_ns,
                s.end_ns,
                self_time_ns(&spans, i)
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            if let Some(r) = s.req {
                let _ = write!(out, ",\"req\":{r}");
            }
            out.push_str("}\n");
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Total length of the union of `[start, end)` intervals.
pub fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.retain(|(s, e)| e > s);
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of span `id`: its duration minus the part of it that its
/// direct children cover. Children may overlap one another (parallel
/// workers) or outlive the parent; each instant counts once and only
/// inside the parent's interval.
pub fn self_time_ns(spans: &[Span], id: usize) -> u64 {
    let p = &spans[id];
    let covered = union_ns(
        spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| (c.start_ns.max(p.start_ns), c.end_ns.min(p.end_ns)))
            .collect(),
    );
    p.dur_ns() - covered.min(p.dur_ns())
}

/// Share of `[start_ns, end_ns)` covered by top-level spans.
pub fn top_level_coverage(spans: &[Span], start_ns: u64, end_ns: u64) -> f64 {
    let covered = union_ns(
        spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.start_ns.max(start_ns), s.end_ns.min(end_ns)))
            .collect(),
    );
    covered as f64 / end_ns.saturating_sub(start_ns).max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: None,
        }
    }

    #[test]
    fn union_merges_overlaps_and_gaps() {
        assert_eq!(union_ns(vec![]), 0);
        assert_eq!(union_ns(vec![(0, 10), (5, 20), (30, 40)]), 30);
        assert_eq!(union_ns(vec![(30, 40), (0, 10), (10, 15)]), 25);
        assert_eq!(union_ns(vec![(0, 100), (10, 20)]), 100);
        assert_eq!(union_ns(vec![(5, 5), (7, 3)]), 0);
    }

    #[test]
    fn self_time_with_overlapping_children() {
        let spans = vec![
            span("parent", 0, 100, None),
            span("a", 10, 40, Some(0)),
            // Overlaps `a` (a second worker): 30..40 counts once.
            span("b", 30, 60, Some(0)),
            // Outlives the parent: only 90..100 is inside it.
            span("c", 90, 120, Some(0)),
            // A grandchild does not reduce the parent's self time twice.
            span("a.inner", 12, 38, Some(1)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 50 - 10);
        assert_eq!(self_time_ns(&spans, 1), 30 - 26);
        assert_eq!(self_time_ns(&spans, 2), 30);
        assert_eq!(self_time_ns(&spans, 4), 26);
    }

    #[test]
    fn self_time_never_negative() {
        let spans = vec![
            span("p", 10, 20, None),
            span("x", 0, 30, Some(0)),
            span("y", 5, 25, Some(0)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 0);
    }

    #[test]
    fn coverage_counts_top_level_only() {
        let spans = vec![
            span("a", 0, 50, None),
            span("a.child", 10, 90, Some(0)),
            span("b", 60, 80, None),
        ];
        assert!((top_level_coverage(&spans, 0, 100) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_and_writes() {
        let t = Tracer::new();
        let outer = t.begin("outer", None, None);
        let inner = t.begin("inner", Some(outer), Some(7));
        t.end(inner);
        t.end(outer);
        let spans = t.spans();
        assert_eq!(spans[inner].parent, Some(outer));
        assert_eq!(spans[inner].req, Some(7));
        assert!(spans[outer].end_ns >= spans[inner].end_ns);
    }
}
