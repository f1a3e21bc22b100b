//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, start, end, parent and cell id. Spans are kept in
//! a vector and written out once, when the run ends. A disabled tracer
//! records nothing: the untraced run pays one branch per call.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Index of the cell the call worked on.
    pub cell: usize,
    /// Nanoseconds since the tracer was created.
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; spans opened by `f` through
    /// the tracer it receives become children of this one.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        cell: usize,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            cell,
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        self.spans[idx].end = self.now();
        r
    }

    /// Index of the next span to be recorded: spans from here on belong
    /// to whatever phase starts now.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Spans recorded since `mark`.
    pub fn since(&self, mark: usize) -> &[Span] {
        &self.spans[mark..]
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"cell\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.cell, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// A view over a slice of spans (indices are absolute, so the slice
/// must start at the `mark` it was taken from).
pub struct SpanSet<'a> {
    pub spans: &'a [Span],
    pub base: usize,
}

impl SpanSet<'_> {
    /// Name of the span's parent; "" for a root span.
    fn parent_name(&self, s: &Span) -> &'static str {
        s.parent
            .and_then(|p| p.checked_sub(self.base))
            .and_then(|p| self.spans.get(p))
            .map_or("", |p| p.name)
    }

    /// Total ns of spans named `name` directly under a span named
    /// `parent` ("" for root spans), over the cells `keep` accepts.
    pub fn total(&self, name: &str, parent: &str, keep: impl Fn(usize) -> bool) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && keep(s.cell) && self.parent_name(s) == parent)
            .map(Span::ns)
            .sum()
    }

    /// Self time per span name: each span's duration minus the part its
    /// direct children cover. Sorted by name.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in self.spans {
            if let Some(p) = s.parent.and_then(|p| p.checked_sub(self.base)) {
                if p < child_ns.len() {
                    child_ns[p] += s.ns();
                }
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0) += s.ns().saturating_sub(c);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_totals_follow_parents() {
        let mut t = Tracer::new(true);
        t.span("cell", 0, |t| {
            t.span("run_source", 0, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        t.span("reference", 1, |t| t.span("run_source", 1, |_| ()));
        let set = SpanSet {
            spans: t.since(0),
            base: 0,
        };
        let st = set.self_times();
        assert!(st["run_source"] >= 2_000_000);
        assert!(st["cell"] < set.spans[0].ns());
        assert_eq!(set.total("run_source", "cell", |_| true), set.spans[1].ns());
        assert_eq!(set.total("run_source", "cell", |c| c != 0), 0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("cell", 0, |_| 7), 7);
        assert!(t.since(0).is_empty());
    }
}
