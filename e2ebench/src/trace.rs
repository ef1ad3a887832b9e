//! Spans recorded by the benchmark around its calls into the program.
//!
//! Spans are kept in memory and written when the run ends. A disabled
//! tracer records nothing, so the untraced run pays one branch per span.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call the span wraps (`query`, `parse`, `simplify`, ...).
    pub name: &'static str,
    /// The query the span belongs to.
    pub query: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// An in-memory span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Option<Vec<Span>>,
}

/// Self time summed per span name.
#[derive(Debug, Default, Clone, Copy)]
pub struct SelfTime {
    /// Spans of this name.
    pub count: u64,
    /// Their summed self time, in nanoseconds.
    pub self_ns: u64,
}

impl Tracer {
    /// A recorder; `enabled == false` records nothing.
    pub fn new(enabled: bool, capacity: usize) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: enabled.then(|| Vec::with_capacity(capacity)),
        }
    }

    /// Opens a span; pass the returned handle to [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, query: u64, parent: Option<usize>) -> Option<usize> {
        let spans = self.spans.as_mut()?;
        let now = self.origin.elapsed().as_nanos() as u64;
        spans.push(Span {
            name,
            query,
            parent,
            start_ns: now,
            end_ns: now,
        });
        Some(spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&mut self, span: Option<usize>) {
        if let (Some(spans), Some(i)) = (self.spans.as_mut(), span) {
            spans[i].end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    /// An empty recorder on the same clock, for another thread.
    pub fn fork(&self) -> Tracer {
        Tracer {
            origin: self.origin,
            spans: self
                .spans
                .as_ref()
                .map(|s| Vec::with_capacity(s.capacity())),
        }
    }

    /// Appends the spans of a [`Tracer::fork`].
    pub fn absorb(&mut self, other: Tracer) {
        if let (Some(spans), Some(theirs)) = (self.spans.as_mut(), other.spans) {
            let offset = spans.len();
            spans.extend(theirs.into_iter().map(|mut s| {
                s.parent = s.parent.map(|p| p + offset);
                s
            }));
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        self.spans.as_deref().unwrap_or(&[])
    }

    /// Per name, the summed self time: each span's duration minus the
    /// part its children cover. A `query` span's self time is the
    /// per-query remainder no layer call explains.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let spans = self.spans();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, children) in spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.self_ns += (s.end_ns - s.start_ns).saturating_sub(children);
        }
        out
    }

    /// Writes the spans as JSON lines.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"query\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.query, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true, 4);
        let q = t.open("query", 0, None);
        let c = t.open("parse", 0, q);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.close(c);
        t.close(q);
        let times = t.self_times();
        let spans = t.spans();
        let query_ns = spans[0].end_ns - spans[0].start_ns;
        let parse_ns = spans[1].end_ns - spans[1].start_ns;
        assert!(parse_ns >= 2_000_000);
        assert_eq!(times["parse"].self_ns, parse_ns);
        assert_eq!(times["query"].self_ns, query_ns - parse_ns);
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let mut t = Tracer::new(true, 4);
        let a = t.open("query", 0, None);
        t.close(a);
        let mut f = t.fork();
        let q = f.open("query", 1, None);
        let c = f.open("round_trip", 1, q);
        f.close(c);
        f.close(q);
        t.absorb(f);
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.spans()[2].parent, Some(1));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, 0);
        let q = t.open("query", 0, None);
        t.close(q);
        assert!(q.is_none() && t.spans().is_empty());
    }
}
