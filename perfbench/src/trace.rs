//! Spans around the calls into each layer.
//!
//! A span records its name, start, end and parent; every span of one pass
//! carries that pass's id. Spans stay in memory: at the end of each pass
//! they are folded into per-name totals, and the spans of the last pass
//! are kept for [`Tracer::write_tsv`]. A disabled tracer records nothing
//! and its calls cost one branch.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a span within its pass; [`ROOT`] for "no parent".
pub type SpanId = u32;

/// Parent of a pass's root span.
pub const ROOT: SpanId = u32::MAX;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call the span covers.
    pub name: &'static str,
    /// The span it ran inside, or [`ROOT`].
    pub parent: SpanId,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
}

/// Total time and call count of one span name over one pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Total {
    /// Summed span durations, ns.
    pub ns: u64,
    /// Spans recorded.
    pub count: u64,
    /// Longest single span, ns.
    pub max_ns: u64,
}

/// In-memory span recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    pass: u32,
    spans: Vec<Span>,
    last_pass: Vec<Span>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            pass: 0,
            spans: Vec::new(),
            last_pass: Vec::new(),
        }
    }

    /// The current instant when recording, for a span closed by
    /// [`Tracer::end`]; `None` (and no clock read) when disabled.
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        self.enabled.then(Instant::now)
    }

    /// Record a span from `start` (see [`Tracer::start`]) to now.
    #[inline]
    pub fn end(&mut self, name: &'static str, parent: SpanId, start: Option<Instant>) {
        if let Some(start) = start {
            self.record(name, parent, start, Instant::now());
        }
    }

    /// Record a span between two instants the caller already read.
    #[inline]
    pub fn record(&mut self, name: &'static str, parent: SpanId, start: Instant, end: Instant) {
        if self.enabled {
            self.spans.push(Span {
                name,
                parent,
                start: self.ns(start),
                end: self.ns(end),
            });
        }
    }

    /// Open a span that closes with [`Tracer::close`]; returns its id.
    pub fn open(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        if !self.enabled {
            return ROOT;
        }
        let start = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            parent,
            start,
            end: start,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Close a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: SpanId) {
        if self.enabled {
            let end = self.ns(Instant::now());
            if let Some(span) = self.spans.get_mut(id as usize) {
                span.end = end;
            }
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// End the current pass: fold its spans into per-name totals, keep
    /// them as the last pass, and start the next pass.
    pub fn end_pass(&mut self) -> BTreeMap<&'static str, Total> {
        let mut totals: BTreeMap<&'static str, Total> = BTreeMap::new();
        for span in &self.spans {
            let t = totals.entry(span.name).or_default();
            let d = span.end.saturating_sub(span.start);
            t.ns += d;
            t.count += 1;
            t.max_ns = t.max_ns.max(d);
        }
        self.last_pass = std::mem::take(&mut self.spans);
        self.pass += 1;
        totals
    }

    /// Write the last finished pass's spans as tab-separated
    /// `pass id name parent start_ns end_ns` lines.
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "pass\tid\tname\tparent\tstart_ns\tend_ns")?;
        let pass = self.pass.saturating_sub(1);
        for (id, s) in self.last_pass.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{pass}\t{id}\t{}\t{parent}\t{}\t{}",
                s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("a", ROOT);
        let s = t.start();
        assert!(s.is_none());
        t.end("b", id, s);
        t.close(id);
        assert!(t.end_pass().is_empty());
    }

    #[test]
    fn totals_fold_spans_by_name() {
        let mut t = Tracer::new(true);
        let root = t.open("pass", ROOT);
        for _ in 0..3 {
            let s = t.start();
            t.end("call", root, s);
        }
        t.close(root);
        let totals = t.end_pass();
        assert_eq!(totals["call"].count, 3);
        assert_eq!(totals["pass"].count, 1);
        assert!(totals["pass"].ns >= totals["call"].ns);
        assert!(t.end_pass().is_empty(), "a new pass starts empty");
    }
}
