//! In-memory spans for the traced run.
//!
//! The benchmark opens one span around each call it makes into a layer
//! (named after the layer's crate) and one root span per operation
//! (trial batch, instance or round). Spans live in memory until the run
//! ends and are then written as JSON lines; a layer's self time is its
//! spans' durations minus the parts their child spans cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::report::json_string;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The crate the spanned call belongs to (`perfbench` for root spans).
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The trial, instance or round the span works for.
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span; pass it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "an open span must be closed with Tracer::exit"]
pub struct SpanId(usize);

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, layer: &'static str, op: u64) -> SpanId {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes the innermost open span, which must be `id`.
    ///
    /// # Panics
    ///
    /// Panics if spans are closed out of nesting order.
    pub fn exit(&mut self, id: SpanId) {
        assert_eq!(
            self.open.pop(),
            Some(id.0),
            "spans must close innermost first"
        );
        self.spans[id.0].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span and returns its result.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.enter(name, layer, op);
        let r = f();
        self.exit(id);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time in ns of every span: its duration minus its children's.
    /// Children of one span never overlap on a single thread, so their
    /// durations add up to the part of the parent they cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .map(|(s, &c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// Self time in ms summed per layer, in first-seen layer order.
    pub fn self_ms_by_layer(&self) -> Vec<(&'static str, f64)> {
        let mut out: Vec<(&'static str, f64)> = Vec::new();
        for (s, ns) in self.spans.iter().zip(self.self_times_ns()) {
            match out.iter_mut().find(|(l, _)| *l == s.layer) {
                Some(entry) => entry.1 += ns as f64 / 1e6,
                None => out.push((s.layer, ns as f64 / 1e6)),
            }
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_times_ns()).enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": {}, \"layer\": {}, \"start_ns\": {}, \"end_ns\": {}, \
                 \"self_ns\": {self_ns}, \"parent\": {parent}, \"op\": {}}}",
                json_string(s.name),
                json_string(s.layer),
                s.start_ns,
                s.end_ns,
                s.op
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new();
        let root = t.enter("op", "perfbench", 7);
        let spin = |k: u64| (0..k).fold(0u64, |a, x| std::hint::black_box(a ^ x));
        spin(10_000);
        t.span("child", "adn-sim", 7, || spin(50_000));
        t.span("child", "adn-sim", 7, || spin(50_000));
        t.exit(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
        for c in &spans[1..] {
            assert!(c.start_ns >= spans[0].start_ns && c.end_ns <= spans[0].end_ns);
        }
        let self_ns = t.self_times_ns();
        let children = spans[1].duration_ns() + spans[2].duration_ns();
        assert_eq!(self_ns[0], spans[0].duration_ns() - children);
        let layers = t.self_ms_by_layer();
        assert_eq!(layers.len(), 2);
        assert!(layers.iter().all(|&(_, ms)| ms >= 0.0));
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn out_of_order_exit_panics() {
        let mut t = Tracer::new();
        let a = t.enter("a", "perfbench", 0);
        let _b = t.enter("b", "perfbench", 0);
        t.exit(a);
    }
}
