//! Spans recorded from outside the program: one around each call into a
//! layer's public functions, kept in memory, written at exit.
//!
//! A span knows the op it belongs to and the span that was open when it
//! began, so a layer's *self time* is its duration minus its children's,
//! and an op's *unattributed* time is what its direct children leave
//! uncovered. `alloc_delta` is the bytes requested from the allocator
//! while the span was open (process-wide; non-zero only in the traced
//! binary, which installs the counting allocator).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::alloc;
use crate::json;

/// The name of the span that covers one whole op.
pub const ROOT: &str = "op";

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// What was called, e.g. `core.apsp`; `<name>_ms` is the per-layer
    /// metric it feeds, if the metric table has one.
    pub name: &'static str,
    /// The layer (module) the call belongs to.
    pub layer: &'static str,
    /// The op during which it ran.
    pub op: u32,
    /// Index of the enclosing span, `None` for an op's root.
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Bytes requested from the allocator while the span was open.
    pub alloc_delta: u64,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// A handle on an open span; `None` while the tracer is off.
#[must_use = "pass it to Tracer::end"]
pub struct Open(Option<u32>);

/// Records spans for one thread. Off, `begin`/`end` cost one branch, so
/// the same workload code serves the untraced run.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    /// Chrome-trace thread id, so two threads' spans land on two tracks.
    tid: u32,
    op: u32,
    spans: Vec<Span>,
    /// Indices of the currently open spans, innermost last.
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer whose timestamps count from `origin`; starts off.
    pub fn new(origin: Instant, tid: u32) -> Tracer {
        Tracer {
            on: false,
            origin,
            tid,
            op: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off, and names the op that follows.
    pub fn start_op(&mut self, op: u32, on: bool) {
        debug_assert!(self.open.is_empty(), "op started inside a span");
        self.op = op;
        self.on = on;
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, layer: &'static str, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            layer,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            alloc_delta: alloc::totals().1,
        });
        self.open.push(index);
        Open(Some(index))
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn end(&mut self, open: Open) {
        let Some(index) = open.0 else { return };
        let now = self.origin.elapsed().as_nanos() as u64;
        assert_eq!(self.open.pop(), Some(index), "spans close innermost first");
        let span = &mut self.spans[index as usize];
        span.end_ns = now;
        span.alloc_delta = alloc::totals().1 - span.alloc_delta;
    }

    /// All closed spans, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per op, the total milliseconds spent under each span name — the
    /// samples behind the `<name>_ms` metrics.
    pub fn ms_by_op_and_name(&self) -> BTreeMap<u32, BTreeMap<&'static str, f64>> {
        let mut out: BTreeMap<u32, BTreeMap<&'static str, f64>> = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.op).or_default().entry(s.name).or_default() += s.ms();
        }
        out
    }

    /// Each span's duration minus the part its children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Per traced op, the share of its root span (named `op`) that its
    /// direct children leave uncovered: the time no layer accounts for.
    pub fn unattributed_fracs(&self) -> Vec<f64> {
        let own = self.self_ns();
        self.spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == ROOT && s.end_ns > s.start_ns)
            .map(|(s, &own)| own as f64 / (s.end_ns - s.start_ns) as f64)
            .collect()
    }
}

/// Writes the spans of `tracers` as Chrome-trace JSON (`chrome://tracing`
/// and Perfetto both load it): one complete event per span, one track per
/// tracer, the span's op, parent, self time and allocation delta in `args`.
pub fn chrome_trace(workload: &str, tracers: &[&Tracer]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    for tr in tracers {
        let own = tr.self_ns();
        for (i, s) in tr.spans.iter().enumerate() {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"workload\":{},\"id\":{i},\"op\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"alloc_delta\":{}}}}}",
                json::quote(s.name),
                json::quote(s.layer),
                tr.tid,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                json::quote(workload),
                s.op,
                s.start_ns,
                s.end_ns,
                own[i],
                s.alloc_delta,
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Runs `$body` inside a span.
#[macro_export]
macro_rules! span {
    ($tracer:expr, $layer:expr, $name:expr, $body:expr) => {{
        let open = $tracer.begin($layer, $name);
        let value = $body;
        $tracer.end(open);
        value
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut tr = Tracer::new(Instant::now(), 1);
        tr.start_op(3, true);
        let root = tr.begin("bench", "op");
        let a = tr.begin("core", "core.apsp");
        std::thread::sleep(std::time::Duration::from_millis(2));
        tr.end(a);
        let b = span!(tr, "serve.table", "serve.table.verify", 7);
        tr.end(root);
        assert_eq!(b, 7);

        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[1].parent, spans[2].parent), (Some(0), Some(0)));
        assert!(spans.iter().all(|s| s.op == 3));
        let own = tr.self_ns();
        let covered = (spans[1].end_ns - spans[1].start_ns) + (spans[2].end_ns - spans[2].start_ns);
        assert_eq!(own[0], spans[0].end_ns - spans[0].start_ns - covered);
        assert!(tr.unattributed_fracs()[0] < 0.5);
        assert!(tr.ms_by_op_and_name()[&3]["core.apsp"] >= 2.0);
        assert!(crate::json::parse(&chrome_trace("w", &[&tr])).is_ok());
    }

    #[test]
    fn off_records_nothing() {
        let mut tr = Tracer::new(Instant::now(), 1);
        tr.start_op(0, false);
        let v = span!(tr, "core", "core.apsp", 1 + 1);
        assert_eq!(v, 2);
        assert!(tr.spans().is_empty());
    }
}
