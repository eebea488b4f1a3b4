//! In-memory span recorder for the traced run.
//!
//! A span brackets one call from the benchmark into a layer's public
//! function: its name, start and end (nanoseconds since the recorder
//! was made), the span open around it (its parent) and the request it
//! served. Spans stay in memory until the run ends; counters recorded
//! at the same call sites give the per-layer work counts. A disabled
//! recorder runs the closure and records nothing, so the untraced run
//! pays one branch per call.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer function name, e.g. `minic.lex`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request this call served.
    pub request: u64,
}

impl Span {
    /// Wall time of the call.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Calls, wall time and self time of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerStat {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Summed wall time, scaled, ms.
    pub total_ms: f64,
    /// Summed wall time minus the time covered by direct children,
    /// scaled, ms.
    pub self_ms: f64,
}

impl LayerStat {
    /// Mean self time per call, ms (0 without calls).
    pub fn self_ms_per_call(&self) -> f64 {
        if self.calls == 0 {
            return 0.0;
        }
        self.self_ms / self.calls as f64
    }
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    request: Cell<u64>,
    counters: RefCell<BTreeMap<&'static str, f64>>,
}

impl Tracer {
    /// A recorder; `enabled == false` makes every method a no-op.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            request: Cell::new(0),
            counters: RefCell::new(BTreeMap::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tag the spans that follow with request id `id` (0: no request).
    pub fn set_request(&self, id: u64) {
        self.request.set(id);
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span called `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent: self.open.borrow().last().copied(),
                request: self.request.get(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[index].end_ns = self.now_ns();
        out
    }

    /// Add `value` to the counter `name`.
    pub fn add(&self, name: &'static str, value: f64) {
        if self.enabled {
            *self.counters.borrow_mut().entry(name).or_default() += value;
        }
    }

    /// A counter's value (0 if never added to).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.borrow().get(name).copied().unwrap_or(0.0)
    }

    /// A copy of the recorded spans, in start order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        out
    }
}

/// Per-name calls, wall time and self time, each span's times
/// multiplied by `scale(span.request)`. A span's self time is its
/// duration minus the durations of its direct children; children run
/// one after another on the recording thread, so they never overlap.
pub fn layer_stats(
    spans: &[Span],
    scale: impl Fn(u64) -> f64,
) -> BTreeMap<&'static str, LayerStat> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    let mut stats: BTreeMap<&'static str, LayerStat> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let ms = scale(s.request) / 1e6;
        let stat = stats.entry(s.name).or_default();
        stat.calls += 1;
        stat.total_ms += s.duration_ns() as f64 * ms;
        stat.self_ms += s.duration_ns().saturating_sub(children) as f64 * ms;
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let t = Tracer::new(true);
        t.set_request(7);
        t.span("outer", || {
            t.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == 7));
        let stats = layer_stats(&spans, |_| 1.0);
        assert!(stats["inner"].self_ms >= 2.0);
        assert!(stats["outer"].self_ms < stats["outer"].total_ms);
        let doubled = layer_stats(&spans, |_| 2.0);
        assert_eq!(doubled["inner"].self_ms, 2.0 * stats["inner"].self_ms);
        assert_eq!(t.to_jsonl().lines().count(), 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", || 5), 5);
        t.add("c", 1.0);
        assert!(t.spans().is_empty());
        assert_eq!(t.counter("c"), 0.0);
    }
}
