//! # qudit-trace
//!
//! The observability substrate of the OpenQudit reproduction: hierarchical wall-clock
//! **spans**, deterministic monotone **counters**, and a shareable **registry** with
//! structured export — a JSON counter snapshot and a Chrome `trace_event` file
//! loadable in `about://tracing`/Perfetto.
//!
//! ## Determinism contract
//!
//! The two primitive families sit on opposite sides of the CI byte-diff line:
//!
//! - **Counters** are pure event counts — never derived from timing, scheduling, or
//!   iteration order. Every instrumentation site in the workspace records counters at
//!   a *deterministic join point* (after schedule-independent early-stop filtering),
//!   so two same-seed runs produce byte-identical [`TraceRegistry::counters_json`]
//!   snapshots and the snapshot joins the `report_synthesis` determinism diff.
//! - **Spans** carry wall-clock values. They are exported separately
//!   ([`TraceRegistry::chrome_trace_json`]) and stripped from any pinned output under
//!   the [`omit_timing`] discipline.
//!
//! ## Handles
//!
//! [`TraceRegistry`] is a cheap cloneable handle; [`TraceRegistry::default`] is a
//! **disabled** no-op handle (so configs can carry one at zero cost), while
//! [`TraceRegistry::new`] creates an enabled recording instance. All clones of an
//! enabled registry share the same storage, which is how one registry threads from the
//! compiler driver down through search, instantiation, and the TNVM kernel dispatch.
//!
//! ```
//! use qudit_trace::TraceRegistry;
//!
//! let trace = TraceRegistry::new();
//! {
//!     let _pass = trace.span("synthesis");
//!     trace.add("search.nodes_expanded", 3);
//!     let _inner = trace.span("frontier");
//!     trace.incr("frontier.rounds");
//! }
//! assert_eq!(trace.counters()["search.nodes_expanded"], 3);
//! let events = trace.span_events();
//! assert_eq!(events.len(), 2);
//! assert_eq!(events[1].depth, 1); // "frontier" nested under "synthesis"
//! ```

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::Instant;

use parking_lot::Mutex;

/// One closed span: a named wall-clock interval on one thread, with its nesting
/// position (depth and parent index) as recorded by the per-thread span stacks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span name (e.g. a pass name).
    pub name: String,
    /// Small dense thread id (assigned in first-use order per registry).
    pub tid: u64,
    /// Start offset from the registry's origin, in microseconds.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Nesting depth on its thread at open time (0 = top level).
    pub depth: usize,
    /// Index into the event log of the enclosing span on the same thread, if any.
    pub parent: Option<usize>,
}

/// Per-thread bookkeeping: the dense thread id and the stack of open span indices.
#[derive(Debug, Default)]
struct ThreadState {
    tid: u64,
    stack: Vec<usize>,
}

/// The span log: events plus the per-thread stacks they are threaded through. One
/// mutex guards both so parent/depth assignment is consistent under contention.
#[derive(Debug, Default)]
struct SpanLog {
    events: Vec<SpanEvent>,
    threads: HashMap<ThreadId, ThreadState>,
    next_tid: u64,
}

#[derive(Debug)]
struct Inner {
    origin: Instant,
    counters: Mutex<BTreeMap<String, u64>>,
    spans: Mutex<SpanLog>,
}

/// A cheap cloneable handle to shared trace storage — or a disabled no-op.
///
/// See the crate docs for the determinism contract. Every recording method is a no-op
/// on a disabled handle, so instrumented code never branches on an `Option`.
#[derive(Debug, Clone, Default)]
pub struct TraceRegistry {
    inner: Option<Arc<Inner>>,
}

impl TraceRegistry {
    /// Creates a new enabled registry with empty storage.
    pub fn new() -> Self {
        TraceRegistry {
            inner: Some(Arc::new(Inner {
                // detlint: allow(wall-clock) — span timestamps are relative to this
                // origin and are dropped from artifacts by the omit-timing gate
                origin: Instant::now(),
                counters: Mutex::new(BTreeMap::new()),
                spans: Mutex::new(SpanLog::default()),
            })),
        }
    }

    /// The disabled no-op handle (identical to [`Default`]).
    pub fn disabled() -> Self {
        TraceRegistry::default()
    }

    /// Whether this handle records anything.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Adds `value` to the monotone counter `name` (creating it at zero).
    ///
    /// Counters are the *deterministic* primitive: callers must only record pure
    /// counts at schedule-independent join points.
    pub fn add(&self, name: &str, value: u64) {
        if let Some(inner) = &self.inner {
            *inner.counters.lock().entry(name.to_string()).or_insert(0) += value;
        }
    }

    /// Increments the counter `name` by one.
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// Opens a span named `name`, closed when the returned guard drops.
    ///
    /// Nesting is tracked per thread: a span opened while another span from the same
    /// registry is live on the same thread records it as its parent.
    pub fn span(&self, name: &str) -> Span {
        let Some(inner) = &self.inner else {
            return Span { registry: None, index: 0 };
        };
        let start_us = inner.origin.elapsed().as_micros() as u64;
        let mut log = inner.spans.lock();
        let next_tid = log.next_tid;
        let state = log
            .threads
            .entry(std::thread::current().id())
            .or_insert_with(|| ThreadState { tid: next_tid, stack: Vec::new() });
        if state.tid == next_tid {
            log.next_tid += 1;
        }
        let state = log.threads.get_mut(&std::thread::current().id()).expect("just inserted");
        let tid = state.tid;
        let depth = state.stack.len();
        let parent = state.stack.last().copied();
        let index = log.events.len();
        log.threads.get_mut(&std::thread::current().id()).expect("just inserted").stack.push(index);
        log.events.push(SpanEvent {
            name: name.to_string(),
            tid,
            start_us,
            dur_us: 0,
            depth,
            parent,
        });
        Span { registry: self.inner.clone().map(|i| TraceRegistry { inner: Some(i) }), index }
    }

    /// Adds every counter of `other` into this registry.
    ///
    /// This is the process-level aggregation primitive: a long-lived service folds
    /// each compilation's per-request registry into one process-wide sink (the
    /// `qudit-serve` `/metrics` endpoint), so the sink's totals cover every request
    /// ever served while each request's own snapshot stays isolated. Only counters
    /// transfer — spans describe one registry's own timeline and stay put.
    pub fn absorb_counters(&self, other: &TraceRegistry) {
        if !self.enabled() {
            return;
        }
        for (name, value) in other.counters() {
            self.add(&name, value);
        }
    }

    /// A sorted copy of all counters.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        match &self.inner {
            Some(inner) => inner.counters.lock().clone(),
            None => BTreeMap::new(),
        }
    }

    /// All spans closed so far, in open order (open spans are omitted).
    pub fn span_events(&self) -> Vec<SpanEvent> {
        match &self.inner {
            Some(inner) => {
                let log = inner.spans.lock();
                let open: Vec<usize> =
                    // detlint: allow(unsorted-map-iter) — membership filter only; the
                    // result order comes from `log.events`, not from this walk
                    log.threads.values().flat_map(|s| s.stack.iter().copied()).collect();
                log.events
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| !open.contains(i))
                    .map(|(_, e)| e.clone())
                    .collect()
            }
            None => Vec::new(),
        }
    }

    /// The deterministic counter snapshot as a compact JSON object (sorted keys).
    ///
    /// This string is byte-identical across same-seed runs and is the form folded
    /// into the CI determinism diff. Spans are deliberately excluded.
    pub fn counters_json(&self) -> String {
        counters_to_json(&self.counters())
    }

    /// The span log in Chrome `trace_event` JSON array format ("X" complete events),
    /// loadable in `about://tracing` or <https://ui.perfetto.dev>.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::from("[");
        for (i, event) in self.span_events().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n  {{\"name\": \"{}\", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \
                 \"pid\": 1, \"tid\": {}}}",
                json_escape(&event.name),
                event.start_us,
                event.dur_us,
                event.tid
            ));
        }
        out.push_str("\n]");
        out
    }
}

/// Renders a counter map as a compact JSON object with sorted keys.
pub fn counters_to_json(counters: &BTreeMap<String, u64>) -> String {
    let body: Vec<String> =
        counters.iter().map(|(k, v)| format!("\"{}\": {v}", json_escape(k))).collect();
    format!("{{{}}}", body.join(", "))
}

/// Minimal JSON string escaping (names are plain identifiers in practice).
fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// RAII guard returned by [`TraceRegistry::span`]; closes the span on drop.
#[must_use = "a span records its duration when the guard drops"]
#[derive(Debug)]
pub struct Span {
    registry: Option<TraceRegistry>,
    index: usize,
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(registry) = &self.registry else { return };
        let Some(inner) = &registry.inner else { return };
        let end_us = inner.origin.elapsed().as_micros() as u64;
        let mut log = inner.spans.lock();
        if let Some(state) = log.threads.get_mut(&std::thread::current().id()) {
            if state.stack.last() == Some(&self.index) {
                state.stack.pop();
            } else {
                // Out-of-order drop (e.g. a guard moved across an early return);
                // remove it from wherever it sits so nesting stays well-formed.
                state.stack.retain(|&i| i != self.index);
            }
        }
        if let Some(event) = log.events.get_mut(self.index) {
            event.dur_us = end_us.saturating_sub(event.start_us);
        }
    }
}

/// Whether pinned output should strip all nondeterministic (timing/span) fields: the
/// `OPENQUDIT_SYNTH_OMIT_TIMING` discipline, centralized here so every report gates on
/// one parse of one env var.
pub fn omit_timing() -> bool {
    std::env::var("OPENQUDIT_SYNTH_OMIT_TIMING")
        .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
        .unwrap_or(false)
}

/// Name of the timing-omission environment variable (for docs and reports).
pub const OMIT_TIMING_ENV_VAR: &str = "OPENQUDIT_SYNTH_OMIT_TIMING";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_a_no_op() {
        let trace = TraceRegistry::disabled();
        assert!(!trace.enabled());
        trace.add("x", 5);
        let _span = trace.span("nothing");
        assert!(trace.counters().is_empty());
        assert!(trace.span_events().is_empty());
        assert_eq!(trace.counters_json(), "{}");
        assert_eq!(trace.chrome_trace_json(), "[\n]");
    }

    #[test]
    fn counters_accumulate_and_render_sorted() {
        let trace = TraceRegistry::new();
        trace.add("b.two", 2);
        trace.incr("a.one");
        trace.incr("a.one");
        assert_eq!(trace.counters_json(), "{\"a.one\": 2, \"b.two\": 2}");
    }

    #[test]
    fn clones_share_storage() {
        let trace = TraceRegistry::new();
        let clone = trace.clone();
        clone.add("shared", 1);
        assert_eq!(trace.counters()["shared"], 1);
    }

    #[test]
    fn absorb_counters_aggregates_across_registries() {
        let sink = TraceRegistry::new();
        sink.add("serve.requests", 1);
        let request_a = TraceRegistry::new();
        request_a.add("search.nodes_expanded", 5);
        request_a.add("cache.misses", 2);
        let request_b = TraceRegistry::new();
        request_b.add("search.nodes_expanded", 3);
        sink.absorb_counters(&request_a);
        sink.absorb_counters(&request_b);
        let counters = sink.counters();
        assert_eq!(counters["search.nodes_expanded"], 8);
        assert_eq!(counters["cache.misses"], 2);
        assert_eq!(counters["serve.requests"], 1);
        // Source registries are untouched, and disabled sinks stay no-ops.
        assert_eq!(request_a.counters()["search.nodes_expanded"], 5);
        let disabled = TraceRegistry::disabled();
        disabled.absorb_counters(&request_a);
        assert!(disabled.counters().is_empty());
    }

    #[test]
    fn spans_nest_per_thread() {
        let trace = TraceRegistry::new();
        {
            let _outer = trace.span("outer");
            {
                let _inner = trace.span("inner");
            }
            let _sibling = trace.span("sibling");
        }
        let events = trace.span_events();
        assert_eq!(events.len(), 3);
        let outer = events.iter().position(|e| e.name == "outer").unwrap();
        let inner = &events[events.iter().position(|e| e.name == "inner").unwrap()];
        let sibling = &events[events.iter().position(|e| e.name == "sibling").unwrap()];
        assert_eq!(inner.depth, 1);
        assert_eq!(inner.parent, Some(outer));
        assert_eq!(sibling.depth, 1);
        assert_eq!(sibling.parent, Some(outer));
        assert_eq!(events[outer].depth, 0);
        assert_eq!(events[outer].parent, None);
    }

    #[test]
    fn open_spans_are_excluded_from_the_log() {
        let trace = TraceRegistry::new();
        let _open = trace.span("still-open");
        {
            let _closed = trace.span("closed");
        }
        let events = trace.span_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "closed");
    }

    #[test]
    fn threads_get_distinct_tids() {
        let trace = TraceRegistry::new();
        {
            let _main = trace.span("main-thread");
        }
        let clone = trace.clone();
        std::thread::spawn(move || {
            let _worker = clone.span("worker-thread");
        })
        .join()
        .unwrap();
        let events = trace.span_events();
        assert_eq!(events.len(), 2);
        assert_ne!(events[0].tid, events[1].tid);
    }

    #[test]
    fn chrome_trace_is_valid_shape() {
        let trace = TraceRegistry::new();
        {
            let _s = trace.span("pass \"quoted\"");
        }
        let json = trace.chrome_trace_json();
        assert!(json.starts_with('['));
        assert!(json.ends_with(']'));
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("pass \\\"quoted\\\""));
    }

    #[test]
    fn concurrent_counting_is_lossless() {
        let trace = TraceRegistry::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let trace = trace.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        trace.incr("hits");
                    }
                });
            }
        });
        assert_eq!(trace.counters()["hits"], 4000);
    }
}
