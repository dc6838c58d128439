//! The traced run's spans: name, start, end and parent, kept in memory
//! and written out when the run ends.
//!
//! Stage spans come from the advisor's own hooks: [`SpanTap`] is a
//! `SessionObserver` that hands every hook to a `RecordingObserver` and
//! also timestamps each stage. Every other span is timed here, around a
//! call into a layer's public function.

use dta::advisor::obs::{ShardSnapshot, SpanName};
use dta::advisor::{CounterSet, ObserverSummary, RecordingObserver, SessionObserver};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// One closed span. Times are nanoseconds since the run's trace began.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    pub id: u64,
    /// The enclosing span, 0 for a root.
    pub parent: u64,
    /// Shared by every span of one session.
    pub trace: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The run's span store.
pub struct Trace {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace { epoch: Instant::now(), next_id: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }
}

impl Trace {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::SeqCst)
    }

    fn lock(&self) -> MutexGuard<'_, Vec<SpanRec>> {
        self.spans.lock().expect("no thread panics while holding the span store")
    }

    /// A root scope for a new trace (one session).
    pub fn root(&self) -> Scope<'_> {
        Scope { trace: self, parent: 0, trace_id: self.next_id() }
    }

    /// Every span recorded so far, in closing order.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.lock().clone()
    }
}

/// Where new spans go: a trace, a parent span and a trace id.
#[derive(Clone, Copy)]
pub struct Scope<'t> {
    trace: &'t Trace,
    parent: u64,
    trace_id: u64,
}

impl<'t> Scope<'t> {
    /// Run `f` inside a span called `name`, handing it the span's own
    /// scope, and return its result with the span's length in seconds.
    pub fn time<R>(&self, name: &str, f: impl FnOnce(Scope<'t>) -> R) -> (R, f64) {
        let id = self.trace.next_id();
        let start_ns = self.trace.now_ns();
        let out = f(Scope { parent: id, ..*self });
        let end_ns = self.trace.now_ns();
        self.record(id, name, start_ns, end_ns);
        (out, (end_ns - start_ns) as f64 / 1e9)
    }

    fn record(&self, id: u64, name: &str, start_ns: u64, end_ns: u64) {
        self.trace.lock().push(SpanRec {
            id,
            parent: self.parent,
            trace: self.trace_id,
            name: name.to_string(),
            start_ns,
            end_ns,
        });
    }

    /// Seconds covered by the spans directly under this scope.
    pub fn children_seconds(&self) -> f64 {
        self.trace
            .lock()
            .iter()
            .filter(|s| s.parent == self.parent)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }
}

/// A session observer that records each stage as a span under its
/// scope and forwards every hook to a `RecordingObserver`.
pub struct SpanTap<'t> {
    inner: RecordingObserver,
    scope: Scope<'t>,
    /// Open stages, innermost last: (name, span id, start).
    open: Mutex<Vec<(SpanName, u64, u64)>>,
}

impl<'t> SpanTap<'t> {
    pub fn new(scope: Scope<'t>) -> Self {
        SpanTap { inner: RecordingObserver::new(), scope, open: Mutex::new(Vec::new()) }
    }

    fn open(&self) -> MutexGuard<'_, Vec<(SpanName, u64, u64)>> {
        self.open.lock().expect("no thread panics while holding the open-stage stack")
    }
}

impl SessionObserver for SpanTap<'_> {
    fn attach_counters(&self, counters: &Arc<CounterSet>) {
        self.inner.attach_counters(counters);
    }

    fn span_enter(&self, name: SpanName) {
        self.inner.span_enter(name);
        let trace = self.scope.trace;
        self.open().push((name, trace.next_id(), trace.now_ns()));
    }

    fn span_exit(&self, name: SpanName) {
        let end_ns = self.scope.trace.now_ns();
        self.inner.span_exit(name);
        let mut open = self.open();
        // stages close innermost first; like the recording observer,
        // ignore a stray exit
        if open.last().is_some_and(|(top, _, _)| *top == name) {
            if let Some((_, id, start_ns)) = open.pop() {
                let parent = open.last().map_or(self.scope.parent, |(_, id, _)| *id);
                drop(open);
                Scope { parent, ..self.scope }.record(id, name.as_str(), start_ns, end_ns);
            }
        }
    }

    fn event(&self, kind: &str, detail: &str) {
        self.inner.event(kind, detail);
    }

    fn record_cache_shards(&self, shards: &[ShardSnapshot]) {
        self.inner.record_cache_shards(shards);
    }

    fn summary(&self) -> Option<ObserverSummary> {
        self.inner.summary()
    }
}

/// The spans as a JSON array, one span per line.
pub fn spans_json(spans: &[SpanRec]) -> String {
    let rows: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"id\":{},\"parent\":{},\"trace\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent,
                s.trace,
                crate::report::json_string(&s.name),
                s.start_ns,
                s.end_ns
            )
        })
        .collect();
    format!("[{}]", rows.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scopes_nest_and_stages_land_under_their_parent() {
        let trace = Trace::default();
        let root = trace.root();
        root.time("session", |session| {
            session.time("tune", |tune| {
                let tap = SpanTap::new(tune);
                tap.span_enter(SpanName::Enumeration);
                tap.span_enter(SpanName::GreedyPhase1);
                tap.span_exit(SpanName::GreedyPhase1);
                tap.span_exit(SpanName::Enumeration);
                tap.span_exit(SpanName::Merging);
            });
        });
        let spans = trace.spans();
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).expect("span recorded");
        assert_eq!(spans.len(), 4);
        assert_eq!(by_name("session").parent, 0);
        assert_eq!(by_name("tune").parent, by_name("session").id);
        assert_eq!(by_name("enumeration").parent, by_name("tune").id);
        assert_eq!(by_name("greedyPhase1").parent, by_name("enumeration").id);
        assert!(spans.iter().all(|s| s.trace == root.trace_id && s.start_ns <= s.end_ns));
    }
}
