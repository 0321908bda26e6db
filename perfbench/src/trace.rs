//! In-memory spans recorded by the harness around calls into the crates'
//! public functions.
//!
//! Spans are kept in memory for the whole run and only summarised at the
//! end. A span names its parent, so a layer's *self* time — its duration
//! minus the part its children cover — can be derived afterwards.

use std::sync::Mutex;
use std::time::Instant;

/// One timed interval, in seconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id within the tracer.
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Layer-qualified name, e.g. `core.optimize`.
    pub name: &'static str,
    /// Start offset in seconds.
    pub start: f64,
    /// End offset in seconds.
    pub end: f64,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

/// A thread-safe span recorder.
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
    /// A tracer whose offsets count from now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Records a finished interval and returns its id.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let mut spans = self.spans.lock().expect("span lock");
        let id = spans.len();
        spans.push(Span {
            id,
            parent,
            name,
            start: start.saturating_duration_since(self.origin).as_secs_f64(),
            end: end.saturating_duration_since(self.origin).as_secs_f64(),
        });
        id
    }

    /// Opens a span now; children may name the returned id as parent
    /// before it is closed.
    pub fn open(&self, name: &'static str, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, parent, now, now)
    }

    /// Closes a span opened with [`Tracer::open`].
    pub fn close(&self, id: usize) {
        let end = self.origin.elapsed().as_secs_f64();
        self.spans.lock().expect("span lock")[id].end = end;
    }

    /// Runs `f` inside a span and returns its result.
    pub fn span<T>(&self, name: &'static str, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let value = f();
        self.record(name, parent, start, Instant::now());
        value
    }

    /// A snapshot of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span lock").clone()
    }

    /// Durations of every span called `name`, in seconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// Summed duration of every span called `name`, in seconds.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Summed self time of every span called `name`.
    pub fn total_self(&self, name: &str) -> f64 {
        let spans = self.spans();
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| self_time(&spans, s.id))
            .sum()
    }
}

/// The self time of span `id`: its duration minus the union of its direct
/// children's intervals (clipped to the parent).
pub fn self_time(spans: &[Span], id: usize) -> f64 {
    let Some(parent) = spans.iter().find(|s| s.id == id) else {
        return 0.0;
    };
    let mut children: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start.max(parent.start), s.end.min(parent.end)))
        .filter(|(a, b)| b > a)
        .collect();
    children.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut reach = f64::NEG_INFINITY;
    for (start, end) in children {
        if end <= reach {
            continue;
        }
        covered += end - start.max(reach);
        reach = end;
    }
    (parent.seconds() - covered).max(0.0)
}
