//! Measurement plumbing: latency samples, in-memory spans, and the
//! metric list a run prints.

use std::fmt::Write as _;
use std::time::Instant;

/// Latency (or any) samples of one kind.
#[derive(Debug, Clone, Default)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn extend(&mut self, other: Samples) {
        self.0.extend(other.0);
    }

    /// Nearest-rank percentile `p` in `[0, 100]`; 0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.sum() / self.0.len() as f64
        }
    }

    /// How many samples lie strictly above percentile `p`.
    pub fn beyond(&self, p: f64) -> usize {
        let cut = self.percentile(p);
        self.0.iter().filter(|&&v| v > cut).count()
    }

    /// Describes a tail reported at percentile `p`: the samples beyond it,
    /// and the neighbouring percentiles for context.
    pub fn tail_note(&self, p: f64) -> String {
        let around: Vec<String> =
            [90.0, 95.0, 98.0, 99.0].map(|q| format!("p{q} {:.3}", self.percentile(q))).into();
        format!("p{p}, {} beyond (n={}); {}", self.beyond(p), self.len(), around.join(", "))
    }
}

/// One recorded span. Times are microseconds since the run's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: u64,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

/// A per-thread span recorder; spans stay in memory until the run ends.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    /// Span ids are `thread_tag << 40 | counter`, unique across threads.
    next: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, thread_tag: u64) -> Tracer {
        Tracer { epoch, next: thread_tag << 40, spans: Vec::new() }
    }

    fn us(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Records a finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        let id = self.open();
        self.close(id, name, parent, request, start, end);
    }

    /// Reserves an id for a span whose interval is recorded later with
    /// [`Tracer::close`] (a parent opened before its children).
    pub fn open(&mut self) -> u64 {
        self.next += 1;
        self.next
    }

    /// Records the span reserved as `id`.
    pub fn close(
        &mut self,
        id: u64,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        let span =
            Span { id, parent, request, name, start_us: self.us(start), end_us: self.us(end) };
        self.spans.push(span);
    }
}

/// Writes spans as JSON lines.
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
            s.id, parent, s.request, s.name, s.start_us, s.end_us
        );
    }
    out
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Human-readable context: base counts, the percentile a tail names,
    /// whether a counter repeats exactly.
    pub note: String,
}

#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.push(Metric { name: name.to_string(), value, unit, note: note.into() });
    }

    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                format!("\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Microseconds between two instants.
pub fn us(start: Instant, end: Instant) -> f64 {
    end.saturating_duration_since(start).as_secs_f64() * 1e6
}

/// Milliseconds between two instants.
pub fn ms(start: Instant, end: Instant) -> f64 {
    end.saturating_duration_since(start).as_secs_f64() * 1e3
}
