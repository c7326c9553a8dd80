//! In-memory spans recorded around the calls the benchmark makes into each
//! layer. Spans stay in memory while the run measures and are written out
//! as JSON lines when it ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

/// One timed interval: a layer call, or an operator wall read back from the
/// statement's metrics registry.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The statement the span belongs to (shared by all its spans).
    pub stmt: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// One thread's spans, timed against a shared epoch.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer { epoch, spans: Vec::new() }
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, stmt: u64, parent: Option<usize>) -> usize {
        let now = self.epoch.elapsed();
        self.add(name, stmt, parent, now, now)
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.epoch.elapsed();
    }

    /// Records a span whose interval is already known.
    pub fn add(
        &mut self,
        name: &'static str,
        stmt: u64,
        parent: Option<usize>,
        start: Duration,
        end: Duration,
    ) -> usize {
        self.spans.push(Span { name, stmt, parent, start, end });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        stmt: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let id = self.open(name, stmt, parent);
        let out = f();
        self.close(id);
        (out, id)
    }

    /// Appends another tracer's spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Per span name: count, total duration, and total self time (duration
/// minus the part covered by direct children).
#[derive(Debug, Default, Clone, Copy)]
pub struct NameStats {
    pub count: u64,
    pub total: Duration,
    pub self_time: Duration,
}

impl NameStats {
    pub fn mean_ms(&self) -> f64 {
        mean(self.total, self.count) * 1e3
    }

    pub fn mean_us(&self) -> f64 {
        mean(self.total, self.count) * 1e6
    }

    pub fn mean_self_ms(&self) -> f64 {
        mean(self.self_time, self.count) * 1e3
    }
}

fn mean(d: Duration, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        d.as_secs_f64() / n as f64
    }
}

pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, NameStats> {
    let mut child_time = vec![Duration::ZERO; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_time[p] += s.duration();
        }
    }
    let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_time) {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total += s.duration();
        e.self_time += s.duration().saturating_sub(children);
    }
    out
}

/// The largest number of root spans named `root` open at one instant.
pub fn peak_overlap(spans: &[Span], roots: &[&str]) -> u64 {
    let mut events: Vec<(Duration, i64)> = spans
        .iter()
        .filter(|s| s.parent.is_none() && roots.contains(&s.name))
        .flat_map(|s| [(s.start, 1), (s.end, -1)])
        .collect();
    // Ends sort before starts at the same instant.
    events.sort();
    let (mut now, mut peak) = (0i64, 0i64);
    for (_, delta) in events {
        now += delta;
        peak = peak.max(now);
    }
    peak as u64
}

/// Writes the spans as JSON lines: name, statement, parent, start and end
/// in microseconds from the run's epoch.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{i},\"name\":\"{}\",\"stmt\":{},\"parent\":{parent},\"start_us\":{:.3},\"end_us\":{:.3}}}",
            s.name,
            s.stmt,
            s.start.as_secs_f64() * 1e6,
            s.end.as_secs_f64() * 1e6
        )?;
    }
    w.flush()
}
