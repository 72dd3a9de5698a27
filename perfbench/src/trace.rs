//! In-memory spans for the traced replay.
//!
//! The replay calls each layer's public functions from the benchmark's
//! side, wrapping every call in a span: name, start, end, parent span,
//! and the request it belongs to. Spans stay in memory until the run
//! ends; a layer's self time is its span's duration minus the time its
//! direct children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// Name of every request's root span.
pub const ROOT: &str = "request";

struct Span {
    name: &'static str,
    request: u32,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Span recorder. A disabled tracer runs the same closures without
/// reading the clock, which is how the replay measures the tracer's own
/// overhead.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    requests: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            requests: 0,
        }
    }

    /// Runs one request under a fresh root span.
    pub fn request<T>(&mut self, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.requests += 1;
        self.span(ROOT, f)
    }

    /// Runs `f` as a child of the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.spans.push(Span {
            name,
            request: self.requests,
            parent,
            start_ns: 0,
            end_ns: 0,
        });
        self.open.push(id);
        let start = self.origin.elapsed().as_nanos() as u64;
        let out = f(self);
        let end = self.origin.elapsed().as_nanos() as u64;
        self.open.pop();
        let span = &mut self.spans[id as usize];
        span.start_ns = start;
        span.end_ns = end;
        out
    }

    /// Self time of every span in microseconds, grouped by span name.
    pub fn self_times_us(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(child);
            out.entry(s.name).or_default().push(own as f64 / 1e3);
        }
        out
    }

    /// Total duration of root spans, in milliseconds.
    pub fn root_ms(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == NO_PARENT)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .sum()
    }

    /// Writes every span as a tab-separated line:
    /// `request span parent name start_ns end_ns` (parent `-` for roots).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "request\tspan\tparent\tname\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{}\t{id}\t{parent}\t{}\t{}\t{}",
                s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.request(|t| {
            t.span("child", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let times = t.self_times_us();
        assert!(times["child"][0] >= 2000.0);
        assert!(times[ROOT][0] < times["child"][0]);
        let total: f64 = times.values().flatten().sum();
        assert!((total / 1e3 - t.root_ms()).abs() < 1e-6);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.request(|t| t.span("child", |_| 7)), 7);
        assert!(t.self_times_us().is_empty());
    }
}
