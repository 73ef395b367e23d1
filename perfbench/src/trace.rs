//! In-memory span recorder for the traced run.
//!
//! Spans sit only around calls the benchmark itself makes into a
//! layer's public API; nothing inside the program is instrumented. A
//! span records its name, start, end, the span that was open when it
//! began (its parent) and a request id shared by one request's spans.
//! Spans stay in memory until the run ends and are then written out as
//! one JSON file.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    req: u64,
}

/// Per-name aggregate: call count, total duration and self time (the
/// duration minus the time its child spans cover).
#[derive(Debug, Clone, Copy, Default)]
pub struct Aggregate {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Run `f` inside a span named `name` for request `req`.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Aggregates by span name.
    pub fn aggregates(&self) -> BTreeMap<&'static str, Aggregate> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Aggregate> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let a = out.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            a.count += 1;
            a.total_ns += dur;
            a.self_ns += dur.saturating_sub(child);
        }
        out
    }

    /// Total milliseconds spent in spans named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.aggregates()
            .get(name)
            .map_or(0.0, |a| a.total_ns as f64 / 1e6)
    }

    /// Every span as a JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.req,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// `f` inside a span when there is a tracer, `f` alone when there is
/// none: the untraced twin of a traced call.
pub fn span_if<T>(
    t: &mut Option<&mut Tracer>,
    name: &'static str,
    req: u64,
    f: impl FnOnce() -> T,
) -> T {
    match t {
        Some(t) => t.span(name, req, |_| f()),
        None => f(),
    }
}

/// Tracing overhead: host time of the same work done traced and
/// untraced.
#[derive(Debug, Default)]
pub struct Overhead {
    traced: Duration,
    plain: Duration,
}

impl Overhead {
    /// Do the same work traced (`f(true)`) and untraced (`f(false)`),
    /// the untraced one first when `plain_first` so that neither side
    /// always runs on warm caches, and add both host times. Returns each
    /// result with its host time, the traced one first.
    pub fn both<T>(
        &mut self,
        plain_first: bool,
        mut f: impl FnMut(bool) -> T,
    ) -> ((T, Duration), (T, Duration)) {
        let mut timed = |traced: bool| {
            let t0 = Instant::now();
            let out = f(traced);
            (out, t0.elapsed())
        };
        let (traced, plain) = if plain_first {
            let plain = timed(false);
            (timed(true), plain)
        } else {
            let traced = timed(true);
            (traced, timed(false))
        };
        self.traced += traced.1;
        self.plain += plain.1;
        (traced, plain)
    }

    /// How much longer the traced work took, in percent.
    pub fn pct(&self) -> f64 {
        (self.traced.as_secs_f64() / self.plain.as_secs_f64() - 1.0) * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::default();
        t.span("outer", 1, |t| {
            t.span("inner", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let agg = t.aggregates();
        let (outer, inner) = (agg["outer"], agg["inner"]);
        assert_eq!(outer.count, 1);
        assert!(outer.total_ns >= inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(inner.self_ns, inner.total_ns);
    }
}
