//! In-memory spans, written once at the end as Chrome-trace JSON (the
//! `{"traceEvents":[…]}` format `soct --trace-out` writes, loadable in
//! Perfetto or `chrome://tracing`). Spans are recorded only by the
//! benchmark, around its calls into each layer; every span carries the id
//! of the ruleset or request it belongs to.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Upper bound on kept spans, so a long traced run cannot grow without
/// limit; later spans are still timed, only not kept for the file.
const MAX_SPANS: usize = 400_000;

struct Span {
    name: &'static str,
    id: u64,
    depth: u8,
    start: Instant,
    dur: Duration,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// Records a finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        depth: u8,
        start: Instant,
        dur: Duration,
    ) {
        if self.spans.len() < MAX_SPANS {
            self.spans.push(Span {
                name,
                id,
                depth,
                start,
                dur,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Runs `f` inside a span and returns its result and duration.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        id: u64,
        depth: u8,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        let out = f();
        let dur = start.elapsed();
        self.record(name, id, depth, start, dur);
        (out, dur)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Renders the kept spans as Chrome-trace JSON.
    pub fn chrome_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 110);
        out.push_str("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let ts = s.start.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":{ts:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":1,\"args\":{{\"id\":{},\"depth\":{}}}}}",
                s.name,
                s.dur.as_secs_f64() * 1e6,
                s.id,
                s.depth
            );
        }
        let _ = write!(
            out,
            "],\"otherData\":{{\"dropped_spans\":{}}}}}",
            self.dropped
        );
        out
    }

    /// Writes the trace file, creating its directory.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.chrome_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_render_as_complete_events() {
        let mut t = Tracer::new();
        let (v, d) = t.time("outer", 7, 0, || 41 + 1);
        assert_eq!(v, 42);
        t.record("inner", 7, 1, Instant::now(), d);
        let json = t.chrome_json();
        assert!(json.starts_with("{\"traceEvents\":[{\"name\":\"outer\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"args\":{\"id\":7,\"depth\":1}"));
        assert_eq!(t.len(), 2);
    }
}
