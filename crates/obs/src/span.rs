//! The span layer: nested, named timing scopes that cost one relaxed
//! atomic load when no collector is installed, and record
//! Chrome-trace-compatible events when a [`TraceSession`] is active.
//!
//! Sessions are process-global and serialized: [`TraceSession::start`]
//! takes a global lock, so two concurrent sessions (e.g. parallel
//! tests) queue instead of mixing their records. Spans opened on *any*
//! thread while a session is active are collected — the chase engine's
//! worker threads land in the same trace as the driver, distinguished
//! by their `tid`.

use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Fast-path flag: is any collector installed?
static TRACE_ON: AtomicBool = AtomicBool::new(false);

/// Serializes sessions (held for the whole session lifetime).
static SESSION_LOCK: Mutex<()> = Mutex::new(());

struct CollectorState {
    epoch: Instant,
    records: Vec<SpanRecord>,
}

fn collector() -> &'static Mutex<Option<CollectorState>> {
    static COLLECTOR: OnceLock<Mutex<Option<CollectorState>>> = OnceLock::new();
    COLLECTOR.get_or_init(|| Mutex::new(None))
}

static NEXT_TID: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static DEPTH: Cell<u32> = const { Cell::new(0) };
    static TID: Cell<u32> = const { Cell::new(u32::MAX) };
}

fn thread_id() -> u32 {
    TID.with(|t| {
        if t.get() == u32::MAX {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// One finished span, in session-relative microseconds.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Static span name (the taxonomy in `docs/ARCHITECTURE.md`).
    pub name: &'static str,
    /// Start, µs since the session began.
    pub ts_us: u64,
    /// Duration, µs.
    pub dur_us: u64,
    /// Small per-thread id (0 is the first thread that opened a span).
    pub tid: u32,
    /// Nesting depth on its thread (0 = top level).
    pub depth: u32,
}

/// An open span; records itself on drop when a session is active.
/// Created by [`span`].
#[derive(Debug)]
#[must_use = "a span measures the scope it is bound to; drop ends it"]
pub struct Span {
    start: Option<Instant>,
    name: &'static str,
}

/// Opens a span. Inert (no clock read, no allocation) unless a
/// [`TraceSession`] is active.
pub fn span(name: &'static str) -> Span {
    if !TRACE_ON.load(Ordering::Relaxed) {
        return Span { start: None, name };
    }
    DEPTH.with(|d| d.set(d.get() + 1));
    Span {
        start: Some(Instant::now()),
        name,
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let dur_us = start.elapsed().as_micros() as u64;
        let depth = DEPTH.with(|d| {
            let v = d.get().saturating_sub(1);
            d.set(v);
            v
        });
        let mut guard = collector().lock().unwrap_or_else(|e| e.into_inner());
        if let Some(state) = guard.as_mut() {
            let ts_us = start.duration_since(state.epoch).as_micros() as u64;
            state.records.push(SpanRecord {
                name: self.name,
                ts_us,
                dur_us,
                tid: thread_id(),
                depth,
            });
        }
    }
}

/// An exclusive span-collection window. While it lives, every [`span`]
/// on every thread is timed and recorded; [`TraceSession::finish`]
/// returns the records (ordered by span *completion* time — children
/// before parents; reconstruct nesting from `ts_us`/`dur_us`/`depth`).
#[derive(Debug)]
pub struct TraceSession {
    _guard: MutexGuard<'static, ()>,
}

impl TraceSession {
    /// Installs the collector, blocking while another session is live.
    pub fn start() -> TraceSession {
        let guard = SESSION_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        *collector().lock().unwrap_or_else(|e| e.into_inner()) = Some(CollectorState {
            epoch: Instant::now(),
            records: Vec::new(),
        });
        TRACE_ON.store(true, Ordering::SeqCst);
        TraceSession { _guard: guard }
    }

    /// Stops collecting and returns the finished spans.
    pub fn finish(self) -> Vec<SpanRecord> {
        TRACE_ON.store(false, Ordering::SeqCst);
        collector()
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
            .map(|s| s.records)
            .unwrap_or_default()
        // `self` drops here: the Drop impl finds the collector already
        // gone and only releases the session lock.
    }
}

impl Drop for TraceSession {
    fn drop(&mut self) {
        TRACE_ON.store(false, Ordering::SeqCst);
        let _ = collector().lock().unwrap_or_else(|e| e.into_inner()).take();
    }
}

/// Renders span records as Chrome trace viewer JSON (the
/// `{"traceEvents":[…]}` object format, loadable in `chrome://tracing`
/// and Perfetto): one `"ph":"X"` complete event per span.
pub fn chrome_trace_json(records: &[SpanRecord]) -> String {
    let mut out = String::with_capacity(64 + records.len() * 96);
    out.push_str("{\"traceEvents\":[");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"soct\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":1,\"tid\":{},\"args\":{{\"depth\":{}}}}}",
            r.name.replace('\\', "\\\\").replace('"', "\\\""),
            r.ts_us,
            r.dur_us,
            r.tid,
            r.depth
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_are_inert_without_a_session() {
        // Hold the session lock so no concurrently-running test can have
        // a live session while we probe the disabled path.
        let _g = SESSION_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        assert!(!TRACE_ON.load(Ordering::Relaxed));
        let s = span("orphan");
        assert!(s.start.is_none());
        drop(s);
    }

    #[test]
    fn sessions_collect_nested_spans_with_depth() {
        let session = TraceSession::start();
        {
            let _outer = span("outer");
            std::thread::sleep(std::time::Duration::from_millis(1));
            {
                let _inner = span("inner");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        // Spans other test threads open while the session is live land in
        // it too (sessions are process-global); keep this thread's own.
        let me = thread_id();
        let records: Vec<SpanRecord> = session
            .finish()
            .into_iter()
            .filter(|r| r.tid == me)
            .collect();
        let names: Vec<&str> = records.iter().map(|r| r.name).collect();
        // Completion order: inner closes first.
        assert_eq!(names, vec!["inner", "outer"]);
        let inner = &records[0];
        let outer = &records[1];
        assert_eq!(inner.depth, 1);
        assert_eq!(outer.depth, 0);
        assert!(inner.dur_us > 0 && outer.dur_us > 0);
        assert!(outer.ts_us <= inner.ts_us, "parent starts first");
        assert!(
            inner.ts_us + inner.dur_us <= outer.ts_us + outer.dur_us + 1000,
            "child nests inside parent (1ms slack for clock rounding)"
        );
        assert_eq!(inner.tid, outer.tid);
    }

    #[test]
    fn finish_uninstalls_the_collector() {
        // As above, only this thread's records are this test's.
        let me = thread_id();
        let own = |records: Vec<SpanRecord>| -> Vec<SpanRecord> {
            records.into_iter().filter(|r| r.tid == me).collect()
        };
        let session = TraceSession::start();
        drop(span("a"));
        let first = own(session.finish());
        assert_eq!(first.len(), 1);
        let session = TraceSession::start();
        let empty = own(session.finish());
        assert!(empty.is_empty(), "records do not leak across sessions");
    }

    #[test]
    fn chrome_json_shape() {
        let records = vec![
            SpanRecord {
                name: "check",
                ts_us: 0,
                dur_us: 10,
                tid: 0,
                depth: 0,
            },
            SpanRecord {
                name: "shapes",
                ts_us: 2,
                dur_us: 3,
                tid: 0,
                depth: 1,
            },
        ];
        let json = chrome_trace_json(&records);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"name\":\"check\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":2,\"dur\":3"));
        assert!(json.contains("\"args\":{\"depth\":1}"));
    }
}
