//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each
//! crate's public functions (outside-in): every span has a name, a
//! layer category, start and end, and the span that caused it. They
//! stay in memory until the run ends and are then written as Chrome
//! trace-event JSON, which Perfetto and `chrome://tracing` open.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use tta_campaignd::json::Json;

/// One finished span; times are microseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub cat: &'static str,
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    pub tid: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_us - self.start_us) / 1e6
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    // Relaxed: a unique-id counter publishes no other data.
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Open spans on this thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    // Relaxed: a unique-id counter publishes no other data.
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// The innermost open span on the calling thread.
    pub fn current() -> Option<u64> {
        OPEN.with(|open| open.borrow().last().copied())
    }

    /// Runs `f` inside a span whose parent is the innermost open span on
    /// this thread.
    pub fn span<T>(&self, cat: &'static str, name: impl Into<String>, f: impl FnOnce() -> T) -> T {
        self.span_under(Self::current(), cat, name, f)
    }

    /// Runs `f` inside a span with an explicit parent — for work a
    /// library runs on its own worker threads.
    pub fn span_under<T>(
        &self,
        parent: Option<u64>,
        cat: &'static str,
        name: impl Into<String>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        OPEN.with(|open| open.borrow_mut().push(id));
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        OPEN.with(|open| open.borrow_mut().pop());
        let span = Span {
            id,
            parent,
            cat,
            name: name.into(),
            start_us: (start - self.origin).as_secs_f64() * 1e6,
            end_us: (end - self.origin).as_secs_f64() * 1e6,
            tid: TID.with(|t| *t),
        };
        self.spans.lock().expect("span list lock").push(span);
        out
    }

    /// A copy of every finished span, ordered by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span list lock").clone();
        spans.sort_by(|a, b| a.start_us.total_cmp(&b.start_us).then(a.id.cmp(&b.id)));
        spans
    }

    /// Total seconds of the finished spans whose name starts with
    /// `prefix`.
    pub fn total(&self, prefix: &str) -> f64 {
        self.spans()
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .map(Span::secs)
            .sum()
    }

    /// Self time of span `id` in seconds: its duration minus the part of
    /// its interval that its children cover (overlapping children on
    /// different threads count once).
    pub fn self_time(&self, id: u64) -> f64 {
        let spans = self.spans();
        let Some(span) = spans.iter().find(|s| s.id == id) else {
            return 0.0;
        };
        let mut children: Vec<(f64, f64)> = spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_us.max(span.start_us), s.end_us.min(span.end_us)))
            .collect();
        children.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut reach = span.start_us;
        for (start, end) in children {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        (span.end_us - span.start_us - covered) / 1e6
    }

    /// The spans as a Chrome trace-event document (complete `X`
    /// events), with `metadata` under `otherData`.
    pub fn chrome_json(&self, metadata: Json) -> String {
        let events = self
            .spans()
            .into_iter()
            .map(|s| {
                let mut args = vec![("id".to_string(), Json::UInt(s.id))];
                if let Some(parent) = s.parent {
                    args.push(("parent".to_string(), Json::UInt(parent)));
                }
                Json::Obj(vec![
                    ("name".to_string(), Json::str(s.name)),
                    ("cat".to_string(), Json::str(s.cat)),
                    ("ph".to_string(), Json::str("X")),
                    ("ts".to_string(), Json::Float(s.start_us)),
                    ("dur".to_string(), Json::Float(s.end_us - s.start_us)),
                    ("pid".to_string(), Json::UInt(u64::from(std::process::id()))),
                    ("tid".to_string(), Json::UInt(s.tid)),
                    ("args".to_string(), Json::Obj(args)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("traceEvents".to_string(), Json::Arr(events)),
            ("displayTimeUnit".to_string(), Json::str("ms")),
            ("otherData".to_string(), metadata),
        ])
        .render()
    }
}

/// Runs `f` inside a span when tracing, plainly otherwise.
pub fn span<T>(
    tracer: Option<&Tracer>,
    cat: &'static str,
    name: impl Into<String>,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(t) => t.span(cat, name, f),
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let tracer = Tracer::default();
        tracer.span("bench", "outer", || {
            tracer.span("core", "inner", || {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let spans = tracer.spans();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert!(tracer.self_time(outer.id) < outer.secs() - 0.015);
        let doc = Json::parse(&tracer.chrome_json(Json::Obj(vec![]))).unwrap();
        assert_eq!(
            doc.get("traceEvents")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(2)
        );
    }
}
