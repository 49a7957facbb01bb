//! Span recording for the traced run.
//!
//! The harness wraps every call it makes into the system in a span
//! (name, start, end, parent, request id). Spans are buffered per
//! thread, merged when the thread ends, kept in memory for the whole
//! pass and written out once at exit. The untraced run constructs a
//! disabled tracer, and recording then costs one branch.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Value;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// Id of the span that caused this one (0 = none).
    pub parent: u64,
    /// Spans of one request (a lookup batch, an update frame and its
    /// marker) share this.
    pub request: u64,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// A thread's private span buffer.
pub struct Local<'a> {
    tracer: &'a Tracer,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn local(&self) -> Local<'_> {
        Local {
            tracer: self,
            spans: Vec::new(),
        }
    }

    /// Reserves an id for a span that will be recorded when it ends
    /// (a phase or workload span, needed as `parent` by its children).
    pub fn reserve(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn span_count(&self) -> usize {
        self.spans.lock().expect("span store not poisoned").len()
    }

    /// Writes every span as one JSON document.
    pub fn write(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span store not poisoned");
        let mut doc = Value::obj();
        doc.set("schema", "clue-benchmark-trace/1")
            .set("workload", workload)
            .set("seed", seed)
            .set("unit", "us since tracer start")
            .set(
                "spans",
                spans
                    .iter()
                    .map(|s| {
                        let mut o = Value::obj();
                        o.set("id", s.id)
                            .set("parent", s.parent)
                            .set("request", s.request)
                            .set("name", s.name)
                            .set("start", s.start_us)
                            .set("end", s.end_us);
                        o
                    })
                    .collect::<Vec<_>>(),
            );
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, doc.render())
    }
}

impl Local<'_> {
    /// Records a finished span with a fresh id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.tracer.enabled {
            let id = self.tracer.reserve();
            self.record_as(id, name, parent, request, start, end);
        }
    }

    /// Records a finished span under an id from [`Tracer::reserve`].
    pub fn record_as(
        &mut self,
        id: u64,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.tracer.enabled {
            let us = |t: Instant| t.duration_since(self.tracer.origin).as_secs_f64() * 1e6;
            self.spans.push(Span {
                id,
                parent,
                request,
                name,
                start_us: us(start),
                end_us: us(end),
            });
        }
    }
}

impl Drop for Local<'_> {
    fn drop(&mut self) {
        if !self.spans.is_empty() {
            self.tracer
                .spans
                .lock()
                .expect("span store not poisoned")
                .append(&mut self.spans);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_merge_on_drop_and_disabled_tracer_records_nothing() {
        let t = Tracer::new(true);
        let parent = t.reserve();
        let start = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let mut local = t.local();
                    local.record("client.lookup", parent, 7, start, Instant::now());
                });
            }
        });
        t.local()
            .record_as(parent, "phase.read", 0, 0, start, Instant::now());
        assert_eq!(t.span_count(), 3);

        let off = Tracer::new(false);
        off.local().record("x", 0, 0, start, Instant::now());
        assert_eq!(off.span_count(), 0);
    }
}
