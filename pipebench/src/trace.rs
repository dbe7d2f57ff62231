//! In-memory spans for the traced run. The benchmark records one span per
//! call it makes into a layer (name, start, end, parent span, request id);
//! spans stay in per-thread buffers, merge into the [`Tracer`] when a
//! buffer drops, and are written out once at the end of the run. A span
//! may cover `calls` back-to-back calls of the same function, for
//! operations too short to time one by one.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<u64>,
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub calls: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// A span that has started but not ended.
pub struct Open {
    name: &'static str,
    id: u64,
    parent: Option<u64>,
    req: u64,
    start: Instant,
}

impl Open {
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// One thread's span buffer.
pub struct SpanBuf<'a> {
    tracer: &'a Tracer,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn buf(&self) -> SpanBuf<'_> {
        SpanBuf {
            tracer: self,
            spans: Vec::new(),
        }
    }

    /// Every span recorded so far, in id order.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().expect("span store poisoned").clone();
        v.sort_by_key(|s| s.id);
        v
    }

    /// Per-call self times (span duration minus its children's, divided
    /// by the calls it covers) grouped by span name.
    pub fn self_times_ns(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let spans = self.spans();
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for s in &spans {
            let own = s
                .dur_ns()
                .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            out.entry(s.name)
                .or_default()
                .push(own as f64 / s.calls.max(1) as f64);
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"req\":{},\"start_ns\":{},\"end_ns\":{},\"calls\":{}}}",
                s.name, s.id, parent, s.req, s.start_ns, s.end_ns, s.calls
            )?;
        }
        w.flush()
    }
}

impl SpanBuf<'_> {
    pub fn begin(&mut self, name: &'static str, parent: Option<u64>, req: u64) -> Open {
        Open {
            name,
            id: self.tracer.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            req,
            start: Instant::now(),
        }
    }

    /// Close `open` covering `calls` calls; returns its duration in ns.
    pub fn end_calls(&mut self, open: Open, calls: u64) -> u64 {
        let end = Instant::now();
        let origin = self.tracer.origin;
        let span = Span {
            name: open.name,
            id: open.id,
            parent: open.parent,
            req: open.req,
            start_ns: open.start.duration_since(origin).as_nanos() as u64,
            end_ns: end.duration_since(origin).as_nanos() as u64,
            calls,
        };
        self.spans.push(span);
        span.dur_ns()
    }

    pub fn end(&mut self, open: Open) -> u64 {
        self.end_calls(open, 1)
    }

    /// Time `f` as one span of `calls` calls; returns its result and the
    /// per-call duration in ns.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        req: u64,
        calls: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let open = self.begin(name, None, req);
        let out = f();
        let ns = self.end_calls(open, calls);
        (out, ns as f64 / calls.max(1) as f64)
    }
}

impl Drop for SpanBuf<'_> {
    fn drop(&mut self) {
        if let Ok(mut all) = self.tracer.spans.lock() {
            all.append(&mut self.spans);
        }
    }
}
