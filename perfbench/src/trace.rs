//! The benchmark's own tracing: spans recorded around each call into a
//! layer's public function, kept in memory and written out when the run
//! ends. All spans of one request share its id; per-layer self times are
//! summed over every traced request.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// A span's layer. `Request` is the root of each request; `Optimize` is
/// the facade call, whose children `MemoReset`, `ContextBuild` and
/// `Enumerate` are derived (see `Tracer::derived`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Request,
    SqlParse,
    SqlBind,
    Fingerprint,
    CacheProbe,
    MemoReset,
    Optimize,
    ContextBuild,
    Enumerate,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Request => "request",
            Layer::SqlParse => "sql.parse",
            Layer::SqlBind => "sql.bind",
            Layer::Fingerprint => "serve.fingerprint",
            Layer::CacheProbe => "serve.cache_probe",
            Layer::MemoReset => "core.memo_reset",
            Layer::Optimize => "core.optimize",
            Layer::ContextBuild => "core.context_build",
            Layer::Enumerate => "core.enumerate",
        }
    }

    /// Layers reported with their own self time; everything else in a
    /// request (the root's and `Optimize`'s self time) is `core.other`.
    pub const NAMED: [Layer; 7] = [
        Layer::SqlParse,
        Layer::SqlBind,
        Layer::Fingerprint,
        Layer::CacheProbe,
        Layer::MemoReset,
        Layer::ContextBuild,
        Layer::Enumerate,
    ];

    fn slot(self) -> Option<usize> {
        Layer::NAMED.iter().position(|&l| l == self)
    }
}

#[derive(Debug, Clone, Copy)]
struct Span {
    request: u64,
    layer: Layer,
    parent: Option<Layer>,
    start_ns: u64,
    dur_ns: u64,
    derived: bool,
}

/// Sums over every finished request.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub requests: u64,
    pub request_ns: u64,
    /// Self time per [`Layer::NAMED`] entry.
    pub self_ns: [u64; 7],
}

impl Totals {
    /// Mean self time per request of `layer`, in microseconds.
    pub fn mean_us(&self, layer: Layer) -> f64 {
        let ns = layer.slot().map_or(0, |s| self.self_ns[s]);
        ns as f64 / self.requests.max(1) as f64 / 1e3
    }

    /// Mean request latency minus every named layer: the remainder that
    /// makes the layers add up to the request.
    pub fn other_us(&self) -> f64 {
        self.request_us() - Layer::NAMED.iter().map(|&l| self.mean_us(l)).sum::<f64>()
    }

    pub fn request_us(&self) -> f64 {
        self.request_ns as f64 / self.requests.max(1) as f64 / 1e3
    }
}

/// One request in flight.
pub struct Req {
    id: u64,
    start: Instant,
    end: Option<Instant>,
    optimize_start_ns: u64,
    self_ns: [u64; 7],
}

/// Span recorder. Keeps at most `cap` spans; totals cover every request
/// regardless.
pub struct Tracer {
    origin: Instant,
    next: u64,
    cap: usize,
    spans: Vec<Span>,
    pub totals: Totals,
}

impl Tracer {
    pub fn new(cap: usize) -> Tracer {
        Tracer {
            origin: Instant::now(),
            next: 0,
            cap,
            spans: Vec::with_capacity(cap.min(1 << 16)),
            totals: Totals::default(),
        }
    }

    fn offset(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    fn record(&mut self, span: Span) {
        if self.spans.len() < self.cap {
            self.spans.push(span);
        }
    }

    pub fn begin(&mut self) -> Req {
        let id = self.next;
        self.next += 1;
        Req {
            id,
            start: Instant::now(),
            end: None,
            optimize_start_ns: 0,
            self_ns: [0; 7],
        }
    }

    /// Run `f` inside a span of `layer`, a child of the request.
    pub fn span<T>(&mut self, req: &mut Req, layer: Layer, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let dur = t0.elapsed().as_nanos() as u64;
        let start_ns = self.offset(t0);
        if layer == Layer::Optimize {
            req.optimize_start_ns = start_ns;
        }
        if let Some(s) = layer.slot() {
            req.self_ns[s] += dur;
        }
        self.record(Span {
            request: req.id,
            layer,
            parent: Some(Layer::Request),
            start_ns,
            dur_ns: dur,
            derived: false,
        });
        out
    }

    /// A child of the request's `Optimize` span whose duration was
    /// measured elsewhere: `Enumerate` by the optimizer itself
    /// (`Optimized::elapsed`), `MemoReset` and `ContextBuild` by calls of
    /// `Memo::reset` and `OptContext::new` for the same query outside the
    /// request.
    pub fn derived(&mut self, req: &mut Req, layer: Layer, offset: Duration, dur: Duration) {
        let dur = dur.as_nanos() as u64;
        req.self_ns[layer.slot().expect("derived spans are named layers")] += dur;
        self.record(Span {
            request: req.id,
            layer,
            parent: Some(Layer::Optimize),
            start_ns: req.optimize_start_ns + offset.as_nanos() as u64,
            dur_ns: dur,
            derived: true,
        });
    }

    /// Mark the end of the request (before any side measurement).
    pub fn stop(&mut self, req: &mut Req) {
        req.end = Some(Instant::now());
    }

    pub fn finish(&mut self, req: Req) {
        let end = req.end.expect("request stopped before finish");
        let dur = end.duration_since(req.start).as_nanos() as u64;
        self.totals.requests += 1;
        self.totals.request_ns += dur;
        for (a, b) in self.totals.self_ns.iter_mut().zip(req.self_ns) {
            *a += b;
        }
        let start_ns = self.offset(req.start);
        self.record(Span {
            request: req.id,
            layer: Layer::Request,
            parent: None,
            start_ns,
            dur_ns: dur,
            derived: false,
        });
    }

    /// Write every kept span as JSON lines.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                w,
                "{{\"request\":{},\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"dur_ns\":{},\"derived\":{}}}",
                s.request,
                s.layer.name(),
                s.parent.map_or("null".to_string(), |p| format!("\"{}\"", p.name())),
                s.start_ns,
                s.dur_ns,
                s.derived
            )?;
        }
        w.flush()
    }
}
