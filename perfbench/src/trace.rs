//! In-memory span recording, from the benchmark's side of each layer's
//! public API.
//!
//! A [`Span`] has a name, start and end (nanoseconds since the run's
//! epoch), the span that caused it, and the request it belongs to. Spans
//! stay in memory while the benchmark runs and are written out once, at
//! exit ([`Recorder::write_jsonl`]).
//!
//! [`TracedBackend`] is the one probe inside the serving stack: an
//! [`ExecutionBackend`] bound through `Compiler::with_backend` that times
//! each `run_sample_with_scratch` call of the backend it wraps and sums the
//! simulated cycles the call produced.

use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use spikestream::{ExecutionBackend, LayerSample, SampleContext};
use spikestream_kernels::LayerScratch;

/// `parent` / `request` value of a span that has none.
pub const NONE: u64 = u64::MAX;

/// Requests whose spans a traced run writes out (the first ones of its
/// timed phase). The per-layer metrics use every span recorded.
pub const KEEP_REQUESTS: u64 = 20_000;

/// Spans a recorder holds. A traced `gateway-hot` run evaluates millions of
/// samples; its per-layer figures come from the first million, which bounds
/// the memory tracing adds.
pub const MAX_SPANS: usize = 1 << 20;

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer boundary the span measures.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end: u64,
    /// Index of the causing span, or [`NONE`].
    pub parent: u64,
    /// Request the span belongs to, or [`NONE`].
    pub request: u64,
    /// Sample index evaluated (backend spans), or [`NONE`].
    pub sample: u64,
    /// Simulated cycles produced (backend spans), else 0.
    pub cycles: f64,
}

impl Span {
    /// Duration in microseconds.
    pub fn micros(&self) -> f64 {
        self.end.saturating_sub(self.start) as f64 / 1e3
    }
}

/// A shared, append-only span store with one time base.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Arc<Self> {
        Arc::new(Recorder { epoch: Instant::now(), spans: Mutex::new(Vec::with_capacity(1 << 16)) })
    }

    /// Nanoseconds since the epoch at `at`.
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Append a span, unless the store already holds [`MAX_SPANS`].
    pub fn push(&self, span: Span) {
        let mut spans = self.spans.lock().expect("span store poisoned");
        if spans.len() < MAX_SPANS {
            spans.push(span);
        }
    }

    /// Whether the store holds [`MAX_SPANS`] and drops further spans.
    pub fn is_full(&self) -> bool {
        self.spans.lock().expect("span store poisoned").len() >= MAX_SPANS
    }

    /// Take every span recorded so far, leaving the store empty.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span store poisoned"))
    }

    /// Write `spans` as JSON lines to `path`; `id` is the line index, which
    /// `parent` refers to.
    pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let id = |v: u64| if v == NONE { "null".to_string() } else { v.to_string() };
        for (i, span) in spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{},\"sample\":{},\"cycles\":{}}}",
                span.name,
                span.start,
                span.end,
                id(span.parent),
                id(span.request),
                id(span.sample),
                span.cycles
            )?;
        }
        out.flush()
    }
}

/// An [`ExecutionBackend`] that records one `backend.sample` span per call
/// into the backend it wraps. Results pass through untouched.
pub struct TracedBackend {
    inner: Box<dyn ExecutionBackend>,
    recorder: Arc<Recorder>,
}

impl TracedBackend {
    /// Wrap `inner`, recording into `recorder`.
    pub fn new(inner: Box<dyn ExecutionBackend>, recorder: Arc<Recorder>) -> Self {
        TracedBackend { inner, recorder }
    }
}

impl ExecutionBackend for TracedBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run_sample(&self, ctx: &SampleContext<'_>, sample: usize) -> Vec<LayerSample> {
        let mut out = Vec::new();
        self.run_sample_into(ctx, sample, &mut out);
        out
    }

    fn run_sample_into(&self, ctx: &SampleContext<'_>, sample: usize, out: &mut Vec<LayerSample>) {
        self.run_sample_with_scratch(ctx, sample, out, &mut LayerScratch::new());
    }

    fn run_sample_with_scratch(
        &self,
        ctx: &SampleContext<'_>,
        sample: usize,
        out: &mut Vec<LayerSample>,
        scratch: &mut LayerScratch,
    ) {
        let from = out.len();
        let start = Instant::now();
        self.inner.run_sample_with_scratch(ctx, sample, out, scratch);
        let end = Instant::now();
        let cycles = out[from..].iter().map(|l| l.cycles).sum();
        self.recorder.push(Span {
            name: "backend.sample",
            start: self.recorder.ns(start),
            end: self.recorder.ns(end),
            parent: NONE,
            request: NONE,
            sample: sample as u64,
            cycles,
        });
    }
}
