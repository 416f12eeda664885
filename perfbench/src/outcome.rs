//! What one workload run produces, and the shared set-up timing record.

use crate::stats::{median, Histogram};
use crate::trace::Span;

/// One named figure with its unit.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit spelling.
    pub unit: &'static str,
}

/// An ordered set of metrics; setting a name twice keeps the last value.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Set `name` to `value`.
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        match self.0.iter_mut().find(|m| m.name == name) {
            Some(metric) => *metric = Metric { name, value, unit },
            None => self.0.push(Metric { name, value, unit }),
        }
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Requests sent, succeeded and failed in one phase of a run.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// `timed` (the measured traffic) or `check` (the correctness replay).
    pub name: &'static str,
    /// Operations attempted.
    pub sent: u64,
    /// Operations that completed with a correct result.
    pub succeeded: u64,
    /// Operations that failed, were refused, or mismatched.
    pub failed: u64,
}

/// Everything one workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics of the run.
    pub e2e: Metrics,
    /// Per-layer metrics (filled only by traced runs).
    pub layers: Metrics,
    /// Per-phase operation counts.
    pub phases: Vec<Phase>,
    /// Sample count behind each reported percentile.
    pub counts: Vec<(&'static str, usize)>,
    /// Open-loop offered rate, in requests per second.
    pub offered_rate: Option<f64>,
    /// Validity-guard violations: the run measured something other than
    /// what the workload claims (a growing backlog, say).
    pub invalid: Vec<String>,
    /// Correctness failures: outputs that differ from the contract.
    pub incorrect: Vec<String>,
    /// Spans recorded by a traced run.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Record the end-to-end figures of a timed phase that lasted `elapsed`
    /// seconds. `latency` holds one entry per attempted request, +∞ for a
    /// failed or refused one; `samples` counts the samples of the requests
    /// that succeeded.
    pub fn timed_phase(&mut self, latency: &Histogram, samples: u64, elapsed: f64) {
        let ok = latency.len() - latency.failed();
        let pct = |p| latency.percentile(p).unwrap_or(f64::INFINITY);
        self.e2e.set("latency_p50_ms", pct(50.0), "ms");
        self.e2e.set("latency_p99_ms", pct(99.0), "ms");
        self.e2e.set("throughput_rps", ok as f64 / elapsed, "1/s");
        self.e2e.set("samples_per_s", samples as f64 / elapsed, "1/s");
        self.e2e.set("peak_rss_mb", peak_rss_mb(), "MiB");
        self.counts.push(("latency", latency.len()));
        self.phases.push(Phase {
            name: "timed",
            sent: latency.len() as u64,
            succeeded: ok as u64,
            failed: latency.failed() as u64,
        });
    }

    /// Operations attempted across all phases.
    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|p| p.sent).sum()
    }

    /// Operations failed, refused or mismatched across all phases.
    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.failed).sum()
    }
}

/// Wall-clock seconds of each set-up stage, one entry per repetition.
#[derive(Debug, Default)]
pub struct SetupTimes {
    /// Building the network and firing profile.
    pub network_build: Vec<f64>,
    /// `Engine::compiler`: cloning the network into a compiler.
    pub compiler_clone: Vec<f64>,
    /// `Compiler::compile`.
    pub compile: Vec<f64>,
    /// `Gateway::new` plus `Gateway::publish` (gateway workloads only).
    pub publish: Vec<f64>,
    /// Everything up to ready-to-serve.
    pub total: Vec<f64>,
}

impl SetupTimes {
    /// Record the medians: `setup_s` as an end-to-end metric, the stages
    /// as per-layer metrics.
    pub fn report(&self, outcome: &mut Outcome) {
        let med = |v: &[f64]| median(v).unwrap_or(0.0);
        outcome.e2e.set("setup_s", med(&self.total), "s");
        outcome.layers.set("plan.network_build_s", med(&self.network_build), "s");
        outcome.layers.set("plan.compiler_clone_s", med(&self.compiler_clone), "s");
        outcome.layers.set("plan.compile_s", med(&self.compile), "s");
        outcome.layers.set("serve.publish_s", med(&self.publish), "s");
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
