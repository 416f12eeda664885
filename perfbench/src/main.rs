//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <gateway-fresh|gateway-hot|scenario-temporal|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Every input derives from `--seed`. With
//! `--trace 0` the run measures the end-to-end metrics with no probe in
//! the program. With `--trace 1` it measures them once untraced in a child
//! process, then again in this one with spans recorded around each layer's
//! public API, and reports the per-layer metrics plus
//! `trace_overhead_frac.*` (traced vs untraced).
//!
//! Output: human-readable lines, then one `{"record": ...}` line with
//! provenance and every figure (also appended to `.bench_out/runs.jsonl`),
//! and last the result line
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! The exit code is non-zero when any output differs from its contract.

mod gateway;
mod outcome;
mod scenario;
mod schedule;
mod stats;
mod trace;

use std::io::Write;
use std::path::Path;
use std::process::Command;
use std::process::Stdio;
use std::sync::Arc;

use outcome::{Metrics, Outcome};
use trace::Recorder;

/// The workloads, in `all` order.
const WORKLOADS: [&str; 3] = ["gateway-fresh", "gateway-hot", "scenario-temporal"];

/// Figures every workload measures with tracing off, with the per-layer
/// name of each one's tracing overhead. All but [`TAIL`] are the
/// end-to-end metrics of the result line.
const MEASURED: [(&str, &str, &str); 6] = [
    ("setup_s", "s", "trace_overhead_frac.setup_s"),
    ("latency_p50_ms", "ms", "trace_overhead_frac.latency_p50_ms"),
    ("latency_p99_ms", "ms", "trace_overhead_frac.latency_p99_ms"),
    ("throughput_rps", "1/s", "trace_overhead_frac.throughput_rps"),
    ("samples_per_s", "1/s", "trace_overhead_frac.samples_per_s"),
    ("peak_rss_mb", "MiB", "trace_overhead_frac.peak_rss_mb"),
];

/// The tail latency is recorded with every run and reported with the
/// per-layer metrics, but carries no regression bound: on a shared 2-vCPU
/// host its run-to-run spread is wider than any usable bound.
const TAIL: &str = "latency_p99_ms";

/// Per-layer metrics: reported by every traced run. A layer a workload
/// does not pass through reads 0.
const PER_LAYER: [(&str, &str); 31] = [
    (TAIL, "ms"),
    ("plan.network_build_s", "s"),
    ("plan.compiler_clone_s", "s"),
    ("plan.compile_s", "s"),
    ("serve.publish_s", "s"),
    ("gateway.submit_us_p50", "us"),
    ("gateway.queue_wait_us_p50", "us"),
    ("gateway.queue_wait_us_p99", "us"),
    ("gateway.handoff_us_p50", "us"),
    ("gateway.batch_samples_mean", "samples"),
    ("gateway.coalesced_frac", "ratio"),
    ("gateway.rejected", "count"),
    ("gateway.overhead_ratio", "ratio"),
    ("gen.late_ms_p99", "ms"),
    ("gen.backlog_end", "count"),
    ("session.batch_service_us_p50", "us"),
    ("session.arena_grows", "count"),
    ("pool.wakeups", "1/sample"),
    ("pool.steals", "1/sample"),
    ("pool.park_ms", "ms/s"),
    ("backend.sample_us_p50", "us"),
    ("backend.sample_us_p99", "us"),
    ("cache.hits", "1/sample"),
    ("cache.rebinds", "1/sample"),
    ("cache.emits", "1/sample"),
    ("cache.hit_frac", "ratio"),
    ("cache.resident", "count"),
    ("kernels.lower_symbolic_us", "us"),
    ("ir.integrate_us", "us"),
    ("report.fold_us_p50", "us"),
    ("sim.mcycles_per_host_s", "Mcycle/s"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("bad {flag} value `{value}`"));
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?} or `all`"));
    }
    Ok(args)
}

fn run_workload(
    workload: &str,
    seed: u64,
    seconds: u64,
    recorder: Option<Arc<Recorder>>,
) -> Result<Outcome, String> {
    match workload {
        "gateway-fresh" => Ok(gateway::fresh(seed, seconds, recorder)),
        "gateway-hot" => Ok(gateway::hot(seed, seconds, recorder)),
        _ => scenario::temporal(seed, seconds, recorder),
    }
}

/// A finite JSON number: failures rank as +infinity, which JSON cannot
/// spell, so they print as 1e300 (and 1e300 read back from a child run
/// prints the same way).
fn num(v: f64) -> String {
    if v.abs() < 1e300 {
        format!("{v}")
    } else {
        "1e300".to_string()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json(metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(m.name),
                num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// First line of a command's standard output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn provenance_json(args: &Args, outcome: &Outcome) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let phases: Vec<String> = outcome
        .phases
        .iter()
        .map(|p| {
            format!(
                "{{\"phase\":\"{}\",\"sent\":{},\"succeeded\":{},\"failed\":{}}}",
                p.name, p.sent, p.succeeded, p.failed
            )
        })
        .collect();
    format!(
        "{{\"nproc\":{nproc},\"git_rev\":{},\"rustc\":{},\"seed\":{},\"seconds\":{},\"offered_rate_rps\":{},\"phases\":[{}]}}",
        json_str(&command_line("git", &["rev-parse", "HEAD"])),
        json_str(&command_line("rustc", &["-V"])),
        args.seed,
        args.seconds,
        outcome.offered_rate.map_or("null".to_string(), num),
        phases.join(",")
    )
}

/// What a child run of this benchmark printed.
struct Child {
    /// Standard output lines before the result line.
    lines: Vec<String>,
    correct: bool,
    attempted: u64,
    failed: u64,
}

impl Child {
    /// `(name, value, unit)` of each metric line the child printed for
    /// `workload` (`<workload> <name> <value> <unit>`).
    fn metrics<'a>(
        &'a self,
        workload: &'a str,
    ) -> impl Iterator<Item = (&'a str, &'a str, &'a str)> {
        self.lines.iter().filter_map(move |line| {
            match line.split_whitespace().collect::<Vec<_>>()[..] {
                [w, name, value, unit] if w == workload && !name.starts_with("n(") => {
                    Some((name, value, unit))
                }
                _ => None,
            }
        })
    }
}

/// Run `workload` in a child process of this benchmark and wait for it.
fn run_child(workload: &str, args: &Args, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(&exe)
        .args(["--workload", workload, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<String> = stdout.lines().map(str::to_string).collect();
    let result = lines.pop().unwrap_or_default();
    let field = |key: &str| -> Option<&str> {
        let at = result.find(&format!("\"{key}\":"))? + key.len() + 3;
        let end = result[at..].find([',', '}']).map_or(result.len(), |e| at + e);
        Some(&result[at..end])
    };
    Ok(Child {
        correct: output.status.success() && field("correct") == Some("true"),
        attempted: field("attempted").and_then(|v| v.parse().ok()).unwrap_or(0),
        failed: field("failed").and_then(|v| v.parse().ok()).unwrap_or(1),
        lines,
    })
}

/// Run one workload and print its record and result. A traced run first
/// measures the untraced pass in a child process of its own, so that this
/// process's peak RSS, heap and caches belong to the traced pass alone.
fn run_one(args: &Args) -> Result<bool, String> {
    // The record keeps every figure; the result line only the set the
    // trace flag selects.
    let (mut recorded, mut reported) = (Metrics::default(), Metrics::default());
    let mut record = if args.trace {
        let child = run_child(&args.workload, args, false)?;
        child.lines.iter().for_each(|line| println!("{line}"));
        let mut base = Metrics::default();
        for (name, value, _) in child.metrics(&args.workload) {
            if let Some(&(name, unit, _)) = MEASURED.iter().find(|m| m.0 == name) {
                base.set(name, value.parse().unwrap_or(f64::INFINITY), unit);
            }
        }
        let recorder = Recorder::new();
        let mut traced =
            run_workload(&args.workload, args.seed, args.seconds, Some(Arc::clone(&recorder)))?;
        for (name, unit) in PER_LAYER {
            let value = traced.layers.get(name).or_else(|| base.get(name));
            reported.set(name, value.unwrap_or(0.0), unit);
        }
        for (name, _, overhead) in MEASURED {
            let (without, with) =
                (base.get(name).unwrap_or(0.0), traced.e2e.get(name).unwrap_or(0.0));
            let frac = if without != 0.0 { with / without - 1.0 } else { 0.0 };
            reported.set(overhead, frac, "ratio");
        }
        std::fs::create_dir_all(".bench_out")
            .map_err(|e| format!("cannot create .bench_out: {e}"))?;
        let path = format!(".bench_out/trace-{}-seed{}.jsonl", args.workload, args.seed);
        Recorder::write_jsonl(Path::new(&path), &traced.spans)
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote {} spans to {path}", traced.spans.len());
        for phase in &mut traced.phases {
            phase.name = if phase.name == "timed" { "traced-timed" } else { "traced-check" };
        }
        traced.phases.push(outcome::Phase {
            name: "untraced",
            sent: child.attempted,
            succeeded: child.attempted.saturating_sub(child.failed),
            failed: child.failed,
        });
        if !child.correct {
            traced.incorrect.push("the untraced pass reported a mismatch".to_string());
        }
        recorded = reported.clone();
        traced
    } else {
        let mut untraced = run_workload(&args.workload, args.seed, args.seconds, None)?;
        for (name, unit, _) in MEASURED {
            let value = untraced
                .e2e
                .get(name)
                .ok_or_else(|| format!("{} did not measure {name}", args.workload))?;
            recorded.set(name, value, unit);
            if name != TAIL {
                reported.set(name, value, unit);
            }
        }
        let needed = stats::min_samples(99.0);
        let made = untraced.counts.iter().find(|(name, _)| *name == "latency").map(|c| c.1);
        if let Some(n) = made.filter(|&n| n < needed) {
            untraced
                .invalid
                .push(format!("latency_p99_ms needs {needed} requests, the run made {n}"));
        }
        untraced
    };
    if args.trace {
        // The untraced figures are the child's own record.
        record.counts.retain(|(name, _)| *name != "latency" && *name != "bursts");
    }

    for metric in &recorded.0 {
        println!(
            "{:<18} {:<36} {:>16} {}",
            args.workload,
            metric.name,
            num(metric.value),
            metric.unit
        );
    }
    let correct = record.incorrect.is_empty();
    let (attempted, failed) = (record.attempted(), record.failed());
    let failed_frac = failed as f64 / attempted.max(1) as f64;
    println!("{:<18} {:<36} {:>16} ratio", args.workload, "failed_frac", num(failed_frac));
    for (name, n) in &record.counts {
        println!("{:<18} {:<36} {:>16} samples", args.workload, format!("n({name})"), n);
    }
    for note in record.invalid.iter().chain(&record.incorrect) {
        eprintln!("{}: {note}", args.workload);
    }
    let counts: Vec<String> =
        record.counts.iter().map(|(n, c)| format!("{}:{c}", json_str(n))).collect();
    let notes: Vec<String> =
        record.invalid.iter().chain(&record.incorrect).map(|s| json_str(s)).collect();
    let line = format!(
        "{{\"record\":{{\"workload\":{},\"seed\":{},\"trace\":{},\"valid\":{},\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"failed_frac\":{},\"provenance\":{},\"sample_counts\":{{{}}},\"notes\":[{}],\"metrics\":{}}}}}",
        json_str(&args.workload),
        args.seed,
        u8::from(args.trace),
        record.invalid.is_empty(),
        num(failed_frac),
        provenance_json(args, &record),
        counts.join(","),
        notes.join(","),
        metrics_json(&recorded),
    );
    println!("{line}");
    if std::fs::create_dir_all(".bench_out").is_ok() {
        if let Ok(mut file) =
            std::fs::OpenOptions::new().create(true).append(true).open(".bench_out/runs.jsonl")
        {
            let _ = writeln!(file, "{line}");
        }
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        metrics_json(&reported)
    );
    Ok(correct)
}

/// `--workload all`: every workload in its own child process (so each
/// reports its own peak RSS), one after another; the result line merges
/// them with metrics prefixed by workload.
fn run_all(args: &Args) -> Result<bool, String> {
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut merged = Vec::new();
    for workload in WORKLOADS {
        let child = run_child(workload, args, args.trace)?;
        child.lines.iter().for_each(|line| println!("{line}"));
        for (name, value, unit) in child.metrics(workload) {
            merged.push(format!(
                "{}:{{\"value\":{value},\"unit\":{}}}",
                json_str(&format!("{workload}/{name}")),
                json_str(unit)
            ));
        }
        correct &= child.correct;
        attempted += child.attempted;
        failed += child.failed;
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        merged.join(",")
    );
    Ok(correct)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };
    let result = if args.workload == "all" { run_all(&args) } else { run_one(&args) };
    match result {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    }
}
