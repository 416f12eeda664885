//! `spikestream` — the sharded batch-inference driver CLI.
//!
//! `figures` regenerates the paper's figures as text tables. The other
//! four subcommands are driven by declarative scenario files
//! (`examples/scenarios/*.toml`):
//!
//! * `run` — serve one scenario as a sharded session request and print
//!   the per-layer report plus the fleet statistics (or `--json`);
//! * `bench` — sweep the same scenario over several shard counts and
//!   report makespan, utilization, imbalance and effective speedup;
//! * `compare` — run the scenario under both code variants (baseline vs
//!   SpikeStream) and print per-layer and end-to-end speedups;
//! * `serve-demo` — publish the scenario to a `spikestream-serve` gateway
//!   and drive it from K concurrent client threads, printing the gateway
//!   counters plus per-request latency percentiles.

use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use spikestream::experiments::{self, PAPER_BATCH};
use spikestream::scenario::{Limit, KEY_REFERENCE};
use spikestream::{InferenceReport, Request, Scenario, WorkloadMode};
use spikestream_serve::{Gateway, GatewayConfig, ResponseHandle, ServeError, BATCH_HIST_LABELS};

const USAGE: &str = "\
spikestream — sharded batch-inference driver for the SpikeStream reproduction

USAGE:
    spikestream run <scenario.toml> [--shards N] [--batch N] [--timesteps N] [--workers N] [--json]
    spikestream bench <scenario.toml> [--shards N1,N2,...] [--timesteps N]
    spikestream compare <scenario.toml> [--shards N] [--timesteps N]
    spikestream serve-demo <scenario.toml> [--clients K] [--requests-per-client M]
                           [--max-batch B] [--queue-cap C] [--json]
    spikestream figures [FIG ...] [--batch N]
    spikestream help

Scenario files are a strict TOML subset; see examples/scenarios/ for
checked-in examples and `spikestream help` for the key reference. Numbers
are written as in scenario files: decimal or 0x hex, `_` between digits.

OPTIONS:
    --shards N        Override the scenario's shard count (1..=1024; for
                      bench: a comma-separated list, default 1,2,4,8)
    --batch N         Override the scenario's batch size (>= 1)
    --timesteps N     Run the temporal pipeline for N timesteps (>= 1; real
                      spike propagation with persistent membranes; keeps the
                      scenario's encoding, or direct coding by default)
    --workers N       Serve the request with N host worker threads (1..=256;
                      default: host parallelism; 1 = strictly sequential;
                      the report is bit-identical for every worker count)
    --json            Print the deterministic report JSON instead of tables
                      (for serve-demo: counters + result digest, latencies
                      excluded)

SERVE-DEMO OPTIONS (defaults come from the scenario's [serve] table):
    --clients K             Concurrent submitter threads (1..=256; default 4)
    --requests-per-client M Single-sample requests per client (1..=65536;
                            default 8); K*M must lie in 1..=65536 too
    --max-batch B           Close a micro-batch at B samples (1..=4194304)
    --queue-cap C           Bounded per-tenant queue capacity (1..=65536;
                            the demo raises it to K*M so the paced phase
                            never blocks)

FIGURES (the paper's S-VGG11 evaluation on the analytic backend):
    FIG               3a | 3b | 3c | 4 | 5 | 5a | 5b | headline | ablation
                      (default: all seven tables, in paper order)
    --batch N         Batch samples per configuration (1..=524288;
                      default 128)
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().map(String::as_str) else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match command {
        "run" => cmd_run(&args[1..]),
        "bench" => cmd_bench(&args[1..]),
        "compare" => cmd_compare(&args[1..]),
        "serve-demo" => cmd_serve_demo(&args[1..]),
        "figures" => cmd_figures(&args[1..]),
        "help" | "--help" | "-h" => {
            print!("{USAGE}\n{KEY_REFERENCE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown subcommand `{other}`\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// What a flag does with the value after it.
#[derive(Clone, Copy)]
enum Action {
    /// Overrides `[section] key` through `Scenario::set` once the scenario
    /// file is read, so the flag takes what the key takes.
    Key(&'static str, &'static str),
    /// A number only the CLI takes, within its `Limit` row.
    Number(Limit),
    /// `bench`'s comma-separated shard counts, each within `Limit::SHARDS`.
    ShardList,
    /// `--json`, which takes no value.
    Json,
}

/// The flags one subcommand accepts; any other flag is an error.
type Flags = &'static [(&'static str, Action)];

const RUN: Flags = &[
    ("--shards", Action::Key("scenario", "shards")),
    ("--batch", Action::Key("scenario", "batch")),
    ("--timesteps", Action::Key("scenario", "timesteps")),
    ("--workers", Action::Number(Limit::WORKERS)),
    ("--json", Action::Json),
];
const BENCH: Flags = &[
    ("--shards", Action::ShardList),
    ("--batch", Action::Key("scenario", "batch")),
    ("--timesteps", Action::Key("scenario", "timesteps")),
];
const COMPARE: Flags = &[
    ("--shards", Action::Key("scenario", "shards")),
    ("--batch", Action::Key("scenario", "batch")),
    ("--timesteps", Action::Key("scenario", "timesteps")),
];
const SERVE_DEMO: Flags = &[
    ("--clients", Action::Number(Limit::CLIENTS)),
    ("--requests-per-client", Action::Number(Limit::REQUESTS_PER_CLIENT)),
    ("--max-batch", Action::Key("serve", "max_batch")),
    ("--queue-cap", Action::Key("serve", "queue_cap")),
    ("--json", Action::Json),
];
const FIGURES: Flags = &[("--batch", Action::Number(Limit::FIGURES_BATCH))];

/// A subcommand's parsed arguments.
#[derive(Default)]
struct Options {
    /// Positional arguments: the scenario file, or the figures to print.
    positional: Vec<String>,
    /// `(section, key, value)` overrides, in flag order.
    overrides: Vec<(&'static str, &'static str, String)>,
    /// CLI-only numbers, with the `Limit` row of the flag that gave each.
    numbers: Vec<(Limit, usize)>,
    /// `bench --shards`.
    shard_list: Option<Vec<usize>>,
    json: bool,
}

/// Parse a subcommand's arguments against the flags it accepts.
fn parse(flags: Flags, args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let Some(&(flag, action)) = flags.iter().find(|(name, _)| *name == *arg) else {
            if arg.starts_with('-') {
                return Err(format!("unknown flag `{arg}`"));
            }
            opts.positional.push(arg.clone());
            continue;
        };
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match action {
            Action::Key(section, key) => opts.overrides.push((section, key, value()?.clone())),
            Action::Number(limit) => opts.numbers.push((limit, limit.parse(value()?)?)),
            Action::ShardList => {
                let list = value()?.split(',').map(|n| Limit::SHARDS.parse(n.trim()));
                opts.shard_list = Some(list.collect::<Result<_, _>>()?);
            }
            Action::Json => opts.json = true,
        }
    }
    Ok(opts)
}

impl Options {
    /// The scenario file the arguments name, with the flag overrides set
    /// through `Scenario::set` in the order given.
    fn scenario(&self) -> Result<Scenario, String> {
        let path = match self.positional.as_slice() {
            [path] => path,
            [] => return Err(format!("missing scenario file\n\n{USAGE}")),
            [_, extra, ..] => return Err(format!("unexpected argument `{extra}`")),
        };
        let mut scenario = Scenario::from_file(Path::new(path)).map_err(|e| e.to_string())?;
        for (section, key, value) in &self.overrides {
            scenario.set(section, key, value).map_err(|e| e.message)?;
        }
        Ok(scenario)
    }

    /// The number the flag bounded by `limit` gave (the last one, if
    /// repeated).
    fn number(&self, limit: Limit) -> Option<usize> {
        self.numbers.iter().rev().find(|(row, _)| *row == limit).map(|&(_, n)| n)
    }
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let opts = parse(RUN, args)?;
    let scenario = opts.scenario()?;
    // Compile once, then serve the request through a session — the CLI
    // never assembles backends by hand and never re-lowers per call.
    let plan = scenario.compile().map_err(|e| e.to_string())?;
    let mut request = scenario.request();
    if let Some(workers) = opts.number(Limit::WORKERS) {
        request = request.with_workers(workers);
    }
    let mut session = plan.open_session();
    let report = session.infer(&request);
    if opts.json {
        // The JSON report is a golden-pinned byte-exact contract; serving
        // diagnostics stay on the human-readable table path only.
        println!("{}", report.to_json());
        return Ok(());
    }
    let mode = match scenario.config.mode {
        WorkloadMode::Synthetic => "synthetic".to_string(),
        WorkloadMode::Temporal { timesteps, encoding } => {
            format!("temporal T={timesteps} ({encoding})")
        }
    };
    let neuron = scenario.neuron.map_or("lif", |m| m.as_str());
    println!(
        "scenario `{}`: {} · {} · {} · {} neurons · batch {} · {} shard(s) · {}",
        scenario.name,
        report.network,
        report.variant,
        report.format,
        neuron,
        report.batch,
        scenario.shards,
        mode,
    );
    print_layer_table(&report);
    print_timestep_table(&report);
    print_shard_table(&report);
    print_serving_stats(&plan, &session);
    Ok(())
}

fn cmd_bench(args: &[String]) -> Result<(), String> {
    let opts = parse(BENCH, args)?;
    let scenario = opts.scenario()?;
    let shard_counts = opts.shard_list.unwrap_or_else(|| vec![1, 2, 4, 8]);
    println!("scenario `{}`: shard sweep over batch {}", scenario.name, scenario.config.batch);
    println!(
        "{:>7} {:>16} {:>10} {:>10} {:>12} {:>12}",
        "shards", "makespan [cyc]", "speedup", "imbalance", "util(min)", "util(max)"
    );
    // One compiled plan and one long-lived session serve the whole sweep:
    // only the fleet attribution changes between shard counts, so the
    // lowering is paid exactly once.
    let plan = scenario.compile().map_err(|e| e.to_string())?;
    let mut session = plan.open_session();
    let mut aggregate_json: Option<String> = None;
    for &shards in &shard_counts {
        let report = session.infer(&Request::batch(scenario.config.batch).with_shards(shards));
        let fleet = report.shards.as_ref().expect("sharded runs carry fleet stats");
        let util_min = fleet.shards.iter().map(|s| s.utilization).fold(f64::INFINITY, f64::min);
        let util_max = fleet.shards.iter().map(|s| s.utilization).fold(0.0, f64::max);
        println!(
            "{:>7} {:>16.0} {:>10.2} {:>10.3} {:>12.3} {:>12.3}",
            shards, fleet.makespan_cycles, fleet.batch_speedup, fleet.imbalance, util_min, util_max
        );
        let json = report.without_shard_stats().to_json();
        match &aggregate_json {
            None => aggregate_json = Some(json),
            Some(reference) => {
                if *reference != json {
                    return Err(format!(
                        "aggregate report changed between shard counts (at {shards} shards)"
                    ));
                }
            }
        }
    }
    println!("aggregate report bit-identical across shard counts: yes");
    Ok(())
}

fn cmd_compare(args: &[String]) -> Result<(), String> {
    use spikestream::KernelVariant;
    let scenario = parse(COMPARE, args)?.scenario()?;
    let mut baseline_scenario = scenario.clone();
    baseline_scenario.config.variant = KernelVariant::Baseline;
    let mut streamed_scenario = scenario.clone();
    streamed_scenario.config.variant = KernelVariant::SpikeStream;

    let baseline_plan = baseline_scenario.compile().map_err(|e| e.to_string())?;
    let streamed_plan = streamed_scenario.compile().map_err(|e| e.to_string())?;
    let baseline = baseline_plan.open_session().infer(&baseline_scenario.request());
    let streamed = streamed_plan.open_session().infer(&streamed_scenario.request());
    println!(
        "scenario `{}`: Baseline vs SpikeStream · {} · {} · batch {} · {} shard(s)",
        scenario.name, baseline.network, baseline.format, baseline.batch, scenario.shards,
    );
    println!(
        "{:<10} {:>16} {:>16} {:>9} {:>12}",
        "layer", "base [cyc]", "stream [cyc]", "speedup", "energy gain"
    );
    for (b, s) in baseline.layers.iter().zip(streamed.layers.iter()) {
        println!(
            "{:<10} {:>16.0} {:>16.0} {:>8.2}x {:>11.2}x",
            b.name,
            b.cycles,
            s.cycles,
            b.cycles / s.cycles.max(1.0),
            b.energy_j / s.energy_j.max(f64::MIN_POSITIVE),
        );
    }
    println!(
        "{:<10} {:>16.0} {:>16.0} {:>8.2}x {:>11.2}x",
        "total",
        baseline.total_cycles(),
        streamed.total_cycles(),
        streamed.speedup_over(&baseline),
        streamed.energy_gain_over(&baseline),
    );
    Ok(())
}

/// What `serve-demo` runs: K clients submitting M requests each, to a
/// gateway whose policy comes from the flags, else the scenario's `[serve]`
/// table, else the gateway defaults.
struct Demo {
    scenario: Scenario,
    clients: usize,
    requests_per_client: usize,
    config: GatewayConfig,
}

fn demo(opts: &Options) -> Result<Demo, String> {
    let clients = opts.number(Limit::CLIENTS).unwrap_or(4);
    let requests_per_client = opts.number(Limit::REQUESTS_PER_CLIENT).unwrap_or(8);
    // The demo pauses the tenant while every client enqueues (so the batch
    // composition — and therefore every counter — is a pure function of
    // the flags, never of thread scheduling), which requires the queue to
    // hold all K*M requests at once.
    let total = Limit::FAN_OUT.check(clients * requests_per_client)?;
    let scenario = opts.scenario()?;
    let table = scenario.serve.unwrap_or_default();
    let defaults = GatewayConfig::default();
    let config = GatewayConfig {
        max_batch: table.max_batch.unwrap_or(defaults.max_batch),
        queue_cap: table.queue_cap.unwrap_or(defaults.queue_cap).max(total),
    };
    Ok(Demo { scenario, clients, requests_per_client, config })
}

fn cmd_serve_demo(args: &[String]) -> Result<(), String> {
    let opts = parse(SERVE_DEMO, args)?;
    let Demo { scenario, clients, requests_per_client, config } = demo(&opts)?;
    let total = clients * requests_per_client;
    let plan = scenario.compile().map_err(|e| e.to_string())?;
    let batch = scenario.config.batch;
    let tenant = scenario.name.clone();
    let gateway = Gateway::new(config);
    let version = gateway.publish(&tenant, plan).map_err(|e| e.to_string())?;
    gateway.pause(&tenant).map_err(|e| e.to_string())?;

    let started = Instant::now();
    // Phase 1: K concurrent clients enqueue M single-sample requests each.
    // Joining the scope proves every request is queued before resume.
    type Submitted = Vec<Result<(Instant, ResponseHandle), ServeError>>;
    let submitted: Vec<Submitted> = std::thread::scope(|scope| {
        let joins: Vec<_> = (0..clients)
            .map(|client| {
                let gateway = &gateway;
                let tenant = tenant.as_str();
                let per_client = requests_per_client;
                scope.spawn(move || {
                    (0..per_client)
                        .map(|i| {
                            let sample = (client * per_client + i) % batch;
                            let at = Instant::now();
                            gateway
                                .submit_timeout(tenant, &[sample], Duration::from_secs(60))
                                .map(|handle| (at, handle))
                        })
                        .collect()
                })
            })
            .collect();
        joins.into_iter().map(|j| j.join().expect("client thread panicked")).collect()
    });

    // Phase 2: release the dispatcher and collect every response in
    // deterministic (client, request) order.
    gateway.resume(&tenant).map_err(|e| e.to_string())?;
    let mut latencies_us: Vec<f64> = Vec::with_capacity(total);
    let mut digest = Fnv1a::new();
    for per_client in submitted {
        for entry in per_client {
            let (at, handle) = entry.map_err(|e| e.to_string())?;
            let response = handle.wait().map_err(|e| e.to_string())?;
            latencies_us.push(at.elapsed().as_secs_f64() * 1e6);
            digest.update(response.report().to_json().as_bytes());
        }
    }
    let wall = started.elapsed();
    let stats = gateway.stats();
    gateway.shutdown();

    if opts.json {
        // Deterministic subset only: counters and the result digest are
        // functions of the flags and the scenario, never of timing.
        let hist: Vec<String> = stats.batch_hist.iter().map(u64::to_string).collect();
        println!(
            "{{\"scenario\":\"{}\",\"tenant_version\":{},\"clients\":{},\
             \"requests_per_client\":{},\"max_batch\":{},\"queue_cap\":{},\
             \"submitted\":{},\"completed\":{},\"rejected_full\":{},\"batches\":{},\
             \"coalesced\":{},\"hot_swaps\":{},\"panics\":{},\"queue_depth\":{},\
             \"batch_hist\":[{}],\"report_digest\":\"{:#018x}\"}}",
            scenario.name,
            version,
            clients,
            requests_per_client,
            config.max_batch,
            config.queue_cap,
            stats.submitted,
            stats.completed,
            stats.rejected_full,
            stats.batches,
            stats.coalesced,
            stats.hot_swaps,
            stats.panics,
            stats.tenants.iter().map(|t| t.queue_depth).sum::<usize>(),
            hist.join(","),
            digest.finish(),
        );
        return Ok(());
    }

    println!(
        "serve-demo `{}`: {} clients x {} requests · tenant v{} · max_batch {} · \
         queue cap {}",
        scenario.name, clients, requests_per_client, version, config.max_batch, config.queue_cap,
    );
    println!(
        "gateway: {} submitted · {} completed · {} rejected · {} batches \
         ({} coalesced) · {} hot swaps · {} panics",
        stats.submitted,
        stats.completed,
        stats.rejected_full,
        stats.batches,
        stats.coalesced,
        stats.hot_swaps,
        stats.panics,
    );
    let sizes: Vec<String> = BATCH_HIST_LABELS
        .iter()
        .zip(stats.batch_hist.iter())
        .map(|(label, count)| format!("{label}:{count}"))
        .collect();
    println!("batch sizes: {}", sizes.join(" "));
    for t in &stats.tenants {
        println!(
            "tenant `{}`: v{} (serving v{}) · queue {} · session {{ samples {} · \
             arena grows {} · pool jobs {} }}",
            t.name,
            t.version,
            t.serving_version,
            t.queue_depth,
            t.session.runs,
            t.session.grows,
            t.session.pool.jobs,
        );
    }
    latencies_us.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    println!(
        "latency [us]: p50 {:.1} · p90 {:.1} · p99 {:.1} · max {:.1}",
        percentile(&latencies_us, 0.50),
        percentile(&latencies_us, 0.90),
        percentile(&latencies_us, 0.99),
        latencies_us.last().copied().unwrap_or(0.0),
    );
    println!("wall: {:.3} ms · report digest {:#018x}", wall.as_secs_f64() * 1e3, digest.finish());
    Ok(())
}

/// One of the paper's figures, as `spikestream figures` names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Figure {
    Fig3a,
    Fig3b,
    Fig3c,
    Fig4,
    Fig5,
    Headline,
    Ablation,
}

impl Figure {
    /// Every figure, in paper order: what `figures` prints by default.
    const ALL: [Figure; 7] = [
        Figure::Fig3a,
        Figure::Fig3b,
        Figure::Fig3c,
        Figure::Fig4,
        Figure::Fig5,
        Figure::Headline,
        Figure::Ablation,
    ];

    /// The figure `name` selects; Fig. 5's two panels share one table.
    fn parse(name: &str) -> Option<Figure> {
        Some(match name {
            "3a" => Figure::Fig3a,
            "3b" => Figure::Fig3b,
            "3c" => Figure::Fig3c,
            "4" => Figure::Fig4,
            "5" | "5a" | "5b" => Figure::Fig5,
            "headline" => Figure::Headline,
            "ablation" => Figure::Ablation,
            _ => return None,
        })
    }
}

/// Parse `figures [FIG ...] [--batch N]` into the figures to print and
/// the batch, rejecting a batch S-VGG11 cannot compile before anything
/// runs.
fn parse_figures(args: &[String]) -> Result<(Vec<Figure>, usize), String> {
    let opts = parse(FIGURES, args)?;
    let mut figures = opts
        .positional
        .iter()
        .map(|name| {
            Figure::parse(name).ok_or_else(|| {
                format!("unknown figure `{name}` (3a|3b|3c|4|5|5a|5b|headline|ablation)")
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    if figures.is_empty() {
        figures = Figure::ALL.to_vec();
    }
    Ok((figures, opts.number(Limit::FIGURES_BATCH).unwrap_or(PAPER_BATCH)))
}

fn cmd_figures(args: &[String]) -> Result<(), String> {
    let (figures, batch) = parse_figures(args)?;
    print!("{}", figures_report(&figures, batch));
    Ok(())
}

/// What `figures` prints: a header, then each table and a blank line.
fn figures_report(figures: &[Figure], batch: usize) -> String {
    let mut out = format!("SpikeStream reproduction — batch size {batch}\n\n");
    for &figure in figures {
        out.push_str(&figure_table(figure, batch));
        out.push('\n');
    }
    out
}

/// Nearest-rank percentile of an ascending-sorted slice.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// FNV-1a 64-bit digest over the concatenated response reports — a cheap,
/// dependency-free fingerprint the CI smoke pins against a golden.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Render one figure as a text table.
fn figure_table(figure: Figure, batch: usize) -> String {
    let mut out = String::new();
    match figure {
        Figure::Fig3a => {
            out.push_str("Fig. 3a — ifmap memory footprint (bytes) and firing activity\n");
            out.push_str(&format!(
                "{:<8} {:>12} {:>12} {:>10} {:>10}\n",
                "layer", "AER [B]", "CSR [B]", "ratio", "firing"
            ));
            for r in experiments::fig3a_footprint(batch) {
                out.push_str(&format!(
                    "{:<8} {:>12.0} {:>12.0} {:>10.2} {:>9.1}%\n",
                    r.layer,
                    r.aer_bytes,
                    r.csr_bytes,
                    r.reduction(),
                    r.firing_rate * 100.0
                ));
            }
        }
        Figure::Fig3b => {
            out.push_str("Fig. 3b — FPU utilization and IPC (FP16)\n");
            out.push_str(&format!(
                "{:<8} {:>12} {:>14} {:>10} {:>12}\n",
                "layer", "util base", "util stream", "IPC base", "IPC stream"
            ));
            for r in experiments::fig3b_utilization(batch) {
                out.push_str(&format!(
                    "{:<8} {:>11.1}% {:>13.1}% {:>10.2} {:>12.2}\n",
                    r.layer,
                    r.util_baseline * 100.0,
                    r.util_spikestream * 100.0,
                    r.ipc_baseline,
                    r.ipc_spikestream
                ));
            }
        }
        Figure::Fig3c => {
            out.push_str("Fig. 3c — per-layer speedups\n");
            out.push_str(&format!(
                "{:<8} {:>24} {:>18}\n",
                "layer", "SpikeStream16/Base16", "FP8/FP16"
            ));
            for r in experiments::fig3c_speedup(batch) {
                out.push_str(&format!(
                    "{:<8} {:>23.2}x {:>17.2}x\n",
                    r.layer, r.spikestream_fp16_over_baseline, r.fp8_over_fp16
                ));
            }
        }
        Figure::Fig4 => {
            out.push_str("Fig. 4 — per-layer energy [mJ] and power [W]\n");
            out.push_str(&format!(
                "{:<8} {:>10} {:>10} {:>10} {:>8} {:>8} {:>8}\n",
                "layer", "E base", "E fp16", "E fp8", "P base", "P fp16", "P fp8"
            ));
            for r in experiments::fig4_energy(batch) {
                out.push_str(&format!(
                    "{:<8} {:>10.4} {:>10.4} {:>10.4} {:>8.3} {:>8.3} {:>8.3}\n",
                    r.layer,
                    r.energy_baseline_mj,
                    r.energy_fp16_mj,
                    r.energy_fp8_mj,
                    r.power_baseline_w,
                    r.power_fp16_w,
                    r.power_fp8_w
                ));
            }
        }
        Figure::Fig5 => {
            out.push_str("Fig. 5 — 6th S-VGG11 layer over 500 timesteps\n");
            out.push_str(&format!(
                "{:<32} {:>14} {:>14} {:>10} {:>8}\n",
                "platform", "latency [ms]", "energy [mJ]", "GSOP", "tech"
            ));
            for r in experiments::fig5_accelerators(500, batch) {
                out.push_str(&format!(
                    "{:<32} {:>14.2} {:>14.2} {:>10.1} {:>6}nm\n",
                    r.name, r.latency_ms, r.energy_mj, r.peak_gsop, r.technology_nm
                ));
            }
        }
        Figure::Headline => {
            let h = experiments::headline(batch);
            out.push_str("Headline end-to-end numbers (S-VGG11)\n");
            out.push_str(&format!(
                "speedup FP16 {:.2}x | speedup FP8 {:.2}x | util {:.1}% -> {:.1}% | energy gain FP16 {:.2}x | FP8 {:.2}x\n",
                h.speedup_fp16,
                h.speedup_fp8,
                h.utilization_baseline * 100.0,
                h.utilization_spikestream * 100.0,
                h.energy_gain_fp16,
                h.energy_gain_fp8
            ));
        }
        Figure::Ablation => {
            out.push_str("Ablation — optimization stages\n");
            for r in experiments::ablation(batch) {
                out.push_str(&format!(
                    "{:<32} {:>16.0} cycles {:>8.1}% util\n",
                    r.name,
                    r.cycles,
                    r.utilization * 100.0
                ));
            }
        }
    }
    out
}

fn print_layer_table(report: &InferenceReport) {
    println!(
        "{:<10} {:>14} {:>8} {:>8} {:>10} {:>12} {:>10}",
        "layer", "cycles", "util", "ipc", "rate", "synops", "power [W]"
    );
    for layer in &report.layers {
        println!(
            "{:<10} {:>14.0} {:>8.3} {:>8.3} {:>10.4} {:>12.0} {:>10.3}",
            layer.name,
            layer.cycles,
            layer.fpu_utilization,
            layer.ipc,
            layer.input_firing_rate,
            layer.synops,
            layer.power_w,
        );
    }
    println!(
        "total: {:.0} cycles · {:.3} ms · {:.3} mJ · avg util {:.3}",
        report.total_cycles(),
        report.total_seconds() * 1e3,
        report.total_energy_j() * 1e3,
        report.average_utilization(),
    );
}

fn print_timestep_table(report: &InferenceReport) {
    let Some(steps) = &report.timesteps else { return };
    println!(
        "{:>5} {:>14} {:>14} {:>12} {:>24}",
        "step", "cycles", "dma [B]", "energy [uJ]", "firing rates (per layer)"
    );
    for step in steps {
        let rates: Vec<String> = step.firing_rates.iter().map(|r| format!("{r:.3}")).collect();
        println!(
            "{:>5} {:>14.0} {:>14.0} {:>12.3} {:>24}",
            step.step,
            step.cycles,
            step.dma_bytes,
            step.energy_j * 1e6,
            rates.join(" "),
        );
    }
}

/// Serving diagnostics: how the request actually hit the plan's program
/// cache and the session's arenas/pool. On the analytic steady state the
/// cache line should read all hits (a plan emits once per sparsity bucket
/// it has not priced before) and `arena grows` should be flat at one per
/// worker slot.
fn print_serving_stats(plan: &spikestream::Plan, session: &spikestream::Session<'_>) {
    let cache = plan.programs().counters();
    println!(
        "programs: {} cached · {} lookups ({} hits, {} emits)",
        plan.programs().len(),
        cache.lookups(),
        cache.hits,
        cache.emits,
    );
    let stats = session.stats();
    println!(
        "session: {} samples · {} arena grows · pool {{ threads {} · jobs {} · steals {} }}",
        stats.runs, stats.grows, stats.pool.spawned, stats.pool.jobs, stats.pool.steals,
    );
}

fn print_shard_table(report: &InferenceReport) {
    let Some(fleet) = &report.shards else { return };
    println!(
        "fleet: makespan {:.0} cycles · speedup {:.2}x · imbalance {:.3}",
        fleet.makespan_cycles, fleet.batch_speedup, fleet.imbalance
    );
    println!("{:>6} {:>9} {:>16} {:>12}", "shard", "samples", "busy [cyc]", "utilization");
    for shard in &fleet.shards {
        println!(
            "{:>6} {:>9} {:>16.0} {:>12.3}",
            shard.shard, shard.samples, shard.busy_cycles, shard.utilization
        );
    }
}

#[cfg(test)]
mod tests {
    use spikestream::scenario::MAX_QUEUE_CAP;
    use spikestream::sharding::MAX_WORKERS;
    use spikestream::{Compiler, FiringProfile};

    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn every_figure_renders() {
        for figure in Figure::ALL {
            let table = figure_table(figure, 2);
            assert!(table.len() > 40, "{figure:?} produced an implausibly short table");
        }
    }

    #[test]
    fn figures_match_the_checked_in_golden() {
        // The one golden of the Baseline S-VGG11 analytic path, the
        // ablation's cost models and Fig. 5's accelerator models.
        let golden = include_str!("../../tests/golden/figures_batch8.txt");
        assert_eq!(figures_report(&Figure::ALL, 8), golden);
    }

    #[test]
    fn figures_selects_only_the_named_figures() {
        assert_eq!(parse_figures(&args(&["3c"])), Ok((vec![Figure::Fig3c], PAPER_BATCH)));
        assert_eq!(
            parse_figures(&args(&["5a", "headline", "--batch", "8"])),
            Ok((vec![Figure::Fig5, Figure::Headline], 8))
        );
        assert_eq!(parse_figures(&[]), Ok((Figure::ALL.to_vec(), PAPER_BATCH)));
    }

    #[test]
    fn unknown_figures_and_bad_flags_are_rejected() {
        for bad in [
            &["99"][..],
            &["--fig", "3c"],
            &["--batch", "0"],
            &["--batch", "x"],
            &["--batch"],
            &["--batch", "4000000000"],
        ] {
            assert!(parse_figures(&args(bad)).is_err(), "{bad:?}");
        }
        // The batch row's max is the largest batch the paper's S-VGG11
        // compiles.
        let layers = FiringProfile::paper_svgg11().len();
        assert!(Compiler::layer_samples(Limit::FIGURES_BATCH.max, layers, 1).is_some());
        assert!(Compiler::layer_samples(Limit::FIGURES_BATCH.max + 1, layers, 1).is_none());
    }

    const TINY: &str = "examples/scenarios/tiny.toml";

    /// The scenario `run`, `bench` or `compare` serves under these words.
    fn scenario(flags: Flags, words: &[&str]) -> Result<Scenario, String> {
        parse(flags, &args(words))?.scenario()
    }

    /// What `serve-demo` runs under these words.
    fn serve_demo(words: &[&str]) -> Result<Demo, String> {
        demo(&parse(SERVE_DEMO, &args(words))?)
    }

    #[test]
    fn an_oversized_shard_count_is_rejected() {
        for flags in [RUN, BENCH, COMPARE] {
            let err = scenario(flags, &[TINY, "--shards", "4000000000"]).err();
            assert_eq!(
                err.as_deref(),
                Some("shards must be an integer (1..=1024), got `4000000000`")
            );
        }
        assert!(parse(BENCH, &args(&[TINY, "--shards", "1,2,2048"])).is_err());
    }

    #[test]
    fn an_oversized_worker_count_is_rejected() {
        let err = parse(RUN, &args(&[TINY, "--workers", "1000000"])).err();
        assert_eq!(err.as_deref(), Some("--workers must be an integer (1..=256), got `1000000`"));
        let opts = parse(RUN, &args(&[TINY, "--workers", "256"]));
        assert_eq!(opts.map(|o| o.number(Limit::WORKERS)).ok(), Some(Some(MAX_WORKERS)));
    }

    #[test]
    fn an_oversized_client_fan_out_is_rejected() {
        let demo = |clients: &str, per_client: &str| {
            serve_demo(&[TINY, "--clients", clients, "--requests-per-client", per_client]).err()
        };
        let max = "18446744073709551615";
        assert_eq!(
            demo(max, "2").as_deref(),
            Some("--clients must be an integer (1..=256), got `18446744073709551615`")
        );
        // Each factor has its own row, and so has their product: 256 x 257
        // passes both factors' rows but not the product's.
        assert_eq!(
            demo("256", max).as_deref(),
            Some(
                "--requests-per-client must be an integer (1..=65536), got `18446744073709551615`"
            )
        );
        assert_eq!(
            demo("256", "257").as_deref(),
            Some("--clients x --requests-per-client must be an integer (1..=65536), got `65792`")
        );
        assert_eq!(demo("256", "256"), None);
    }

    #[test]
    fn an_oversized_queue_cap_is_rejected() {
        let demo = |cap: &str| serve_demo(&[TINY, "--queue-cap", cap]).map(|d| d.config.queue_cap);
        assert_eq!(
            demo("18446744073709551615"),
            Err("queue_cap must be an integer (1..=65536), got `18446744073709551615`".into())
        );
        assert_eq!(demo("65536"), Ok(MAX_QUEUE_CAP));
    }

    #[test]
    fn an_oversized_max_batch_is_rejected() {
        let demo = |cap: &str| serve_demo(&[TINY, "--max-batch", cap]).map(|d| d.config.max_batch);
        assert_eq!(
            demo("18446744073709551615"),
            Err("max_batch must be an integer (1..=4194304), got `18446744073709551615`".into())
        );
        assert_eq!(demo("4194304"), Ok(Compiler::MAX_LAYER_SAMPLES));
    }

    #[test]
    fn flags_take_the_scenario_files_number_syntax() {
        // A flag takes its number as a scenario file spells it.
        let batch = |value: &str| scenario(RUN, &[TINY, "--batch", value]).map(|s| s.config.batch);
        assert_eq!(batch("0x10"), Ok(16));
        assert_eq!(batch("1_6"), Ok(16));
        let workers = parse(RUN, &args(&[TINY, "--workers", "0x10"]));
        assert_eq!(workers.map(|o| o.number(Limit::WORKERS)), Ok(Some(16)));
        let shards = parse(BENCH, &args(&[TINY, "--shards", "0x1, 2,0X4"]));
        assert_eq!(shards.map(|o| o.shard_list), Ok(Some(vec![1, 2, 4])));
    }

    /// The values a bounded input is fed: 0, its max, max + 1, `u64::MAX`,
    /// a non-number and `_` anywhere but between two digits.
    fn probes(max: Option<usize>) -> Vec<String> {
        let max = max.map(|m| m as u64);
        [Some(0), max, max.and_then(|m| m.checked_add(1)), Some(u64::MAX)]
            .into_iter()
            .flatten()
            .map(|n| n.to_string())
            .chain(["x", "0_x10", "_5", "5_", "1__0"].map(String::from))
            .collect()
    }

    /// What an input bounded by `limit` must make of `value`: the number
    /// back, or the row's one message.
    fn expected(limit: Limit, value: &str) -> Result<usize, String> {
        match value.parse::<usize>() {
            Ok(n) if n >= 1 && n <= limit.max => Ok(n),
            _ => Err(format!("{} must be an integer ({limit}), got `{value}`", limit.name)),
        }
    }

    /// The integer `scenario` holds in the field named `key` (read from its
    /// `Debug` form, where `Some(..)` wraps the `[serve]` fields).
    fn field(scenario: &Scenario, key: &str) -> usize {
        let debug = format!("{scenario:?}");
        let at = debug.find(&format!(" {key}: ")).expect("a field per key") + key.len() + 3;
        let digits = debug[at..].trim_start_matches("Some(");
        let end = digits.find(|c: char| !c.is_ascii_digit()).expect("the field ends");
        digits[..end].parse().expect("an integer field")
    }

    #[test]
    fn every_bound_is_checked_on_both_surfaces() {
        // The file: every key row of every table, as `[section]\nkey = v`.
        for (section, key, limit) in Scenario::keys() {
            for value in probes(limit.map(|l| l.max)) {
                let mut text = format!("[{section}]\n{key} = {value}\n");
                if section != "scenario" {
                    text.push_str("[scenario]\n");
                }
                let parsed = Scenario::parse(&text);
                if let Err(e) = &parsed {
                    assert_eq!(e.line, 2, "{text:?}: {e}");
                    assert!(e.message.starts_with(&format!("{key} ")), "{text:?}: {e}");
                }
                if let Some(limit) = limit {
                    let got = parsed.map(|s| field(&s, key)).map_err(|e| e.message);
                    assert_eq!(got, expected(limit, &value), "{text:?}");
                }
            }
        }
        // The flags: every flag of every subcommand that takes a number.
        for flags in [RUN, BENCH, COMPARE, SERVE_DEMO, FIGURES] {
            for &(flag, action) in flags {
                let limit = match action {
                    Action::Key(_, key) => Scenario::keys()
                        .find_map(|(_, name, limit)| (name == key).then_some(limit)?)
                        .expect("an override flag sets an integer key"),
                    Action::Number(limit) => limit,
                    Action::ShardList => Limit::SHARDS,
                    Action::Json => continue,
                };
                assert!(USAGE.contains(flag) && USAGE.contains(&format!("{limit}")), "{flag}");
                for value in probes(Some(limit.max)) {
                    let opts = parse(flags, &args(&[TINY, flag, &value]));
                    let got = match action {
                        Action::Key(_, key) => {
                            opts.and_then(|o| o.scenario()).map(|s| field(&s, key))
                        }
                        Action::Number(limit) => opts.map(|o| o.number(limit).expect("given")),
                        Action::ShardList => opts.map(|o| o.shard_list.expect("given")[0]),
                        Action::Json => unreachable!("skipped above"),
                    };
                    assert_eq!(got, expected(limit, &value), "{flag} {value}");
                }
            }
        }
        // The one row no flag reaches alone, `serve-demo`'s K x M.
        for value in probes(Some(Limit::FAN_OUT.max)) {
            assert_eq!(Limit::FAN_OUT.parse(&value), expected(Limit::FAN_OUT, &value));
        }
    }

    #[test]
    fn the_linger_flag_is_unknown() {
        let words = [TINY, "--linger-us", "18446744073709551615"];
        assert_eq!(
            parse(SERVE_DEMO, &args(&words)).err().as_deref(),
            Some("unknown flag `--linger-us`")
        );
    }
}
