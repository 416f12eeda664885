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

use std::process::ExitCode;
use std::time::{Duration, Instant};

use spikestream::experiments::{self, PAPER_BATCH};
use spikestream::scenario::MAX_QUEUE_CAP;
use spikestream::sharding::{MAX_SHARDS, MAX_WORKERS};
use spikestream::{
    CompileError, Compiler, FiringProfile, InferenceReport, Request, Scenario, WorkloadMode,
};
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
checked-in examples and `spikestream help` for the key reference.

OPTIONS:
    --shards N        Override the scenario's shard count, at most 1024
                      (for bench: comma-separated list, default 1,2,4,8)
    --batch N         Override the scenario's batch size
    --timesteps N     Run the temporal pipeline for N timesteps (real spike
                      propagation with persistent membranes; keeps the
                      scenario's encoding, or direct coding by default)
    --workers N       Serve the request with N host worker threads, at most
                      256 (default: host parallelism; 1 = strictly
                      sequential; the report is bit-identical for every
                      worker count)
    --json            Print the deterministic report JSON instead of tables
                      (for serve-demo: counters + result digest, latencies
                      excluded)

SERVE-DEMO OPTIONS (defaults come from the scenario's [serve] table):
    --clients K             Concurrent submitter threads, at most 256
                            (default 4)
    --requests-per-client M Single-sample requests per client (default 8);
                            K*M is at most 65536
    --max-batch B           Close a micro-batch at B samples, at most 4194304
    --queue-cap C           Bounded per-tenant queue capacity, at most 65536
                            (the demo raises it to K*M so the paced phase
                            never blocks)

FIGURES (the paper's S-VGG11 evaluation on the analytic backend):
    FIG               3a | 3b | 3c | 4 | 5 | 5a | 5b | headline | ablation
                      (default: all seven tables, in paper order)
    --batch N         Batch samples per configuration (default 128)
";

const KEY_REFERENCE: &str = "\
Scenario keys (all optional except the [scenario] header):
    name      = \"string\"         scenario name, used in output headers
    network   = \"svgg11\"         svgg11 | tiny-cnn | tiny-pool
    variant   = \"spikestream\"    baseline | spikestream
    format    = \"fp16\"           fp64 | fp32 | fp16 | fp8
    timing    = \"analytic\"       analytic | cycle-level
    batch     = 128               batch samples (>= 1)
    seed      = 0xC1FA            workload seed (decimal or 0x hex)
    shards    = 1                 simulated cluster shards (1..=1024)
    timesteps = 4                 temporal-pipeline steps (>= 1; setting this
                                  or `encoding` enables real spike propagation)
    encoding  = \"rate\"           rate | direct (temporal input coding)

Neuron-model keys (optional [neuron_model] table; overrides every layer):
    model       = \"lif\"          lif | izhikevich (default lif)
    alpha       = 0.5             lif: decay factor in [0, 1]
    resistance  = 1.0             lif: membrane resistance (> 0)
    v_threshold = 1.0             firing threshold (lif: > 0; izhikevich: > c)
    v_reset     = 1.0             lif: reset potential (>= 0)
    a           = 0.02            izhikevich: recovery time scale in (0, 1]
    b           = 0.2             izhikevich: recovery sensitivity
    c           = -65.0           izhikevich: after-spike reset potential
    d           = 8.0             izhikevich: after-spike recovery increment

Serving keys (optional [serve] table; defaults for `serve-demo`):
    max_batch   = 64              close a micro-batch at this many samples
                                  (1..=4194304)
    queue_cap   = 256             bounded per-tenant queue capacity (1..=65536)
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

/// The value after `flag`, parsed as an integer of at least 1.
fn positive(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<usize, String> {
    let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
    let parsed: usize = value.parse().map_err(|_| format!("bad {flag} value `{value}`"))?;
    if parsed == 0 {
        return Err(format!("{flag} must be >= 1"));
    }
    Ok(parsed)
}

/// Parsed common flags of every subcommand.
struct Options {
    scenario: Scenario,
    shards_list: Option<Vec<usize>>,
    workers: Option<usize>,
    json: bool,
}

/// Which subcommand the shared flag parser is serving; gates the flags
/// that only some subcommands support instead of silently ignoring them.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Command {
    Run,
    Bench,
    Compare,
}

fn parse_options(command: Command, args: &[String]) -> Result<Options, String> {
    let mut path = None;
    let mut shards_list = None;
    let mut batch = None;
    let mut timesteps = None;
    let mut workers = None;
    let mut json = false;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--shards" => {
                let value = it.next().ok_or("--shards needs a value")?;
                let list: Result<Vec<usize>, _> =
                    value.split(',').map(|v| v.trim().parse::<usize>()).collect();
                let list = list.map_err(|_| format!("bad --shards value `{value}`"))?;
                if list.is_empty() || list.iter().any(|n| !(1..=MAX_SHARDS).contains(n)) {
                    return Err(format!(
                        "--shards entries must be between 1 and {MAX_SHARDS}, got `{value}`"
                    ));
                }
                if command != Command::Bench && list.len() > 1 {
                    return Err(format!(
                        "--shards takes a single value here (lists are for `bench`), got `{value}`"
                    ));
                }
                shards_list = Some(list);
            }
            "--batch" => batch = Some(positive(&mut it, "--batch")?),
            "--timesteps" => timesteps = Some(positive(&mut it, "--timesteps")?),
            "--workers" => {
                if command != Command::Run {
                    return Err("--workers is only supported by `run`".into());
                }
                let n = positive(&mut it, "--workers")?;
                if n > MAX_WORKERS {
                    return Err(format!(
                        "--workers must be between 1 and {MAX_WORKERS}, got `{n}`"
                    ));
                }
                workers = Some(n);
            }
            "--json" => {
                if command != Command::Run {
                    return Err("--json is only supported by `run`".into());
                }
                json = true;
            }
            other if other.starts_with('-') => return Err(format!("unknown flag `{other}`")),
            other if path.is_none() => path = Some(other.to_string()),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }

    let path = path.ok_or_else(|| format!("missing scenario file\n\n{USAGE}"))?;
    let mut scenario =
        Scenario::from_file(std::path::Path::new(&path)).map_err(|e| e.to_string())?;
    if let Some(batch) = batch {
        scenario.config.batch = batch;
    }
    if let Some(steps) = timesteps {
        scenario.config = scenario.config.temporal_steps(steps);
    }
    if let Some(list) = &shards_list {
        scenario.shards = list[0];
    }
    Ok(Options { scenario, shards_list, workers, json })
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let opts = parse_options(Command::Run, args)?;
    // Compile once, then serve the request through a session — the CLI
    // never assembles backends by hand and never re-lowers per call.
    let plan = opts.scenario.compile().map_err(|e| e.to_string())?;
    let mut request = opts.scenario.request();
    if let Some(workers) = opts.workers {
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
    let mode = match opts.scenario.config.mode {
        WorkloadMode::Synthetic => "synthetic".to_string(),
        WorkloadMode::Temporal { timesteps, encoding } => {
            format!("temporal T={timesteps} ({encoding})")
        }
    };
    let neuron = opts.scenario.neuron.map_or("lif", |m| m.as_str());
    println!(
        "scenario `{}`: {} · {} · {} · {} neurons · batch {} · {} shard(s) · {}",
        opts.scenario.name,
        report.network,
        report.variant,
        report.format,
        neuron,
        report.batch,
        opts.scenario.shards,
        mode,
    );
    print_layer_table(&report);
    print_timestep_table(&report);
    print_shard_table(&report);
    print_serving_stats(&plan, &session);
    Ok(())
}

fn cmd_bench(args: &[String]) -> Result<(), String> {
    let opts = parse_options(Command::Bench, args)?;
    let shard_counts = opts.shards_list.unwrap_or_else(|| vec![1, 2, 4, 8]);
    println!(
        "scenario `{}`: shard sweep over batch {}",
        opts.scenario.name, opts.scenario.config.batch
    );
    println!(
        "{:>7} {:>16} {:>10} {:>10} {:>12} {:>12}",
        "shards", "makespan [cyc]", "speedup", "imbalance", "util(min)", "util(max)"
    );
    // One compiled plan and one long-lived session serve the whole sweep:
    // only the fleet attribution changes between shard counts, so the
    // lowering is paid exactly once.
    let plan = opts.scenario.compile().map_err(|e| e.to_string())?;
    let mut session = plan.open_session();
    let mut aggregate_json: Option<String> = None;
    for &shards in &shard_counts {
        let report = session.infer(&Request::batch(opts.scenario.config.batch).with_shards(shards));
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
    let opts = parse_options(Command::Compare, args)?;
    let mut baseline_scenario = opts.scenario.clone();
    baseline_scenario.config.variant = KernelVariant::Baseline;
    let mut streamed_scenario = opts.scenario.clone();
    streamed_scenario.config.variant = KernelVariant::SpikeStream;

    let baseline_plan = baseline_scenario.compile().map_err(|e| e.to_string())?;
    let streamed_plan = streamed_scenario.compile().map_err(|e| e.to_string())?;
    let baseline = baseline_plan.open_session().infer(&baseline_scenario.request());
    let streamed = streamed_plan.open_session().infer(&streamed_scenario.request());
    println!(
        "scenario `{}`: Baseline vs SpikeStream · {} · {} · batch {} · {} shard(s)",
        opts.scenario.name, baseline.network, baseline.format, baseline.batch, opts.scenario.shards,
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

/// Parsed `serve-demo` flags: the driver shape plus gateway-policy
/// overrides (CLI flag beats `[serve]` table beats gateway default).
struct ServeDemoOptions {
    scenario: Scenario,
    clients: usize,
    requests_per_client: usize,
    config: GatewayConfig,
    json: bool,
}

fn parse_serve_demo_options(args: &[String]) -> Result<ServeDemoOptions, String> {
    let mut path = None;
    let mut clients = 4usize;
    let mut requests_per_client = 8usize;
    let mut max_batch = None;
    let mut queue_cap = None;
    let mut json = false;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--clients" => clients = positive(&mut it, "--clients")?,
            "--requests-per-client" => {
                requests_per_client = positive(&mut it, "--requests-per-client")?
            }
            "--max-batch" => {
                let n = positive(&mut it, "--max-batch")?;
                if n > Compiler::MAX_LAYER_SAMPLES {
                    return Err(format!(
                        "--max-batch must be between 1 and {}, got `{n}`",
                        Compiler::MAX_LAYER_SAMPLES
                    ));
                }
                max_batch = Some(n);
            }
            "--queue-cap" => {
                let n = positive(&mut it, "--queue-cap")?;
                if n > MAX_QUEUE_CAP {
                    return Err(format!(
                        "--queue-cap must be between 1 and {MAX_QUEUE_CAP}, got `{n}`"
                    ));
                }
                queue_cap = Some(n);
            }
            "--json" => json = true,
            other if other.starts_with('-') => return Err(format!("unknown flag `{other}`")),
            other if path.is_none() => path = Some(other.to_string()),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    // One scoped thread per client, and every request queued at once: the
    // demo raises the queue capacity to K x M, so the queue bound caps it.
    if clients > MAX_WORKERS {
        return Err(format!("--clients must be between 1 and {MAX_WORKERS}, got `{clients}`"));
    }
    if clients.checked_mul(requests_per_client).filter(|&n| n <= MAX_QUEUE_CAP).is_none() {
        return Err(format!(
            "--clients x --requests-per-client must be at most {MAX_QUEUE_CAP}, \
             got {clients} x {requests_per_client}"
        ));
    }

    let path = path.ok_or_else(|| format!("missing scenario file\n\n{USAGE}"))?;
    let scenario = Scenario::from_file(std::path::Path::new(&path)).map_err(|e| e.to_string())?;
    let defaults = GatewayConfig::default();
    let table = scenario.serve.unwrap_or_default();
    let config = GatewayConfig {
        max_batch: max_batch.or(table.max_batch).unwrap_or(defaults.max_batch),
        queue_cap: queue_cap.or(table.queue_cap).unwrap_or(defaults.queue_cap),
    };
    Ok(ServeDemoOptions { scenario, clients, requests_per_client, config, json })
}

fn cmd_serve_demo(args: &[String]) -> Result<(), String> {
    let opts = parse_serve_demo_options(args)?;
    let total = opts.clients * opts.requests_per_client;
    // The demo pauses the tenant while every client enqueues (so the batch
    // composition — and therefore every counter — is a pure function of
    // the flags, never of thread scheduling), which requires the queue to
    // hold all K*M requests at once.
    let mut config = opts.config;
    config.queue_cap = config.queue_cap.max(total);

    let plan = opts.scenario.compile().map_err(|e| e.to_string())?;
    let batch = opts.scenario.config.batch;
    let tenant = opts.scenario.name.clone();
    let gateway = Gateway::new(config);
    let version = gateway.publish(&tenant, plan).map_err(|e| e.to_string())?;
    gateway.pause(&tenant).map_err(|e| e.to_string())?;

    let started = Instant::now();
    // Phase 1: K concurrent clients enqueue M single-sample requests each.
    // Joining the scope proves every request is queued before resume.
    type Submitted = Vec<Result<(Instant, ResponseHandle), ServeError>>;
    let submitted: Vec<Submitted> = std::thread::scope(|scope| {
        let joins: Vec<_> = (0..opts.clients)
            .map(|client| {
                let gateway = &gateway;
                let tenant = tenant.as_str();
                let per_client = opts.requests_per_client;
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
            opts.scenario.name,
            version,
            opts.clients,
            opts.requests_per_client,
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
        opts.scenario.name,
        opts.clients,
        opts.requests_per_client,
        version,
        config.max_batch,
        config.queue_cap,
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
    let mut figures = Vec::new();
    let mut batch = PAPER_BATCH;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--batch" => batch = positive(&mut it, "--batch")?,
            other if other.starts_with('-') => return Err(format!("unknown flag `{other}`")),
            other => figures.push(Figure::parse(other).ok_or_else(|| {
                format!("unknown figure `{other}` (3a|3b|3c|4|5|5a|5b|headline|ablation)")
            })?),
        }
    }
    // The paper profile carries one firing rate per S-VGG11 layer.
    let layers = FiringProfile::paper_svgg11().len();
    if Compiler::layer_samples(batch, layers, 1).is_none() {
        return Err(CompileError::BatchTooLarge { batch, layers, timesteps: 1 }.to_string());
    }
    if figures.is_empty() {
        figures = Figure::ALL.to_vec();
    }
    Ok((figures, batch))
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
    }

    #[test]
    fn an_oversized_shard_count_is_rejected() {
        let tiny = "examples/scenarios/tiny.toml";
        for command in [Command::Run, Command::Bench, Command::Compare] {
            let err = parse_options(command, &args(&[tiny, "--shards", "4000000000"])).err();
            assert_eq!(
                err.as_deref(),
                Some("--shards entries must be between 1 and 1024, got `4000000000`")
            );
        }
        assert!(parse_options(Command::Bench, &args(&[tiny, "--shards", "1,2,2048"])).is_err());
    }

    #[test]
    fn an_oversized_worker_count_is_rejected() {
        let tiny = "examples/scenarios/tiny.toml";
        let err = parse_options(Command::Run, &args(&[tiny, "--workers", "1000000"])).err();
        assert_eq!(err.as_deref(), Some("--workers must be between 1 and 256, got `1000000`"));
        let opts = parse_options(Command::Run, &args(&[tiny, "--workers", "256"]));
        assert_eq!(opts.map(|o| o.workers).ok(), Some(Some(MAX_WORKERS)));
    }

    #[test]
    fn an_oversized_client_fan_out_is_rejected() {
        let tiny = "examples/scenarios/tiny.toml";
        let demo = |clients: &str, per_client: &str| {
            let words = [tiny, "--clients", clients, "--requests-per-client", per_client];
            parse_serve_demo_options(&args(&words)).err()
        };
        let max = "18446744073709551615";
        assert_eq!(
            demo(max, "2").as_deref(),
            Some("--clients must be between 1 and 256, got `18446744073709551615`")
        );
        // 256 x (2^64 - 1) overflows; 256 x 257 fits but exceeds the bound.
        assert_eq!(
            demo("256", max).as_deref(),
            Some(
                "--clients x --requests-per-client must be at most 65536, \
                 got 256 x 18446744073709551615"
            )
        );
        assert!(demo("256", "257").is_some());
        assert_eq!(demo("256", "256"), None);
    }

    #[test]
    fn an_oversized_queue_cap_is_rejected() {
        let demo = |cap: &str| {
            let words = ["examples/scenarios/tiny.toml", "--queue-cap", cap];
            parse_serve_demo_options(&args(&words)).map(|opts| opts.config.queue_cap)
        };
        assert_eq!(
            demo("18446744073709551615"),
            Err("--queue-cap must be between 1 and 65536, got `18446744073709551615`".into())
        );
        assert_eq!(demo("65536"), Ok(MAX_QUEUE_CAP));
    }

    #[test]
    fn an_oversized_max_batch_is_rejected() {
        let demo = |cap: &str| {
            let words = ["examples/scenarios/tiny.toml", "--max-batch", cap];
            parse_serve_demo_options(&args(&words)).map(|opts| opts.config.max_batch)
        };
        assert_eq!(
            demo("18446744073709551615"),
            Err("--max-batch must be between 1 and 4194304, got `18446744073709551615`".into())
        );
        assert_eq!(demo("4194304"), Ok(Compiler::MAX_LAYER_SAMPLES));
    }

    #[test]
    fn the_linger_flag_is_unknown() {
        let words = ["examples/scenarios/tiny.toml", "--linger-us", "18446744073709551615"];
        assert_eq!(
            parse_serve_demo_options(&args(&words)).err().as_deref(),
            Some("unknown flag `--linger-us`")
        );
    }
}
