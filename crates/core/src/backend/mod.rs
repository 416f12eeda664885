//! Pluggable execution backends.
//!
//! An [`ExecutionBackend`] evaluates **one batch sample** of a network and
//! returns one [`LayerSample`] per layer per timestep (synthetic runs
//! evaluate a single step; temporal runs evaluate `T` real ones with
//! membrane state carried between steps). The serving layer owns
//! everything around that: a compiled [`Plan`](crate::Plan) builds the
//! shared [`SampleContext`] (program cache attached) and binds the backend
//! as a plan-owned value, and its [`Session`](crate::Session)s fan
//! requests out over worker arenas (each sample is seeded independently
//! and a sample's timesteps stay on one worker, so the folded report is
//! bit-identical to a sequential run).
//!
//! Two backends ship with the crate, mirroring the two timing models of
//! the paper's evaluation. Both consume the *same* stream programs
//! emitted by the kernels (`spikestream-ir`):
//!
//! * [`AnalyticBackend`] — integrates the cost model over symbolic
//!   lowerings, fast enough for full-batch figure sweeps;
//! * [`CycleLevelBackend`] — interprets exact lowerings on the
//!   cycle-level cluster simulation behind a [`LayerExecutor`], used
//!   for validation.
//!
//! Third-party backends (accelerator models, event-driven simulators, …)
//! implement the same trait and bind into a plan at compile time
//! ([`Compiler::with_backend`](crate::Compiler::with_backend)) — no engine
//! changes.

mod analytic;
mod cycle;

pub use analytic::AnalyticBackend;
pub use cycle::CycleLevelBackend;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use snitch_arch::{ClusterConfig, CostModel};
use spikestream_energy::EnergyModel;
use spikestream_ir::{CostIntegrator, ProgramCache};
use spikestream_kernels::{LayerExecutor, LayerScratch};
use spikestream_snn::{FiringProfile, Network, TemporalSparsityModel, WorkloadMode};

use crate::engine::{InferenceConfig, TimingModel};

/// Everything a backend needs to evaluate batch samples: the network, its
/// firing profile, the hardware and energy models, and the run
/// configuration (variant, format, seed).
#[derive(Debug, Clone, Copy)]
pub struct SampleContext<'a> {
    /// The network being evaluated.
    pub network: &'a Network,
    /// Per-layer firing statistics driving workload generation.
    pub profile: &'a FiringProfile,
    /// Cluster configuration (cores, clock, scratchpad).
    pub cluster: &'a ClusterConfig,
    /// Per-operation cycle costs.
    pub cost: &'a CostModel,
    /// Energy model applied to the activity of each layer.
    pub energy: &'a EnergyModel,
    /// The inference configuration of this run.
    pub config: &'a InferenceConfig,
    /// The plan-owned symbolic program cache, when the run is driven by a
    /// compiled [`Plan`](crate::Plan). Backends that lower symbolically
    /// (the analytic backend) bind programs through it instead of
    /// re-emitting per sample; `None` (a bare context built outside a
    /// plan) falls back to inline lowering with bit-identical results.
    pub programs: Option<&'a ProgramCache>,
    /// The shared cost integrator for symbolic lowerings, owned by the
    /// context's builder ([`Plan`](crate::Plan) or
    /// [`Engine`](crate::Engine)) so the per-sample hot path never clones
    /// the cluster configuration and cost model it wraps.
    pub integrator: &'a CostIntegrator,
    /// The layer-lowering dispatcher for the run's variant and format
    /// (a two-enum `Copy` value, hoisted here so backends share one).
    pub executor: LayerExecutor,
}

impl SampleContext<'_> {
    /// Jittered firing rate of layer `idx` for a batch sample.
    ///
    /// Deterministic in `(config.seed, sample, idx)` — this is what makes
    /// parallel batch execution bit-identical to a sequential run: no RNG
    /// state is shared between samples.
    pub fn sample_rate(&self, idx: usize, sample: usize) -> f64 {
        let base = self.profile.rate(idx);
        if idx == 0 {
            return base;
        }
        let mut rng =
            StdRng::seed_from_u64(self.config.seed ^ ((sample as u64) << 20) ^ ((idx as u64) << 4));
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let gauss = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        (base * (1.0 + self.profile.relative_std * gauss)).clamp(0.0, 1.0)
    }

    /// Expected firing rate of layer `idx` at timestep `step` of a batch
    /// sample: the jittered profile rate modulated by the
    /// [`TemporalSparsityModel`] warm-up ramp (membranes charge from rest,
    /// so early steps under-fire). Identical to
    /// [`SampleContext::sample_rate`] in synthetic mode and for the dense
    /// encoding layer, whose input does not depend on membrane history.
    pub fn sample_rate_at(&self, idx: usize, sample: usize, step: usize) -> f64 {
        let base = self.sample_rate(idx, sample);
        match self.config.mode {
            WorkloadMode::Synthetic => base,
            WorkloadMode::Temporal { .. } if idx == 0 => base,
            WorkloadMode::Temporal { .. } => {
                (base * TemporalSparsityModel::calibrated().step_factor(step)).clamp(0.0, 1.0)
            }
        }
    }

    /// Timesteps each sample of this run evaluates.
    pub fn timesteps(&self) -> usize {
        self.config.timesteps()
    }
}

/// Per-sample, per-layer measurement before averaging.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LayerSample {
    /// Runtime in cycles.
    pub cycles: f64,
    /// FPU utilization (0..=1).
    pub fpu_utilization: f64,
    /// Instructions per cycle per core.
    pub ipc: f64,
    /// Firing rate of the layer's input.
    pub input_firing_rate: f64,
    /// Input spike count (dense pixels for the encoding layer).
    pub input_spikes: f64,
    /// Synaptic operations executed.
    pub synops: f64,
    /// Energy in joules.
    pub energy_j: f64,
    /// DMA payload bytes moved (in + out) by the layer invocation.
    pub dma_bytes: f64,
    /// Compressed (CSR-derived) input footprint in bytes.
    pub csr_footprint_bytes: f64,
    /// AER input footprint in bytes.
    pub aer_footprint_bytes: f64,
}

/// A strategy for evaluating one batch sample of a network.
///
/// Implementations must be stateless across samples (all per-sample
/// randomness derived from `(ctx.config.seed, sample)`), which lets the
/// engine run samples on worker threads in any order while producing
/// results bit-identical to a sequential loop.
///
/// # Example
///
/// A custom backend binds into a plan without engine changes:
///
/// ```
/// use spikestream::{
///     Engine, ExecutionBackend, FpFormat, InferenceConfig, KernelVariant, LayerSample,
///     Request, SampleContext, TimingModel,
/// };
///
/// /// A toy backend charging one cycle per expected synaptic operation.
/// struct SynopCounting;
///
/// impl ExecutionBackend for SynopCounting {
///     fn name(&self) -> &'static str {
///         "synop-counting"
///     }
///
///     fn run_sample(&self, ctx: &SampleContext<'_>, sample: usize) -> Vec<LayerSample> {
///         ctx.network
///             .layers()
///             .iter()
///             .enumerate()
///             .map(|(idx, layer)| {
///                 let rate = ctx.sample_rate(idx, sample);
///                 let synops = layer.kind.dense_synops() as f64 * rate;
///                 LayerSample { cycles: synops.max(1.0), synops, ..Default::default() }
///             })
///             .collect()
///     }
/// }
///
/// let engine = Engine::svgg11(1);
/// let config = InferenceConfig {
///     timing: TimingModel::Analytic, // ignored: the backend is explicit
///     batch: 2,
///     seed: 7,
///     ..InferenceConfig::paper(KernelVariant::SpikeStream, FpFormat::Fp16)
/// };
/// let plan = engine
///     .compiler()
///     .with_backend(Box::new(SynopCounting))
///     .compile(config)
///     .unwrap();
/// let report = plan.open_session().infer(&Request::batch(2));
/// assert!(report.total_cycles() > 0.0);
/// ```
pub trait ExecutionBackend: Send + Sync {
    /// Human-readable backend name (for reports and diagnostics).
    fn name(&self) -> &'static str;

    /// Evaluate batch sample `sample`, returning one [`LayerSample`] per
    /// network layer per timestep: step-major order (`step 0` layers first,
    /// then `step 1`, …). Synthetic runs evaluate exactly one step, so the
    /// historical "one sample per layer" contract is the `T = 1` case.
    fn run_sample(&self, ctx: &SampleContext<'_>, sample: usize) -> Vec<LayerSample>;

    /// Evaluate batch sample `sample`, appending one [`LayerSample`] per
    /// network layer per timestep to `out` (step-major, as in
    /// [`ExecutionBackend::run_sample`]) instead of allocating a fresh
    /// vector.
    ///
    /// Callers that reuse one output vector across samples avoid a
    /// per-sample allocation; the built-in backends override the default
    /// (`out.extend(self.run_sample(..))`) accordingly. The two entry
    /// points must produce identical samples.
    fn run_sample_into(&self, ctx: &SampleContext<'_>, sample: usize, out: &mut Vec<LayerSample>) {
        out.extend(self.run_sample(ctx, sample));
    }

    /// Evaluate batch sample `sample` with caller-owned kernel scratch —
    /// the entry point [`Session`](crate::Session) workers drive through
    /// their [`WorkerArena`]s, so compressed-input buffers and persistent
    /// membrane state are reused across every sample (and request) the
    /// worker serves. Must produce samples identical to
    /// [`ExecutionBackend::run_sample_into`]; the default ignores the
    /// scratch for backends that keep no kernel state.
    fn run_sample_with_scratch(
        &self,
        ctx: &SampleContext<'_>,
        sample: usize,
        out: &mut Vec<LayerSample>,
        _scratch: &mut LayerScratch,
    ) {
        self.run_sample_into(ctx, sample, out);
    }
}

/// The built-in backend implementing a [`TimingModel`], as an owned value.
///
/// Compiled [`Plan`](crate::Plan)s *own* their backend binding — there is
/// no `&'static` registry to reach through, which keeps `Plan: Send +
/// Sync` a plain structural property and lets third parties bind their own
/// backends at compile time via
/// [`Compiler::with_backend`](crate::Compiler::with_backend).
pub fn backend_for(timing: TimingModel) -> Box<dyn ExecutionBackend> {
    match timing {
        TimingModel::Analytic => Box::new(AnalyticBackend),
        TimingModel::CycleLevel => Box::new(CycleLevelBackend),
    }
}

/// Per-worker scratch arena a [`Session`](crate::Session) owns for each of
/// its worker slots: the per-sample [`LayerSample`] staging buffer plus the
/// kernels' [`LayerScratch`] (compressed-input buffers and the persistent
/// per-layer membrane state of temporal samples). Reused for every sample
/// the worker steals, across requests — in the serving steady state no
/// buffer grows, which the [`WorkerArena::grows`] counter makes
/// observable (and tests assert).
#[derive(Debug, Default)]
pub struct WorkerArena {
    samples: Vec<LayerSample>,
    kernel: LayerScratch,
    runs: u64,
    grows: u64,
}

impl WorkerArena {
    /// A fresh, empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Evaluate one batch sample through `backend`, staging the results in
    /// this arena's buffers. The returned slice is valid until the next
    /// call.
    pub fn run_sample<'a>(
        &'a mut self,
        backend: &dyn ExecutionBackend,
        ctx: &SampleContext<'_>,
        sample: usize,
    ) -> &'a [LayerSample] {
        let capacity = self.samples.capacity();
        self.samples.clear();
        backend.run_sample_with_scratch(ctx, sample, &mut self.samples, &mut self.kernel);
        self.runs += 1;
        self.grows += u64::from(self.samples.capacity() != capacity);
        &self.samples
    }

    /// Samples this arena has evaluated since construction.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Times the staging buffer had to grow; stays flat once the arena
    /// reaches steady-state capacity.
    pub fn grows(&self) -> u64 {
        self.grows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_for_selects_the_matching_backend_as_an_owned_value() {
        assert_eq!(backend_for(TimingModel::Analytic).name(), "analytic");
        assert_eq!(backend_for(TimingModel::CycleLevel).name(), "cycle-level");
    }

    #[test]
    fn sample_rates_are_deterministic_and_jittered() {
        let network = Network::svgg11(1);
        let profile = FiringProfile::paper_svgg11();
        let cluster = ClusterConfig::default();
        let cost = CostModel::default();
        let energy = EnergyModel::calibrated();
        let config = crate::InferenceConfig::paper(
            spikestream_kernels::KernelVariant::SpikeStream,
            snitch_arch::fp::FpFormat::Fp16,
        );
        let integrator = CostIntegrator::new(cluster.clone(), cost.clone());
        let ctx = SampleContext {
            network: &network,
            profile: &profile,
            cluster: &cluster,
            cost: &cost,
            energy: &energy,
            config: &config,
            programs: None,
            integrator: &integrator,
            executor: LayerExecutor::new(config.variant, config.format),
        };
        // Layer 0 is the dense encoding layer: no jitter.
        assert_eq!(ctx.sample_rate(0, 0), ctx.sample_rate(0, 5));
        // Spiking layers: deterministic per sample, different across samples.
        assert_eq!(ctx.sample_rate(2, 3), ctx.sample_rate(2, 3));
        assert_ne!(ctx.sample_rate(2, 3), ctx.sample_rate(2, 4));
        // Synthetic mode ignores the step index entirely.
        assert_eq!(ctx.sample_rate_at(2, 3, 0), ctx.sample_rate(2, 3));
        assert_eq!(ctx.sample_rate_at(2, 3, 7), ctx.sample_rate(2, 3));
    }

    #[test]
    fn temporal_rates_ramp_up_with_the_step() {
        use spikestream_snn::TemporalEncoding;
        let network = Network::svgg11(1);
        let profile = FiringProfile::paper_svgg11();
        let cluster = ClusterConfig::default();
        let cost = CostModel::default();
        let energy = EnergyModel::calibrated();
        let config = crate::InferenceConfig::paper(
            spikestream_kernels::KernelVariant::SpikeStream,
            snitch_arch::fp::FpFormat::Fp16,
        )
        .temporal(4, TemporalEncoding::Direct);
        let integrator = CostIntegrator::new(cluster.clone(), cost.clone());
        let ctx = SampleContext {
            network: &network,
            profile: &profile,
            cluster: &cluster,
            cost: &cost,
            energy: &energy,
            config: &config,
            programs: None,
            integrator: &integrator,
            executor: LayerExecutor::new(config.variant, config.format),
        };
        assert_eq!(ctx.timesteps(), 4);
        // Spiking layers warm up toward the steady-state profile rate...
        let steady = ctx.sample_rate(2, 0);
        assert!(ctx.sample_rate_at(2, 0, 0) < ctx.sample_rate_at(2, 0, 3));
        assert!(ctx.sample_rate_at(2, 0, 3) <= steady);
        // ... while the encoding layer's dense input is step-invariant.
        assert_eq!(ctx.sample_rate_at(0, 0, 0), ctx.sample_rate_at(0, 0, 3));
    }
}
