//! Compilation: [`Compiler`] → [`Plan`].
//!
//! The serving lifecycle separates the work that depends only on the
//! *network and configuration* from the work that depends on each
//! *request*:
//!
//! ```text
//! Compiler ──compile──▶ Plan ──open_session──▶ Session ──serve_into──▶ &mut [LayerSample]
//! (Engine + optional    (Engine, validated     (worker scratch         (one slot per
//!  custom backend)       config, bound          arenas, per-            position, slot-
//!                        backend, empty         sample membrane         major; fold ⇒
//!                        program-cost cache)    state)                  report + fleet)
//! ```
//!
//! The [`Engine`] is the one model value (network, firing profile,
//! hardware and energy models): a compiler and every plan compiled from it
//! carry a clone of it, and clones share the network's weights through an
//! `Arc`. [`Compiler::compile`] performs every per-model step exactly
//! once: config/profile validation and binding the execution backend as a
//! *plan-owned value* (no `&'static` registry). It lowers and integrates
//! nothing. The plan owns an empty [`ProgramCache`] that memoizes the
//! integrated cost of every symbolic layer binding the analytic backend
//! prices, keyed by `(layer, kernel class, format, sparsity bucket)`: the
//! first request over a sample population lowers and integrates each
//! binding once, and later requests over the same population hit.
//!
//! A [`Plan`] is immutable, `Send + Sync` (asserted at compile time below)
//! and cheap to share: wrap it in an `Arc` and open one session per worker
//! task, or serve one long-lived session request after request.

use spikestream_ir::{CostIntegrator, ProgramCache};
use spikestream_kernels::LayerExecutor;
use spikestream_snn::{LayerKind, Network};

use crate::backend::{backend_for, ExecutionBackend, LayerSample, SampleContext};
use crate::engine::{Engine, InferenceConfig, TimingModel};
use crate::report::InferenceReport;
use crate::session::{Request, Session};

/// A validation failure of [`Compiler::compile`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The firing profile does not cover every layer of the network.
    ProfileTooShort {
        /// Network name.
        network: String,
        /// Layers in the network.
        layers: usize,
        /// Rates in the profile.
        rates: usize,
    },
    /// The network's layers do not chain: a layer's input width differs
    /// from its predecessor's output width (see [`Network::validate`]).
    InvalidNetwork {
        /// Network name.
        network: String,
        /// The validation failure.
        message: String,
    },
    /// The built-in cycle-level backend feeds the dense input image to
    /// layer 0 and spikes to every later layer, so the network must start
    /// with a spike-encoding convolution.
    NoEncodingLayer {
        /// Network name.
        network: String,
    },
    /// The configured batch size is zero.
    EmptyBatch,
    /// One request over the configured batch would fold more than
    /// [`Compiler::MAX_LAYER_SAMPLES`] per-layer samples (or the product
    /// overflows).
    BatchTooLarge {
        /// Configured batch size.
        batch: usize,
        /// Layers in the network.
        layers: usize,
        /// Timesteps per sample.
        timesteps: usize,
    },
    /// A layer's neuron-model parameters fail validation.
    InvalidNeuronParams {
        /// Name of the offending layer.
        layer: String,
        /// Model spelling (`lif` | `izhikevich`).
        model: &'static str,
        /// The parameter-level failure.
        message: String,
    },
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::ProfileTooShort { network, layers, rates } => write!(
                f,
                "firing profile covers {rates} layers but network `{network}` has {layers}"
            ),
            CompileError::InvalidNetwork { network, message } => {
                write!(f, "network `{network}` is invalid: {message}")
            }
            CompileError::NoEncodingLayer { network } => write!(
                f,
                "the cycle-level backend needs a spike-encoding convolution as the first layer \
                 of network `{network}`"
            ),
            CompileError::EmptyBatch => write!(f, "batch must be at least 1"),
            CompileError::BatchTooLarge { batch, layers, timesteps } => write!(
                f,
                "batch {batch} x {layers} layers x {timesteps} timesteps exceeds the limit of {} \
                 layer samples per request",
                Compiler::MAX_LAYER_SAMPLES
            ),
            CompileError::InvalidNeuronParams { layer, model, message } => {
                write!(f, "layer `{layer}` has invalid {model} parameters: {message}")
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// Builds [`Plan`]s: the one place in the workspace that binds an
/// [`Engine`] and an execution backend into a servable unit. Get one from
/// [`Engine::compiler`]; `Scenario` and the `spikestream` CLI go through
/// the same path, and neither assembles backends by hand.
///
/// # Example
///
/// ```
/// use spikestream::{
///     Engine, FiringProfile, FpFormat, InferenceConfig, KernelVariant, Network, Request,
/// };
///
/// let compiler = Engine::new(Network::svgg11(7), FiringProfile::paper_svgg11()).compiler();
/// let plan = compiler
///     .compile(InferenceConfig {
///         batch: 4,
///         ..InferenceConfig::paper(KernelVariant::SpikeStream, FpFormat::Fp16)
///     })
///     .unwrap();
/// let report = plan.open_session().infer(&Request::batch(4));
/// assert!(report.total_cycles() > 0.0);
/// ```
pub struct Compiler {
    pub(crate) engine: Engine,
    pub(crate) backend: Option<Box<dyn ExecutionBackend>>,
}

impl Compiler {
    /// Upper bound on `batch × layers × timesteps`, the per-layer samples
    /// one full-batch request folds: 2^22 (about 320 MiB of fold buffer).
    pub const MAX_LAYER_SAMPLES: usize = 1 << 22;

    /// `batch × layers × timesteps`, the per-layer samples one request of
    /// `batch` samples folds, or `None` when the product overflows or
    /// exceeds [`Compiler::MAX_LAYER_SAMPLES`].
    pub fn layer_samples(batch: usize, layers: usize, timesteps: usize) -> Option<usize> {
        let samples = batch.checked_mul(layers)?.checked_mul(timesteps)?;
        (samples <= Self::MAX_LAYER_SAMPLES).then_some(samples)
    }

    /// Bind an explicit execution backend instead of the built-in one the
    /// config's timing model selects. The plan *owns* the backend; this is
    /// the supported path for third-party backends under the serving API.
    pub fn with_backend(mut self, backend: Box<dyn ExecutionBackend>) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Compile `config` into a servable [`Plan`]: validate it and bind the
    /// backend. The plan's program cache starts empty.
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] when the profile does not cover the
    /// network, the layers do not chain, the batch is empty or exceeds
    /// [`Compiler::MAX_LAYER_SAMPLES`], any layer carries invalid
    /// neuron-model parameters, or the config selects the built-in
    /// cycle-level backend for a network without a spike-encoding first
    /// convolution.
    pub fn compile(self, config: InferenceConfig) -> Result<Plan, CompileError> {
        let Compiler { engine, backend } = self;
        let network = engine.network();
        if engine.profile.len() < network.len() {
            return Err(CompileError::ProfileTooShort {
                network: network.name.clone(),
                layers: network.len(),
                rates: engine.profile.len(),
            });
        }
        if let Err(message) = network.validate() {
            return Err(CompileError::InvalidNetwork { network: network.name.clone(), message });
        }
        if config.batch == 0 {
            return Err(CompileError::EmptyBatch);
        }
        let (layers, timesteps) = (network.len(), config.timesteps());
        if Self::layer_samples(config.batch, layers, timesteps).is_none() {
            return Err(CompileError::BatchTooLarge { batch: config.batch, layers, timesteps });
        }
        for layer in network.layers() {
            if let Err(message) = layer.neuron.validate() {
                return Err(CompileError::InvalidNeuronParams {
                    layer: layer.name.clone(),
                    model: layer.neuron.as_str(),
                    message,
                });
            }
        }
        let encodes = network
            .layers()
            .first()
            .is_some_and(|layer| layer.encodes_input && matches!(layer.kind, LayerKind::Conv(_)));
        if backend.is_none() && config.timing == TimingModel::CycleLevel && !encodes {
            return Err(CompileError::NoEncodingLayer { network: network.name.clone() });
        }
        let backend = backend.unwrap_or_else(|| backend_for(config.timing));

        // The plan owns one cost integrator and one layer executor: every
        // per-sample evaluation of every session shares them through the
        // [`SampleContext`], so the serving hot path never re-clones the
        // cluster configuration or cost model.
        let integrator = CostIntegrator::new(engine.cluster.clone(), engine.cost.clone());
        let executor = LayerExecutor::new(config.variant, config.format);

        Ok(Plan { engine, config, backend, programs: ProgramCache::new(), integrator, executor })
    }
}

impl std::fmt::Debug for Compiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Compiler")
            .field("network", &self.engine.network.name)
            .field("backend", &self.backend.as_ref().map(|b| b.name()))
            .finish_non_exhaustive()
    }
}

/// A compiled, immutable, servable inference plan: the [`Engine`] it was
/// compiled from, the validated configuration, the plan-owned execution
/// backend and the program-cost cache. Open sessions against it to serve
/// requests; every session of a plan shares its cache.
pub struct Plan {
    engine: Engine,
    config: InferenceConfig,
    backend: Box<dyn ExecutionBackend>,
    programs: ProgramCache,
    integrator: CostIntegrator,
    executor: LayerExecutor,
}

// `Plan` must stay shareable across serving threads: backends are owned
// values (`Box<dyn ExecutionBackend>` with `Send + Sync` supertraits) and
// the program cache is internally synchronized. Checked at compile time.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Plan>();
};

impl Plan {
    /// The configuration this plan was compiled from.
    pub fn config(&self) -> &InferenceConfig {
        &self.config
    }

    /// The network being served: the compiling engine's own, not a copy.
    pub fn network(&self) -> &Network {
        self.engine.network()
    }

    /// The plan-owned execution backend.
    pub fn backend(&self) -> &dyn ExecutionBackend {
        self.backend.as_ref()
    }

    /// The plan-owned program-cost cache (hit/emit counters included —
    /// see
    /// [`ProgramCache::counters`](spikestream_ir::ProgramCache::counters)).
    pub fn programs(&self) -> &ProgramCache {
        &self.programs
    }

    /// Open a long-lived serving session: worker scratch arenas and
    /// per-sample membrane state live in the session and are reused across
    /// every request it serves.
    pub fn open_session(&self) -> Session<'_> {
        Session::new(self)
    }

    /// One-shot convenience: serve the plan's full configured batch through
    /// a throwaway session and fold the results into a report. Equivalent
    /// to `plan.open_session().infer(&Request::batch(plan.config().batch))`.
    pub fn run(&self) -> InferenceReport {
        self.open_session().infer(&Request::batch(self.config.batch))
    }

    /// Fold a slot-major flat buffer of per-layer measurements (the layout
    /// [`Session::serve_into`] writes: `batch` samples × one
    /// [`LayerSample`] per layer per timestep) into the unsharded
    /// [`InferenceReport`] a bare session would produce over the same
    /// samples — the demux half of a coalescing gateway, which re-folds
    /// each client's slots of a shared run separately.
    pub fn fold_report(&self, flat: &[LayerSample], batch: usize) -> InferenceReport {
        InferenceReport::fold_batch(self.network(), self.clock_hz(), &self.config, flat, batch)
    }

    /// Per-sample cycle totals of the same buffer, in slot order, each
    /// summed over its slot in buffer order: what
    /// [`attribute_shards`](crate::attribute_shards) attributes to a fleet,
    /// as a sharded [`Session::infer`] does.
    pub fn sample_cycles(&self, flat: &[LayerSample], batch: usize) -> Vec<f64> {
        let units = self.network().len() * self.config.timesteps();
        (0..batch)
            .map(|i| flat[i * units..(i + 1) * units].iter().map(|l| l.cycles).sum())
            .collect()
    }

    /// The shared per-sample evaluation context, bound to the plan's
    /// program cache.
    pub(crate) fn context(&self) -> SampleContext<'_> {
        let engine = &self.engine;
        SampleContext {
            network: &engine.network,
            profile: &engine.profile,
            cluster: &engine.cluster,
            cost: &engine.cost,
            energy: &engine.energy,
            config: &self.config,
            programs: Some(&self.programs),
            integrator: &self.integrator,
            executor: self.executor,
        }
    }

    /// Clock frequency used to convert cycles to seconds in reports.
    pub fn clock_hz(&self) -> f64 {
        self.engine.cluster.clock_hz
    }
}

impl std::fmt::Debug for Plan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Plan")
            .field("network", &self.engine.network.name)
            .field("config", &self.config)
            .field("backend", &self.backend.name())
            .field("cached_programs", &self.programs.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FpFormat, KernelVariant};
    use spikestream_ir::CacheCounters;
    use spikestream_snn::FiringProfile;

    #[test]
    fn compile_validates_the_profile_against_the_network() {
        let compiler = Engine::new(Network::svgg11(1), FiringProfile::uniform(3, 0.2)).compiler();
        let err = compiler
            .compile(InferenceConfig::paper(KernelVariant::SpikeStream, FpFormat::Fp16))
            .unwrap_err();
        assert_eq!(err.to_string(), "firing profile covers 3 layers but network `S-VGG11` has 8");
    }

    #[test]
    fn compile_rejects_an_empty_batch() {
        let compiler = Engine::svgg11(1).compiler();
        let config = InferenceConfig {
            batch: 0,
            ..InferenceConfig::paper(KernelVariant::SpikeStream, FpFormat::Fp16)
        };
        assert_eq!(compiler.compile(config).unwrap_err(), CompileError::EmptyBatch);
    }

    #[test]
    fn compile_rejects_a_batch_beyond_the_layer_sample_bound() {
        let paper = InferenceConfig::paper(KernelVariant::SpikeStream, FpFormat::Fp16);
        let compile = |config: InferenceConfig| Engine::svgg11(1).compiler().compile(config);
        // 2^19 samples x 8 layers is exactly the bound; one more sample is not.
        assert!(compile(InferenceConfig { batch: 1 << 19, ..paper }).is_ok());
        let err = compile(InferenceConfig { batch: (1 << 19) + 1, ..paper }).unwrap_err();
        assert_eq!(
            err,
            CompileError::BatchTooLarge { batch: (1 << 19) + 1, layers: 8, timesteps: 1 }
        );
        assert_eq!(
            err.to_string(),
            "batch 524289 x 8 layers x 1 timesteps exceeds the limit of 4194304 layer samples \
             per request"
        );
        // Timesteps count against the same bound ...
        let temporal = InferenceConfig { batch: 1 << 17, ..paper.temporal_steps(5) };
        assert_eq!(
            compile(temporal).unwrap_err(),
            CompileError::BatchTooLarge { batch: 1 << 17, layers: 8, timesteps: 5 }
        );
        // ... and a product that overflows `usize` is rejected, not wrapped.
        let huge = InferenceConfig { batch: usize::MAX, ..paper };
        assert!(matches!(
            compile(huge),
            Err(CompileError::BatchTooLarge { batch: usize::MAX, .. })
        ));
    }

    #[test]
    fn compile_rejects_invalid_neuron_parameters() {
        use spikestream_snn::{IzhiParams, LifParams, NeuronModel};

        let mut network = Network::svgg11(1);
        network
            .set_neuron_model(NeuronModel::Lif(LifParams { alpha: 1.5, ..LifParams::default() }));
        let err = Engine::new(network, FiringProfile::paper_svgg11())
            .compiler()
            .compile(InferenceConfig::paper(KernelVariant::SpikeStream, FpFormat::Fp16))
            .unwrap_err();
        match &err {
            CompileError::InvalidNeuronParams { layer, model, message } => {
                assert_eq!(*model, "lif");
                assert!(!layer.is_empty());
                assert!(message.contains("alpha"), "{message}");
            }
            other => panic!("expected InvalidNeuronParams, got {other:?}"),
        }
        assert!(err.to_string().contains("invalid lif parameters"), "{err}");

        let mut network = Network::svgg11(1);
        network.set_neuron_model(NeuronModel::Izhikevich(IzhiParams {
            v_threshold: -80.0,
            ..IzhiParams::regular_spiking()
        }));
        let err = Engine::new(network, FiringProfile::paper_svgg11())
            .compiler()
            .compile(InferenceConfig::paper(KernelVariant::SpikeStream, FpFormat::Fp16))
            .unwrap_err();
        assert!(err.to_string().contains("invalid izhikevich parameters"), "{err}");
        assert!(err.to_string().contains("reset potential"), "{err}");
    }

    /// A 4x4x2 conv (128 outputs) feeding an FC layer of `fc_inputs`
    /// inputs; the conv encodes the input image when `encodes`.
    fn conv_fc(encodes: bool, fc_inputs: usize) -> Engine {
        use spikestream_snn::tensor::TensorShape;
        use spikestream_snn::{ConvSpec, LifParams, LinearSpec, NetworkBuilder};

        let lif = LifParams::new(0.5, 0.3);
        let input = TensorShape::new(4, 4, 2);
        let conv =
            ConvSpec { input, out_channels: 8, kh: 3, kw: 3, stride: 1, padding: 1, pool: false };
        let mut network = NetworkBuilder::new("conv-fc")
            .conv("conv1", conv, lif)
            .linear("fc2", LinearSpec { in_features: fc_inputs, out_features: 10 }, lif)
            .build_with_random_weights(3, 0.1);
        network.layers_mut()[0].encodes_input = encodes;
        Engine::new(network, FiringProfile::uniform(2, 0.25))
    }

    #[test]
    fn compile_rejects_networks_the_cycle_level_backend_cannot_feed() {
        let cycle = InferenceConfig {
            timing: crate::TimingModel::CycleLevel,
            batch: 1,
            ..InferenceConfig::paper(KernelVariant::SpikeStream, FpFormat::Fp16)
        };
        let compile = |engine: Engine, config| engine.compiler().compile(config).map(|_| ());
        let no_encoder = CompileError::NoEncodingLayer { network: "conv-fc".to_string() };
        // Layer 0 consumes spikes: the synthetic path has no spikes for it,
        // and the temporal path has nothing to encode the image.
        assert_eq!(compile(conv_fc(false, 128), cycle), Err(no_encoder.clone()));
        assert_eq!(compile(conv_fc(false, 128), cycle.temporal_steps(2)), Err(no_encoder.clone()));
        assert_eq!(
            no_encoder.to_string(),
            "the cycle-level backend needs a spike-encoding convolution as the first layer of \
             network `conv-fc`"
        );
        // The analytic backend prices such a layer from its rate alone.
        let analytic = InferenceConfig { timing: crate::TimingModel::Analytic, ..cycle };
        assert_eq!(compile(conv_fc(false, 128), analytic), Ok(()));
        assert_eq!(compile(conv_fc(true, 128), cycle.temporal_steps(2)), Ok(()));
    }

    #[test]
    fn compile_rejects_layers_that_do_not_chain() {
        let config = InferenceConfig {
            timing: crate::TimingModel::CycleLevel,
            batch: 1,
            ..InferenceConfig::paper(KernelVariant::SpikeStream, FpFormat::Fp16)
        }
        .temporal_steps(2);
        let err = conv_fc(true, 100).compiler().compile(config).unwrap_err();
        assert_eq!(
            err,
            CompileError::InvalidNetwork {
                network: "conv-fc".to_string(),
                message: "layer fc2 expects 100 inputs but receives 128".to_string(),
            }
        );
        assert_eq!(
            err.to_string(),
            "network `conv-fc` is invalid: layer fc2 expects 100 inputs but receives 128"
        );
    }

    #[test]
    fn compilation_leaves_the_program_cache_empty() {
        let plan = Engine::svgg11(1)
            .compiler()
            .compile(InferenceConfig::paper(KernelVariant::SpikeStream, FpFormat::Fp16))
            .unwrap();
        assert!(plan.programs().is_empty(), "compiling lowers and integrates nothing");
        assert_eq!(plan.programs().counters(), CacheCounters::default());
        assert_eq!(plan.backend().name(), "analytic");
    }
}
