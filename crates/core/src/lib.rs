//! # SpikeStream
//!
//! Reproduction of *SpikeStream: Accelerating Spiking Neural Network
//! Inference on RISC-V Clusters with Sparse Computation Extensions*
//! (DATE 2025) as a Rust library.
//!
//! SpikeStream is a software optimization technique that runs spiking
//! neural network (SNN) inference on a general-purpose RISC-V compute
//! cluster (the Snitch cluster) and maps the sparse, indirection-heavy
//! weight gathers of event-driven convolution onto the cluster's stream
//! semantic registers and FP hardware loops. This crate ties together the
//! substrates of the workspace — the architectural model (`snitch-arch`),
//! the memory system (`snitch-mem`), the cluster simulator (`snitch-sim`),
//! the SNN substrate (`spikestream-snn`), the kernels
//! (`spikestream-kernels`), the energy model (`spikestream-energy`) and the
//! neuromorphic-accelerator models (`neuro-accel-models`) — behind one
//! public API:
//!
//! The public API is a three-stage, compile-once serving lifecycle:
//!
//! ```text
//! Compiler ──compile──▶ Plan ──open_session──▶ Session ──serve_into──▶ &mut [LayerSample]
//! ```
//!
//! * [`Engine`] is the one model value (network, firing profile, hardware
//!   and energy models); [`Engine::compiler`] hands out a [`Compiler`]
//!   that carries a clone of it, sharing the network's weights;
//! * [`Compiler`] / [`Engine::compile`] perform every per-model step once
//!   — config/profile validation and binding the execution backend as a
//!   plan-owned value (the plan's program-cost cache starts empty and is
//!   filled by serving);
//! * [`Plan`] is the immutable, `Send + Sync` servable artifact; its
//!   [`Session`]s own the worker scratch arenas, per-sample membrane
//!   state and a parked [`pool::WorkerPool`] of serving threads, and
//!   serve [`Request`]s, each position's results into its own slot of one
//!   slot-major buffer ([`Session::serve_into`]; [`Session::infer`] folds
//!   the buffer into an [`InferenceReport`]);
//! * [`backend`] is the pluggable execution layer: the analytic and
//!   cycle-level timing models are [`ExecutionBackend`] implementations
//!   (one required method,
//!   [`run_sample_with_scratch`](ExecutionBackend::run_sample_with_scratch)),
//!   and custom backends bind into a plan via [`Compiler::with_backend`];
//! * [`sharding`] is the fleet layer: a request with
//!   [`Request::with_shards`] attributes its samples to N simulated
//!   cluster shards with per-shard utilization/imbalance statistics in the
//!   report (aggregates stay bit-identical to a sequential request);
//! * [`scenario`] parses the declarative scenario files driving the
//!   `spikestream` CLI (`run` / `bench` / `compare`);
//! * [`experiments`] regenerates every figure of the paper's evaluation.
//!
//! # Quickstart
//!
//! ```
//! use spikestream::{Engine, FpFormat, InferenceConfig, KernelVariant, Request};
//!
//! let engine = Engine::svgg11(42);
//! // Compile once per configuration...
//! let baseline = engine.compile(&InferenceConfig {
//!     batch: 4,
//!     seed: 7,
//!     ..InferenceConfig::paper(KernelVariant::Baseline, FpFormat::Fp16)
//! });
//! let streamed = engine.compile(&InferenceConfig {
//!     batch: 4,
//!     seed: 7,
//!     ..InferenceConfig::paper(KernelVariant::SpikeStream, FpFormat::Fp16)
//! });
//! // ... then serve: a long-lived session amortizes the lowering over
//! // every request it handles.
//! let mut session = streamed.open_session();
//! let fast = session.infer(&Request::batch(4));
//! assert!(fast.total_cycles() < baseline.run().total_cycles());
//! ```
//!
//! A *temporal* run propagates real spikes across `T` timesteps with
//! persistent LIF membranes instead of sampling synthetic workloads — see
//! [`WorkloadMode`] and the per-step breakdown in
//! [`InferenceReport::timesteps`]:
//!
//! ```
//! use spikestream::{
//!     Engine, FpFormat, InferenceConfig, KernelVariant, NetworkChoice, Request,
//!     TemporalEncoding, TimingModel,
//! };
//!
//! let (network, profile) = NetworkChoice::TinyCnn.build(7);
//! let engine = Engine::new(network, profile);
//! let config = InferenceConfig {
//!     timing: TimingModel::CycleLevel,
//!     batch: 1,
//!     ..InferenceConfig::paper(KernelVariant::SpikeStream, FpFormat::Fp16)
//! }
//! .temporal(3, TemporalEncoding::Rate);
//! let report = engine.compile(&config).open_session().infer(&Request::batch(1));
//! assert_eq!(report.timesteps.as_ref().unwrap().len(), 3);
//! ```

pub mod backend;
pub mod engine;
pub mod experiments;
pub mod plan;
pub mod pool;
pub mod report;
pub mod scenario;
pub mod session;
pub mod sharding;

pub use backend::{
    backend_for, AnalyticBackend, CycleLevelBackend, ExecutionBackend, LayerSample, SampleContext,
    WorkerArena,
};
pub use engine::{Engine, InferenceConfig, TimingModel};
pub use plan::{CompileError, Compiler, Plan};
pub use pool::PoolStats;
pub use report::{InferenceReport, LayerReport, ShardSummary, ShardUtilization, TimestepReport};
pub use scenario::{NetworkChoice, Scenario, ScenarioError, ServeSettings};
pub use session::{Request, ResultSink, Session, SessionStats};
pub use sharding::attribute_shards;

// Re-export the vocabulary types users need to drive the engine.
pub use neuro_accel_models::{AcceleratorResult, AcceleratorSpec};
pub use snitch_arch::fp::FpFormat;
pub use snitch_arch::{ClusterConfig, CostModel};
pub use spikestream_energy::{Activity, EnergyModel};
pub use spikestream_kernels::KernelVariant;
pub use spikestream_snn::{
    FiringProfile, IzhiParams, LifParams, Network, NeuronModel, TemporalEncoding, WorkloadMode,
};
