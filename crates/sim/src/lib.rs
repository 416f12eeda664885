//! Cycle-approximate, trace-driven simulator of the Snitch compute cluster.
//!
//! The simulator consumes the dynamic operation traces emitted by the
//! SpikeStream kernel generators (`spikestream-kernels`) and charges cycles
//! according to the [`snitch_arch::CostModel`]. It models the mechanisms
//! that the paper's evaluation hinges on:
//!
//! * the **single-issue integer pipeline** whose address-generation and
//!   loop-control overhead throttles the non-streamed baseline SpVA loop,
//! * the **FPU sequencer / FREP hardware loop** that lets the FPU run
//!   autonomously while the integer core prepares the next stream,
//! * the **stream semantic registers** with affine and indirect patterns,
//!   including the shadow-register double buffering of their configuration,
//! * **scratchpad bank conflicts** caused by the irregular gather addresses
//!   of indirect streams, and
//! * the **shared instruction cache** and the **DMA engine** used for tile
//!   double buffering.
//!
//! The unit of execution is a *phase* (typically: one network layer). The
//! kernels lower each layer into a `spikestream_ir::StreamProgram` that
//! [`execute_program`] interprets on the cluster: work items are
//! distributed over the [`WorkerCoreModel`]s by workload stealing, DMA
//! phases overlap compute according to their double-buffer annotations,
//! and the [`ClusterModel`] finally aggregates per-core counters into a
//! [`PhaseStats`].
//!
//! Above the single cluster, [`shard`] models a *fleet* of N independent
//! cluster replicas ([`ClusterShard`]) with least-loaded sample dispatch
//! ([`ShardSet`]) — the substrate of fleet attribution in
//! `spikestream-core`.
//!
//! # Example
//!
//! ```
//! use snitch_arch::{ClusterConfig, CostModel, FpFormat, TraceOp};
//! use snitch_arch::isa::FpOp;
//! use snitch_sim::{ClusterModel, WorkerCoreModel};
//!
//! let config = ClusterConfig::default();
//! let mut core = WorkerCoreModel::new(&config, CostModel::default(), 0);
//! core.exec(&TraceOp::alu());
//! core.exec(&TraceOp::fp(FpOp::Add, FpFormat::Fp16));
//! assert!(core.counters().total_cycles() >= 2);
//! ```

pub mod cluster;
pub mod core_model;
pub mod counters;
pub mod program;
pub mod shard;

pub use cluster::{ClusterModel, PhaseStats};
pub use core_model::WorkerCoreModel;
pub use counters::{PerfCounters, StallCause};
pub use program::execute_program;
pub use shard::{ClusterShard, ShardSet};
