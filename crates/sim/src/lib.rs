//! Cycle-approximate simulator of the Snitch compute cluster.
//!
//! The simulator executes the stream programs (`spikestream_ir`) that the
//! SpikeStream kernel emitters (`spikestream-kernels`) lower each layer
//! into, and charges cycles according to the [`snitch_arch::CostModel`].
//! It models the mechanisms that the paper's evaluation hinges on:
//!
//! * the **single-issue integer pipeline** whose address-generation and
//!   loop-control overhead throttles the non-streamed baseline SpVA loop,
//! * the **FPU sequencer / FREP hardware loop** that lets the FPU run
//!   autonomously while the integer core prepares the next stream,
//! * the **stream semantic registers** with affine and indirect patterns,
//!   configured through shadow registers so setup overlaps the running
//!   stream,
//! * **scratchpad bank conflicts** caused by the irregular gather addresses
//!   of indirect streams, and
//! * the **shared instruction cache** and the **DMA engine** used for tile
//!   double buffering.
//!
//! The unit of execution is a *phase* (typically: one network layer).
//! [`execute_program`] interprets a layer's exact `StreamProgram` on the
//! cluster: work items are distributed over the [`WorkerCoreModel`]s by
//! workload stealing, each core executes its items' `KernelOp`s through
//! [`WorkerCoreModel::exec`], DMA phases overlap compute according to their
//! double-buffer annotations, and the [`ClusterModel`] finally aggregates
//! per-core counters into a [`PhaseStats`].
//!
//! Above the single cluster, [`shard`] models a *fleet* of N independent
//! cluster replicas ([`ClusterShard`]) with least-loaded sample dispatch
//! ([`ShardSet`]) — the substrate of fleet attribution in
//! `spikestream-core`.
//!
//! # Example
//!
//! One streamed sparse vector accumulation (the paper's Listing 1c): an
//! indirect SSR gathers 64 weights that a single-instruction FREP body
//! accumulates.
//!
//! ```
//! use snitch_arch::isa::FpOp;
//! use snitch_arch::{ClusterConfig, CostModel, FpFormat, SsrId};
//! use snitch_sim::WorkerCoreModel;
//! use spikestream_ir::{IndexStream, KernelOp, StreamSpec};
//!
//! let mut core = WorkerCoreModel::new(&ClusterConfig::default(), CostModel::default(), 0);
//! let gather = StreamSpec::Indirect {
//!     index_base: 0x100,
//!     index_bytes: 2,
//!     data_base: 0x1000,
//!     elem_bytes: 8,
//!     indices: IndexStream::exact(0..64),
//! };
//! let spva = KernelOp::Stream { ssrs: vec![(SsrId::Ssr0, gather)], op: FpOp::Add };
//! core.exec(&spva, FpFormat::Fp16);
//! core.exec(&KernelOp::Barrier, FpFormat::Fp16);
//! assert_eq!(core.counters().stream_elements, 64);
//! assert_eq!(core.int_time(), core.fpu_time(), "the barrier joins both pipelines");
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
