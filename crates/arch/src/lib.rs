//! Architectural model of the Snitch RISC-V compute cluster.
//!
//! This crate holds everything that both the simulator (`snitch-sim`) and
//! the kernel generators (`spikestream-kernels`) need to agree on:
//!
//! * the floating-point formats supported by the SIMD FPU ([`fp`]),
//! * the operation vocabulary of a worker core: integer and FP op kinds
//!   and the stream semantic registers ([`isa`]),
//! * the cluster configuration parameters ([`config`]), and
//! * the per-operation latency and occupancy cost model ([`cost`]).
//!
//! The modelled machine is the open-source Snitch cluster used by the
//! SpikeStream paper: eight RV32G worker cores, each pairing a tiny
//! single-issue integer pipeline with a 64-bit SIMD-capable FPU, three
//! stream semantic registers (SSRs, two of which support indirect
//! streams), and an FP hardware loop (FREP) that decouples FPU and
//! integer execution. A ninth core drives a 512-bit DMA engine.
//!
//! # Example
//!
//! ```
//! use snitch_arch::config::ClusterConfig;
//! use snitch_arch::fp::FpFormat;
//!
//! let cfg = ClusterConfig::default();
//! assert_eq!(cfg.worker_cores, 8);
//! // The 64-bit FPU datapath fits eight FP8 lanes.
//! assert_eq!(FpFormat::Fp8.simd_lanes(), 8);
//! ```

pub mod config;
pub mod cost;
pub mod fp;
pub mod isa;

pub use config::ClusterConfig;
pub use cost::CostModel;
pub use fp::FpFormat;
pub use isa::{FpOp, IntOp, SsrId};
