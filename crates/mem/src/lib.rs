//! Memory-subsystem model of the Snitch cluster.
//!
//! The cluster couples its worker cores to a 128 KiB, 32-bank scratchpad
//! (tightly coupled data memory, TCDM) through a single-cycle logarithmic
//! interconnect; large tiles are moved between the scratchpad and global
//! memory by a 512-bit DMA engine driven by a dedicated DMA core, and the
//! cores share an 8 KiB L1 instruction cache.
//!
//! This crate models the *timing-relevant* behaviour of that subsystem:
//!
//! * [`spm`] — bank mapping, conflict arbitration and a scratchpad buffer
//!   allocator used by the double-buffered kernels,
//! * [`dma`] — asynchronous 1D/2D DMA transfers with bandwidth limits,
//! * [`icache`] — a capacity/line model of the shared instruction cache.
//!
//! Data values themselves are owned by the SNN substrate (`spikestream-snn`);
//! the kernels compute functionally in Rust and only the *addresses* of
//! their accesses flow through this model.

pub mod dma;
pub mod icache;
pub mod spm;

pub use dma::{DmaEngine, DmaRequest, DmaTransfer};
pub use icache::InstructionCache;
pub use spm::{BankConflictModel, SpmAllocator, SpmBuffer};
