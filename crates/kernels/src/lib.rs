//! SNN inference kernels for the Snitch cluster.
//!
//! This crate implements the paper's two code variants as *emitters* onto
//! the unified stream-program IR (`spikestream-ir`):
//!
//! * the **baseline** kernel (Section III-A to III-D): compressed ifmaps,
//!   task parallelization with workload stealing, SIMD data parallelism
//!   over output channels, tiling and double buffering — but scalar
//!   indirection loops for the weight gathers (Listing 1b);
//! * the **SpikeStream** kernel (Section III-E): the same structure with
//!   the Sparse Vector Accumulations mapped onto indirect stream semantic
//!   registers and FREP hardware loops (Listing 1c), and the dense
//!   spike-encoding first layer mapped onto two affine SSRs.
//!
//! Every kernel *lowers* a layer invocation into a
//! [`StreamProgram`](spikestream_ir::StreamProgram) — in **exact** form
//! from a concrete compressed input (interpreted on the `snitch-sim`
//! cluster by the cycle-level backend), or in **symbolic** form from
//! expected firing rates (integrated by
//! [`CostIntegrator`](spikestream_ir::CostIntegrator) in the analytic
//! backend). Both variants are functionally identical; they differ only in
//! the instruction structure they emit, which is what produces the paper's
//! utilization and speedup differences. The shared op templates live in
//! the private `emit` module, so the inner-loop structure of Listings
//! 1a-1c is written down exactly once.
//!
//! Execution backends drive the kernels through the uniform
//! [`executor::LayerExecutor`] entry point rather than invoking
//! [`ConvKernel`], [`FcKernel`], [`PoolKernel`] and
//! [`DenseEncodingKernel`] directly. Single-shot synthetic evaluation uses
//! [`LayerExecutor::run_with_scratch`] (membranes reset per invocation);
//! the T-timestep temporal pipeline uses
//! [`LayerExecutor::run_temporal_step`], which advances the per-layer
//! persistent membrane states owned by [`executor::LayerScratch`] and
//! returns each layer's output spike map so the caller can feed it to the
//! next layer — per-step stream lengths and DMA traffic then reflect the
//! *emergent* sparsity of the step instead of an injected profile.

mod emit;

pub mod conv;
pub mod dense;
pub mod executor;
pub mod fc;
pub mod pool;
pub mod tiling;

pub use conv::{ConvKernel, ConvKernelOutput};
pub use dense::DenseEncodingKernel;
pub use executor::{LayerExecution, LayerExecutor, LayerInput, LayerScratch};
pub use fc::FcKernel;
pub use pool::{PoolKernel, PoolKernelOutput};
pub use tiling::{LayerTilePlan, TilingPlanner};

/// Which code variant a kernel emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelVariant {
    /// Compressed, parallel, SIMD baseline without stream registers
    /// (optimizations TC + TP + DP + DB of the paper).
    Baseline,
    /// Baseline plus streaming acceleration with SSRs and FREP (SA).
    SpikeStream,
}

impl std::fmt::Display for KernelVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelVariant::Baseline => f.write_str("Baseline"),
            KernelVariant::SpikeStream => f.write_str("SpikeStream"),
        }
    }
}
