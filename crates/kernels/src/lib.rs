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
//! Every kernel *lowers* a layer invocation to a stream program — in
//! **exact** form from a concrete compressed input, written work item by
//! work item into a caller's [`ProgramSink`](spikestream_ir::ProgramSink)
//! (the cycle-level backend's `snitch-sim` interpreter, which runs each
//! item as it arrives, or a collecting
//! [`StreamProgram`](spikestream_ir::StreamProgram)), or in **symbolic**
//! form from expected firing rates, returned as a `StreamProgram` that
//! [`CostIntegrator`](spikestream_ir::CostIntegrator) integrates in the
//! analytic backend. Both variants are functionally identical; they differ
//! only in the instruction structure they emit, which is what produces the
//! paper's utilization and speedup differences. The shared op templates
//! live in the private `emit` module, so the inner-loop structure of
//! Listings 1a-1c is written down exactly once.
//!
//! The crate only emits; it never runs a program. [`LayerExecutor`] — one
//! code variant and one storage format — is the single kernel value, and
//! each kernel module adds its lowering to it
//! ([`LayerExecutor::lower_conv`], [`LayerExecutor::lower_dense`],
//! [`LayerExecutor::lower_fc`], [`LayerExecutor::lower_pool`]). An exact
//! lowering steps the layer's neurons as it emits their activation and
//! returns only the spikes they fire: each SIMD group's lane accumulators
//! feed the group's neuron update, and a pooling conv layer writes each
//! fired neuron straight into its 2x2 max-pool cell, as the paper's
//! kernels write only the compressed output spikes back. Backends
//! go through the uniform dispatch: single-shot synthetic evaluation uses
//! [`LayerExecutor::lower_exact`] (membranes reset per invocation); the
//! T-timestep temporal pipeline uses [`LayerExecutor::lower_temporal_step`],
//! which advances the per-layer persistent membrane states owned by
//! [`LayerScratch`] and returns each layer's output spike map so the
//! caller can feed it to the next layer — per-step stream lengths and DMA
//! traffic then reflect the *emergent* sparsity of the step instead of an
//! injected profile.

mod emit;

pub mod conv;
pub mod dense;
pub mod executor;
pub mod fc;
pub mod pool;
pub mod tiling;

pub use executor::{LayerExecution, LayerExecutor, LayerInput, LayerScratch, OpBuffer};
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

/// Interpret `program` on a fresh default cluster: the kernel tests'
/// stand-in for the cycle-level backend.
#[cfg(test)]
fn interpret(program: &spikestream_ir::StreamProgram<'_>) -> snitch_sim::PhaseStats {
    let config = snitch_arch::ClusterConfig::default();
    let mut cluster = snitch_sim::ClusterModel::new(config, snitch_arch::CostModel::default());
    snitch_sim::execute_program(&mut cluster, program);
    cluster.finish_phase()
}
