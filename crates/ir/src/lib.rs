//! Unified SSR stream-program intermediate representation.
//!
//! SpikeStream's central claim is that sparse SNN kernels are best expressed
//! as *streams*: indirection-capable SSRs feed the FPU while the DMA engine
//! double-buffers tiles into the scratchpad. This crate makes that claim a
//! first-class artifact. A kernel *lowers* a layer (plus its compressed
//! spike input) into a stream program — a small program of phases:
//!
//! * [`DmaPhase`] — one tile transfer, annotated with whether it is
//!   double-buffered (overlaps compute) or a prologue/epilogue transfer the
//!   compute stream must serialize against;
//! * [`ComputePhase`] — work items distributed over the worker cores by
//!   workload stealing, each a sequence of [`KernelOp`]s: runs of integer
//!   instructions counted per class ([`IntMix`]), scalar FP operations,
//!   straight-line loops, and SSR-fed FREP stream operations.
//!
//! Both execution backends consume the *same* program:
//!
//! * the cycle-level backend interprets it on the `snitch-sim` cluster model
//!   while the emitter writes it: an exact emitter lowers into a
//!   [`ProgramSink`], and the simulator's `Interpreter` is a sink that runs
//!   each work item as it arrives, in emission order, so the program is
//!   never held ([`StreamProgram`] is the sink that collects it instead,
//!   and `snitch_sim::execute_program` replays a collected program), and
//! * the analytic backend integrates the [`CostModel`](snitch_arch::CostModel)
//!   over it with the [`CostIntegrator`],
//!
//! so on one program the two backends agree by construction: instruction,
//! FLOP and DMA-byte totals are *exactly* equal on any concrete
//! (non-symbolic) program, and cycle counts agree within the small
//! tolerance introduced by the integrator's closed-form work-stealing
//! distribution (5% in `tests/ir_equivalence.rs`). The agreement covers
//! the program, not the workload: the analytic backend integrates
//! *symbolic* programs lowered from firing rates, whose cycles differ from
//! a cycle-level run of the exact programs.
//!
//! Programs come in two flavours produced by the same emitters:
//!
//! * **exact** — lowered from a concrete compressed input: indirect streams
//!   borrow their resolved index lists from that input and every
//!   repetition count is integral. Exact programs are interpretable and
//!   integrable; the lifetime parameter of the IR types
//!   ([`StreamProgram<'a>`](StreamProgram), [`KernelOp<'a>`](KernelOp),
//!   [`IndexStream<'a>`](IndexStream), [`ProgramSink<'a>`](ProgramSink))
//!   is that borrow. No op owns heap memory an emitter builds per op: a
//!   `Stream` holds its [`Ssrs`] inline, an affine pattern its
//!   [`AffineDims`], and a loop over a constant body borrows it
//!   ([`LoopBody::Template`]).
//! * **symbolic** — lowered from expected firing rates: indirect streams
//!   carry an [`IndexStream::Expected`] element count and repetition counts
//!   may be fractional. A symbolic program borrows nothing
//!   (`StreamProgram<'static>`). Symbolic programs integrate in `O(program size)`
//!   independent of the layer's data, which is what keeps the analytic
//!   backend fast enough for full-batch figure sweeps.
//!
//! Serving builds on one more concept: the analytic backend memoizes the
//! integrated cost of every symbolic binding it prices. The [`cache`]
//! module holds the plan-owned [`ProgramCache`], a bounded map from
//! [`ProgramKey`] (layer, kernel class, format and [`SparsityBucket`]) to
//! the [`ServedCost`] projection of a [`ProgramCost`]: a binding either
//! hits a memoized cost or is lowered and integrated on the spot.

pub mod cache;
pub mod cost;
pub mod program;

pub use cache::{CacheCounters, ProgramCache, ProgramKey, ServedCost, SparsityBucket};
pub use cost::{CostIntegrator, ProgramCost};
pub use program::{
    AffineDims, CodeRegion, ComputePhase, DmaPhase, IndexStream, IntMix, KernelOp, LoopBody, Phase,
    ProgramSink, Ssrs, StreamProgram, StreamSpec, WorkItem, MAX_AFFINE_DIMS,
};
