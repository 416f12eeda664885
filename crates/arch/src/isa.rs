//! Dynamic-trace instruction vocabulary shared by kernels and simulator.
//!
//! The SpikeStream kernels are *trace generators*: instead of compiling C
//! through the Snitch LLVM toolchain, they emit the dynamic sequence of
//! operations the compiled inner loops would execute (the paper gives the
//! exact inner-loop instruction sequences in Listing 1b/1c). The simulator
//! in `snitch-sim` consumes these traces and charges cycles according to
//! the [`crate::cost::CostModel`].
//!
//! Functional results are computed by the kernels themselves (both code
//! variants are functionally identical; only their instruction structure
//! and therefore their timing differs), so trace operations carry memory
//! *addresses* — needed for bank-conflict and DMA modelling — but not data.

use crate::fp::FpFormat;

/// Identifier of one of the three stream semantic registers of a worker core.
///
/// `Ssr0` and `Ssr1` support indirect (gather) streams in addition to affine
/// streams; `Ssr2` is affine-only, mirroring the sparse-SSR extension used by
/// the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SsrId {
    /// Stream register 0 (affine + indirect capable).
    Ssr0,
    /// Stream register 1 (affine + indirect capable).
    Ssr1,
    /// Stream register 2 (affine only).
    Ssr2,
}

impl SsrId {
    /// Whether this SSR supports indirect (indexed gather/scatter) streams.
    pub fn supports_indirect(self) -> bool {
        matches!(self, SsrId::Ssr0 | SsrId::Ssr1)
    }

    /// Index of the SSR (0..3).
    pub fn index(self) -> usize {
        match self {
            SsrId::Ssr0 => 0,
            SsrId::Ssr1 => 1,
            SsrId::Ssr2 => 2,
        }
    }
}

/// Integer-pipeline operation kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntOp {
    /// Simple ALU operation (add, shift, logic, compare).
    Alu,
    /// Integer multiply / divide.
    Mul,
    /// Load from the scratchpad or global memory.
    Load,
    /// Store to the scratchpad or global memory.
    Store,
    /// Conditional branch.
    Branch,
    /// Atomic read-modify-write (used by the workload-stealing scheduler).
    Amo,
    /// CSR access / SSR configuration write from the integer side.
    Csr,
    /// Move between integer and FP register files (explicit synchronization).
    Move,
}

/// Floating-point operation kinds executed by the (SIMD) FPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpOp {
    /// Lane-wise addition (the SpVA accumulate).
    Add,
    /// Lane-wise multiply.
    Mul,
    /// Lane-wise fused multiply-accumulate (dense matmul inner op).
    Fma,
    /// Lane-wise maximum / comparison (LIF thresholding).
    Cmp,
    /// Format conversion or packing/unpacking of SIMD lanes.
    Cvt,
    /// FP load issued through the integer core (non-streamed `fld`).
    Load,
    /// FP store issued through the integer core (`fsd`).
    Store,
    /// Register move / sign injection.
    Move,
}

/// Address-generation pattern of a stream semantic register.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamPattern {
    /// Up-to-4D affine stream: `addr = base + Σ idx_d * stride_d`.
    Affine {
        /// Base byte address of the stream in the scratchpad.
        base: u32,
        /// Byte strides of each nesting level, innermost first.
        strides: Vec<i64>,
        /// Trip counts of each nesting level, innermost first.
        bounds: Vec<u32>,
        /// Element width in bytes.
        elem_bytes: u32,
    },
    /// 1D indirect (gather) stream: `addr = data_base + index[i] * elem_bytes`.
    Indirect {
        /// Byte address of the index array in the scratchpad.
        index_base: u32,
        /// Width of each index element in bytes (1, 2 or 4).
        index_bytes: u32,
        /// Base byte address of the gathered data.
        data_base: u32,
        /// Element width of the gathered data in bytes.
        elem_bytes: u32,
        /// The index values of this stream, as resolved by the kernel.
        ///
        /// Shared (`Arc<[u32]>`) rather than owned: the same resolved
        /// gather list flows from the kernel IR through every
        /// `SsrConfig` trace op and pattern clone without copying the
        /// index words.
        indices: std::sync::Arc<[u32]>,
    },
}

impl StreamPattern {
    /// Number of elements produced by the stream.
    pub fn length(&self) -> u64 {
        match self {
            StreamPattern::Affine { bounds, .. } => {
                bounds.iter().map(|&b| b as u64).product::<u64>()
            }
            StreamPattern::Indirect { indices, .. } => indices.len() as u64,
        }
    }

    /// Byte addresses touched by the stream, in issue order.
    ///
    /// For indirect streams this is the *gather* address sequence; the index
    /// fetches themselves are sequential reads starting at `index_base`.
    pub fn data_addresses(&self) -> Vec<u32> {
        match self {
            StreamPattern::Affine { base, strides, bounds, elem_bytes: _ } => {
                let mut addrs = Vec::with_capacity(self.length() as usize);
                let dims = bounds.len();
                let mut idx = vec![0u32; dims];
                loop {
                    let offset: i64 =
                        idx.iter().zip(strides.iter()).map(|(&i, &s)| i as i64 * s).sum();
                    addrs.push((*base as i64 + offset) as u32);
                    // Increment the innermost-first counter vector.
                    let mut d = 0;
                    loop {
                        if d == dims {
                            return addrs;
                        }
                        idx[d] += 1;
                        if idx[d] < bounds[d] {
                            break;
                        }
                        idx[d] = 0;
                        d += 1;
                    }
                }
            }
            StreamPattern::Indirect { data_base, elem_bytes, indices, .. } => {
                indices.iter().map(|&i| data_base.wrapping_add(i * elem_bytes)).collect()
            }
        }
    }
}

/// One operation of a dynamic trace executed by a worker core.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceOp {
    /// An integer-pipeline operation. `addr` carries the byte address of a
    /// load/store/AMO (for bank-conflict accounting) and is `None` otherwise.
    Int {
        /// The operation kind.
        op: IntOp,
        /// Byte address accessed, if the op touches memory.
        addr: Option<u32>,
    },
    /// A floating-point operation issued to the FPU through the sequencer.
    Fp {
        /// The operation kind.
        op: FpOp,
        /// Storage format (determines SIMD lane count, for statistics).
        format: FpFormat,
        /// SSRs read as source operands by this op.
        ssr_srcs: Vec<SsrId>,
        /// Byte address for a non-streamed FP load/store, if any.
        addr: Option<u32>,
    },
    /// Configuration of a stream semantic register from the integer core.
    ///
    /// Writing configuration occupies the integer pipeline (a few CSR writes);
    /// with `shadow` set the configuration lands in the shadow registers and
    /// becomes active when the running stream finishes, which is how
    /// SpikeStream overlaps setup with computation.
    SsrConfig {
        /// The configured stream register.
        ssr: SsrId,
        /// Address pattern of the stream.
        pattern: StreamPattern,
        /// Whether the shadow (double-buffered) config registers are used.
        shadow: bool,
    },
    /// A hardware-loop (`frep`) region: the FPU sequencer autonomously
    /// repeats the `body` FP operations `reps` times without involving the
    /// integer core. `body_issue_cost` is the single integer instruction
    /// that launches the loop.
    Frep {
        /// Repetition count.
        reps: u32,
        /// FP operations of one loop body iteration.
        body: Vec<TraceOp>,
    },
    /// Explicit barrier: wait until all outstanding FP and stream operations
    /// of this core have completed (used at kernel-phase boundaries).
    Barrier,
}

impl TraceOp {
    /// Convenience constructor for an ALU op.
    pub fn alu() -> Self {
        TraceOp::Int { op: IntOp::Alu, addr: None }
    }

    /// Convenience constructor for an integer load from `addr`.
    pub fn load(addr: u32) -> Self {
        TraceOp::Int { op: IntOp::Load, addr: Some(addr) }
    }

    /// Convenience constructor for an integer store to `addr`.
    pub fn store(addr: u32) -> Self {
        TraceOp::Int { op: IntOp::Store, addr: Some(addr) }
    }

    /// Convenience constructor for a branch.
    pub fn branch() -> Self {
        TraceOp::Int { op: IntOp::Branch, addr: None }
    }

    /// Convenience constructor for a non-streamed FP op without memory access.
    pub fn fp(op: FpOp, format: FpFormat) -> Self {
        TraceOp::Fp { op, format, ssr_srcs: Vec::new(), addr: None }
    }

    /// Convenience constructor for an FP op that reads one SSR source.
    pub fn fp_streamed(op: FpOp, format: FpFormat, ssr: SsrId) -> Self {
        TraceOp::Fp { op, format, ssr_srcs: vec![ssr], addr: None }
    }

    /// Whether this operation is (or contains) FPU work.
    pub fn is_fp(&self) -> bool {
        matches!(self, TraceOp::Fp { .. } | TraceOp::Frep { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ssr_indirect_capability() {
        assert!(SsrId::Ssr0.supports_indirect());
        assert!(SsrId::Ssr1.supports_indirect());
        assert!(!SsrId::Ssr2.supports_indirect());
    }

    #[test]
    fn affine_stream_addresses_1d() {
        let p =
            StreamPattern::Affine { base: 0x100, strides: vec![8], bounds: vec![4], elem_bytes: 8 };
        assert_eq!(p.length(), 4);
        assert_eq!(p.data_addresses(), vec![0x100, 0x108, 0x110, 0x118]);
    }

    #[test]
    fn affine_stream_addresses_2d() {
        let p = StreamPattern::Affine {
            base: 0,
            strides: vec![4, 64],
            bounds: vec![2, 3],
            elem_bytes: 4,
        };
        assert_eq!(p.length(), 6);
        assert_eq!(p.data_addresses(), vec![0, 4, 64, 68, 128, 132]);
    }

    #[test]
    fn indirect_stream_gathers_by_index() {
        let p = StreamPattern::Indirect {
            index_base: 0x200,
            index_bytes: 2,
            data_base: 0x1000,
            elem_bytes: 8,
            indices: [3, 0, 7].into(),
        };
        assert_eq!(p.length(), 3);
        assert_eq!(p.data_addresses(), vec![0x1018, 0x1000, 0x1038]);
    }

    #[test]
    fn trace_op_classification() {
        assert!(!TraceOp::alu().is_fp());
        assert!(TraceOp::fp(FpOp::Add, FpFormat::Fp16).is_fp());
        assert!(TraceOp::Frep { reps: 4, body: vec![] }.is_fp());
    }
}
