//! Operation vocabulary of a Snitch worker core.
//!
//! The SpikeStream kernels do not compile C through the Snitch LLVM
//! toolchain: they lower each layer into a stream program
//! (`spikestream-ir`) whose operations name the instructions the compiled
//! inner loops would execute (the paper gives the exact inner-loop
//! instruction sequences in Listing 1b/1c). This module holds the
//! vocabulary those operations share with the rest of the stack: the
//! integer and FP operation kinds the [`crate::cost::CostModel`] prices and
//! the stream semantic registers that feed the FPU.
//!
//! Functional results are computed by the kernels themselves (both code
//! variants are functionally identical; only their instruction structure
//! and therefore their timing differs), so operations carry memory
//! *addresses* — needed for bank-conflict and DMA modelling — but not data.

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

impl IntOp {
    /// Number of integer-operation classes.
    pub const COUNT: usize = 8;

    /// Every class, in [`IntOp::index`] order.
    pub const ALL: [IntOp; IntOp::COUNT] = [
        IntOp::Alu,
        IntOp::Mul,
        IntOp::Load,
        IntOp::Store,
        IntOp::Branch,
        IntOp::Amo,
        IntOp::Csr,
        IntOp::Move,
    ];

    /// Index of the class (0..[`IntOp::COUNT`]), its position in [`IntOp::ALL`].
    pub const fn index(self) -> usize {
        self as usize
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_op_indices_follow_all() {
        for (k, op) in IntOp::ALL.into_iter().enumerate() {
            assert_eq!(op.index(), k);
        }
    }

    #[test]
    fn ssr_indirect_capability() {
        assert!(SsrId::Ssr0.supports_indirect());
        assert!(SsrId::Ssr1.supports_indirect());
        assert!(!SsrId::Ssr2.supports_indirect());
    }
}
