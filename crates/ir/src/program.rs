//! Stream-program IR types.
//!
//! The grammar (see ARCHITECTURE.md for the prose version):
//!
//! ```text
//! StreamProgram := { label, format, phases: [Phase] }
//! Phase        := Dma(DmaPhase) | Compute(ComputePhase)
//! DmaPhase     := { direction, row_bytes, rows, double_buffered }
//! ComputePhase := { code: [CodeRegion], items: [WorkItem] }
//! WorkItem     := { instances, ops: [KernelOp] }
//! KernelOp     := Int{op, addr?, reps} | Fp{op, addr?, reps}
//!               | Loop{body, reps} | Stream{ssrs: [(SsrId, StreamSpec)], op}
//!               | Barrier
//! ```
//!
//! Repetition counts are `f64` so the same emitter can lower either a
//! concrete input (integral counts, resolved gather indices) or an expected
//! firing rate (fractional counts, [`IndexStream::Expected`]). The
//! cycle-level interpreter only accepts the former; symbolic programs exist
//! for the analytic cost integration.

use snitch_arch::fp::FpFormat;
use snitch_arch::isa::{FpOp, IntOp, SsrId};
use snitch_mem::dma::{DmaDirection, DmaRequest};

/// An instruction-cache code region fetched by every core executing a
/// compute phase (id must be unique per distinct kernel region).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodeRegion {
    /// Region identifier (stable across layers so kernels stay resident).
    pub id: u64,
    /// Code footprint in bytes.
    pub bytes: u32,
}

/// The index source of an indirect stream.
#[derive(Debug, Clone, PartialEq)]
pub enum IndexStream {
    /// Resolved index values (exact lowering from a compressed input).
    /// Shared: the emitters reuse one index vector across every SIMD group
    /// gathering through it, so a materialized program holds each list
    /// once, not once per group.
    Exact(std::sync::Arc<[u32]>),
    /// Expected element count only (symbolic lowering from a firing rate).
    Expected(f64),
}

impl IndexStream {
    /// Exact indices from any iterable of index values.
    pub fn exact(indices: impl IntoIterator<Item = u32>) -> Self {
        IndexStream::Exact(indices.into_iter().collect())
    }
}

/// Address-generation pattern of one stream semantic register, in either
/// exact or symbolic form.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamSpec {
    /// Affine stream: `addr = base + Σ idx_d * stride_d`. Affine patterns
    /// are structural (never data dependent), so they are always exact.
    Affine {
        /// Base byte address in the scratchpad.
        base: u32,
        /// Byte strides, innermost first.
        strides: Vec<i64>,
        /// Trip counts, innermost first.
        bounds: Vec<u32>,
        /// Element width in bytes.
        elem_bytes: u32,
    },
    /// Indirect (gather) stream: `addr = data_base + index[i] * elem_bytes`.
    Indirect {
        /// Byte address of the index array in the scratchpad.
        index_base: u32,
        /// Width of one index element in bytes.
        index_bytes: u32,
        /// Base byte address of the gathered data.
        data_base: u32,
        /// Element width of the gathered data in bytes.
        elem_bytes: u32,
        /// Resolved indices or an expected element count.
        indices: IndexStream,
    },
}

impl StreamSpec {
    /// Number of elements the stream delivers (possibly fractional for
    /// symbolic indirect streams).
    pub fn elements(&self) -> f64 {
        match self {
            StreamSpec::Affine { bounds, .. } => bounds.iter().map(|&b| b as f64).product::<f64>(),
            StreamSpec::Indirect { indices: IndexStream::Exact(v), .. } => v.len() as f64,
            StreamSpec::Indirect { indices: IndexStream::Expected(n), .. } => *n,
        }
    }

    /// Whether the stream is symbolic (expected-count indirect).
    pub fn is_symbolic(&self) -> bool {
        matches!(self, StreamSpec::Indirect { indices: IndexStream::Expected(_), .. })
    }
}

/// One operation of a work item.
#[derive(Debug, Clone, PartialEq)]
pub enum KernelOp {
    /// An integer-pipeline operation executed `reps` times.
    Int {
        /// The operation kind.
        op: IntOp,
        /// Byte address of a load/store/AMO (bank-conflict accounting).
        addr: Option<u32>,
        /// Repetition count.
        reps: f64,
    },
    /// A non-streamed FP operation issued through the integer core `reps`
    /// times.
    Fp {
        /// The operation kind.
        op: FpOp,
        /// Byte address of a non-streamed FP load/store, if any.
        addr: Option<u32>,
        /// Repetition count.
        reps: f64,
    },
    /// A loop executing `body` `reps` times. Straight-line `Int`/`Fp` bodies
    /// take both consumers' fast repetition path (the body is priced once
    /// and multiplied); bodies containing streams are unrolled.
    Loop {
        /// Operations of one iteration.
        body: Vec<KernelOp>,
        /// Trip count.
        reps: f64,
    },
    /// Configure one or two SSRs (shadow registers, so setup overlaps the
    /// running stream) and drain them under an FREP hardware loop whose body
    /// is a single streamed FP operation.
    Stream {
        /// The streams feeding the FREP body, one entry per SSR.
        ssrs: Vec<(SsrId, StreamSpec)>,
        /// The streamed FP operation (one issue per delivered element).
        op: FpOp,
    },
    /// Join the integer pipeline with all outstanding FP/stream work.
    Barrier,
}

impl KernelOp {
    /// An ALU operation.
    pub fn alu() -> Self {
        KernelOp::Int { op: IntOp::Alu, addr: None, reps: 1.0 }
    }

    /// An integer load from `addr`.
    pub fn load(addr: u32) -> Self {
        KernelOp::Int { op: IntOp::Load, addr: Some(addr), reps: 1.0 }
    }

    /// An integer store to `addr`.
    pub fn store(addr: u32) -> Self {
        KernelOp::Int { op: IntOp::Store, addr: Some(addr), reps: 1.0 }
    }

    /// A taken branch.
    pub fn branch() -> Self {
        KernelOp::Int { op: IntOp::Branch, addr: None, reps: 1.0 }
    }

    /// An atomic read-modify-write on `addr`.
    pub fn amo(addr: u32) -> Self {
        KernelOp::Int { op: IntOp::Amo, addr: Some(addr), reps: 1.0 }
    }

    /// An int<->FP move.
    pub fn mov() -> Self {
        KernelOp::Int { op: IntOp::Move, addr: None, reps: 1.0 }
    }

    /// A non-streamed FP operation without memory access.
    pub fn fp(op: FpOp) -> Self {
        KernelOp::Fp { op, addr: None, reps: 1.0 }
    }

    /// A non-streamed FP load/store at `addr`.
    pub fn fp_at(op: FpOp, addr: u32) -> Self {
        KernelOp::Fp { op, addr: Some(addr), reps: 1.0 }
    }

    /// The same operation repeated `reps` times.
    ///
    /// # Panics
    ///
    /// Panics on `Stream` and `Barrier` operations, which carry no
    /// repetition count — wrap them in a [`KernelOp::Loop`] instead.
    pub fn times(self, reps: f64) -> Self {
        match self {
            KernelOp::Int { op, addr, .. } => KernelOp::Int { op, addr, reps },
            KernelOp::Fp { op, addr, .. } => KernelOp::Fp { op, addr, reps },
            KernelOp::Loop { body, .. } => KernelOp::Loop { body, reps },
            KernelOp::Stream { .. } | KernelOp::Barrier => {
                panic!("Stream/Barrier ops carry no repetition count; wrap them in a Loop")
            }
        }
    }

    /// Whether the operation (or anything below it) is symbolic: fractional
    /// repetition counts or expected-count streams.
    pub fn is_symbolic(&self) -> bool {
        match self {
            KernelOp::Int { reps, .. } | KernelOp::Fp { reps, .. } => reps.fract() != 0.0,
            KernelOp::Loop { body, reps } => {
                reps.fract() != 0.0 || body.iter().any(KernelOp::is_symbolic)
            }
            KernelOp::Stream { ssrs, .. } => ssrs.iter().any(|(_, s)| s.is_symbolic()),
            KernelOp::Barrier => false,
        }
    }
}

/// One DMA tile transfer of the program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DmaPhase {
    /// Transfer direction.
    pub direction: DmaDirection,
    /// Bytes of one contiguous row.
    pub row_bytes: u64,
    /// Number of rows (1 for a plain 1D transfer).
    pub rows: u64,
    /// Extra per-row setup cycles for strided (2D) transfers.
    pub row_stride_overhead: u64,
    /// Double-buffered transfers overlap the surrounding compute phases.
    /// Non-double-buffered inbound transfers are prologue loads the compute
    /// stream waits for; non-double-buffered outbound transfers are epilogue
    /// write-backs issued after the compute stream drains.
    pub double_buffered: bool,
}

impl DmaPhase {
    /// A 1D contiguous transfer.
    pub fn contiguous(direction: DmaDirection, bytes: u64, double_buffered: bool) -> Self {
        DmaPhase { direction, row_bytes: bytes, rows: 1, row_stride_overhead: 0, double_buffered }
    }

    /// A 2D strided transfer (the im2row reshape shape).
    pub fn strided_2d(
        direction: DmaDirection,
        row_bytes: u64,
        rows: u64,
        double_buffered: bool,
    ) -> Self {
        DmaPhase { direction, row_bytes, rows, row_stride_overhead: 2, double_buffered }
    }

    /// Total payload bytes.
    pub fn total_bytes(&self) -> u64 {
        self.row_bytes * self.rows
    }

    /// The equivalent DMA-engine request.
    pub fn request(&self) -> DmaRequest {
        DmaRequest {
            direction: self.direction,
            row_bytes: self.row_bytes,
            rows: self.rows,
            row_stride_overhead: self.row_stride_overhead,
        }
    }
}

/// One work item, stolen as a unit by a worker core. `instances` identical
/// copies are distributed independently (symbolic lowerings use a single
/// representative item with `instances` set to the receptive-field count).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkItem {
    /// How many identical copies of this item the phase contains.
    pub instances: f64,
    /// The item's operation sequence (including its work-stealing claim).
    pub ops: Vec<KernelOp>,
}

impl WorkItem {
    /// A single-instance item.
    pub fn new(ops: Vec<KernelOp>) -> Self {
        WorkItem { instances: 1.0, ops }
    }

    /// An item standing for `instances` identical copies.
    pub fn replicated(instances: f64, ops: Vec<KernelOp>) -> Self {
        WorkItem { instances, ops }
    }
}

/// Work items distributed over the worker cores by workload stealing. Every
/// core joins its outstanding FP work in an implicit barrier when the phase
/// ends.
#[derive(Debug, Clone, PartialEq)]
pub struct ComputePhase {
    /// Code regions each executing core fetches per item (shared I-cache).
    pub code: Vec<CodeRegion>,
    /// The phase's work items, claimed in order.
    pub items: Vec<WorkItem>,
}

/// One phase of a stream program.
#[derive(Debug, Clone, PartialEq)]
pub enum Phase {
    /// A DMA tile transfer.
    Dma(DmaPhase),
    /// A work-stolen compute phase.
    Compute(ComputePhase),
}

/// A lowered layer: the complete phase program one layer invocation executes
/// on the cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamProgram {
    /// Program label (the layer name).
    pub label: String,
    /// Storage format of the kernel (determines SIMD lane counts).
    pub format: FpFormat,
    /// Phases in program order.
    pub phases: Vec<Phase>,
}

impl StreamProgram {
    /// Create an empty program.
    pub fn new(label: impl Into<String>, format: FpFormat) -> Self {
        StreamProgram { label: label.into(), format, phases: Vec::new() }
    }

    /// Append a phase.
    pub fn push(&mut self, phase: Phase) {
        self.phases.push(phase);
    }

    /// Whether any part of the program is symbolic (fractional counts or
    /// expected-length streams). Symbolic programs can only be integrated,
    /// not interpreted.
    pub fn is_symbolic(&self) -> bool {
        self.phases.iter().any(|p| match p {
            Phase::Dma(_) => false,
            Phase::Compute(c) => c
                .items
                .iter()
                .any(|i| i.instances.fract() != 0.0 || i.ops.iter().any(KernelOp::is_symbolic)),
        })
    }

    /// Total DMA payload bytes `(in, out)` of the program.
    pub fn dma_bytes(&self) -> (u64, u64) {
        let mut inward = 0;
        let mut outward = 0;
        for phase in &self.phases {
            if let Phase::Dma(d) = phase {
                match d.direction {
                    DmaDirection::In => inward += d.total_bytes(),
                    DmaDirection::Out => outward += d.total_bytes(),
                }
            }
        }
        (inward, outward)
    }

    /// Number of work items (instance-weighted) across all compute phases.
    pub fn work_items(&self) -> f64 {
        self.phases
            .iter()
            .map(|p| match p {
                Phase::Dma(_) => 0.0,
                Phase::Compute(c) => c.items.iter().map(|i| i.instances).sum(),
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_spec_elements_and_symbolism() {
        let affine =
            StreamSpec::Affine { base: 0, strides: vec![2, 64], bounds: vec![3, 4], elem_bytes: 2 };
        assert_eq!(affine.elements(), 12.0);
        assert!(!affine.is_symbolic());

        let exact = StreamSpec::Indirect {
            index_base: 0,
            index_bytes: 2,
            data_base: 0x100,
            elem_bytes: 8,
            indices: IndexStream::exact([1, 5, 9]),
        };
        assert_eq!(exact.elements(), 3.0);
        assert!(!exact.is_symbolic());

        let symbolic = StreamSpec::Indirect {
            index_base: 0,
            index_bytes: 2,
            data_base: 0x100,
            elem_bytes: 8,
            indices: IndexStream::Expected(3.7),
        };
        assert_eq!(symbolic.elements(), 3.7);
        assert!(symbolic.is_symbolic());
    }

    #[test]
    fn program_symbolism_and_dma_totals() {
        let mut p = StreamProgram::new("test", FpFormat::Fp16);
        p.push(Phase::Dma(DmaPhase::contiguous(DmaDirection::In, 1024, false)));
        p.push(Phase::Dma(DmaPhase::contiguous(DmaDirection::Out, 256, true)));
        p.push(Phase::Compute(ComputePhase {
            code: vec![CodeRegion { id: 1, bytes: 512 }],
            items: vec![WorkItem::new(vec![KernelOp::alu(), KernelOp::branch()])],
        }));
        assert!(!p.is_symbolic());
        assert_eq!(p.dma_bytes(), (1024, 256));
        assert_eq!(p.work_items(), 1.0);

        p.push(Phase::Compute(ComputePhase {
            code: vec![],
            items: vec![WorkItem::replicated(16.0, vec![KernelOp::alu().times(2.5)])],
        }));
        assert!(p.is_symbolic());
        assert_eq!(p.work_items(), 17.0);
    }

    #[test]
    fn op_constructors_cover_the_grammar() {
        assert!(matches!(KernelOp::amo(4), KernelOp::Int { op: IntOp::Amo, addr: Some(4), .. }));
        assert!(matches!(KernelOp::mov(), KernelOp::Int { op: IntOp::Move, .. }));
        let looped = KernelOp::Loop { body: vec![KernelOp::alu()], reps: 1.0 }.times(9.0);
        assert!(matches!(looped, KernelOp::Loop { reps, .. } if reps == 9.0));
        assert!(!KernelOp::fp(FpOp::Add).is_symbolic());
        assert!(KernelOp::fp(FpOp::Add).times(0.5).is_symbolic());
    }
}
