//! Stream-program IR types.
//!
//! The grammar (see ARCHITECTURE.md for the prose version):
//!
//! ```text
//! StreamProgram<'a> := { label, format, phases: [Phase<'a>] }
//! Phase<'a>         := Dma(DmaPhase) | Compute(ComputePhase<'a>)
//! DmaPhase          := { direction, row_bytes, rows, double_buffered }
//! ComputePhase<'a>  := { code: &'static [CodeRegion], items: [WorkItem<'a>] }
//! WorkItem<'a>      := { instances, ops: [KernelOp<'a>] }
//! KernelOp<'a>      := Int(IntMix) | Fp{op, reps}
//!                    | Loop{body: LoopBody<'a>, reps}
//!                    | Stream{ssrs: Ssrs<'a>, op} | Barrier
//! IntMix            := a count per IntOp class (Alu, Mul, Load, Store,
//!                      Branch, Amo, Csr, Move)
//! LoopBody<'a>      := Template(&'a [KernelOp<'a>]) | Built([KernelOp<'a>])
//! Ssrs<'a>          := One((SsrId, StreamSpec<'a>))
//!                    | Two([(SsrId, StreamSpec<'a>); 2])
//! StreamSpec<'a>    := Affine{base, dims: AffineDims, elem_bytes}
//!                    | Indirect{index_base, index_bytes, data_base,
//!                               elem_bytes, indices: IndexStream<'a>}
//! AffineDims        := up to MAX_AFFINE_DIMS (stride, bound) pairs
//! IndexStream<'a>   := Exact(&'a [u16]) | Expected(f64)
//! ```
//!
//! Repetition counts are `f64` so the same emitter can lower either a
//! concrete input (integral counts, resolved gather indices) or an expected
//! firing rate (fractional counts, [`IndexStream::Expected`]). The
//! cycle-level interpreter only accepts the former; symbolic programs exist
//! for the analytic cost integration.
//!
//! Integer work is counted, not listed: one `Int` op carries how many
//! instructions of each [`IntOp`] class run ([`IntMix`]). Integer timing
//! carries no state from one instruction to the next, so a run of them
//! costs Σ cycles × count whatever its order, and an exact emitter writes
//! each run between two other ops as one `Int`. The IR carries counts,
//! never cycles: each consumer prices a mix against its own cost table.
//!
//! An op owns nothing on the heap that its emitter would have to build per
//! op: a `Stream` holds its SSRs and an affine pattern its dimensions
//! inline, and an exact gather borrows its index list from the compressed
//! input being lowered, which is what the lifetime `'a` names. Symbolic
//! programs borrow nothing and are `StreamProgram<'static>`. A `Loop` body
//! is either a constant template the emitters share or an op list the
//! emitter built. Every type is covariant in `'a`, so a `'static` op (a
//! template, a symbolic stream) fits any program. A compute phase's code
//! regions are the emitter's constant table, borrowed for `'static`.
//!
//! Exact emitters do not build a program: they write it, phase by phase and
//! work item by work item, into a [`ProgramSink`]. A [`StreamProgram`] is
//! the sink that collects what it is given; the cycle-level interpreter is
//! the sink that runs each item as it arrives.

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
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IndexStream<'a> {
    /// Resolved index values (exact lowering), borrowed from the compressed
    /// input the emitter lowers: a conv position's active channels
    /// (`CompressedIfmap::active_at`) or an FC input's active features
    /// (`CompressedFcInput::idcs`). Every SIMD group gathering through one
    /// list shares the borrow.
    Exact(&'a [u16]),
    /// Expected element count only (symbolic lowering from a firing rate).
    Expected(f64),
}

/// Deepest affine address pattern an op may carry: the pooling window's
/// two loops.
pub const MAX_AFFINE_DIMS: usize = 2;

/// The loop dimensions of an affine stream, innermost first, held inline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AffineDims {
    strides: [i32; MAX_AFFINE_DIMS],
    bounds: [u32; MAX_AFFINE_DIMS],
    len: u8,
}

impl AffineDims {
    /// Dimensions from `(byte stride, trip count)` pairs, innermost first.
    ///
    /// # Panics
    ///
    /// Panics on more than [`MAX_AFFINE_DIMS`] dimensions.
    pub fn new(dims: &[(i32, u32)]) -> Self {
        assert!(
            dims.len() <= MAX_AFFINE_DIMS,
            "an affine stream has at most {MAX_AFFINE_DIMS} dimensions, got {}",
            dims.len()
        );
        let mut out =
            AffineDims { strides: [0; MAX_AFFINE_DIMS], bounds: [0; MAX_AFFINE_DIMS], len: 0 };
        for (k, &(stride, bound)) in dims.iter().enumerate() {
            out.strides[k] = stride;
            out.bounds[k] = bound;
        }
        out.len = dims.len() as u8;
        out
    }

    /// Number of dimensions.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the pattern has no dimension.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Byte strides, innermost first.
    pub fn strides(&self) -> &[i32] {
        &self.strides[..self.len()]
    }

    /// Trip counts, innermost first.
    pub fn bounds(&self) -> &[u32] {
        &self.bounds[..self.len()]
    }
}

/// Address-generation pattern of one stream semantic register, in either
/// exact or symbolic form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StreamSpec<'a> {
    /// Affine stream: `addr = base + Σ idx_d * stride_d`. Affine patterns
    /// are structural (never data dependent), so they are always exact.
    Affine {
        /// Base byte address in the scratchpad.
        base: u32,
        /// Strides and trip counts, innermost first.
        dims: AffineDims,
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
        indices: IndexStream<'a>,
    },
}

impl StreamSpec<'_> {
    /// Number of elements the stream delivers (possibly fractional for
    /// symbolic indirect streams).
    pub fn elements(&self) -> f64 {
        match self {
            StreamSpec::Affine { dims, .. } => {
                dims.bounds().iter().map(|&b| b as f64).product::<f64>()
            }
            StreamSpec::Indirect { indices: IndexStream::Exact(v), .. } => v.len() as f64,
            StreamSpec::Indirect { indices: IndexStream::Expected(n), .. } => *n,
        }
    }

    /// Whether the stream is symbolic (expected-count indirect).
    pub fn is_symbolic(&self) -> bool {
        matches!(self, StreamSpec::Indirect { indices: IndexStream::Expected(_), .. })
    }
}

/// The one or two SSRs a [`KernelOp::Stream`] configures, held inline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Ssrs<'a> {
    /// A single stream (a gather, or the pooling window).
    One((SsrId, StreamSpec<'a>)),
    /// Two streams feeding one FREP body (the dense dot product).
    Two([(SsrId, StreamSpec<'a>); 2]),
}

impl<'a> Ssrs<'a> {
    /// The configured SSRs in configuration order.
    pub fn as_slice(&self) -> &[(SsrId, StreamSpec<'a>)] {
        match self {
            Ssrs::One(ssr) => std::slice::from_ref(ssr),
            Ssrs::Two(ssrs) => ssrs,
        }
    }
}

/// The body of a [`KernelOp::Loop`]. Two loops are equal when their bodies
/// hold equal ops, whichever form holds them.
#[derive(Debug, Clone)]
pub enum LoopBody<'a> {
    /// A constant op sequence, such as a baseline inner-loop template.
    Template(&'a [KernelOp<'a>]),
    /// An op sequence the emitter built, such as a symbolic loop nest.
    Built(Vec<KernelOp<'a>>),
}

impl<'a> std::ops::Deref for LoopBody<'a> {
    type Target = [KernelOp<'a>];

    fn deref(&self) -> &[KernelOp<'a>] {
        match self {
            LoopBody::Template(ops) => ops,
            LoopBody::Built(ops) => ops,
        }
    }
}

impl<'a> From<Vec<KernelOp<'a>>> for LoopBody<'a> {
    fn from(ops: Vec<KernelOp<'a>>) -> Self {
        LoopBody::Built(ops)
    }
}

impl PartialEq for LoopBody<'_> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

/// A run of integer-pipeline instructions: how many of each [`IntOp`]
/// class run. Counts are `f64`, so a symbolic lowering can carry expected
/// (fractional) counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntMix([f64; IntOp::COUNT]);

impl IntMix {
    /// One instruction of each listed class (a class listed twice counts
    /// twice).
    pub const fn of(ops: &[IntOp]) -> Self {
        let mut counts = [0.0; IntOp::COUNT];
        let mut i = 0;
        while i < ops.len() {
            counts[ops[i].index()] += 1.0;
            i += 1;
        }
        IntMix(counts)
    }

    /// Instructions of class `op`.
    pub fn count(&self, op: IntOp) -> f64 {
        self.0[op.index()]
    }

    /// The run `k` times over: every count multiplied by `k`.
    pub fn times(self, k: f64) -> Self {
        IntMix(self.0.map(|n| n * k))
    }

    /// `(cycles, instructions)` of the run, given each class's cycles
    /// indexed by [`IntOp::index`] (`CostModel::int_cycle_table`): Σ
    /// cycles × count and Σ count, summed in class order. A one-class run
    /// prices to exactly its cycles × count.
    pub fn price(&self, cycles: &[f64; IntOp::COUNT]) -> (f64, f64) {
        let mut total = (0.0, 0.0);
        for (&n, &c) in self.0.iter().zip(cycles) {
            total.0 += c * n;
            total.1 += n;
        }
        total
    }

    /// Whether any count is fractional.
    pub fn is_symbolic(&self) -> bool {
        self.0.iter().any(|n| n.fract() != 0.0)
    }
}

impl std::ops::AddAssign for IntMix {
    fn add_assign(&mut self, other: IntMix) {
        for (n, m) in self.0.iter_mut().zip(other.0) {
            *n += m;
        }
    }
}

/// One operation of a work item.
#[derive(Debug, Clone, PartialEq)]
pub enum KernelOp<'a> {
    /// A run of integer-pipeline instructions, counted per class.
    Int(IntMix),
    /// A non-streamed FP operation issued through the integer core `reps`
    /// times.
    Fp {
        /// The operation kind.
        op: FpOp,
        /// Repetition count.
        reps: f64,
    },
    /// A loop executing `body` `reps` times. Straight-line `Int`/`Fp` bodies
    /// take both consumers' fast repetition path (the body is priced once
    /// and multiplied); bodies containing streams are unrolled.
    Loop {
        /// Operations of one iteration.
        body: LoopBody<'a>,
        /// Trip count.
        reps: f64,
    },
    /// Configure one or two SSRs (shadow registers, so setup overlaps the
    /// running stream) and drain them under an FREP hardware loop whose body
    /// is a single streamed FP operation.
    Stream {
        /// The streams feeding the FREP body.
        ssrs: Ssrs<'a>,
        /// The streamed FP operation (one issue per delivered element).
        op: FpOp,
    },
    /// Join the integer pipeline with all outstanding FP/stream work.
    Barrier,
}

impl KernelOp<'_> {
    /// A run of integer instructions, one of each listed class.
    pub const fn int(ops: &[IntOp]) -> Self {
        KernelOp::Int(IntMix::of(ops))
    }

    /// An ALU operation.
    pub const fn alu() -> Self {
        KernelOp::int(&[IntOp::Alu])
    }

    /// An integer load.
    pub const fn load() -> Self {
        KernelOp::int(&[IntOp::Load])
    }

    /// An integer store.
    pub const fn store() -> Self {
        KernelOp::int(&[IntOp::Store])
    }

    /// A taken branch.
    pub const fn branch() -> Self {
        KernelOp::int(&[IntOp::Branch])
    }

    /// An atomic read-modify-write.
    pub const fn amo() -> Self {
        KernelOp::int(&[IntOp::Amo])
    }

    /// An int<->FP move.
    pub const fn mov() -> Self {
        KernelOp::int(&[IntOp::Move])
    }

    /// A non-streamed FP operation (arithmetic, or a scalar FP load/store).
    pub const fn fp(op: FpOp) -> Self {
        KernelOp::Fp { op, reps: 1.0 }
    }

    /// The same operation repeated `reps` times: an `Int` run's counts, an
    /// `Fp` op's repetition count or a loop's trip count multiplied by
    /// `reps`.
    ///
    /// # Panics
    ///
    /// Panics on `Stream` and `Barrier` operations, which carry no
    /// repetition count — wrap them in a [`KernelOp::Loop`] instead.
    pub fn times(self, reps: f64) -> Self {
        match self {
            KernelOp::Int(mix) => KernelOp::Int(mix.times(reps)),
            KernelOp::Fp { op, reps: n } => KernelOp::Fp { op, reps: n * reps },
            KernelOp::Loop { body, reps: n } => KernelOp::Loop { body, reps: n * reps },
            KernelOp::Stream { .. } | KernelOp::Barrier => {
                panic!("Stream/Barrier ops carry no repetition count; wrap them in a Loop")
            }
        }
    }

    /// Whether the operation (or anything below it) is symbolic: fractional
    /// repetition counts or expected-count streams.
    pub fn is_symbolic(&self) -> bool {
        match self {
            KernelOp::Int(mix) => mix.is_symbolic(),
            KernelOp::Fp { reps, .. } => reps.fract() != 0.0,
            KernelOp::Loop { body, reps } => {
                reps.fract() != 0.0 || body.iter().any(KernelOp::is_symbolic)
            }
            KernelOp::Stream { ssrs, .. } => ssrs.as_slice().iter().any(|(_, s)| s.is_symbolic()),
            KernelOp::Barrier => false,
        }
    }
}

/// One DMA tile transfer of the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
pub struct WorkItem<'a> {
    /// How many identical copies of this item the phase contains.
    pub instances: f64,
    /// The item's operation sequence (including its work-stealing claim).
    pub ops: Vec<KernelOp<'a>>,
}

impl<'a> WorkItem<'a> {
    /// A single-instance item.
    pub fn new(ops: Vec<KernelOp<'a>>) -> Self {
        WorkItem { instances: 1.0, ops }
    }

    /// An item standing for `instances` identical copies.
    pub fn replicated(instances: f64, ops: Vec<KernelOp<'a>>) -> Self {
        WorkItem { instances, ops }
    }
}

/// Work items distributed over the worker cores by workload stealing. Every
/// core joins its outstanding FP work in an implicit barrier when the phase
/// ends.
#[derive(Debug, Clone, PartialEq)]
pub struct ComputePhase<'a> {
    /// Code regions each executing core fetches per item (shared I-cache):
    /// the emitter's constant table.
    pub code: &'static [CodeRegion],
    /// The phase's work items, claimed in order.
    pub items: Vec<WorkItem<'a>>,
}

/// One phase of a stream program.
#[derive(Debug, Clone, PartialEq)]
pub enum Phase<'a> {
    /// A DMA tile transfer.
    Dma(DmaPhase),
    /// A work-stolen compute phase.
    Compute(ComputePhase<'a>),
}

/// A lowered layer: the complete phase program one layer invocation executes
/// on the cluster. An exact program borrows its gather indices for `'a`; a
/// symbolic one is `StreamProgram<'static>`.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamProgram<'a> {
    /// Program label (the layer name).
    pub label: String,
    /// Storage format of the kernel (determines SIMD lane counts).
    pub format: FpFormat,
    /// Phases in program order.
    pub phases: Vec<Phase<'a>>,
}

impl<'a> StreamProgram<'a> {
    /// Create an empty program.
    pub fn new(label: impl Into<String>, format: FpFormat) -> Self {
        StreamProgram { label: label.into(), format, phases: Vec::new() }
    }

    /// Append a phase.
    pub fn push(&mut self, phase: Phase<'a>) {
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

/// The consumer an exact emitter writes its program into, in program
/// order: DMA phases, and compute phases opened by
/// [`ProgramSink::compute`], filled with one single-instance work item per
/// [`ProgramSink::item`] call and closed by [`ProgramSink::end_compute`].
///
/// The sink sees each work item once, as a borrowed op slice the emitter
/// reuses for the next item; a sink that keeps items copies them. The ops
/// may borrow the lowered input for `'a`, so a collecting sink lives no
/// longer than that input.
pub trait ProgramSink<'a> {
    /// Append one DMA tile transfer.
    fn dma(&mut self, phase: DmaPhase);
    /// Open a compute phase whose cores fetch `code` per item.
    fn compute(&mut self, code: &'static [CodeRegion]);
    /// Append one single-instance work item to the open compute phase.
    fn item(&mut self, ops: &[KernelOp<'a>]);
    /// Close the open compute phase.
    fn end_compute(&mut self);
}

/// Collects the emitted phases, so a collected program equals what the
/// emitter would have built.
impl<'a> ProgramSink<'a> for StreamProgram<'a> {
    fn dma(&mut self, phase: DmaPhase) {
        self.push(Phase::Dma(phase));
    }

    fn compute(&mut self, code: &'static [CodeRegion]) {
        self.push(Phase::Compute(ComputePhase { code, items: Vec::new() }));
    }

    fn item(&mut self, ops: &[KernelOp<'a>]) {
        let Some(Phase::Compute(phase)) = self.phases.last_mut() else {
            panic!("work item outside a compute phase");
        };
        phase.items.push(WorkItem::new(ops.to_vec()));
    }

    fn end_compute(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_spec_elements_and_symbolism() {
        let dims = AffineDims::new(&[(2, 3), (64, 4)]);
        assert_eq!((dims.len(), dims.strides(), dims.bounds()), (2, &[2, 64][..], &[3, 4][..]));
        let affine = StreamSpec::Affine { base: 0, dims, elem_bytes: 2 };
        assert_eq!(affine.elements(), 12.0);
        assert!(!affine.is_symbolic());

        let exact = StreamSpec::Indirect {
            index_base: 0,
            index_bytes: 2,
            data_base: 0x100,
            elem_bytes: 8,
            indices: IndexStream::Exact(&[1, 5, 9]),
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
            code: &[CodeRegion { id: 1, bytes: 512 }],
            items: vec![WorkItem::new(vec![KernelOp::alu(), KernelOp::branch()])],
        }));
        assert!(!p.is_symbolic());
        assert_eq!(p.dma_bytes(), (1024, 256));
        assert_eq!(p.work_items(), 1.0);

        p.push(Phase::Compute(ComputePhase {
            code: &[],
            items: vec![WorkItem::replicated(16.0, vec![KernelOp::alu().times(2.5)])],
        }));
        assert!(p.is_symbolic());
        assert_eq!(p.work_items(), 17.0);
    }

    #[test]
    fn a_collected_program_holds_the_phases_in_emission_order() {
        let code: &'static [CodeRegion] = &[CodeRegion { id: 1, bytes: 512 }];
        let items = [vec![KernelOp::amo(), KernelOp::branch()], vec![KernelOp::alu()]];
        let mut p = StreamProgram::new("sink", FpFormat::Fp16);
        p.dma(DmaPhase::contiguous(DmaDirection::In, 1024, false));
        p.compute(code);
        for ops in &items {
            p.item(ops);
        }
        p.end_compute();
        p.dma(DmaPhase::contiguous(DmaDirection::Out, 256, false));

        let mut expected = StreamProgram::new("sink", FpFormat::Fp16);
        expected.push(Phase::Dma(DmaPhase::contiguous(DmaDirection::In, 1024, false)));
        expected.push(Phase::Compute(ComputePhase {
            code,
            items: items.iter().cloned().map(WorkItem::new).collect(),
        }));
        expected.push(Phase::Dma(DmaPhase::contiguous(DmaDirection::Out, 256, false)));
        assert_eq!(p, expected);
    }

    #[test]
    #[should_panic(expected = "outside a compute phase")]
    fn an_item_needs_an_open_compute_phase() {
        StreamProgram::new("sink", FpFormat::Fp16).item(&[KernelOp::alu()]);
    }

    #[test]
    fn op_constructors_cover_the_grammar() {
        assert_eq!(KernelOp::amo(), KernelOp::Int(IntMix::of(&[IntOp::Amo])));
        assert_eq!(KernelOp::mov(), KernelOp::Int(IntMix::of(&[IntOp::Move])));
        let looped = KernelOp::Loop { body: vec![KernelOp::alu()].into(), reps: 1.0 }.times(9.0);
        assert!(matches!(looped, KernelOp::Loop { reps, .. } if reps == 9.0));
        assert!(!KernelOp::fp(FpOp::Add).is_symbolic());
        assert!(KernelOp::fp(FpOp::Add).times(0.5).is_symbolic());
        let gather = |indices| StreamSpec::Indirect {
            index_base: 0,
            index_bytes: 2,
            data_base: 0,
            elem_bytes: 8,
            indices,
        };
        let pair = Ssrs::Two([
            (SsrId::Ssr0, gather(IndexStream::Exact(&[3]))),
            (SsrId::Ssr1, gather(IndexStream::Expected(0.5))),
        ]);
        assert_eq!(
            pair.as_slice().iter().map(|&(id, _)| id).collect::<Vec<_>>(),
            [SsrId::Ssr0, SsrId::Ssr1]
        );
        assert!(KernelOp::Stream { ssrs: pair, op: FpOp::Add }.is_symbolic());
        static BODY: [KernelOp<'static>; 1] = [KernelOp::alu()];
        assert_eq!(
            KernelOp::Loop { body: LoopBody::Template(&BODY), reps: 2.0 },
            KernelOp::Loop { body: vec![KernelOp::alu()].into(), reps: 2.0 },
            "loops compare by their ops"
        );
    }

    #[test]
    fn int_mixes_count_price_and_scale_per_class() {
        let mut run = IntMix::of(&[IntOp::Amo, IntOp::Branch, IntOp::Alu, IntOp::Alu]);
        assert_eq!((run.count(IntOp::Alu), run.count(IntOp::Amo)), (2.0, 1.0));
        run += IntMix::of(&[IntOp::Load, IntOp::Alu]);
        assert_eq!((run.count(IntOp::Alu), run.count(IntOp::Load)), (3.0, 1.0));
        let cost = snitch_arch::CostModel::default();
        let table = cost.int_cycle_table();
        // 3 ALU (1) + load (2) + branch (2) + AMO (4).
        assert_eq!(run.price(&table), (11.0, 6.0));
        for class in IntOp::ALL {
            let cycles = cost.int_cycles(class) as f64;
            assert_eq!(IntMix::of(&[class]).times(3.0).price(&table), (3.0 * cycles, 3.0));
        }
        let every: u64 = IntOp::ALL.iter().map(|&class| cost.int_cycles(class)).sum();
        assert_eq!(IntMix::of(&IntOp::ALL).price(&table), (every as f64, 8.0));
        assert!(!run.is_symbolic());
        let scaled = KernelOp::Int(run).times(0.5);
        assert_eq!(scaled, KernelOp::Int(run.times(0.5)));
        assert!(scaled.is_symbolic());
        assert_eq!(run.times(0.5).price(&table), (5.5, 3.0));
        // A one-class run prices to exactly its cycles x count.
        let third = IntMix::of(&[IntOp::Store]).times(1.0 / 3.0);
        assert_eq!(third.price(&table), (table[IntOp::Store.index()] * (1.0 / 3.0), 1.0 / 3.0));
        assert_eq!(
            KernelOp::load().times(2.0).times(3.0),
            KernelOp::Int(IntMix::of(&[IntOp::Load]).times(6.0))
        );
    }

    #[test]
    fn an_op_is_no_wider_than_a_two_ssr_stream() {
        assert!(
            std::mem::size_of::<KernelOp<'_>>() <= 104,
            "{}",
            std::mem::size_of::<KernelOp<'_>>()
        );
    }

    #[test]
    #[should_panic(expected = "at most 2 dimensions")]
    fn affine_dims_are_bounded() {
        AffineDims::new(&[(1, 1); MAX_AFFINE_DIMS + 1]);
    }
}
