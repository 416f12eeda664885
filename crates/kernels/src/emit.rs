//! Shared emitter vocabulary.
//!
//! Every kernel lowers its layer onto the same handful of op templates —
//! the work-stealing claim, the SIMD-group prologue, the outer-loop control
//! of Listing 1a, the two SpVA bodies of Listings 1b/1c, and the fused LIF
//! activation — so the instruction structure of the paper's inner loops is
//! written down exactly once. Exact lowerings compose these templates with
//! resolved indices and per-lane firing decisions; symbolic lowerings
//! compose the *same* templates under `Loop` nodes with expected
//! (fractional) counts. This module is what replaced the duplicated
//! closed-form loop math of the old `analytic` module.
//!
//! The straight-line templates are constant op arrays that [`extend`]
//! copies into the item being written, each op in place. Integer work is
//! counted per class, so each run of integer instructions in a template is
//! one `Int` op, and [`extend`] adds a template's leading run to the run
//! the item ends in: an exact work item holds one op per integer run,
//! however many templates wrote it. Symbolic emitters push their
//! fractional counts (`store().times(f)`) as separate ops.

use snitch_arch::isa::{FpOp, IntOp};
use snitch_arch::SsrId;
use spikestream_ir::{AffineDims, IndexStream, KernelOp, LoopBody, Ssrs, StreamSpec};
use spikestream_snn::compress::INDEX_BYTES;
use spikestream_snn::NeuronModel;

/// Start a work item in `ops` with its workload-stealing claim: the atomic
/// `next_rf` bump plus the bookkeeping branch of the stealing loop
/// (Fig. 2b). The previous item's ops are cleared first, so an exact
/// emitter writes all its items through one reused buffer.
pub(crate) fn claim(ops: &mut Vec<KernelOp<'_>>) {
    static CLAIM: [KernelOp<'static>; 1] = [KernelOp::int(&[IntOp::Amo, IntOp::Branch])];
    ops.clear();
    extend(ops, &CLAIM);
}

/// Append the ops of a straight-line (`Int`/`Fp`) template, adding its
/// leading `Int` run to the item's trailing one, so no two `Int` ops end
/// up adjacent. The buffer grows before any op exists, and each op is then
/// written in place, field by field. A pushed op is instead built whole on
/// the stack (104 bytes), to be dropped should the push's growth unwind,
/// and copied over unless its drop glue inlines to nothing, which depends
/// on how the crate falls into codegen units; those copies can double an
/// emitter's time.
fn extend(ops: &mut Vec<KernelOp<'_>>, template: &[KernelOp<'static>]) {
    let template = match (ops.last_mut(), template) {
        (Some(KernelOp::Int(run)), [KernelOp::Int(lead), rest @ ..]) => {
            *run += *lead;
            rest
        }
        _ => template,
    };
    ops.extend(template.iter().map(|op| match *op {
        KernelOp::Int(mix) => KernelOp::Int(mix),
        KernelOp::Fp { op, reps } => KernelOp::Fp { op, reps },
        _ => unreachable!("op templates are straight-line"),
    }));
}

/// SIMD-group prologue: load the group's per-neuron state into FP
/// registers (one load per state variable — two-variable models also pull
/// the recovery tile) and compute the group's weight base address.
pub(crate) fn model_group_prologue(ops: &mut Vec<KernelOp<'_>>, model: &NeuronModel) {
    static PROLOGUE: [KernelOp<'static>; 3] = [
        KernelOp::fp(FpOp::Load),
        KernelOp::fp(FpOp::Load),
        KernelOp::int(&[IntOp::Alu, IntOp::Alu]),
    ];
    extend(ops, &PROLOGUE[2 - model.state_vars()..]);
}

/// Outer-loop control per filter position (Listing 1a): row-pointer
/// bookkeeping, spatial-coordinate computation and the two `s_ptr` loads
/// that give the stream base address and length.
pub(crate) fn position_control(ops: &mut Vec<KernelOp<'_>>) {
    static CONTROL: [KernelOp<'static>; 1] = [KernelOp::int(&[
        IntOp::Branch,
        IntOp::Alu,
        IntOp::Alu,
        IntOp::Load,
        IntOp::Load,
        IntOp::Alu,
    ])];
    extend(ops, &CONTROL);
}

/// One element of the scalar indirection loop of Listing 1b: seven integer
/// instructions (`lw`, `slli`, `add`; `addi`, `addi`; `bne`) surround the
/// `fld` and a single useful `fadd`.
static BASELINE_SPVA_BODY: [KernelOp<'static>; 5] = [
    KernelOp::int(&[IntOp::Load, IntOp::Alu, IntOp::Alu]),
    KernelOp::fp(FpOp::Load),
    KernelOp::int(&[IntOp::Alu, IntOp::Alu]),
    KernelOp::fp(FpOp::Add),
    KernelOp::branch(),
];

/// The scalar indirection loop of Listing 1b over `s_len` elements.
pub(crate) fn baseline_spva(s_len: f64) -> KernelOp<'static> {
    KernelOp::Loop { body: LoopBody::Template(&BASELINE_SPVA_BODY), reps: s_len }
}

/// The streamed SpVA of Listing 1c: an indirect stream register gathers the
/// weights while an FREP hardware loop keeps the FPU accumulating.
pub(crate) fn streamed_spva(
    index_base: u32,
    data_base: u32,
    elem_bytes: u32,
    indices: IndexStream<'_>,
) -> KernelOp<'_> {
    KernelOp::Stream {
        ssrs: Ssrs::One((
            SsrId::Ssr0,
            StreamSpec::Indirect {
                index_base,
                index_bytes: INDEX_BYTES as u32,
                data_base,
                elem_bytes,
                indices,
            },
        )),
        op: FpOp::Add,
    }
}

/// One element of the dense matmul inner loop of the spike-encoding layer,
/// baseline variant: two loads, one FMA, pointer bump and loop branch.
static BASELINE_DENSE_DOT_BODY: [KernelOp<'static>; 4] = [
    KernelOp::fp(FpOp::Load),
    KernelOp::fp(FpOp::Load),
    KernelOp::fp(FpOp::Fma),
    KernelOp::int(&[IntOp::Alu, IntOp::Branch]),
];

/// The baseline dense matmul inner loop over `k_len` elements.
pub(crate) fn baseline_dense_dot(k_len: f64) -> KernelOp<'static> {
    KernelOp::Loop { body: LoopBody::Template(&BASELINE_DENSE_DOT_BODY), reps: k_len }
}

/// The dense matmul inner loop, SpikeStream variant: two affine streams
/// (input row and weights) feed an FMA under FREP.
pub(crate) fn streamed_dense_dot(
    input_base: u32,
    weights_base: u32,
    lane_bytes: u32,
    k_len: u32,
) -> KernelOp<'static> {
    KernelOp::Stream {
        ssrs: Ssrs::Two([
            (
                SsrId::Ssr0,
                StreamSpec::Affine {
                    base: input_base,
                    dims: AffineDims::new(&[(4, k_len)]),
                    elem_bytes: 4,
                },
            ),
            (
                SsrId::Ssr1,
                StreamSpec::Affine {
                    base: weights_base,
                    dims: AffineDims::new(&[(lane_bytes as i32, k_len)]),
                    elem_bytes: lane_bytes,
                },
            ),
        ]),
        op: FpOp::Fma,
    }
}

/// Head of the fused LIF activation (Section III-B/III-C): decay and
/// integrate on the FPU, threshold compare, then move the spike mask to the
/// integer core.
static LIF_HEAD: [KernelOp<'static>; 3] = [
    KernelOp::fp(FpOp::Fma), // v*alpha + i
    KernelOp::fp(FpOp::Cmp), // >= v_th
    KernelOp::mov(),
];

/// Head of the fused Izhikevich activation: the quadratic membrane update
/// `v += 0.04v^2 + 5v + 140 - u + I`, the recovery update
/// `u += a(b*v' - u)`, the threshold compare, and the predicated spike
/// resets (`v <- c`, `u <- u' + d`) committed on the FPU before the spike
/// mask moves to the integer core. The op count is fixed per group — the
/// resets are predicated selects, not branches — so exact and symbolic
/// lowerings emit identical sequences by construction.
static IZHIKEVICH_HEAD: [KernelOp<'static>; 12] = [
    KernelOp::fp(FpOp::Fma),  // 0.04*v + 5
    KernelOp::fp(FpOp::Fma),  // (.)*v + 140
    KernelOp::fp(FpOp::Add),  // - u
    KernelOp::fp(FpOp::Add),  // + I
    KernelOp::fp(FpOp::Add),  // v' = v + dv
    KernelOp::fp(FpOp::Fma),  // b*v' - u
    KernelOp::fp(FpOp::Fma),  // u' = u + a*(.)
    KernelOp::fp(FpOp::Cmp),  // v' >= v_th
    KernelOp::fp(FpOp::Add),  // u' + d (spike-reset operand)
    KernelOp::fp(FpOp::Move), // select v' / c
    KernelOp::fp(FpOp::Move), // select u' / u'+d
    KernelOp::mov(),
];

/// Model-dispatching activation head: LIF keeps the three-op fused form,
/// Izhikevich the twelve-op two-variable form.
pub(crate) fn model_activation_head(ops: &mut Vec<KernelOp<'_>>, model: &NeuronModel) {
    extend(
        ops,
        match model {
            NeuronModel::Lif(_) => &LIF_HEAD,
            NeuronModel::Izhikevich(_) => &IZHIKEVICH_HEAD,
        },
    );
}

/// State write-back closing a group's activation: one store per state
/// variable, mirroring [`model_group_prologue`].
pub(crate) fn model_state_writeback(ops: &mut Vec<KernelOp<'_>>, model: &NeuronModel) {
    static WRITEBACK: [KernelOp<'static>; 2] =
        [KernelOp::fp(FpOp::Store), KernelOp::fp(FpOp::Store)];
    extend(ops, &WRITEBACK[..model.state_vars()]);
}

/// Per-lane unpacking of the spike mask: bit extraction plus branch.
static LANE_UNPACK: [KernelOp<'static>; 1] = [KernelOp::int(&[IntOp::Alu, IntOp::Branch])];

/// Unpack one lane of the spike mask ([`LANE_UNPACK`]).
pub(crate) fn lane_unpack(ops: &mut Vec<KernelOp<'_>>) {
    extend(ops, &LANE_UNPACK);
}

/// Compressed-output update of one firing lane: append the channel index
/// and atomically bump the spatial pointer.
pub(crate) fn fired_update(ops: &mut Vec<KernelOp<'_>>) {
    static FIRED: [KernelOp<'static>; 1] = [KernelOp::int(&[IntOp::Store, IntOp::Amo])];
    extend(ops, &FIRED);
}

/// Symbolic form of the per-lane activation tail: `lanes` unpack pairs plus
/// the expected number of compressed-output updates.
pub(crate) fn activation_tail_symbolic(ops: &mut Vec<KernelOp<'_>>, lanes: f64, fired_lanes: f64) {
    ops.push(KernelOp::Loop { body: LoopBody::Template(&LANE_UNPACK), reps: lanes });
    if fired_lanes > 0.0 {
        ops.push(KernelOp::store().times(fired_lanes));
        ops.push(KernelOp::amo().times(fired_lanes));
    }
}
