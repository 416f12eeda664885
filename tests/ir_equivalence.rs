//! The IR equivalence contract: for every layer kind x `KernelVariant` x
//! `FpFormat`, integrating the cost model over a kernel's *exact* stream
//! program must match interpreting that same program on the cycle-level
//! cluster — exactly for instruction / FLOP / stream-element / DMA-byte
//! totals, and within a stated tolerance for cycle counts (the integrator
//! distributes work stealing with the same greedy rule but in floating
//! point, so tiny rounding reorders are allowed).
//!
//! This is what lets the analytic and cycle-level backends agree by
//! construction instead of by parallel reimplementation. The cycle-level
//! backend never collects a program: it lowers each layer straight into an
//! `Interpreter`, so every case here is also streamed into one and must
//! reproduce the collected program's interpretation exactly.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snitch_arch::{ClusterConfig, CostModel};
use snitch_mem::dma::DmaDirection;
use snitch_sim::{execute_program, ClusterModel, Interpreter, PhaseStats};
use spikestream::{FpFormat, KernelVariant};
use spikestream_ir::{CostIntegrator, KernelOp, Phase, ProgramCost, ProgramSink, StreamProgram};
use spikestream_kernels::{LayerExecutor, OpBuffer};
use spikestream_snn::encoding::{pad_image, synthetic_image};
use spikestream_snn::neuron::LifParams;
use spikestream_snn::tensor::{SpikeMap, TensorShape};
use spikestream_snn::{
    CompressedFcInput, CompressedIfmap, ConvSpec, Layer, LayerKind, LinearSpec, NeuronState,
    PoolSpec, Tensor3,
};

/// Relative cycle-count tolerance between integration and interpretation.
const CYCLE_TOLERANCE: f64 = 0.05;

const ALL_VARIANTS: [KernelVariant; 2] = [KernelVariant::Baseline, KernelVariant::SpikeStream];
const ALL_FORMATS: [FpFormat; 3] = [FpFormat::Fp32, FpFormat::Fp16, FpFormat::Fp8];

fn cluster() -> ClusterModel {
    ClusterModel::new(ClusterConfig::default(), CostModel::default())
}

fn random_spikes(shape: TensorShape, rate: f64, border: usize, seed: u64) -> SpikeMap {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut map = SpikeMap::silent(shape);
    for h in border..shape.h.saturating_sub(border) {
        for w in border..shape.w.saturating_sub(border) {
            for c in 0..shape.c {
                if rng.gen_bool(rate) {
                    map.set(h, w, c, true);
                }
            }
        }
    }
    map
}

/// The input of one layer invocation.
enum Input {
    Conv(CompressedIfmap),
    Dense(Tensor3),
    Fc(CompressedFcInput),
    Pool(SpikeMap),
}

/// One layer invocation of the contract.
struct Case {
    label: &'static str,
    executor: LayerExecutor,
    layer: Layer,
    input: Input,
}

impl Case {
    /// Lower the invocation into `sink` from a resting LIF state; the
    /// program's gathers borrow the case's input.
    fn lower<'s>(&'s self, sink: &mut dyn ProgramSink<'s>) {
        let (config, executor, layer) = (ClusterConfig::default(), self.executor, &self.layer);
        let weights = layer.quantize_weights(executor.format());
        let neurons = match &layer.kind {
            LayerKind::Conv(spec) => spec.conv_output().len(),
            LayerKind::Linear(spec) => spec.out_features,
            LayerKind::AvgPool(_) => 0,
        };
        let mut state = NeuronState::lif(neurons);
        let buffer = &mut OpBuffer::new();
        match &self.input {
            Input::Conv(input) => {
                executor.lower_conv(&config, layer, &weights, input, &mut state, buffer, sink);
            }
            Input::Dense(image) => {
                executor.lower_dense(&config, layer, &weights, image, &mut state, buffer, sink);
            }
            Input::Fc(input) => {
                executor.lower_fc(&config, layer, &weights, input, &mut state, buffer, sink);
            }
            Input::Pool(input) => {
                executor.lower_pool(&config, layer, input, buffer, sink);
            }
        }
    }

    /// The exact program the case emits, collected.
    fn program(&self) -> StreamProgram<'_> {
        let mut program = StreamProgram::new(self.label, self.executor.format());
        self.lower(&mut program);
        program
    }

    /// The case lowered straight into an interpreter on a fresh cluster,
    /// as the cycle-level backend runs it.
    fn streamed(&self) -> PhaseStats {
        let mut cl = cluster();
        self.lower(&mut Interpreter::new(&mut cl, self.executor.format()));
        cl.finish_phase()
    }
}

/// Interpret and integrate one exact program; return both measurements.
fn both_consumers(program: &StreamProgram<'_>) -> (PhaseStats, ProgramCost) {
    let mut cl = cluster();
    execute_program(&mut cl, program);
    let stats = cl.finish_phase();
    let cost = CostIntegrator::snitch().integrate(program);
    (stats, cost)
}

fn assert_equivalent(label: &str, stats: &PhaseStats, cost: &ProgramCost) {
    assert_eq!(stats.totals.int_instrs as f64, cost.int_instrs, "{label}: int instrs");
    assert_eq!(stats.totals.fp_instrs as f64, cost.fp_instrs, "{label}: fp instrs");
    assert_eq!(stats.totals.flops as f64, cost.flops, "{label}: flops");
    assert_eq!(
        stats.totals.stream_elements as f64, cost.stream_elements,
        "{label}: stream elements"
    );
    assert_eq!(stats.totals.ssr_configs as f64, cost.ssr_configs, "{label}: ssr configs");
    assert_eq!(
        stats.totals.fpu_busy_cycles as f64, cost.fpu_busy_cycles,
        "{label}: fpu busy cycles"
    );
    assert_eq!(stats.dma_bytes_in, cost.dma_bytes_in, "{label}: dma bytes in");
    assert_eq!(stats.dma_bytes_out, cost.dma_bytes_out, "{label}: dma bytes out");

    let rel = (stats.compute_cycles as f64 - cost.compute_cycles as f64).abs()
        / stats.compute_cycles as f64;
    assert!(
        rel <= CYCLE_TOLERANCE,
        "{label}: compute cycles diverge by {:.2}% (sim {} vs integrator {})",
        100.0 * rel,
        stats.compute_cycles,
        cost.compute_cycles
    );
}

fn conv_case(
    variant: KernelVariant,
    format: FpFormat,
    in_c: usize,
    out_c: usize,
    rate: f64,
    seed: u64,
) -> Case {
    let spec = ConvSpec {
        input: TensorShape::new(6, 6, in_c),
        out_channels: out_c,
        kh: 3,
        kw: 3,
        stride: 1,
        padding: 1,
        pool: false,
    };
    let mut layer = Layer::new("conv", LayerKind::Conv(spec), LifParams::new(0.5, 0.2));
    let mut rng = StdRng::seed_from_u64(seed);
    layer.randomize_weights(&mut rng, 0.1);
    let input =
        CompressedIfmap::from_spike_map(&random_spikes(spec.padded_input(), rate, 1, seed ^ 1));
    let executor = LayerExecutor::new(variant, format);
    Case { label: "conv", executor, layer, input: Input::Conv(input) }
}

fn dense_case(variant: KernelVariant, format: FpFormat, seed: u64) -> Case {
    let spec = ConvSpec {
        input: TensorShape::new(6, 6, 3),
        out_channels: 8,
        kh: 3,
        kw: 3,
        stride: 1,
        padding: 1,
        pool: false,
    };
    let mut layer = Layer::new("conv1", LayerKind::Conv(spec), LifParams::new(0.5, 0.3));
    let mut rng = StdRng::seed_from_u64(seed);
    layer.randomize_weights(&mut rng, 0.2);
    let image = pad_image(&synthetic_image(spec.input, &mut rng), spec.padding);
    let executor = LayerExecutor::new(variant, format);
    Case { label: "dense", executor, layer, input: Input::Dense(image) }
}

fn fc_case(variant: KernelVariant, format: FpFormat, rate: f64, seed: u64) -> Case {
    let spec = LinearSpec { in_features: 128, out_features: 24 };
    let mut layer = Layer::new("fc", LayerKind::Linear(spec), LifParams::new(0.5, 0.15));
    let mut rng = StdRng::seed_from_u64(seed);
    layer.randomize_weights(&mut rng, 0.1);
    let spikes: Vec<bool> = (0..spec.in_features).map(|_| rng.gen_bool(rate)).collect();
    let input = CompressedFcInput::from_spikes(&spikes);
    let executor = LayerExecutor::new(variant, format);
    Case { label: "fc", executor, layer, input: Input::Fc(input) }
}

fn pool_case(variant: KernelVariant, format: FpFormat, rate: f64, seed: u64) -> Case {
    let spec = PoolSpec { input: TensorShape::new(8, 8, 12), window: 2 };
    let layer = Layer::new("pool", LayerKind::AvgPool(spec), LifParams::default());
    let input = random_spikes(spec.input, rate, 0, seed);
    let executor = LayerExecutor::new(variant, format);
    Case { label: "pool", executor, layer, input: Input::Pool(input) }
}

/// One case per layer kind for `variant` and `format`.
fn cases(variant: KernelVariant, format: FpFormat) -> [Case; 4] {
    [
        conv_case(variant, format, 12, 16, 0.3, 7),
        dense_case(variant, format, 9),
        fc_case(variant, format, 0.1, 11),
        pool_case(variant, format, 0.35, 13),
    ]
}

#[test]
fn every_kind_variant_and_format_integrates_to_the_interpreted_totals() {
    for variant in ALL_VARIANTS {
        for format in ALL_FORMATS {
            for case in cases(variant, format) {
                let (stats, cost) = both_consumers(&case.program());
                let label = format!("{}/{variant}/{format:?}", case.label);
                assert_equivalent(&label, &stats, &cost);
                assert_eq!(case.streamed(), stats, "{label}: streamed vs collected interpretation");
            }
        }
    }
}

/// Whether `ops`, or a loop body below them, holds two adjacent `Int` ops.
fn has_adjacent_int_ops(ops: &[KernelOp<'_>]) -> bool {
    ops.windows(2).any(|pair| matches!(pair, [KernelOp::Int(_), KernelOp::Int(_)]))
        || ops
            .iter()
            .any(|op| matches!(op, KernelOp::Loop { body, .. } if has_adjacent_int_ops(body)))
}

#[test]
fn exact_items_hold_one_op_per_integer_run() {
    // The emitters write each run of integer instructions between two
    // other ops as one `Int` op, counted per class, so an exact work item
    // never holds two adjacent `Int` ops (nor does a loop body in it).
    for variant in ALL_VARIANTS {
        for format in ALL_FORMATS {
            for case in cases(variant, format) {
                let program = case.program();
                let label = format!("{}/{variant}/{format:?}", case.label);
                let items = program.phases.iter().flat_map(|phase| match phase {
                    Phase::Compute(c) => c.items.as_slice(),
                    Phase::Dma(_) => &[],
                });
                let mut ints = 0;
                for (i, item) in items.enumerate() {
                    assert!(!has_adjacent_int_ops(&item.ops), "{label}: item {i}: {:?}", item.ops);
                    ints += item.ops.iter().filter(|op| matches!(op, KernelOp::Int(_))).count();
                }
                assert!(ints > 0, "{label}: the items hold integer runs");
            }
        }
    }
}

#[test]
fn double_buffered_conv_overlaps_dma_with_compute() {
    // A wide conv whose weights need several scratchpad tiles: the first
    // tile is a prologue load, the remaining tiles stream in behind
    // compute. Total cycles must come in under the serial sum of compute
    // and DMA busy time — the acceptance criterion for double buffering.
    let case = conv_case(KernelVariant::SpikeStream, FpFormat::Fp16, 96, 64, 0.3, 5);
    let program = case.program();
    assert!(
        program.phases.iter().any(|phase| matches!(
            phase,
            Phase::Dma(d) if d.direction == DmaDirection::In && d.double_buffered
        )),
        "the weights tile into double-buffered inbound transfers"
    );
    let mut cl = cluster();
    execute_program(&mut cl, &program);
    let stats = cl.finish_phase();
    assert_eq!(case.streamed(), stats, "streamed vs collected interpretation");
    assert!(stats.dma_busy_cycles > 0, "the layer moves tiles");
    assert!(
        stats.cycles < stats.compute_cycles + stats.dma_busy_cycles,
        "double buffering must hide transfer time: cycles {} vs compute {} + dma {}",
        stats.cycles,
        stats.compute_cycles,
        stats.dma_busy_cycles
    );
    // The epilogue membrane write-back is issued only after the compute
    // stream drains, so the last DMA completion lands past compute and the
    // phase duration covers it.
    assert!(
        stats.dma_cycles > stats.compute_cycles,
        "epilogue write-back must land after compute: dma {} vs compute {}",
        stats.dma_cycles,
        stats.compute_cycles
    );
    assert_eq!(stats.cycles, stats.dma_cycles);

    // The integrator sees the same overlap and the same epilogue tail.
    let cost = CostIntegrator::snitch().integrate(&program);
    assert!(cost.cycles < cost.compute_cycles + cost.dma_busy_cycles);
    assert!(cost.dma_cycles > cost.compute_cycles);
}

#[test]
fn empty_streams_integrate_exactly_like_they_interpret() {
    // An emitter that lowers a silent position into an unguarded Stream op
    // must still satisfy the exact-totals contract: both consumers charge
    // the SSR configuration and skip the FREP.
    use snitch_arch::isa::FpOp;
    use snitch_arch::SsrId;
    use spikestream_ir::{ComputePhase, IndexStream, Ssrs, StreamSpec, WorkItem};
    let mut program = StreamProgram::new("empty-stream", FpFormat::Fp16);
    program.push(Phase::Compute(ComputePhase {
        code: &[],
        items: vec![WorkItem::new(vec![
            KernelOp::alu(),
            KernelOp::Stream {
                ssrs: Ssrs::One((
                    SsrId::Ssr0,
                    StreamSpec::Indirect {
                        index_base: 0,
                        index_bytes: 2,
                        data_base: 0x100,
                        elem_bytes: 8,
                        indices: IndexStream::Exact(&[]),
                    },
                )),
                op: FpOp::Add,
            },
        ])],
    }));
    let (stats, cost) = both_consumers(&program);
    assert_equivalent("empty-stream", &stats, &cost);
    assert_eq!(stats.compute_cycles, cost.compute_cycles);
}

proptest! {
    #[test]
    fn integration_matches_interpretation_for_random_conv_layers(
        in_c in 4usize..24,
        out_c in 4usize..16,
        rate in 0.02f64..0.6,
        seed in any::<u64>(),
    ) {
        for variant in ALL_VARIANTS {
            let format = ALL_FORMATS[(seed % 3) as usize];
            let case = conv_case(variant, format, in_c, out_c, rate, seed);
            let (stats, cost) = both_consumers(&case.program());
            prop_assert_eq!(stats.totals.int_instrs as f64, cost.int_instrs);
            prop_assert_eq!(stats.totals.fp_instrs as f64, cost.fp_instrs);
            prop_assert_eq!(stats.totals.flops as f64, cost.flops);
            prop_assert_eq!(stats.dma_bytes_in, cost.dma_bytes_in);
            prop_assert_eq!(stats.dma_bytes_out, cost.dma_bytes_out);
            let rel = (stats.compute_cycles as f64 - cost.compute_cycles as f64).abs()
                / stats.compute_cycles as f64;
            prop_assert!(rel <= CYCLE_TOLERANCE, "cycles diverge by {:.2}%", 100.0 * rel);
        }
    }

    #[test]
    fn integration_matches_interpretation_for_random_fc_and_pool_layers(
        rate in 0.01f64..0.5,
        seed in any::<u64>(),
    ) {
        for variant in ALL_VARIANTS {
            let format = ALL_FORMATS[(seed % 3) as usize];
            for case in [fc_case(variant, format, rate, seed), pool_case(variant, format, rate, seed)] {
                let (stats, cost) = both_consumers(&case.program());
                prop_assert_eq!(stats.totals.int_instrs as f64, cost.int_instrs);
                prop_assert_eq!(stats.totals.flops as f64, cost.flops);
                prop_assert_eq!(stats.totals.stream_elements as f64, cost.stream_elements);
                let rel = (stats.compute_cycles as f64 - cost.compute_cycles as f64).abs()
                    / stats.compute_cycles as f64;
                prop_assert!(rel <= CYCLE_TOLERANCE, "cycles diverge by {:.2}%", 100.0 * rel);
            }
        }
    }
}
