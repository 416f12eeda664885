//! Spike average-pooling kernel.
//!
//! The layer that proves the IR's "new layer = one emitter" claim: the
//! whole kernel is one lowering method, [`LayerExecutor::lower_pool`].
//! Each output position is one work item; per SIMD channel group the
//! kernel accumulates the window's spike words — as a scalar load/add
//! loop in the baseline variant, or as a 2D *affine* stream on the
//! affine-only `Ssr2` under FREP in the SpikeStream variant — then scales
//! by the window area, thresholds at an average activity of one half, and
//! writes the firing channels to the compressed output. No weights, no membrane state: the DMA traffic is
//! the dense spike tile in and the compressed output back out.

use snitch_arch::isa::{FpOp, IntOp};
use snitch_arch::{ClusterConfig, SsrId};
use spikestream_ir::{
    AffineDims, CodeRegion, ComputePhase, KernelOp, LoopBody, Phase, ProgramSink, Ssrs,
    StreamProgram, StreamSpec, WorkItem,
};
use spikestream_snn::reference::avg_pool;
use spikestream_snn::{Layer, LayerKind, PoolSpec, SpikeMap};

use crate::emit;
use crate::tiling::TilingPlanner;
use crate::{KernelVariant, LayerExecutor, OpBuffer};

const CODE_REGION_POOL_BASELINE: CodeRegion = CodeRegion { id: 0x40, bytes: 512 };
const CODE_REGION_POOL_SPIKESTREAM: CodeRegion = CodeRegion { id: 0x41, bytes: 704 };

/// The instruction-cache regions the pooling programs of `variant` fetch.
fn code_regions(variant: KernelVariant) -> &'static [CodeRegion] {
    match variant {
        KernelVariant::Baseline => &[CODE_REGION_POOL_BASELINE],
        KernelVariant::SpikeStream => &[CODE_REGION_POOL_SPIKESTREAM],
    }
}

/// One window element of the baseline pooling loop: load the spike word,
/// add it, bump the pointer, branch.
static BASELINE_WINDOW_BODY: [KernelOp<'static>; 3] = [
    KernelOp::fp(FpOp::Load),
    KernelOp::fp(FpOp::Add),
    KernelOp::int(&[IntOp::Alu, IntOp::Branch]),
];

impl LayerExecutor {
    /// Lower one pooling invocation into `sink` as its exact stream
    /// program, computing the output spikes along the way. Each work item
    /// is written into `buffer` before it goes to the sink.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is not an average-pooling layer or the input shape
    /// does not match the spec.
    pub fn lower_pool(
        &self,
        config: &ClusterConfig,
        layer: &Layer,
        input: &SpikeMap,
        buffer: &mut OpBuffer,
        sink: &mut dyn ProgramSink<'_>,
    ) -> SpikeMap {
        let LayerKind::AvgPool(spec) = &layer.kind else {
            panic!("lower_pool requires an average-pooling layer");
        };
        assert_eq!(input.shape(), spec.input, "input shape mismatch");
        let fired = avg_pool(input, spec);

        let lanes = self.format.simd_lanes() as usize;
        let out = spec.output();
        let groups = spec.input.c.div_ceil(lanes);

        let plan = TilingPlanner::new(config).plan_pool(spec);
        let in_base = plan.ifmap_idcs.base;
        let spm_bytes = config.spm_bytes.max(1);

        for dma in plan.dma_in_phases() {
            sink.dma(dma);
        }
        sink.compute(code_regions(self.variant));

        let mut ops = buffer.lend();
        for oh in 0..out.h {
            for ow in 0..out.w {
                emit::claim(&mut ops);
                for g in 0..groups {
                    self.pool_window(&mut ops, spec, (oh, ow, g), in_base, spm_bytes);
                    ops.push(KernelOp::fp(FpOp::Mul)); // x 1/window^2
                    ops.push(KernelOp::fp(FpOp::Cmp)); // average >= 0.5
                    ops.push(KernelOp::mov());
                    for lane in 0..lanes {
                        let c = g * lanes + lane;
                        if c >= spec.input.c {
                            break;
                        }
                        emit::lane_unpack(&mut ops);
                        if fired.get(oh, ow, c) {
                            emit::fired_update(&mut ops);
                        }
                    }
                }
                sink.item(&ops);
            }
        }
        buffer.restore(ops);
        sink.end_compute();
        for dma in plan.dma_out_phases() {
            sink.dma(dma);
        }
        fired
    }

    /// Symbolic variant of [`LayerExecutor::lower_pool`]: the same
    /// per-group structure with the activation tail scaled by the expected
    /// firing rate.
    pub(crate) fn lower_pool_symbolic(
        &self,
        config: &ClusterConfig,
        spec: &PoolSpec,
        output_rate: f64,
    ) -> StreamProgram<'static> {
        let lanes = self.format.simd_lanes() as usize;
        let out = spec.output();
        let groups = spec.input.c.div_ceil(lanes);
        let output_rate = output_rate.clamp(0.0, 1.0);

        let plan = TilingPlanner::new(config).plan_pool(spec);
        let in_base = plan.ifmap_idcs.base;
        let spm_bytes = config.spm_bytes.max(1);

        let mut program = StreamProgram::new(self.format);
        for dma in plan.dma_in_phases() {
            program.push(Phase::Dma(dma));
        }

        let mut group = Vec::new();
        self.pool_window(&mut group, spec, (0, 0, 0), in_base, spm_bytes);
        group.push(KernelOp::fp(FpOp::Mul));
        group.push(KernelOp::fp(FpOp::Cmp));
        group.push(KernelOp::mov());
        emit::activation_tail_symbolic(&mut group, lanes as f64, lanes as f64 * output_rate);

        let mut ops = Vec::new();
        emit::claim(&mut ops);
        ops.push(KernelOp::Loop { body: group.into(), reps: groups as f64 });
        program.push(Phase::Compute(ComputePhase {
            code: code_regions(self.variant),
            items: vec![WorkItem::replicated((out.h * out.w) as f64, ops)],
        }));
        for dma in plan.dma_out_phases() {
            program.push(Phase::Dma(dma));
        }
        program
    }

    /// Accumulate one window of spike words for one channel group.
    fn pool_window(
        &self,
        ops: &mut Vec<KernelOp<'_>>,
        spec: &PoolSpec,
        pos: (usize, usize, usize),
        in_base: u32,
        spm_bytes: u32,
    ) {
        let (oh, ow, g) = pos;
        let lanes = self.format.simd_lanes() as usize;
        let window = spec.window;
        let cell_base = {
            let offset =
                ((oh * window * spec.input.w + ow * window) * spec.input.c + g * lanes) as u32;
            in_base.wrapping_add(offset % spm_bytes)
        };
        match self.variant {
            KernelVariant::Baseline => ops.push(KernelOp::Loop {
                body: LoopBody::Template(&BASELINE_WINDOW_BODY),
                reps: (window * window) as f64,
            }),
            KernelVariant::SpikeStream => ops.push(KernelOp::Stream {
                ssrs: Ssrs::One((
                    SsrId::Ssr2,
                    StreamSpec::Affine {
                        base: cell_base,
                        dims: AffineDims::new(&[
                            (spec.input.c as i32, window as u32),
                            ((spec.input.w * spec.input.c) as i32, window as u32),
                        ]),
                        elem_bytes: lanes as u32,
                    },
                )),
                op: FpOp::Add,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interpret;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use snitch_arch::fp::FpFormat;
    use spikestream_snn::neuron::LifParams;
    use spikestream_snn::tensor::TensorShape;
    use spikestream_snn::ReferenceEngine;

    fn pool_layer(hw: usize, c: usize) -> (Layer, PoolSpec) {
        let spec = PoolSpec { input: TensorShape::new(hw, hw, c), window: 2 };
        let layer = Layer::new("pool", LayerKind::AvgPool(spec), LifParams::default());
        (layer, spec)
    }

    fn random_spikes(shape: TensorShape, rate: f64, seed: u64) -> SpikeMap {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut map = SpikeMap::silent(shape);
        for h in 0..shape.h {
            for w in 0..shape.w {
                for c in 0..shape.c {
                    if rng.gen_bool(rate) {
                        map.set(h, w, c, true);
                    }
                }
            }
        }
        map
    }

    fn lower(
        variant: KernelVariant,
        layer: &Layer,
        input: &SpikeMap,
    ) -> (StreamProgram<'static>, SpikeMap) {
        let mut program = StreamProgram::new(FpFormat::Fp16);
        let output = LayerExecutor::new(variant, FpFormat::Fp16).lower_pool(
            &ClusterConfig::default(),
            layer,
            input,
            &mut OpBuffer::new(),
            &mut program,
        );
        (program, output)
    }

    #[test]
    fn pool_kernel_matches_reference_for_both_variants() {
        let (layer, spec) = pool_layer(8, 16);
        let input = random_spikes(spec.input, 0.4, 3);
        let expected = ReferenceEngine::new().avg_pool_forward(&layer, &input);
        for variant in [KernelVariant::Baseline, KernelVariant::SpikeStream] {
            let (program, output) = lower(variant, &layer, &input);
            assert_eq!(output, expected, "{variant}");
            assert!(interpret(&program).cycles > 0);
        }
    }

    #[test]
    fn streaming_variant_is_not_slower() {
        let (layer, spec) = pool_layer(16, 32);
        let input = random_spikes(spec.input, 0.3, 7);
        let base = interpret(&lower(KernelVariant::Baseline, &layer, &input).0);
        let fast = interpret(&lower(KernelVariant::SpikeStream, &layer, &input).0);
        assert!(fast.compute_cycles <= base.compute_cycles);
    }

    #[test]
    fn symbolic_lowering_is_compact_and_integrable() {
        use spikestream_ir::CostIntegrator;
        let (_, spec) = pool_layer(8, 16);
        let executor = LayerExecutor::new(KernelVariant::SpikeStream, FpFormat::Fp16);
        let program = executor.lower_pool_symbolic(&ClusterConfig::default(), &spec, 0.3);
        assert!(program.work_items() > 1.0);
        let cost = CostIntegrator::snitch().integrate(&program);
        assert!(cost.compute_cycles > 0);
        assert!(cost.dma_bytes_in > 0 && cost.dma_bytes_out > 0);
    }

    #[test]
    #[should_panic(expected = "input shape mismatch")]
    fn wrong_input_shape_panics() {
        let (layer, _) = pool_layer(8, 16);
        let wrong = SpikeMap::silent(TensorShape::new(4, 4, 16));
        lower(KernelVariant::Baseline, &layer, &wrong);
    }
}
