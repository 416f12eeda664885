//! Spike average-pooling kernel.
//!
//! The layer that proves the IR's "new layer = one emitter" claim: the
//! whole kernel is a single lowering function. Each output position is one
//! work item; per SIMD channel group the kernel accumulates the window's
//! spike words — as a scalar load/add loop in the baseline variant, or as
//! a 2D *affine* stream on the affine-only `Ssr2` under FREP in the
//! SpikeStream variant — then scales by the window area, thresholds at an
//! average activity of one half, and writes the firing channels to the
//! compressed output. No weights, no membrane state: the DMA traffic is
//! the dense spike tile in and the compressed output back out.

use snitch_arch::isa::FpOp;
use snitch_arch::{ClusterConfig, SsrId};
use snitch_sim::{execute_program, ClusterModel};
use spikestream_ir::{
    CodeRegion, ComputePhase, KernelOp, Phase, StreamProgram, StreamSpec, WorkItem,
};
use spikestream_snn::reference::avg_pool;
use spikestream_snn::{CompressedIfmap, Layer, LayerKind, PoolSpec, SpikeMap};

use crate::emit;
use crate::tiling::TilingPlanner;
use crate::KernelVariant;

const CODE_REGION_POOL_BASELINE: CodeRegion = CodeRegion { id: 0x40, bytes: 512 };
const CODE_REGION_POOL_SPIKESTREAM: CodeRegion = CodeRegion { id: 0x41, bytes: 704 };

/// Result of one average-pooling layer invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolKernelOutput {
    /// Output spikes.
    pub output: SpikeMap,
    /// Compressed form of the output, ready for the next layer.
    pub compressed: CompressedIfmap,
}

/// A spike average-pooling kernel bound to a variant and format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolKernel {
    variant: KernelVariant,
    format: snitch_arch::fp::FpFormat,
}

impl PoolKernel {
    /// Create a kernel for the given variant and floating-point format.
    pub fn new(variant: KernelVariant, format: snitch_arch::fp::FpFormat) -> Self {
        PoolKernel { variant, format }
    }

    /// The code variant this kernel emits.
    pub fn variant(&self) -> KernelVariant {
        self.variant
    }

    fn code_regions(&self) -> Vec<CodeRegion> {
        vec![match self.variant {
            KernelVariant::Baseline => CODE_REGION_POOL_BASELINE,
            KernelVariant::SpikeStream => CODE_REGION_POOL_SPIKESTREAM,
        }]
    }

    /// Run one pooling layer on the cluster (lower + interpret).
    ///
    /// # Panics
    ///
    /// Panics if `layer` is not an average-pooling layer or the input shape
    /// does not match the spec.
    pub fn run(
        &self,
        cluster: &mut ClusterModel,
        layer: &Layer,
        input: &SpikeMap,
    ) -> PoolKernelOutput {
        let (program, output) = self.lower(cluster.config(), layer, input);
        execute_program(cluster, &program);
        output
    }

    /// Lower one invocation into its exact stream program, computing the
    /// functional output along the way.
    ///
    /// # Panics
    ///
    /// Same contract as [`PoolKernel::run`].
    pub fn lower(
        &self,
        config: &ClusterConfig,
        layer: &Layer,
        input: &SpikeMap,
    ) -> (StreamProgram, PoolKernelOutput) {
        let LayerKind::AvgPool(spec) = &layer.kind else {
            panic!("PoolKernel requires an average-pooling layer");
        };
        assert_eq!(input.shape(), spec.input, "input shape mismatch");

        let output = avg_pool(input, spec);
        let program = self.emit(config, &layer.name, spec, Some(&output));
        let compressed = CompressedIfmap::from_spike_map(&output);
        (program, PoolKernelOutput { output, compressed })
    }

    /// Symbolic lowering from the expected output firing rate.
    pub fn lower_symbolic(
        &self,
        config: &ClusterConfig,
        label: &str,
        spec: &PoolSpec,
        output_rate: f64,
    ) -> StreamProgram {
        self.emit_with_rate(config, label, spec, output_rate)
    }

    /// The exact emitter: `fired` carries the concrete output spikes.
    fn emit(
        &self,
        config: &ClusterConfig,
        label: &str,
        spec: &PoolSpec,
        fired: Option<&SpikeMap>,
    ) -> StreamProgram {
        let lanes = self.format.simd_lanes() as usize;
        let out = spec.output();
        let groups = spec.input.c.div_ceil(lanes);

        let plan = TilingPlanner::new(config).plan_pool(spec);
        let in_base = plan.ifmap_idcs.base;
        let spm_bytes = config.spm_bytes.max(1);

        let mut program = StreamProgram::new(label, self.format);
        for dma in plan.dma_in_phases() {
            program.push(Phase::Dma(dma));
        }

        let mut items = Vec::with_capacity(out.h * out.w);
        for oh in 0..out.h {
            for ow in 0..out.w {
                let mut ops = emit::claim();
                for g in 0..groups {
                    self.window_accumulate(&mut ops, spec, (oh, ow, g), in_base, spm_bytes);
                    ops.push(KernelOp::fp(FpOp::Mul)); // x 1/window^2
                    ops.push(KernelOp::fp(FpOp::Cmp)); // average >= 0.5
                    ops.push(KernelOp::mov());
                    for lane in 0..lanes {
                        let c = g * lanes + lane;
                        if c >= spec.input.c {
                            break;
                        }
                        emit::lane_unpack(&mut ops);
                        if fired.map(|f| f.get(oh, ow, c)).unwrap_or(false) {
                            emit::fired_update(&mut ops);
                        }
                    }
                }
                items.push(WorkItem::new(ops));
            }
        }
        program.push(Phase::Compute(ComputePhase { code: self.code_regions(), items }));
        for dma in plan.dma_out_phases() {
            program.push(Phase::Dma(dma));
        }
        program
    }

    /// Symbolic variant of [`Self::emit`]: the same per-group structure with
    /// the activation tail scaled by the expected firing rate.
    fn emit_with_rate(
        &self,
        config: &ClusterConfig,
        label: &str,
        spec: &PoolSpec,
        output_rate: f64,
    ) -> StreamProgram {
        let lanes = self.format.simd_lanes() as usize;
        let out = spec.output();
        let groups = spec.input.c.div_ceil(lanes);
        let output_rate = output_rate.clamp(0.0, 1.0);

        let plan = TilingPlanner::new(config).plan_pool(spec);
        let in_base = plan.ifmap_idcs.base;
        let spm_bytes = config.spm_bytes.max(1);

        let mut program = StreamProgram::new(label, self.format);
        for dma in plan.dma_in_phases() {
            program.push(Phase::Dma(dma));
        }

        let mut group = Vec::new();
        self.window_accumulate(&mut group, spec, (0, 0, 0), in_base, spm_bytes);
        group.push(KernelOp::fp(FpOp::Mul));
        group.push(KernelOp::fp(FpOp::Cmp));
        group.push(KernelOp::mov());
        emit::activation_tail_symbolic(&mut group, lanes as f64, lanes as f64 * output_rate);

        let mut ops = emit::claim();
        ops.push(KernelOp::Loop { body: group, reps: groups as f64 });
        program.push(Phase::Compute(ComputePhase {
            code: self.code_regions(),
            items: vec![WorkItem::replicated((out.h * out.w) as f64, ops)],
        }));
        for dma in plan.dma_out_phases() {
            program.push(Phase::Dma(dma));
        }
        program
    }

    /// Accumulate one window of spike words for one channel group.
    fn window_accumulate(
        &self,
        ops: &mut Vec<KernelOp>,
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
                body: vec![
                    KernelOp::fp(FpOp::Load),
                    KernelOp::fp(FpOp::Add),
                    KernelOp::alu(),
                    KernelOp::branch(),
                ],
                reps: (window * window) as f64,
            }),
            KernelVariant::SpikeStream => ops.push(KernelOp::Stream {
                ssrs: vec![(
                    SsrId::Ssr2,
                    StreamSpec::Affine {
                        base: cell_base,
                        strides: vec![spec.input.c as i64, (spec.input.w * spec.input.c) as i64],
                        bounds: vec![window as u32, window as u32],
                        elem_bytes: lanes as u32,
                    },
                )],
                op: FpOp::Add,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use snitch_arch::fp::FpFormat;
    use snitch_arch::{ClusterConfig, CostModel};
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

    fn cluster() -> ClusterModel {
        ClusterModel::new(ClusterConfig::default(), CostModel::default())
    }

    #[test]
    fn pool_kernel_matches_reference_for_both_variants() {
        let (layer, spec) = pool_layer(8, 16);
        let input = random_spikes(spec.input, 0.4, 3);
        let expected = ReferenceEngine::new().avg_pool_forward(&layer, &input);
        for variant in [KernelVariant::Baseline, KernelVariant::SpikeStream] {
            let mut cl = cluster();
            let out = PoolKernel::new(variant, FpFormat::Fp16).run(&mut cl, &layer, &input);
            assert_eq!(out.output, expected, "{variant}");
            assert_eq!(out.compressed.decompress(), expected);
            assert!(cl.finish_phase("pool").cycles > 0);
        }
    }

    #[test]
    fn streaming_variant_is_not_slower() {
        let (layer, spec) = pool_layer(16, 32);
        let input = random_spikes(spec.input, 0.3, 7);
        let mut c1 = cluster();
        let mut c2 = cluster();
        PoolKernel::new(KernelVariant::Baseline, FpFormat::Fp16).run(&mut c1, &layer, &input);
        PoolKernel::new(KernelVariant::SpikeStream, FpFormat::Fp16).run(&mut c2, &layer, &input);
        let base = c1.finish_phase("b");
        let fast = c2.finish_phase("s");
        assert!(fast.compute_cycles <= base.compute_cycles);
    }

    #[test]
    fn symbolic_lowering_is_compact_and_integrable() {
        use spikestream_ir::CostIntegrator;
        let (_, spec) = pool_layer(8, 16);
        let kernel = PoolKernel::new(KernelVariant::SpikeStream, FpFormat::Fp16);
        let program = kernel.lower_symbolic(&ClusterConfig::default(), "pool", &spec, 0.3);
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
        PoolKernel::new(KernelVariant::Baseline, FpFormat::Fp16).run(
            &mut cluster(),
            &layer,
            &wrong,
        );
    }
}
