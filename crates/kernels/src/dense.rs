//! Dense spike-encoding kernel for the first network layer.
//!
//! When the input is an RGB image rather than an event stream, the first
//! convolutional layer doubles as the spike encoder: pixel values are used
//! directly as input currents (Section III-F). SpikeStream reshapes the
//! dense input on the fly with a 2D DMA im2row transfer and turns the
//! convolution into a matrix multiplication whose dot products are fed by
//! two *affine* stream registers (one for the input row, one for the
//! weights); the baseline executes the same matmul as a scalar SIMD loop.
//!
//! Like the sparse kernels, this kernel is an emitter: it writes the layer
//! into a [`ProgramSink`] exactly and returns the spikes it fires
//! ([`LayerExecutor::lower_dense`]), or lowers it to a [`StreamProgram`]
//! symbolically from expected rates.

use snitch_arch::ClusterConfig;
use snitch_mem::dma::DmaDirection;
use spikestream_ir::{
    CodeRegion, ComputePhase, DmaPhase, KernelOp, Phase, ProgramSink, StreamProgram, WorkItem,
};
use spikestream_snn::{ConvSpec, Layer, LayerKind, NeuronModel, NeuronState, SpikeMap, Tensor3};

use crate::conv::set_fired;
use crate::emit;
use crate::tiling::TilingPlanner;
use crate::{KernelVariant, LayerExecutor, OpBuffer};

const CODE_REGION_DENSE_BASELINE: CodeRegion = CodeRegion { id: 0x30, bytes: 1024 };
const CODE_REGION_DENSE_SPIKESTREAM: CodeRegion = CodeRegion { id: 0x31, bytes: 1408 };

/// The instruction-cache regions the dense programs of `variant` fetch.
fn code_regions(variant: KernelVariant) -> &'static [CodeRegion] {
    match variant {
        KernelVariant::Baseline => &[CODE_REGION_DENSE_BASELINE],
        KernelVariant::SpikeStream => &[CODE_REGION_DENSE_SPIKESTREAM],
    }
}

impl LayerExecutor {
    /// Lower one spike-encoding invocation into `sink` as its exact stream
    /// program, advancing the output neurons along the way, and return the
    /// spikes they fire, after the optional 2x2 max-pool.
    ///
    /// `weights` are the layer's weights rounded to the executor's format
    /// (see [`LayerExecutor::lower_conv`]), `image` the padded input image
    /// in HWC layout and `state` the neuron state of the output neurons,
    /// which the call advances by one step. Each work item is written into
    /// `buffer` before it goes to the sink.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is not convolutional, `weights` or the image
    /// shape do not match the layer, or the neuron state has the wrong
    /// size.
    #[allow(clippy::too_many_arguments)]
    pub fn lower_dense(
        &self,
        config: &ClusterConfig,
        layer: &Layer,
        weights: &[f32],
        image: &Tensor3,
        state: &mut NeuronState,
        buffer: &mut OpBuffer,
        sink: &mut dyn ProgramSink<'_>,
    ) -> SpikeMap {
        let LayerKind::Conv(spec) = &layer.kind else {
            panic!("lower_dense requires a convolutional layer");
        };
        assert_eq!(weights.len(), layer.weights.len(), "one quantized weight per layer weight");
        assert_eq!(image.shape(), spec.padded_input(), "image must be padded");
        let out_shape = spec.conv_output();
        assert_eq!(state.len(), out_shape.len(), "neuron state size mismatch");

        let lanes = self.format.simd_lanes() as usize;
        let groups = spec.out_channels.div_ceil(lanes);
        let k_len = spec.kh * spec.kw * spec.input.c;

        // Dense ifmap tile + weights: the regular tile plan (the dense tile
        // has no compressed indices) plus the on-the-fly im2row 2D reshape
        // performed by the DMA core.
        let plan = TilingPlanner::new(config).plan_conv_spikes(
            spec,
            self.format,
            0,
            layer.neuron.state_vars(),
        );
        for dma in plan.dma_in_phases() {
            sink.dma(dma);
        }
        let row_bytes = (spec.kw * spec.input.c * 4) as u64;
        sink.dma(DmaPhase::strided_2d(
            DmaDirection::In,
            row_bytes,
            (out_shape.h * spec.kh) as u64,
            false,
        ));
        sink.compute(code_regions(self.variant));

        let weights_base = plan.weights.base;
        let input_base = plan.ifmap_idcs.base;
        let lane_bytes = lanes as u32 * self.format.bytes();

        let mut output = SpikeMap::silent(spec.output());
        let mut ops = buffer.lend();
        // Every pixel feeds up to kh x kw positions, so round the image to
        // the storage format once.
        let (qimage, acc) =
            buffer.dense_rows(image.data(), |x| self.format.quantize(x), spec.out_channels);

        for oh in 0..out_shape.h {
            for ow in 0..out_shape.w {
                // Functional dot product for every output channel of this
                // position: each nonzero input pixel adds its quantized
                // value times the (channel-contiguous) weight row. The
                // per-channel accumulation order matches the former
                // per-group scalar loop exactly.
                acc.fill(0.0);
                for kh in 0..spec.kh {
                    for kw in 0..spec.kw {
                        let at =
                            image.shape().index(oh * spec.stride + kh, ow * spec.stride + kw, 0);
                        let pixels = image.data()[at..at + spec.input.c].iter().zip(&qimage[at..]);
                        for (ci, (&x, &qx)) in pixels.enumerate() {
                            if x == 0.0 {
                                continue;
                            }
                            let row = spec.weight_index(kh, kw, ci, 0);
                            let row = &weights[row..row + spec.out_channels];
                            for (a, &w) in acc.iter_mut().zip(row) {
                                *a += qx * w;
                            }
                        }
                    }
                }

                emit::claim(&mut ops);
                for g in 0..groups {
                    // Timing of the dot product.
                    emit::model_group_prologue(&mut ops, &layer.neuron);
                    ops.push(match self.variant {
                        KernelVariant::Baseline => emit::baseline_dense_dot(k_len as f64),
                        KernelVariant::SpikeStream => emit::streamed_dense_dot(
                            input_base,
                            weights_base,
                            lane_bytes,
                            k_len as u32,
                        ),
                    });

                    // Fused activation from the group's accumulators,
                    // identical to the sparse layers.
                    emit::model_activation_head(&mut ops, &layer.neuron);
                    let lane_base = g * lanes;
                    let group = &acc[lane_base..spec.out_channels.min(lane_base + lanes)];
                    for (lane, &current) in group.iter().enumerate() {
                        let co = lane_base + lane;
                        emit::lane_unpack(&mut ops);
                        let neuron = out_shape.index(oh, ow, co);
                        if state.step_single(&layer.neuron, neuron, self.format.quantize(current)) {
                            set_fired(spec, &mut output, oh, ow, co);
                            emit::fired_update(&mut ops);
                        }
                    }
                    emit::model_state_writeback(&mut ops, &layer.neuron);
                }
                sink.item(&ops);
            }
        }
        buffer.restore(ops);
        sink.end_compute();
        for dma in plan.dma_out_phases() {
            sink.dma(dma);
        }
        output
    }

    /// Symbolic lowering of the spike-encoding layer from the expected
    /// output firing rate (the dense input consumes every pixel, so only
    /// the activation tail is rate-dependent). `model` selects the
    /// activation head and state-tile width.
    pub(crate) fn lower_dense_symbolic(
        &self,
        config: &ClusterConfig,
        label: &str,
        spec: &ConvSpec,
        model: &NeuronModel,
        output_rate: f64,
    ) -> StreamProgram<'static> {
        let lanes = self.format.simd_lanes() as usize;
        let groups = spec.out_channels.div_ceil(lanes);
        let out = spec.conv_output();
        let k_len = spec.kh * spec.kw * spec.input.c;
        let output_rate = output_rate.clamp(0.0, 1.0);

        let plan =
            TilingPlanner::new(config).plan_conv_spikes(spec, self.format, 0, model.state_vars());
        let mut program = StreamProgram::new(label, self.format);
        for dma in plan.dma_in_phases() {
            program.push(Phase::Dma(dma));
        }
        let row_bytes = (spec.kw * spec.input.c * 4) as u64;
        program.push(Phase::Dma(DmaPhase::strided_2d(
            DmaDirection::In,
            row_bytes,
            (out.h * spec.kh) as u64,
            false,
        )));

        let weights_base = plan.weights.base;
        let input_base = plan.ifmap_idcs.base;
        let lane_bytes = lanes as u32 * self.format.bytes();

        let mut group = Vec::new();
        emit::model_group_prologue(&mut group, model);
        group.push(match self.variant {
            KernelVariant::Baseline => emit::baseline_dense_dot(k_len as f64),
            KernelVariant::SpikeStream => {
                emit::streamed_dense_dot(input_base, weights_base, lane_bytes, k_len as u32)
            }
        });
        emit::model_activation_head(&mut group, model);
        emit::activation_tail_symbolic(&mut group, lanes as f64, lanes as f64 * output_rate);
        emit::model_state_writeback(&mut group, model);

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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interpret;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snitch_arch::fp::FpFormat;
    use spikestream_snn::encoding::{pad_image, synthetic_image};
    use spikestream_snn::neuron::LifParams;
    use spikestream_snn::tensor::TensorShape;
    use spikestream_snn::{ConvSpec, ReferenceEngine};

    fn test_layer(hw: usize, out_c: usize) -> (Layer, ConvSpec) {
        let spec = ConvSpec {
            input: TensorShape::new(hw, hw, 3),
            out_channels: out_c,
            kh: 3,
            kw: 3,
            stride: 1,
            padding: 1,
            pool: false,
        };
        let mut layer = Layer::new("conv1", LayerKind::Conv(spec), LifParams::new(0.5, 0.3));
        let mut rng = StdRng::seed_from_u64(31);
        layer.randomize_weights(&mut rng, 0.2);
        (layer, spec)
    }

    /// Lower `layer` on the default cluster from a resting LIF state;
    /// returns the program, the output spikes and the advanced state.
    fn lower(
        variant: KernelVariant,
        format: FpFormat,
        layer: &Layer,
        image: &Tensor3,
    ) -> (StreamProgram<'static>, SpikeMap, NeuronState) {
        let LayerKind::Conv(spec) = &layer.kind else { unreachable!() };
        let mut state = NeuronState::lif(spec.conv_output().len());
        let mut program = StreamProgram::new(&layer.name, format);
        let output = LayerExecutor::new(variant, format).lower_dense(
            &ClusterConfig::default(),
            layer,
            &layer.quantize_weights(format),
            image,
            &mut state,
            &mut OpBuffer::new(),
            &mut program,
        );
        (program, output, state)
    }

    #[test]
    fn fp32_dense_kernel_matches_reference() {
        let (layer, spec) = test_layer(8, 8);
        let mut rng = StdRng::seed_from_u64(4);
        let image = pad_image(&synthetic_image(spec.input, &mut rng), spec.padding);
        let (_, spikes, state) = lower(KernelVariant::SpikeStream, FpFormat::Fp32, &layer, &image);

        let eng = ReferenceEngine::new();
        let ref_currents = eng.conv_currents_dense(&layer, &spec, &image);
        let mut ref_state = NeuronState::lif(spec.conv_output().len());
        let ref_spikes = eng.activate_conv(&layer, &spec, &ref_currents, &mut ref_state);
        // One step from rest leaves each membrane at its input current, less
        // the reset where the neuron fired.
        for (a, b) in state.membrane().iter().zip(ref_state.membrane()) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
        assert!(ref_spikes.count_spikes() > 0, "the layer fires");
        assert_eq!(spikes, ref_spikes);
    }

    #[test]
    fn streaming_improves_dense_layer_utilization_moderately() {
        let (layer, spec) = test_layer(10, 16);
        let mut rng = StdRng::seed_from_u64(6);
        let image = pad_image(&synthetic_image(spec.input, &mut rng), spec.padding);
        let base = interpret(&lower(KernelVariant::Baseline, FpFormat::Fp16, &layer, &image).0);
        let fast = interpret(&lower(KernelVariant::SpikeStream, FpFormat::Fp16, &layer, &image).0);
        // Fig. 3b: the dense encoding layer already has decent baseline
        // utilization (~25%) and SpikeStream roughly doubles it (~53%).
        assert!(base.fpu_utilization > 0.12 && base.fpu_utilization < 0.40);
        assert!(fast.fpu_utilization > base.fpu_utilization * 1.5);
        assert!(fast.cycles < base.cycles);
    }

    #[test]
    fn variants_agree_functionally_on_dense_input() {
        let (layer, spec) = test_layer(6, 8);
        let mut rng = StdRng::seed_from_u64(9);
        let image = pad_image(&synthetic_image(spec.input, &mut rng), spec.padding);
        let (_, a, sa) = lower(KernelVariant::Baseline, FpFormat::Fp16, &layer, &image);
        let (_, b, sb) = lower(KernelVariant::SpikeStream, FpFormat::Fp16, &layer, &image);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
    }
}
