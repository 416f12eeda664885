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
//!
//! The exact lowering computes its dot products as the FPU's SIMD lanes
//! do, a group of output channels at a time: before it emits an output
//! row, it sums the row's products four positions by one
//! `MAX_SIMD_LANES`-wide channel group per pass, branch-free, with each
//! product ANDed with its pixel's mask word so that a zero pixel adds
//! +0.0. The sums are bit for bit those of a per-position loop that skips
//! zero pixels (see `dot_row`).

use snitch_arch::ClusterConfig;
use snitch_mem::dma::DmaDirection;
use spikestream_ir::{
    CodeRegion, ComputePhase, DmaPhase, KernelOp, Phase, ProgramSink, StreamProgram, WorkItem,
};
use spikestream_snn::{ConvSpec, Layer, LayerKind, NeuronModel, NeuronState, SpikeMap, Tensor3};

use crate::conv::{set_fired, MAX_SIMD_LANES};
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

/// Output positions whose dot products one pass of [`dot_row`] sums.
const BLOCK: usize = 4;

/// Write the dot products of output row `oh` into `row`: `row[ow * blocks
/// + b]` holds channels `b * MAX_SIMD_LANES..` of position `ow`, where
/// `blocks` is `out_channels.div_ceil(MAX_SIMD_LANES)`.
///
/// `rounded` is the padded image rounded to the storage format and `masks`
/// its mask words, all ones unless the pixel is 0.0. A pass sums [`BLOCK`]
/// positions by one lane group: per tap, one product per lane and
/// position, ANDed with the pixel's mask word. The sums are bit for bit
/// those of a per-position loop that skips zero pixels:
/// - per channel, the taps keep their order;
/// - a masked product is +0.0, and an accumulator starts at +0.0 and so
///   never becomes -0.0, so adding +0.0 changes no bit;
/// - Rust never fuses `a + x * w` into a fused multiply-add;
/// - the mask, unlike a multiply by zero, keeps an infinite weight next to
///   a zero pixel from turning into NaN.
///
/// The four positions give four independent chains of adds per lane, and
/// no branch depends on the pixels.
fn dot_row(
    spec: &ConvSpec,
    weights: &[f32],
    rounded: &[f32],
    masks: &[u32],
    oh: usize,
    row: &mut [[f32; MAX_SIMD_LANES]],
) {
    let padded = spec.padded_input();
    let out_w = spec.conv_output().w;
    let blocks = spec.out_channels.div_ceil(MAX_SIMD_LANES);
    // The taps of one filter row are `kw * c` contiguous pixels, and their
    // weight rows follow each other too.
    let taps = spec.kw * padded.c;
    for ow0 in (0..out_w).step_by(BLOCK) {
        // A short last block repeats its last position and keeps only the
        // positions that exist.
        let cols: [usize; BLOCK] =
            std::array::from_fn(|p| (ow0 + p).min(out_w - 1) * spec.stride * padded.c);
        for b in 0..blocks {
            let co = b * MAX_SIMD_LANES;
            let mut acc = [[0.0f32; MAX_SIMD_LANES]; BLOCK];
            for kh in 0..spec.kh {
                let line = padded.index(oh * spec.stride + kh, 0, 0);
                let pixels: [_; BLOCK] = std::array::from_fn(|p| {
                    let at = line + cols[p];
                    (&rounded[at..at + taps], &masks[at..at + taps])
                });
                let first = spec.weight_index(kh, 0, 0, co);
                for t in 0..taps {
                    let at = first + t * spec.out_channels;
                    // A short last group reads on into the next tap's
                    // weights, in lanes no position keeps; only the last
                    // tap of the layer pads them with zeros.
                    let w: [f32; MAX_SIMD_LANES] = match weights.get(at..at + MAX_SIMD_LANES) {
                        Some(w) => w.try_into().expect("one lane group"),
                        None => {
                            std::array::from_fn(|l| weights.get(at + l).copied().unwrap_or(0.0))
                        }
                    };
                    for (acc, &(xs, masks)) in acc.iter_mut().zip(&pixels) {
                        let (x, mask) = (xs[t], masks[t]);
                        for (a, &w) in acc.iter_mut().zip(&w) {
                            *a += f32::from_bits((x * w).to_bits() & mask);
                        }
                    }
                }
            }
            for (p, acc) in acc.iter().enumerate().take(out_w - ow0) {
                row[(ow0 + p) * blocks + b] = *acc;
            }
        }
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
        assert_eq!(
            weights.len(),
            layer.kind.weight_count(),
            "one quantized weight per layer weight"
        );
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
        // the storage format, and mark its zero pixels, once.
        let blocks = spec.out_channels.div_ceil(MAX_SIMD_LANES);
        let (rounded, masks, row) =
            buffer.dense_rows(image.data(), |x| self.format.quantize(x), out_shape.w * blocks);

        for oh in 0..out_shape.h {
            dot_row(spec, weights, rounded, masks, oh, row);
            for ow in 0..out_shape.w {
                let acc = row[ow * blocks..][..blocks].as_flattened();
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
    use rand::{Rng, SeedableRng};
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

    /// The per-position loop [`dot_row`] must equal bit for bit: each
    /// channel sums its taps in order, skipping zero pixels.
    fn per_position_row(
        spec: &ConvSpec,
        weights: &[f32],
        image: &[f32],
        format: FpFormat,
        oh: usize,
    ) -> Vec<Vec<f32>> {
        let padded = spec.padded_input();
        let position = |ow: usize| {
            let mut acc = vec![0.0f32; spec.out_channels];
            for kh in 0..spec.kh {
                for kw in 0..spec.kw {
                    for ci in 0..spec.input.c {
                        let x =
                            image[padded.index(oh * spec.stride + kh, ow * spec.stride + kw, ci)];
                        if x == 0.0 {
                            continue;
                        }
                        for (co, a) in acc.iter_mut().enumerate() {
                            *a += format.quantize(x) * weights[spec.weight_index(kh, kw, ci, co)];
                        }
                    }
                }
            }
            acc
        };
        (0..spec.conv_output().w).map(position).collect()
    }

    /// Compare [`dot_row`] with [`per_position_row`] on every row of a
    /// random image under a layer with one infinite weight; returns how
    /// many sums a zero pixel kept that weight out of.
    fn check_blocked_rows(
        spec: &ConvSpec,
        format: FpFormat,
        rng: &mut StdRng,
        buffer: &mut OpBuffer,
    ) -> usize {
        let (out, padded) = (spec.conv_output(), spec.padded_input());
        let mut image: Vec<f32> = (0..padded.len())
            .map(|_| match rng.gen_range(0..6) {
                0 => 0.0,
                1 => -0.0,
                2 => 1e-40,
                3 => -3e-41,
                _ => rng.gen_range(-2.0f32..2.0),
            })
            .collect();
        let mut weights: Vec<f32> = (0..spec.kh * spec.kw * spec.input.c * out.c)
            .map(|_| format.quantize(rng.gen_range(-0.5f32..0.5)))
            .collect();
        // One infinite weight at the centre tap, over a zero pixel at every
        // other position.
        weights[spec.weight_index(1, 1, 0, out.c - 1)] = f32::INFINITY;
        for oh in 0..out.h {
            for ow in (0..out.w).step_by(2) {
                image[padded.index(oh * spec.stride + 1, ow * spec.stride + 1, 0)] = 0.0;
            }
        }

        let blocks = out.c.div_ceil(MAX_SIMD_LANES);
        let (rounded, masks, row) =
            buffer.dense_rows(&image, |x| format.quantize(x), out.w * blocks);
        let mut shielded = 0;
        for oh in 0..out.h {
            dot_row(spec, &weights, rounded, masks, oh, row);
            let expected = per_position_row(spec, &weights, &image, format, oh);
            for (ow, expected) in expected.iter().enumerate() {
                let blocked = row[ow * blocks..][..blocks].as_flattened();
                for (co, want) in expected.iter().enumerate() {
                    let got = blocked[co];
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{format:?}, stride {}, {} x {}: ({oh}, {ow}, {co}) is {got}, not {want}",
                        spec.stride,
                        out.w,
                        out.c,
                    );
                }
                shielded += usize::from(ow % 2 == 0 && expected[out.c - 1].is_finite());
            }
        }
        shielded
    }

    #[test]
    fn blocked_rows_equal_the_per_position_loop_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(26);
        let mut buffer = OpBuffer::new();
        let mut shielded = 0;
        // Widths that are no multiple of the block, and channel counts that
        // are no multiple of the lane group.
        for out_w in [1, 3, 5, 10] {
            for out_c in [3, 12, 64] {
                for stride in [1, 2] {
                    let spec = ConvSpec {
                        input: TensorShape::new(2 * stride + 1, (out_w - 1) * stride + 1, 3),
                        out_channels: out_c,
                        kh: 3,
                        kw: 3,
                        stride,
                        padding: 1,
                        pool: false,
                    };
                    assert_eq!(spec.conv_output(), TensorShape::new(3, out_w, out_c));
                    for format in FpFormat::all() {
                        shielded += check_blocked_rows(&spec, format, &mut rng, &mut buffer);
                    }
                }
            }
        }
        assert!(shielded > 100, "only {shielded} sums had a zero pixel under the infinite weight");
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
