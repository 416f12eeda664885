//! Compressed spiking convolution kernels (baseline and SpikeStream).
//!
//! Both variants implement the dataflow of Fig. 2b of the paper: receptive
//! fields (output spatial positions) are distributed over the worker cores
//! by workload stealing; within a receptive field, each SIMD group of
//! output channels accumulates, for every filter position, the weights
//! selected by the active input channels of the compressed ifmap (one
//! Sparse Vector Accumulation, SpVA, per filter position); the LIF
//! activation is fused at the end of each group and the output spikes are
//! written back in compressed form.
//!
//! The two variants differ only in how the SpVA is executed:
//!
//! * **Baseline** — the scalar indirection loop of Listing 1b: per element,
//!   seven integer instructions surround a single useful `fadd`.
//! * **SpikeStream** — Listing 1c: an indirect stream register gathers the
//!   weights while an FREP hardware loop keeps the FPU accumulating, so
//!   the integer core merely sets up the next stream.
//!
//! The kernel is an *emitter*: [`LayerExecutor::lower_conv`] writes one
//! layer invocation into a [`ProgramSink`], one work item per receptive
//! field, and returns the spikes the layer fires (each group's lane
//! accumulators feed its neuron update directly, and only the fired
//! spikes are kept); the symbolic lowering behind
//! [`LayerExecutor::lower_symbolic`] emits the same structure from
//! expected firing rates for the analytic backend.

use snitch_arch::ClusterConfig;
use spikestream_ir::{
    CodeRegion, ComputePhase, IndexStream, KernelOp, Phase, ProgramSink, StreamProgram, WorkItem,
};
use spikestream_snn::compress::INDEX_BYTES;
use spikestream_snn::{
    CompressedIfmap, ConvSpec, Layer, LayerKind, NeuronModel, NeuronState, SpikeMap,
};

use crate::emit;
use crate::tiling::TilingPlanner;
use crate::{KernelVariant, LayerExecutor, OpBuffer};

/// Approximate code footprints (bytes) of the kernel regions, used by the
/// instruction-cache model.
const CODE_REGION_CONV_BASELINE: CodeRegion = CodeRegion { id: 0x10, bytes: 1280 };
const CODE_REGION_CONV_SPIKESTREAM: CodeRegion = CodeRegion { id: 0x11, bytes: 1792 };
pub(crate) const CODE_REGION_ACTIVATION: CodeRegion = CodeRegion { id: 0x12, bytes: 640 };

/// Widest SIMD group any format produces (FP8 lanes on the 64-bit
/// datapath); bounds the stack-allocated lane accumulators of the emitters.
pub(crate) const MAX_SIMD_LANES: usize = (snitch_arch::fp::FPU_DATAPATH_BITS / 8) as usize;

/// Scratchpad base addresses of one conv lowering.
struct ConvAddresses {
    idcs_base: u32,
    weights_base: u32,
    group_words: u32,
    word_bytes: u32,
    spm_bytes: u32,
}

impl ConvAddresses {
    /// Byte address of the SIMD weight group for `(kh, kw, g)`: the grouped
    /// weight layout stores, per filter position and group, the `in_c`
    /// gatherable SIMD words contiguously.
    fn weight_group_base(
        &self,
        spec: &ConvSpec,
        groups: usize,
        kh: usize,
        kw: usize,
        g: usize,
    ) -> u32 {
        let offset =
            (((kh * spec.kw + kw) * groups + g) as u32) * self.group_words * self.word_bytes;
        self.weights_base.wrapping_add(offset % self.spm_bytes)
    }
}

/// Record that conv output neuron `(oh, ow, co)` fired in the layer's
/// output map: at its own position, or in the 2x2 max-pool cell that
/// covers it when the layer pools (a pooled neuron fires when any neuron
/// of its window does; an odd last row or column has no cell).
pub(crate) fn set_fired(spec: &ConvSpec, output: &mut SpikeMap, oh: usize, ow: usize, co: usize) {
    if !spec.pool {
        output.set(oh, ow, co, true);
    } else if oh / 2 < output.shape().h && ow / 2 < output.shape().w {
        output.set(oh / 2, ow / 2, co, true);
    }
}

/// The instruction-cache regions the conv programs of `variant` fetch.
fn code_regions(variant: KernelVariant) -> &'static [CodeRegion] {
    match variant {
        KernelVariant::Baseline => &[CODE_REGION_CONV_BASELINE, CODE_REGION_ACTIVATION],
        KernelVariant::SpikeStream => &[CODE_REGION_CONV_SPIKESTREAM, CODE_REGION_ACTIVATION],
    }
}

/// Expected stream length of one SpVA under `input_rate`: the active input
/// channels of one filter position.
fn expected_stream_len(spec: &ConvSpec, input_rate: f64) -> f64 {
    spec.input.c as f64 * input_rate.clamp(0.0, 1.0)
}

/// Expected compressed-ifmap spike count under `input_rate` — the
/// discretized quantity the tiling planner sizes buffers and DMA traffic
/// from. The padded border is silent, so the expectation covers the
/// interior.
fn expected_ifmap_spikes(spec: &ConvSpec, input_rate: f64) -> usize {
    let padded = spec.padded_input();
    let interior = if padded.h > 2 * spec.padding {
        (padded.h - 2 * spec.padding) * (padded.w - 2 * spec.padding) * padded.c
    } else {
        padded.len()
    };
    (interior as f64 * input_rate.clamp(0.0, 1.0)).round() as usize
}

impl LayerExecutor {
    /// Lower one convolutional layer invocation into `sink` as its exact
    /// stream program, advancing the output neurons along the way, and
    /// return the spikes they fire, after the optional 2x2 max-pool.
    ///
    /// `weights` are the layer's weights rounded to the executor's format
    /// ([`Network::quantized_weights`](spikestream_snn::Network::quantized_weights)
    /// or [`Layer::quantize_weights`]), `input` the compressed, padded ifmap
    /// of the layer, whose per-position channel lists the program's gathers
    /// borrow, and `state` the neuron state of its output neurons, which
    /// the call advances by one step. Each work item is written into
    /// `buffer` before it goes to the sink.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is not convolutional, if `weights` or the input
    /// shape do not match the layer, or if the neuron state has the wrong
    /// size.
    #[allow(clippy::too_many_arguments)]
    pub fn lower_conv<'a>(
        &self,
        config: &ClusterConfig,
        layer: &Layer,
        weights: &[f32],
        input: &'a CompressedIfmap,
        state: &mut NeuronState,
        buffer: &mut OpBuffer,
        sink: &mut dyn ProgramSink<'a>,
    ) -> SpikeMap {
        let LayerKind::Conv(spec) = &layer.kind else {
            panic!("lower_conv requires a convolutional layer");
        };
        assert_eq!(
            weights.len(),
            layer.kind.weight_count(),
            "one quantized weight per layer weight"
        );
        assert_eq!(input.shape(), spec.padded_input(), "input must be padded");
        let out_shape = spec.conv_output();
        assert_eq!(state.len(), out_shape.len(), "neuron state size mismatch");

        let lanes = self.format.simd_lanes() as usize;
        let groups = spec.out_channels.div_ceil(lanes);

        let plan = TilingPlanner::new(config).plan_conv(
            spec,
            self.format,
            input,
            layer.neuron.state_vars(),
        );
        let addrs = ConvAddresses {
            idcs_base: plan.ifmap_idcs.base,
            weights_base: plan.weights.base,
            group_words: spec.input.c as u32,
            word_bytes: lanes as u32 * self.format.bytes(),
            spm_bytes: config.spm_bytes.max(1),
        };

        for dma in plan.dma_in_phases() {
            sink.dma(dma);
        }
        sink.compute(code_regions(self.variant));

        let mut output = SpikeMap::silent(spec.output());
        let mut ops = buffer.lend();
        let mut rf_active = buffer.lend_active();

        for oh in 0..out_shape.h {
            for ow in 0..out_shape.w {
                emit::claim(&mut ops);

                // Active input channels at every filter position of this RF:
                // every SIMD group gathers through the same borrowed list.
                rf_active.clear();
                rf_active.extend((0..spec.kh * spec.kw).map(|k| {
                    let (kh, kw) = (k / spec.kw, k % spec.kw);
                    input.active_at(oh * spec.stride + kh, ow * spec.stride + kw)
                }));

                for g in 0..groups {
                    self.lower_conv_group(
                        &mut ops,
                        layer,
                        spec,
                        input,
                        weights,
                        &rf_active,
                        (oh, ow, g),
                        lanes,
                        groups,
                        &addrs,
                        &mut output,
                        state,
                    );
                }
                sink.item(&ops);
            }
        }
        buffer.restore(ops);
        buffer.restore_active(rf_active);
        sink.end_compute();
        for dma in plan.dma_out_phases() {
            sink.dma(dma);
        }
        output
    }

    /// Lower one conv layer symbolically from expected firing rates: the
    /// same emitter structure with a single representative receptive field
    /// replicated over all output positions, expected-length streams and
    /// expected firing counts. The analytic backend integrates the result.
    /// `model` selects the activation head and the width of the
    /// neuron-state tile, exactly as `layer.neuron` does in the exact path.
    pub(crate) fn lower_conv_symbolic(
        &self,
        config: &ClusterConfig,
        label: &str,
        spec: &ConvSpec,
        model: &NeuronModel,
        input_rate: f64,
        output_rate: f64,
    ) -> StreamProgram<'static> {
        let lanes = self.format.simd_lanes() as usize;
        let groups = spec.out_channels.div_ceil(lanes);
        let out = spec.conv_output();
        let kk = spec.kh * spec.kw;
        let output_rate = output_rate.clamp(0.0, 1.0);
        let s_len = expected_stream_len(spec, input_rate);
        let expected_spikes = expected_ifmap_spikes(spec, input_rate);

        let plan = TilingPlanner::new(config).plan_conv_spikes(
            spec,
            self.format,
            expected_spikes,
            model.state_vars(),
        );
        let addrs = ConvAddresses {
            idcs_base: plan.ifmap_idcs.base,
            weights_base: plan.weights.base,
            group_words: spec.input.c as u32,
            word_bytes: lanes as u32 * self.format.bytes(),
            spm_bytes: config.spm_bytes.max(1),
        };

        let mut program = StreamProgram::new(label, self.format);
        for dma in plan.dma_in_phases() {
            program.push(Phase::Dma(dma));
        }

        // One representative filter position...
        let mut position = Vec::new();
        emit::position_control(&mut position);
        if s_len > 0.0 {
            position.push(match self.variant {
                KernelVariant::Baseline => emit::baseline_spva(s_len),
                KernelVariant::SpikeStream => emit::streamed_spva(
                    addrs.idcs_base,
                    addrs.weight_group_base(spec, groups, 0, 0, 0),
                    addrs.word_bytes,
                    IndexStream::Expected(s_len),
                ),
            });
        }

        // ... inside one representative SIMD group ...
        let mut group = Vec::new();
        emit::model_group_prologue(&mut group, model);
        group.push(KernelOp::Loop { body: position.into(), reps: kk as f64 });
        emit::model_activation_head(&mut group, model);
        emit::activation_tail_symbolic(&mut group, lanes as f64, lanes as f64 * output_rate);
        emit::model_state_writeback(&mut group, model);

        // ... inside one representative receptive field, replicated over
        // every output position.
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

    /// Emit one SIMD output-channel group of one receptive field, stepping
    /// its neurons and recording the ones that fire in `output`.
    #[allow(clippy::too_many_arguments)]
    fn lower_conv_group<'a>(
        &self,
        ops: &mut Vec<KernelOp<'a>>,
        layer: &Layer,
        spec: &ConvSpec,
        input: &CompressedIfmap,
        weights: &[f32],
        rf_active: &[&'a [u16]],
        rf: (usize, usize, usize),
        lanes: usize,
        groups: usize,
        addrs: &ConvAddresses,
        output: &mut SpikeMap,
        state: &mut NeuronState,
    ) {
        let (oh, ow, g) = rf;
        let out_shape = spec.conv_output();
        let lane_base = g * lanes;
        let lane_n = lanes.min(spec.out_channels - lane_base);
        let mut acc = [0.0f32; MAX_SIMD_LANES];
        emit::model_group_prologue(ops, &layer.neuron);

        for (k, &active) in rf_active.iter().enumerate() {
            let (kh, kw) = (k / spec.kw, k % spec.kw);
            let s_len = active.len();

            let coo = (oh * spec.stride + kh) * input.shape().w + (ow * spec.stride + kw);
            emit::position_control(ops);

            // Functional accumulation: every active input channel adds its
            // SIMD group of (channel-contiguous, pre-quantized) weights to
            // the group's lane accumulators — same per-lane addition order
            // as the former scalar current updates.
            for &ci in active {
                let row = spec.weight_index(kh, kw, ci as usize, lane_base);
                for (a, &w) in acc[..lane_n].iter_mut().zip(&weights[row..row + lane_n]) {
                    *a += w;
                }
            }

            // Timing of the SpVA itself.
            if s_len == 0 {
                continue;
            }
            ops.push(match self.variant {
                KernelVariant::Baseline => emit::baseline_spva(s_len as f64),
                KernelVariant::SpikeStream => emit::streamed_spva(
                    addrs.idcs_base + input.s_ptr()[coo] * INDEX_BYTES as u32,
                    addrs.weight_group_base(spec, groups, kh, kw, g),
                    addrs.word_bytes,
                    IndexStream::Exact(active),
                ),
            });
        }

        // Fused activation of the group (Section III-B/III-C): the model's
        // state update runs on the FPU straight from the lane accumulators,
        // then threshold and unpack the SIMD lanes with bit masking and
        // branches; spiking lanes atomically update the compressed ofmap
        // buffers.
        emit::model_activation_head(ops, &layer.neuron);
        for (lane, &current) in acc[..lane_n].iter().enumerate() {
            let co = lane_base + lane;
            emit::lane_unpack(ops);
            let neuron = out_shape.index(oh, ow, co);
            if state.step_single(&layer.neuron, neuron, self.format.quantize(current)) {
                set_fired(spec, output, oh, ow, co);
                emit::fired_update(ops);
            }
        }
        emit::model_state_writeback(ops, &layer.neuron);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interpret;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snitch_arch::fp::FpFormat;
    use snitch_arch::CostModel;
    use spikestream_ir::CostIntegrator;
    use spikestream_snn::neuron::LifParams;
    use spikestream_snn::reference::max_pool_2x2;
    use spikestream_snn::tensor::TensorShape;
    use spikestream_snn::{Layer, ReferenceEngine};

    fn test_layer(in_c: usize, out_c: usize, hw: usize, pool: bool) -> (Layer, ConvSpec) {
        let spec = ConvSpec {
            input: TensorShape::new(hw, hw, in_c),
            out_channels: out_c,
            kh: 3,
            kw: 3,
            stride: 1,
            padding: 1,
            pool,
        };
        let mut layer = Layer::new("test", LayerKind::Conv(spec), LifParams::new(0.5, 0.2));
        let mut rng = StdRng::seed_from_u64(11);
        layer.randomize_weights(&mut rng, 0.1);
        (layer, spec)
    }

    fn random_input(spec: &ConvSpec, rate: f64, seed: u64) -> CompressedIfmap {
        let mut rng = StdRng::seed_from_u64(seed);
        let shape = spec.padded_input();
        let mut map = SpikeMap::silent(shape);
        for h in 1..shape.h - 1 {
            for w in 1..shape.w - 1 {
                for c in 0..shape.c {
                    if rand::Rng::gen_bool(&mut rng, rate) {
                        map.set(h, w, c, true);
                    }
                }
            }
        }
        CompressedIfmap::from_spike_map(&map)
    }

    /// Lower `layer` on the default cluster from a resting LIF state;
    /// returns the program, the output spikes and the advanced state.
    fn lower<'a>(
        variant: KernelVariant,
        format: FpFormat,
        layer: &Layer,
        input: &'a CompressedIfmap,
    ) -> (StreamProgram<'a>, SpikeMap, NeuronState) {
        let LayerKind::Conv(spec) = &layer.kind else { unreachable!() };
        let mut state = NeuronState::lif(spec.conv_output().len());
        let mut program = StreamProgram::new(&layer.name, format);
        let output = LayerExecutor::new(variant, format).lower_conv(
            &ClusterConfig::default(),
            layer,
            &layer.quantize_weights(format),
            input,
            &mut state,
            &mut OpBuffer::new(),
            &mut program,
        );
        (program, output, state)
    }

    #[test]
    fn fp32_kernel_matches_reference_currents_and_spikes() {
        let (layer, spec) = test_layer(8, 8, 6, false);
        let input = random_input(&spec, 0.3, 3);
        for variant in [KernelVariant::Baseline, KernelVariant::SpikeStream] {
            let (_, spikes, state) = lower(variant, FpFormat::Fp32, &layer, &input);

            let eng = ReferenceEngine::new();
            let mut ref_state = NeuronState::lif(spec.conv_output().len());
            let ref_currents = eng.conv_currents(&layer, &spec, &input.decompress());
            let ref_spikes = eng.activate_conv(&layer, &spec, &ref_currents, &mut ref_state);

            // One step from rest leaves each membrane at its input current,
            // less the reset where the neuron fired.
            for (a, b) in state.membrane().iter().zip(ref_state.membrane()) {
                assert!((a - b).abs() < 1e-4, "{variant} membrane mismatch: {a} vs {b}");
            }
            assert!(ref_spikes.count_spikes() > 0, "the layer fires");
            assert_eq!(spikes, ref_spikes, "{variant} spike mismatch");
        }
    }

    #[test]
    fn both_variants_are_functionally_identical() {
        let (layer, spec) = test_layer(16, 8, 6, true);
        let input = random_input(&spec, 0.25, 5);
        let (_, base, s1) = lower(KernelVariant::Baseline, FpFormat::Fp16, &layer, &input);
        let (_, fast, s2) = lower(KernelVariant::SpikeStream, FpFormat::Fp16, &layer, &input);
        assert_eq!(base, fast);
        assert_eq!(s1.membrane(), s2.membrane());
    }

    #[test]
    fn spikestream_is_faster_and_better_utilized_than_baseline() {
        let (layer, spec) = test_layer(64, 32, 8, false);
        let input = random_input(&spec, 0.3, 7);
        let base = interpret(&lower(KernelVariant::Baseline, FpFormat::Fp16, &layer, &input).0);
        let fast = interpret(&lower(KernelVariant::SpikeStream, FpFormat::Fp16, &layer, &input).0);
        let speedup = base.cycles as f64 / fast.cycles as f64;
        assert!(speedup > 2.5, "expected a clear streaming speedup, got {speedup:.2}x");
        assert!(
            fast.fpu_utilization > 2.0 * base.fpu_utilization,
            "utilization should rise markedly: {:.3} -> {:.3}",
            base.fpu_utilization,
            fast.fpu_utilization
        );
        assert!(base.fpu_utilization < 0.2, "baseline stays integer-bound");
    }

    #[test]
    fn fp8_is_faster_than_fp16_for_spikestream() {
        let (layer, spec) = test_layer(32, 32, 8, false);
        let input = random_input(&spec, 0.3, 9);
        let t16 = interpret(&lower(KernelVariant::SpikeStream, FpFormat::Fp16, &layer, &input).0)
            .cycles as f64;
        let t8 = interpret(&lower(KernelVariant::SpikeStream, FpFormat::Fp8, &layer, &input).0)
            .cycles as f64;
        let speedup = t16 / t8;
        assert!(
            speedup > 1.3 && speedup < 2.2,
            "FP8 halves the SIMD groups but pays extra unpacking, got {speedup:.2}x"
        );
    }

    #[test]
    fn empty_input_produces_no_spikes_but_still_runs() {
        let (layer, spec) = test_layer(8, 8, 4, false);
        let input = CompressedIfmap::from_spike_map(&SpikeMap::silent(spec.padded_input()));
        let (program, output, state) =
            lower(KernelVariant::SpikeStream, FpFormat::Fp16, &layer, &input);
        assert_eq!(output.count_spikes(), 0);
        assert!(state.membrane().iter().all(|&v| v == 0.0), "no current charged a membrane");
        let stats = interpret(&program);
        assert!(stats.cycles > 0, "control overhead and DMA still cost cycles");
    }

    #[test]
    fn pooling_shrinks_the_compressed_output() {
        let (layer, spec) = test_layer(8, 8, 6, true);
        let input = random_input(&spec, 0.4, 13);
        let (_, output, state) = lower(KernelVariant::Baseline, FpFormat::Fp16, &layer, &input);
        assert_eq!(output.shape(), TensorShape::new(3, 3, 8));

        // The same layer without the pool fires the unpooled spikes from
        // the same membranes; pooling them gives the output.
        let mut unpooled = layer.clone();
        unpooled.kind = LayerKind::Conv(ConvSpec { pool: false, ..spec });
        let (_, spikes, unpooled_state) =
            lower(KernelVariant::Baseline, FpFormat::Fp16, &unpooled, &input);
        assert_eq!(state, unpooled_state);
        assert!(output.count_spikes() > 0);
        assert_eq!(output, max_pool_2x2(&spikes), "the output is the pooled spikes");
    }

    #[test]
    #[should_panic(expected = "must be padded")]
    fn unpadded_input_is_rejected() {
        let (layer, spec) = test_layer(4, 4, 4, false);
        let wrong = CompressedIfmap::from_spike_map(&SpikeMap::silent(spec.input));
        lower(KernelVariant::Baseline, FpFormat::Fp16, &layer, &wrong);
    }

    #[test]
    fn symbolic_lowering_tracks_the_exact_program() {
        // The symbolic program's integrated cost must sit close to the
        // interpreted exact program when the expected rate matches the
        // realized input.
        let (layer, spec) = test_layer(32, 32, 8, false);
        let input = random_input(&spec, 0.3, 21);
        let realized_rate = {
            let interior = (spec.input.h * spec.input.w * spec.input.c) as f64;
            input.spike_count() as f64 / interior
        };
        let config = ClusterConfig::default();
        for variant in [KernelVariant::Baseline, KernelVariant::SpikeStream] {
            let (program, spikes, _) = lower(variant, FpFormat::Fp16, &layer, &input);
            let stats = interpret(&program);

            let out_rate = spikes.count_spikes() as f64 / spec.conv_output().len() as f64;
            let symbolic = LayerExecutor::new(variant, FpFormat::Fp16).lower_conv_symbolic(
                &config,
                "sym",
                &spec,
                &layer.neuron,
                realized_rate,
                out_rate,
            );
            let cost =
                CostIntegrator::new(config.clone(), CostModel::default()).integrate(&symbolic);

            let rel = (stats.compute_cycles as f64 - cost.compute_cycles as f64).abs()
                / stats.compute_cycles as f64;
            assert!(
                rel < 0.25,
                "{variant}: symbolic {} vs exact {} ({:.1}% off)",
                cost.compute_cycles,
                stats.compute_cycles,
                100.0 * rel
            );
        }
    }
}
