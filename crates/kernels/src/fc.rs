//! Compressed spiking fully connected kernels (baseline and SpikeStream).
//!
//! Fully connected layers use the simplified compression of Section III-A:
//! a single index array of active inputs plus a spike count. Output neurons
//! are parallelized over cores in SIMD groups; each group performs one
//! Sparse Vector Accumulation whose length equals the number of active
//! inputs, either as the scalar indirection loop (baseline) or as an
//! indirect stream under FREP (SpikeStream). [`LayerExecutor::lower_fc`]
//! writes each invocation into a [`ProgramSink`] with one work item per
//! SIMD group, whose lane accumulators feed the group's neuron update, and
//! returns the spikes the layer fires.

use snitch_arch::ClusterConfig;
use spikestream_ir::{
    CodeRegion, ComputePhase, IndexStream, Phase, ProgramSink, StreamProgram, WorkItem,
};
use spikestream_snn::{
    CompressedFcInput, Layer, LayerKind, LinearSpec, NeuronModel, NeuronState, SpikeMap,
    TensorShape,
};

use crate::conv::MAX_SIMD_LANES;
use crate::emit;
use crate::tiling::TilingPlanner;
use crate::{KernelVariant, LayerExecutor, OpBuffer};

const CODE_REGION_FC_BASELINE: CodeRegion = CodeRegion { id: 0x20, bytes: 896 };
const CODE_REGION_FC_SPIKESTREAM: CodeRegion = CodeRegion { id: 0x21, bytes: 1152 };

/// The instruction-cache regions the FC programs of `variant` fetch.
fn code_regions(variant: KernelVariant) -> &'static [CodeRegion] {
    match variant {
        KernelVariant::Baseline => &[CODE_REGION_FC_BASELINE],
        KernelVariant::SpikeStream => &[CODE_REGION_FC_SPIKESTREAM],
    }
}

/// Expected stream length of the gather under `input_rate`: the active
/// input features.
fn expected_stream_len(spec: &LinearSpec, input_rate: f64) -> f64 {
    spec.in_features as f64 * input_rate.clamp(0.0, 1.0)
}

/// Expected active-input count the tiling planner sizes the index buffer
/// and DMA traffic from.
fn planned_active_inputs(spec: &LinearSpec, input_rate: f64) -> usize {
    (expected_stream_len(spec, input_rate).round() as usize).max(1)
}

impl LayerExecutor {
    /// Lower one fully connected invocation into `sink` as its exact
    /// stream program, advancing the output neurons along the way, and
    /// return the spikes they fire as a `(1, 1, out_features)` map.
    /// `weights` are the layer's weights rounded to the executor's format
    /// (see [`LayerExecutor::lower_conv`]), the program's gathers borrow
    /// `input`'s active-feature list, and `state` is the neuron state of
    /// the output neurons, which the call advances by one step. Each work
    /// item is written into `buffer` before it goes to the sink.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is not fully connected, if `weights` or the
    /// compressed input size do not match the layer, or if the neuron
    /// state has the wrong size.
    #[allow(clippy::too_many_arguments)]
    pub fn lower_fc<'a>(
        &self,
        config: &ClusterConfig,
        layer: &Layer,
        weights: &[f32],
        input: &'a CompressedFcInput,
        state: &mut NeuronState,
        buffer: &mut OpBuffer,
        sink: &mut dyn ProgramSink<'a>,
    ) -> SpikeMap {
        let LayerKind::Linear(spec) = &layer.kind else {
            panic!("lower_fc requires a fully connected layer");
        };
        assert_eq!(
            weights.len(),
            layer.kind.weight_count(),
            "one quantized weight per layer weight"
        );
        assert_eq!(input.in_features(), spec.in_features, "input width mismatch");
        assert_eq!(state.len(), spec.out_features, "neuron state size mismatch");

        let lanes = self.format.simd_lanes() as usize;
        let groups = spec.out_features.div_ceil(lanes);
        let s_len = input.spike_count();

        let plan = TilingPlanner::new(config).plan_linear(
            spec,
            self.format,
            s_len.max(1),
            layer.neuron.state_vars(),
        );
        let weights_base = plan.weights.base;
        let idcs_base = plan.ifmap_idcs.base;
        let spm_bytes = config.spm_bytes.max(1);

        for dma in plan.dma_in_phases() {
            sink.dma(dma);
        }
        sink.compute(code_regions(self.variant));

        let mut output = SpikeMap::silent(TensorShape::new(1, 1, spec.out_features));
        let mut ops = buffer.lend();

        for g in 0..groups {
            // Functional accumulation: every active input feature adds the
            // group's SIMD word of its (output-contiguous, pre-quantized)
            // weight row to the lane accumulators, in active-list order.
            let lane_base = g * lanes;
            let lane_n = lanes.min(spec.out_features - lane_base);
            let mut acc = [0.0f32; MAX_SIMD_LANES];
            for &i in input.idcs() {
                let row = spec.weight_index(i as usize, lane_base);
                for (a, &w) in acc[..lane_n].iter_mut().zip(&weights[row..row + lane_n]) {
                    *a += w;
                }
            }

            emit::claim(&mut ops);
            emit::model_group_prologue(&mut ops, &layer.neuron);
            if s_len > 0 {
                ops.push(match self.variant {
                    KernelVariant::Baseline => emit::baseline_spva(s_len as f64),
                    // Every SIMD group gathers through the same borrowed
                    // active-input list.
                    KernelVariant::SpikeStream => emit::streamed_spva(
                        idcs_base,
                        weights_base
                            .wrapping_add((lane_base as u32 * self.format.bytes()) % spm_bytes),
                        lanes as u32 * self.format.bytes(),
                        IndexStream::Exact(input.idcs()),
                    ),
                });
            }

            // Fused activation and compressed output update.
            emit::model_activation_head(&mut ops, &layer.neuron);
            for (lane, &current) in acc[..lane_n].iter().enumerate() {
                let o = lane_base + lane;
                emit::lane_unpack(&mut ops);
                if state.step_single(&layer.neuron, o, self.format.quantize(current)) {
                    output.set(0, 0, o, true);
                    emit::fired_update(&mut ops);
                }
            }
            emit::model_state_writeback(&mut ops, &layer.neuron);
            sink.item(&ops);
        }
        buffer.restore(ops);
        sink.end_compute();
        for dma in plan.dma_out_phases() {
            sink.dma(dma);
        }
        output
    }

    /// Symbolic FC lowering from expected firing rates: one representative
    /// group replicated over all SIMD groups with an expected-length
    /// stream. `model` selects the activation head and state-tile width.
    pub(crate) fn lower_fc_symbolic(
        &self,
        config: &ClusterConfig,
        spec: &LinearSpec,
        model: &NeuronModel,
        input_rate: f64,
        output_rate: f64,
    ) -> StreamProgram<'static> {
        let lanes = self.format.simd_lanes() as usize;
        let groups = spec.out_features.div_ceil(lanes);
        let output_rate = output_rate.clamp(0.0, 1.0);
        let s_len = expected_stream_len(spec, input_rate);

        let plan = TilingPlanner::new(config).plan_linear(
            spec,
            self.format,
            planned_active_inputs(spec, input_rate),
            model.state_vars(),
        );
        let weights_base = plan.weights.base;
        let idcs_base = plan.ifmap_idcs.base;

        let mut program = StreamProgram::new(self.format);
        for dma in plan.dma_in_phases() {
            program.push(Phase::Dma(dma));
        }

        let mut ops = Vec::new();
        emit::claim(&mut ops);
        emit::model_group_prologue(&mut ops, model);
        if s_len > 0.0 {
            ops.push(match self.variant {
                KernelVariant::Baseline => emit::baseline_spva(s_len),
                KernelVariant::SpikeStream => emit::streamed_spva(
                    idcs_base,
                    weights_base,
                    lanes as u32 * self.format.bytes(),
                    IndexStream::Expected(s_len),
                ),
            });
        }
        emit::model_activation_head(&mut ops, model);
        emit::activation_tail_symbolic(&mut ops, lanes as f64, lanes as f64 * output_rate);
        emit::model_state_writeback(&mut ops, model);

        program.push(Phase::Compute(ComputePhase {
            code: code_regions(self.variant),
            items: vec![WorkItem::replicated(groups as f64, ops)],
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
    use spikestream_snn::neuron::LifParams;
    use spikestream_snn::{LinearSpec, ReferenceEngine};

    fn test_layer(in_f: usize, out_f: usize) -> (Layer, LinearSpec) {
        let spec = LinearSpec { in_features: in_f, out_features: out_f };
        let mut layer = Layer::new("fc", LayerKind::Linear(spec), LifParams::new(0.5, 0.15));
        let mut rng = StdRng::seed_from_u64(21);
        layer.randomize_weights(&mut rng, 0.1);
        (layer, spec)
    }

    fn sparse_input(in_f: usize, rate: f64, seed: u64) -> CompressedFcInput {
        let mut rng = StdRng::seed_from_u64(seed);
        let spikes: Vec<bool> = (0..in_f).map(|_| rng.gen_bool(rate)).collect();
        CompressedFcInput::from_spikes(&spikes)
    }

    /// Lower `layer` on the default cluster from a resting LIF state;
    /// returns the program, the output spikes and the advanced state.
    fn lower<'a>(
        variant: KernelVariant,
        format: FpFormat,
        layer: &Layer,
        input: &'a CompressedFcInput,
    ) -> (StreamProgram<'a>, SpikeMap, NeuronState) {
        let LayerKind::Linear(spec) = &layer.kind else { unreachable!() };
        let mut state = NeuronState::lif(spec.out_features);
        let mut program = StreamProgram::new(format);
        let output = LayerExecutor::new(variant, format).lower_fc(
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
    fn fp32_fc_matches_reference() {
        let (layer, spec) = test_layer(256, 32);
        let input = sparse_input(256, 0.1, 1);
        let (_, spikes, state) = lower(KernelVariant::SpikeStream, FpFormat::Fp32, &layer, &input);

        let ref_input =
            SpikeMap::from_vec(TensorShape::new(1, 1, spec.in_features), input.decompress());
        let mut ref_state = NeuronState::lif(spec.out_features);
        let ref_spikes = ReferenceEngine::new().linear_forward(&layer, &ref_input, &mut ref_state);
        // One step from rest leaves each membrane at its input current, less
        // the reset where the neuron fired.
        for (a, b) in state.membrane().iter().zip(ref_state.membrane()) {
            assert!((a - b).abs() < 1e-4);
        }
        assert!(ref_spikes.count_spikes() > 0, "the layer fires");
        assert_eq!(spikes, ref_spikes);
    }

    #[test]
    fn variants_agree_functionally() {
        let (layer, _) = test_layer(512, 64);
        let input = sparse_input(512, 0.05, 3);
        let (_, a, sa) = lower(KernelVariant::Baseline, FpFormat::Fp16, &layer, &input);
        let (_, b, sb) = lower(KernelVariant::SpikeStream, FpFormat::Fp16, &layer, &input);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
    }

    #[test]
    fn extreme_sparsity_limits_the_streaming_gain() {
        // With only a handful of active inputs the streams are so short that
        // setup overhead dominates — the effect the paper reports for the
        // FC layers.
        let (layer, _) = test_layer(1024, 128);
        let sparse = sparse_input(1024, 0.01, 5);
        let busy = sparse_input(1024, 0.30, 5);

        let speedup_of = |input: &CompressedFcInput| {
            let base = interpret(&lower(KernelVariant::Baseline, FpFormat::Fp16, &layer, input).0);
            let fast =
                interpret(&lower(KernelVariant::SpikeStream, FpFormat::Fp16, &layer, input).0);
            base.cycles as f64 / fast.cycles as f64
        };
        let sparse_speedup = speedup_of(&sparse);
        let busy_speedup = speedup_of(&busy);
        assert!(
            busy_speedup > sparse_speedup,
            "longer streams benefit more: {busy_speedup:.2} vs {sparse_speedup:.2}"
        );
    }

    #[test]
    fn empty_input_is_handled() {
        let (layer, _) = test_layer(128, 16);
        let input = CompressedFcInput::from_spikes(&[false; 128]);
        let (program, output, _) = lower(KernelVariant::SpikeStream, FpFormat::Fp8, &layer, &input);
        assert_eq!(output.count_spikes(), 0);
        assert!(interpret(&program).cycles > 0);
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn wrong_input_width_panics() {
        let (layer, _) = test_layer(64, 8);
        let input = CompressedFcInput::from_spikes(&[false; 32]);
        lower(KernelVariant::Baseline, FpFormat::Fp16, &layer, &input);
    }
}
