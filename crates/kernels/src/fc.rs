//! Compressed spiking fully connected kernels (baseline and SpikeStream).
//!
//! Fully connected layers use the simplified compression of Section III-A:
//! a single index array of active inputs plus a spike count. Output neurons
//! are parallelized over cores in SIMD groups; each group performs one
//! Sparse Vector Accumulation whose length equals the number of active
//! inputs, either as the scalar indirection loop (baseline) or as an
//! indirect stream under FREP (SpikeStream). The kernel lowers each
//! invocation to a [`StreamProgram`] with one work item per SIMD group.

use snitch_arch::fp::FpFormat;
use snitch_arch::ClusterConfig;
use snitch_sim::{execute_program, ClusterModel};
use spikestream_ir::{CodeRegion, ComputePhase, IndexStream, Phase, StreamProgram, WorkItem};
use spikestream_snn::{
    CompressedFcInput, Layer, LayerKind, LinearSpec, NeuronModel, NeuronState, SpikeMap,
    TensorShape,
};

use crate::emit;
use crate::tiling::TilingPlanner;
use crate::KernelVariant;

const CODE_REGION_FC_BASELINE: CodeRegion = CodeRegion { id: 0x20, bytes: 896 };
const CODE_REGION_FC_SPIKESTREAM: CodeRegion = CodeRegion { id: 0x21, bytes: 1152 };

/// Result of one fully connected layer invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct FcKernelOutput {
    /// Input currents of every output neuron (quantized to the format).
    pub currents: Vec<f32>,
    /// Output spikes, packed as a `(1, 1, out_features)` map.
    pub spikes: SpikeMap,
    /// Compressed form of the output spikes.
    pub compressed: CompressedFcInput,
}

/// A spiking fully connected kernel bound to a variant and format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FcKernel {
    variant: KernelVariant,
    format: FpFormat,
}

impl FcKernel {
    /// Create a kernel for the given variant and floating-point format.
    pub fn new(variant: KernelVariant, format: FpFormat) -> Self {
        FcKernel { variant, format }
    }

    /// The code variant this kernel emits.
    pub fn variant(&self) -> KernelVariant {
        self.variant
    }

    /// The storage format of weights and activations.
    pub fn format(&self) -> FpFormat {
        self.format
    }

    fn code_regions(&self) -> Vec<CodeRegion> {
        let region = match self.variant {
            KernelVariant::Baseline => CODE_REGION_FC_BASELINE,
            KernelVariant::SpikeStream => CODE_REGION_FC_SPIKESTREAM,
        };
        vec![region]
    }

    /// Run one fully connected layer on the cluster (lower + interpret).
    ///
    /// # Panics
    ///
    /// Panics if `layer` is not fully connected, if the compressed input
    /// size does not match the layer, or if the neuron state has the wrong
    /// size.
    pub fn run(
        &self,
        cluster: &mut ClusterModel,
        layer: &Layer,
        input: &CompressedFcInput,
        state: &mut NeuronState,
    ) -> FcKernelOutput {
        let (program, output) = self.lower(cluster.config(), layer, input, state);
        execute_program(cluster, &program);
        output
    }

    /// Lower one invocation into its exact stream program, computing the
    /// functional results along the way.
    ///
    /// # Panics
    ///
    /// Same contract as [`FcKernel::run`].
    pub fn lower(
        &self,
        config: &ClusterConfig,
        layer: &Layer,
        input: &CompressedFcInput,
        state: &mut NeuronState,
    ) -> (StreamProgram, FcKernelOutput) {
        let LayerKind::Linear(spec) = &layer.kind else {
            panic!("FcKernel requires a fully connected layer");
        };
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

        let mut program = StreamProgram::new(&layer.name, self.format);
        for dma in plan.dma_in_phases() {
            program.push(Phase::Dma(dma));
        }

        let mut currents = vec![0.0f32; spec.out_features];
        let mut spikes = SpikeMap::silent(TensorShape::new(1, 1, spec.out_features));
        let mut items = Vec::with_capacity(groups);
        // Every SIMD group gathers through the same active-input list; the
        // program holds it once, shared across groups.
        let idcs = IndexStream::exact(input.idcs().iter().map(|&i| i as u32));

        // Functional accumulation: every active input feature adds its
        // (output-contiguous) weight row, quantized on the fly — the same
        // per-output addition order as the former per-group scalar loop.
        for &i in input.idcs() {
            let row = spec.weight_index(i as usize, 0);
            let row = &layer.weights[row..row + spec.out_features];
            for (c, &w) in currents.iter_mut().zip(row) {
                *c += self.format.quantize(w);
            }
        }

        for g in 0..groups {
            let mut ops = emit::claim();
            emit::model_group_prologue(&mut ops, &layer.neuron);
            if s_len > 0 {
                ops.push(match self.variant {
                    KernelVariant::Baseline => emit::baseline_spva(s_len as f64),
                    KernelVariant::SpikeStream => emit::streamed_spva(
                        idcs_base,
                        weights_base
                            .wrapping_add(((g * lanes) as u32 * self.format.bytes()) % spm_bytes),
                        lanes as u32 * self.format.bytes(),
                        idcs.clone(),
                    ),
                });
            }

            // Fused activation and compressed output update.
            emit::model_activation_head(&mut ops, &layer.neuron);
            for lane in 0..lanes {
                let o = g * lanes + lane;
                if o >= spec.out_features {
                    break;
                }
                emit::lane_unpack(&mut ops);
                let current = self.format.quantize(currents[o]);
                if state.step_single(&layer.neuron, o, current) {
                    spikes.set(0, 0, o, true);
                    emit::fired_update(&mut ops);
                }
            }
            emit::model_state_writeback(&mut ops, &layer.neuron);
            items.push(WorkItem::new(ops));
        }
        program.push(Phase::Compute(ComputePhase { code: self.code_regions(), items }));
        for dma in plan.dma_out_phases() {
            program.push(Phase::Dma(dma));
        }

        let compressed = CompressedFcInput::from_spike_map(&spikes);
        (program, FcKernelOutput { currents, spikes, compressed })
    }

    /// Expected stream length of the gather under `input_rate`: the active
    /// input features.
    fn expected_stream_len(spec: &LinearSpec, input_rate: f64) -> f64 {
        spec.in_features as f64 * input_rate.clamp(0.0, 1.0)
    }

    /// Expected active-input count the tiling planner sizes the index
    /// buffer and DMA traffic from.
    fn planned_active_inputs(spec: &LinearSpec, input_rate: f64) -> usize {
        (Self::expected_stream_len(spec, input_rate).round() as usize).max(1)
    }

    /// Symbolic lowering from expected firing rates: one representative
    /// group replicated over all SIMD groups with an expected-length
    /// stream. `model` selects the activation head and state-tile width.
    pub fn lower_symbolic(
        &self,
        config: &ClusterConfig,
        label: &str,
        spec: &LinearSpec,
        model: &NeuronModel,
        input_rate: f64,
        output_rate: f64,
    ) -> StreamProgram {
        let lanes = self.format.simd_lanes() as usize;
        let groups = spec.out_features.div_ceil(lanes);
        let output_rate = output_rate.clamp(0.0, 1.0);
        let s_len = Self::expected_stream_len(spec, input_rate);

        let plan = TilingPlanner::new(config).plan_linear(
            spec,
            self.format,
            Self::planned_active_inputs(spec, input_rate),
            model.state_vars(),
        );
        let weights_base = plan.weights.base;
        let idcs_base = plan.ifmap_idcs.base;

        let mut program = StreamProgram::new(label, self.format);
        for dma in plan.dma_in_phases() {
            program.push(Phase::Dma(dma));
        }

        let mut ops = emit::claim();
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
            code: self.code_regions(),
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
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use snitch_arch::{ClusterConfig, CostModel};
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

    fn cluster() -> ClusterModel {
        ClusterModel::new(ClusterConfig::default(), CostModel::default())
    }

    #[test]
    fn fp32_fc_matches_reference() {
        let (layer, spec) = test_layer(256, 32);
        let input = sparse_input(256, 0.1, 1);
        let mut cl = cluster();
        let mut state = NeuronState::lif(spec.out_features);
        let out = FcKernel::new(KernelVariant::SpikeStream, FpFormat::Fp32)
            .run(&mut cl, &layer, &input, &mut state);

        let eng = ReferenceEngine::new();
        let ref_input =
            SpikeMap::from_vec(TensorShape::new(1, 1, spec.in_features), input.decompress());
        let ref_currents = eng.linear_currents(&layer, &spec, &ref_input);
        for (a, b) in out.currents.iter().zip(ref_currents.iter()) {
            assert!((a - b).abs() < 1e-4);
        }
        let mut ref_state = NeuronState::lif(spec.out_features);
        let ref_spikes = ref_state.step(&layer.neuron, &ref_currents);
        assert_eq!(out.spikes.to_bools(), ref_spikes);
    }

    #[test]
    fn variants_agree_functionally() {
        let (layer, spec) = test_layer(512, 64);
        let input = sparse_input(512, 0.05, 3);
        let mut c1 = cluster();
        let mut c2 = cluster();
        let mut s1 = NeuronState::lif(spec.out_features);
        let mut s2 = NeuronState::lif(spec.out_features);
        let a = FcKernel::new(KernelVariant::Baseline, FpFormat::Fp16)
            .run(&mut c1, &layer, &input, &mut s1);
        let b = FcKernel::new(KernelVariant::SpikeStream, FpFormat::Fp16)
            .run(&mut c2, &layer, &input, &mut s2);
        assert_eq!(a.spikes, b.spikes);
        assert_eq!(a.compressed, b.compressed);
    }

    #[test]
    fn extreme_sparsity_limits_the_streaming_gain() {
        // With only a handful of active inputs the streams are so short that
        // setup overhead dominates — the effect the paper reports for the
        // FC layers.
        let (layer, spec) = test_layer(1024, 128);
        let sparse = sparse_input(1024, 0.01, 5);
        let busy = sparse_input(1024, 0.30, 5);

        let speedup_of = |input: &CompressedFcInput| {
            let mut c1 = cluster();
            let mut c2 = cluster();
            let mut s1 = NeuronState::lif(spec.out_features);
            let mut s2 = NeuronState::lif(spec.out_features);
            FcKernel::new(KernelVariant::Baseline, FpFormat::Fp16)
                .run(&mut c1, &layer, input, &mut s1);
            FcKernel::new(KernelVariant::SpikeStream, FpFormat::Fp16)
                .run(&mut c2, &layer, input, &mut s2);
            c1.finish_phase("b").cycles as f64 / c2.finish_phase("s").cycles as f64
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
        let (layer, spec) = test_layer(128, 16);
        let input = CompressedFcInput::from_spikes(&[false; 128]);
        let mut cl = cluster();
        let mut state = NeuronState::lif(spec.out_features);
        let out = FcKernel::new(KernelVariant::SpikeStream, FpFormat::Fp8)
            .run(&mut cl, &layer, &input, &mut state);
        assert_eq!(out.spikes.count_spikes(), 0);
        assert_eq!(out.compressed.spike_count(), 0);
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn wrong_input_width_panics() {
        let (layer, spec) = test_layer(64, 8);
        let input = CompressedFcInput::from_spikes(&[false; 32]);
        let mut cl = cluster();
        let mut state = NeuronState::lif(spec.out_features);
        FcKernel::new(KernelVariant::Baseline, FpFormat::Fp16)
            .run(&mut cl, &layer, &input, &mut state);
    }
}
