//! Cross-backend differential harness for the neuron models.
//!
//! Randomized `(model × encoding × format × variant × T)` configurations
//! pin three claims for LIF *and* Izhikevich end to end:
//!
//! 1. **Bit-identity** — the kernel executor's temporal chain reproduces a
//!    scalar `f32` reference chain exactly at FP32: output spikes *and* the
//!    full membrane (`v`) / recovery (`u`) trajectories, every timestep.
//! 2. **Backend equality** — integrating a layer's exact stream program
//!    (the analytic backend's consumer) matches interpreting it on the
//!    cycle-level cluster: instruction / FLOP / stream-element / DMA-byte
//!    totals and compute cycles exactly — and the two-variable
//!    Izhikevich update is priced honestly (doubled membrane DMA, larger
//!    activation FLOP counts), never inherited from the LIF template.
//! 3. **Schedule invariance** — serving reports are bit-identical across
//!    worker fan-out and shard counts 1/2/4 for both models, both
//!    encodings, T ∈ {1, 4}, both timing models.

mod common;

use common::{choice, AnyModel};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snitch_arch::{ClusterConfig, CostModel};
use snitch_sim::{execute_program, ClusterModel, PhaseStats};
use spikestream::{
    Engine, FiringProfile, FpFormat, InferenceConfig, KernelVariant, LayerSample, Request,
    TemporalEncoding, TimingModel,
};
use spikestream_ir::{CostIntegrator, ProgramCost, StreamProgram};
use spikestream_kernels::{LayerExecutor, LayerInput, LayerScratch, OpBuffer};
use spikestream_snn::encoding::{pad_image, pad_spikes, synthetic_image, TemporalEncoder};
use spikestream_snn::neuron::LifParams;
use spikestream_snn::tensor::{SpikeMap, TensorShape};
use spikestream_snn::{
    CompressedFcInput, CompressedIfmap, ConvSpec, IzhiParams, Layer, LayerKind, LinearSpec,
    NeuronModel, NeuronState, ReferenceEngine, Tensor3,
};

/// One representative of each model family for the deterministic
/// cross-product tests.
fn both_models() -> [NeuronModel; 2] {
    [
        NeuronModel::Lif(LifParams::new(0.5, 0.3)),
        NeuronModel::Izhikevich(IzhiParams::regular_spiking()),
    ]
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

/// Interpret and integrate one exact program; return both measurements.
fn both_consumers(program: &StreamProgram) -> (PhaseStats, ProgramCost) {
    let mut cluster = ClusterModel::new(ClusterConfig::default(), CostModel::default());
    execute_program(&mut cluster, program);
    let stats = cluster.finish_phase();
    let cost = CostIntegrator::snitch().integrate(program);
    (stats, cost)
}

fn assert_backends_equal(label: &str, stats: &PhaseStats, cost: &ProgramCost) {
    assert_eq!(stats.totals.int_instrs as f64, cost.int_instrs, "{label}: int instrs");
    assert_eq!(stats.totals.fp_instrs as f64, cost.fp_instrs, "{label}: fp instrs");
    assert_eq!(stats.totals.flops as f64, cost.flops, "{label}: flops");
    assert_eq!(
        stats.totals.stream_elements as f64, cost.stream_elements,
        "{label}: stream elements"
    );
    assert_eq!(stats.dma_bytes_in, cost.dma_bytes_in, "{label}: dma bytes in");
    assert_eq!(stats.dma_bytes_out, cost.dma_bytes_out, "{label}: dma bytes out");
    assert_eq!(stats.compute_cycles, cost.compute_cycles, "{label}: compute cycles");
}

/// The conv layer the program-level properties lower, under `model`.
fn conv_layer(model: NeuronModel, seed: u64) -> (ConvSpec, Layer) {
    let spec = ConvSpec {
        input: TensorShape::new(6, 6, 8),
        out_channels: 8,
        kh: 3,
        kw: 3,
        stride: 1,
        padding: 1,
        pool: false,
    };
    let mut layer = Layer::new("conv", LayerKind::Conv(spec), model);
    layer.randomize_weights(&mut StdRng::seed_from_u64(seed), 0.1);
    (spec, layer)
}

fn fc_layer(model: NeuronModel, seed: u64) -> (LinearSpec, Layer) {
    let spec = LinearSpec { in_features: 64, out_features: 16 };
    let mut layer = Layer::new("fc", LayerKind::Linear(spec), model);
    layer.randomize_weights(&mut StdRng::seed_from_u64(seed ^ 0xFC), 0.1);
    (spec, layer)
}

proptest! {
    /// Claim 1: for random models, encodings, variants and horizons, the
    /// executor's temporal chain is bit-for-bit the scalar reference —
    /// spikes, membranes and (for Izhikevich) recovery variables alike.
    #[test]
    fn kernel_chain_is_bit_identical_to_the_scalar_reference(
        model in AnyModel,
        encoding in choice(&[TemporalEncoding::Direct, TemporalEncoding::Rate]),
        timesteps in choice(&[1usize, 4]),
        variant in choice(&[KernelVariant::Baseline, KernelVariant::SpikeStream]),
        seed in 0u64..1_000,
    ) {
        let net = common::tiny_network(seed, model);
        let layers = net.layers();
        let (spec1, spec2, spec3) = match (&layers[0].kind, &layers[1].kind, &layers[2].kind) {
            (LayerKind::Conv(a), LayerKind::Conv(b), LayerKind::Linear(c)) => (*a, *b, *c),
            _ => panic!("unexpected layer kinds"),
        };
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD1FF);
        let image = pad_image(&synthetic_image(spec1.input, &mut rng), spec1.padding);
        let encoder = TemporalEncoder::new(&image, encoding, 0);

        // Scalar reference chain: plain `f32` loops over persistent states.
        let reference = ReferenceEngine::new();
        let mut ref_state1 = NeuronState::new(&model, spec1.conv_output().len());
        let mut ref_state2 = NeuronState::new(&model, spec2.conv_output().len());
        let mut ref_state3 = NeuronState::new(&model, spec3.out_features);

        // Kernel chain at FP32, where quantization is the identity — every
        // comparison below is exact equality, not tolerance.
        let executor = LayerExecutor::new(variant, FpFormat::Fp32);
        let config = ClusterConfig::default();
        let mut scratch = LayerScratch::new();
        scratch.begin_sample(&net);
        let mut encoded = Tensor3::zeros(image.shape());

        for step in 0..timesteps {
            encoder.encode_step_into(step, &mut encoded);

            let ref_currents1 = reference.conv_currents_dense(&layers[0], &spec1, &encoded);
            let ref_spikes1 =
                reference.activate_conv(&layers[0], &spec1, &ref_currents1, &mut ref_state1);
            let ref_out1 = spikestream_snn::reference::max_pool_2x2(&ref_spikes1);
            let ref_out2 = reference.conv_forward(
                &layers[1],
                &pad_spikes(&ref_out1, spec2.padding),
                &mut ref_state2,
            );
            let ref_out3 = reference.linear_forward(&layers[2], &ref_out2, &mut ref_state3);

            let (exec1, out1) = executor.lower_temporal_step(
                &config,
                &net,
                0,
                LayerInput::Image(&encoded),
                &mut scratch,
                &mut StreamProgram::new(&layers[0].name, FpFormat::Fp32),
            );
            let padded = pad_spikes(&out1, spec2.padding);
            let (exec2, out2) = executor.lower_temporal_step(
                &config,
                &net,
                1,
                LayerInput::Spikes(&padded),
                &mut scratch,
                &mut StreamProgram::new(&layers[1].name, FpFormat::Fp32),
            );
            let (exec3, out3) = executor.lower_temporal_step(
                &config,
                &net,
                2,
                LayerInput::Spikes(&out2),
                &mut scratch,
                &mut StreamProgram::new(&layers[2].name, FpFormat::Fp32),
            );

            let label =
                format!("{}/{variant}/{encoding}/T{timesteps}/seed {seed}/step {step}", model.as_str());
            prop_assert_eq!(&out1, &ref_out1, "{}: conv1 spikes", label);
            prop_assert_eq!(&out2, &ref_out2, "{}: conv2 spikes", label);
            prop_assert_eq!(&out3, &ref_out3, "{}: fc3 spikes", label);

            // Real propagation: layer N+1 consumes exactly what N emitted.
            prop_assert_eq!(exec2.input_spikes, exec1.output_spikes, "{}: conv1->conv2", label);
            prop_assert_eq!(exec3.input_spikes, exec2.output_spikes, "{}: conv2->fc3", label);

            // Full state trajectories: membranes and recovery variables.
            for (idx, reference_state) in
                [&ref_state1, &ref_state2, &ref_state3].into_iter().enumerate()
            {
                let kernel_state = scratch.membrane(idx);
                prop_assert_eq!(
                    kernel_state.membrane(),
                    reference_state.membrane(),
                    "{}: layer {} membrane",
                    label,
                    idx
                );
                prop_assert_eq!(
                    kernel_state.recovery(),
                    reference_state.recovery(),
                    "{}: layer {} recovery",
                    label,
                    idx
                );
            }
        }
    }

    /// Claim 2: the analytic backend's consumer (cost integration) and the
    /// cycle-level consumer (interpretation) agree on every exact program a
    /// random model lowers — conv and fc, all formats, both variants — and
    /// the outbound DMA really carries one FP32 tile per state variable.
    #[test]
    fn exact_programs_agree_across_backends_for_random_models(
        model in AnyModel,
        format in choice(&[FpFormat::Fp32, FpFormat::Fp16, FpFormat::Fp8]),
        variant in choice(&[KernelVariant::Baseline, KernelVariant::SpikeStream]),
        seed in 0u64..1_000,
    ) {
        let (spec, layer) = conv_layer(model, seed);
        let input =
            CompressedIfmap::from_spike_map(&random_spikes(spec.padded_input(), 0.3, 1, seed ^ 1));
        let mut state = NeuronState::new(&model, spec.conv_output().len());
        let mut program = StreamProgram::new(&layer.name, format);
        LayerExecutor::new(variant, format).lower_conv(&ClusterConfig::default(), &layer, &layer.quantize_weights(format), &input, &mut state, &mut OpBuffer::new(), &mut program);
        let (stats, cost) = both_consumers(&program);
        let label = format!("conv/{}/{variant}/{format:?}/seed {seed}", model.as_str());
        assert_backends_equal(&label, &stats, &cost);
        let state_bytes = (spec.conv_output().len() * 4 * model.state_vars()) as u64;
        prop_assert!(
            stats.dma_bytes_out >= state_bytes,
            "{}: outbound DMA must cover {} state bytes, got {}",
            label,
            state_bytes,
            stats.dma_bytes_out
        );

        let (spec, layer) = fc_layer(model, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 2);
        let spikes: Vec<bool> = (0..spec.in_features).map(|_| rng.gen_bool(0.3)).collect();
        let input = CompressedFcInput::from_spikes(&spikes);
        let mut state = NeuronState::new(&model, spec.out_features);
        let mut program = StreamProgram::new(&layer.name, format);
        LayerExecutor::new(variant, format).lower_fc(&ClusterConfig::default(), &layer, &layer.quantize_weights(format), &input, &mut state, &mut OpBuffer::new(), &mut program);
        let (stats, cost) = both_consumers(&program);
        let label = format!("fc/{}/{variant}/{format:?}/seed {seed}", model.as_str());
        assert_backends_equal(&label, &stats, &cost);
        let state_bytes = (spec.out_features * 4 * model.state_vars()) as u64;
        prop_assert!(
            stats.dma_bytes_out >= state_bytes,
            "{}: outbound DMA must cover {} state bytes, got {}",
            label,
            state_bytes,
            stats.dma_bytes_out
        );
    }
}

/// The two-variable model is priced honestly relative to LIF on identical
/// work: exactly one extra FP32 state tile in *and* out (the recovery
/// buffer's DMA), and strictly more FP work per activation group.
#[test]
fn izhikevich_programs_carry_the_two_variable_costs() {
    for variant in [KernelVariant::Baseline, KernelVariant::SpikeStream] {
        let (spec, lif_layer) = conv_layer(NeuronModel::Lif(LifParams::new(0.5, 0.3)), 11);
        let (_, izhi_layer) =
            conv_layer(NeuronModel::Izhikevich(IzhiParams::regular_spiking()), 11);
        let input =
            CompressedIfmap::from_spike_map(&random_spikes(spec.padded_input(), 0.3, 1, 12));
        let kernel = LayerExecutor::new(variant, FpFormat::Fp16);

        let mut lif_state = NeuronState::lif(spec.conv_output().len());
        let mut lif_program = StreamProgram::new(&lif_layer.name, FpFormat::Fp16);
        kernel.lower_conv(
            &ClusterConfig::default(),
            &lif_layer,
            &lif_layer.quantize_weights(kernel.format()),
            &input,
            &mut lif_state,
            &mut OpBuffer::new(),
            &mut lif_program,
        );
        let (lif_stats, _) = both_consumers(&lif_program);

        let izhi_model = izhi_layer.neuron;
        let mut izhi_state = NeuronState::new(&izhi_model, spec.conv_output().len());
        let mut izhi_program = StreamProgram::new(&izhi_layer.name, FpFormat::Fp16);
        kernel.lower_conv(
            &ClusterConfig::default(),
            &izhi_layer,
            &izhi_layer.quantize_weights(kernel.format()),
            &input,
            &mut izhi_state,
            &mut OpBuffer::new(),
            &mut izhi_program,
        );
        let (izhi_stats, _) = both_consumers(&izhi_program);

        let state_tile = (spec.conv_output().len() * 4) as u64;
        assert_eq!(
            izhi_stats.dma_bytes_in,
            lif_stats.dma_bytes_in + state_tile,
            "{variant}: recovery tile inbound"
        );
        assert_eq!(
            izhi_stats.dma_bytes_out,
            lif_stats.dma_bytes_out + state_tile,
            "{variant}: recovery tile outbound"
        );
        assert!(
            izhi_stats.totals.fp_instrs > lif_stats.totals.fp_instrs,
            "{variant}: the quadratic update must cost more FP instructions \
             ({} vs {})",
            izhi_stats.totals.fp_instrs,
            lif_stats.totals.fp_instrs
        );
    }
}

/// Claim 3: serving reports are bit-identical across worker fan-out and
/// shard counts for both models × both encodings × T ∈ {1, 4} × both
/// timing models — the full acceptance cross-product.
#[test]
fn serving_is_shard_and_worker_invariant_for_both_models() {
    for model in both_models() {
        let engine = Engine::new(common::tiny_network(5, model), FiringProfile::uniform(3, 0.25));
        for timing in [TimingModel::Analytic, TimingModel::CycleLevel] {
            for encoding in [TemporalEncoding::Rate, TemporalEncoding::Direct] {
                for timesteps in [1usize, 4] {
                    let config = InferenceConfig {
                        timing,
                        batch: 4,
                        seed: 0xD1F7,
                        ..InferenceConfig::paper(KernelVariant::SpikeStream, FpFormat::Fp16)
                    }
                    .temporal(timesteps, encoding);
                    let label = format!("{}/{timing:?}/{encoding}/T{timesteps}", model.as_str());
                    let plan = engine.compile(&config);
                    let mut session = plan.open_session();
                    let sequential = session.infer(&Request::batch(config.batch).sequential());
                    assert_eq!(
                        sequential.timesteps.as_ref().map(Vec::len),
                        Some(timesteps),
                        "{label}"
                    );
                    let parallel = session.infer(&Request::batch(config.batch));
                    assert_eq!(parallel.to_json(), sequential.to_json(), "{label}: fan-out");
                    for shards in [1usize, 2, 4] {
                        let sharded =
                            session.infer(&Request::batch(config.batch).with_shards(shards));
                        assert_eq!(sharded.shards.as_ref().unwrap().shards.len(), shards);
                        assert_eq!(
                            sharded.without_shard_stats().to_json(),
                            sequential.to_json(),
                            "{label}: {shards} shards"
                        );
                    }
                }
            }
        }
    }
}

/// The analytic and cycle-level backends agree on per-layer spike counts
/// under a jitter-free profile for both models (synthetic single-shot
/// path) — the report-level face of claim 2.
#[test]
fn backends_agree_on_spike_counts_for_both_models() {
    for model in both_models() {
        let engine = Engine::new(common::tiny_network(21, model), FiringProfile::uniform(3, 0.25));
        let config = InferenceConfig {
            batch: 2,
            seed: 0xE0_15,
            ..InferenceConfig::paper(KernelVariant::SpikeStream, FpFormat::Fp16)
        };
        let serve = |timing| {
            let plan = engine.compile(&InferenceConfig { timing, ..config });
            let samples: Vec<usize> = (0..config.batch).collect();
            let units = plan.network().len() * config.timesteps();
            let mut out = vec![LayerSample::default(); samples.len() * units];
            let request = Request::batch(config.batch).sequential();
            plan.open_session().serve_into(&request, &samples, &mut out);
            out.chunks(units).map(<[_]>::to_vec).collect::<Vec<_>>()
        };
        let (analytic, cycle) = (serve(TimingModel::Analytic), serve(TimingModel::CycleLevel));
        assert_eq!(analytic.len(), config.batch);
        for (sample, (analytic, cycle)) in analytic.iter().zip(&cycle).enumerate() {
            assert_eq!(analytic.len(), cycle.len());
            for (idx, (a, c)) in analytic.iter().zip(cycle.iter()).enumerate() {
                assert_eq!(
                    a.input_spikes.round(),
                    c.input_spikes,
                    "{} layer {idx} sample {sample}: analytic {} vs cycle-level {}",
                    model.as_str(),
                    a.input_spikes,
                    c.input_spikes
                );
            }
        }
    }
}

/// The harness's Izhikevich regime actually spikes: a silent model would
/// make every equality above vacuous for the second state variable.
#[test]
fn the_izhikevich_regime_produces_spikes_and_recovery_motion() {
    let model = NeuronModel::Izhikevich(IzhiParams::regular_spiking());
    let net = common::tiny_network(9, model);
    let executor = LayerExecutor::new(KernelVariant::SpikeStream, FpFormat::Fp32);
    let mut scratch = LayerScratch::new();
    scratch.begin_sample(&net);
    let spec1 = match &net.layers()[0].kind {
        LayerKind::Conv(c) => *c,
        _ => unreachable!(),
    };
    let mut rng = StdRng::seed_from_u64(9);
    let image = pad_image(&synthetic_image(spec1.input, &mut rng), spec1.padding);
    let mut fired = 0u64;
    for _ in 0..4 {
        let (exec, _) = executor.lower_temporal_step(
            &ClusterConfig::default(),
            &net,
            0,
            LayerInput::Image(&image),
            &mut scratch,
            &mut StreamProgram::new(&net.layers()[0].name, FpFormat::Fp32),
        );
        fired += exec.output_spikes;
    }
    assert!(fired > 0, "the calibrated weight amplitude must drive spikes in 4 steps");
    let state = scratch.membrane(0);
    assert_eq!(state.recovery().len(), state.len(), "one recovery value per neuron");
    let u_rest = IzhiParams::regular_spiking().u_rest();
    assert!(state.recovery().iter().any(|&u| u != u_rest), "recovery variables must move off rest");
}
