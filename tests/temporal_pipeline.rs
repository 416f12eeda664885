//! Temporal-pipeline correctness: a T-timestep run must propagate *real*
//! spikes — layer N+1's per-step input is exactly layer N's per-step
//! output — with LIF membranes persisting across steps, resetting between
//! samples, and the whole pipeline staying deterministic no matter how the
//! batch is scheduled across workers or shards. Per-timestep programs must
//! also satisfy the IR-equivalence contract (exact instruction / FLOP /
//! stream / DMA totals between integrator and interpreter, cycles within
//! tolerance) even as the membrane state evolves.

use rand::rngs::StdRng;
use rand::SeedableRng;
use snitch_arch::{ClusterConfig, CostModel};
use snitch_sim::{execute_program, ClusterModel};
use spikestream::{
    CycleLevelBackend, EnergyModel, Engine, ExecutionBackend, FnSink, FpFormat, InferenceConfig,
    KernelVariant, LayerSample, Request, SampleContext, TemporalEncoding, TimingModel,
};
use spikestream_ir::{CostIntegrator, StreamProgram};
use spikestream_kernels::{LayerExecutor, LayerInput, LayerScratch, OpBuffer};
use spikestream_snn::encoding::{pad_image, pad_spikes, synthetic_image, TemporalEncoder};
use spikestream_snn::neuron::LifParams;
use spikestream_snn::tensor::{SpikeMap, TensorShape};
use spikestream_snn::{
    CompressedIfmap, ConvSpec, FiringProfile, Layer, LayerKind, LinearSpec, Network,
    NetworkBuilder, NeuronState, ReferenceEngine,
};

const TIMESTEPS: usize = 4;

/// The tiny conv-conv-fc network used throughout (encoding first layer).
fn tiny_network(seed: u64) -> Network {
    let lif = LifParams::new(0.5, 0.3);
    let mut net = NetworkBuilder::new("temporal-tiny")
        .conv(
            "conv1",
            ConvSpec {
                input: TensorShape::new(8, 8, 3),
                out_channels: 8,
                kh: 3,
                kw: 3,
                stride: 1,
                padding: 1,
                pool: true,
            },
            lif,
        )
        .conv(
            "conv2",
            ConvSpec {
                input: TensorShape::new(4, 4, 8),
                out_channels: 16,
                kh: 3,
                kw: 3,
                stride: 1,
                padding: 1,
                pool: false,
            },
            lif,
        )
        .linear("fc3", LinearSpec { in_features: 4 * 4 * 16, out_features: 10 }, lif)
        .build_with_random_weights(seed, 0.15);
    net.layers_mut()[0].encodes_input = true;
    net.validate().expect("shapes chain");
    net
}

fn temporal_config(
    timing: TimingModel,
    batch: usize,
    encoding: TemporalEncoding,
) -> InferenceConfig {
    InferenceConfig {
        timing,
        batch,
        seed: 0x7E_47,
        ..InferenceConfig::paper(KernelVariant::SpikeStream, FpFormat::Fp16)
    }
    .temporal(TIMESTEPS, encoding)
}

/// Kernel-vs-reference equality across every timestep: the executor's
/// temporal chain (persistent membranes, spikes fed layer to layer) must
/// reproduce a manual reference chain running the same LIF dynamics in
/// plain `f32` loops — and layer N+1's reported per-step input spike count
/// must equal layer N's per-step output spike count.
#[test]
fn temporal_chain_matches_the_reference_engine_at_every_step() {
    let net = tiny_network(91);
    let layers = net.layers();
    let (spec1, spec2, spec3) = match (&layers[0].kind, &layers[1].kind, &layers[2].kind) {
        (LayerKind::Conv(a), LayerKind::Conv(b), LayerKind::Linear(c)) => (*a, *b, *c),
        _ => panic!("unexpected layer kinds"),
    };

    let mut rng = StdRng::seed_from_u64(12);
    let image = pad_image(&synthetic_image(spec1.input, &mut rng), spec1.padding);
    let encoder = TemporalEncoder::new(&image, TemporalEncoding::Direct, 0);

    // Reference chain: persistent f32 LIF states, direct coding.
    let reference = ReferenceEngine::new();
    let mut ref_state1 = NeuronState::lif(spec1.conv_output().len());
    let mut ref_state2 = NeuronState::lif(spec2.conv_output().len());
    let mut ref_state3 = NeuronState::lif(spec3.out_features);

    // Kernel chain: FP32 so the results are exact.
    let executor = LayerExecutor::new(KernelVariant::SpikeStream, FpFormat::Fp32);
    let config = ClusterConfig::default();
    let mut scratch = LayerScratch::new();
    scratch.begin_sample(&net);
    let mut encoded = spikestream_snn::Tensor3::zeros(image.shape());

    for step in 0..TIMESTEPS {
        // --- reference -----------------------------------------------------
        let ref_currents1 = reference.conv_currents_dense(&layers[0], &spec1, &image);
        let ref_spikes1 =
            reference.activate_conv(&layers[0], &spec1, &ref_currents1, &mut ref_state1);
        let ref_out1 = spikestream_snn::reference::max_pool_2x2(&ref_spikes1);
        let ref_out2 = reference.conv_forward(
            &layers[1],
            &pad_spikes(&ref_out1, spec2.padding),
            &mut ref_state2,
        );
        let ref_out3 = reference.linear_forward(&layers[2], &ref_out2, &mut ref_state3);

        // --- kernels -------------------------------------------------------
        encoder.encode_step_into(step, &mut encoded);
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

        assert_eq!(out1, ref_out1, "step {step}: conv1 output spikes");
        assert_eq!(out2, ref_out2, "step {step}: conv2 output spikes");
        assert_eq!(out3, ref_out3, "step {step}: fc3 output spikes");

        // Real propagation: layer N+1 consumes exactly what layer N emitted
        // this step (silent padding adds no spikes).
        assert_eq!(exec2.input_spikes, exec1.output_spikes, "step {step}: conv1 -> conv2");
        assert_eq!(exec3.input_spikes, exec2.output_spikes, "step {step}: conv2 -> fc3");

        // The kernel membranes track the reference membranes exactly.
        assert_eq!(scratch.membrane(0).membrane(), ref_state1.membrane(), "step {step}");
        assert_eq!(scratch.membrane(1).membrane(), ref_state2.membrane(), "step {step}");
        assert_eq!(scratch.membrane(2).membrane(), ref_state3.membrane(), "step {step}");
    }
}

/// Membrane state must reset between samples: re-running the same sample
/// after a `begin_sample` reproduces the first run exactly, and a session
/// reproduces its own per-sample results bit-for-bit through its reused
/// worker arena.
#[test]
fn membrane_state_resets_between_samples() {
    let net = tiny_network(7);
    let engine = Engine::new(net.clone(), FiringProfile::uniform(3, 0.25));
    let config = temporal_config(TimingModel::CycleLevel, 2, TemporalEncoding::Rate);
    let plan = engine.compile(&config);
    let mut session = plan.open_session();

    // Session level: serving sample 0, then sample 1, then sample 0 again
    // through one sequential session (one arena, one kernel scratch)
    // yields the first result bit-for-bit — no state can leak.
    let mut serve = |sample: usize| {
        let mut layers = Vec::new();
        let mut sink = FnSink(|_, out: &[LayerSample]| layers = out.to_vec());
        session.run(&Request::samples(sample..sample + 1).sequential(), &mut sink);
        layers
    };
    let first = serve(0);
    let other = serve(1);
    let again = serve(0);
    assert_eq!(first.len(), 3 * TIMESTEPS);
    assert_eq!(first, again, "sample 0 must be reproducible after sample 1 ran");
    assert_ne!(first, other, "distinct samples encode distinct spike trains");

    // Executor level: begin_sample really rests the membranes.
    let executor = LayerExecutor::new(KernelVariant::SpikeStream, FpFormat::Fp16);
    let mut scratch = LayerScratch::new();
    scratch.begin_sample(&net);
    let mut rng = StdRng::seed_from_u64(3);
    let spec1 = match &net.layers()[0].kind {
        LayerKind::Conv(c) => *c,
        _ => unreachable!(),
    };
    let image = pad_image(&synthetic_image(spec1.input, &mut rng), spec1.padding);
    executor.lower_temporal_step(
        &ClusterConfig::default(),
        &net,
        0,
        LayerInput::Image(&image),
        &mut scratch,
        &mut StreamProgram::new(&net.layers()[0].name, FpFormat::Fp16),
    );
    assert!(scratch.membrane(0).membrane().iter().any(|&v| v != 0.0), "the step charged membranes");
    scratch.begin_sample(&net);
    assert!(scratch.membrane(0).membrane().iter().all(|&v| v == 0.0), "begin_sample rests them");
}

/// Temporal runs must be deterministic and shard-count invariant: the
/// aggregate report (layers + per-timestep breakdown) is bit-identical at
/// any shard count and equal to the sequential reference, for both
/// encodings.
#[test]
fn temporal_runs_are_shard_count_invariant() {
    let engine = Engine::new(tiny_network(5), FiringProfile::uniform(3, 0.25));
    for encoding in [TemporalEncoding::Rate, TemporalEncoding::Direct] {
        let config = temporal_config(TimingModel::CycleLevel, 5, encoding);
        let plan = engine.compile(&config);
        let mut session = plan.open_session();
        let batch = config.batch;
        let sequential = session.infer(&Request::batch(batch).sequential());
        assert_eq!(sequential.timesteps.as_ref().map(Vec::len), Some(TIMESTEPS));

        let parallel = session.infer(&Request::batch(batch));
        assert_eq!(parallel.to_json(), sequential.to_json(), "{encoding}: parallel fan-out");

        for shards in [1, 2, 4] {
            let sharded = session.infer(&Request::batch(batch).with_shards(shards));
            assert_eq!(sharded.shards.as_ref().unwrap().shards.len(), shards);
            let stripped = sharded.without_shard_stats();
            assert_eq!(stripped, sequential, "{encoding}: {shards} shards");
            assert_eq!(stripped.to_json(), sequential.to_json(), "{encoding}: {shards} shards");
        }
    }
}

/// The emergent firing-rate trajectory: starting from resting membranes,
/// spiking layers under-fire at step 0 and warm up over the first steps —
/// the dynamics the synthetic single-shot path cannot show.
#[test]
fn temporal_firing_rates_warm_up_from_rest() {
    let engine = Engine::new(tiny_network(11), FiringProfile::uniform(3, 0.25));
    let config = temporal_config(TimingModel::CycleLevel, 4, TemporalEncoding::Rate);
    let report = engine.compile(&config).run();
    let steps = report.timesteps.as_ref().expect("temporal breakdown");
    assert_eq!(steps.len(), TIMESTEPS);
    // conv2's input is conv1's output: silent at rest, active once the
    // conv1 membranes charged past threshold.
    let first = steps[0].firing_rates[1];
    let later: f64 =
        steps[1..].iter().map(|s| s.firing_rates[1]).sum::<f64>() / (TIMESTEPS - 1) as f64;
    assert!(
        later > first,
        "conv2 input rate must ramp up from rest: step0 {first} vs later mean {later}"
    );
    // Every step moves membrane-state DMA even when spikes are scarce.
    assert!(steps.iter().all(|s| s.dma_bytes > 0.0));
}

/// Per-timestep programs keep the IR-equivalence contract as the membrane
/// state evolves: at every step, integrating the step's exact stream
/// program matches interpreting it — instruction/FLOP/stream/DMA totals
/// exactly, cycles within 5%.
#[test]
fn per_timestep_programs_integrate_to_their_interpreted_totals() {
    const CYCLE_TOLERANCE: f64 = 0.05;
    // Channel-preserving layer so each step's output (padded) can feed the
    // next step's lowering — the state-dependent spike patterns a temporal
    // run produces.
    let spec = ConvSpec {
        input: TensorShape::new(6, 6, 12),
        out_channels: 12,
        kh: 3,
        kw: 3,
        stride: 1,
        padding: 1,
        pool: false,
    };
    let mut layer = Layer::new("conv", LayerKind::Conv(spec), LifParams::new(0.5, 0.2));
    let mut rng = StdRng::seed_from_u64(23);
    layer.randomize_weights(&mut rng, 0.1);

    let mut input = SpikeMap::silent(spec.padded_input());
    for h in 1..spec.padded_input().h - 1 {
        for w in 1..spec.padded_input().w - 1 {
            for c in 0..spec.padded_input().c {
                if (h * 13 + w * 7 + c * 3) % 10 < 3 {
                    input.set(h, w, c, true);
                }
            }
        }
    }

    for variant in [KernelVariant::Baseline, KernelVariant::SpikeStream] {
        let kernel = LayerExecutor::new(variant, FpFormat::Fp16);
        // One persistent membrane state across the timesteps: each step's
        // program is lowered from the state the previous step left behind.
        let mut state = NeuronState::lif(spec.conv_output().len());
        let mut step_input = CompressedIfmap::from_spike_map(&input);
        for step in 0..3 {
            let mut program = StreamProgram::new(&layer.name, FpFormat::Fp16);
            let output = kernel.lower_conv(
                &ClusterConfig::default(),
                &layer,
                &layer.quantize_weights(kernel.format()),
                &step_input,
                &mut state,
                &mut OpBuffer::new(),
                &mut program,
            );

            let mut cluster = ClusterModel::new(ClusterConfig::default(), CostModel::default());
            execute_program(&mut cluster, &program);
            let stats = cluster.finish_phase();
            let cost = CostIntegrator::snitch().integrate(&program);

            let label = format!("{variant} step {step}");
            assert_eq!(stats.totals.int_instrs as f64, cost.int_instrs, "{label}: int instrs");
            assert_eq!(stats.totals.flops as f64, cost.flops, "{label}: flops");
            assert_eq!(
                stats.totals.stream_elements as f64, cost.stream_elements,
                "{label}: stream elements"
            );
            assert_eq!(stats.dma_bytes_in, cost.dma_bytes_in, "{label}: dma in");
            assert_eq!(stats.dma_bytes_out, cost.dma_bytes_out, "{label}: dma out");
            let rel = (stats.compute_cycles as f64 - cost.compute_cycles as f64).abs()
                / stats.compute_cycles as f64;
            assert!(rel <= CYCLE_TOLERANCE, "{label}: cycles diverge by {:.2}%", 100.0 * rel);

            // The membrane write-back is part of every per-step program: the
            // outbound DMA covers at least the FP32 membrane tile.
            assert!(
                stats.dma_bytes_out >= (spec.conv_output().len() * 4) as u64,
                "{label}: per-step membrane store"
            );

            // Feed the step's own output back in (padded) so later steps
            // run on emergent, state-dependent spike patterns.
            step_input = CompressedIfmap::from_spike_map(&pad_spikes(&output, spec.padding));
        }
    }
}

/// The cycle-level backend reads each layer's weights through the
/// network's quantized-weight memo. Changing weights through
/// `Network::layers_mut` drops the memo, so the next sample sees the new
/// weights exactly as a network built with them from the start does.
#[test]
fn changed_weights_reach_the_next_cycle_level_sample() {
    let config = temporal_config(TimingModel::CycleLevel, 1, TemporalEncoding::Rate);
    let profile = FiringProfile::uniform(3, 0.25);
    let (cluster, cost) = (ClusterConfig::default(), CostModel::default());
    let energy = EnergyModel::calibrated();
    let integrator = CostIntegrator::new(cluster.clone(), cost.clone());
    let serve = |network: &Network, sample: usize| {
        let ctx = SampleContext {
            network,
            profile: &profile,
            cluster: &cluster,
            cost: &cost,
            energy: &energy,
            config: &config,
            programs: None,
            integrator: &integrator,
            executor: LayerExecutor::new(config.variant, config.format),
        };
        let mut out = Vec::new();
        CycleLevelBackend.run_sample_with_scratch(&ctx, sample, &mut out, &mut LayerScratch::new());
        out
    };

    let mut network = tiny_network(5);
    let before = serve(&network, 3);
    for w in network.layers_mut()[1].weights_mut() {
        *w = 4.0 * w.abs();
    }
    let after = serve(&network, 3);

    let mut rebuilt = tiny_network(5);
    rebuilt.layers_mut()[1].set_weights(network.layers()[1].weights().to_vec());
    assert_eq!(after, serve(&rebuilt, 3), "the served sample uses the new weights");
    assert_ne!(after, before, "the new weights change the sample");
}
