//! Backend equivalence: the analytic and cycle-level execution backends
//! must agree on what the network *does* (spike counts, firing rates,
//! synops ordering) even though they model *how long it takes* at very
//! different fidelities — and the engine's parallel batch execution must be
//! bit-identical to a sequential run of the same backend.

use spikestream::{
    Engine, FiringProfile, FnSink, FpFormat, InferenceConfig, InferenceReport, KernelVariant,
    LayerSample, Request, TimingModel, WorkloadMode,
};
use spikestream_snn::neuron::LifParams;
use spikestream_snn::tensor::TensorShape;
use spikestream_snn::{ConvSpec, LinearSpec, NetworkBuilder};

/// A small three-layer network the cycle-level backend can simulate
/// quickly, with a uniform (jitter-free) firing profile.
fn engine() -> Engine {
    engine_with(FiringProfile::uniform(3, 0.25))
}

/// The same network under `profile`.
fn engine_with(profile: FiringProfile) -> Engine {
    let lif = LifParams::new(0.5, 0.3);
    let mut net = NetworkBuilder::new("equiv")
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
        .build_with_random_weights(21, 0.1);
    net.layers_mut()[0].encodes_input = true;
    net.validate().expect("shapes chain");
    Engine::new(net, profile)
}

fn config(timing: TimingModel, batch: usize) -> InferenceConfig {
    InferenceConfig {
        variant: KernelVariant::SpikeStream,
        format: FpFormat::Fp16,
        timing,
        batch,
        seed: 0xE0_15,
        mode: WorkloadMode::Synthetic,
    }
}

/// Every sample of `cfg`'s batch, served sequentially (in sample order)
/// through the backend its timing model binds.
fn per_sample(engine: &Engine, cfg: &InferenceConfig) -> Vec<Vec<LayerSample>> {
    let mut samples = Vec::new();
    let mut sink = FnSink(|_, layers: &[LayerSample]| samples.push(layers.to_vec()));
    engine.compile(cfg).open_session().run(&Request::batch(cfg.batch).sequential(), &mut sink);
    samples
}

#[test]
fn backends_report_identical_spike_counts() {
    let engine = engine();
    let analytic = per_sample(&engine, &config(TimingModel::Analytic, 3));
    let cycle = per_sample(&engine, &config(TimingModel::CycleLevel, 3));
    assert_eq!(analytic.len(), 3);
    assert_eq!(analytic.len(), cycle.len());

    for (sample, (analytic, cycle)) in analytic.iter().zip(&cycle).enumerate() {
        assert_eq!(analytic.len(), cycle.len());

        for (idx, (a, c)) in analytic.iter().zip(cycle.iter()).enumerate() {
            // The workload generator realizes the jitter-free target rate
            // exactly, so the analytic expectation and the cycle-level
            // measurement are the same number.
            assert_eq!(
                a.input_spikes.round(),
                c.input_spikes,
                "layer {idx} sample {sample}: analytic {} vs cycle-level {}",
                a.input_spikes,
                c.input_spikes
            );
            assert!(a.synops > 0.0 && c.synops > 0.0, "layer {idx} must do work");
        }

        // The dense encoding layer consumes every padded pixel in both
        // backends (the analytic rate column reports the profile's entry
        // for layer 0, but its spike count is the dense pixel count).
        assert_eq!(analytic[0].input_spikes, cycle[0].input_spikes);
        assert_eq!(cycle[0].input_firing_rate, 1.0);
    }
}

/// Both backends draw one per-sample rate per layer
/// (`SampleContext::sample_rate`), so under a jittered profile too the
/// cycle-level spike counts are the analytic expectations, rounded.
#[test]
fn backends_share_per_sample_rates_under_a_jittered_profile() {
    let engine = engine_with(FiringProfile { rates: vec![1.0, 0.3, 0.2], relative_std: 0.2 });
    let analytic = per_sample(&engine, &config(TimingModel::Analytic, 4));
    let cycle = per_sample(&engine, &config(TimingModel::CycleLevel, 4));
    assert_eq!(analytic.len(), 4);
    assert_eq!(analytic.len(), cycle.len());

    for (sample, (analytic, cycle)) in analytic.iter().zip(&cycle).enumerate() {
        assert_eq!(analytic.len(), cycle.len());
        for (idx, (a, c)) in analytic.iter().zip(cycle.iter()).enumerate().skip(1) {
            assert_eq!(
                a.input_spikes.round(),
                c.input_spikes,
                "layer {idx} sample {sample}: analytic {} vs cycle-level {}",
                a.input_spikes,
                c.input_spikes
            );
        }
    }
    // The profile really jitters: the samples realize different rates.
    let conv2: Vec<f64> = cycle.iter().map(|layers| layers[1].input_spikes).collect();
    assert!(conv2.windows(2).any(|p| p[0] != p[1]), "jittered counts {conv2:?}");
}

#[test]
fn backends_agree_on_the_streaming_speedup() {
    let engine = engine();
    let run = |timing, variant| {
        let mut cfg = config(timing, 2);
        cfg.variant = variant;
        engine.compile(&cfg).run().total_cycles()
    };
    for timing in [TimingModel::Analytic, TimingModel::CycleLevel] {
        let base = run(timing, KernelVariant::Baseline);
        let fast = run(timing, KernelVariant::SpikeStream);
        assert!(fast < base, "{timing:?}: SpikeStream ({fast}) must beat the baseline ({base})");
    }
}

#[test]
fn parallel_batch_128_is_byte_identical_to_sequential() {
    // The acceptance configuration: a batch-128 analytic run through the
    // engine's parallel path against a single-threaded reference run.
    let engine = Engine::svgg11(42);
    let cfg = InferenceConfig {
        variant: KernelVariant::SpikeStream,
        format: FpFormat::Fp16,
        timing: TimingModel::Analytic,
        batch: 128,
        seed: 0xC1FA,
        mode: WorkloadMode::Synthetic,
    };
    let plan = engine.compile(&cfg);
    let mut session = plan.open_session();
    let parallel: InferenceReport = session.infer(&Request::batch(cfg.batch));
    let sequential = session.infer(&Request::batch(cfg.batch).sequential());
    assert_eq!(
        parallel.to_json(),
        sequential.to_json(),
        "parallel batch execution must be byte-identical to the sequential reference"
    );
}

#[test]
fn cycle_level_parallel_runs_are_deterministic_too() {
    let engine = engine();
    let cfg = config(TimingModel::CycleLevel, 6);
    let plan = engine.compile(&cfg);
    let mut session = plan.open_session();
    let parallel = session.infer(&Request::batch(cfg.batch));
    let sequential = session.infer(&Request::batch(cfg.batch).sequential());
    assert_eq!(parallel.to_json(), sequential.to_json());
}
