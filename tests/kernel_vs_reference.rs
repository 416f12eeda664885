//! Cross-crate integration test: the kernels' exact lowerings (baseline
//! and SpikeStream, all storage formats) must agree with the functional
//! reference engine on a small but non-trivial network, and the two code
//! variants must be bit-identical to each other.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snitch_arch::{ClusterConfig, CostModel};
use snitch_sim::{ClusterModel, Interpreter};
use spikestream::{FpFormat, KernelVariant};
use spikestream_ir::StreamProgram;
use spikestream_kernels::{LayerExecutor, OpBuffer};
use spikestream_snn::neuron::LifParams;
use spikestream_snn::tensor::{SpikeMap, TensorShape};
use spikestream_snn::{
    CompressedFcInput, CompressedIfmap, ConvSpec, Layer, LayerKind, LinearSpec, NeuronState,
    ReferenceEngine,
};

fn conv_layer() -> (Layer, ConvSpec) {
    let spec = ConvSpec {
        input: TensorShape::new(6, 6, 12),
        out_channels: 16,
        kh: 3,
        kw: 3,
        stride: 1,
        padding: 1,
        pool: false,
    };
    let mut layer = Layer::new("conv", LayerKind::Conv(spec), LifParams::new(0.5, 0.25));
    let mut rng = StdRng::seed_from_u64(100);
    layer.randomize_weights(&mut rng, 0.15);
    (layer, spec)
}

fn conv_input(spec: &ConvSpec, rate: f64) -> CompressedIfmap {
    let mut rng = StdRng::seed_from_u64(200);
    let shape = spec.padded_input();
    let mut map = SpikeMap::silent(shape);
    for h in 1..shape.h - 1 {
        for w in 1..shape.w - 1 {
            for c in 0..shape.c {
                if rng.gen_bool(rate) {
                    map.set(h, w, c, true);
                }
            }
        }
    }
    CompressedIfmap::from_spike_map(&map)
}

/// `layer` with a threshold no input current reaches. After one step from
/// rest, each of its LIF neurons holds exactly its quantized input current.
fn never_firing(layer: &Layer) -> Layer {
    let mut never = layer.clone();
    never.neuron = LifParams::new(0.5, f32::MAX).into();
    never
}

/// Lower `layer` (conv or fully connected) once from a resting LIF state;
/// returns the output spikes and the post-step neuron state.
fn lower(
    variant: KernelVariant,
    format: FpFormat,
    layer: &Layer,
    input: &Input,
) -> (SpikeMap, NeuronState) {
    let executor = LayerExecutor::new(variant, format);
    let (config, weights) = (ClusterConfig::default(), layer.quantize_weights(format));
    let (buffer, sink) = (&mut OpBuffer::new(), &mut StreamProgram::new(format));
    let (output, state) = match (&layer.kind, input) {
        (LayerKind::Conv(spec), Input::Conv(input)) => {
            let mut state = NeuronState::lif(spec.conv_output().len());
            (executor.lower_conv(&config, layer, &weights, input, &mut state, buffer, sink), state)
        }
        (LayerKind::Linear(spec), Input::Fc(input)) => {
            let mut state = NeuronState::lif(spec.out_features);
            (executor.lower_fc(&config, layer, &weights, input, &mut state, buffer, sink), state)
        }
        _ => unreachable!("the tests pair each layer with its input"),
    };
    (output, state)
}

/// The compressed input of a conv or fully connected layer.
enum Input {
    Conv(CompressedIfmap),
    Fc(CompressedFcInput),
}

#[test]
fn conv_kernels_match_reference_for_every_format_and_variant() {
    let (layer, spec) = conv_layer();
    let compressed = conv_input(&spec, 0.3);
    let ref_currents =
        ReferenceEngine::new().conv_currents(&layer, &spec, &compressed.decompress());
    let input = Input::Conv(compressed);

    for format in [FpFormat::Fp32, FpFormat::Fp16, FpFormat::Fp8] {
        // The two variants are always bit-identical to each other: the same
        // spikes from the same post-step membranes.
        let (base, base_state) = lower(KernelVariant::Baseline, format, &layer, &input);
        let (fast, fast_state) = lower(KernelVariant::SpikeStream, format, &layer, &input);
        assert!(base.count_spikes() > 0, "{format}: the layer fires");
        assert_eq!(base, fast, "{format}");
        assert_eq!(base_state, fast_state, "{format}");

        // And the currents they step on are close to the unquantized
        // reference (tolerance scales with the format's precision).
        let tol = match format {
            FpFormat::Fp32 => 1e-4,
            FpFormat::Fp16 => 2e-2,
            _ => 0.4,
        };
        for variant in [KernelVariant::Baseline, KernelVariant::SpikeStream] {
            let (_, currents) = lower(variant, format, &never_firing(&layer), &input);
            for (a, b) in currents.membrane().iter().zip(ref_currents.data()) {
                assert!((a - b).abs() <= tol, "{variant}/{format}: {a} vs {b}");
            }
        }
    }
}

#[test]
fn fc_kernels_match_reference_and_each_other() {
    let spec = LinearSpec { in_features: 300, out_features: 40 };
    let mut layer = Layer::new("fc", LayerKind::Linear(spec), LifParams::new(0.5, 0.2));
    let mut rng = StdRng::seed_from_u64(300);
    layer.randomize_weights(&mut rng, 0.1);
    let spikes: Vec<bool> = (0..300).map(|_| rng.gen_bool(0.08)).collect();
    let input = Input::Fc(CompressedFcInput::from_spikes(&spikes));

    let reference = ReferenceEngine::new();
    let ref_input = SpikeMap::from_vec(TensorShape::new(1, 1, 300), spikes);
    let ref_currents = reference.linear_currents(&layer, &spec, &ref_input);

    let (base, base_state) = lower(KernelVariant::Baseline, FpFormat::Fp32, &layer, &input);
    let (fast, fast_state) = lower(KernelVariant::SpikeStream, FpFormat::Fp32, &layer, &input);
    assert!(base.count_spikes() > 0, "the layer fires");
    assert_eq!(base, fast);
    assert_eq!(base_state, fast_state);
    for variant in [KernelVariant::Baseline, KernelVariant::SpikeStream] {
        let (_, currents) = lower(variant, FpFormat::Fp32, &never_firing(&layer), &input);
        for (a, b) in currents.membrane().iter().zip(ref_currents.iter()) {
            assert!((a - b).abs() < 1e-4, "{variant}: {a} vs {b}");
        }
    }
}

#[test]
fn streaming_speedup_grows_with_channel_depth() {
    // The paper's core observation: deeper (wider-channel) layers have
    // longer SpVA streams and therefore benefit more from the SSRs.
    let speedup_for_depth = |in_c: usize| {
        let spec = ConvSpec {
            input: TensorShape::new(6, 6, in_c),
            out_channels: 16,
            kh: 3,
            kw: 3,
            stride: 1,
            padding: 1,
            pool: false,
        };
        let mut layer = Layer::new("c", LayerKind::Conv(spec), LifParams::new(0.5, 0.3));
        let mut rng = StdRng::seed_from_u64(7);
        layer.randomize_weights(&mut rng, 0.1);
        let input = conv_input(&spec, 0.25);
        let mut cycles = Vec::new();
        for variant in [KernelVariant::Baseline, KernelVariant::SpikeStream] {
            let mut cluster = ClusterModel::new(ClusterConfig::default(), CostModel::default());
            let config = cluster.config().clone();
            let mut state = NeuronState::lif(spec.conv_output().len());
            LayerExecutor::new(variant, FpFormat::Fp16).lower_conv(
                &config,
                &layer,
                &layer.quantize_weights(FpFormat::Fp16),
                &input,
                &mut state,
                &mut OpBuffer::new(),
                &mut Interpreter::new(&mut cluster, FpFormat::Fp16),
            );
            cycles.push(cluster.finish_phase().compute_cycles as f64);
        }
        cycles[0] / cycles[1]
    };
    let shallow = speedup_for_depth(8);
    let deep = speedup_for_depth(128);
    assert!(deep > shallow, "deep {deep:.2} vs shallow {shallow:.2}");
}
