//! End-to-end pipeline test: chain the kernels layer to layer (spikes from
//! one layer feed the next) on a small network and check the chain against
//! the functional reference engine, exercising compression, padding,
//! pooling and both kernel types together.

use rand::rngs::StdRng;
use rand::SeedableRng;
use snitch_arch::{ClusterConfig, CostModel};
use snitch_sim::{ClusterModel, Interpreter};
use spikestream::{FpFormat, KernelVariant};
use spikestream_kernels::{LayerExecutor, OpBuffer};
use spikestream_snn::encoding::{pad_image, pad_spikes, synthetic_image};
use spikestream_snn::neuron::LifParams;
use spikestream_snn::tensor::TensorShape;
use spikestream_snn::{
    CompressedFcInput, CompressedIfmap, ConvSpec, LayerKind, LinearSpec, NetworkBuilder,
    NeuronState, ReferenceEngine,
};

#[test]
fn chained_inference_matches_the_reference_engine() {
    let lif = LifParams::new(0.5, 0.3);
    let mut network = NetworkBuilder::new("chain")
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
        .build_with_random_weights(77, 0.15);
    network.layers_mut()[0].encodes_input = true;
    network.validate().expect("shapes chain");

    let mut rng = StdRng::seed_from_u64(5);
    let image_inner = synthetic_image(TensorShape::new(8, 8, 3), &mut rng);

    // --- Reference chain ---------------------------------------------------
    let reference = ReferenceEngine::new();
    let layers = network.layers();
    let (spec1, spec2, spec3) = match (&layers[0].kind, &layers[1].kind, &layers[2].kind) {
        (LayerKind::Conv(a), LayerKind::Conv(b), LayerKind::Linear(c)) => (*a, *b, *c),
        _ => panic!("unexpected layer kinds"),
    };

    let padded_image = pad_image(&image_inner, spec1.padding);
    let mut ref_state1 = NeuronState::lif(spec1.conv_output().len());
    let ref_currents1 = reference.conv_currents_dense(&layers[0], &spec1, &padded_image);
    let ref_spikes1 = reference.activate_conv(&layers[0], &spec1, &ref_currents1, &mut ref_state1);
    let ref_out1 = spikestream_snn::reference::max_pool_2x2(&ref_spikes1);

    let mut ref_state2 = NeuronState::lif(spec2.conv_output().len());
    let ref_out2 =
        reference.conv_forward(&layers[1], &pad_spikes(&ref_out1, spec2.padding), &mut ref_state2);

    let mut ref_state3 = NeuronState::lif(spec3.out_features);
    let ref_out3 = reference.linear_forward(&layers[2], &ref_out2, &mut ref_state3);

    // --- Kernel chain (SpikeStream, FP32 so results are exact) -------------
    let config = ClusterConfig::default();
    let mut cluster = ClusterModel::new(config.clone(), CostModel::default());
    let executor = LayerExecutor::new(KernelVariant::SpikeStream, FpFormat::Fp32);

    let mut state1 = NeuronState::lif(spec1.conv_output().len());
    let mut interpreter = Interpreter::new(&mut cluster, FpFormat::Fp32);
    let out1 = executor.lower_dense(
        &config,
        &layers[0],
        &layers[0].quantize_weights(executor.format()),
        &padded_image,
        &mut state1,
        &mut OpBuffer::new(),
        &mut interpreter,
    );
    let layer1_cycles = cluster.finish_phase().compute_cycles;
    assert_eq!(out1, ref_out1, "conv1 output spikes");

    let padded = pad_spikes(&out1, spec2.padding);
    let compressed = CompressedIfmap::from_spike_map(&padded);
    let mut state2 = NeuronState::lif(spec2.conv_output().len());
    let mut interpreter = Interpreter::new(&mut cluster, FpFormat::Fp32);
    let out2 = executor.lower_conv(
        &config,
        &layers[1],
        &layers[1].quantize_weights(executor.format()),
        &compressed,
        &mut state2,
        &mut OpBuffer::new(),
        &mut interpreter,
    );
    let layer2_cycles = cluster.finish_phase().compute_cycles;
    assert_eq!(out2, ref_out2, "conv2 output spikes");

    let fc_input = CompressedFcInput::from_spike_map(&out2);
    let mut state3 = NeuronState::lif(spec3.out_features);
    let mut interpreter = Interpreter::new(&mut cluster, FpFormat::Fp32);
    let out3 = executor.lower_fc(
        &config,
        &layers[2],
        &layers[2].quantize_weights(executor.format()),
        &fc_input,
        &mut state3,
        &mut OpBuffer::new(),
        &mut interpreter,
    );
    let layer3_cycles = cluster.finish_phase().compute_cycles;
    assert_eq!(out3, ref_out3, "fc3 output spikes");

    // Timing sanity: every layer costs cycles and the conv layers dominate.
    assert!(layer1_cycles > 0 && layer2_cycles > 0 && layer3_cycles > 0);
    assert!(layer1_cycles + layer2_cycles > layer3_cycles);
}
