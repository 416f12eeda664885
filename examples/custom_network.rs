//! Build a custom spiking CNN and run it through an explicit execution
//! backend.
//!
//! This example exercises the lower-level APIs directly: network
//! construction, explicit backend binding via `Compiler::with_backend`
//! (here the cycle-level backend, which lowers every layer through the
//! `LayerExecutor` dispatch and interprets the programs), and the
//! per-layer report. Third-party
//! backends — accelerator models, event-driven simulators — bind into a
//! plan the same way without touching the engine.
//!
//! ```text
//! cargo run --release --example custom_network
//! ```

use spikestream::{
    CycleLevelBackend, Engine, FiringProfile, FpFormat, InferenceConfig, KernelVariant, Request,
    TimingModel, WorkloadMode,
};
use spikestream_snn::neuron::LifParams;
use spikestream_snn::tensor::TensorShape;
use spikestream_snn::{ConvSpec, LinearSpec, NetworkBuilder};

fn main() {
    // A small event-camera-style network: two conv layers and a classifier.
    let lif = LifParams::new(0.6, 0.4);
    let mut network = NetworkBuilder::new("dvs-tiny")
        .conv(
            "conv1",
            ConvSpec {
                input: TensorShape::new(16, 16, 2),
                out_channels: 16,
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
                input: TensorShape::new(8, 8, 16),
                out_channels: 32,
                kh: 3,
                kw: 3,
                stride: 1,
                padding: 1,
                pool: true,
            },
            lif,
        )
        .linear("fc3", LinearSpec { in_features: 4 * 4 * 32, out_features: 10 }, lif)
        .build_with_random_weights(1234, 0.1);
    network.layers_mut()[0].encodes_input = true;
    network.validate().expect("layer shapes chain");

    // Event-camera inputs are moderately sparse everywhere.
    let profile = FiringProfile::uniform(network.len(), 0.2);
    let engine = Engine::new(network, profile);

    println!("Custom network on the Snitch cluster (cycle-level backend)\n");
    for variant in [KernelVariant::Baseline, KernelVariant::SpikeStream] {
        // Equivalent to compiling with `timing: TimingModel::CycleLevel`;
        // spelled out to show where custom backends bind into a plan.
        let plan = engine
            .compiler()
            .with_backend(Box::new(CycleLevelBackend))
            .compile(InferenceConfig {
                variant,
                format: FpFormat::Fp16,
                timing: TimingModel::CycleLevel,
                batch: 2,
                seed: 3,
                mode: WorkloadMode::Synthetic,
            })
            .expect("network and profile compile");
        let report = plan.open_session().infer(&Request::batch(2));
        println!("{variant}:");
        for layer in &report.layers {
            println!(
                "  {:<8} {:>10.0} cycles  util {:>5.1}%  IPC {:>4.2}  {:>8.2} uJ",
                layer.name,
                layer.cycles,
                layer.fpu_utilization * 100.0,
                layer.ipc,
                layer.energy_j * 1e6
            );
        }
        println!(
            "  total: {:.0} cycles ({:.3} ms)\n",
            report.total_cycles(),
            report.total_seconds() * 1e3
        );
    }
}
