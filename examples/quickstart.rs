//! Quickstart: compile the S-VGG11 network into serving plans for both
//! code variants and print the end-to-end comparison the paper's abstract
//! is built on.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use spikestream::{
    Engine, FpFormat, InferenceConfig, KernelVariant, Request, TimingModel, WorkloadMode,
};

fn main() {
    let engine = Engine::svgg11(42);
    let batch = 16;

    // Compile once per configuration: validation, backend binding and the
    // ahead-of-time lowering of every layer's stream program happen here.
    let compile = |variant, format| {
        engine.compile(&InferenceConfig {
            variant,
            format,
            timing: TimingModel::Analytic,
            batch,
            seed: 7,
            mode: WorkloadMode::Synthetic,
        })
    };
    // Then serve: a session owns the worker arenas and answers requests
    // against the plan's cached programs.
    let serve =
        |variant, format| compile(variant, format).open_session().infer(&Request::batch(batch));

    let baseline = serve(KernelVariant::Baseline, FpFormat::Fp16);
    let streamed16 = serve(KernelVariant::SpikeStream, FpFormat::Fp16);
    let streamed8 = serve(KernelVariant::SpikeStream, FpFormat::Fp8);

    println!("S-VGG11 single-timestep inference, batch of {batch} synthetic CIFAR-10 frames\n");
    println!(
        "{:<26} {:>14} {:>12} {:>12} {:>12}",
        "configuration", "cycles", "time [ms]", "FPU util", "energy [mJ]"
    );
    for (name, report) in [
        ("Baseline FP16", &baseline),
        ("SpikeStream FP16", &streamed16),
        ("SpikeStream FP8", &streamed8),
    ] {
        println!(
            "{:<26} {:>14.0} {:>12.3} {:>11.1}% {:>12.3}",
            name,
            report.total_cycles(),
            report.total_seconds() * 1e3,
            report.average_utilization() * 100.0,
            report.total_energy_j() * 1e3
        );
    }

    println!();
    println!("SpikeStream FP16 speedup over baseline: {:.2}x", streamed16.speedup_over(&baseline));
    println!("SpikeStream FP8  speedup over baseline: {:.2}x", streamed8.speedup_over(&baseline));
    println!(
        "Energy-efficiency gain (FP8 vs baseline): {:.2}x",
        streamed8.energy_gain_over(&baseline)
    );
}
