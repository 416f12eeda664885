//! Cycle-level kernel microbenchmark: one conv-layer invocation of both
//! code variants on a representative small layer, measuring the host-side
//! cost of the cycle-level simulation itself.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spikestream::{ClusterConfig, CostModel, FpFormat, KernelVariant};
use spikestream_snn::neuron::LifParams;
use spikestream_snn::tensor::{SpikeMap, TensorShape};
use spikestream_snn::{CompressedIfmap, ConvSpec, Layer, LayerKind, NeuronState};
use std::time::Duration;

fn setup() -> (Layer, ConvSpec, CompressedIfmap) {
    let spec = ConvSpec {
        input: TensorShape::new(10, 10, 64),
        out_channels: 64,
        kh: 3,
        kw: 3,
        stride: 1,
        padding: 1,
        pool: false,
    };
    let mut layer = Layer::new("bench", LayerKind::Conv(spec), LifParams::new(0.5, 0.3));
    let mut rng = StdRng::seed_from_u64(7);
    layer.randomize_weights(&mut rng, 0.1);
    let shape = spec.padded_input();
    let mut map = SpikeMap::silent(shape);
    for h in 1..shape.h - 1 {
        for w in 1..shape.w - 1 {
            for c in 0..shape.c {
                if rng.gen_bool(0.25) {
                    map.set(h, w, c, true);
                }
            }
        }
    }
    (layer, spec, CompressedIfmap::from_spike_map(&map))
}

fn bench(c: &mut Criterion) {
    let (layer, spec, input) = setup();
    let mut group = c.benchmark_group("conv_kernel_cycle_level");
    for variant in [KernelVariant::Baseline, KernelVariant::SpikeStream] {
        group.bench_function(format!("{variant}"), |b| {
            b.iter(|| {
                let mut cluster =
                    snitch_sim::ClusterModel::new(ClusterConfig::default(), CostModel::default());
                let mut state = NeuronState::lif(spec.conv_output().len());
                let kernel = spikestream_kernels::ConvKernel::new(variant, FpFormat::Fp16);
                kernel.run(&mut cluster, &layer, &input, &mut state);
                cluster.finish_phase("bench").cycles
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(3)).warm_up_time(Duration::from_secs(1));
    targets = bench
}
criterion_main!(benches);
