//! Analytic cost-integration throughput benchmark.
//!
//! Prices the full set of symbolic S-VGG11 stream programs — every layer
//! at its paper firing rate, pre-lowered so only the integrator is on the
//! clock — through both integration paths:
//!
//! - `integrate` folds the replicated work items by core-equivalence
//!   class: the icache walk runs per core (it mutates shared residency
//!   state), but the exec-twice-extrapolate pricing math runs once per
//!   distinct (share, entry-state) class and every equivalent core copies
//!   the exit state.
//! - `integrate_reference` walks every core of every replicated item the
//!   long way.
//!
//! The two are pinned bit-for-bit by the `cost_folding` differential
//! suite; this benchmark measures the *speed* half — how far the fold
//! stays ahead of the reference on replicated symbolic phases. It only
//! reports the two timings; nothing enforces a ratio between them.

use criterion::{criterion_group, criterion_main, Criterion};
use spikestream::{Engine, FpFormat, KernelVariant};
use spikestream_ir::{CostIntegrator, StreamProgram};
use spikestream_kernels::LayerExecutor;
use std::time::Duration;

/// Every S-VGG11 layer lowered symbolically at the paper firing profile.
fn svgg11_programs(variant: KernelVariant, format: FpFormat) -> Vec<StreamProgram> {
    let engine = Engine::svgg11(5);
    let integrator = CostIntegrator::snitch();
    let executor = LayerExecutor::new(variant, format);
    let n = engine.network().len();
    engine
        .network()
        .layers()
        .iter()
        .enumerate()
        .map(|(idx, layer)| {
            let input_rate = engine.profile().rates[idx];
            let output_rate = engine.profile().rates[(idx + 1).min(n - 1)];
            executor.lower_symbolic(integrator.config(), layer, input_rate, output_rate)
        })
        .collect()
}

fn bench(c: &mut Criterion) {
    let integrator = CostIntegrator::snitch();
    let mut group = c.benchmark_group("cost_integration");

    for variant in [KernelVariant::Baseline, KernelVariant::SpikeStream] {
        let programs = svgg11_programs(variant, FpFormat::Fp16);

        group.bench_function(format!("folded/{variant}"), |b| {
            b.iter(|| programs.iter().map(|p| integrator.integrate(p).compute_cycles).sum::<u64>())
        });

        group.bench_function(format!("reference/{variant}"), |b| {
            b.iter(|| {
                programs
                    .iter()
                    .map(|p| integrator.integrate_reference(p).compute_cycles)
                    .sum::<u64>()
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(Duration::from_secs(3)).warm_up_time(Duration::from_secs(1));
    targets = bench
}
criterion_main!(benches);
