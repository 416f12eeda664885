//! Bench for the serving batch driver.
//!
//! Two properties are guarded here:
//!
//! * the fleet path must not cost more than the plain parallel fan-out it
//!   refines, and
//! * **plan reuse must beat per-call compilation**: `serve_plan_reuse`
//!   serves repeated requests from one compiled [`Plan`] (lowering and
//!   cost integration amortized into the plan's warm program-cost
//!   cache), while `serve_compile_per_request` pays compilation and a
//!   cold cache on every request — the regression the compile/serve
//!   split exists to eliminate.

use criterion::{criterion_group, criterion_main, Criterion};
use spikestream::{
    Engine, FpFormat, InferenceConfig, KernelVariant, Request, TimingModel, WorkloadMode,
};
use spikestream_bench::BENCH_BATCH;
use std::time::Duration;

fn config() -> InferenceConfig {
    InferenceConfig {
        variant: KernelVariant::SpikeStream,
        format: FpFormat::Fp16,
        timing: TimingModel::Analytic,
        batch: BENCH_BATCH * 4,
        seed: 0xC1FA,
        mode: WorkloadMode::Synthetic,
    }
}

fn bench(c: &mut Criterion) {
    let engine = Engine::svgg11(1);
    let cfg = config();

    // The serving steady state: one plan, one long-lived session, request
    // after request. After the first request every (layer, sparsity
    // bucket) binding is a cache hit — the per-sample loop only reads
    // integrated costs.
    let plan = engine.compile(&cfg);
    let mut session = plan.open_session();
    session.infer(&Request::batch(cfg.batch)); // warm the bucket cache
    c.bench_function("serve_plan_reuse", |b| {
        b.iter(|| session.infer(std::hint::black_box(&Request::batch(cfg.batch))))
    });

    // The pre-redesign behavior: every request re-builds the execution
    // context and re-lowers every layer program from scratch.
    c.bench_function("serve_compile_per_request", |b| {
        b.iter(|| engine.compile(std::hint::black_box(&cfg)).run())
    });

    for shards in [1usize, 8] {
        let name = format!("batch_sharded_{shards}");
        c.bench_function(name.as_str(), |b| {
            b.iter(|| {
                let report = session
                    .infer(std::hint::black_box(&Request::batch(cfg.batch).with_shards(shards)));
                assert_eq!(report.shards.as_ref().map(|s| s.shards.len()), Some(shards));
                report
            })
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(3)).warm_up_time(Duration::from_secs(1));
    targets = bench
}
criterion_main!(benches);
