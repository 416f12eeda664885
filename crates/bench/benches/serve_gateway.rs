//! Bench for the serving gateway's dynamic micro-batching.
//!
//! Three measurements over the same workload — 64 single-sample requests
//! against a warm analytic S-VGG11 FP16 plan:
//!
//! * `direct/64x1` — 64 sequential single-sample serves on a bare
//!   [`Session`](spikestream::Session): no queue, no threads, no demux.
//!   This is the in-process floor; on the analytic backend the evaluation
//!   itself dominates (per-call serve overhead is ~10 ns), so no serving
//!   stack can beat it.
//! * `uncoalesced/64x1` — the same 64 requests through the full gateway
//!   (submit → bounded queue → dispatcher → response handle) with
//!   `max_batch = 1`: one dispatch and two cross-thread handoffs per
//!   request.
//! * `coalesced/64x1` — identical submissions with `max_batch = 64`
//!   (paused submit + resume pins the composition): one micro-batched
//!   dispatch serves all 64.
//!
//! Coalescing amortizes the per-dispatch wakeup/handoff cost across the
//! whole batch; coalesced vs. `direct` shows what the gateway adds per
//! *batch*. This local sweep asserts no ratio: the recorded figure is the
//! repository benchmark's `gateway.overhead_ratio` (`perfbench` workload
//! `gateway-hot`). `tests/gateway.rs` pins that the bytes are identical
//! either way.

use criterion::{criterion_group, criterion_main, Criterion};
use spikestream::{
    Engine, FpFormat, InferenceConfig, KernelVariant, LayerSample, Plan, Request, ResultSink,
    TimingModel, WorkloadMode,
};
use spikestream_serve::{Gateway, GatewayConfig};
use std::time::Duration;

/// Requests per round; also the coalesced micro-batch size.
const REQUESTS: usize = 64;

fn plan() -> Plan {
    Engine::svgg11(1).compile(&InferenceConfig {
        variant: KernelVariant::SpikeStream,
        format: FpFormat::Fp16,
        timing: TimingModel::Analytic,
        batch: REQUESTS,
        seed: 0xC1FA,
        mode: WorkloadMode::Synthetic,
    })
}

/// Minimal sink for the bare-session floor: consume the stream the same
/// way the gateway's demux does, without folding reports.
struct DrainSink(f64);

impl ResultSink for DrainSink {
    fn on_sample(&mut self, _sample: usize, layers: &[LayerSample]) {
        self.0 += layers.iter().map(|l| l.cycles).sum::<f64>();
    }
}

/// One full gateway round: submit 64 single-sample requests, wait for all
/// 64 responses. `paced` pins a single 64-sample micro-batch by holding
/// the dispatcher while the queue fills.
fn round(gateway: &Gateway, paced: bool) {
    if paced {
        gateway.pause("svgg11").expect("pause");
    }
    let handles: Vec<_> =
        (0..REQUESTS).map(|i| gateway.submit("svgg11", &[i]).expect("submit")).collect();
    if paced {
        gateway.resume("svgg11").expect("resume");
    }
    for handle in handles {
        let response = handle.wait().expect("serve");
        std::hint::black_box(response.cycles());
    }
}

fn bench(c: &mut Criterion) {
    let direct_plan = plan();
    let mut session = direct_plan.open_session();
    let single = Request::batch(1);
    let mut sink = DrainSink(0.0);
    session.run_gather(&single, &[0], &mut sink); // warm: size arenas
    c.bench_function("gateway/direct/64x1", |b| {
        b.iter(|| {
            for i in 0..REQUESTS {
                session.run_gather(&single, &[i], &mut sink);
            }
            std::hint::black_box(sink.0);
        })
    });
    drop(session);

    let gateway = Gateway::new(GatewayConfig { max_batch: 1, linger_us: 0, queue_cap: 256 });
    gateway.publish("svgg11", plan()).expect("publish");
    round(&gateway, false); // warm: spawn dispatcher, size arenas
    c.bench_function("gateway/uncoalesced/64x1", |b| b.iter(|| round(&gateway, false)));
    gateway.shutdown();

    let gateway = Gateway::new(GatewayConfig { max_batch: REQUESTS, linger_us: 0, queue_cap: 256 });
    gateway.publish("svgg11", plan()).expect("publish");
    round(&gateway, true); // warm: spawn dispatcher, size arenas
    c.bench_function("gateway/coalesced/64x1", |b| b.iter(|| round(&gateway, true)));
    gateway.shutdown();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(3)).warm_up_time(Duration::from_secs(1));
    targets = bench
}
criterion_main!(benches);
