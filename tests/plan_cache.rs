//! Plan-cache behavior under the serving lifecycle.
//!
//! What makes `Plan`/`Session` a *compile-once* API measurable: repeated
//! requests over the same sample population are pure cache hits (no
//! emitter, no cost integration in the per-sample loop), every other
//! binding lowers and integrates once, and the steady state allocates
//! nothing — neither new cache entries nor arena growth.

use spikestream::{
    Engine, FpFormat, InferenceConfig, KernelVariant, Plan, Request, TimingModel, WorkloadMode,
};
use spikestream_ir::CostIntegrator;
use spikestream_kernels::LayerExecutor;

fn analytic_plan(batch: usize) -> Plan {
    Engine::svgg11(5).compile(&InferenceConfig {
        variant: KernelVariant::SpikeStream,
        format: FpFormat::Fp16,
        timing: TimingModel::Analytic,
        batch,
        seed: 0x5EED,
        mode: WorkloadMode::Synthetic,
    })
}

#[test]
fn plan_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Plan>();
    // And usable from another thread: the backend is a plan-owned value,
    // not a reference into a static registry.
    let plan = analytic_plan(2);
    std::thread::scope(|s| {
        s.spawn(|| {
            let report = plan.open_session().infer(&Request::batch(2));
            assert_eq!(report.layers.len(), 8);
        });
    });
}

#[test]
fn repeated_requests_hit_the_cache_without_new_entries() {
    let plan = analytic_plan(16);
    let units = plan.network().len() * 16;
    let mut session = plan.open_session();

    session.infer(&Request::batch(16));
    let warm = plan.programs().counters();
    let warm_len = plan.programs().len();
    assert_eq!(warm.lookups(), units as u64, "one binding per (sample, layer)");
    assert!(warm.emits > 0, "first request binds the realized buckets");

    for _ in 0..3 {
        session.infer(&Request::batch(16));
    }
    let steady = plan.programs().counters();
    assert_eq!(steady.hits, warm.hits + 3 * units as u64, "steady state is all hits");
    assert_eq!(steady.emits, warm.emits, "no further emissions");
    assert_eq!(plan.programs().len(), warm_len, "no per-request cache insertions");
}

#[test]
fn new_sample_populations_miss_into_new_buckets() {
    let plan = analytic_plan(4);
    let units = plan.network().len() * 4;
    let mut session = plan.open_session();
    session.infer(&Request::samples(0..4));
    let warm = plan.programs().counters();

    // Different samples realize different jittered sparsities: every
    // binding is a fresh bucket (served cold), none steals a warm hit.
    session.infer(&Request::samples(100..104));
    let cold = plan.programs().counters();
    assert_eq!(cold.hits, warm.hits, "disjoint sample jitter shares no bucket");
    assert_eq!(cold.emits, warm.emits + units as u64);

    // ... and re-serving the *first* population again is all hits.
    session.infer(&Request::samples(0..4));
    let again = plan.programs().counters();
    assert_eq!(again.hits, cold.hits + units as u64);
    assert_eq!(again.emits, cold.emits);
}

#[test]
fn distinct_neuron_models_never_cross_serve_cached_programs() {
    use spikestream_ir::{ProgramCache, ServedCost};
    use spikestream_snn::neuron::LifParams;
    use spikestream_snn::tensor::TensorShape;
    use spikestream_snn::{ConvSpec, IzhiParams, Layer, LayerKind, NeuronModel};

    // One layer geometry in two flavors differing only in neuron model,
    // bound through one shared cache at identical rates: the cache key's
    // model class must keep the entries apart — a cross-served LIF cost
    // would under-price the Izhikevich DMA and FLOPs silently.
    let spec = ConvSpec {
        input: TensorShape::new(6, 6, 8),
        out_channels: 8,
        kh: 3,
        kw: 3,
        stride: 1,
        padding: 1,
        pool: false,
    };
    let mut lif_layer = Layer::new("conv", LayerKind::Conv(spec), LifParams::new(0.5, 0.3));
    let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(3);
    lif_layer.randomize_weights(&mut rng, 0.1);
    let mut izhi_layer = lif_layer.clone();
    izhi_layer.neuron = NeuronModel::Izhikevich(IzhiParams::regular_spiking());

    let cache = ProgramCache::new();
    let integrator = CostIntegrator::snitch();
    let executor = LayerExecutor::new(KernelVariant::SpikeStream, FpFormat::Fp16);

    let lif = executor.bind_symbolic(&cache, &integrator, 0, &lif_layer, 0.2, 0.15);
    let warm = cache.counters();
    assert_eq!(warm.emits, 1, "first model emits its program");

    // Same layer index, same rates, other model: a fresh emission, not a
    // hit on the LIF entry.
    let izhi = executor.bind_symbolic(&cache, &integrator, 0, &izhi_layer, 0.2, 0.15);
    let cold = cache.counters();
    assert_eq!(cold.emits, warm.emits + 1, "the other model emits fresh");
    assert_eq!(cold.hits, warm.hits, "no cross-model cache hit");
    assert_ne!(lif, izhi, "the two models price distinct programs");

    // Binding each model again is a pure hit on its own entry.
    executor.bind_symbolic(&cache, &integrator, 0, &lif_layer, 0.2, 0.15);
    executor.bind_symbolic(&cache, &integrator, 0, &izhi_layer, 0.2, 0.15);
    let steady = cache.counters();
    assert_eq!(steady.hits, cold.hits + 2, "each model hits its own entry");
    assert_eq!(steady.emits, cold.emits, "no further emissions");

    // Each cached cost is exactly what its own emitter's program integrates to.
    let price = |layer| {
        let program = executor.lower_symbolic(integrator.config(), layer, 0.2, 0.15);
        ServedCost::from(&integrator.integrate(&program))
    };
    assert_eq!(lif, price(&lif_layer));
    assert_eq!(izhi, price(&izhi_layer));
}

#[test]
fn steady_state_requests_grow_no_arena_buffers() {
    let plan = analytic_plan(12);
    let mut session = plan.open_session();
    // Warm-up: arenas size themselves to the workload.
    session.infer(&Request::batch(12));
    session.infer(&Request::batch(12).with_shards(4));
    let warm = session.stats();

    for _ in 0..4 {
        session.infer(&Request::batch(12));
        session.infer(&Request::batch(12).with_shards(4));
    }
    let steady = session.stats();
    assert_eq!(steady.runs, 10 * 12, "every sample ran through an arena");
    assert_eq!(steady.grows, warm.grows, "steady-state serving allocates no arena growth");
}

#[test]
fn steady_state_serving_is_lookup_only_and_allocation_free() {
    // The combined serving contract behind the context-owned integrator /
    // executor and the memoized costs: once a sample population is warm, a
    // request performs *no* emitter runs, *no* cost integrations (zero
    // emits — every binding is an exact-key hit on a memoized cost), and
    // *no* arena growth. Steady-state inference is a read-only walk over
    // already-priced bindings.
    let plan = analytic_plan(8);
    let units = plan.network().len() * 8;
    let mut session = plan.open_session();

    // Warm-up: bind every realized sparsity bucket and size the arenas.
    session.infer(&Request::batch(8));
    let warm = plan.programs().counters();
    let warm_len = plan.programs().len();
    let grows_warm = session.stats().grows;

    for _ in 0..5 {
        session.infer(&Request::batch(8));
    }

    let steady = plan.programs().counters();
    assert_eq!(steady.emits, warm.emits, "steady state runs the emitter zero times");
    assert_eq!(steady.rebinds, 0, "the cache has no tier between hit and emit");
    assert_eq!(steady.hits, warm.hits + 5 * units as u64, "every binding is a pure hit");
    assert_eq!(plan.programs().len(), warm_len, "no new cache entries");

    let stats = session.stats();
    assert_eq!(stats.runs, 6 * 8, "every sample ran through an arena");
    assert_eq!(stats.grows, grows_warm, "steady state allocates no arena growth");
}

#[test]
fn temporal_sessions_reuse_membrane_state_arenas_across_requests() {
    use spikestream::{NetworkChoice, TemporalEncoding};
    let (network, profile) = NetworkChoice::TinyCnn.build(7);
    let engine = Engine::new(network, profile);
    let config = InferenceConfig {
        timing: TimingModel::CycleLevel,
        batch: 2,
        seed: 9,
        ..InferenceConfig::paper(KernelVariant::SpikeStream, FpFormat::Fp16)
    }
    .temporal(3, TemporalEncoding::Rate);
    let plan = engine.compile(&config);
    let mut session = plan.open_session();

    let first = session.infer(&Request::batch(2).sequential());
    let grows_warm = session.stats().grows;
    for _ in 0..3 {
        // Membranes are reset per sample by the arena-owned scratch, so
        // repeated requests are bit-identical and allocation-free.
        let again = session.infer(&Request::batch(2).sequential());
        assert_eq!(again.to_json(), first.to_json());
    }
    let stats = session.stats();
    assert_eq!(stats.runs, 8);
    assert_eq!(stats.grows, grows_warm, "temporal scratch reuse reaches steady state");
}
