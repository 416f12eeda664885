//! Heap allocations of the exact path. Lowering writes every work item
//! into a reused op buffer; its ops hold their SSRs and affine dimensions
//! inline, borrow their gather indices from the compressed input, and loop
//! over constant templates, and each layer's weights are quantized once per
//! (network, format). An emitter keeps no per-neuron currents: each SIMD
//! group's lane accumulators feed its neuron update, and only the output
//! spike map (pooled as it fills) is built. The op buffer also keeps the
//! conv emitter's active-channel lists and the dense encoding layer's
//! rounded image, pixel masks and row of dot products. So a warmed
//! cycle-level sample allocates a few times per layer and never per work
//! item.
//!
//! A network draws each layer's weights where they are read, so an analytic
//! plan, which reads none, holds none, and a cycle-level plan holds one
//! copy per layer, in the format it runs. Two heap budgets pin both.
//!
//! A warm analytic sample allocates nothing: every layer hits the plan's
//! program cache, which returns its 48-byte served cost by value, and the
//! report folds each layer in place from the session's buffer. A cache
//! entry is that cost and its 32-byte key, so a resident binding keeps a
//! bounded share of the heap.
//!
//! A counting global allocator counts allocations and live bytes per
//! thread, so the tests of this binary running in parallel do not see each
//! other's; every measured call runs on the test's own thread (sequential
//! requests are served on the calling thread).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::Path;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snitch_arch::{ClusterConfig, CostModel};
use snitch_sim::{ClusterModel, Interpreter};
use spikestream::{
    AnalyticBackend, EnergyModel, ExecutionBackend, FpFormat, KernelVariant, Request,
    SampleContext, Scenario, TimingModel,
};
use spikestream_ir::CostIntegrator;
use spikestream_kernels::{LayerExecutor, LayerInput, LayerScratch};
use spikestream_snn::encoding::{pad_image, synthetic_image};
use spikestream_snn::neuron::LifParams;
use spikestream_snn::tensor::{SpikeMap, TensorShape};
use spikestream_snn::{ConvSpec, Network, NetworkBuilder, Tensor3};

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed on this thread (a block freed on
    /// another thread counts there).
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The most `LIVE` has been since it was last reset.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Count one allocation if `allocates`, and `bytes` more live bytes.
fn count(allocates: bool, bytes: i64) {
    // `try_with`: a thread that is being torn down still frees memory.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + u64::from(allocates)));
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + bytes);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only const-initialized thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(true, layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(true, layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(true, new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(false, -(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Heap allocations (including reallocations) `f` makes on this thread.
fn allocations_of<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// Bytes of this thread's heap that `f` leaves live.
fn heap_kept_by(f: impl FnOnce()) -> i64 {
    let start = LIVE.with(Cell::get);
    f();
    LIVE.with(Cell::get) - start
}

/// The peak of this thread's live heap while `f` runs, in bytes above what
/// was live when it started.
fn peak_heap_of<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let start = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(start));
    let out = f();
    ((PEAK.with(Cell::get) - start) as u64, out)
}

const MIB: u64 = 1 << 20;

/// Peak live heap of compiling the analytic S-VGG11 scenario and serving 8
/// fresh samples: no weight is drawn (0.06 MiB measured). A network that
/// draws its 12.9M weights when it is built needs 49.3 MiB.
const ANALYTIC_PEAK_HEAP: u64 = 2 * MIB;

/// Peak live heap of building S-VGG11 and filling every layer's FP16 memo:
/// one f32 copy of its weights, drawn and rounded straight into the memo
/// (49.20 MiB measured). Keeping the unrounded weights beside it needs
/// 98.4 MiB.
const FP16_MEMO_PEAK_HEAP: u64 = 52 * MIB;

/// Upper bound on the allocations of one warmed tiny-cnn T=4 sample: 71
/// are measured; one more allocation per layer invocation (12 per sample)
/// crosses it, and so does a conv lowering that allocates its
/// active-channel lists per call (75).
const SAMPLE_ALLOCATIONS: u64 = 74;

/// Allocations of one warmed, unpooled conv lowering, sparse or dense: the
/// tile plan's two DMA request lists and the output spike map.
const CONV_LOWERING_ALLOCATIONS: u64 = 3;

/// Allocations of a warm, sequential one-sample request on the analytic
/// S-VGG11 plan: the report's layer vector, its 8 layer names and the
/// network name. Collecting each layer's samples into a vector before
/// averaging them makes 18.
const WARM_ANALYTIC_REQUEST_ALLOCATIONS: u64 = 10;

/// Live heap a warm analytic S-VGG11 plan keeps per resident binding once
/// 16,384 of them fill each of its 16 cache shards to half load: an 80-byte
/// entry and its control byte in 2,048-bucket maps (162 B measured).
/// Entries that hold the whole 112-byte program cost keep 290 B.
const HEAP_PER_RESIDENT_BINDING: i64 = 200;

fn svgg11_fp16() -> Scenario {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/scenarios/svgg11_fp16.toml");
    let scenario = Scenario::from_file(&path).expect("the analytic S-VGG11 scenario parses");
    assert_eq!(scenario.config.timing, TimingModel::Analytic);
    scenario
}

#[test]
fn a_warmed_temporal_sample_allocates_a_bounded_number_of_times() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/scenarios/tiny_temporal.toml");
    let scenario = Scenario::from_file(&path).expect("the tiny temporal scenario parses");
    assert_eq!(scenario.config.timesteps(), 4);
    assert_eq!(
        (scenario.config.variant, scenario.config.format),
        (KernelVariant::SpikeStream, FpFormat::Fp16)
    );
    let plan = scenario.compile().expect("the scenario compiles");
    let mut session = plan.open_session();
    // Warm the session arena, the kernel scratch and the weight memo.
    session.infer(&Request::samples(0..4).sequential());

    for sample in 100..108 {
        let (allocations, report) =
            allocations_of(|| session.infer(&Request::samples(sample..sample + 1).sequential()));
        assert!(report.total_cycles() > 0.0);
        assert!(
            allocations <= SAMPLE_ALLOCATIONS,
            "sample {sample} allocated {allocations} times (bound {SAMPLE_ALLOCATIONS})"
        );
    }
}

#[test]
fn a_warm_analytic_sample_allocates_only_its_report() {
    let scenario = svgg11_fp16();
    let plan = scenario.compile().expect("the scenario compiles");
    let mut session = plan.open_session();
    for sample in [0, 5, 1000] {
        let request = Request::samples(sample..sample + 1).sequential();
        let cold = session.infer(&request);
        let (allocations, warm) = allocations_of(|| session.infer(&request));
        assert_eq!(warm, cold, "sample {sample}: a hit prices what the emit priced");
        assert_eq!(
            allocations, WARM_ANALYTIC_REQUEST_ALLOCATIONS,
            "sample {sample}: a warm request allocates its report only"
        );
    }

    // The backend alone, on a context over the plan's cache.
    let engine = scenario.engine();
    let (cost, energy) = (CostModel::default(), EnergyModel::calibrated());
    let integrator = CostIntegrator::new(engine.cluster_config().clone(), cost.clone());
    let ctx = SampleContext {
        network: engine.network(),
        profile: engine.profile(),
        cluster: engine.cluster_config(),
        cost: &cost,
        energy: &energy,
        config: &scenario.config,
        programs: Some(plan.programs()),
        integrator: &integrator,
        executor: spikestream_kernels::LayerExecutor::new(
            scenario.config.variant,
            scenario.config.format,
        ),
    };
    let (mut out, mut scratch) = (Vec::new(), LayerScratch::new());
    AnalyticBackend.run_sample_with_scratch(&ctx, 7, &mut out, &mut scratch);
    let cold = std::mem::take(&mut out);
    out.reserve(cold.len());
    let (allocations, ()) =
        allocations_of(|| AnalyticBackend.run_sample_with_scratch(&ctx, 7, &mut out, &mut scratch));
    assert_eq!(out, cold);
    assert_eq!(allocations, 0, "a warm sample allocates nothing");
}

#[test]
fn a_resident_binding_keeps_a_bounded_heap() {
    let plan = svgg11_fp16().compile().expect("the scenario compiles");
    let kept = heap_kept_by(|| {
        let report = plan.open_session().infer(&Request::samples(0..2048).sequential());
        assert_eq!(report.batch, 2048);
    });
    let resident = plan.programs().len();
    assert_eq!(resident, 2048 * plan.network().len(), "every binding is fresh and resident");
    let per_binding = kept / resident as i64;
    assert!(
        per_binding <= HEAP_PER_RESIDENT_BINDING,
        "{per_binding} B kept per resident binding (bound {HEAP_PER_RESIDENT_BINDING} B)"
    );
}

#[test]
fn an_analytic_plan_draws_no_weight() {
    let (peak, report) = peak_heap_of(|| {
        let scenario = svgg11_fp16();
        let plan = scenario.compile().expect("the scenario compiles");
        let report = plan.open_session().infer(&Request::samples(0..8).sequential());
        report
    });
    assert_eq!(report.batch, 8);
    assert!(
        peak <= ANALYTIC_PEAK_HEAP,
        "peak live heap {:.2} MiB (bound {} MiB)",
        peak as f64 / MIB as f64,
        ANALYTIC_PEAK_HEAP / MIB
    );
}

#[test]
fn the_fp16_memo_is_the_one_copy_of_the_weights() {
    let (peak, weights) = peak_heap_of(|| {
        let net = Network::svgg11(7);
        (0..net.len()).map(|idx| net.quantized_weights(idx, FpFormat::Fp16).len()).sum::<usize>()
    });
    assert!(weights > 12_000_000, "every layer's memo is filled ({weights} weights)");
    assert!(
        peak <= FP16_MEMO_PEAK_HEAP,
        "peak live heap {:.2} MiB (bound {} MiB)",
        peak as f64 / MIB as f64,
        FP16_MEMO_PEAK_HEAP / MIB
    );
}

/// A one-conv-layer network with `hw x hw` output positions.
fn conv_network(hw: usize) -> (Network, SpikeMap) {
    let spec = ConvSpec {
        input: TensorShape::new(hw, hw, 16),
        out_channels: 16,
        kh: 3,
        kw: 3,
        stride: 1,
        padding: 1,
        pool: false,
    };
    let net = NetworkBuilder::new("conv")
        .conv("conv", spec, LifParams::new(0.5, 0.2))
        .build_with_random_weights(3, 0.2);
    let shape = spec.padded_input();
    let mut spikes = SpikeMap::silent(shape);
    let mut rng = StdRng::seed_from_u64(hw as u64);
    for h in 1..shape.h - 1 {
        for w in 1..shape.w - 1 {
            for c in 0..shape.c {
                if rng.gen_bool(0.3) {
                    spikes.set(h, w, c, true);
                }
            }
        }
    }
    (net, spikes)
}

/// A one-layer network whose spike-encoding conv has `hw x hw` output
/// positions and 12 output channels, and a padded image for it.
fn dense_network(hw: usize) -> (Network, Tensor3) {
    let spec = ConvSpec {
        input: TensorShape::new(hw, hw, 3),
        out_channels: 12,
        kh: 3,
        kw: 3,
        stride: 1,
        padding: 1,
        pool: false,
    };
    let mut net = NetworkBuilder::new("dense")
        .conv("conv", spec, LifParams::new(0.5, 0.2))
        .build_with_random_weights(5, 0.2);
    net.layers_mut()[0].encodes_input = true;
    let mut rng = StdRng::seed_from_u64(hw as u64);
    let image = synthetic_image(spec.input, &mut rng);
    (net, pad_image(&image, spec.padding))
}

/// Allocations of one warmed lowering of `net`'s only layer into an
/// interpreter.
fn lowering_allocations(executor: LayerExecutor, net: &Network, input: LayerInput<'_>) -> u64 {
    let config = ClusterConfig::default();
    let mut cluster = ClusterModel::new(config.clone(), CostModel::default());
    let mut scratch = LayerScratch::new();
    let lower = |scratch: &mut LayerScratch, cluster: &mut ClusterModel| {
        let mut interpreter = Interpreter::new(cluster, executor.format());
        executor.lower_exact(&config, net, 0, input, scratch, &mut interpreter)
    };
    let warm = lower(&mut scratch, &mut cluster);
    cluster.finish_phase();
    let (allocations, exec) = allocations_of(|| lower(&mut scratch, &mut cluster));
    assert_eq!(exec, warm, "the same input lowers the same way");
    allocations
}

#[test]
fn no_work_item_allocates() {
    // 64 and 256 output positions, one work item each: a per-item
    // allocation would show up as a difference of at least 192, and a
    // per-invocation buffer as a count above the plan and the output.
    let conv = [conv_network(8), conv_network(16)];
    let dense = [dense_network(8), dense_network(16)];
    for variant in [KernelVariant::Baseline, KernelVariant::SpikeStream] {
        for format in [FpFormat::Fp16, FpFormat::Fp8] {
            let executor = LayerExecutor::new(variant, format);
            let [small, large] = conv.each_ref().map(|(net, spikes)| {
                lowering_allocations(executor, net, LayerInput::Spikes(spikes))
            });
            assert_eq!(small, large, "conv {variant}/{format:?}: 8x8 vs 16x16 positions");
            assert_eq!(small, CONV_LOWERING_ALLOCATIONS, "conv {variant}/{format:?}");
            let [small, large] = dense
                .each_ref()
                .map(|(net, image)| lowering_allocations(executor, net, LayerInput::Image(image)));
            assert_eq!(small, large, "dense {variant}/{format:?}: 8x8 vs 16x16 positions");
            assert_eq!(small, CONV_LOWERING_ALLOCATIONS, "dense {variant}/{format:?}");
        }
    }
}
