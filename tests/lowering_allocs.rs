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
use spikestream::{FpFormat, KernelVariant, Request, Scenario, TimingModel};
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
fn an_analytic_plan_draws_no_weight() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/scenarios/svgg11_fp16.toml");
    let (peak, report) = peak_heap_of(|| {
        let scenario = Scenario::from_file(&path).expect("the analytic S-VGG11 scenario parses");
        assert_eq!(scenario.config.timing, TimingModel::Analytic);
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
