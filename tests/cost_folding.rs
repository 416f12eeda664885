//! The tape contract: [`CostIntegrator::integrate`] compiles every work
//! item into a flat, constant-resolved tape, folds replicated items over
//! core-equivalence classes and prices the classes two at a time in
//! lockstep, and all of that must be *bit-for-bit* identical to
//! [`CostIntegrator::integrate_reference`], which walks the op tree of
//! every item on every core the long way. No tolerance, no rounding
//! allowance: the tape performs the same `f64` operations in the same
//! order, and a folded core copies the exit state of its class
//! representative, so any divergence at all means a tape op resolved a
//! constant differently, or the class key (share count + entry-state
//! bits) admitted two cores that were not actually interchangeable.
//!
//! Exact (non-replicated) programs run through the same tape with nothing
//! to fold, so the suite covers them too — cheaply, via the exact
//! emitters — alongside randomized symbolic programs across every layer
//! kind x `KernelVariant` x `FpFormat` x firing rate.
//!
//! The emitters fold too: an `Int` op is a whole run of integer
//! instructions counted per class, which both consumers price in one step.
//! Both sides of `ir_equivalence` interpret such runs, so the last property
//! here checks `Interpreter::item` on random exact items with mixed runs
//! against `WorkerCoreModel::exec` of each run's classes one at a time.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snitch_arch::{ClusterConfig, FpOp, IntOp, SsrId};
use snitch_sim::{ClusterModel, Interpreter};
use spikestream::{
    CostModel, EnergyModel, Engine, FpFormat, InferenceConfig, KernelVariant, SampleContext,
    TemporalEncoding,
};
use spikestream_ir::{
    AffineDims, CodeRegion, ComputePhase, CostIntegrator, IndexStream, IntMix, KernelOp, LoopBody,
    Phase, ProgramCost, ProgramSink, Ssrs, StreamProgram, StreamSpec, WorkItem,
};
use spikestream_kernels::{LayerExecutor, OpBuffer};
use spikestream_snn::neuron::LifParams;
use spikestream_snn::tensor::TensorShape;
use spikestream_snn::{ConvSpec, Layer, LayerKind, LinearSpec, PoolSpec};

const ALL_VARIANTS: [KernelVariant; 2] = [KernelVariant::Baseline, KernelVariant::SpikeStream];
const ALL_FORMATS: [FpFormat; 3] = [FpFormat::Fp32, FpFormat::Fp16, FpFormat::Fp8];

/// Assert the tape and reference integrations agree bit-for-bit.
///
/// `PartialEq` on `ProgramCost` compares `f64` fields with `==`, which
/// would let `-0.0` pass for `0.0`; the `Debug` comparison closes that
/// hole and doubles as a readable diff when a field diverges.
fn assert_fold_exact(label: &str, integrator: &CostIntegrator, program: &StreamProgram<'_>) {
    let folded = integrator.integrate(program);
    let reference = integrator.integrate_reference(program);
    assert_eq!(folded, reference, "{label}: tape vs reference integration");
    assert_eq!(
        format!("{folded:?}"),
        format!("{reference:?}"),
        "{label}: tape vs reference (bit-level)"
    );
}

/// An item with the op shapes no emitter produces: a loop whose body ends
/// in an `Int` op right before another `Int` op, a loop that never runs,
/// a barrier, fractional FP repetitions, an empty stream, a two-SSR
/// affine stream, resolved gather indices that conflict on a bank, and
/// integer runs mixing classes: at the top level, in a straight-line loop
/// body, in a streaming loop body and scaled by a fraction.
fn hand_built_ops() -> Vec<KernelOp<'static>> {
    static IOTA: [u16; 64] = {
        let mut iota = [0; 64];
        let mut i = 0;
        while i < iota.len() {
            iota[i] = i as u16;
            i += 1;
        }
        iota
    };
    let gather = |n: usize| StreamSpec::Indirect {
        index_base: 0x100,
        index_bytes: 2,
        data_base: 0x1000,
        elem_bytes: 8,
        indices: IndexStream::Exact(&IOTA[..n]),
    };
    let affine = |base: u32| StreamSpec::Affine {
        base,
        dims: AffineDims::new(&[(8, 5), (64, 3)]),
        elem_bytes: 8,
    };
    let stream = |ssrs: Ssrs<'static>| KernelOp::Stream { ssrs, op: FpOp::Fma };
    let one = |spec| stream(Ssrs::One((SsrId::Ssr0, spec)));
    let run = KernelOp::int(&[IntOp::Amo, IntOp::Branch, IntOp::Alu, IntOp::Load, IntOp::Alu]);
    vec![
        KernelOp::amo(),
        KernelOp::Loop { body: vec![one(gather(40)), KernelOp::alu()].into(), reps: 3.0 },
        KernelOp::load(),
        run.clone(),
        KernelOp::Loop { body: vec![one(gather(9))].into(), reps: 0.0 },
        KernelOp::fp(FpOp::Add).times(2.5),
        one(gather(0)),
        KernelOp::Barrier,
        stream(Ssrs::Two([(SsrId::Ssr0, affine(0x2000)), (SsrId::Ssr1, affine(0x4000))])),
        KernelOp::store().times(0.75),
        KernelOp::int(&[IntOp::Mul, IntOp::Csr, IntOp::Move, IntOp::Store]).times(1.25),
        KernelOp::Loop { body: vec![KernelOp::alu(), KernelOp::fp(FpOp::Mul)].into(), reps: 6.0 },
        KernelOp::Loop {
            body: vec![run.clone(), KernelOp::fp(FpOp::Cmp), run.clone().times(2.0)].into(),
            reps: 4.0,
        },
        KernelOp::Loop { body: vec![one(gather(12)), run.times(3.0)].into(), reps: 2.0 },
    ]
}

fn hand_built_program(instances: &[f64]) -> StreamProgram<'static> {
    let mut program = StreamProgram::new(FpFormat::Fp16);
    program.push(Phase::Compute(ComputePhase {
        code: &[CodeRegion { id: 0x77, bytes: 512 }],
        items: instances.iter().map(|&n| WorkItem::replicated(n, hand_built_ops())).collect(),
    }));
    program
}

fn conv_layer(in_c: usize, out_c: usize, hw: usize, seed: u64) -> Layer {
    let spec = ConvSpec {
        input: TensorShape::new(hw, hw, in_c),
        out_channels: out_c,
        kh: 3,
        kw: 3,
        stride: 1,
        padding: 1,
        pool: false,
    };
    let mut layer = Layer::new("conv", LayerKind::Conv(spec), LifParams::new(0.5, 0.3));
    let mut rng = StdRng::seed_from_u64(seed);
    layer.randomize_weights(&mut rng, 0.1);
    layer
}

fn pool_layer(hw: usize, c: usize) -> Layer {
    let spec = PoolSpec { input: TensorShape::new(hw, hw, c), window: 2 };
    Layer::new("pool", LayerKind::AvgPool(spec), LifParams::default())
}

fn linear_layer(in_features: usize, out_features: usize, seed: u64) -> Layer {
    let spec = LinearSpec { in_features, out_features };
    let mut layer = Layer::new("fc", LayerKind::Linear(spec), LifParams::new(0.5, 0.15));
    let mut rng = StdRng::seed_from_u64(seed);
    layer.randomize_weights(&mut rng, 0.1);
    layer
}

/// Every layer of the paper's S-VGG11 lowered symbolically, for every
/// variant and format, at its profile rate and at the rates of 16 fixed
/// fresh samples: each sample's jittered single-shot rates and its three
/// step rates of a T=3 temporal run, drawn exactly as the analytic backend
/// draws them. This is the fixed-seed differential run CI executes on
/// every push; the proptests below widen the same contract to randomized
/// geometry.
#[test]
fn svgg11_symbolic_programs_fold_bit_for_bit() {
    let engine = Engine::svgg11(5);
    let integrator = CostIntegrator::snitch();
    let (cost, energy) = (CostModel::default(), EnergyModel::calibrated());
    let n = engine.network().len();
    for variant in ALL_VARIANTS {
        for format in ALL_FORMATS {
            let config =
                InferenceConfig::paper(variant, format).temporal(3, TemporalEncoding::Direct);
            let ctx = SampleContext {
                network: engine.network(),
                profile: engine.profile(),
                cluster: integrator.config(),
                cost: &cost,
                energy: &energy,
                config: &config,
                programs: None,
                integrator: &integrator,
                executor: LayerExecutor::new(variant, format),
            };
            // Per-layer input rates of every binding: the profile, then
            // each fresh sample single-shot and at each step.
            let mut bindings = vec![("profile".to_string(), engine.profile().rates.clone())];
            for s in 0..16 {
                let sample = 1_000_000 + 7_919 * s;
                let rates = (0..n).map(|idx| ctx.sample_rate(idx, sample)).collect();
                bindings.push((format!("sample {sample}"), rates));
                for step in 0..3 {
                    let rates = (0..n).map(|idx| ctx.sample_rate_at(idx, sample, step)).collect();
                    bindings.push((format!("sample {sample} step {step}"), rates));
                }
            }
            for (binding, rates) in &bindings {
                for (idx, layer) in engine.network().layers().iter().enumerate() {
                    let input_rate = rates[idx];
                    let output_rate = rates[(idx + 1).min(n - 1)];
                    let program = ctx.executor.lower_symbolic(
                        integrator.config(),
                        layer,
                        input_rate,
                        output_rate,
                    );
                    assert_fold_exact(
                        &format!("svgg11/{}/{variant}/{format:?}/{binding}", layer.name),
                        &integrator,
                        &program,
                    );
                }
            }
        }
    }
}

#[test]
fn folding_is_exact_under_single_core_and_fractional_shares() {
    // Degenerate cluster shapes stress the remainder-share classes: one
    // worker core (nothing to fold, every item priced on a single lane)
    // and the default eight-core cluster. On eight cores the 6x6-output
    // convs split 36 instances into three classes (core 0 with the
    // refill, cores 1-3 at k=5, cores 4-7 at k=4: one lockstep pair plus
    // one odd class priced alone), and the 2x2-output conv gives cores
    // 0-3 one instance each (k=1) while cores 4-7 stay idle. Scaling the
    // instance counts down to fractional values adds the k < 1
    // scaled-delta path and pairs whose lanes disagree on the second
    // execution.
    let single = ClusterConfig { worker_cores: 1, ..ClusterConfig::default() };
    let integrators =
        [CostIntegrator::snitch(), CostIntegrator::new(single, snitch_arch::CostModel::default())];
    let layers = [conv_layer(8, 8, 6, 11), conv_layer(16, 20, 6, 12), conv_layer(8, 12, 2, 13)];
    for integrator in &integrators {
        for instances in [36.0, 13.32, 9.0, 4.0, 0.4] {
            assert_fold_exact(
                &format!("hand-built/cores={}/{instances}", integrator.config().worker_cores),
                integrator,
                &hand_built_program(&[instances, 3.0]),
            );
        }
        for layer in &layers {
            let LayerKind::Conv(spec) = &layer.kind else { unreachable!() };
            for rate in [0.0005, 0.01, 0.2, 0.9] {
                let program = LayerExecutor::new(KernelVariant::SpikeStream, FpFormat::Fp16)
                    .lower_symbolic(integrator.config(), layer, rate, rate * 0.8);
                for scale in [1.0, 0.37, 0.11] {
                    let mut scaled = program.clone();
                    for phase in &mut scaled.phases {
                        if let Phase::Compute(c) = phase {
                            c.items.iter_mut().for_each(|item| item.instances *= scale);
                        }
                    }
                    assert_fold_exact(
                        &format!(
                            "conv/{}x{}->{}/cores={}/rate={rate}/scale={scale}",
                            spec.input.h,
                            spec.input.c,
                            spec.out_channels,
                            integrator.config().worker_cores
                        ),
                        integrator,
                        &scaled,
                    );
                }
            }
        }
    }
}

proptest! {
    #[test]
    fn random_symbolic_conv_programs_fold_bit_for_bit(
        in_c in 3usize..32,
        out_c in 4usize..48,
        hw in 4usize..14,
        input_rate in 0.001f64..0.95,
        output_rate in 0.001f64..0.95,
        seed in any::<u64>(),
    ) {
        let integrator = CostIntegrator::snitch();
        let mut layer = conv_layer(in_c, out_c, hw, seed);
        // Cover the dense-encoding lowering on a slice of the seed space:
        // its symbolic program has no rate-scaled gather, so its folded
        // classes collapse differently.
        layer.encodes_input = seed % 4 == 0;
        for variant in ALL_VARIANTS {
            let format = ALL_FORMATS[(seed % 3) as usize];
            let program = LayerExecutor::new(variant, format)
                .lower_symbolic(integrator.config(), &layer, input_rate, output_rate);
            let folded = integrator.integrate(&program);
            let reference = integrator.integrate_reference(&program);
            prop_assert_eq!(&folded, &reference);
            prop_assert_eq!(format!("{:?}", folded), format!("{:?}", reference));
        }
    }

    #[test]
    fn random_symbolic_fc_and_pool_programs_fold_bit_for_bit(
        features in 16usize..512,
        out_features in 4usize..64,
        hw in 4usize..16,
        channels in 2usize..32,
        input_rate in 0.001f64..0.95,
        output_rate in 0.001f64..0.95,
        seed in any::<u64>(),
    ) {
        let integrator = CostIntegrator::snitch();
        let layers = [
            linear_layer(features, out_features, seed),
            pool_layer(hw.div_ceil(2) * 2, channels),
        ];
        for variant in ALL_VARIANTS {
            let format = ALL_FORMATS[(seed % 3) as usize];
            for layer in &layers {
                let program = LayerExecutor::new(variant, format)
                    .lower_symbolic(integrator.config(), layer, input_rate, output_rate);
                let folded = integrator.integrate(&program);
                let reference = integrator.integrate_reference(&program);
                prop_assert_eq!(&folded, &reference);
                prop_assert_eq!(format!("{:?}", folded), format!("{:?}", reference));
            }
        }
    }
}

/// Exact programs carry no replicated items, so nothing folds: every item
/// is priced on one core, but through the tape (with its resolved
/// gather-index bank conflicts) on one side and the tree walk on the
/// other.
#[test]
fn exact_programs_are_untouched_by_folding() {
    use rand::Rng;
    use spikestream_snn::tensor::SpikeMap;
    use spikestream_snn::{CompressedIfmap, NeuronState};

    let layer = conv_layer(8, 12, 6, 21);
    let LayerKind::Conv(spec) = layer.kind else { unreachable!() };
    let mut rng = StdRng::seed_from_u64(22);
    let shape = spec.padded_input();
    let mut map = SpikeMap::silent(shape);
    for h in 1..shape.h - 1 {
        for w in 1..shape.w - 1 {
            for c in 0..shape.c {
                if rng.gen_bool(0.3) {
                    map.set(h, w, c, true);
                }
            }
        }
    }
    let input = CompressedIfmap::from_spike_map(&map);
    let mut state = NeuronState::lif(spec.conv_output().len());
    let mut program = StreamProgram::new(FpFormat::Fp16);
    LayerExecutor::new(KernelVariant::SpikeStream, FpFormat::Fp16).lower_conv(
        &ClusterConfig::default(),
        &layer,
        &layer.quantize_weights(FpFormat::Fp16),
        &input,
        &mut state,
        &mut OpBuffer::new(),
        &mut program,
    );
    assert_fold_exact("conv/exact", &CostIntegrator::snitch(), &program);
    assert_fold_exact(
        "hand-built/exact",
        &CostIntegrator::snitch(),
        &hand_built_program(&[1.0; 11]),
    );
}

/// The reference path is not an alias: a quick structural check that the
/// costs it produces carry real work, so a bug that made both paths
/// return zeros could not silently satisfy the differential suite.
#[test]
fn differential_suite_integrates_nonzero_work() {
    let integrator = CostIntegrator::snitch();
    let layer = conv_layer(16, 16, 8, 3);
    let program = LayerExecutor::new(KernelVariant::SpikeStream, FpFormat::Fp16).lower_symbolic(
        integrator.config(),
        &layer,
        0.25,
        0.2,
    );
    let cost: ProgramCost = integrator.integrate_reference(&program);
    assert!(cost.compute_cycles > 0);
    assert!(cost.flops > 0.0);
    assert!(cost.stream_elements > 0.0);
}

/// One random exact op of [`random_exact_item`]: mostly integer runs of
/// up to five instructions of random classes (sometimes repeated), so
/// adjacent runs form too, between FP ops, streams over slices of `idcs`,
/// loops (straight-line or streaming) and barriers.
fn random_exact_op<'a>(rng: &mut StdRng, idcs: &'a [u16], depth: u32) -> KernelOp<'a> {
    const FP_OPS: [FpOp; 8] = [
        FpOp::Add,
        FpOp::Mul,
        FpOp::Fma,
        FpOp::Cmp,
        FpOp::Cvt,
        FpOp::Load,
        FpOp::Store,
        FpOp::Move,
    ];
    let gather = |rng: &mut StdRng| {
        let start = rng.gen_range(0..idcs.len());
        let end = rng.gen_range(start..=idcs.len());
        StreamSpec::Indirect {
            index_base: rng.gen_range(0..64u32) * 2,
            index_bytes: 2,
            data_base: 0x1000 + rng.gen_range(0..64u32) * 8,
            elem_bytes: 8,
            indices: IndexStream::Exact(&idcs[start..end]),
        }
    };
    let affine = |rng: &mut StdRng| {
        let dims = [(8, rng.gen_range(0..6u32)), (64, rng.gen_range(1..4u32))];
        let n = rng.gen_range(1..=2usize);
        StreamSpec::Affine { base: 0x2000, dims: AffineDims::new(&dims[..n]), elem_bytes: 8 }
    };
    match rng.gen_range(0..16u32) {
        0..=7 => {
            let run: Vec<IntOp> = (0..rng.gen_range(0..6))
                .map(|_| IntOp::ALL[rng.gen_range(0..IntOp::COUNT)])
                .collect();
            KernelOp::int(&run).times(rng.gen_range(0..4u32) as f64)
        }
        8..=10 => KernelOp::Fp {
            op: FP_OPS[rng.gen_range(0..FP_OPS.len())],
            reps: rng.gen_range(0..3u32) as f64,
        },
        11 | 12 => KernelOp::Stream {
            ssrs: match rng.gen_range(0..3u32) {
                0 => Ssrs::One((SsrId::Ssr0, gather(rng))),
                1 => Ssrs::One((SsrId::Ssr2, affine(rng))),
                _ => Ssrs::Two([(SsrId::Ssr0, affine(rng)), (SsrId::Ssr1, gather(rng))]),
            },
            op: FP_OPS[rng.gen_range(0..3)],
        },
        13 | 14 if depth == 0 => {
            let body = (0..rng.gen_range(1..5)).map(|_| random_exact_op(rng, idcs, 1)).collect();
            KernelOp::Loop { body: LoopBody::Built(body), reps: rng.gen_range(0..4u32) as f64 }
        }
        _ => KernelOp::Barrier,
    }
}

/// A random exact work item of up to 40 ops.
fn random_exact_item<'a>(rng: &mut StdRng, idcs: &'a [u16]) -> Vec<KernelOp<'a>> {
    (0..rng.gen_range(0..40)).map(|_| random_exact_op(rng, idcs, 0)).collect()
}

/// `ops` with every integer run, loop bodies included, split into one
/// one-class `Int` op per class it counts, in class order.
fn one_class_at_a_time<'a>(ops: &[KernelOp<'a>]) -> Vec<KernelOp<'a>> {
    let mut out = Vec::new();
    for op in ops {
        match op {
            KernelOp::Int(run) => out.extend(IntOp::ALL.into_iter().filter_map(|class| {
                let n = run.count(class);
                (n != 0.0).then(|| KernelOp::Int(IntMix::of(&[class]).times(n)))
            })),
            KernelOp::Loop { body, reps } => out.push(KernelOp::Loop {
                body: LoopBody::Built(one_class_at_a_time(body)),
                reps: *reps,
            }),
            op => out.push(op.clone()),
        }
    }
    out
}

proptest! {
    #[test]
    fn interpreting_an_item_folds_integer_runs_exactly(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let formats = [FpFormat::Fp64, FpFormat::Fp32, FpFormat::Fp16, FpFormat::Fp8];
        let format = formats[rng.gen_range(0..formats.len())];
        let idcs: Vec<u16> = (0..48).map(|_| rng.gen_range(0..512)).collect();
        let items: Vec<_> = (0..12).map(|_| random_exact_item(&mut rng, &idcs)).collect();

        let new_cluster = || ClusterModel::new(ClusterConfig::default(), CostModel::default());
        let mut folded = new_cluster();
        let mut interpreter = Interpreter::new(&mut folded, format);
        interpreter.compute(&[]);
        for ops in &items {
            interpreter.item(ops);
        }

        // Op by op, each integer run one class at a time, on the core the
        // interpreter's least-busy rule picks.
        let mut reference = new_cluster();
        for ops in &items {
            let core = reference.least_busy_core();
            for op in &one_class_at_a_time(ops) {
                reference.core_mut(core).exec(op, format);
            }
        }

        for (core, (a, b)) in folded.cores().iter().zip(reference.cores()).enumerate() {
            prop_assert_eq!(
                format!("{:?}", a.counters()),
                format!("{:?}", b.counters()),
                "seed {}: core {} counters",
                seed,
                core
            );
            prop_assert_eq!(a.int_time(), b.int_time(), "seed {}: core {} int_time", seed, core);
            prop_assert_eq!(a.fpu_time(), b.fpu_time(), "seed {}: core {} fpu_time", seed, core);
        }
    }
}
