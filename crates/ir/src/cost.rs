//! Symbolic cost integration over a stream program.
//!
//! The [`CostIntegrator`] prices a [`StreamProgram`] with the same
//! per-operation costs the `snitch-sim` worker-core model charges when it
//! interprets the program: decoupled integer/FPU pipelines, FREP sequencer
//! back-pressure, stream startup and sustained delivery intervals, bank
//! conflicts (pairwise for resolved gather indices, an expected cross-core
//! term otherwise), instruction-cache refills, and the DMA engine's
//! serialization and double-buffer overlap. On an *exact* program the
//! integrator therefore reproduces the interpreter's instruction, FLOP,
//! stream-element and DMA-byte totals exactly, and its cycle counts to
//! within the distribution error of work stealing; on a *symbolic* program
//! (fractional repetition counts, expected-length streams) it degrades
//! gracefully into the closed-form expectation, evaluating replicated work
//! items twice and extrapolating the steady-state deltas instead of
//! unrolling every instance.
//!
//! [`CostIntegrator::integrate`] never walks `KernelOp` trees. It compiles
//! each work item into a flat, constant-resolved tape: an `Int` run
//! becomes its one `(cycles, instructions)` pair, a straight-line loop its
//! body sums, a `Stream` op its resolved SSR constants, and any other loop
//! an index range evaluated `reps` times. A replicated item is folded
//! over core-equivalence classes: cores entering it with bitwise-identical
//! state and instance share are sorted into classes first (typically the
//! refill-paying core 0 and everyone else), then the classes are priced
//! two at a time in lockstep, so their independent dependency chains
//! overlap, and every core copies its class's exit state. The tape
//! evaluates the same `f64` operations in the same order as the tree walk,
//! so the results are bit-identical.
//!
//! [`CostIntegrator::integrate_reference`] is that tree walk, per core and
//! unfolded, resolving every op's constants again on each visit. It exists
//! only as the oracle the tape is checked against.
//!
//! This replaces the per-kernel closed-form loop math the repository used
//! to carry in `spikestream-kernels/src/analytic.rs`: the loop structure
//! now lives in the emitters (once), and this module only knows how to
//! price IR operations.

use snitch_arch::isa::{FpOp, IntOp};
use snitch_arch::{ClusterConfig, CostModel};
use snitch_mem::dma::DmaDirection;
use snitch_mem::{BankConflictModel, DmaEngine, InstructionCache};

use crate::program::{
    CodeRegion, IndexStream, KernelOp, Phase, StreamProgram, StreamSpec, WorkItem,
};

/// Maximum number of FREP regions the integer core may queue ahead of the
/// FPU before it stalls on the sequencer buffer (mirrors the simulator).
const MAX_OUTSTANDING_FREPS: usize = 2;

/// Integrated execution statistics of one program.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramCost {
    /// Program runtime in cycles: slowest core or last DMA completion,
    /// never zero.
    pub cycles: u64,
    /// Compute-only duration (slowest worker core, including any prologue
    /// DMA wait), never zero.
    pub compute_cycles: u64,
    /// Cycle at which the DMA engine finishes its last transfer.
    pub dma_cycles: u64,
    /// Summed duration of all DMA transfers (overlap-free busy time).
    pub dma_busy_cycles: u64,
    /// Useful FPU issue slots summed over all cores.
    pub fpu_busy_cycles: f64,
    /// Average per-core FPU utilization (0..=1).
    pub fpu_utilization: f64,
    /// Average per-core instructions per cycle.
    pub ipc: f64,
    /// Integer instructions summed over all cores.
    pub int_instrs: f64,
    /// FP instructions summed over all cores.
    pub fp_instrs: f64,
    /// Scalar FLOPs summed over all cores.
    pub flops: f64,
    /// SSR configurations summed over all cores.
    pub ssr_configs: f64,
    /// Stream elements delivered, summed over all cores.
    pub stream_elements: f64,
    /// Bytes moved into the scratchpad.
    pub dma_bytes_in: u64,
    /// Bytes moved out of the scratchpad.
    pub dma_bytes_out: u64,
}

/// Numeric per-core pipeline state of the integration.
#[derive(Debug, Clone, Copy, Default)]
struct CoreState {
    int_time: f64,
    fpu_time: f64,
    fpu_last: f64,
    busy: f64,
    int_instrs: f64,
    fp_instrs: f64,
    flops: f64,
    ssr_configs: f64,
    elements: f64,
    conflict_carry: f64,
    /// Completion times of the queued FREP regions, oldest first. Slots at
    /// and past `queued` hold `0.0`, so equal queues are equal bitwise.
    freps: [f64; MAX_OUTSTANDING_FREPS],
    queued: usize,
}

impl CoreState {
    /// Phase time as seen by this core (mirrors `PerfCounters::total_cycles`).
    fn total(&self) -> f64 {
        self.int_time.max(self.fpu_last)
    }

    /// Steady-state delta between two successive snapshots.
    fn delta(&self, earlier: &CoreState) -> CoreState {
        CoreState {
            int_time: self.int_time - earlier.int_time,
            fpu_time: self.fpu_time - earlier.fpu_time,
            fpu_last: self.fpu_last - earlier.fpu_last,
            busy: self.busy - earlier.busy,
            int_instrs: self.int_instrs - earlier.int_instrs,
            fp_instrs: self.fp_instrs - earlier.fp_instrs,
            flops: self.flops - earlier.flops,
            ssr_configs: self.ssr_configs - earlier.ssr_configs,
            elements: self.elements - earlier.elements,
            ..CoreState::default()
        }
    }

    /// Bitwise equality over every field, including the FREP queue.
    /// Deliberately stricter than `==` on `f64` (it distinguishes `-0.0`
    /// from `0.0` and matches NaNs with identical payloads): two states
    /// that compare equal here are interchangeable for any further
    /// integration, which is what makes the replicated-item fold exact.
    fn bits_eq(&self, other: &CoreState) -> bool {
        self.int_time.to_bits() == other.int_time.to_bits()
            && self.fpu_time.to_bits() == other.fpu_time.to_bits()
            && self.fpu_last.to_bits() == other.fpu_last.to_bits()
            && self.busy.to_bits() == other.busy.to_bits()
            && self.int_instrs.to_bits() == other.int_instrs.to_bits()
            && self.fp_instrs.to_bits() == other.fp_instrs.to_bits()
            && self.flops.to_bits() == other.flops.to_bits()
            && self.ssr_configs.to_bits() == other.ssr_configs.to_bits()
            && self.elements.to_bits() == other.elements.to_bits()
            && self.conflict_carry.to_bits() == other.conflict_carry.to_bits()
            && self.queued == other.queued
            && self.freps.iter().zip(&other.freps).all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// Extrapolate `factor` more steady-state iterations onto this state.
    fn extrapolate(&mut self, delta: &CoreState, factor: f64) {
        self.int_time += delta.int_time * factor;
        self.fpu_time += delta.fpu_time * factor;
        self.fpu_last += delta.fpu_last * factor;
        self.busy += delta.busy * factor;
        self.int_instrs += delta.int_instrs * factor;
        self.fp_instrs += delta.fp_instrs * factor;
        self.flops += delta.flops * factor;
        self.ssr_configs += delta.ssr_configs * factor;
        self.elements += delta.elements * factor;
    }

    /// Scale the work done since `entry` (one execution of an item) down
    /// to a fractional copy `k`, keeping the FREP queue and conflict carry
    /// the full execution left behind.
    fn scale_since(&mut self, entry: &CoreState, k: f64) {
        let d = self.delta(entry);
        let mut scaled = *entry;
        scaled.extrapolate(&d, k);
        scaled.freps = self.freps;
        scaled.queued = self.queued;
        scaled.conflict_carry = self.conflict_carry;
        *self = scaled;
    }

    /// Join the integer pipeline with all outstanding FP work.
    fn join(&mut self) {
        self.int_time = self.int_time.max(self.fpu_time);
        self.freps = [0.0; MAX_OUTSTANDING_FREPS];
        self.queued = 0;
    }

    /// Sequencer back-pressure of an FREP launch: retire the regions that
    /// finished by now, then wait for the oldest one if the queue is full.
    fn await_frep_slot(&mut self) {
        while self.queued > 0 && self.freps[0] <= self.int_time {
            self.pop_frep();
        }
        if self.queued >= MAX_OUTSTANDING_FREPS {
            let oldest = self.pop_frep();
            if oldest > self.int_time {
                self.int_time = oldest;
            }
        }
    }

    fn pop_frep(&mut self) -> f64 {
        let oldest = self.freps[0];
        self.freps.copy_within(1.., 0);
        self.freps[MAX_OUTSTANDING_FREPS - 1] = 0.0;
        self.queued -= 1;
        oldest
    }

    fn push_frep(&mut self, busy_end: f64) {
        self.freps[self.queued] = busy_end;
        self.queued += 1;
    }
}

/// Integrates the architectural cost model over stream programs.
#[derive(Debug, Clone)]
pub struct CostIntegrator {
    config: ClusterConfig,
    cost: CostModel,
}

impl CostIntegrator {
    /// Create an integrator for the given cluster and cost model.
    pub fn new(config: ClusterConfig, cost: CostModel) -> Self {
        CostIntegrator { config, cost }
    }

    /// Integrator with the default Snitch cluster parameters.
    pub fn snitch() -> Self {
        Self::new(ClusterConfig::default(), CostModel::default())
    }

    /// The cluster configuration in use.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Integrate one program into its predicted execution statistics.
    ///
    /// Each work item is compiled into a flat tape with every per-op
    /// constant resolved, and the tape is evaluated. Replicated items are
    /// folded over core-equivalence classes (share count plus entry-state
    /// bits), and the classes are priced two at a time in lockstep. The
    /// tape performs the same `f64` operations in the same order as
    /// [`CostIntegrator::integrate_reference`], so the two are
    /// bit-identical.
    pub fn integrate(&self, program: &StreamProgram) -> ProgramCost {
        let banks = BankConflictModel::new(&self.config);
        let mut tape = Tape::new(&self.cost, &banks, program.format.simd_lanes() as f64);
        self.integrate_with(program, |states, icache, code, item| {
            tape.compile(&item.ops);
            if item.instances == 1.0 {
                let j = claim_core(states, icache, code);
                tape.run(std::array::from_mut(&mut states[j]));
            } else {
                tape.replicate(states, icache, code, item.instances);
            }
        })
    }

    /// The reference integration: walks the `KernelOp` tree of every item
    /// and prices every replicated item on every core individually (exec
    /// twice and extrapolate). It exists only as the oracle
    /// [`CostIntegrator::integrate`] is tested against bit for bit.
    pub fn integrate_reference(&self, program: &StreamProgram) -> ProgramCost {
        let banks = BankConflictModel::new(&self.config);
        let lanes = program.format.simd_lanes() as f64;
        self.integrate_with(program, |states, icache, code, item| {
            if item.instances == 1.0 {
                let j = claim_core(states, icache, code);
                self.exec_item(&mut states[j], item, &banks, lanes);
            } else {
                self.replicate_item(states, item, &banks, icache, code, lanes);
            }
        })
    }

    /// The phase skeleton both paths share: DMA transfers, the prologue
    /// floor and the end-of-phase barrier. `price` charges one work item
    /// of a compute phase to the cores.
    fn integrate_with(
        &self,
        program: &StreamProgram,
        mut price: impl FnMut(&mut [CoreState], &mut InstructionCache, &[CodeRegion], &WorkItem),
    ) -> ProgramCost {
        let mut states = vec![CoreState::default(); self.config.worker_cores];
        let mut icache = InstructionCache::new(&self.config, self.cost.icache_refill);
        let mut dma = DmaEngine::new(&self.config);
        let mut prologue_floor = 0.0f64;

        for phase in &program.phases {
            match phase {
                Phase::Dma(d) => {
                    let at = if d.direction == DmaDirection::Out && !d.double_buffered {
                        states.iter().map(CoreState::total).fold(0.0, f64::max).ceil() as u64
                    } else {
                        0
                    };
                    let t = dma.issue(d.request(), at);
                    if d.direction == DmaDirection::In && !d.double_buffered {
                        prologue_floor = prologue_floor.max(t.complete_cycle as f64);
                    }
                }
                Phase::Compute(c) => {
                    // Every core waits for the prologue tile loads before
                    // computing.
                    for core in states.iter_mut() {
                        core.int_time = core.int_time.max(prologue_floor);
                    }
                    // Single-instance items (the exact lowerings) replay
                    // precisely; replicated items (the symbolic lowerings)
                    // are linearized so integration stays O(program size)
                    // regardless of layer size.
                    for item in &c.items {
                        price(&mut states, &mut icache, c.code, item);
                    }
                    // Implicit end-of-phase barrier on every core.
                    for core in states.iter_mut() {
                        core.join();
                    }
                }
            }
        }

        self.finish(&states, &dma, program)
    }

    /// Distribute `item.instances` identical copies over the cores without
    /// unrolling them: evaluate the item twice per core and extrapolate the
    /// steady-state delta for the remaining instances.
    fn replicate_item(
        &self,
        states: &mut [CoreState],
        item: &WorkItem,
        banks: &BankConflictModel,
        icache: &mut InstructionCache,
        code: &[CodeRegion],
        lanes: f64,
    ) {
        let cores = states.len();
        for (j, core) in states.iter_mut().enumerate() {
            let k = core_share(item.instances, cores, j);
            if k <= 0.0 {
                continue;
            }
            fetch_code(icache, code, core);
            self.replicate_on_core(core, item, k, banks, lanes);
        }
    }

    /// Charge `k` instances of `item` to one core: exec once (scaling down
    /// a fractional copy) or twice plus a steady-state extrapolation.
    fn replicate_on_core(
        &self,
        core: &mut CoreState,
        item: &WorkItem,
        k: f64,
        banks: &BankConflictModel,
        lanes: f64,
    ) {
        let s0 = *core;
        self.exec_item(core, item, banks, lanes);
        if k <= 1.0 {
            if k < 1.0 {
                core.scale_since(&s0, k);
            }
            return;
        }
        let s1 = *core;
        self.exec_item(core, item, banks, lanes);
        let d = core.delta(&s1);
        core.extrapolate(&d, k - 2.0);
    }

    fn exec_item(
        &self,
        core: &mut CoreState,
        item: &WorkItem,
        banks: &BankConflictModel,
        lanes: f64,
    ) {
        for op in &item.ops {
            self.exec_op(core, op, banks, lanes);
        }
    }

    fn exec_op(&self, core: &mut CoreState, op: &KernelOp, banks: &BankConflictModel, lanes: f64) {
        let c = &self.cost;
        match op {
            KernelOp::Int(mix) => {
                let (cycles, instrs) = mix.price(&c.int_cycle_table());
                core.int_time += cycles;
                core.int_instrs += instrs;
            }
            KernelOp::Fp { op, reps, .. } => FpIssue::new(c, *op, *reps, lanes).apply(core),
            KernelOp::Loop { body, reps } => {
                if is_straight_line(body) {
                    StraightSums::new(c, body, *reps, lanes).apply(core);
                } else {
                    for _ in 0..reps.round() as u64 {
                        for inner in body.iter() {
                            self.exec_op(core, inner, banks, lanes);
                        }
                    }
                }
            }
            KernelOp::Stream { ssrs, op } => {
                let (mut reps, mut interval, mut conflicts) = (0.0f64, 1.0f64, 0.0f64);
                for (_, spec) in ssrs.as_slice() {
                    let ssr = SsrSetup::new(c, banks, spec);
                    ssr.configure(core, &mut conflicts);
                    reps = reps.max(ssr.elements);
                    interval = interval.max(ssr.interval);
                }
                if let Some(frep) = Frep::new(c, *op, reps, interval, lanes) {
                    frep.launch(core, conflicts, c);
                }
            }
            KernelOp::Barrier => core.join(),
        }
    }

    fn finish(
        &self,
        states: &[CoreState],
        dma: &DmaEngine,
        program: &StreamProgram,
    ) -> ProgramCost {
        let compute = states.iter().map(CoreState::total).fold(0.0, f64::max).ceil() as u64;
        let compute_cycles = compute.max(1);
        let dma_cycles = dma.busy_until();
        let cycles = compute_cycles.max(dma_cycles);

        let n = states.len().max(1) as f64;
        let mut util_sum = 0.0;
        let mut ipc_sum = 0.0;
        let mut totals = CoreState::default();
        for s in states {
            let total = s.total();
            if total > 0.0 {
                util_sum += s.busy / total;
                ipc_sum += (s.int_instrs + s.fp_instrs) / total;
            }
            totals.busy += s.busy;
            totals.int_instrs += s.int_instrs;
            totals.fp_instrs += s.fp_instrs;
            totals.flops += s.flops;
            totals.ssr_configs += s.ssr_configs;
            totals.elements += s.elements;
        }
        let (dma_bytes_in, dma_bytes_out) = program.dma_bytes();

        ProgramCost {
            cycles,
            compute_cycles,
            dma_cycles,
            dma_busy_cycles: dma.busy_cycles(),
            fpu_busy_cycles: totals.busy,
            fpu_utilization: util_sum / n,
            ipc: ipc_sum / n,
            int_instrs: totals.int_instrs,
            fp_instrs: totals.fp_instrs,
            flops: totals.flops,
            ssr_configs: totals.ssr_configs,
            stream_elements: totals.elements,
            dma_bytes_in,
            dma_bytes_out,
        }
    }
}

/// A non-streamed FP op with its constants resolved.
#[derive(Debug, Clone, Copy)]
struct FpIssue {
    /// Whether the op issues at all (`n > 0`).
    issues: bool,
    /// Whether the op occupies the FPU (`busy >= 1`).
    occupies: bool,
    /// Whether the op counts as useful FPU work.
    useful: bool,
    n: f64,
    /// `n × busy`.
    n_busy: f64,
    reps: f64,
    /// `busy × reps`.
    busy: f64,
    flops: f64,
}

impl FpIssue {
    fn new(c: &CostModel, op: FpOp, reps: f64, lanes: f64) -> Self {
        let busy = c.fp_cycles(op) as f64;
        let n = if reps.fract() == 0.0 { reps } else { reps.ceil() };
        FpIssue {
            issues: n > 0.0,
            occupies: busy >= 1.0,
            useful: is_useful_fp(op),
            n,
            n_busy: n * busy,
            reps,
            busy: busy * reps,
            flops: flops_of(op, lanes) * reps,
        }
    }

    fn apply(&self, core: &mut CoreState) {
        // Each issue hands the op to the FPU through the integer core;
        // dependent chaining advances the FPU serially. Closed form of the
        // per-issue recurrence, mirroring the interpreter's
        // `exec_fp_repeated`: the first iteration starts at
        // `max(int0 + 1, fpu)` and every later one is FPU-bound (for any
        // busy >= 1), adding exactly `busy`. `busy` and `n` are
        // integer-valued, so this is bit-identical to issuing the op `n`
        // times.
        if self.issues {
            let int0 = core.int_time;
            core.int_time += self.n;
            core.fpu_time = if self.occupies {
                (int0 + 1.0).max(core.fpu_time) + self.n_busy
            } else {
                // Zero-occupancy ops only drag the FPU clock up to the
                // issue time of the last iteration.
                core.fpu_time.max(core.int_time)
            };
        }
        core.int_instrs += self.reps;
        core.fp_instrs += self.reps;
        if self.useful {
            core.busy += self.busy;
        }
        core.flops += self.flops;
        core.fpu_last = core.fpu_last.max(core.fpu_time);
    }
}

/// A straight-line loop as its body sums, each already multiplied by the
/// trip count.
#[derive(Debug, Clone, Copy)]
struct StraightSums {
    int_cycles: f64,
    int_instrs: f64,
    fp_busy: f64,
    fp_instrs: f64,
    flops: f64,
}

impl StraightSums {
    fn new(c: &CostModel, body: &[KernelOp], reps: f64, lanes: f64) -> Self {
        let int_table = c.int_cycle_table();
        let mut int_cycles = 0.0;
        let mut int_instrs = 0.0;
        let mut fp_busy = 0.0;
        let mut fp_instrs = 0.0;
        let mut flops = 0.0;
        for op in body {
            match op {
                KernelOp::Int(mix) => {
                    let (cycles, instrs) = mix.price(&int_table);
                    int_cycles += cycles;
                    int_instrs += instrs;
                }
                KernelOp::Fp { op, reps, .. } => {
                    int_cycles += reps; // issue slot on the integer core
                    int_instrs += reps;
                    if is_useful_fp(*op) {
                        fp_busy += c.fp_cycles(*op) as f64 * reps;
                    }
                    fp_instrs += reps;
                    flops += flops_of(*op, lanes) * reps;
                }
                _ => unreachable!("straight-line body"),
            }
        }
        StraightSums {
            int_cycles: int_cycles * reps,
            int_instrs: int_instrs * reps,
            fp_busy: fp_busy * reps,
            fp_instrs: fp_instrs * reps,
            flops: flops * reps,
        }
    }

    /// Mirror of the simulator's straight-line repetition fast path: the FP
    /// work of such blocks is throttled by the integer core, so the FP
    /// subsystem finishes together with the integer pipeline.
    fn apply(&self, core: &mut CoreState) {
        core.int_time += self.int_cycles;
        core.int_instrs += self.int_instrs;
        core.fpu_time = core.fpu_time.max(core.int_time);
        core.busy += self.fp_busy;
        core.fp_instrs += self.fp_instrs;
        core.flops += self.flops;
        core.fpu_last = core.fpu_last.max(core.fpu_time);
    }
}

/// One SSR configuration of a `Stream` op with its constants resolved.
#[derive(Debug, Clone, Copy)]
struct SsrSetup {
    /// `writes × ssr_config_write`.
    config_cycles: f64,
    writes: f64,
    elements: f64,
    /// Sustained delivery interval of the stream kind.
    interval: f64,
    /// `(elements × accesses) × cross_conflict_per_access`.
    cross: f64,
    /// Bank conflicts of resolved gather indices.
    exact: Option<f64>,
}

impl SsrSetup {
    fn new(c: &CostModel, banks: &BankConflictModel, spec: &StreamSpec) -> Self {
        let elements = spec.elements();
        let (writes, interval, accesses, exact) = match spec {
            StreamSpec::Affine { dims, .. } => {
                (2.0 + 2.0 * dims.len() as f64, c.affine_stream_interval, 1.0, None)
            }
            StreamSpec::Indirect { index_base, index_bytes, data_base, elem_bytes, indices } => {
                // One stall per element whose index fetch and gather share
                // a bank, walked over the index words in place — identical
                // to what the cycle-level interpreter charges.
                let exact = match indices {
                    IndexStream::Exact(idcs) => Some(banks.conflict_cycles_indexed(
                        *index_base,
                        *index_bytes,
                        *data_base,
                        *elem_bytes,
                        idcs,
                    ) as f64),
                    IndexStream::Expected(_) => None,
                };
                (4.0, c.indirect_stream_interval, 2.0, exact)
            }
        };
        SsrSetup {
            config_cycles: writes * c.ssr_config_write as f64,
            writes,
            elements,
            interval,
            cross: elements * accesses * c.cross_conflict_per_access,
            exact,
        }
    }

    /// Charge the configuration writes, which occupy the integer pipeline
    /// (the shadow registers mean no drain wait), and add the stream's
    /// bank conflicts to `conflicts`.
    fn configure(&self, core: &mut CoreState, conflicts: &mut f64) {
        core.int_time += self.config_cycles;
        core.int_instrs += self.writes;
        core.ssr_configs += 1.0;
        core.elements += self.elements;
        if let Some(exact) = self.exact {
            *conflicts += exact;
        }
        // Cross-core interference, accumulated fractionally so short
        // streams are not over-penalized (mirrors the core model).
        // `expected` is finite and at least +0.0: `cross` is a product of
        // non-negative factors, and the carry starts at +0.0 and is then
        // always `expected - trunc(expected)`, in [0, 1) and never -0.0
        // (`x - x` is +0.0). So truncating floors it, as the interpreter
        // does, without a call to the software `floor` of targets that
        // lack SSE4.1.
        let expected = self.cross + core.conflict_carry;
        debug_assert!(
            expected.is_sign_positive() && expected < u64::MAX as f64,
            "the expected cross-core conflicts {expected} are not a non-negative finite count"
        );
        let cross = expected as u64 as f64;
        core.conflict_carry = expected - cross;
        *conflicts += cross;
    }
}

/// The FREP launch of a `Stream` op with its constants resolved.
#[derive(Debug, Clone, Copy)]
struct Frep {
    reps: f64,
    /// `fp_cycles × reps`.
    issue: f64,
    occupancy: f64,
    flops: f64,
}

impl Frep {
    /// The launch of a stream delivering `reps` elements, or `None` for an
    /// empty stream, which configures its SSRs but never launches the FREP
    /// (mirrors the interpreter, which skips the hardware loop when the
    /// pattern delivers no elements).
    fn new(c: &CostModel, op: FpOp, reps: f64, interval: f64, lanes: f64) -> Option<Self> {
        if reps == 0.0 {
            return None;
        }
        let issue = c.fp_cycles(op) as f64 * reps;
        Some(Frep {
            reps,
            issue,
            occupancy: (issue * interval).ceil(),
            flops: flops_of(op, lanes) * reps,
        })
    }

    /// FREP launch plus sequencer back-pressure, then the streamed FPU
    /// occupancy.
    fn launch(&self, core: &mut CoreState, conflicts: f64, c: &CostModel) {
        core.int_time += c.frep_launch as f64;
        core.int_instrs += 1.0;
        core.await_frep_slot();
        let start = core.int_time.max(core.fpu_time);
        let busy_end =
            start + c.fpu_latency as f64 + c.stream_startup as f64 + self.occupancy + conflicts;
        core.fpu_time = busy_end;
        core.fpu_last = core.fpu_last.max(busy_end);
        core.busy += self.issue;
        core.fp_instrs += self.reps;
        core.flops += self.flops;
        core.push_frep(busy_end);
    }
}

/// One work item compiled for evaluation: the ops in evaluation order, with
/// loop bodies as index ranges and every per-op constant resolved. The
/// buffers are reused from item to item within one integration.
#[derive(Debug)]
struct Tape<'a> {
    cost: &'a CostModel,
    /// The cost model's cycles per integer class.
    int_table: [f64; IntOp::COUNT],
    banks: &'a BankConflictModel,
    lanes: f64,
    ops: Vec<TapeOp>,
    /// The SSR setups of every `Stream` op, in program order.
    ssrs: Vec<SsrSetup>,
}

#[derive(Debug, Clone, Copy)]
enum TapeOp {
    /// An `Int` run, priced.
    Int {
        cycles: f64,
        instrs: f64,
    },
    Fp(FpIssue),
    Straight(StraightSums),
    /// A `Stream` op: configure `Tape::ssrs[start..end]`, then launch the
    /// FREP unless the stream is empty.
    Stream {
        start: usize,
        end: usize,
        frep: Option<Frep>,
    },
    /// A loop with streams or loops inside: the next `len` ops, `reps`
    /// times.
    Loop {
        len: usize,
        reps: u64,
    },
    Barrier,
}

impl<'a> Tape<'a> {
    fn new(cost: &'a CostModel, banks: &'a BankConflictModel, lanes: f64) -> Self {
        let int_table = cost.int_cycle_table();
        Tape { cost, int_table, banks, lanes, ops: Vec::new(), ssrs: Vec::new() }
    }

    /// Replace the tape with the compiled `ops` of one work item.
    fn compile(&mut self, ops: &[KernelOp]) {
        self.ops.clear();
        self.ssrs.clear();
        self.push(ops);
    }

    fn push(&mut self, ops: &[KernelOp]) {
        let c = self.cost;
        for op in ops {
            match op {
                KernelOp::Int(mix) => {
                    let (cycles, instrs) = mix.price(&self.int_table);
                    self.ops.push(TapeOp::Int { cycles, instrs });
                }
                KernelOp::Fp { op, reps } => {
                    self.ops.push(TapeOp::Fp(FpIssue::new(c, *op, *reps, self.lanes)));
                }
                KernelOp::Loop { body, reps } if is_straight_line(body) => {
                    self.ops.push(TapeOp::Straight(StraightSums::new(c, body, *reps, self.lanes)));
                }
                KernelOp::Loop { body, reps } => {
                    let at = self.ops.len();
                    self.ops.push(TapeOp::Loop { len: 0, reps: reps.round() as u64 });
                    self.push(body);
                    let body_len = self.ops.len() - at - 1;
                    if let TapeOp::Loop { len, .. } = &mut self.ops[at] {
                        *len = body_len;
                    }
                }
                KernelOp::Stream { ssrs, op } => {
                    let start = self.ssrs.len();
                    let (mut reps, mut interval) = (0.0f64, 1.0f64);
                    for (_, spec) in ssrs.as_slice() {
                        let ssr = SsrSetup::new(c, self.banks, spec);
                        reps = reps.max(ssr.elements);
                        interval = interval.max(ssr.interval);
                        self.ssrs.push(ssr);
                    }
                    let frep = Frep::new(c, *op, reps, interval, self.lanes);
                    self.ops.push(TapeOp::Stream { start, end: self.ssrs.len(), frep });
                }
                KernelOp::Barrier => self.ops.push(TapeOp::Barrier),
            }
        }
    }

    /// Evaluate the whole tape once on `N` cores in lockstep.
    fn run<const N: usize>(&self, cores: &mut [CoreState; N]) {
        self.eval(&self.ops, cores);
    }

    /// The evaluator: `ops` (a range of this tape) on `N` cores in
    /// lockstep. Each core sees exactly the operations the tree walk
    /// performs, in the same order; running two cores at once only lets
    /// their independent dependency chains overlap.
    fn eval<const N: usize>(&self, ops: &[TapeOp], cores: &mut [CoreState; N]) {
        let mut i = 0;
        while i < ops.len() {
            match ops[i] {
                TapeOp::Int { cycles, instrs } => {
                    for core in cores.iter_mut() {
                        core.int_time += cycles;
                        core.int_instrs += instrs;
                    }
                }
                TapeOp::Fp(fp) => cores.iter_mut().for_each(|core| fp.apply(core)),
                TapeOp::Straight(sums) => cores.iter_mut().for_each(|core| sums.apply(core)),
                TapeOp::Stream { start, end, frep } => {
                    let mut conflicts = [0.0f64; N];
                    for ssr in &self.ssrs[start..end] {
                        for (core, conflicts) in cores.iter_mut().zip(&mut conflicts) {
                            ssr.configure(core, conflicts);
                        }
                    }
                    if let Some(frep) = frep {
                        for (core, conflicts) in cores.iter_mut().zip(conflicts) {
                            frep.launch(core, conflicts, self.cost);
                        }
                    }
                }
                TapeOp::Loop { len, reps } => {
                    let body = &ops[i + 1..i + 1 + len];
                    for _ in 0..reps {
                        self.eval(body, cores);
                    }
                    i += len;
                }
                TapeOp::Barrier => cores.iter_mut().for_each(CoreState::join),
            }
            i += 1;
        }
    }

    /// Charge `instances` copies of the compiled item to the cores, folded
    /// over core-equivalence classes. The item's exit state is a pure
    /// function of a core's entry state and its share `k`, so the cores
    /// are first sorted into classes by `(k, entry)` bits; the I-cache
    /// fetches run per core and in core order meanwhile, because they
    /// mutate the cache and their stall lands before the entry snapshot
    /// (so the refill-paying core falls into its own class). Then every
    /// class is priced once, two at a time in lockstep, and its cores
    /// copy the exit state.
    fn replicate(
        &self,
        states: &mut [CoreState],
        icache: &mut InstructionCache,
        code: &[CodeRegion],
        instances: f64,
    ) {
        let cores = states.len();
        // Share and entry state of each class (the exit state once priced).
        let mut classes: Vec<(f64, CoreState)> = Vec::with_capacity(cores);
        let mut class_of: Vec<Option<usize>> = Vec::with_capacity(cores);
        for (j, core) in states.iter_mut().enumerate() {
            let k = core_share(instances, cores, j);
            if k <= 0.0 {
                class_of.push(None);
                continue;
            }
            fetch_code(icache, code, core);
            let class = classes
                .iter()
                .position(|(kc, entry)| kc.to_bits() == k.to_bits() && entry.bits_eq(core))
                .unwrap_or_else(|| {
                    classes.push((k, *core));
                    classes.len() - 1
                });
            class_of.push(Some(class));
        }

        let mut pairs = classes.chunks_exact_mut(2);
        for pair in &mut pairs {
            let mut both = [pair[0].1, pair[1].1];
            self.price(&mut both, [pair[0].0, pair[1].0]);
            [pair[0].1, pair[1].1] = both;
        }
        if let [(k, state)] = pairs.into_remainder() {
            self.price(std::array::from_mut(state), [*k]);
        }

        for (core, class) in states.iter_mut().zip(class_of) {
            if let Some(class) = class {
                *core = classes[class].1;
            }
        }
    }

    /// Charge `k[l]` copies of the item to core `l`, as
    /// `replicate_on_core` does: exec once (scaling down a fractional
    /// copy) or twice plus a steady-state extrapolation.
    fn price<const N: usize>(&self, cores: &mut [CoreState; N], k: [f64; N]) {
        let entry = *cores;
        self.run(cores);
        let once = *cores;
        let mut again = [false; N];
        for (((core, entry), &k), again) in cores.iter_mut().zip(&entry).zip(&k).zip(&mut again) {
            if k <= 1.0 {
                if k < 1.0 {
                    core.scale_since(entry, k);
                }
            } else {
                *again = true;
            }
        }
        if again == [true; N] {
            self.run(cores);
        } else {
            for (core, &again) in cores.iter_mut().zip(&again) {
                if again {
                    self.run(std::array::from_mut(core));
                }
            }
        }
        for (((core, once), &k), &again) in cores.iter_mut().zip(&once).zip(&k).zip(&again) {
            if again {
                let d = core.delta(once);
                core.extrapolate(&d, k - 2.0);
            }
        }
    }
}

/// Instance share of core `j` when `instances` copies are split over
/// `cores` round-robin: the whole division, plus one extra copy for each
/// of the first cores, which takes up the (possibly fractional) remainder.
fn core_share(instances: f64, cores: usize, j: usize) -> f64 {
    let whole = (instances / cores as f64).floor();
    let rem = instances - whole * cores as f64;
    let j = j as f64;
    let extra = if j + 1.0 <= rem {
        1.0
    } else if j < rem {
        rem - j
    } else {
        0.0
    };
    whole + extra
}

/// Fetch a phase's code regions on behalf of `core`, charging the refill
/// stall to its integer pipeline.
fn fetch_code(icache: &mut InstructionCache, code: &[CodeRegion], core: &mut CoreState) {
    for region in code {
        let stall = icache.fetch_region(region.id, region.bytes);
        core.int_time += stall as f64;
    }
}

/// The core that claims a single-instance item: the least loaded one,
/// after fetching the phase's code.
fn claim_core(
    states: &mut [CoreState],
    icache: &mut InstructionCache,
    code: &[CodeRegion],
) -> usize {
    let j = argmin(states);
    fetch_code(icache, code, &mut states[j]);
    j
}

fn argmin(states: &[CoreState]) -> usize {
    let mut best = 0;
    let mut best_t = f64::INFINITY;
    for (j, s) in states.iter().enumerate() {
        let t = s.total();
        if t < best_t {
            best_t = t;
            best = j;
        }
    }
    best
}

fn is_straight_line(body: &[KernelOp]) -> bool {
    body.iter().all(|op| matches!(op, KernelOp::Int(_) | KernelOp::Fp { .. }))
}

fn is_useful_fp(op: FpOp) -> bool {
    matches!(op, FpOp::Add | FpOp::Mul | FpOp::Fma | FpOp::Cmp | FpOp::Cvt)
}

fn flops_of(op: FpOp, lanes: f64) -> f64 {
    match op {
        FpOp::Add | FpOp::Mul | FpOp::Cmp => lanes,
        FpOp::Fma => 2.0 * lanes,
        FpOp::Cvt | FpOp::Move | FpOp::Load | FpOp::Store => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{CodeRegion, ComputePhase, DmaPhase, Phase, Ssrs, WorkItem};
    use snitch_arch::fp::FpFormat;
    use snitch_arch::SsrId;

    fn integrator() -> CostIntegrator {
        CostIntegrator::snitch()
    }

    fn indirect(idcs: &[u16]) -> StreamSpec<'_> {
        StreamSpec::Indirect {
            index_base: 0x100,
            index_bytes: 2,
            data_base: 0x1000,
            elem_bytes: 8,
            indices: IndexStream::Exact(idcs),
        }
    }

    /// A gather through `idcs` behind two ALU ops.
    fn stream_item(idcs: &[u16]) -> WorkItem<'_> {
        WorkItem::new(vec![
            KernelOp::alu(),
            KernelOp::alu(),
            KernelOp::Stream { ssrs: Ssrs::One((SsrId::Ssr0, indirect(idcs))), op: FpOp::Add },
        ])
    }

    #[test]
    fn streamed_program_reaches_high_utilization() {
        let idcs: Vec<u16> = (0..256).collect();
        let mut p = StreamProgram::new("stream", FpFormat::Fp16);
        p.push(Phase::Compute(ComputePhase {
            code: &[],
            items: (0..64).map(|_| stream_item(&idcs)).collect(),
        }));
        let cost = integrator().integrate(&p);
        assert!(cost.fpu_utilization > 0.5, "got {}", cost.fpu_utilization);
        assert_eq!(cost.stream_elements, 64.0 * 256.0);
        assert_eq!(cost.fp_instrs, 64.0 * 256.0);
    }

    #[test]
    fn scalar_program_is_integer_bound() {
        let block = vec![
            KernelOp::load(),
            KernelOp::alu(),
            KernelOp::alu(),
            KernelOp::fp(FpOp::Load),
            KernelOp::alu(),
            KernelOp::alu(),
            KernelOp::fp(FpOp::Add),
            KernelOp::branch(),
        ];
        let mut p = StreamProgram::new("scalar", FpFormat::Fp16);
        p.push(Phase::Compute(ComputePhase {
            code: &[],
            items: vec![WorkItem::new(vec![KernelOp::Loop { body: block.into(), reps: 100.0 }])],
        }));
        let cost = integrator().integrate(&p);
        // One useful FPU cycle against ~10 integer cycles per element.
        let util = cost.fpu_busy_cycles / cost.compute_cycles as f64;
        assert!(util > 0.05 && util < 0.20, "got {util}");
    }

    #[test]
    fn prologue_dma_delays_compute() {
        let mut with_dma = StreamProgram::new("dma", FpFormat::Fp16);
        with_dma.push(Phase::Dma(DmaPhase::contiguous(DmaDirection::In, 1 << 16, false)));
        with_dma.push(Phase::Compute(ComputePhase {
            code: &[],
            items: vec![WorkItem::new(vec![KernelOp::alu().times(100.0)])],
        }));
        let cost = integrator().integrate(&with_dma);
        assert!(cost.compute_cycles > 1024, "prologue load gates compute: {:?}", cost);
        assert_eq!(cost.dma_bytes_in, 1 << 16);
    }

    #[test]
    fn double_buffered_dma_overlaps_compute() {
        let idcs: Vec<u16> = (0..512).collect();
        let mut p = StreamProgram::new("db", FpFormat::Fp16);
        p.push(Phase::Dma(DmaPhase::contiguous(DmaDirection::In, 1 << 16, true)));
        p.push(Phase::Compute(ComputePhase {
            code: &[],
            items: (0..64).map(|_| stream_item(&idcs)).collect(),
        }));
        let cost = integrator().integrate(&p);
        assert!(
            cost.cycles < cost.compute_cycles + cost.dma_busy_cycles,
            "transfer must hide behind compute: {:?}",
            cost
        );
    }

    #[test]
    fn replicated_items_match_unrolled_items_closely() {
        let idcs: Vec<u16> = (0..64).collect();
        let make = |replicated: bool| {
            let mut p = StreamProgram::new("r", FpFormat::Fp16);
            let items = if replicated {
                vec![WorkItem::replicated(64.0, stream_item(&idcs).ops)]
            } else {
                (0..64).map(|_| stream_item(&idcs)).collect()
            };
            p.push(Phase::Compute(ComputePhase { code: &[], items }));
            p
        };
        let a = integrator().integrate(&make(false));
        let b = integrator().integrate(&make(true));
        let rel =
            (a.compute_cycles as f64 - b.compute_cycles as f64).abs() / a.compute_cycles as f64;
        assert!(rel < 0.05, "linearized replication within 5%: {rel}");
        assert!((a.fp_instrs - b.fp_instrs).abs() < 1.0);
    }

    #[test]
    fn exact_gathers_pay_their_bank_conflicts() {
        // The same stream shape with resolved and with expected indices:
        // only the resolved one pays its pairwise bank conflicts, which
        // land on the FPU's busy end and so on the compute time.
        fn program(indices: IndexStream<'_>) -> StreamProgram<'_> {
            let mut p = StreamProgram::new("gather", FpFormat::Fp16);
            let spec = StreamSpec::Indirect {
                index_base: 0x100,
                index_bytes: 2,
                data_base: 0x1000,
                elem_bytes: 8,
                indices,
            };
            p.push(Phase::Compute(ComputePhase {
                code: &[],
                items: vec![WorkItem::new(vec![KernelOp::Stream {
                    ssrs: Ssrs::One((SsrId::Ssr0, spec)),
                    op: FpOp::Add,
                }])],
            }));
            p
        }
        let idcs: Vec<u16> = (0..40).collect();
        let conflicts = BankConflictModel::new(&ClusterConfig::default())
            .conflict_cycles_indexed(0x100, 2, 0x1000, 8, &idcs);
        assert!(conflicts > 0);
        let exact = integrator().integrate(&program(IndexStream::Exact(&idcs)));
        let expected = integrator().integrate(&program(IndexStream::Expected(40.0)));
        assert_eq!(exact.compute_cycles - expected.compute_cycles, conflicts);
    }

    #[test]
    fn icache_refill_is_charged_once() {
        let mut p = StreamProgram::new("icache", FpFormat::Fp16);
        p.push(Phase::Compute(ComputePhase {
            code: &[CodeRegion { id: 7, bytes: 1024 }],
            items: (0..4).map(|_| WorkItem::new(vec![KernelOp::alu()])).collect(),
        }));
        let cost = integrator().integrate(&p);
        let refill = CostModel::default().icache_refill * (1024 / 64);
        assert!(cost.compute_cycles as f64 >= refill as f64);
        assert!((cost.compute_cycles as f64) < 2.0 * refill as f64);
    }
}
