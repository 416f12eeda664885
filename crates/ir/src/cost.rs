//! Symbolic cost integration over a stream program.
//!
//! The [`CostIntegrator`] walks a [`StreamProgram`] and charges the same
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
//! On top of that linearization, [`CostIntegrator::integrate`] folds whole
//! replicated phases in closed form: cores whose pipeline state and
//! instance share are bitwise identical at the start of a replicated item
//! (the common case — every core but the first, which pays the I-cache
//! refill) are priced once and the result is broadcast, so a
//! cluster-width phase costs two representative evaluations instead of
//! one per core. The pre-folding per-core path survives as
//! [`CostIntegrator::integrate_reference`] and a property test pins the
//! two bit-for-bit.
//!
//! This replaces the per-kernel closed-form loop math the repository used
//! to carry in `spikestream-kernels/src/analytic.rs`: the loop structure
//! now lives in the emitters (once), and this module only knows how to
//! price IR operations.

use std::collections::VecDeque;

use snitch_arch::isa::FpOp;
use snitch_arch::{ClusterConfig, CostModel};
use snitch_mem::dma::DmaDirection;
use snitch_mem::{BankConflictModel, DmaEngine, InstructionCache};

use crate::program::{
    ComputePhase, IndexStream, KernelOp, Phase, StreamProgram, StreamSpec, WorkItem,
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
#[derive(Debug, Clone, Default)]
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
    freps: VecDeque<f64>,
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
            conflict_carry: 0.0,
            freps: VecDeque::new(),
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
            && self.freps.len() == other.freps.len()
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
    /// Replicated items are folded over core-equivalence classes: cores
    /// entering an item with bitwise-identical pipeline state and instance
    /// share are priced once and share the result. Bit-identical to
    /// [`CostIntegrator::integrate_reference`] by construction.
    pub fn integrate(&self, program: &StreamProgram) -> ProgramCost {
        self.integrate_impl(program, true)
    }

    /// Reference integration path: evaluates every replicated item on every
    /// core individually (the pre-folding exec-twice-and-extrapolate loop).
    /// Kept for differential testing of the folded fast path; production
    /// callers use [`CostIntegrator::integrate`].
    pub fn integrate_reference(&self, program: &StreamProgram) -> ProgramCost {
        self.integrate_impl(program, false)
    }

    fn integrate_impl(&self, program: &StreamProgram, fold: bool) -> ProgramCost {
        let cores = self.config.worker_cores;
        let mut states = vec![CoreState::default(); cores];
        let banks = BankConflictModel::new(&self.config);
        let mut icache = InstructionCache::new(&self.config, self.cost.icache_refill);
        let mut dma = DmaEngine::new(&self.config);
        let lanes = program.format.simd_lanes() as f64;
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
                Phase::Compute(c) => self.compute_phase(
                    c,
                    &mut states,
                    &banks,
                    &mut icache,
                    prologue_floor,
                    lanes,
                    fold,
                ),
            }
        }

        self.finish(&states, &dma, program)
    }

    #[allow(clippy::too_many_arguments)]
    fn compute_phase(
        &self,
        phase: &ComputePhase,
        states: &mut [CoreState],
        banks: &BankConflictModel,
        icache: &mut InstructionCache,
        floor: f64,
        lanes: f64,
        fold: bool,
    ) {
        // Every core waits for the prologue tile loads before computing.
        for core in states.iter_mut() {
            core.int_time = core.int_time.max(floor);
        }

        for item in &phase.items {
            // Single-instance items (the exact lowerings) replay precisely;
            // replicated items (the symbolic lowerings) are linearized so
            // integration stays O(program size) regardless of layer size.
            if item.instances == 1.0 {
                let j = argmin(states);
                for region in &phase.code {
                    let stall = icache.fetch_region(region.id, region.bytes);
                    states[j].int_time += stall as f64;
                }
                self.exec_item(&mut states[j], item, banks, lanes);
            } else {
                self.replicate_item(states, item, banks, icache, phase, lanes, fold);
            }
        }

        // Implicit end-of-phase barrier on every core.
        for core in states.iter_mut() {
            core.int_time = core.int_time.max(core.fpu_time);
            core.freps.clear();
        }
    }

    /// Distribute `item.instances` identical copies over the cores without
    /// unrolling them: evaluate the item twice per core and extrapolate the
    /// steady-state delta for the remaining instances.
    ///
    /// With `fold` the per-core loop collapses over equivalence classes:
    /// the item's exit state is a pure function of the core's entry state
    /// and its instance share `k`, so a core whose `(entry, k)` matches an
    /// already-priced core copies that core's exit state instead of
    /// re-evaluating. Entry states are compared bitwise (every `f64` field
    /// plus the FREP queue), which makes the fold exact: typically only
    /// core 0 — which pays the I-cache refill — and one representative of
    /// the remaining cores are evaluated.
    #[allow(clippy::too_many_arguments)]
    fn replicate_item(
        &self,
        states: &mut [CoreState],
        item: &WorkItem,
        banks: &BankConflictModel,
        icache: &mut InstructionCache,
        phase: &ComputePhase,
        lanes: f64,
        fold: bool,
    ) {
        let cores = states.len() as f64;
        let whole = (item.instances / cores).floor();
        let rem = item.instances - whole * cores;
        // (k bits, entry state, exit state) of each evaluated class.
        let mut classes: Vec<(u64, CoreState, CoreState)> = Vec::new();
        for (j, core) in states.iter_mut().enumerate() {
            // Round-robin split: the first `rem` cores take one extra copy.
            let k = whole + rem_share(rem, j);
            if k <= 0.0 {
                continue;
            }
            // The I-cache fetches run per core even when the cost folds:
            // they mutate the cache (LRU order, hit/miss residency), and the
            // resulting stall lands in `int_time` *before* the entry
            // snapshot, so the refill-paying core falls into its own class.
            for region in &phase.code {
                let stall = icache.fetch_region(region.id, region.bytes);
                core.int_time += stall as f64;
            }
            if fold {
                if let Some((_, _, exit)) =
                    classes.iter().find(|(kb, entry, _)| *kb == k.to_bits() && entry.bits_eq(core))
                {
                    *core = exit.clone();
                    continue;
                }
                let entry = core.clone();
                self.replicate_on_core(core, item, k, banks, lanes);
                classes.push((k.to_bits(), entry, core.clone()));
            } else {
                self.replicate_on_core(core, item, k, banks, lanes);
            }
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
        let s0 = core.clone();
        self.exec_item(core, item, banks, lanes);
        if k <= 1.0 {
            if k < 1.0 {
                // A fractional copy: scale the single-execution delta.
                let d = core.delta(&s0);
                let mut scaled = s0;
                scaled.extrapolate(&d, k);
                scaled.freps = core.freps.clone();
                scaled.conflict_carry = core.conflict_carry;
                *core = scaled;
            }
            return;
        }
        let s1 = core.clone();
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
            KernelOp::Int { op, reps, .. } => {
                core.int_time += c.int_cycles(*op) as f64 * reps;
                core.int_instrs += reps;
            }
            KernelOp::Fp { op, reps, .. } => {
                // Each issue hands the op to the FPU through the integer
                // core; dependent chaining advances the FPU serially.
                // Closed form of the per-issue recurrence, mirroring the
                // interpreter's `exec_fp_repeated`: the first iteration
                // starts at `max(int0 + 1, fpu)` and every later one is
                // FPU-bound (for any busy >= 1), adding exactly `busy`.
                // `busy` and `n` are integer-valued, so this is
                // bit-identical to issuing the op `n` times.
                let busy = c.fp_cycles(*op) as f64;
                let n = if reps.fract() == 0.0 { *reps } else { reps.ceil() };
                if n > 0.0 {
                    let int0 = core.int_time;
                    core.int_time += n;
                    core.fpu_time = if busy >= 1.0 {
                        (int0 + 1.0).max(core.fpu_time) + n * busy
                    } else {
                        // Zero-occupancy ops only drag the FPU clock up to
                        // the issue time of the last iteration.
                        core.fpu_time.max(core.int_time)
                    };
                }
                core.int_instrs += reps;
                core.fp_instrs += reps;
                if is_useful_fp(*op) {
                    core.busy += busy * reps;
                }
                core.flops += flops_of(*op, lanes) * reps;
                core.fpu_last = core.fpu_last.max(core.fpu_time);
            }
            KernelOp::Loop { body, reps } => {
                if is_straight_line(body) {
                    self.exec_straight_loop(core, body, *reps, lanes);
                } else {
                    for _ in 0..reps.round() as u64 {
                        for inner in body {
                            self.exec_op(core, inner, banks, lanes);
                        }
                    }
                }
            }
            KernelOp::Stream { ssrs, op } => self.exec_stream(core, ssrs, *op, banks, lanes),
            KernelOp::Barrier => {
                core.int_time = core.int_time.max(core.fpu_time);
                core.freps.clear();
            }
        }
    }

    /// Mirror of the simulator's straight-line repetition fast path: the FP
    /// work of such blocks is throttled by the integer core, so the FP
    /// subsystem finishes together with the integer pipeline.
    fn exec_straight_loop(&self, core: &mut CoreState, body: &[KernelOp], reps: f64, lanes: f64) {
        let c = &self.cost;
        let mut int_cycles = 0.0;
        let mut int_instrs = 0.0;
        let mut fp_busy = 0.0;
        let mut fp_instrs = 0.0;
        let mut flops = 0.0;
        for op in body {
            match op {
                KernelOp::Int { op, reps, .. } => {
                    int_cycles += c.int_cycles(*op) as f64 * reps;
                    int_instrs += reps;
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
        core.int_time += int_cycles * reps;
        core.int_instrs += int_instrs * reps;
        core.fpu_time = core.fpu_time.max(core.int_time);
        core.busy += fp_busy * reps;
        core.fp_instrs += fp_instrs * reps;
        core.flops += flops * reps;
        core.fpu_last = core.fpu_last.max(core.fpu_time);
    }

    fn exec_stream(
        &self,
        core: &mut CoreState,
        ssrs: &[(snitch_arch::SsrId, StreamSpec)],
        op: FpOp,
        banks: &BankConflictModel,
        lanes: f64,
    ) {
        let c = &self.cost;
        // SSR configuration writes occupy the integer pipeline; the shadow
        // registers mean no drain wait.
        let mut reps = 0.0f64;
        let mut interval = 1.0f64;
        let mut conflicts = 0.0f64;
        for (_, spec) in ssrs {
            let writes = match spec {
                StreamSpec::Affine { strides, .. } => 2.0 + 2.0 * strides.len() as f64,
                StreamSpec::Indirect { .. } => 4.0,
            };
            core.int_time += writes * c.ssr_config_write as f64;
            core.int_instrs += writes;
            core.ssr_configs += 1.0;

            let elements = spec.elements();
            reps = reps.max(elements);
            core.elements += elements;
            let accesses_per_element = match spec {
                StreamSpec::Affine { .. } => {
                    interval = interval.max(c.affine_stream_interval);
                    1.0
                }
                StreamSpec::Indirect {
                    index_base,
                    index_bytes,
                    data_base,
                    elem_bytes,
                    indices,
                } => {
                    interval = interval.max(c.indirect_stream_interval);
                    if let IndexStream::Exact(idcs) = indices {
                        // One stall per element whose index fetch and
                        // gather share a bank, walked over the index words
                        // in place — identical to what the cycle-level
                        // interpreter charges.
                        conflicts += banks.conflict_cycles_indexed(
                            *index_base,
                            *index_bytes,
                            *data_base,
                            *elem_bytes,
                            idcs,
                        ) as f64;
                    }
                    2.0
                }
            };
            // Cross-core interference, accumulated fractionally so short
            // streams are not over-penalized (mirrors the core model).
            let expected =
                elements * accesses_per_element * c.cross_conflict_per_access + core.conflict_carry;
            let cross = expected.floor();
            core.conflict_carry = expected - cross;
            conflicts += cross;
        }

        // An empty stream configures its SSRs but never launches the FREP
        // (mirrors the interpreter, which skips the hardware loop when the
        // pattern delivers no elements).
        if reps == 0.0 {
            return;
        }

        // FREP launch plus sequencer back-pressure.
        core.int_time += c.frep_launch as f64;
        core.int_instrs += 1.0;
        while let Some(&t) = core.freps.front() {
            if t <= core.int_time {
                core.freps.pop_front();
            } else {
                break;
            }
        }
        if core.freps.len() >= MAX_OUTSTANDING_FREPS {
            let oldest = core.freps.pop_front().expect("non-empty");
            if oldest > core.int_time {
                core.int_time = oldest;
            }
        }

        let total_issue = c.fp_cycles(op) as f64 * reps;
        let occupancy = (total_issue * interval).ceil();
        let start = core.int_time.max(core.fpu_time);
        let busy_end =
            start + c.fpu_latency as f64 + c.stream_startup as f64 + occupancy + conflicts;
        core.fpu_time = busy_end;
        core.fpu_last = core.fpu_last.max(busy_end);
        core.busy += total_issue;
        core.fp_instrs += reps;
        core.flops += flops_of(op, lanes) * reps;
        core.freps.push_back(busy_end);
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

/// Round-robin remainder share of core `j` when `rem` instances are left
/// over after the whole division (handles fractional instance counts).
fn rem_share(rem: f64, j: usize) -> f64 {
    let j = j as f64;
    if j + 1.0 <= rem {
        1.0
    } else if j < rem {
        rem - j
    } else {
        0.0
    }
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
    body.iter().all(|op| matches!(op, KernelOp::Int { .. } | KernelOp::Fp { .. }))
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
    use crate::program::{CodeRegion, ComputePhase, DmaPhase, Phase, WorkItem};
    use snitch_arch::fp::FpFormat;
    use snitch_arch::SsrId;

    fn integrator() -> CostIntegrator {
        CostIntegrator::snitch()
    }

    fn indirect(n: u32) -> StreamSpec {
        StreamSpec::Indirect {
            index_base: 0x100,
            index_bytes: 2,
            data_base: 0x1000,
            elem_bytes: 8,
            indices: IndexStream::Exact((0..n).collect()),
        }
    }

    fn stream_item(n: u32) -> WorkItem {
        WorkItem::new(vec![
            KernelOp::alu(),
            KernelOp::alu(),
            KernelOp::Stream { ssrs: vec![(SsrId::Ssr0, indirect(n))], op: FpOp::Add },
        ])
    }

    #[test]
    fn streamed_program_reaches_high_utilization() {
        let mut p = StreamProgram::new("stream", FpFormat::Fp16);
        p.push(Phase::Compute(ComputePhase {
            code: vec![],
            items: (0..64).map(|_| stream_item(256)).collect(),
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
            code: vec![],
            items: vec![WorkItem::new(vec![KernelOp::Loop { body: block, reps: 100.0 }])],
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
            code: vec![],
            items: vec![WorkItem::new(vec![KernelOp::alu().times(100.0)])],
        }));
        let cost = integrator().integrate(&with_dma);
        assert!(cost.compute_cycles > 1024, "prologue load gates compute: {:?}", cost);
        assert_eq!(cost.dma_bytes_in, 1 << 16);
    }

    #[test]
    fn double_buffered_dma_overlaps_compute() {
        let mut p = StreamProgram::new("db", FpFormat::Fp16);
        p.push(Phase::Dma(DmaPhase::contiguous(DmaDirection::In, 1 << 16, true)));
        p.push(Phase::Compute(ComputePhase {
            code: vec![],
            items: (0..64).map(|_| stream_item(512)).collect(),
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
        let make = |replicated: bool| {
            let mut p = StreamProgram::new("r", FpFormat::Fp16);
            let items = if replicated {
                vec![WorkItem::replicated(64.0, stream_item(64).ops)]
            } else {
                (0..64).map(|_| stream_item(64)).collect()
            };
            p.push(Phase::Compute(ComputePhase { code: vec![], items }));
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
    fn icache_refill_is_charged_once() {
        let mut p = StreamProgram::new("icache", FpFormat::Fp16);
        p.push(Phase::Compute(ComputePhase {
            code: vec![CodeRegion { id: 7, bytes: 1024 }],
            items: (0..4).map(|_| WorkItem::new(vec![KernelOp::alu()])).collect(),
        }));
        let cost = integrator().integrate(&p);
        let refill = CostModel::default().icache_refill * (1024 / 64);
        assert!(cost.compute_cycles as f64 >= refill as f64);
        assert!((cost.compute_cycles as f64) < 2.0 * refill as f64);
    }
}
