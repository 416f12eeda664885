//! Timing model of one Snitch worker core.
//!
//! A worker core pairs a single-issue integer pipeline with a SIMD FPU fed
//! by three stream semantic registers and an FREP hardware loop. The two
//! halves run decoupled: the integer core issues FP instructions (or whole
//! FREP regions) into a small sequencer buffer and continues executing its
//! own instructions, so stream setup for the next sparse vector
//! accumulation can overlap with the FPU draining the current one. This
//! decoupling — and its failure when streams are too short — is exactly
//! what produces the per-layer utilization and speedup shapes in Fig. 3 of
//! the paper.
//!
//! The model executes the stream-program IR directly: its one entry point,
//! [`WorkerCoreModel::exec`], advances the core by one [`KernelOp`].

use std::collections::VecDeque;

use snitch_arch::isa::{FpOp, IntOp};
use snitch_arch::{ClusterConfig, CostModel, FpFormat, SsrId};
use snitch_mem::BankConflictModel;
use spikestream_ir::{IndexStream, KernelOp, StreamSpec};

use crate::counters::PerfCounters;

/// Maximum number of FREP regions the integer core may queue ahead of the
/// FPU before it stalls on the sequencer buffer.
const MAX_OUTSTANDING_FREPS: usize = 2;

/// Per-core timing model, driven one stream-program operation at a time.
#[derive(Debug, Clone)]
pub struct WorkerCoreModel {
    core_id: usize,
    cost: CostModel,
    banks: BankConflictModel,
    /// Completion time of the integer pipeline.
    int_time: u64,
    /// Time at which the FPU becomes free.
    fpu_time: u64,
    /// Completion times of outstanding FREP regions.
    outstanding_freps: VecDeque<u64>,
    /// Fractional conflict-cycle accumulator (cross-core interference).
    conflict_carry: f64,
    counters: PerfCounters,
}

impl WorkerCoreModel {
    /// Create a core model.
    pub fn new(config: &ClusterConfig, cost: CostModel, core_id: usize) -> Self {
        WorkerCoreModel {
            core_id,
            cost,
            banks: BankConflictModel::new(config),
            int_time: 0,
            fpu_time: 0,
            outstanding_freps: VecDeque::new(),
            conflict_carry: 0.0,
            counters: PerfCounters::new(),
        }
    }

    /// Identifier of the modelled core within the cluster.
    pub fn core_id(&self) -> usize {
        self.core_id
    }

    /// Execute one stream-program operation, advancing the core's timing
    /// state. `format` is the program's storage format; it sets the SIMD
    /// lane count of the FLOP statistics.
    ///
    /// # Panics
    ///
    /// Panics on a symbolic stream (`IndexStream::Expected`) and on an
    /// indirect stream bound to an SSR without indirection support. Only
    /// exact programs are executable; symbolic ones can only be integrated.
    pub fn exec(&mut self, op: &KernelOp, format: FpFormat) {
        match op {
            KernelOp::Int { op, reps, .. } => self.exec_int_repeated(*op, int_reps(*reps)),
            KernelOp::Fp { op, reps, .. } => self.exec_fp_repeated(*op, format, int_reps(*reps)),
            KernelOp::Loop { body, reps } => {
                let reps = int_reps(*reps);
                if reps == 0 {
                    return;
                }
                if body.iter().all(|op| matches!(op, KernelOp::Int { .. } | KernelOp::Fp { .. })) {
                    self.exec_straight_loop(body, format, reps);
                } else {
                    for _ in 0..reps {
                        for inner in body {
                            self.exec(inner, format);
                        }
                    }
                }
            }
            KernelOp::Stream { ssrs, op } => self.exec_stream(ssrs, *op, format),
            KernelOp::Barrier => {
                self.int_time = self.int_time.max(self.fpu_time);
                self.outstanding_freps.clear();
                self.counters.int_cycles = self.int_time;
                self.counters.fpu_last_complete =
                    self.counters.fpu_last_complete.max(self.fpu_time);
            }
        }
    }

    /// Execute the same integer operation `reps` times.
    ///
    /// Integer op timing carries no cross-iteration state, so the per-op
    /// cost multiplies exactly.
    fn exec_int_repeated(&mut self, op: IntOp, reps: u64) {
        self.int_time += self.cost.int_cycles(op) * reps;
        self.counters.int_instrs += reps;
        self.counters.int_cycles = self.int_time;
    }

    /// Execute the same non-streamed FP operation `reps` times.
    ///
    /// Each iteration issues one integer slot and occupies the FPU for the
    /// op's busy cycles; once the FPU is the bottleneck (immediately, for
    /// any busy >= 1) the completion time advances by exactly `busy` per
    /// iteration.
    fn exec_fp_repeated(&mut self, op: FpOp, format: FpFormat, reps: u64) {
        if reps == 0 {
            return;
        }
        let busy = self.cost.fp_cycles(op);
        let int0 = self.int_time;
        self.int_time += reps;
        self.counters.int_instrs += reps;
        self.fpu_time = if busy >= 1 {
            // First iteration starts at max(int0 + 1, fpu); every later one
            // is FPU-bound and adds `busy`.
            (int0 + 1).max(self.fpu_time) + reps * busy
        } else {
            // Zero-occupancy ops only drag the FPU clock up to the issue
            // time of the last iteration.
            self.fpu_time.max(self.int_time)
        };
        if Self::is_useful_fp(op) {
            self.counters.fpu_busy_cycles += busy * reps;
        }
        self.counters.fp_instrs += reps;
        self.counters.flops += self.flops_of(op, format.simd_lanes() as u64) * reps;
        self.counters.int_cycles = self.int_time;
        self.counters.fpu_last_complete = self.counters.fpu_last_complete.max(self.fpu_time);
    }

    /// Execute a straight-line `Int`/`Fp` loop body `reps` times.
    ///
    /// This is the fast path for inner loops whose per-iteration timing does
    /// not depend on data (such as the baseline SpVA loop of Listing 1b):
    /// the body is summed once and multiplied. Its FP work is issued op by
    /// op through the integer core, so the FP subsystem finishes together
    /// with the integer pipeline. `CostIntegrator` prices such loops the
    /// same way.
    fn exec_straight_loop(&mut self, body: &[KernelOp], format: FpFormat, reps: u64) {
        let lanes = format.simd_lanes() as u64;
        let mut int_cycles = 0u64;
        let mut int_instrs = 0u64;
        let mut fp_busy = 0u64;
        let mut fp_instrs = 0u64;
        let mut flops = 0u64;
        for op in body {
            match op {
                KernelOp::Int { op, reps, .. } => {
                    let n = int_reps(*reps);
                    int_cycles += self.cost.int_cycles(*op) * n;
                    int_instrs += n;
                }
                KernelOp::Fp { op, reps, .. } => {
                    let n = int_reps(*reps);
                    int_cycles += n; // issue slot on the integer core
                    int_instrs += n;
                    if Self::is_useful_fp(*op) {
                        fp_busy += self.cost.fp_cycles(*op) * n;
                    }
                    fp_instrs += n;
                    flops += self.flops_of(*op, lanes) * n;
                }
                _ => unreachable!("straight-line loop body"),
            }
        }
        self.int_time += int_cycles * reps;
        self.counters.int_instrs += int_instrs * reps;
        self.fpu_time = self.fpu_time.max(self.int_time);
        self.counters.fpu_busy_cycles += fp_busy * reps;
        self.counters.fp_instrs += fp_instrs * reps;
        self.counters.flops += flops * reps;
        self.counters.int_cycles = self.int_time;
        self.counters.fpu_last_complete = self.counters.fpu_last_complete.max(self.fpu_time);
    }

    /// Execute one `KernelOp::Stream`: configure every SSR through its
    /// shadow registers (so setup overlaps the running stream) and drain
    /// them under a single-FP-op FREP region, walking the exact index words
    /// in place.
    fn exec_stream(&mut self, ssrs: &[(SsrId, StreamSpec)], op: FpOp, format: FpFormat) {
        // SSR configuration: the CSR writes of every pattern dimension.
        let mut reps = 0u64;
        for (ssr, spec) in ssrs {
            if matches!(spec, StreamSpec::Indirect { .. }) && !ssr.supports_indirect() {
                panic!("SSR {ssr:?} does not support indirect streams");
            }
            let writes = match spec {
                StreamSpec::Affine { strides, .. } => 2 + 2 * strides.len() as u64,
                StreamSpec::Indirect { .. } => 4,
            };
            self.int_time += writes * self.cost.ssr_config_write;
            self.counters.int_instrs += writes;
            self.counters.ssr_configs += 1;
            reps = reps.max(Self::spec_length(spec));
        }
        if reps == 0 {
            // An empty stream configures its SSRs but never launches the
            // hardware loop.
            self.counters.int_cycles = self.int_time;
            return;
        }

        // Launching the hardware loop occupies the integer core briefly.
        self.int_time += self.cost.frep_launch;
        self.counters.int_instrs += 1;
        // Sequencer back-pressure: only a couple of FREP regions may be
        // outstanding; beyond that the integer core stalls.
        self.retire_completed_freps();
        if self.outstanding_freps.len() >= MAX_OUTSTANDING_FREPS {
            let oldest = self.outstanding_freps.pop_front().expect("non-empty");
            if oldest > self.int_time {
                self.counters.stall_sequencer_full += oldest - self.int_time;
                self.int_time = oldest;
            }
        }

        // Scratchpad traffic of every stream: own bank conflicts plus
        // cross-core interference.
        let mut conflict_stalls = 0u64;
        let mut elements = 0u64;
        let mut stream_interval: f64 = 1.0;
        for (_, spec) in ssrs {
            let (interval, accesses_per_element) = match spec {
                StreamSpec::Affine { .. } => (self.cost.affine_stream_interval, 1.0),
                StreamSpec::Indirect { .. } => (self.cost.indirect_stream_interval, 2.0),
            };
            stream_interval = stream_interval.max(interval);
            if let StreamSpec::Indirect {
                index_base,
                index_bytes,
                data_base,
                elem_bytes,
                indices: IndexStream::Exact(idcs),
            } = spec
            {
                // Each element needs an index fetch plus a gather; when both
                // land in the same bank the data mover loses a cycle.
                conflict_stalls += self.banks.conflict_cycles_indexed(
                    *index_base,
                    *index_bytes,
                    *data_base,
                    *elem_bytes,
                    idcs,
                );
            }
            // Cross-core interference, accumulated fractionally so short
            // streams are not over-penalized.
            let elems = Self::spec_length(spec);
            let expected =
                elems as f64 * accesses_per_element * self.cost.cross_conflict_per_access
                    + self.conflict_carry;
            let cross = expected.floor() as u64;
            self.conflict_carry = expected - cross as f64;
            conflict_stalls += cross;
            elements += elems;
        }

        // Streamed operands arrive at the sustained interval of the slowest
        // stream feeding the body.
        let total_issue = self.cost.fp_cycles(op) * reps;
        let total_occupancy = (total_issue as f64 * stream_interval).ceil() as u64;
        let start = self.int_time.max(self.fpu_time);
        let busy_end = start
            + self.cost.fpu_latency
            + self.cost.stream_startup
            + total_occupancy
            + conflict_stalls;

        self.fpu_time = busy_end;
        self.counters.fpu_busy_cycles += total_issue;
        self.counters.stall_bank_conflict += conflict_stalls;
        self.counters.fp_instrs += reps;
        self.counters.flops += self.flops_of(op, format.simd_lanes() as u64) * reps;
        self.counters.stream_elements += elements;
        self.outstanding_freps.push_back(busy_end);
        self.counters.int_cycles = self.int_time;
        self.counters.fpu_last_complete = self.counters.fpu_last_complete.max(self.fpu_time);
    }

    /// Exact element count of a stream spec.
    ///
    /// # Panics
    ///
    /// Panics on symbolic streams.
    fn spec_length(spec: &StreamSpec) -> u64 {
        match spec {
            StreamSpec::Affine { bounds, .. } => bounds.iter().map(|&b| b as u64).product(),
            StreamSpec::Indirect { indices: IndexStream::Exact(v), .. } => v.len() as u64,
            StreamSpec::Indirect { indices: IndexStream::Expected(_), .. } => {
                panic!("symbolic streams cannot be interpreted, only integrated")
            }
        }
    }

    /// Charge `cycles` of instruction-cache refill stall to the integer core.
    pub fn add_icache_stall(&mut self, cycles: u64) {
        self.int_time += cycles;
        self.counters.stall_icache += cycles;
        self.counters.int_cycles = self.int_time;
    }

    /// Block the integer pipeline until `cycle` waiting for a prologue DMA
    /// tile load (no effect if the core is already past that point).
    pub fn stall_until_dma(&mut self, cycle: u64) {
        if cycle > self.int_time {
            self.counters.stall_dma_wait += cycle - self.int_time;
            self.int_time = cycle;
            self.counters.int_cycles = self.int_time;
        }
    }

    /// Counters accumulated so far.
    pub fn counters(&self) -> &PerfCounters {
        &self.counters
    }

    /// Completion time of the integer pipeline.
    pub fn int_time(&self) -> u64 {
        self.int_time
    }

    /// Time at which the FPU becomes free.
    pub fn fpu_time(&self) -> u64 {
        self.fpu_time
    }

    /// Reset all timing state and counters (between phases).
    pub fn reset(&mut self) {
        self.int_time = 0;
        self.fpu_time = 0;
        self.outstanding_freps.clear();
        self.conflict_carry = 0.0;
        self.counters = PerfCounters::new();
    }

    fn is_useful_fp(op: FpOp) -> bool {
        matches!(op, FpOp::Add | FpOp::Mul | FpOp::Fma | FpOp::Cmp | FpOp::Cvt)
    }

    fn flops_of(&self, op: FpOp, lanes: u64) -> u64 {
        match op {
            FpOp::Add | FpOp::Mul | FpOp::Cmp => lanes,
            FpOp::Fma => 2 * lanes,
            FpOp::Cvt | FpOp::Move | FpOp::Load | FpOp::Store => 0,
        }
    }

    fn retire_completed_freps(&mut self) {
        while let Some(&t) = self.outstanding_freps.front() {
            if t <= self.int_time {
                self.outstanding_freps.pop_front();
            } else {
                break;
            }
        }
    }
}

/// Repetition count of an exact operation.
fn int_reps(reps: f64) -> u64 {
    debug_assert!(reps.fract() == 0.0, "exact programs carry integral repetition counts");
    reps as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    const F: FpFormat = FpFormat::Fp16;

    fn core() -> WorkerCoreModel {
        WorkerCoreModel::new(&ClusterConfig::default(), CostModel::default(), 0)
    }

    /// A streamed SpVA (Listing 1c): one indirect stream of `n` gathered
    /// weights accumulated by a single-instruction FREP body.
    fn gather(ssr: SsrId, n: u32) -> KernelOp {
        KernelOp::Stream {
            ssrs: vec![(
                ssr,
                StreamSpec::Indirect {
                    index_base: 0x100,
                    index_bytes: 2,
                    data_base: 0x1000,
                    elem_bytes: 8,
                    indices: IndexStream::exact(0..n),
                },
            )],
            op: FpOp::Add,
        }
    }

    /// One element of the baseline SpVA loop (Listing 1b): lw, slli, add,
    /// fld, addi, addi, fadd, bne.
    fn baseline_spva_body() -> Vec<KernelOp> {
        vec![
            KernelOp::load(0x100),
            KernelOp::alu().times(2.0),
            KernelOp::fp_at(FpOp::Load, 0x1000),
            KernelOp::alu().times(2.0),
            KernelOp::fp(FpOp::Add),
            KernelOp::branch(),
        ]
    }

    #[test]
    fn int_ops_advance_only_the_integer_pipeline() {
        let mut c = core();
        c.exec(&KernelOp::alu(), F);
        c.exec(&KernelOp::load(0x40), F);
        assert_eq!(c.int_time(), 3);
        assert_eq!(c.fpu_time(), 0);
        assert_eq!(c.counters().int_instrs, 2);
    }

    #[test]
    fn scalar_fp_op_occupies_both_pipelines() {
        let mut c = core();
        c.exec(&KernelOp::fp(FpOp::Add), F);
        assert_eq!(c.counters().fp_instrs, 1);
        assert_eq!(c.counters().fpu_busy_cycles, 1);
        assert!(c.fpu_time() >= 1);
        assert_eq!(c.counters().flops, 4, "FP16 SIMD add = 4 lane flops");
    }

    #[test]
    fn baseline_spva_loop_has_low_fpu_utilization() {
        // Per element the integer core executes 7 instructions plus the fld
        // and fadd; the FPU does one cycle of useful work.
        let mut c = core();
        c.exec(&KernelOp::Loop { body: baseline_spva_body(), reps: 100.0 }, F);
        let util = c.counters().fpu_utilization();
        assert!(util > 0.05 && util < 0.20, "baseline utilization ~10%, got {util}");
    }

    #[test]
    fn straight_line_loop_matches_its_unrolled_body() {
        let mut looped = core();
        looped.exec(&KernelOp::Loop { body: baseline_spva_body(), reps: 100.0 }, F);
        let mut unrolled = core();
        for _ in 0..100 {
            for op in &baseline_spva_body() {
                unrolled.exec(op, F);
            }
        }
        let (l, u) = (looped.counters(), unrolled.counters());
        assert_eq!(looped.int_time(), unrolled.int_time());
        assert_eq!(l.total_cycles(), u.total_cycles());
        assert_eq!(
            (l.int_instrs, l.fp_instrs, l.flops, l.fpu_busy_cycles),
            (u.int_instrs, u.fp_instrs, u.flops, u.fpu_busy_cycles)
        );
    }

    #[test]
    fn zero_trip_loop_changes_nothing() {
        let mut c = core();
        c.exec(&KernelOp::alu(), F);
        let before = c.clone();
        c.exec(&KernelOp::Loop { body: baseline_spva_body(), reps: 0.0 }, F);
        assert_eq!(c.fpu_time(), before.fpu_time(), "the FPU clock does not move");
        assert_eq!(c.counters(), before.counters());
    }

    #[test]
    fn streamed_spva_reaches_high_fpu_utilization() {
        // SpikeStream: configure an indirect stream of 256 elements and run
        // a single-instruction FREP body; utilization approaches 1.
        let mut c = core();
        for _ in 0..8 {
            c.exec(&KernelOp::alu().times(2.0), F); // stream base address computation
            c.exec(&gather(SsrId::Ssr0, 256), F);
        }
        let util = c.counters().fpu_utilization();
        assert!(
            util > 0.5,
            "streamed utilization should approach the indirect-stream ceiling, got {util}"
        );
        assert_eq!(c.counters().stream_elements, 8 * 256);
    }

    #[test]
    fn short_streams_leave_the_fpu_starved() {
        let mut c = core();
        for _ in 0..64 {
            c.exec(&KernelOp::alu().times(10.0), F);
            c.exec(&gather(SsrId::Ssr0, 3), F);
        }
        let util = c.counters().fpu_utilization();
        assert!(util < 0.45, "short streams keep utilization low, got {util}");
    }

    #[test]
    fn shadow_reconfiguration_overlaps_with_running_stream() {
        let mut c = core();
        c.exec(&gather(SsrId::Ssr0, 512), F);
        // Reconfigure the busy SSR right away: the shadow registers take
        // the new pattern without waiting for the first stream to drain.
        c.exec(&gather(SsrId::Ssr0, 4), F);
        assert_eq!(c.counters().ssr_configs, 2);
        assert!(c.int_time() < 100, "integer core keeps running ahead");
        assert!(c.fpu_time() > 512, "while the FPU still drains the first stream");
    }

    #[test]
    fn sequencer_backpressure_limits_runahead() {
        let mut c = core();
        for _ in 0..6 {
            c.exec(&gather(SsrId::Ssr0, 1024), F);
        }
        assert!(c.counters().stall_sequencer_full > 0);
    }

    #[test]
    fn barrier_joins_integer_and_fp_time() {
        let mut c = core();
        c.exec(&gather(SsrId::Ssr1, 128), FpFormat::Fp8);
        c.exec(&KernelOp::Barrier, FpFormat::Fp8);
        assert_eq!(c.int_time(), c.fpu_time());
    }

    #[test]
    #[should_panic(expected = "does not support indirect")]
    fn indirect_stream_on_affine_only_ssr_panics() {
        core().exec(&gather(SsrId::Ssr2, 4), F);
    }

    #[test]
    #[should_panic(expected = "symbolic streams cannot be interpreted")]
    fn symbolic_stream_refuses_to_execute() {
        let spec = StreamSpec::Indirect {
            index_base: 0,
            index_bytes: 2,
            data_base: 0,
            elem_bytes: 8,
            indices: IndexStream::Expected(4.0),
        };
        core().exec(&KernelOp::Stream { ssrs: vec![(SsrId::Ssr0, spec)], op: FpOp::Add }, F);
    }

    #[test]
    fn icache_stall_is_attributed() {
        let mut c = core();
        c.add_icache_stall(120);
        assert_eq!(c.counters().stall_icache, 120);
        assert_eq!(c.int_time(), 120);
    }

    #[test]
    fn reset_clears_state() {
        let mut c = core();
        c.exec(&KernelOp::alu(), F);
        c.reset();
        assert_eq!(c.int_time(), 0);
        assert_eq!(c.counters().int_instrs, 0);
    }
}
