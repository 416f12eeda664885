//! Performance counters collected per worker core.
//!
//! These counters mirror what the paper extracts from the RTL simulation
//! traces: total cycles, FPU-busy cycles (to compute FPU utilization),
//! retired instructions (to compute IPC), and a breakdown of stall causes
//! used to explain the gap to the ideal speedup.

/// Reasons a core may lose cycles beyond useful issue slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallCause {
    /// Scratchpad bank conflicts on stream or scalar accesses.
    BankConflict,
    /// Instruction-cache refills.
    IcacheMiss,
    /// Integer core blocked because the FPU sequencer buffer is full.
    SequencerFull,
    /// Core waiting for a prologue DMA tile load before starting compute.
    DmaWait,
    /// FPU idle waiting for stream data or for the integer core.
    FpuStarved,
}

impl StallCause {
    /// Every stall cause, for iteration in reports.
    pub fn all() -> [StallCause; 5] {
        [
            StallCause::BankConflict,
            StallCause::IcacheMiss,
            StallCause::SequencerFull,
            StallCause::DmaWait,
            StallCause::FpuStarved,
        ]
    }
}

/// Counter set of one worker core over one phase.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PerfCounters {
    /// Cycles spent by the integer pipeline (issue + stalls).
    pub int_cycles: u64,
    /// Cycles during which the FPU had an operation in flight.
    pub fpu_busy_cycles: u64,
    /// Cycle at which the last FP/stream operation of the phase completes.
    pub fpu_last_complete: u64,
    /// Integer instructions retired.
    pub int_instrs: u64,
    /// FP instructions issued to the FPU (one per SIMD op, however wide).
    pub fp_instrs: u64,
    /// Scalar FLOP count: FP instructions x SIMD lanes (x2 for FMA).
    pub flops: u64,
    /// Number of SSR (re)configurations performed.
    pub ssr_configs: u64,
    /// Number of stream elements delivered by the SSRs.
    pub stream_elements: u64,
    /// Stall cycles attributed to bank conflicts.
    pub stall_bank_conflict: u64,
    /// Stall cycles attributed to instruction-cache refills.
    pub stall_icache: u64,
    /// Stall cycles with the integer core blocked on a full sequencer buffer.
    pub stall_sequencer_full: u64,
    /// Stall cycles waiting for prologue DMA tile loads.
    pub stall_dma_wait: u64,
}

impl PerfCounters {
    /// A zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total cycles of the phase as seen by this core: the later of the
    /// integer-pipeline completion and the last FP/stream completion.
    pub fn total_cycles(&self) -> u64 {
        self.int_cycles.max(self.fpu_last_complete)
    }

    /// Fraction of phase cycles during which the FPU was busy (0..=1).
    pub fn fpu_utilization(&self) -> f64 {
        let total = self.total_cycles();
        if total == 0 {
            0.0
        } else {
            self.fpu_busy_cycles as f64 / total as f64
        }
    }

    /// Instructions (integer + FP) retired per cycle.
    pub fn ipc(&self) -> f64 {
        let total = self.total_cycles();
        if total == 0 {
            0.0
        } else {
            (self.int_instrs + self.fp_instrs) as f64 / total as f64
        }
    }

    /// Total attributed stall cycles.
    pub fn stall_cycles(&self) -> u64 {
        self.stall_bank_conflict
            + self.stall_icache
            + self.stall_sequencer_full
            + self.stall_dma_wait
    }

    /// Stall cycles attributed to a specific cause.
    pub fn stalls(&self, cause: StallCause) -> u64 {
        match cause {
            StallCause::BankConflict => self.stall_bank_conflict,
            StallCause::IcacheMiss => self.stall_icache,
            StallCause::SequencerFull => self.stall_sequencer_full,
            StallCause::DmaWait => self.stall_dma_wait,
            StallCause::FpuStarved => self.total_cycles().saturating_sub(self.fpu_busy_cycles),
        }
    }

    /// Merge another counter set into this one (used to accumulate cores
    /// or batch items).
    pub fn merge(&mut self, other: &PerfCounters) {
        self.int_cycles += other.int_cycles;
        self.fpu_busy_cycles += other.fpu_busy_cycles;
        self.fpu_last_complete += other.fpu_last_complete;
        self.int_instrs += other.int_instrs;
        self.fp_instrs += other.fp_instrs;
        self.flops += other.flops;
        self.ssr_configs += other.ssr_configs;
        self.stream_elements += other.stream_elements;
        self.stall_bank_conflict += other.stall_bank_conflict;
        self.stall_icache += other.stall_icache;
        self.stall_sequencer_full += other.stall_sequencer_full;
        self.stall_dma_wait += other.stall_dma_wait;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_and_ipc_are_zero_on_empty_counters() {
        let c = PerfCounters::new();
        assert_eq!(c.total_cycles(), 0);
        assert_eq!(c.fpu_utilization(), 0.0);
        assert_eq!(c.ipc(), 0.0);
    }

    #[test]
    fn utilization_is_fpu_busy_over_total() {
        let c = PerfCounters {
            int_cycles: 100,
            fpu_busy_cycles: 25,
            fpu_last_complete: 80,
            ..Default::default()
        };
        assert_eq!(c.total_cycles(), 100);
        assert!((c.fpu_utilization() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn total_cycles_covers_trailing_fp_work() {
        let c = PerfCounters {
            int_cycles: 50,
            fpu_last_complete: 120,
            fpu_busy_cycles: 90,
            ..Default::default()
        };
        assert_eq!(c.total_cycles(), 120);
        assert!(c.fpu_utilization() > 0.5);
    }

    #[test]
    fn merge_accumulates_all_fields() {
        let mut a = PerfCounters { int_cycles: 10, fp_instrs: 5, flops: 20, ..Default::default() };
        let b = PerfCounters { int_cycles: 7, fp_instrs: 3, flops: 12, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.int_cycles, 17);
        assert_eq!(a.fp_instrs, 8);
        assert_eq!(a.flops, 32);
    }

    #[test]
    fn stall_lookup_matches_fields() {
        let c = PerfCounters {
            stall_bank_conflict: 3,
            stall_icache: 4,
            stall_dma_wait: 5,
            stall_sequencer_full: 6,
            ..Default::default()
        };
        assert_eq!(c.stalls(StallCause::BankConflict), 3);
        assert_eq!(c.stalls(StallCause::IcacheMiss), 4);
        assert_eq!(c.stalls(StallCause::DmaWait), 5);
        assert_eq!(c.stalls(StallCause::SequencerFull), 6);
        assert_eq!(c.stall_cycles(), 18);
    }
}
