//! Per-operation latency / occupancy cost model.
//!
//! The simulator charges cycles per dynamic operation according to this
//! table. The defaults follow the published Snitch micro-architecture: a
//! single-issue in-order integer pipeline where ALU ops retire in one cycle,
//! scratchpad loads have a two-cycle use latency, taken branches cost an
//! extra flush cycle, and a fully pipelined FPU that can accept one (SIMD)
//! operation per cycle. Accumulation-style dependent chains are modelled
//! with a configurable issue interval so that the streamed SpVA can sustain
//! one accumulate per cycle as in the paper's near-ideal regions.

use crate::isa::{FpOp, IntOp};

/// Cycle costs of individual operations.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Cycles for a simple integer ALU operation.
    pub int_alu: u64,
    /// Cycles for an integer multiply.
    pub int_mul: u64,
    /// Use-latency of a scratchpad load on the integer core (no conflict).
    pub int_load: u64,
    /// Cycles for a store (fire and forget into the interconnect).
    pub int_store: u64,
    /// Cycles for a non-taken branch.
    pub branch_not_taken: u64,
    /// Cycles for a taken branch (includes the pipeline flush bubble).
    pub branch_taken: u64,
    /// Cycles for an atomic read-modify-write on the scratchpad.
    pub int_amo: u64,
    /// Cycles for a CSR / SSR configuration write.
    pub int_csr: u64,
    /// Cycles for an int<->FP move (explicit synchronization).
    pub int_move: u64,
    /// Issue interval of an FPU op in cycles (1 = fully pipelined).
    pub fpu_issue: u64,
    /// Extra cycles of result latency for the first op of a dependent chain
    /// (pipeline fill); sustained dependent accumulation issues every
    /// `fpu_issue` cycles thereafter.
    pub fpu_latency: u64,
    /// Cycles for a non-streamed FP load (`fld`) issued via the int core.
    pub fp_load: u64,
    /// Cycles for a non-streamed FP store.
    pub fp_store: u64,
    /// Extra cycles charged when a scratchpad access loses bank arbitration.
    pub bank_conflict_penalty: u64,
    /// Cycles to refill one instruction cache line from global memory.
    pub icache_refill: u64,
    /// Integer-core cycles to launch an `frep` hardware loop.
    pub frep_launch: u64,
    /// Integer-core cycles per SSR configuration write (bound/stride/base);
    /// a full indirect-stream setup issues several of these.
    pub ssr_config_write: u64,
    /// Cycles between the start of a stream and its first delivered element
    /// (index fetch plus gather latency for indirect streams).
    pub stream_startup: u64,
    /// Sustained delivery interval of an *affine* stream in cycles per
    /// element (1.0 = one element per cycle).
    pub affine_stream_interval: f64,
    /// Sustained delivery interval of an *indirect* stream in cycles per
    /// element. Each indirect element needs an index fetch and a gather
    /// through the same scratchpad port, so sustained throughput stays
    /// below one element per cycle; this single constant is the main
    /// calibration knob for the SpikeStream utilization ceiling.
    pub indirect_stream_interval: f64,
    /// Expected extra stall cycles per scratchpad access caused by
    /// contention with the other cores of the cluster. The value is a
    /// calibration constant: with eight cores issuing roughly two stream
    /// accesses per cycle into 32 banks, a few percent of accesses lose
    /// arbitration. Shared by the cycle-level core model and the analytic
    /// cost integration so both charge the same interference.
    pub cross_conflict_per_access: f64,
}

impl CostModel {
    /// The default cost model used for the paper reproduction.
    pub fn snitch() -> Self {
        CostModel {
            int_alu: 1,
            int_mul: 2,
            int_load: 2,
            int_store: 1,
            branch_not_taken: 1,
            branch_taken: 2,
            int_amo: 4,
            int_csr: 1,
            int_move: 1,
            fpu_issue: 1,
            fpu_latency: 3,
            fp_load: 2,
            fp_store: 1,
            bank_conflict_penalty: 1,
            icache_refill: 30,
            frep_launch: 1,
            ssr_config_write: 1,
            stream_startup: 4,
            affine_stream_interval: 1.0,
            indirect_stream_interval: 1.55,
            cross_conflict_per_access: 0.04,
        }
    }

    /// Integer-pipeline occupancy of an operation, excluding memory stalls.
    pub fn int_cycles(&self, op: IntOp) -> u64 {
        match op {
            IntOp::Alu => self.int_alu,
            IntOp::Mul => self.int_mul,
            IntOp::Load => self.int_load,
            IntOp::Store => self.int_store,
            IntOp::Branch => self.branch_taken,
            IntOp::Amo => self.int_amo,
            IntOp::Csr => self.int_csr,
            IntOp::Move => self.int_move,
        }
    }

    /// FPU occupancy of an operation (issue slots, not latency).
    pub fn fp_cycles(&self, op: FpOp) -> u64 {
        match op {
            FpOp::Add | FpOp::Mul | FpOp::Fma | FpOp::Cmp | FpOp::Cvt | FpOp::Move => {
                self.fpu_issue
            }
            FpOp::Load => self.fp_load,
            FpOp::Store => self.fp_store,
        }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::snitch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_costs_are_single_issue_friendly() {
        let c = CostModel::default();
        assert_eq!(c.int_cycles(IntOp::Alu), 1);
        assert_eq!(c.fp_cycles(FpOp::Add), 1);
        assert!(c.int_cycles(IntOp::Load) >= 1);
        assert!(c.branch_taken >= c.branch_not_taken);
    }

    #[test]
    fn baseline_spva_element_cost_matches_listing_1b() {
        // Listing 1b: lw, slli, add, fld, addi, addi, fadd, bne -> the
        // integer pipeline alone needs ~9-10 cycles per element with the
        // default cost model, which yields the ~10% FPU utilization the
        // paper reports for the non-streamed baseline.
        let c = CostModel::default();
        let int_cycles = c.int_cycles(IntOp::Load)
            + 3 * c.int_cycles(IntOp::Alu)
            + c.fp_load
            + c.int_cycles(IntOp::Branch);
        assert!(int_cycles >= 8, "got {int_cycles}");
    }
}
