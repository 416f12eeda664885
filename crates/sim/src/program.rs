//! Stream-program interpreter.
//!
//! [`Interpreter`] runs an *exact* program on a [`ClusterModel`] as an
//! emitter writes it, one phase and one work item at a time: it is the
//! [`ProgramSink`] the cycle-level backend lowers each layer into, so no
//! program is ever held. DMA phases go to the cluster's DMA engine
//! (double-buffered transfers overlap compute, prologue loads gate it,
//! epilogue write-backs wait for it), and each work item goes to the
//! worker core whose pipeline is the least advanced in time — exactly the
//! atomic `next_rf` workload-stealing scheme of the paper's Fig. 2b — which
//! executes the item's [`KernelOp`]s one by one on its
//! [`WorkerCoreModel`](crate::WorkerCoreModel). An exact item holds one
//! `Int` op per run of integer instructions, so each run is one pipeline
//! update. [`execute_program`] replays a collected [`StreamProgram`] into
//! the same interpreter.
//!
//! The analytic backend prices the *same* programs with
//! `spikestream_ir::CostIntegrator`; this module is the other consumer of
//! the IR, and the two are pinned against each other by the
//! `ir_equivalence` property tests at the repository root.

use snitch_arch::fp::FpFormat;
use snitch_mem::dma::DmaDirection;
use spikestream_ir::{CodeRegion, DmaPhase, KernelOp, Phase, ProgramSink, StreamProgram};

use crate::cluster::ClusterModel;

/// A [`ProgramSink`] that executes each phase and work item on the cluster
/// as it arrives.
///
/// Timing accumulates in the cluster's cores and DMA engine; drop the
/// interpreter and close the phase with [`ClusterModel::finish_phase`] to
/// collect the statistics.
///
/// The interpreter takes the emitter's word that the program is exact
/// (integral repetition counts, resolved gather indices); a symbolic
/// program can only be integrated.
#[derive(Debug)]
pub struct Interpreter<'a> {
    cluster: &'a mut ClusterModel,
    format: FpFormat,
    /// Completion cycle of the latest prologue load: compute waits for it.
    prologue_floor: u64,
    /// Code regions of the open compute phase, fetched per item.
    code: &'static [CodeRegion],
}

impl<'a> Interpreter<'a> {
    /// An interpreter of `format` programs on `cluster`.
    pub fn new(cluster: &'a mut ClusterModel, format: FpFormat) -> Self {
        Interpreter { cluster, format, prologue_floor: 0, code: &[] }
    }
}

impl<'a> ProgramSink<'a> for Interpreter<'_> {
    fn dma(&mut self, phase: DmaPhase) {
        let at = if phase.direction == DmaDirection::Out && !phase.double_buffered {
            // Epilogue write-back: wait for the compute stream.
            compute_time(self.cluster)
        } else {
            // Prologue loads and double-buffered transfers issue as early
            // as the engine allows.
            0
        };
        let done = self.cluster.dma_issue(phase.request(), at);
        if phase.direction == DmaDirection::In && !phase.double_buffered {
            self.prologue_floor = self.prologue_floor.max(done);
        }
    }

    fn compute(&mut self, code: &'static [CodeRegion]) {
        self.cluster.stall_cores_until_dma(self.prologue_floor);
        self.code = code;
    }

    fn item(&mut self, ops: &[KernelOp<'a>]) {
        let core = self.cluster.least_busy_core();
        for region in self.code {
            self.cluster.fetch_code(core, region.id, region.bytes);
        }
        let core = self.cluster.core_mut(core);
        for op in ops {
            core.exec(op, self.format);
        }
    }

    fn end_compute(&mut self) {
        // Implicit end-of-phase barrier: every core joins its outstanding
        // FP work.
        for core in 0..self.cluster.worker_cores() {
            self.cluster.core_mut(core).exec(&KernelOp::Barrier, self.format);
        }
    }
}

/// Execute one collected exact stream program on the cluster: replay its
/// phases into an [`Interpreter`], each item `instances` times.
///
/// Timing accumulates in the cluster's cores and DMA engine; close the
/// phase with [`ClusterModel::finish_phase`] to collect the statistics.
///
/// # Panics
///
/// Panics if the program is symbolic (fractional repetition counts or
/// expected-length streams) — symbolic programs can only be integrated.
pub fn execute_program(cluster: &mut ClusterModel, program: &StreamProgram<'_>) {
    assert!(
        !program.is_symbolic(),
        "symbolic programs cannot be interpreted; use the analytic cost integration"
    );
    let mut interpreter = Interpreter::new(cluster, program.format);
    for phase in &program.phases {
        match phase {
            Phase::Dma(d) => interpreter.dma(*d),
            Phase::Compute(c) => {
                interpreter.compute(c.code);
                for item in &c.items {
                    for _ in 0..item.instances as u64 {
                        interpreter.item(&item.ops);
                    }
                }
                interpreter.end_compute();
            }
        }
    }
}

/// Completion time of the slowest worker core so far.
fn compute_time(cluster: &ClusterModel) -> u64 {
    cluster.cores().iter().map(|c| c.counters().total_cycles()).max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use snitch_arch::isa::FpOp;
    use snitch_arch::{ClusterConfig, CostModel, FpFormat, SsrId};
    use spikestream_ir::{
        CodeRegion, ComputePhase, CostIntegrator, DmaPhase, IndexStream, Ssrs, StreamSpec, WorkItem,
    };

    fn cluster() -> ClusterModel {
        ClusterModel::new(ClusterConfig::default(), CostModel::default())
    }

    /// A claimed gather through `idcs`.
    fn stream_item(idcs: &[u16]) -> WorkItem<'_> {
        WorkItem::new(vec![
            KernelOp::amo(),
            KernelOp::branch(),
            KernelOp::Stream {
                ssrs: Ssrs::One((
                    SsrId::Ssr0,
                    StreamSpec::Indirect {
                        index_base: 0x100,
                        index_bytes: 2,
                        data_base: 0x1000,
                        elem_bytes: 8,
                        indices: IndexStream::Exact(idcs),
                    },
                )),
                op: FpOp::Add,
            },
        ])
    }

    fn iota(n: u16) -> Vec<u16> {
        (0..n).collect()
    }

    fn program(items: Vec<WorkItem<'_>>) -> StreamProgram<'_> {
        let mut p = StreamProgram::new("test", FpFormat::Fp16);
        p.push(Phase::Dma(DmaPhase::contiguous(DmaDirection::In, 4096, false)));
        p.push(Phase::Compute(ComputePhase {
            code: &[CodeRegion { id: 0x99, bytes: 512 }],
            items,
        }));
        p.push(Phase::Dma(DmaPhase::contiguous(DmaDirection::Out, 256, false)));
        p
    }

    #[test]
    fn interpreter_and_integrator_agree_exactly_on_totals() {
        let idcs = iota(128);
        let p = program((0..32).map(|_| stream_item(&idcs)).collect());
        let mut cl = cluster();
        execute_program(&mut cl, &p);
        let stats = cl.finish_phase();

        let cost = CostIntegrator::snitch().integrate(&p);
        assert_eq!(stats.totals.int_instrs as f64, cost.int_instrs);
        assert_eq!(stats.totals.fp_instrs as f64, cost.fp_instrs);
        assert_eq!(stats.totals.flops as f64, cost.flops);
        assert_eq!(stats.totals.stream_elements as f64, cost.stream_elements);
        assert_eq!(stats.dma_bytes_in, cost.dma_bytes_in);
        assert_eq!(stats.dma_bytes_out, cost.dma_bytes_out);
        // Cycle counts track each other closely (distribution is identical
        // here, so the only slack is bookkeeping).
        let rel = (stats.compute_cycles as f64 - cost.compute_cycles as f64).abs()
            / stats.compute_cycles as f64;
        assert!(
            rel < 0.02,
            "compute cycles within 2%: sim {} vs ir {}",
            stats.compute_cycles,
            cost.compute_cycles
        );
    }

    #[test]
    fn prologue_load_gates_compute() {
        let mut p = StreamProgram::new("gate", FpFormat::Fp16);
        p.push(Phase::Dma(DmaPhase::contiguous(DmaDirection::In, 1 << 16, false)));
        p.push(Phase::Compute(ComputePhase {
            code: &[],
            items: vec![WorkItem::new(vec![KernelOp::alu()])],
        }));
        let mut cl = cluster();
        execute_program(&mut cl, &p);
        let stats = cl.finish_phase();
        assert!(stats.compute_cycles > 1000, "cores wait for the tile load");
        assert!(stats.totals.stall_dma_wait > 0);
    }

    #[test]
    fn double_buffered_transfers_overlap_compute() {
        let idcs = iota(256);
        let mut p = StreamProgram::new("db", FpFormat::Fp16);
        p.push(Phase::Dma(DmaPhase::contiguous(DmaDirection::In, 1 << 14, false)));
        for _ in 0..4 {
            p.push(Phase::Dma(DmaPhase::contiguous(DmaDirection::In, 1 << 14, true)));
        }
        p.push(Phase::Compute(ComputePhase {
            code: &[],
            items: (0..64).map(|_| stream_item(&idcs)).collect(),
        }));
        let mut cl = cluster();
        execute_program(&mut cl, &p);
        let stats = cl.finish_phase();
        assert!(
            stats.cycles < stats.compute_cycles + stats.dma_busy_cycles,
            "double-buffered tiles must hide behind compute: cycles {} compute {} dma busy {}",
            stats.cycles,
            stats.compute_cycles,
            stats.dma_busy_cycles
        );
    }

    #[test]
    fn epilogue_writeback_waits_for_compute() {
        let idcs = iota(512);
        let mut p = StreamProgram::new("ep", FpFormat::Fp16);
        p.push(Phase::Compute(ComputePhase {
            code: &[],
            items: (0..8).map(|_| stream_item(&idcs)).collect(),
        }));
        p.push(Phase::Dma(DmaPhase::contiguous(DmaDirection::Out, 4096, false)));
        let mut cl = cluster();
        execute_program(&mut cl, &p);
        let stats = cl.finish_phase();
        assert!(stats.dma_cycles > stats.compute_cycles, "write-back lands after compute");
        assert_eq!(stats.cycles, stats.dma_cycles);
    }

    #[test]
    #[should_panic(expected = "symbolic programs")]
    fn symbolic_program_is_rejected() {
        let mut p = StreamProgram::new("sym", FpFormat::Fp16);
        p.push(Phase::Compute(ComputePhase {
            code: &[],
            items: vec![WorkItem::new(vec![KernelOp::alu().times(0.5)])],
        }));
        execute_program(&mut cluster(), &p);
    }

    #[test]
    fn work_items_spread_over_all_cores() {
        let idcs = iota(64);
        let p = program((0..16).map(|_| stream_item(&idcs)).collect());
        let mut cl = cluster();
        execute_program(&mut cl, &p);
        assert!(cl.cores().iter().all(|c| c.counters().int_instrs > 0), "every core claims work");
    }
}
