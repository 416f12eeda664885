//! Stream-program interpreter.
//!
//! Executes an *exact* [`StreamProgram`] on a [`ClusterModel`]: DMA phases
//! go to the cluster's DMA engine (double-buffered transfers overlap
//! compute, prologue loads gate it, epilogue write-backs wait for it),
//! compute phases distribute their work items over the worker cores by
//! workload stealing — always handing the next item to the core whose
//! pipeline is the least advanced in time, exactly the atomic `next_rf`
//! scheme of the paper's Fig. 2b — and the claiming core executes the
//! item's [`KernelOp`]s directly on its
//! [`WorkerCoreModel`](crate::WorkerCoreModel).
//!
//! The analytic backend prices the *same* programs with
//! `spikestream_ir::CostIntegrator`; this module is the other consumer of
//! the IR, and the two are pinned against each other by the
//! `ir_equivalence` property tests at the repository root.

use snitch_mem::dma::DmaDirection;
use spikestream_ir::{KernelOp, Phase, StreamProgram};

use crate::cluster::ClusterModel;

/// Execute one exact stream program on the cluster.
///
/// Timing accumulates in the cluster's cores and DMA engine; close the
/// phase with [`ClusterModel::finish_phase`] to collect the statistics.
///
/// # Panics
///
/// Panics if the program is symbolic (fractional repetition counts or
/// expected-length streams) — symbolic programs can only be integrated.
pub fn execute_program(cluster: &mut ClusterModel, program: &StreamProgram) {
    assert!(
        !program.is_symbolic(),
        "symbolic programs cannot be interpreted; use the analytic cost integration"
    );
    let format = program.format;
    let mut prologue_floor = 0u64;

    for phase in &program.phases {
        match phase {
            Phase::Dma(d) => {
                let at = if d.direction == DmaDirection::Out && !d.double_buffered {
                    // Epilogue write-back: wait for the compute stream.
                    compute_time(cluster)
                } else {
                    // Prologue loads and double-buffered transfers issue as
                    // early as the engine allows.
                    0
                };
                let done = cluster.dma_issue(d.request(), at);
                if d.direction == DmaDirection::In && !d.double_buffered {
                    prologue_floor = prologue_floor.max(done);
                }
            }
            Phase::Compute(c) => {
                cluster.stall_cores_until_dma(prologue_floor);
                for item in &c.items {
                    for _ in 0..item.instances as u64 {
                        let core = cluster.least_busy_core();
                        for region in &c.code {
                            cluster.fetch_code(core, region.id, region.bytes);
                        }
                        let model = cluster.core_mut(core);
                        for op in &item.ops {
                            model.exec(op, format);
                        }
                    }
                }
                // Implicit end-of-phase barrier: every core joins its
                // outstanding FP work.
                for core in 0..cluster.worker_cores() {
                    cluster.core_mut(core).exec(&KernelOp::Barrier, format);
                }
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
        CodeRegion, ComputePhase, CostIntegrator, DmaPhase, IndexStream, StreamSpec, WorkItem,
    };

    fn cluster() -> ClusterModel {
        ClusterModel::new(ClusterConfig::default(), CostModel::default())
    }

    fn stream_item(n: u32) -> WorkItem {
        WorkItem::new(vec![
            KernelOp::amo(0),
            KernelOp::branch(),
            KernelOp::Stream {
                ssrs: vec![(
                    SsrId::Ssr0,
                    StreamSpec::Indirect {
                        index_base: 0x100,
                        index_bytes: 2,
                        data_base: 0x1000,
                        elem_bytes: 8,
                        indices: IndexStream::Exact((0..n).collect()),
                    },
                )],
                op: FpOp::Add,
            },
        ])
    }

    fn program(items: Vec<WorkItem>) -> StreamProgram {
        let mut p = StreamProgram::new("test", FpFormat::Fp16);
        p.push(Phase::Dma(DmaPhase::contiguous(DmaDirection::In, 4096, false)));
        p.push(Phase::Compute(ComputePhase {
            code: vec![CodeRegion { id: 0x99, bytes: 512 }],
            items,
        }));
        p.push(Phase::Dma(DmaPhase::contiguous(DmaDirection::Out, 256, false)));
        p
    }

    #[test]
    fn interpreter_and_integrator_agree_exactly_on_totals() {
        let p = program((0..32).map(|_| stream_item(128)).collect());
        let mut cl = cluster();
        execute_program(&mut cl, &p);
        let stats = cl.finish_phase("x");

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
            code: vec![],
            items: vec![WorkItem::new(vec![KernelOp::alu()])],
        }));
        let mut cl = cluster();
        execute_program(&mut cl, &p);
        let stats = cl.finish_phase("gate");
        assert!(stats.compute_cycles > 1000, "cores wait for the tile load");
        assert!(stats.totals.stall_dma_wait > 0);
    }

    #[test]
    fn double_buffered_transfers_overlap_compute() {
        let mut p = StreamProgram::new("db", FpFormat::Fp16);
        p.push(Phase::Dma(DmaPhase::contiguous(DmaDirection::In, 1 << 14, false)));
        for _ in 0..4 {
            p.push(Phase::Dma(DmaPhase::contiguous(DmaDirection::In, 1 << 14, true)));
        }
        p.push(Phase::Compute(ComputePhase {
            code: vec![],
            items: (0..64).map(|_| stream_item(256)).collect(),
        }));
        let mut cl = cluster();
        execute_program(&mut cl, &p);
        let stats = cl.finish_phase("db");
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
        let mut p = StreamProgram::new("ep", FpFormat::Fp16);
        p.push(Phase::Compute(ComputePhase {
            code: vec![],
            items: (0..8).map(|_| stream_item(512)).collect(),
        }));
        p.push(Phase::Dma(DmaPhase::contiguous(DmaDirection::Out, 4096, false)));
        let mut cl = cluster();
        execute_program(&mut cl, &p);
        let stats = cl.finish_phase("ep");
        assert!(stats.dma_cycles > stats.compute_cycles, "write-back lands after compute");
        assert_eq!(stats.cycles, stats.dma_cycles);
    }

    #[test]
    #[should_panic(expected = "symbolic programs")]
    fn symbolic_program_is_rejected() {
        let mut p = StreamProgram::new("sym", FpFormat::Fp16);
        p.push(Phase::Compute(ComputePhase {
            code: vec![],
            items: vec![WorkItem::new(vec![KernelOp::alu().times(0.5)])],
        }));
        execute_program(&mut cluster(), &p);
    }

    #[test]
    fn work_items_spread_over_all_cores() {
        let p = program((0..16).map(|_| stream_item(64)).collect());
        let mut cl = cluster();
        execute_program(&mut cl, &p);
        assert!(cl.cores().iter().all(|c| c.counters().int_instrs > 0), "every core claims work");
    }
}
