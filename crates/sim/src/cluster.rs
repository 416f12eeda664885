//! Cluster-level aggregation: worker cores + DMA core + shared I-cache.
//!
//! The stream-program interpreter ([`crate::Interpreter`]) hands each
//! work item to the per-core [`WorkerCoreModel`] whose pipeline is least
//! advanced (workload stealing), issues the program's tile transfers on the
//! DMA engine, and finally the caller asks the cluster model to close the
//! *phase*. A phase corresponds to one network layer in the
//! SpikeStream evaluation: its runtime is the slowest core or the DMA
//! engine, whichever finishes last, which is exactly how double buffering
//! hides (or fails to hide) memory transfers.

use snitch_arch::{ClusterConfig, CostModel};
use snitch_mem::{DmaEngine, DmaRequest, InstructionCache};

use crate::core_model::WorkerCoreModel;
use crate::counters::PerfCounters;

/// Aggregated statistics of one execution phase (one layer).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStats {
    /// Phase duration in cycles: slowest worker core or DMA completion.
    /// Guaranteed nonzero (an empty phase reports one cycle).
    pub cycles: u64,
    /// Duration of the compute part only (slowest worker core). Guaranteed
    /// nonzero, so downstream consumers never have to clamp.
    pub compute_cycles: u64,
    /// Cycle at which the DMA engine finished its last transfer.
    pub dma_cycles: u64,
    /// Summed duration of all DMA transfers. The gap between
    /// `compute_cycles + dma_busy_cycles` and `cycles` is the transfer time
    /// double buffering hid behind compute.
    pub dma_busy_cycles: u64,
    /// Average per-core FPU utilization (0..=1).
    pub fpu_utilization: f64,
    /// Average per-core instructions per cycle.
    pub ipc: f64,
    /// Summed counters over all worker cores.
    pub totals: PerfCounters,
    /// Bytes moved into the scratchpad by the DMA engine.
    pub dma_bytes_in: u64,
    /// Bytes moved out of the scratchpad by the DMA engine.
    pub dma_bytes_out: u64,
}

/// A simulated Snitch cluster.
#[derive(Debug, Clone)]
pub struct ClusterModel {
    config: ClusterConfig,
    cores: Vec<WorkerCoreModel>,
    dma: DmaEngine,
    icache: InstructionCache,
}

impl ClusterModel {
    /// Create a cluster with the given configuration and cost model.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`ClusterConfig::validate`].
    pub fn new(config: ClusterConfig, cost: CostModel) -> Self {
        config.validate().expect("invalid cluster configuration");
        let cores = (0..config.worker_cores)
            .map(|i| WorkerCoreModel::new(&config, cost.clone(), i))
            .collect();
        let icache = InstructionCache::new(&config, cost.icache_refill);
        let dma = DmaEngine::new(&config);
        ClusterModel { config, cores, dma, icache }
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Number of worker cores.
    pub fn worker_cores(&self) -> usize {
        self.cores.len()
    }

    /// Mutable access to a worker core model.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn core_mut(&mut self, core: usize) -> &mut WorkerCoreModel {
        &mut self.cores[core]
    }

    /// Shared access to all worker cores.
    pub fn cores(&self) -> &[WorkerCoreModel] {
        &self.cores
    }

    /// Issue a DMA transfer at cluster time `now` (usually 0 for the initial
    /// tile load, or a core's current time for double-buffered prefetches).
    pub fn dma_issue(&mut self, request: DmaRequest, now: u64) -> u64 {
        self.dma.issue(request, now).complete_cycle
    }

    /// Record execution of a code region on `core` and charge any refill
    /// stall to it. Region ids must be unique per distinct kernel region.
    pub fn fetch_code(&mut self, core: usize, region_id: u64, footprint_bytes: u32) {
        let stall = self.icache.fetch_region(region_id, footprint_bytes);
        if stall > 0 {
            self.cores[core].add_icache_stall(stall);
        }
    }

    /// Block every worker core until `cycle` waiting for prologue DMA tile
    /// loads (the program interpreter's double-buffer serialization point).
    pub fn stall_cores_until_dma(&mut self, cycle: u64) {
        for core in &mut self.cores {
            core.stall_until_dma(cycle);
        }
    }

    /// The worker core whose pipeline is least advanced in time — the core
    /// that steals the next work item under workload stealing.
    pub fn least_busy_core(&self) -> usize {
        (0..self.cores.len())
            .min_by_key(|&i| self.cores[i].counters().total_cycles().max(self.cores[i].int_time()))
            .expect("cluster has at least one core")
    }

    /// Close the current phase: aggregate all per-core counters and the DMA
    /// activity into a [`PhaseStats`], then reset the cores and the DMA
    /// engine for the next phase. The instruction cache keeps its contents
    /// (kernels stay resident across layers).
    ///
    /// The returned `cycles` and `compute_cycles` are guaranteed nonzero:
    /// even an empty phase costs one cycle, which lets downstream consumers
    /// divide by phase durations without clamping.
    pub fn finish_phase(&mut self) -> PhaseStats {
        let compute_cycles =
            self.cores.iter().map(|c| c.counters().total_cycles()).max().unwrap_or(0).max(1);
        let dma_cycles = self.dma.busy_until();
        let cycles = compute_cycles.max(dma_cycles);

        let mut totals = PerfCounters::new();
        let mut util_sum = 0.0;
        let mut ipc_sum = 0.0;
        for core in &self.cores {
            let c = core.counters();
            totals.merge(c);
            util_sum += c.fpu_utilization();
            ipc_sum += c.ipc();
        }
        let n = self.cores.len().max(1) as f64;
        let (dma_in, dma_out) = self.dma.bytes_moved();

        let stats = PhaseStats {
            cycles,
            compute_cycles,
            dma_cycles,
            dma_busy_cycles: self.dma.busy_cycles(),
            fpu_utilization: util_sum / n,
            ipc: ipc_sum / n,
            totals,
            dma_bytes_in: dma_in,
            dma_bytes_out: dma_out,
        };

        for core in &mut self.cores {
            core.reset();
        }
        self.dma.reset();
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snitch_arch::fp::FpFormat;
    use snitch_arch::isa::FpOp;
    use snitch_arch::SsrId;
    use snitch_mem::dma::DmaDirection;
    use spikestream_ir::{IndexStream, KernelOp, Ssrs, StreamSpec};

    fn cluster() -> ClusterModel {
        ClusterModel::new(ClusterConfig::default(), CostModel::default())
    }

    #[test]
    fn phase_cycles_track_the_slowest_core() {
        let mut cl = cluster();
        let idcs: Vec<u16> = (0..1000).collect();
        for core in 0..cl.worker_cores() {
            let reps = if core == 3 { 1000 } else { 10 };
            let spva = KernelOp::Stream {
                ssrs: Ssrs::One((
                    SsrId::Ssr0,
                    StreamSpec::Indirect {
                        index_base: 0,
                        index_bytes: 2,
                        data_base: 0x1000,
                        elem_bytes: 8,
                        indices: IndexStream::Exact(&idcs[..reps]),
                    },
                )),
                op: FpOp::Add,
            };
            cl.core_mut(core).exec(&spva, FpFormat::Fp16);
        }
        let stats = cl.finish_phase();
        assert!(stats.compute_cycles >= 1000);
        assert_eq!(stats.cycles, stats.compute_cycles, "no DMA traffic issued");
    }

    #[test]
    fn dma_bound_phase_is_limited_by_dma() {
        let mut cl = cluster();
        cl.core_mut(0).exec(&KernelOp::alu(), FpFormat::Fp16);
        let done = cl.dma_issue(DmaRequest::contiguous(DmaDirection::In, 1 << 20), 0);
        let stats = cl.finish_phase();
        assert_eq!(stats.cycles, done);
        assert!(stats.dma_cycles > stats.compute_cycles);
        assert_eq!(stats.dma_bytes_in, 1 << 20);
    }

    #[test]
    fn finish_phase_resets_cores_and_dma() {
        let mut cl = cluster();
        cl.core_mut(0).exec(&KernelOp::alu(), FpFormat::Fp16);
        cl.dma_issue(DmaRequest::contiguous(DmaDirection::Out, 4096), 0);
        let first = cl.finish_phase();
        assert!(first.cycles > 1);
        let second = cl.finish_phase();
        assert_eq!(second.cycles, 1, "empty phases report the guaranteed one cycle");
        assert_eq!(second.compute_cycles, 1);
        assert_eq!(second.dma_bytes_out, 0);
    }

    #[test]
    fn code_fetch_charges_refills_once() {
        let mut cl = cluster();
        cl.fetch_code(0, 42, 512);
        let stall_first = cl.cores()[0].counters().stall_icache;
        assert!(stall_first > 0);
        cl.fetch_code(1, 42, 512);
        assert_eq!(cl.cores()[1].counters().stall_icache, 0, "second core hits");
    }

    #[test]
    #[should_panic(expected = "invalid cluster configuration")]
    fn invalid_config_panics() {
        let cfg = ClusterConfig { spm_banks: 33, ..ClusterConfig::default() };
        let _ = ClusterModel::new(cfg, CostModel::default());
    }
}
