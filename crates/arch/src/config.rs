//! Cluster configuration parameters.
//!
//! The defaults reproduce the Snitch cluster instance used in the
//! SpikeStream paper: eight RV32G worker cores plus one DMA core, a 128 KiB
//! scratchpad organized in 32 banks behind a single-cycle logarithmic
//! interconnect, an 8 KiB shared L1 instruction cache, a 512-bit DMA data
//! path to global memory, and a 1 GHz clock in GlobalFoundries 12LP+.

/// Static configuration of a simulated Snitch cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Number of compute (worker) cores with FPU and SSRs.
    pub worker_cores: usize,
    /// Number of stream semantic registers per worker core.
    pub ssrs_per_core: usize,
    /// Scratchpad (TCDM) capacity in bytes.
    pub spm_bytes: u32,
    /// Number of scratchpad banks.
    pub spm_banks: u32,
    /// Width of one scratchpad bank port in bytes (one 64-bit word).
    pub spm_bank_width_bytes: u32,
    /// Shared L1 instruction cache capacity in bytes.
    pub icache_bytes: u32,
    /// Instruction cache line size in bytes.
    pub icache_line_bytes: u32,
    /// Width of the DMA engine data path in bits.
    pub dma_width_bits: u32,
    /// Latency of a DMA transfer setup (cycles before the first beat).
    pub dma_setup_cycles: u64,
    /// Global-memory bandwidth available to the DMA engine, bytes per cycle.
    pub global_mem_bytes_per_cycle: f64,
    /// Cluster clock frequency in Hz.
    pub clock_hz: f64,
    /// Depth of the FPU sequencer buffer that lets the integer core run
    /// ahead of outstanding FP instructions (pseudo dual issue).
    pub sequencer_depth: usize,
}

impl ClusterConfig {
    /// The configuration evaluated in the paper (Section II-B / IV).
    pub fn snitch_cluster() -> Self {
        ClusterConfig {
            worker_cores: 8,
            ssrs_per_core: 3,
            spm_bytes: 128 * 1024,
            spm_banks: 32,
            spm_bank_width_bytes: 8,
            icache_bytes: 8 * 1024,
            icache_line_bytes: 64,
            dma_width_bits: 512,
            dma_setup_cycles: 20,
            global_mem_bytes_per_cycle: 64.0,
            clock_hz: 1.0e9,
            sequencer_depth: 16,
        }
    }

    /// DMA beat width in bytes.
    pub fn dma_width_bytes(&self) -> u32 {
        self.dma_width_bits / 8
    }

    /// Total number of cores including the DMA core.
    pub fn total_cores(&self) -> usize {
        self.worker_cores + 1
    }

    /// Duration of one clock cycle in seconds.
    pub fn cycle_time_s(&self) -> f64 {
        1.0 / self.clock_hz
    }

    /// Validate internal consistency of the configuration.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated constraint
    /// (zero cores, non-power-of-two bank count, SPM not divisible by the
    /// bank layout, or a zero clock).
    pub fn validate(&self) -> Result<(), String> {
        if self.worker_cores == 0 {
            return Err("cluster must have at least one worker core".into());
        }
        if !self.spm_banks.is_power_of_two() {
            return Err(format!("SPM bank count {} must be a power of two", self.spm_banks));
        }
        if !self.spm_bytes.is_multiple_of(self.spm_banks * self.spm_bank_width_bytes) {
            return Err("SPM size must be a multiple of banks * bank width".into());
        }
        if self.clock_hz <= 0.0 {
            return Err("clock frequency must be positive".into());
        }
        if self.ssrs_per_core == 0 {
            return Err("worker cores need at least one SSR for streaming kernels".into());
        }
        Ok(())
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self::snitch_cluster()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_cluster() {
        let c = ClusterConfig::default();
        assert_eq!(c.worker_cores, 8);
        assert_eq!(c.spm_bytes, 128 * 1024);
        assert_eq!(c.spm_banks, 32);
        assert_eq!(c.icache_bytes, 8 * 1024);
        assert_eq!(c.dma_width_bits, 512);
        assert_eq!(c.clock_hz, 1.0e9);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let c = ClusterConfig { worker_cores: 0, ..ClusterConfig::default() };
        assert!(c.validate().is_err());

        let c = ClusterConfig { spm_banks: 30, ..ClusterConfig::default() };
        assert!(c.validate().is_err());

        let c = ClusterConfig { clock_hz: 0.0, ..ClusterConfig::default() };
        assert!(c.validate().is_err());
    }

    #[test]
    fn derived_quantities() {
        let c = ClusterConfig::default();
        assert_eq!(c.dma_width_bytes(), 64);
        assert_eq!(c.total_cores(), 9);
        assert!((c.cycle_time_s() - 1e-9).abs() < 1e-18);
    }
}
