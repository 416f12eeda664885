//! Shared L1 instruction-cache model.
//!
//! The eight worker cores share a small (8 KiB) instruction cache. The
//! SpikeStream inner loops are tiny and fit comfortably, but the paper
//! notes that residual instruction-cache misses — together with bank
//! conflicts — account for the gap between the measured and the ideal
//! speedup. We model the cache at *region* granularity: a kernel region
//! (e.g. "baseline conv inner loop", "activation function", "scheduler")
//! has a code footprint in bytes; fetching a region that is not resident
//! charges one refill per line and may evict other regions in LRU order.

use std::collections::VecDeque;

use snitch_arch::ClusterConfig;

/// Instruction cache model working at kernel-region granularity.
#[derive(Debug, Clone)]
pub struct InstructionCache {
    capacity_bytes: u32,
    line_bytes: u32,
    refill_cycles_per_line: u64,
    /// Resident regions, most recently used at the back.
    resident: VecDeque<(u64, u32)>,
}

impl InstructionCache {
    /// Create the cache model for a cluster configuration.
    pub fn new(config: &ClusterConfig, refill_cycles_per_line: u64) -> Self {
        InstructionCache {
            capacity_bytes: config.icache_bytes,
            line_bytes: config.icache_line_bytes,
            refill_cycles_per_line,
            resident: VecDeque::new(),
        }
    }

    /// Record execution of the code region `region_id` with the given
    /// footprint and return the refill stall cycles it incurs.
    ///
    /// A resident region hits and costs nothing; a non-resident region is
    /// brought in line by line, evicting least-recently-used regions if the
    /// capacity is exceeded. Regions larger than the cache always miss.
    pub fn fetch_region(&mut self, region_id: u64, footprint_bytes: u32) -> u64 {
        if let Some(pos) = self.resident.iter().position(|&(id, _)| id == region_id) {
            // Move to MRU position.
            let entry = self.resident.remove(pos).expect("position is valid");
            self.resident.push_back(entry);
            return 0;
        }
        let lines = u64::from(footprint_bytes.div_ceil(self.line_bytes));

        if footprint_bytes <= self.capacity_bytes {
            // Evict LRU regions until the new one fits.
            while self.resident_bytes() + footprint_bytes > self.capacity_bytes {
                self.resident.pop_front();
            }
            self.resident.push_back((region_id, footprint_bytes));
        }
        lines * self.refill_cycles_per_line
    }

    /// Bytes currently resident.
    pub fn resident_bytes(&self) -> u32 {
        self.resident.iter().map(|&(_, b)| b).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> InstructionCache {
        InstructionCache::new(&ClusterConfig::default(), 30)
    }

    #[test]
    fn first_fetch_misses_then_hits() {
        let mut c = cache();
        let stall = c.fetch_region(1, 256);
        assert_eq!(stall, 4 * 30, "256 B = 4 lines of 64 B");
        assert_eq!(c.fetch_region(1, 256), 0, "second fetch hits");
        assert_eq!(c.resident_bytes(), 256);
    }

    #[test]
    fn capacity_pressure_evicts_lru() {
        let mut c = cache();
        // Three 3 KiB regions cannot all fit in 8 KiB.
        c.fetch_region(1, 3 * 1024);
        c.fetch_region(2, 3 * 1024);
        c.fetch_region(3, 3 * 1024); // evicts region 1
        assert!(c.fetch_region(1, 3 * 1024) > 0, "region 1 was evicted");
        assert_eq!(c.fetch_region(3, 3 * 1024), 0, "region 3 is still resident");
    }

    #[test]
    fn oversized_region_always_misses() {
        let mut c = cache();
        assert!(c.fetch_region(9, 32 * 1024) > 0);
        assert!(c.fetch_region(9, 32 * 1024) > 0);
        assert_eq!(c.resident_bytes(), 0, "an oversized region is never resident");
    }
}
