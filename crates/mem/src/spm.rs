//! Scratchpad (TCDM) bank model and buffer allocator.
//!
//! The Snitch scratchpad interleaves consecutive 64-bit words across its 32
//! banks. Every cycle, each bank can serve a single request; when several
//! requestors (integer cores, SSR data movers, the DMA engine) target the
//! same bank in the same cycle, the logarithmic interconnect serializes them
//! and all but one lose a cycle. The irregular gather addresses of the
//! indirect SpikeStream streams make such conflicts the main residual
//! non-ideality of the streamed kernels (Section IV-A of the paper).

use snitch_arch::ClusterConfig;

/// Maps addresses to banks and estimates arbitration conflicts.
#[derive(Debug, Clone)]
pub struct BankConflictModel {
    banks: u32,
    bank_width_bytes: u32,
}

impl BankConflictModel {
    /// Create a conflict model for the given cluster configuration.
    pub fn new(config: &ClusterConfig) -> Self {
        BankConflictModel { banks: config.spm_banks, bank_width_bytes: config.spm_bank_width_bytes }
    }

    /// Number of banks.
    pub fn banks(&self) -> u32 {
        self.banks
    }

    /// Bank index serving the given byte address.
    pub fn bank_of(&self, addr: u32) -> u32 {
        (addr / self.bank_width_bytes) % self.banks
    }

    /// Conflict stalls of one indirect stream: element `k` fetches its
    /// index at `index_base + k * index_bytes` and gathers
    /// `data_base + indices[k] * elem_bytes` in the same cycle, so every
    /// element whose two accesses land in the same bank costs one stall.
    /// Walks the index words in place, without materializing the address
    /// sequences.
    pub fn conflict_cycles_indexed(
        &self,
        index_base: u32,
        index_bytes: u32,
        data_base: u32,
        elem_bytes: u32,
        indices: &[u32],
    ) -> u64 {
        let mut stalls = 0u64;
        for (k, &idx) in indices.iter().enumerate() {
            let index_addr = index_base + k as u32 * index_bytes;
            let gather = data_base.wrapping_add(idx * elem_bytes);
            if self.bank_of(index_addr) == self.bank_of(gather) {
                stalls += 1;
            }
        }
        stalls
    }
}

/// A buffer allocated inside the scratchpad.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpmBuffer {
    /// Byte offset of the buffer within the scratchpad.
    pub base: u32,
    /// Size of the buffer in bytes.
    pub bytes: u32,
}

impl SpmBuffer {
    /// Address one past the end of the buffer.
    pub fn end(&self) -> u32 {
        self.base + self.bytes
    }

    /// Whether the buffer contains the byte address `addr`.
    pub fn contains(&self, addr: u32) -> bool {
        addr >= self.base && addr < self.end()
    }
}

/// Bump allocator for scratchpad buffers.
///
/// The SpikeStream kernels allocate, per tile: the compressed ifmap
/// (`c_idcs` + `s_ptr`), the weight tile, the neuron-state tile, and the
/// worst-case-sized compressed ofmap buffers — each twice when
/// double-buffered. The allocator reproduces the capacity constraint of the
/// 128 KiB scratchpad, which drives the tiling decisions.
#[derive(Debug, Clone)]
pub struct SpmAllocator {
    capacity: u32,
    next: u32,
    allocations: Vec<SpmBuffer>,
}

impl SpmAllocator {
    /// Create an allocator covering the whole scratchpad of `config`.
    pub fn new(config: &ClusterConfig) -> Self {
        SpmAllocator { capacity: config.spm_bytes, next: 0, allocations: Vec::new() }
    }

    /// Create an allocator with an explicit capacity in bytes.
    pub fn with_capacity(capacity: u32) -> Self {
        SpmAllocator { capacity, next: 0, allocations: Vec::new() }
    }

    /// Allocate `bytes` (8-byte aligned).
    ///
    /// # Errors
    ///
    /// Returns [`SpmAllocError`] when the scratchpad does not have enough
    /// free space left.
    pub fn alloc(&mut self, bytes: u32) -> Result<SpmBuffer, SpmAllocError> {
        let aligned = bytes.div_ceil(8) * 8;
        if self.next + aligned > self.capacity {
            return Err(SpmAllocError {
                requested: aligned,
                free: self.capacity - self.next,
                capacity: self.capacity,
            });
        }
        let buffer = SpmBuffer { base: self.next, bytes: aligned };
        self.next += aligned;
        self.allocations.push(buffer);
        Ok(buffer)
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> u32 {
        self.next
    }

    /// Bytes still available.
    pub fn free(&self) -> u32 {
        self.capacity - self.next
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// All granted allocations, in allocation order.
    pub fn allocations(&self) -> &[SpmBuffer] {
        &self.allocations
    }

    /// Release every allocation (used between layer phases).
    pub fn reset(&mut self) {
        self.next = 0;
        self.allocations.clear();
    }
}

/// Error returned when a scratchpad allocation does not fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpmAllocError {
    /// Bytes requested (after alignment).
    pub requested: u32,
    /// Bytes still free.
    pub free: u32,
    /// Total scratchpad capacity.
    pub capacity: u32,
}

impl std::fmt::Display for SpmAllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "scratchpad allocation of {} B does not fit ({} B free of {} B)",
            self.requested, self.free, self.capacity
        )
    }
}

impl std::error::Error for SpmAllocError {}

/// Named scratchpad layout of a double-buffered kernel phase.
///
/// Convenience wrapper bundling the buffers a conv/FC tile needs, so the
/// kernels and the tests can reason about scratchpad occupancy together.
#[derive(Debug, Clone)]
pub struct SpmLayout {
    /// Compressed ifmap index buffer (`c_idcs`), per buffer copy.
    pub ifmap_idcs: Vec<SpmBuffer>,
    /// Spatial pointer buffer (`s_ptr`), per buffer copy.
    pub ifmap_sptr: Vec<SpmBuffer>,
    /// Weight tile, per buffer copy.
    pub weights: Vec<SpmBuffer>,
    /// Neuron state (membrane potential) tile.
    pub neuron_state: SpmBuffer,
    /// Worst-case compressed ofmap buffer.
    pub ofmap: SpmBuffer,
}

impl SpmLayout {
    /// Total bytes occupied by the layout.
    pub fn total_bytes(&self) -> u32 {
        let sum = |v: &Vec<SpmBuffer>| v.iter().map(|b| b.bytes).sum::<u32>();
        sum(&self.ifmap_idcs)
            + sum(&self.ifmap_sptr)
            + sum(&self.weights)
            + self.neuron_state.bytes
            + self.ofmap.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> BankConflictModel {
        BankConflictModel::new(&ClusterConfig::default())
    }

    #[test]
    fn banks_interleave_by_word() {
        let m = model();
        assert_eq!(m.bank_of(0), 0);
        assert_eq!(m.bank_of(8), 1);
        assert_eq!(m.bank_of(8 * 31), 31);
        assert_eq!(m.bank_of(8 * 32), 0);
        // Sub-word addresses stay in the same bank.
        assert_eq!(m.bank_of(4), 0);
    }

    #[test]
    fn pairwise_conflicts_count_same_bank_pairs() {
        let m = model();
        // Three 2-byte index fetches, all in bank 8 (0x40, 0x42, 0x44); the
        // gathers from 0x1000 (bank 0) land in bank `index % 32`.
        let indices = [8, 3, 40];
        // 8 and 40 gather from bank 8 and conflict with their index
        // fetch; 3 gathers from bank 3 and does not.
        assert_eq!(m.conflict_cycles_indexed(0x40, 2, 0x1000, 8, &indices), 2);
        assert_eq!(m.conflict_cycles_indexed(0x40, 2, 0x1000, 8, &[]), 0);
    }

    #[test]
    fn allocator_respects_capacity() {
        let mut a = SpmAllocator::with_capacity(64);
        let b1 = a.alloc(10).expect("first allocation fits");
        assert_eq!(b1.base, 0);
        assert_eq!(b1.bytes, 16, "allocations are 8-byte aligned");
        let b2 = a.alloc(48).expect("second allocation fits");
        assert_eq!(b2.base, 16);
        assert!(a.alloc(8).is_err(), "scratchpad is full");
        assert_eq!(a.used(), 64);
        a.reset();
        assert_eq!(a.free(), 64);
    }

    #[test]
    fn allocator_matches_cluster_capacity() {
        let mut a = SpmAllocator::new(&ClusterConfig::default());
        assert_eq!(a.capacity(), 128 * 1024);
        assert!(a.alloc(128 * 1024).is_ok());
        assert!(a.alloc(8).is_err());
    }

    #[test]
    fn buffer_contains() {
        let b = SpmBuffer { base: 16, bytes: 32 };
        assert!(b.contains(16));
        assert!(b.contains(47));
        assert!(!b.contains(48));
        assert!(!b.contains(8));
    }
}
