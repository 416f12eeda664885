//! DMA engine model.
//!
//! The Snitch cluster contains a ninth core without FPU or SSRs whose only
//! job is to program a 512-bit DMA engine that moves tiles between global
//! memory and the scratchpad. SpikeStream uses it to double-buffer weights
//! and compressed ifmaps (Section III-D) and to perform the on-the-fly
//! im2row reshaping of the first, dense spike-encoding layer (Section III-F)
//! through 2D transfers.
//!
//! The model is a bandwidth/latency model: a transfer costs a fixed setup
//! time plus one beat per `dma_width_bytes()` of payload, further limited by
//! the global-memory bandwidth. Transfers complete asynchronously so the
//! kernels can overlap them with computation.

use snitch_arch::ClusterConfig;

/// Direction of a DMA transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmaDirection {
    /// Global memory -> scratchpad (tile load).
    In,
    /// Scratchpad -> global memory (tile write-back).
    Out,
}

/// A DMA transfer request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DmaRequest {
    /// Transfer direction.
    pub direction: DmaDirection,
    /// Bytes of one contiguous row.
    pub row_bytes: u64,
    /// Number of rows (1 for a plain 1D transfer).
    pub rows: u64,
    /// Extra per-row setup overhead in cycles for strided (2D) transfers.
    pub row_stride_overhead: u64,
}

impl DmaRequest {
    /// A 1D contiguous transfer of `bytes`.
    pub fn contiguous(direction: DmaDirection, bytes: u64) -> Self {
        DmaRequest { direction, row_bytes: bytes, rows: 1, row_stride_overhead: 0 }
    }

    /// A 2D strided transfer of `rows` rows of `row_bytes` each — the
    /// shape used by the im2row reshaping of the first layer.
    pub fn strided_2d(direction: DmaDirection, row_bytes: u64, rows: u64) -> Self {
        DmaRequest { direction, row_bytes, rows, row_stride_overhead: 2 }
    }

    /// Total payload bytes of the request.
    pub fn total_bytes(&self) -> u64 {
        self.row_bytes * self.rows
    }
}

/// An in-flight or completed transfer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DmaTransfer {
    /// The originating request.
    pub request: DmaRequest,
    /// Cycle at which the transfer was issued.
    pub issue_cycle: u64,
    /// Cycle at which the last beat lands.
    pub complete_cycle: u64,
}

/// The cluster DMA engine.
///
/// The engine serializes transfers: a request issued while a previous one is
/// still in flight starts only after that one completes (the real engine has
/// a small request queue which behaves the same way for back-to-back tile
/// transfers).
#[derive(Debug, Clone)]
pub struct DmaEngine {
    beat_bytes: u64,
    setup_cycles: u64,
    mem_bytes_per_cycle: f64,
    busy_until: u64,
    busy_cycles: u64,
    bytes_in: u64,
    bytes_out: u64,
}

impl DmaEngine {
    /// Create a DMA engine for the given cluster configuration.
    pub fn new(config: &ClusterConfig) -> Self {
        DmaEngine {
            beat_bytes: config.dma_width_bytes() as u64,
            setup_cycles: config.dma_setup_cycles,
            mem_bytes_per_cycle: config.global_mem_bytes_per_cycle,
            busy_until: 0,
            busy_cycles: 0,
            bytes_in: 0,
            bytes_out: 0,
        }
    }

    /// Cycles needed to move the payload of `request`, excluding queueing.
    pub fn transfer_cycles(&self, request: &DmaRequest) -> u64 {
        let payload = request.total_bytes();
        if payload == 0 {
            return 0;
        }
        let beats = payload.div_ceil(self.beat_bytes);
        let bw_limit = (payload as f64 / self.mem_bytes_per_cycle).ceil() as u64;
        self.setup_cycles
            + beats.max(bw_limit)
            + request.rows.saturating_sub(1) * request.row_stride_overhead
    }

    /// Issue a transfer at `now`; returns the completed transfer record.
    ///
    /// The transfer starts at `max(now, busy_until)` — i.e. after any
    /// transfer already in flight — and the engine stays busy until its
    /// completion cycle.
    pub fn issue(&mut self, request: DmaRequest, now: u64) -> DmaTransfer {
        let start = now.max(self.busy_until);
        let complete = start + self.transfer_cycles(&request);
        self.busy_until = complete;
        self.busy_cycles += complete - start;
        match request.direction {
            DmaDirection::In => self.bytes_in += request.total_bytes(),
            DmaDirection::Out => self.bytes_out += request.total_bytes(),
        }
        DmaTransfer { request, issue_cycle: start, complete_cycle: complete }
    }

    /// Cycle until which the engine is busy.
    pub fn busy_until(&self) -> u64 {
        self.busy_until
    }

    /// Summed duration of every issued transfer — the engine's total busy
    /// time, as opposed to [`Self::busy_until`] which is the completion
    /// *cycle* of the last transfer. The difference between `busy_until`
    /// and a phase's compute time plus `busy_cycles` is what double
    /// buffering hides.
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Total bytes moved in each direction `(in, out)`.
    pub fn bytes_moved(&self) -> (u64, u64) {
        (self.bytes_in, self.bytes_out)
    }

    /// Forget all issued transfers and become idle (between layers).
    pub fn reset(&mut self) {
        self.busy_until = 0;
        self.busy_cycles = 0;
        self.bytes_in = 0;
        self.bytes_out = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> DmaEngine {
        DmaEngine::new(&ClusterConfig::default())
    }

    #[test]
    fn contiguous_transfer_cost_scales_with_size() {
        let e = engine();
        let small = e.transfer_cycles(&DmaRequest::contiguous(DmaDirection::In, 64));
        let large = e.transfer_cycles(&DmaRequest::contiguous(DmaDirection::In, 64 * 1024));
        assert!(large > small);
        // 64 KiB over a 64 B/cycle path needs at least 1024 beats.
        assert!(large >= 1024);
    }

    #[test]
    fn empty_transfer_is_free() {
        let e = engine();
        assert_eq!(e.transfer_cycles(&DmaRequest::contiguous(DmaDirection::Out, 0)), 0);
    }

    #[test]
    fn strided_transfer_pays_per_row_overhead() {
        let e = engine();
        let flat = e.transfer_cycles(&DmaRequest::contiguous(DmaDirection::In, 4096));
        let strided = e.transfer_cycles(&DmaRequest::strided_2d(DmaDirection::In, 128, 32));
        assert!(strided > flat, "2D transfer of the same payload costs more");
    }

    #[test]
    fn transfers_serialize_on_the_engine() {
        let mut e = engine();
        let t1 = e.issue(DmaRequest::contiguous(DmaDirection::In, 8192), 0);
        let t2 = e.issue(DmaRequest::contiguous(DmaDirection::In, 8192), 10);
        assert_eq!(t2.issue_cycle, t1.complete_cycle, "second transfer waits for the first");
        assert_eq!(e.busy_until(), t2.complete_cycle);
        assert_eq!(e.busy_cycles(), t2.complete_cycle, "back to back from cycle 0");
    }

    #[test]
    fn transfer_issued_after_idle_starts_immediately() {
        let mut e = engine();
        let t1 = e.issue(DmaRequest::contiguous(DmaDirection::In, 64), 0);
        let t2 = e.issue(DmaRequest::contiguous(DmaDirection::Out, 64), t1.complete_cycle + 100);
        assert_eq!(t2.issue_cycle, t1.complete_cycle + 100);
        assert_eq!(e.busy_cycles(), t2.complete_cycle - 100, "idle time is not busy");
    }

    #[test]
    fn bytes_moved_tracks_directions() {
        let mut e = engine();
        e.issue(DmaRequest::contiguous(DmaDirection::In, 1000), 0);
        e.issue(DmaRequest::contiguous(DmaDirection::Out, 500), 0);
        assert_eq!(e.bytes_moved(), (1000, 500));
        e.reset();
        assert_eq!(e.bytes_moved(), (0, 0));
        assert_eq!((e.busy_until(), e.busy_cycles()), (0, 0));
    }
}
