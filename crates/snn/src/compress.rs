//! Compressed representations of sparse spike feature maps.
//!
//! SpikeStream stores the sparse binary ifmaps of convolutional layers in a
//! fiber-tree format derived from CSR (Section III-A of the paper): a
//! channel-index array `c_idcs` marks the active neurons at each spatial
//! position, and a spatial pointer array `s_ptr` holds the running count of
//! spikes across spatial positions. Because spiking activations are binary,
//! no value array is needed. Fully connected layers use a single index
//! array plus a count.
//!
//! The module also implements the address-event representation (AER) used
//! by neuromorphic processors — absolute coordinates plus a timestamp per
//! spike — as the memory-footprint baseline of Fig. 3a.

use crate::tensor::{SpikeMap, TensorShape};

/// Width in bytes of indices and coordinates (the paper assumes 16-bit).
pub const INDEX_BYTES: usize = 2;

/// CSR-derived compressed ifmap of a convolutional layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressedIfmap {
    shape: TensorShape,
    /// Channel indices of active neurons, concatenated position by position
    /// in row-major `(h, w)` order.
    c_idcs: Vec<u16>,
    /// Spatial pointers: `s_ptr[p]` is the number of spikes in positions
    /// `0..p`; length is `h * w + 1`.
    s_ptr: Vec<u32>,
}

impl CompressedIfmap {
    /// Compress a binary spike map.
    ///
    /// ```
    /// use spikestream_snn::tensor::{SpikeMap, TensorShape};
    /// use spikestream_snn::CompressedIfmap;
    ///
    /// let mut map = SpikeMap::silent(TensorShape::new(2, 2, 4));
    /// map.set(0, 1, 3, true);
    /// let csr = CompressedIfmap::from_spike_map(&map);
    /// assert_eq!(csr.spike_count(), 1);
    /// assert_eq!(csr.active_at(0, 1), &[3]);
    /// assert_eq!(csr.decompress(), map);
    /// ```
    pub fn from_spike_map(map: &SpikeMap) -> Self {
        let mut out = CompressedIfmap {
            shape: map.shape(),
            c_idcs: Vec::new(),
            s_ptr: Vec::with_capacity(map.shape().h * map.shape().w + 1),
        };
        out.refill_from(map);
        out
    }

    /// Recompress `map` into this buffer, reusing the index and pointer
    /// allocations — the batch driver's per-worker scratch path (no
    /// per-sample allocation once the vectors reached steady-state
    /// capacity).
    pub fn refill_from(&mut self, map: &SpikeMap) {
        let shape = map.shape();
        self.shape = shape;
        self.c_idcs.clear();
        self.s_ptr.clear();
        let positions = shape.h * shape.w;
        self.s_ptr.reserve(positions + 1);
        self.s_ptr.push(0);
        // One trailing-zeros scan over the packed words; the position
        // boundary (every `c` bits) is advanced amortized-O(1) per spike,
        // closing out each passed fiber with its running spike count.
        let c = shape.c;
        let mut next_boundary = c;
        for idx in map.iter_active() {
            while idx >= next_boundary {
                self.s_ptr.push(self.c_idcs.len() as u32);
                next_boundary += c;
            }
            self.c_idcs.push((idx - (next_boundary - c)) as u16);
        }
        let total = self.c_idcs.len() as u32;
        self.s_ptr.resize(positions + 1, total);
    }

    /// Reconstruct the dense binary spike map.
    pub fn decompress(&self) -> SpikeMap {
        let mut map = SpikeMap::silent(self.shape);
        for h in 0..self.shape.h {
            for w in 0..self.shape.w {
                for &c in self.active_at(h, w) {
                    map.set(h, w, c as usize, true);
                }
            }
        }
        map
    }

    /// Shape of the represented ifmap.
    pub fn shape(&self) -> TensorShape {
        self.shape
    }

    /// Channel-index array (`c_idcs`).
    pub fn c_idcs(&self) -> &[u16] {
        &self.c_idcs
    }

    /// Spatial pointer array (`s_ptr`).
    pub fn s_ptr(&self) -> &[u32] {
        &self.s_ptr
    }

    /// Active channel indices at spatial position `(h, w)`.
    pub fn active_at(&self, h: usize, w: usize) -> &[u16] {
        let p = h * self.shape.w + w;
        let start = self.s_ptr[p] as usize;
        let end = self.s_ptr[p + 1] as usize;
        &self.c_idcs[start..end]
    }

    /// Total number of spikes.
    pub fn spike_count(&self) -> usize {
        self.c_idcs.len()
    }

    /// Firing rate of the represented map.
    pub fn firing_rate(&self) -> f64 {
        if self.shape.is_empty() {
            0.0
        } else {
            self.spike_count() as f64 / self.shape.len() as f64
        }
    }

    /// Memory footprint in bytes with 16-bit indices and spatial pointers,
    /// as assumed in Fig. 3a of the paper.
    pub fn footprint_bytes(&self) -> usize {
        self.c_idcs.len() * INDEX_BYTES + self.s_ptr.len() * INDEX_BYTES
    }
}

impl Default for CompressedIfmap {
    /// An empty `0x0x0` ifmap — the scratch seed for [`refill_from`]
    /// (matches `from_spike_map` on an empty map).
    ///
    /// [`refill_from`]: CompressedIfmap::refill_from
    fn default() -> Self {
        CompressedIfmap { shape: TensorShape::new(0, 0, 0), c_idcs: Vec::new(), s_ptr: vec![0] }
    }
}

/// Compressed input of a fully connected layer: a single index array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressedFcInput {
    in_features: usize,
    idcs: Vec<u16>,
}

impl CompressedFcInput {
    /// Compress a flat binary input vector.
    ///
    /// ```
    /// use spikestream_snn::CompressedFcInput;
    ///
    /// let c = CompressedFcInput::from_spikes(&[false, true, true, false]);
    /// assert_eq!(c.idcs(), &[1, 2]);
    /// assert_eq!(c.decompress(), vec![false, true, true, false]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `spikes.len()` exceeds `u16::MAX + 1` addressable inputs.
    pub fn from_spikes(spikes: &[bool]) -> Self {
        let mut out = CompressedFcInput { in_features: 0, idcs: Vec::new() };
        out.refill_from(spikes);
        out
    }

    /// Recompress `spikes` into this buffer, reusing the index allocation
    /// (see [`CompressedIfmap::refill_from`]).
    ///
    /// # Panics
    ///
    /// Panics if `spikes.len()` exceeds `u16::MAX + 1` addressable inputs.
    pub fn refill_from(&mut self, spikes: &[bool]) {
        assert!(spikes.len() <= u16::MAX as usize + 1, "FC input too large for 16-bit indices");
        self.in_features = spikes.len();
        self.idcs.clear();
        self.idcs.extend(spikes.iter().enumerate().filter_map(|(i, &s)| s.then_some(i as u16)));
    }

    /// Compress a packed spike map flattened to FC input order (HWC linear).
    ///
    /// # Panics
    ///
    /// Panics if the map holds more than `u16::MAX + 1` neurons.
    pub fn from_spike_map(map: &SpikeMap) -> Self {
        let mut out = CompressedFcInput { in_features: 0, idcs: Vec::new() };
        out.refill_from_map(map);
        out
    }

    /// Recompress a packed spike map into this buffer, reusing the index
    /// allocation — the word-parallel twin of [`refill_from`], driven by a
    /// trailing-zeros scan instead of a per-element walk.
    ///
    /// # Panics
    ///
    /// Panics if the map holds more than `u16::MAX + 1` neurons.
    ///
    /// [`refill_from`]: CompressedFcInput::refill_from
    pub fn refill_from_map(&mut self, map: &SpikeMap) {
        let n = map.shape().len();
        assert!(n <= u16::MAX as usize + 1, "FC input too large for 16-bit indices");
        self.in_features = n;
        self.idcs.clear();
        self.idcs.extend(map.iter_active().map(|i| i as u16));
    }

    /// Reconstruct the dense boolean vector.
    pub fn decompress(&self) -> Vec<bool> {
        let mut out = vec![false; self.in_features];
        for &i in &self.idcs {
            out[i as usize] = true;
        }
        out
    }

    /// Indices of active inputs.
    pub fn idcs(&self) -> &[u16] {
        &self.idcs
    }

    /// Number of input neurons represented.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Number of spikes.
    pub fn spike_count(&self) -> usize {
        self.idcs.len()
    }

    /// Memory footprint in bytes (index array plus the spike count word).
    pub fn footprint_bytes(&self) -> usize {
        self.idcs.len() * INDEX_BYTES + 4
    }
}

impl Default for CompressedFcInput {
    /// An empty zero-feature input — the scratch seed for [`refill_from`]
    /// (matches `from_spikes` on an empty slice).
    ///
    /// [`refill_from`]: CompressedFcInput::refill_from
    fn default() -> Self {
        CompressedFcInput { in_features: 0, idcs: Vec::new() }
    }
}

/// One address-event: absolute coordinates plus a timestamp.
///
/// All four fields are 16 bits wide, matching the fixed event words of the
/// neuromorphic interfaces the paper compares against. The format can
/// therefore only address feature maps with `h`, `w` and `c` each at most
/// `u16::MAX + 1` (65 536) positions, and timesteps up to `u16::MAX`;
/// [`AerFrame::from_spike_map`] debug-asserts those limits instead of
/// silently truncating coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AerEvent {
    /// Spatial row of the spiking neuron (limited to `u16`; see the type
    /// docs).
    pub y: u16,
    /// Spatial column of the spiking neuron (limited to `u16`).
    pub x: u16,
    /// Channel of the spiking neuron (limited to `u16`).
    pub channel: u16,
    /// Timestep at which the spike occurred (limited to `u16`).
    pub timestamp: u16,
}

impl AerEvent {
    /// Storage size of one event in bytes (four 16-bit fields).
    pub const BYTES: usize = 8;
}

/// An AER-encoded spike frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AerFrame {
    shape: TensorShape,
    events: Vec<AerEvent>,
}

impl AerFrame {
    /// Encode a spike map at the given timestep.
    ///
    /// # Panics
    ///
    /// Debug-asserts that every coordinate of `map` fits the 16-bit event
    /// fields (`h`, `w`, `c` at most `u16::MAX + 1`); larger maps would
    /// silently wrap their coordinates in release builds, so they are
    /// rejected while debug assertions are on.
    pub fn from_spike_map(map: &SpikeMap, timestamp: u16) -> Self {
        let shape = map.shape();
        debug_assert!(
            shape.h <= u16::MAX as usize + 1
                && shape.w <= u16::MAX as usize + 1
                && shape.c <= u16::MAX as usize + 1,
            "spike map {}x{}x{} exceeds the 16-bit AER coordinate range",
            shape.h,
            shape.w,
            shape.c
        );
        let mut events = Vec::new();
        let row = shape.w * shape.c;
        for idx in map.iter_active() {
            let rem = idx % row;
            events.push(AerEvent {
                y: (idx / row) as u16,
                x: (rem / shape.c) as u16,
                channel: (rem % shape.c) as u16,
                timestamp,
            });
        }
        AerFrame { shape, events }
    }

    /// Encode one frame per timestep of a temporal run: frame `t` carries
    /// the spikes of `maps[t]` stamped with `timestamp = t`. This is the
    /// path that gives [`AerEvent::timestamp`] real semantics — a temporal
    /// inference is a monotone stream of frames, one per step.
    ///
    /// # Panics
    ///
    /// Panics if more than `u16::MAX + 1` timesteps are encoded; per-frame
    /// coordinate limits are debug-asserted as in
    /// [`AerFrame::from_spike_map`].
    pub fn sequence<'a>(maps: impl IntoIterator<Item = &'a SpikeMap>) -> Vec<AerFrame> {
        maps.into_iter()
            .enumerate()
            .map(|(t, map)| {
                assert!(t <= u16::MAX as usize, "timestep {t} exceeds the 16-bit AER timestamp");
                AerFrame::from_spike_map(map, t as u16)
            })
            .collect()
    }

    /// The events of the frame.
    pub fn events(&self) -> &[AerEvent] {
        &self.events
    }

    /// The common timestamp of the frame's events (`None` for an empty
    /// frame).
    pub fn timestamp(&self) -> Option<u16> {
        self.events.first().map(|e| e.timestamp)
    }

    /// Reconstruct the dense spike map.
    pub fn decompress(&self) -> SpikeMap {
        let mut map = SpikeMap::silent(self.shape);
        for e in &self.events {
            map.set(e.y as usize, e.x as usize, e.channel as usize, true);
        }
        map
    }

    /// Memory footprint in bytes.
    pub fn footprint_bytes(&self) -> usize {
        self.events.len() * AerEvent::BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_map() -> SpikeMap {
        let shape = TensorShape::new(3, 3, 8);
        let mut m = SpikeMap::silent(shape);
        m.set(0, 0, 1, true);
        m.set(0, 0, 5, true);
        m.set(1, 2, 0, true);
        m.set(2, 2, 7, true);
        m
    }

    #[test]
    fn csr_round_trip() {
        let map = sample_map();
        let c = CompressedIfmap::from_spike_map(&map);
        assert_eq!(c.spike_count(), 4);
        assert_eq!(c.decompress(), map);
    }

    #[test]
    fn csr_per_position_queries() {
        let c = CompressedIfmap::from_spike_map(&sample_map());
        assert_eq!(c.active_at(0, 0), &[1, 5]);
        assert_eq!(c.active_at(0, 1), &[] as &[u16]);
        assert_eq!(c.active_at(1, 2), &[0]);
        assert_eq!(c.s_ptr().len(), 3 * 3 + 1);
        assert_eq!(*c.s_ptr().last().unwrap(), 4);
    }

    #[test]
    fn csr_footprint_accounts_indices_and_pointers() {
        let c = CompressedIfmap::from_spike_map(&sample_map());
        assert_eq!(c.footprint_bytes(), 4 * 2 + 10 * 2);
    }

    #[test]
    fn aer_round_trip_and_footprint() {
        let map = sample_map();
        let aer = AerFrame::from_spike_map(&map, 3);
        assert_eq!(aer.events().len(), 4);
        assert!(aer.events().iter().all(|e| e.timestamp == 3));
        assert_eq!(aer.decompress(), map);
        assert_eq!(aer.footprint_bytes(), 4 * AerEvent::BYTES);
    }

    #[test]
    fn csr_is_smaller_than_aer_at_meaningful_sparsity() {
        // A 34x34x64 ifmap firing at ~30% (like the early S-VGG11 layers).
        let shape = TensorShape::new(34, 34, 64);
        let mut map = SpikeMap::silent(shape);
        for h in 0..34 {
            for w in 0..34 {
                for c in 0..64 {
                    if (h * 31 + w * 17 + c * 7) % 10 < 3 {
                        map.set(h, w, c, true);
                    }
                }
            }
        }
        let csr = CompressedIfmap::from_spike_map(&map).footprint_bytes();
        let aer = AerFrame::from_spike_map(&map, 0).footprint_bytes();
        let ratio = aer as f64 / csr as f64;
        assert!(ratio > 2.0, "CSR should be well under half of AER, got ratio {ratio}");
    }

    #[test]
    fn fc_compression_round_trip() {
        let spikes = vec![false, true, false, false, true, true];
        let c = CompressedFcInput::from_spikes(&spikes);
        assert_eq!(c.idcs(), &[1, 4, 5]);
        assert_eq!(c.spike_count(), 3);
        assert_eq!(c.decompress(), spikes);
        assert_eq!(c.footprint_bytes(), 3 * 2 + 4);
    }

    #[test]
    fn refill_reuses_buffers_and_matches_fresh_compression() {
        let map = sample_map();
        let mut reused = CompressedIfmap::from_spike_map(&map);
        let big_shape = TensorShape::new(5, 5, 8);
        let mut big = SpikeMap::silent(big_shape);
        big.set(4, 4, 7, true);
        reused.refill_from(&big);
        assert_eq!(reused, CompressedIfmap::from_spike_map(&big));
        reused.refill_from(&map);
        assert_eq!(reused, CompressedIfmap::from_spike_map(&map));

        let mut fc = CompressedFcInput::from_spikes(&[true; 8]);
        fc.refill_from(&[false, true, false]);
        assert_eq!(fc, CompressedFcInput::from_spikes(&[false, true, false]));
        assert_eq!(fc.in_features(), 3);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "debug assertion only")]
    #[should_panic(expected = "16-bit AER coordinate range")]
    fn aer_rejects_maps_beyond_the_u16_coordinate_range() {
        // 65 537 rows: row 65 536 would wrap to y = 0 in the event word.
        let map = SpikeMap::silent(TensorShape::new(u16::MAX as usize + 2, 1, 1));
        let _ = AerFrame::from_spike_map(&map, 0);
    }

    #[test]
    fn aer_accepts_the_largest_addressable_map() {
        let mut map = SpikeMap::silent(TensorShape::new(u16::MAX as usize + 1, 1, 1));
        map.set(u16::MAX as usize, 0, 0, true);
        let frame = AerFrame::from_spike_map(&map, u16::MAX);
        assert_eq!(frame.events().len(), 1);
        assert_eq!(frame.events()[0].y, u16::MAX);
        assert_eq!(frame.decompress(), map);
    }

    #[test]
    fn aer_sequence_stamps_one_frame_per_timestep() {
        let maps = vec![sample_map(), SpikeMap::silent(TensorShape::new(3, 3, 8)), sample_map()];
        let frames = AerFrame::sequence(&maps);
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[0].timestamp(), Some(0));
        assert_eq!(frames[1].timestamp(), None, "silent steps produce empty frames");
        assert_eq!(frames[2].timestamp(), Some(2));
        for (t, (frame, map)) in frames.iter().zip(&maps).enumerate() {
            assert_eq!(&frame.decompress(), map);
            assert!(frame.events().iter().all(|e| e.timestamp == t as u16));
        }
    }

    #[test]
    fn empty_map_compresses_to_pointers_only() {
        let map = SpikeMap::silent(TensorShape::new(4, 4, 16));
        let c = CompressedIfmap::from_spike_map(&map);
        assert_eq!(c.spike_count(), 0);
        assert_eq!(c.footprint_bytes(), 17 * 2);
        assert_eq!(c.firing_rate(), 0.0);
    }
}
