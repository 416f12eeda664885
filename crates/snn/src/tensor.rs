//! Dense tensors and bit-packed binary spike maps in HWC layout.
//!
//! The kernels use an HWC ("channel-last") memory layout so that the
//! weights of different output channels sit in contiguous memory and can be
//! batched across the SIMD lanes of the FPU (Section III-C of the paper).
//!
//! Spiking activations are binary, so [`SpikeMap`] packs them 64 neurons to
//! a `u64` word in HWC linear order (channel-fastest). Every consumer can
//! then operate word-at-a-time: popcounts for spike counting, trailing-zeros
//! scans for active-index iteration, and whole-word skips over silent
//! regions. Bits past `shape.len()` in the final word (the "slack" bits)
//! are always zero — the invariant that makes popcount and `Eq` exact.

/// Bits per packed spike word.
pub const WORD_BITS: usize = 64;

/// A mask of the `bits` lowest bits (`bits` may be 0..=64).
#[inline]
fn low_mask(bits: usize) -> u64 {
    debug_assert!(bits <= WORD_BITS);
    if bits >= WORD_BITS {
        !0
    } else {
        (1u64 << bits) - 1
    }
}

/// Shape of a rank-3 activation tensor (height, width, channels).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TensorShape {
    /// Spatial height.
    pub h: usize,
    /// Spatial width.
    pub w: usize,
    /// Number of channels.
    pub c: usize,
}

impl TensorShape {
    /// Create a shape.
    pub fn new(h: usize, w: usize, c: usize) -> Self {
        TensorShape { h, w, c }
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.h * self.w * self.c
    }

    /// Whether the shape is degenerate (any dimension zero).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Linear index of `(h, w, c)` in HWC layout.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of range.
    pub fn index(&self, h: usize, w: usize, c: usize) -> usize {
        debug_assert!(
            h < self.h && w < self.w && c < self.c,
            "index (h={h}, w={w}, c={c}) out of bounds for shape {self}"
        );
        assert!(h < self.h && w < self.w && c < self.c, "index out of bounds");
        (h * self.w + w) * self.c + c
    }

    /// Number of `u64` words needed to pack `len()` bits.
    pub fn word_count(&self) -> usize {
        self.len().div_ceil(WORD_BITS)
    }
}

impl std::fmt::Display for TensorShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "H={} W={} C={}", self.h, self.w, self.c)
    }
}

/// A dense rank-3 `f32` tensor in HWC layout.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor3 {
    shape: TensorShape,
    data: Vec<f32>,
}

impl Tensor3 {
    /// A zero-filled tensor of the given shape.
    pub fn zeros(shape: TensorShape) -> Self {
        Tensor3 { shape, data: vec![0.0; shape.len()] }
    }

    /// Build a tensor from existing data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the shape.
    pub fn from_vec(shape: TensorShape, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), shape.len(), "data length must match shape");
        Tensor3 { shape, data }
    }

    /// The tensor shape.
    pub fn shape(&self) -> TensorShape {
        self.shape
    }

    /// Immutable view of the raw data (HWC order).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the raw data (HWC order).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Value at `(h, w, c)`.
    pub fn get(&self, h: usize, w: usize, c: usize) -> f32 {
        self.data[self.shape.index(h, w, c)]
    }

    /// Set the value at `(h, w, c)`.
    pub fn set(&mut self, h: usize, w: usize, c: usize, value: f32) {
        let idx = self.shape.index(h, w, c);
        self.data[idx] = value;
    }

    /// Number of non-zero elements.
    pub fn count_nonzero(&self) -> usize {
        self.data.iter().filter(|&&v| v != 0.0).count()
    }
}

/// A binary spike map (the sparse ifmap of one timestep) in HWC layout,
/// bit-packed 64 neurons per `u64` word.
///
/// Values are booleans since spiking activations carry no payload — which
/// is exactly why the compressed format can drop them (Section III-A) and
/// why the host representation can pack 64 of them per word. Bit `i % 64`
/// of word `i / 64` holds the neuron at HWC linear index `i`; bits at and
/// past `shape.len()` in the last word are always zero.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpikeMap {
    shape: TensorShape,
    words: Vec<u64>,
}

impl SpikeMap {
    /// A spike map with no active neurons.
    pub fn silent(shape: TensorShape) -> Self {
        SpikeMap { shape, words: vec![0; shape.word_count()] }
    }

    /// Build from a boolean vector in HWC order.
    ///
    /// # Panics
    ///
    /// Panics if `spikes.len()` does not match the shape.
    pub fn from_vec(shape: TensorShape, spikes: Vec<bool>) -> Self {
        assert_eq!(
            spikes.len(),
            shape.len(),
            "spike vector length {} must match shape {} ({} elements)",
            spikes.len(),
            shape,
            shape.len(),
        );
        SpikeMap::from_fn(shape, |i| spikes[i])
    }

    /// Build by evaluating `fired` at every HWC linear index in ascending
    /// order — the single packing path shared by the encoders, which keeps
    /// per-index RNG draw order identical to the unpacked representation.
    pub fn from_fn(shape: TensorShape, mut fired: impl FnMut(usize) -> bool) -> Self {
        let len = shape.len();
        let mut words = Vec::with_capacity(shape.word_count());
        let mut word = 0u64;
        let mut bit = 0usize;
        for idx in 0..len {
            if fired(idx) {
                word |= 1 << bit;
            }
            bit += 1;
            if bit == WORD_BITS {
                words.push(word);
                word = 0;
                bit = 0;
            }
        }
        if bit > 0 {
            words.push(word);
        }
        SpikeMap { shape, words }
    }

    /// Build from pre-packed words (bit `i % 64` of word `i / 64` is HWC
    /// linear index `i`). Slack bits in the last word are cleared.
    ///
    /// # Panics
    ///
    /// Panics if `words.len()` does not match `shape.word_count()`.
    pub fn from_words(shape: TensorShape, mut words: Vec<u64>) -> Self {
        assert_eq!(
            words.len(),
            shape.word_count(),
            "word vector length {} must match shape {} ({} words)",
            words.len(),
            shape,
            shape.word_count(),
        );
        let slack = shape.len() % WORD_BITS;
        if slack != 0 {
            if let Some(last) = words.last_mut() {
                *last &= low_mask(slack);
            }
        }
        SpikeMap { shape, words }
    }

    /// The map's shape.
    pub fn shape(&self) -> TensorShape {
        self.shape
    }

    /// The packed words (HWC linear order, 64 neurons per word; slack bits
    /// of the final word are zero).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable packed words, for in-crate producers that write whole words
    /// (e.g. [`LifState::step_into_map`]). Writers must preserve the
    /// slack-bit invariant.
    ///
    /// [`LifState::step_into_map`]: crate::neuron::LifState::step_into_map
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Whether the neuron at `(h, w, c)` fired.
    pub fn get(&self, h: usize, w: usize, c: usize) -> bool {
        let idx = self.shape.index(h, w, c);
        (self.words[idx / WORD_BITS] >> (idx % WORD_BITS)) & 1 != 0
    }

    /// Set the spike at `(h, w, c)`.
    pub fn set(&mut self, h: usize, w: usize, c: usize, fired: bool) {
        let idx = self.shape.index(h, w, c);
        let mask = 1u64 << (idx % WORD_BITS);
        if fired {
            self.words[idx / WORD_BITS] |= mask;
        } else {
            self.words[idx / WORD_BITS] &= !mask;
        }
    }

    /// Unpack into one `bool` per neuron in HWC order.
    pub fn to_bools(&self) -> Vec<bool> {
        let len = self.shape.len();
        (0..len).map(|i| (self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 != 0).collect()
    }

    /// Number of spikes in the map (a popcount over the packed words).
    pub fn count_spikes(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Fraction of neurons that fired (the layer's firing rate).
    pub fn firing_rate(&self) -> f64 {
        let len = self.shape.len();
        if len == 0 {
            0.0
        } else {
            self.count_spikes() as f64 / len as f64
        }
    }

    /// Iterate the HWC linear indices of all active neurons in ascending
    /// order, by scanning trailing zeros word-by-word. Silent words cost a
    /// single comparison, so iteration time scales with the spike count
    /// plus the word count — not the neuron count.
    pub fn iter_active(&self) -> ActiveBits<'_> {
        self.active_bits_range(0, self.shape.len())
    }

    /// Iterate the active channel indices at spatial position `(h, w)` in
    /// ascending order — one "fiber" of the compressed representation,
    /// without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `(h, w)` is out of range.
    pub fn active_channels_iter(&self, h: usize, w: usize) -> ActiveChannels<'_> {
        assert!(h < self.shape.h && w < self.shape.w, "position (h={h}, w={w}) out of bounds");
        let base = (h * self.shape.w + w) * self.shape.c;
        ActiveChannels { bits: self.active_bits_range(base, base + self.shape.c), base }
    }

    /// Active-bit iterator over the linear index range `[start, end)`.
    fn active_bits_range(&self, start: usize, end: usize) -> ActiveBits<'_> {
        let end = end.min(self.shape.len());
        if start >= end {
            return ActiveBits { rest: &[], word: 0, word_base: 0, end: 0 };
        }
        let first = start / WORD_BITS;
        let last = (end - 1) / WORD_BITS;
        let mut word = self.words[first] & (!0u64 << (start % WORD_BITS));
        word &= low_mask((end - first * WORD_BITS).min(WORD_BITS));
        ActiveBits { rest: &self.words[first + 1..=last], word, word_base: first * WORD_BITS, end }
    }

    /// OR the bit range `[start, start + len)` into `out`, with bit 0 of
    /// `out[0]` corresponding to linear index `start`. Used by the
    /// word-parallel pooling and padding paths.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the range or `out` is too small.
    pub fn or_range_into(&self, start: usize, len: usize, out: &mut [u64]) {
        debug_assert!(start + len <= self.shape.len(), "bit range out of bounds");
        if len == 0 {
            return;
        }
        let n_out = len.div_ceil(WORD_BITS);
        debug_assert!(out.len() >= n_out, "output word buffer too small");
        let shift = start % WORD_BITS;
        let first = start / WORD_BITS;
        for (i, slot) in out.iter_mut().enumerate().take(n_out) {
            let lo = self.words.get(first + i).copied().unwrap_or(0) >> shift;
            let hi = if shift == 0 {
                0
            } else {
                self.words.get(first + i + 1).copied().unwrap_or(0) << (WORD_BITS - shift)
            };
            let mut v = lo | hi;
            if i == n_out - 1 {
                v &= low_mask(len - i * WORD_BITS);
            }
            *slot |= v;
        }
    }

    /// OR `len` bits from `src` (bit 0 of `src[0]` first) into this map at
    /// linear index `start`. The inverse of [`or_range_into`]; the written
    /// range must lie inside the map, preserving the slack-bit invariant.
    ///
    /// [`or_range_into`]: SpikeMap::or_range_into
    pub fn or_range_from(&mut self, start: usize, len: usize, src: &[u64]) {
        debug_assert!(start + len <= self.shape.len(), "bit range out of bounds");
        if len == 0 {
            return;
        }
        let n_src = len.div_ceil(WORD_BITS);
        debug_assert!(src.len() >= n_src, "source word buffer too small");
        for (i, &raw) in src.iter().enumerate().take(n_src) {
            let rem = (len - i * WORD_BITS).min(WORD_BITS);
            let s = raw & low_mask(rem);
            let base = start + i * WORD_BITS;
            let wi = base / WORD_BITS;
            let sh = base % WORD_BITS;
            self.words[wi] |= s << sh;
            if sh > 0 {
                let spill = s >> (WORD_BITS - sh);
                if spill != 0 {
                    self.words[wi + 1] |= spill;
                }
            }
        }
    }
}

/// Zero-allocation iterator over the active HWC linear indices of a
/// [`SpikeMap`] range, produced by [`SpikeMap::iter_active`]. Each word is
/// drained with a trailing-zeros scan (`word &= word - 1` clears the bit
/// just visited), so wholly silent words are skipped in one comparison.
#[derive(Debug, Clone)]
pub struct ActiveBits<'a> {
    rest: &'a [u64],
    word: u64,
    word_base: usize,
    end: usize,
}

impl Iterator for ActiveBits<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.word != 0 {
                let tz = self.word.trailing_zeros() as usize;
                self.word &= self.word - 1;
                return Some(self.word_base + tz);
            }
            let (&next, rest) = self.rest.split_first()?;
            self.rest = rest;
            self.word_base += WORD_BITS;
            let room = self.end - self.word_base;
            self.word = next & low_mask(room.min(WORD_BITS));
        }
    }
}

impl std::iter::FusedIterator for ActiveBits<'_> {}

/// Zero-allocation iterator over the active channels of one spatial
/// position, produced by [`SpikeMap::active_channels_iter`]. Yields channel
/// indices as `u32` in ascending order.
#[derive(Debug, Clone)]
pub struct ActiveChannels<'a> {
    bits: ActiveBits<'a>,
    base: usize,
}

impl Iterator for ActiveChannels<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        self.bits.next().map(|idx| (idx - self.base) as u32)
    }
}

impl std::iter::FusedIterator for ActiveChannels<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hwc_indexing_is_channel_fastest() {
        let s = TensorShape::new(2, 3, 4);
        assert_eq!(s.index(0, 0, 0), 0);
        assert_eq!(s.index(0, 0, 3), 3);
        assert_eq!(s.index(0, 1, 0), 4);
        assert_eq!(s.index(1, 0, 0), 12);
        assert_eq!(s.len(), 24);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_index_panics() {
        TensorShape::new(2, 2, 2).index(2, 0, 0);
    }

    #[test]
    fn tensor_get_set_round_trip() {
        let mut t = Tensor3::zeros(TensorShape::new(3, 3, 2));
        t.set(1, 2, 1, 7.5);
        assert_eq!(t.get(1, 2, 1), 7.5);
        assert_eq!(t.count_nonzero(), 1);
    }

    #[test]
    fn spike_map_counts_and_rates() {
        let mut m = SpikeMap::silent(TensorShape::new(2, 2, 4));
        assert_eq!(m.firing_rate(), 0.0);
        m.set(0, 0, 1, true);
        m.set(1, 1, 3, true);
        assert_eq!(m.count_spikes(), 2);
        assert!((m.firing_rate() - 2.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn active_channels_are_sorted() {
        let mut m = SpikeMap::silent(TensorShape::new(1, 1, 8));
        for c in [5, 1, 7] {
            m.set(0, 0, c, true);
        }
        let channels: Vec<u32> = m.active_channels_iter(0, 0).collect();
        assert_eq!(channels, vec![1, 5, 7]);
        assert!(channels.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn active_channels_iter_crosses_word_boundaries() {
        // 100 channels per position: the fiber of position (0, 1) spans the
        // packed words [100, 200), crossing two word boundaries.
        let mut m = SpikeMap::silent(TensorShape::new(1, 3, 100));
        for c in [0, 27, 63, 64, 99] {
            m.set(0, 1, c, true);
        }
        // Neighbours fully lit must not leak into the middle fiber.
        for c in 0..100 {
            m.set(0, 0, c, true);
            m.set(0, 2, c, true);
        }
        let channels: Vec<u32> = m.active_channels_iter(0, 1).collect();
        assert_eq!(channels, vec![0, 27, 63, 64, 99]);
    }

    #[test]
    fn iter_active_yields_linear_indices_in_order() {
        let shape = TensorShape::new(2, 2, 40); // 160 bits = 2.5 words
        let mut m = SpikeMap::silent(shape);
        let active = [0usize, 1, 63, 64, 65, 127, 128, 159];
        for &i in &active {
            let (w, c) = (shape.w, shape.c);
            m.set(i / (w * c), (i / c) % w, i % c, true);
        }
        let got: Vec<usize> = m.iter_active().collect();
        assert_eq!(got, active);
    }

    #[test]
    fn slack_bits_stay_clear_under_all_constructors() {
        // 65 bits: one full word plus one slack-heavy word.
        let shape = TensorShape::new(1, 1, 65);
        let all = SpikeMap::from_vec(shape, vec![true; 65]);
        assert_eq!(all.count_spikes(), 65);
        assert_eq!(all.words()[1], 1, "slack bits of the final word must be zero");

        // from_words masks slack bits out.
        let masked = SpikeMap::from_words(shape, vec![!0u64, !0u64]);
        assert_eq!(masked.count_spikes(), 65);
        assert_eq!(masked, all, "Eq must not observe slack bits");

        // silent + set/clear keeps the invariant.
        let mut m = SpikeMap::silent(shape);
        m.set(0, 0, 64, true);
        m.set(0, 0, 64, false);
        assert_eq!(m.count_spikes(), 0);
        assert!(m.words().iter().all(|&w| w == 0));
    }

    #[test]
    fn from_words_round_trips_packed_words() {
        let shape = TensorShape::new(1, 2, 64);
        let words = vec![0xDEAD_BEEF_0BAD_F00Du64, 0x1234_5678_9ABC_DEF0u64];
        let m = SpikeMap::from_words(shape, words.clone());
        assert_eq!(m.words(), &words[..]);
        let round = SpikeMap::from_vec(shape, m.to_bools());
        assert_eq!(round, m);
    }

    #[test]
    fn or_range_round_trips_unaligned_ranges() {
        let shape = TensorShape::new(3, 3, 30); // rows of 90 bits at odd offsets
        let mut m = SpikeMap::silent(shape);
        for i in [0usize, 31, 63, 64, 89] {
            m.set(1, i / 30, i % 30, true); // row 1 = bits [90, 180)
        }
        let mut buf = vec![0u64; 2];
        m.or_range_into(90, 90, &mut buf);
        let mut copy = SpikeMap::silent(shape);
        copy.or_range_from(180, 90, &buf); // shift row 1 into row 2
        let expect: Vec<usize> = m.iter_active().map(|i| i + 90).collect();
        let got: Vec<usize> = copy.iter_active().collect();
        assert_eq!(got, expect);
    }

    #[test]
    #[should_panic(expected = "spike vector length 3 must match shape H=1 W=1 C=4 (4 elements)")]
    fn from_vec_reports_both_lengths() {
        SpikeMap::from_vec(TensorShape::new(1, 1, 4), vec![false; 3]);
    }
}
