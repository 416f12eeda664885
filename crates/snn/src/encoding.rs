//! Spike encodings for dense (image) inputs.
//!
//! Most directly-trained SNNs, including the S-VGG11 used by the paper, let
//! the first convolutional layer perform the encoding: the raw pixel values
//! are interpreted as input currents (direct encoding). A Poisson rate
//! encoding is also provided for event-style workloads and for the
//! multi-timestep accelerator comparison of Fig. 5.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::tensor::{SpikeMap, Tensor3, TensorShape};

/// How a dense input image becomes the first layer's input at each
/// timestep of a temporal run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TemporalEncoding {
    /// Poisson rate coding: each pixel spikes with probability equal to its
    /// normalized intensity, independently per timestep. The encoding
    /// layer's per-step input is a binary 0/1 current tensor.
    Rate,
    /// Direct coding: the image itself is the input-current tensor of the
    /// encoding layer at every timestep (the scheme the paper's directly
    /// trained S-VGG11 uses).
    Direct,
}

impl TemporalEncoding {
    /// The scenario-file spelling of this encoding.
    pub fn as_str(self) -> &'static str {
        match self {
            TemporalEncoding::Rate => "rate",
            TemporalEncoding::Direct => "direct",
        }
    }
}

impl std::fmt::Display for TemporalEncoding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Per-timestep encoder of one sample's dense input image.
///
/// Each step is seeded independently from `(seed, step)`, so encoding
/// step `t` is a pure function — the temporal pipeline stays bit-identical
/// no matter how samples are scheduled across workers or shards.
///
/// # Example
///
/// ```
/// use spikestream_snn::encoding::{TemporalEncoder, TemporalEncoding};
/// use spikestream_snn::tensor::{Tensor3, TensorShape};
///
/// let mut image = Tensor3::zeros(TensorShape::new(2, 2, 1));
/// image.set(0, 0, 0, 1.0);
/// let encoder = TemporalEncoder::new(&image, TemporalEncoding::Rate, 7);
/// let mut step = Tensor3::zeros(image.shape());
/// encoder.encode_step_into(0, &mut step);
/// // A pixel at intensity 1.0 always spikes; zeros never do.
/// assert_eq!(step.get(0, 0, 0), 1.0);
/// assert_eq!(step.get(1, 1, 0), 0.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct TemporalEncoder<'a> {
    image: &'a Tensor3,
    encoding: TemporalEncoding,
    seed: u64,
}

impl<'a> TemporalEncoder<'a> {
    /// Create an encoder over a (padded) input image.
    pub fn new(image: &'a Tensor3, encoding: TemporalEncoding, seed: u64) -> Self {
        TemporalEncoder { image, encoding, seed }
    }

    /// The encoding scheme in use.
    pub fn encoding(&self) -> TemporalEncoding {
        self.encoding
    }

    /// Write the encoding-layer input of timestep `step` into `out`,
    /// reusing its allocation (the temporal hot loop's no-alloc path).
    ///
    /// # Panics
    ///
    /// Panics if `out` does not have the image's shape.
    pub fn encode_step_into(&self, step: usize, out: &mut Tensor3) {
        assert_eq!(out.shape(), self.image.shape(), "encoder output shape mismatch");
        match self.encoding {
            TemporalEncoding::Direct => out.data_mut().copy_from_slice(self.image.data()),
            TemporalEncoding::Rate => {
                let mut rng = self.step_rng(step);
                for (o, &v) in out.data_mut().iter_mut().zip(self.image.data()) {
                    *o = if rng.gen::<f32>() < v.clamp(0.0, 1.0) { 1.0 } else { 0.0 };
                }
            }
        }
    }

    /// The spikes of timestep `step` as a binary map (rate coding), or the
    /// thresholded nonzero pixels (direct coding). Used by the AER framing
    /// of temporal runs.
    pub fn encode_step_spikes(&self, step: usize) -> SpikeMap {
        let shape = self.image.shape();
        let data = self.image.data();
        match self.encoding {
            TemporalEncoding::Rate => {
                // `from_fn` visits linear indices in ascending order, so the
                // per-pixel RNG draw sequence is identical to the unpacked
                // representation — the packing is bit-transparent.
                let mut rng = self.step_rng(step);
                SpikeMap::from_fn(shape, |i| rng.gen::<f32>() < data[i].clamp(0.0, 1.0))
            }
            TemporalEncoding::Direct => SpikeMap::from_fn(shape, |i| data[i] != 0.0),
        }
    }

    /// Per-step RNG, deterministic in `(seed, step)` alone.
    fn step_rng(&self, step: usize) -> StdRng {
        StdRng::seed_from_u64(self.seed ^ (step as u64).wrapping_mul(0x6C62_272E_07BB_0143))
    }
}

/// Pad a dense image with `padding` zero pixels on each border (HWC layout).
pub fn pad_image(image: &Tensor3, padding: usize) -> Tensor3 {
    let s = image.shape();
    let padded_shape = TensorShape::new(s.h + 2 * padding, s.w + 2 * padding, s.c);
    let mut out = Tensor3::zeros(padded_shape);
    for h in 0..s.h {
        for w in 0..s.w {
            for c in 0..s.c {
                out.set(h + padding, w + padding, c, image.get(h, w, c));
            }
        }
    }
    out
}

/// Pad a spike map with a silent border of `padding` positions.
pub fn pad_spikes(map: &SpikeMap, padding: usize) -> SpikeMap {
    let s = map.shape();
    if padding == 0 {
        return map.clone();
    }
    let padded_shape = TensorShape::new(s.h + 2 * padding, s.w + 2 * padding, s.c);
    let mut out = SpikeMap::silent(padded_shape);
    // Each input row is one contiguous run of w*c bits; copy it word-wise
    // into its shifted offset in the padded map.
    let row_bits = s.w * s.c;
    let mut row = vec![0u64; row_bits.div_ceil(64)];
    for h in 0..s.h {
        row.fill(0);
        map.or_range_into(h * row_bits, row_bits, &mut row);
        let start = ((h + padding) * padded_shape.w + padding) * s.c;
        out.or_range_from(start, row_bits, &row);
    }
    out
}

/// Direct encoding: the image itself is the input-current tensor of the
/// first layer (values in `[0, 1]`). This is a no-op view kept as a named
/// function so call sites document their intent.
pub fn direct_encode(image: &Tensor3) -> &Tensor3 {
    image
}

/// Poisson rate encoding: each pixel spikes with probability equal to its
/// normalized intensity at every timestep.
pub fn poisson_encode<R: Rng>(image: &Tensor3, rng: &mut R) -> SpikeMap {
    let data = image.data();
    SpikeMap::from_fn(image.shape(), |i| rng.gen::<f32>() < data[i].clamp(0.0, 1.0))
}

/// Generate a synthetic CIFAR-10-like RGB image with smooth spatial
/// structure (values in `[0, 1]`), used by the examples and workloads.
pub fn synthetic_image<R: Rng>(shape: TensorShape, rng: &mut R) -> Tensor3 {
    let mut img = Tensor3::zeros(shape);
    // Low-frequency pattern plus noise so that direct encoding produces a
    // realistic mix of strong and weak input currents.
    let fx = rng.gen_range(0.5..2.0);
    let fy = rng.gen_range(0.5..2.0);
    for h in 0..shape.h {
        for w in 0..shape.w {
            for c in 0..shape.c {
                let base = 0.5
                    + 0.4
                        * ((h as f32 * fy / shape.h as f32 * std::f32::consts::TAU).sin()
                            * (w as f32 * fx / shape.w as f32 * std::f32::consts::TAU).cos());
                let noise: f32 = rng.gen_range(-0.1..0.1);
                img.set(h, w, c, (base + noise + c as f32 * 0.02).clamp(0.0, 1.0));
            }
        }
    }
    img
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn padding_preserves_interior_and_zeroes_border() {
        let mut img = Tensor3::zeros(TensorShape::new(2, 2, 1));
        img.set(0, 0, 0, 1.0);
        img.set(1, 1, 0, 2.0);
        let padded = pad_image(&img, 1);
        assert_eq!(padded.shape(), TensorShape::new(4, 4, 1));
        assert_eq!(padded.get(1, 1, 0), 1.0);
        assert_eq!(padded.get(2, 2, 0), 2.0);
        assert_eq!(padded.get(0, 0, 0), 0.0);
    }

    #[test]
    fn spike_padding_keeps_spike_count() {
        let mut m = SpikeMap::silent(TensorShape::new(2, 2, 3));
        m.set(0, 1, 2, true);
        let p = pad_spikes(&m, 2);
        assert_eq!(p.shape(), TensorShape::new(6, 6, 3));
        assert_eq!(p.count_spikes(), 1);
        assert!(p.get(2, 3, 2));
    }

    #[test]
    fn poisson_rate_tracks_intensity() {
        let mut rng = StdRng::seed_from_u64(42);
        let shape = TensorShape::new(16, 16, 3);
        let mut img = Tensor3::zeros(shape);
        img.data_mut().iter_mut().for_each(|v| *v = 0.25);
        let mut total = 0usize;
        let trials = 50;
        for _ in 0..trials {
            total += poisson_encode(&img, &mut rng).count_spikes();
        }
        let rate = total as f64 / (trials * shape.len()) as f64;
        assert!((rate - 0.25).abs() < 0.03, "empirical rate {rate}");
    }

    #[test]
    fn synthetic_image_is_in_unit_range() {
        let mut rng = StdRng::seed_from_u64(0);
        let img = synthetic_image(TensorShape::new(32, 32, 3), &mut rng);
        assert!(img.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
        // The image is not constant.
        let min = img.data().iter().cloned().fold(f32::INFINITY, f32::min);
        let max = img.data().iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        assert!(max - min > 0.2);
    }

    #[test]
    fn direct_encode_is_identity() {
        let img = Tensor3::zeros(TensorShape::new(4, 4, 3));
        assert_eq!(direct_encode(&img), &img);
    }

    #[test]
    fn temporal_direct_encoding_repeats_the_image_every_step() {
        let mut rng = StdRng::seed_from_u64(3);
        let img = synthetic_image(TensorShape::new(8, 8, 3), &mut rng);
        let encoder = TemporalEncoder::new(&img, TemporalEncoding::Direct, 5);
        let mut out = Tensor3::zeros(img.shape());
        for step in 0..4 {
            encoder.encode_step_into(step, &mut out);
            assert_eq!(out, img, "direct coding is the image at step {step}");
        }
    }

    #[test]
    fn temporal_rate_encoding_is_binary_deterministic_and_step_varying() {
        let mut rng = StdRng::seed_from_u64(8);
        let img = synthetic_image(TensorShape::new(16, 16, 3), &mut rng);
        let encoder = TemporalEncoder::new(&img, TemporalEncoding::Rate, 11);
        let mut a = Tensor3::zeros(img.shape());
        let mut b = Tensor3::zeros(img.shape());
        encoder.encode_step_into(2, &mut a);
        encoder.encode_step_into(2, &mut b);
        assert_eq!(a, b, "the same step always encodes identically");
        assert!(a.data().iter().all(|&v| v == 0.0 || v == 1.0));
        encoder.encode_step_into(3, &mut b);
        assert_ne!(a, b, "different steps draw different spikes");
        // The tensor and spike-map views of one step agree.
        let spikes = encoder.encode_step_spikes(2);
        for (t, s) in a.data().iter().zip(spikes.to_bools()) {
            assert_eq!(*t != 0.0, s);
        }
    }

    #[test]
    fn temporal_rate_encoding_tracks_pixel_intensity() {
        let shape = TensorShape::new(16, 16, 3);
        let mut img = Tensor3::zeros(shape);
        img.data_mut().iter_mut().for_each(|v| *v = 0.3);
        let encoder = TemporalEncoder::new(&img, TemporalEncoding::Rate, 2);
        let steps = 64;
        let total: usize = (0..steps).map(|t| encoder.encode_step_spikes(t).count_spikes()).sum();
        let rate = total as f64 / (steps * shape.len()) as f64;
        assert!((rate - 0.3).abs() < 0.03, "empirical temporal rate {rate}");
    }
}
