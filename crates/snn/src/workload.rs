//! Synthetic workload generation with calibrated firing statistics.
//!
//! The paper evaluates a trained S-VGG11 on a batch of 128 CIFAR-10 images
//! and reports, per layer, the *average firing activity* of the input
//! feature maps (Fig. 3a). Since all evaluation metrics — memory footprint,
//! stream lengths, FPU utilization, runtime, energy — depend on the layer
//! shapes and on those firing statistics rather than on classification
//! accuracy, the reproduction generates spike maps directly from a
//! per-layer firing profile.
//!
//! Dynamic sparsity across the batch is modelled by drawing each sample's
//! firing rate from a normal distribution around the profile value, which
//! reproduces the standard deviations reported in the paper's figures. The
//! serving layer draws that per-sample rate once
//! (`SampleContext::sample_rate`) and both backends consume it: the
//! analytic backend prices it, and [`WorkloadGenerator::generate`]
//! realizes it as concrete spike maps for the cycle-level backend.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::encoding::{synthetic_image, TemporalEncoding};
use crate::layer::LayerKind;
use crate::model::Network;
use crate::tensor::{SpikeMap, Tensor3, TensorShape};

/// How one batch sample is turned into layer inputs.
///
/// * [`WorkloadMode::Synthetic`] is the paper's single-shot evaluation:
///   every layer's input spike map is sampled independently from the
///   calibrated [`FiringProfile`] (the firing statistics are *injected*).
/// * [`WorkloadMode::Temporal`] runs a real T-timestep inference: the
///   input image is encoded per step, LIF membranes persist between steps,
///   and the spikes layer N emits at step t *are* layer N+1's input at
///   step t (the firing statistics are *emergent*).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadMode {
    /// One synthetic evaluation per sample from the firing profile.
    Synthetic,
    /// A T-timestep temporal pipeline with persistent membrane state.
    Temporal {
        /// Number of inference timesteps (>= 1).
        timesteps: usize,
        /// How the dense input image becomes a per-step layer-0 input.
        encoding: TemporalEncoding,
    },
}

impl WorkloadMode {
    /// Number of timesteps one sample evaluates (1 for synthetic runs).
    pub fn timesteps(&self) -> usize {
        match self {
            WorkloadMode::Synthetic => 1,
            WorkloadMode::Temporal { timesteps, .. } => (*timesteps).max(1),
        }
    }

    /// Whether the mode runs the temporal pipeline.
    pub fn is_temporal(&self) -> bool {
        matches!(self, WorkloadMode::Temporal { .. })
    }
}

impl Default for WorkloadMode {
    /// The profile-driven single-shot evaluation of the paper.
    fn default() -> Self {
        WorkloadMode::Synthetic
    }
}

/// Residual charge fraction per step of a temporal run: the default LIF
/// decay (`alpha = 0.5`).
const WARMUP: f64 = 0.5;

/// Expected activity factor of timestep `step` of a temporal run, in
/// `[0, 1]`: `1 - 0.5^(step+1)`.
///
/// Starting from resting membranes, the network's activity ramps up over
/// the first timesteps as the LIF potentials charge toward threshold, so
/// step 0 under-fires and the factor converges to 1, where the calibrated
/// profile rate holds. The analytic backend integrates per-step programs
/// from the profile rate times this factor, mirroring the emergent
/// per-step sparsity the cycle-level backend measures.
pub fn temporal_step_factor(step: usize) -> f64 {
    (1.0 - WARMUP.powi(step as i32 + 1)).clamp(0.0, 1.0)
}

/// Per-layer input firing rates.
#[derive(Debug, Clone, PartialEq)]
pub struct FiringProfile {
    /// Average firing rate of each layer's input ifmap (layer 0 first).
    /// Layer 0 receives a dense image, so its entry is the fraction of
    /// non-negligible pixels and is only used for reporting.
    pub rates: Vec<f64>,
    /// Relative standard deviation of the firing rate across batch samples.
    pub relative_std: f64,
}

impl FiringProfile {
    /// The firing-activity profile of the paper's S-VGG11 evaluation
    /// (read off Fig. 3a): moderate activity in the early layers, growing
    /// sparsity with depth, and extremely sparse fully connected inputs.
    pub fn paper_svgg11() -> Self {
        FiringProfile {
            rates: vec![1.0, 0.32, 0.24, 0.17, 0.12, 0.09, 0.04, 0.02],
            relative_std: 0.12,
        }
    }

    /// A uniform profile (every layer firing at `rate`), useful for sweeps.
    pub fn uniform(layers: usize, rate: f64) -> Self {
        FiringProfile { rates: vec![rate; layers], relative_std: 0.0 }
    }

    /// Firing rate of layer `layer`, clamped to `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `layer` has no profile entry. A short profile used to fall
    /// back to a silent `0.1` default, which let a profile/network mismatch
    /// skew every downstream figure; the length is now validated up front
    /// (`Compiler::compile` checks it against the network) and an
    /// out-of-range query is a bug.
    pub fn rate(&self, layer: usize) -> f64 {
        match self.rates.get(layer) {
            Some(rate) => rate.clamp(0.0, 1.0),
            None => panic!(
                "firing profile has {} entries but layer {layer} was queried; \
                 the profile must cover every network layer",
                self.rates.len()
            ),
        }
    }

    /// Number of layers the profile covers.
    pub fn len(&self) -> usize {
        self.rates.len()
    }

    /// Whether the profile covers no layers.
    pub fn is_empty(&self) -> bool {
        self.rates.is_empty()
    }
}

/// The complete input set of one network evaluation (one timestep of one
/// batch sample): the dense image for the encoding layer and a spike map
/// for every subsequent layer input.
#[derive(Debug, Clone, PartialEq)]
pub struct SpikeWorkload {
    /// Dense RGB input of the first (spike-encoding) layer, padded.
    pub image: Tensor3,
    /// Input spike map of each non-encoding layer, padded for conv layers,
    /// flattened (`1 x 1 x F`) for fully connected layers. Entry 0
    /// corresponds to layer 1 (the first layer consuming spikes).
    pub layer_inputs: Vec<SpikeMap>,
    /// Sample index within the batch.
    pub sample: usize,
}

impl SpikeWorkload {
    /// Input spike map of network layer `layer` (1-based over spiking layers).
    ///
    /// # Panics
    ///
    /// Panics if `layer == 0` (the encoding layer consumes the dense image)
    /// or `layer` is out of range.
    pub fn spikes_for_layer(&self, layer: usize) -> &SpikeMap {
        assert!(layer >= 1, "layer 0 consumes the dense image, not spikes");
        &self.layer_inputs[layer - 1]
    }
}

/// Generator of [`SpikeWorkload`]s realizing given per-layer firing rates.
#[derive(Debug, Clone)]
pub struct WorkloadGenerator {
    seed: u64,
}

impl WorkloadGenerator {
    /// Create a generator from an RNG seed.
    pub fn new(seed: u64) -> Self {
        WorkloadGenerator { seed }
    }

    /// The per-sample RNG, deterministic in `(seed, sample)` alone.
    fn sample_rng(&self, sample: usize) -> StdRng {
        StdRng::seed_from_u64(self.seed ^ (sample as u64).wrapping_mul(0x9e37_79b9))
    }

    /// Generate the workload of one batch sample for `network`: the input
    /// of every spiking layer `idx` realizes the firing rate `rate(idx)`
    /// (clamped to `[0, 1]`) at positions drawn from the per-sample RNG.
    pub fn generate(
        &self,
        network: &Network,
        sample: usize,
        rate: impl Fn(usize) -> f64,
    ) -> SpikeWorkload {
        let mut rng = self.sample_rng(sample);
        let mut layer_inputs = Vec::new();
        let mut image = Tensor3::zeros(TensorShape::new(1, 1, 1));

        for (idx, layer) in network.layers().iter().enumerate() {
            let input_shape = match &layer.kind {
                LayerKind::Conv(c) => c.padded_input(),
                LayerKind::AvgPool(p) => p.input,
                LayerKind::Linear(l) => TensorShape::new(1, 1, l.in_features),
            };
            if idx == 0 {
                image = image_for(layer, &mut rng);
                continue;
            }
            // Two uniforms per layer are drawn and discarded: they hold the
            // place of a rate draw in the per-sample stream, which keeps
            // every spike position (and every cycle-level golden) put.
            let _: f64 = rng.gen_range(f64::EPSILON..1.0);
            let _: f64 = rng.gen_range(0.0..1.0);
            let rate = rate(idx).clamp(0.0, 1.0);
            layer_inputs.push(random_spike_map(input_shape, rate, &mut rng, &layer.kind));
        }
        SpikeWorkload { image, layer_inputs, sample }
    }

    /// Generate only the padded input image of one batch sample — the
    /// temporal pipeline's entry point, which derives every subsequent
    /// layer input from real spike propagation instead of the profile.
    ///
    /// Bit-identical to the `image` field of [`WorkloadGenerator::generate`]
    /// for the same `(network, sample)`: the image is drawn first from the
    /// per-sample RNG in both paths.
    pub fn generate_image(&self, network: &Network, sample: usize) -> Tensor3 {
        let mut rng = self.sample_rng(sample);
        let layer = network.layers().first().expect("network has at least one layer");
        image_for(layer, &mut rng)
    }
}

/// The dense, padded input image of the first layer: the interior comes
/// from the synthetic image generator, the border stays zero.
fn image_for<R: Rng>(layer: &crate::layer::Layer, rng: &mut R) -> Tensor3 {
    let (unpadded, padding) = match &layer.kind {
        LayerKind::Conv(c) => (c.input, c.padding),
        LayerKind::AvgPool(p) => (p.input, 0),
        LayerKind::Linear(l) => (TensorShape::new(1, 1, l.in_features), 0),
    };
    let inner = synthetic_image(unpadded, rng);
    crate::encoding::pad_image(&inner, padding)
}

/// Sample a spike map of the given shape realizing the target firing rate
/// exactly: `round(rate * eligible_positions)` spikes at uniformly random
/// positions. For convolutional inputs the padded border stays silent
/// (padding carries no spikes), so the rate applies to the interior.
///
/// Fixed-count sampling (rather than an independent Bernoulli draw per
/// position) keeps the realized spike count equal to the expectation the
/// analytic backend computes from the same rate — dynamic sparsity across
/// the batch comes from the per-sample rate jitter, not from sampling
/// noise.
fn random_spike_map<R: Rng>(
    shape: TensorShape,
    rate: f64,
    rng: &mut R,
    kind: &LayerKind,
) -> SpikeMap {
    let mut map = SpikeMap::silent(shape);
    let padding = match kind {
        LayerKind::Conv(c) => c.padding,
        LayerKind::AvgPool(_) | LayerKind::Linear(_) => 0,
    };
    let silent_border = shape.h > 2 * padding;
    let positions: Vec<(usize, usize)> = (0..shape.h)
        .flat_map(|h| (0..shape.w).map(move |w| (h, w)))
        .filter(|&(h, w)| {
            let in_border =
                h < padding || w < padding || h >= shape.h - padding || w >= shape.w - padding;
            !(in_border && silent_border)
        })
        .collect();
    let n = positions.len() * shape.c;
    if n == 0 {
        return map;
    }
    let target = ((n as f64 * rate).round() as usize).min(n);

    // Partial Fisher-Yates over the flattened eligible (position, channel)
    // slots: the first `target` entries are a uniform sample without
    // replacement.
    let mut slots: Vec<usize> = (0..n).collect();
    for i in 0..target {
        let j = rng.gen_range(i..n);
        slots.swap(i, j);
        let (h, w) = positions[slots[i] / shape.c];
        map.set(h, w, slots[i] % shape.c, true);
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Network;

    #[test]
    fn paper_profile_is_monotonically_sparser() {
        let p = FiringProfile::paper_svgg11();
        assert_eq!(p.rates.len(), 8);
        for w in p.rates[1..].windows(2) {
            assert!(w[0] >= w[1], "firing activity decreases with depth");
        }
    }

    #[test]
    fn workload_matches_target_firing_rates() {
        let net = Network::svgg11(1);
        let profile = FiringProfile::paper_svgg11();
        let gen = WorkloadGenerator::new(7);
        let w = gen.generate(&net, 0, |idx| profile.rate(idx));
        assert_eq!(w.layer_inputs.len(), net.len() - 1);
        // Layer 2 (conv3 input) should fire near its profile rate; the
        // border of the padded map is silent so compare against the
        // interior-adjusted expectation with a generous tolerance.
        for (i, spikes) in w.layer_inputs.iter().enumerate().take(5) {
            let measured = spikes.firing_rate();
            let shape = spikes.shape();
            let interior = ((shape.h - 2) * (shape.w - 2)) as f64 / (shape.h * shape.w) as f64;
            let expected = profile.rate(i + 1) * interior;
            assert!(
                (measured - expected).abs() < 0.35 * expected + 0.01,
                "layer {} rate {measured} vs expected {expected}",
                i + 1
            );
        }
    }

    #[test]
    fn workloads_are_deterministic_per_seed_and_sample() {
        let net = Network::svgg11(1);
        let profile = FiringProfile::paper_svgg11();
        let gen = WorkloadGenerator::new(99);
        let a = gen.generate(&net, 3, |idx| profile.rate(idx));
        let b = gen.generate(&net, 3, |idx| profile.rate(idx));
        let c = gen.generate(&net, 4, |idx| profile.rate(idx));
        assert_eq!(a, b);
        assert_ne!(a.layer_inputs[0], c.layer_inputs[0]);
    }

    #[test]
    fn batch_generation_produces_distinct_samples() {
        let net = Network::svgg11(1);
        let profile = FiringProfile::paper_svgg11();
        let gen = WorkloadGenerator::new(5);
        // Per-sample rates, as the serving layer's jitter supplies them.
        let batch: Vec<SpikeWorkload> = (0..4)
            .map(|s| gen.generate(&net, s, |idx| profile.rate(idx) * (0.9 + 0.05 * s as f64)))
            .collect();
        assert_eq!(batch.len(), 4);
        let rates: Vec<f64> = batch.iter().map(|w| w.layer_inputs[0].firing_rate()).collect();
        assert!(rates.windows(2).any(|p| (p[0] - p[1]).abs() > 1e-6));
        // Equal rates still draw distinct spike positions per sample.
        let same: Vec<SpikeWorkload> =
            (0..4).map(|s| gen.generate(&net, s, |idx| profile.rate(idx))).collect();
        assert!(same.windows(2).all(|p| p[0].layer_inputs[0] != p[1].layer_inputs[0]));
    }

    #[test]
    #[should_panic(expected = "dense image")]
    fn layer_zero_spikes_panic() {
        let net = Network::svgg11(1);
        let profile = FiringProfile::paper_svgg11();
        let w = WorkloadGenerator::new(5).generate(&net, 0, |idx| profile.rate(idx));
        let _ = w.spikes_for_layer(0);
    }

    #[test]
    fn uniform_profile() {
        let p = FiringProfile::uniform(4, 0.3);
        assert_eq!(p.rate(2), 0.3);
        assert_eq!(p.len(), 4);
        assert!(!p.is_empty());
    }

    #[test]
    #[should_panic(expected = "firing profile has 4 entries but layer 99 was queried")]
    fn out_of_range_layer_rate_panics() {
        let p = FiringProfile::uniform(4, 0.3);
        let _ = p.rate(99);
    }

    #[test]
    fn generate_image_matches_the_full_workload_image() {
        let net = Network::svgg11(1);
        let profile = FiringProfile::paper_svgg11();
        let gen = WorkloadGenerator::new(17);
        for sample in [0, 3, 9] {
            let full = gen.generate(&net, sample, |idx| profile.rate(idx));
            assert_eq!(gen.generate_image(&net, sample), full.image);
        }
    }

    #[test]
    fn workload_mode_timesteps() {
        assert_eq!(WorkloadMode::Synthetic.timesteps(), 1);
        assert!(!WorkloadMode::Synthetic.is_temporal());
        let t = WorkloadMode::Temporal { timesteps: 4, encoding: TemporalEncoding::Rate };
        assert_eq!(t.timesteps(), 4);
        assert!(t.is_temporal());
        // A degenerate zero-step request still evaluates one step.
        let z = WorkloadMode::Temporal { timesteps: 0, encoding: TemporalEncoding::Direct };
        assert_eq!(z.timesteps(), 1);
    }

    #[test]
    fn temporal_sparsity_ramps_toward_the_profile_rate() {
        assert!((temporal_step_factor(0) - 0.5).abs() < 1e-12);
        assert!(temporal_step_factor(1) > temporal_step_factor(0));
        assert!(temporal_step_factor(20) > 0.999);
        for t in 0..8 {
            let f = temporal_step_factor(t);
            assert!((0.0..=1.0).contains(&f));
        }
    }
}
