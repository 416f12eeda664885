//! Layer descriptors: spiking convolutional and fully connected layers.
//!
//! Weights are stored in the batched HWC layout used by the kernels: for a
//! convolution, the innermost dimension is the output channel, so the
//! weights of all filters at one `(kh, kw, ci)` coordinate are contiguous
//! and can be read as one SIMD group (Section III-C of the paper).
//!
//! A layer's weights are drawn where they are read. Until then the layer
//! holds only their source: zeros, or a seed, a scale and the number of
//! draws of the layers before it in one stream. [`Layer::weights`] draws
//! them on the first read and keeps them, so a layer nothing reads (every
//! layer of an analytic plan) never draws its weights, and the values are
//! bit for bit those of one sequential draw over the whole network.

use std::sync::OnceLock;

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use snitch_arch::fp::FpFormat;

use crate::neuron::NeuronModel;
use crate::tensor::TensorShape;

/// Geometry of a spiking convolutional layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvSpec {
    /// Unpadded input feature-map shape.
    pub input: TensorShape,
    /// Number of output channels (filters).
    pub out_channels: usize,
    /// Filter height.
    pub kh: usize,
    /// Filter width.
    pub kw: usize,
    /// Convolution stride.
    pub stride: usize,
    /// Symmetric zero padding.
    pub padding: usize,
    /// Whether a 2x2 spike max-pool follows the layer.
    pub pool: bool,
}

impl ConvSpec {
    /// Padded input shape (what the kernels and Fig. 3a of the paper report).
    pub fn padded_input(&self) -> TensorShape {
        TensorShape::new(
            self.input.h + 2 * self.padding,
            self.input.w + 2 * self.padding,
            self.input.c,
        )
    }

    /// Output shape of the convolution itself (before pooling).
    pub fn conv_output(&self) -> TensorShape {
        let h = (self.input.h + 2 * self.padding - self.kh) / self.stride + 1;
        let w = (self.input.w + 2 * self.padding - self.kw) / self.stride + 1;
        TensorShape::new(h, w, self.out_channels)
    }

    /// Output shape after the optional pooling stage.
    pub fn output(&self) -> TensorShape {
        let o = self.conv_output();
        if self.pool {
            TensorShape::new(o.h / 2, o.w / 2, o.c)
        } else {
            o
        }
    }

    /// Number of weights in the layer.
    pub fn weight_count(&self) -> usize {
        self.kh * self.kw * self.input.c * self.out_channels
    }

    /// Dense synaptic operations of one timestep (every input counted).
    pub fn dense_synops(&self) -> u64 {
        let o = self.conv_output();
        (o.h * o.w * o.c * self.kh * self.kw * self.input.c) as u64
    }

    /// Linear index of weight `(kh, kw, ci, co)` in the batched HWC layout.
    pub fn weight_index(&self, kh: usize, kw: usize, ci: usize, co: usize) -> usize {
        ((kh * self.kw + kw) * self.input.c + ci) * self.out_channels + co
    }
}

/// Geometry of a spike average-pooling layer.
///
/// Average pooling over binary spikes reduces each `window x window`
/// neighbourhood to one output neuron per channel that fires when the
/// window's average activity reaches one half (i.e. at least
/// `ceil(window^2 / 2)` of its inputs spiked). Unlike the 2x2 max-pool
/// fused into the conv kernels, this is a standalone layer with its own
/// stream-program emitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolSpec {
    /// Input feature-map shape (no padding).
    pub input: TensorShape,
    /// Pooling window edge length (stride equals the window).
    pub window: usize,
}

impl PoolSpec {
    /// Output shape of the pooling layer.
    pub fn output(&self) -> TensorShape {
        TensorShape::new(self.input.h / self.window, self.input.w / self.window, self.input.c)
    }

    /// Dense synaptic operations of one timestep (one accumulation per
    /// window input).
    pub fn dense_synops(&self) -> u64 {
        (self.output().len() * self.window * self.window) as u64
    }

    /// Minimum number of active window inputs for the output to fire
    /// (average activity >= 0.5).
    pub fn fire_threshold(&self) -> usize {
        self.window * self.window / 2 + self.window * self.window % 2
    }
}

/// Geometry of a spiking fully connected layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinearSpec {
    /// Number of input neurons.
    pub in_features: usize,
    /// Number of output neurons.
    pub out_features: usize,
}

impl LinearSpec {
    /// Number of weights in the layer.
    pub fn weight_count(&self) -> usize {
        self.in_features * self.out_features
    }

    /// Dense synaptic operations of one timestep.
    pub fn dense_synops(&self) -> u64 {
        self.weight_count() as u64
    }

    /// Linear index of weight `(i, o)` with output-channel-fastest layout.
    pub fn weight_index(&self, i: usize, o: usize) -> usize {
        i * self.out_features + o
    }
}

/// The kind of a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerKind {
    /// Spiking 2D convolution.
    Conv(ConvSpec),
    /// Spike average pooling.
    AvgPool(PoolSpec),
    /// Spiking fully connected layer.
    Linear(LinearSpec),
}

impl LayerKind {
    /// Number of weights of the layer.
    pub fn weight_count(&self) -> usize {
        match self {
            LayerKind::Conv(c) => c.weight_count(),
            LayerKind::AvgPool(_) => 0,
            LayerKind::Linear(l) => l.weight_count(),
        }
    }

    /// Dense synaptic operation count of one timestep.
    pub fn dense_synops(&self) -> u64 {
        match self {
            LayerKind::Conv(c) => c.dense_synops(),
            LayerKind::AvgPool(p) => p.dense_synops(),
            LayerKind::Linear(l) => l.dense_synops(),
        }
    }
}

/// A network layer: geometry, weights and neuron parameters.
#[derive(Debug, Clone)]
pub struct Layer {
    /// Human-readable name (e.g. `conv3`).
    pub name: String,
    /// Geometry of the layer.
    pub kind: LayerKind,
    /// Weights in the batched HWC layout (see [`ConvSpec::weight_index`]),
    /// held or drawn on their first read.
    weights: Weights,
    /// Neuron model (and its parameters) of the layer's neurons.
    pub neuron: NeuronModel,
    /// Whether this layer performs spike encoding from a dense input
    /// (only ever true for the first layer, Section III-F of the paper).
    pub encodes_input: bool,
}

/// Where a layer's undrawn weights come from.
#[derive(Debug, Clone, Copy, PartialEq)]
enum WeightSource {
    /// All zero ([`Layer::new`]).
    Zeros,
    /// Uniform in `[-scale, scale]`, one draw per weight, from the stream
    /// seeded with `seed` after its first `skip` draws: the draws of the
    /// layers before this one.
    Uniform { seed: u64, skip: u64, scale: f32 },
}

impl WeightSource {
    /// The `count` weights of the source, each passed through `map`.
    fn draw(self, count: usize, map: impl Fn(f32) -> f32) -> Vec<f32> {
        match self {
            WeightSource::Zeros => vec![map(0.0); count],
            WeightSource::Uniform { seed, skip, scale } => {
                let mut rng = StdRng::seed_from_u64(seed);
                // A uniform f32 takes one `next_u64` and rejects none, so
                // the weights before this layer took exactly `skip` steps.
                for _ in 0..skip {
                    rng.next_u64();
                }
                (0..count).map(|_| map(rng.gen_range(-scale..=scale))).collect()
            }
        }
    }
}

/// A layer's weights: drawn from their source on the first read, or held
/// once set or lent out mutably.
#[derive(Debug, Clone)]
enum Weights {
    Source(WeightSource, OnceLock<Vec<f32>>),
    Held(Vec<f32>),
}

/// Two layers are equal when their fields are, and their weights come from
/// the same source (neither is drawn to tell) or have the same values.
impl PartialEq for Layer {
    fn eq(&self, other: &Self) -> bool {
        let same_weights = || match (&self.weights, &other.weights) {
            (Weights::Source(a, _), Weights::Source(b, _)) if a == b => true,
            _ => self.weights() == other.weights(),
        };
        self.name == other.name
            && self.kind == other.kind
            && self.neuron == other.neuron
            && self.encodes_input == other.encodes_input
            && same_weights()
    }
}

impl Layer {
    /// Create a layer with zero weights. The neuron model is anything
    /// convertible into a [`NeuronModel`] — passing bare
    /// [`LifParams`](crate::neuron::LifParams) keeps working.
    pub fn new(name: impl Into<String>, kind: LayerKind, neuron: impl Into<NeuronModel>) -> Self {
        Layer {
            name: name.into(),
            kind,
            weights: Weights::Source(WeightSource::Zeros, OnceLock::new()),
            neuron: neuron.into(),
            encodes_input: false,
        }
    }

    /// The weights, one per [`LayerKind::weight_count`]. Weights that are
    /// not held are drawn from their source on the first read, once even
    /// when threads race to read them, and then kept.
    pub fn weights(&self) -> &[f32] {
        match &self.weights {
            Weights::Source(source, drawn) => {
                drawn.get_or_init(|| source.draw(self.kind.weight_count(), |w| w))
            }
            Weights::Held(weights) => weights,
        }
    }

    /// The weights, drawn if they are not yet, and held from then on.
    pub fn weights_mut(&mut self) -> &mut [f32] {
        if let Weights::Source(source, drawn) = &mut self.weights {
            let count = self.kind.weight_count();
            let weights = drawn.take().unwrap_or_else(|| source.draw(count, |w| w));
            self.weights = Weights::Held(weights);
        }
        match &mut self.weights {
            Weights::Held(weights) => weights,
            Weights::Source(..) => unreachable!("the weights were just set"),
        }
    }

    /// Hold `weights` in place of the layer's current ones.
    ///
    /// # Panics
    ///
    /// Panics unless there is one value per [`LayerKind::weight_count`].
    pub fn set_weights(&mut self, weights: Vec<f32>) {
        assert_eq!(weights.len(), self.kind.weight_count(), "one value per layer weight");
        self.weights = Weights::Held(weights);
    }

    /// Randomize the weights with a uniform distribution in `[-scale, scale]`,
    /// one draw from `rng` per weight.
    pub fn randomize_weights<R: Rng>(&mut self, rng: &mut R, scale: f32) {
        let weights =
            (0..self.kind.weight_count()).map(|_| rng.gen_range(-scale..=scale)).collect();
        self.weights = Weights::Held(weights);
    }

    /// Draw this layer's weights from the stream seeded with `seed`, after
    /// the `skip` draws that come before them, on their first read.
    pub(crate) fn draw_weights_from(&mut self, seed: u64, skip: u64, scale: f32) {
        self.weights =
            Weights::Source(WeightSource::Uniform { seed, skip, scale }, OnceLock::new());
    }

    /// The weights rounded to the storage `format`, in the same layout.
    /// The exact emitters accumulate these; [`Network::quantized_weights`](crate::Network::quantized_weights)
    /// keeps them per network so a layer is quantized once per format.
    /// Undrawn weights are rounded as they are drawn and are not kept.
    pub fn quantize_weights(&self, format: FpFormat) -> Vec<f32> {
        match &self.weights {
            Weights::Source(source, drawn) if drawn.get().is_none() => {
                source.draw(self.kind.weight_count(), |w| format.quantize(w))
            }
            _ => self.weights().iter().map(|&w| format.quantize(w)).collect(),
        }
    }

    /// Memory footprint of the weights in bytes for the given element size.
    pub fn weight_bytes(&self, elem_bytes: usize) -> usize {
        self.kind.weight_count() * elem_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ConvSpec {
        ConvSpec {
            input: TensorShape::new(32, 32, 3),
            out_channels: 64,
            kh: 3,
            kw: 3,
            stride: 1,
            padding: 1,
            pool: false,
        }
    }

    #[test]
    fn conv_shapes_match_vgg_first_layer() {
        let s = spec();
        assert_eq!(s.padded_input(), TensorShape::new(34, 34, 3));
        assert_eq!(s.conv_output(), TensorShape::new(32, 32, 64));
        assert_eq!(s.weight_count(), 3 * 3 * 3 * 64);
        assert_eq!(s.dense_synops(), 32 * 32 * 64 * 27);
    }

    #[test]
    fn pooling_halves_spatial_dims() {
        let mut s = spec();
        s.pool = true;
        assert_eq!(s.output(), TensorShape::new(16, 16, 64));
    }

    #[test]
    fn conv_weight_layout_is_output_channel_fastest() {
        let s = spec();
        assert_eq!(s.weight_index(0, 0, 0, 0), 0);
        assert_eq!(s.weight_index(0, 0, 0, 1), 1);
        assert_eq!(s.weight_index(0, 0, 1, 0), 64);
        assert_eq!(s.weight_index(0, 1, 0, 0), 3 * 64);
    }

    #[test]
    fn avg_pool_shapes_and_threshold() {
        let p = PoolSpec { input: TensorShape::new(8, 8, 16), window: 2 };
        assert_eq!(p.output(), TensorShape::new(4, 4, 16));
        assert_eq!(p.dense_synops(), (4 * 4 * 16 * 4) as u64);
        assert_eq!(p.fire_threshold(), 2, "2 of 4 inputs reach a 0.5 average");
        let p3 = PoolSpec { input: TensorShape::new(9, 9, 4), window: 3 };
        assert_eq!(p3.fire_threshold(), 5, "5 of 9 inputs reach a 0.5 average");
        assert_eq!(LayerKind::AvgPool(p).weight_count(), 0);
    }

    #[test]
    fn linear_layout_and_counts() {
        let l = LinearSpec { in_features: 100, out_features: 10 };
        assert_eq!(l.weight_count(), 1000);
        assert_eq!(l.weight_index(1, 0), 10);
        assert_eq!(l.dense_synops(), 1000);
    }

    #[test]
    fn layer_construction_and_random_weights() {
        use crate::neuron::LifParams;
        let mut layer = Layer::new("conv1", LayerKind::Conv(spec()), LifParams::default());
        assert_eq!(layer.neuron, NeuronModel::Lif(LifParams::default()));
        assert!(layer.weights().iter().all(|&w| w == 0.0));
        let mut rng = rand::rngs::mock::StepRng::new(1, 7);
        layer.randomize_weights(&mut rng, 0.5);
        assert!(layer.weights().iter().any(|&w| w != 0.0));
        assert_eq!(layer.weight_bytes(2), layer.weights().len() * 2);
    }

    fn undrawn(layer: &Layer) -> bool {
        matches!(&layer.weights, Weights::Source(_, drawn) if drawn.get().is_none())
    }

    #[test]
    fn undrawn_layers_compare_by_source_and_draw_on_first_read() {
        use crate::neuron::LifParams;
        let mut a = Layer::new("conv1", LayerKind::Conv(spec()), LifParams::default());
        a.draw_weights_from(9, 100, 0.5);
        let b = a.clone();
        assert_eq!(a, b);
        assert!(undrawn(&a) && undrawn(&b), "equal sources are compared without drawing");
        assert_eq!(a.weight_bytes(2), spec().weight_count() * 2);
        assert!(undrawn(&a), "the footprint reads no weight");

        // A held copy of the same values is equal, and so is a drawn layer.
        let mut held = b.clone();
        held.set_weights(b.weights().to_vec());
        assert_eq!(held, a);
        assert!(!undrawn(&b));
        assert_eq!(a, b);

        let mut c = a.clone();
        c.draw_weights_from(9, 101, 0.5);
        assert_ne!(a, c, "another skip draws other values");
        c.weights_mut()[0] = 2.0;
        assert_eq!(c.weights()[0], 2.0, "mutated weights are held");
    }

    #[test]
    #[should_panic(expected = "one value per layer weight")]
    fn set_weights_checks_the_count() {
        use crate::neuron::LifParams;
        let mut layer = Layer::new("conv1", LayerKind::Conv(spec()), LifParams::default());
        layer.set_weights(vec![0.0; 3]);
    }
}
