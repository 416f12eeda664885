//! Layer descriptors: spiking convolutional and fully connected layers.
//!
//! Weights are stored in the batched HWC layout used by the kernels: for a
//! convolution, the innermost dimension is the output channel, so the
//! weights of all filters at one `(kh, kw, ci)` coordinate are contiguous
//! and can be read as one SIMD group (Section III-C of the paper).

use rand::Rng;

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

    /// Number of output neurons.
    pub fn output_neurons(&self) -> usize {
        match self {
            LayerKind::Conv(c) => c.conv_output().len(),
            LayerKind::AvgPool(p) => p.output().len(),
            LayerKind::Linear(l) => l.out_features,
        }
    }
}

/// A network layer: geometry, weights and neuron parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    /// Human-readable name (e.g. `conv3`).
    pub name: String,
    /// Geometry of the layer.
    pub kind: LayerKind,
    /// Weights in the batched HWC layout (see [`ConvSpec::weight_index`]).
    pub weights: Vec<f32>,
    /// Neuron model (and its parameters) of the layer's neurons.
    pub neuron: NeuronModel,
    /// Whether this layer performs spike encoding from a dense input
    /// (only ever true for the first layer, Section III-F of the paper).
    pub encodes_input: bool,
}

impl Layer {
    /// Create a layer with zero-initialized weights. The neuron model is
    /// anything convertible into a [`NeuronModel`] — passing bare
    /// [`LifParams`](crate::neuron::LifParams) keeps working.
    pub fn new(name: impl Into<String>, kind: LayerKind, neuron: impl Into<NeuronModel>) -> Self {
        Layer {
            name: name.into(),
            kind,
            weights: vec![0.0; kind.weight_count()],
            neuron: neuron.into(),
            encodes_input: false,
        }
    }

    /// Randomize the weights with a uniform distribution in `[-scale, scale]`.
    pub fn randomize_weights<R: Rng>(&mut self, rng: &mut R, scale: f32) {
        for w in &mut self.weights {
            *w = rng.gen_range(-scale..=scale);
        }
    }

    /// Memory footprint of the weights in bytes for the given element size.
    pub fn weight_bytes(&self, elem_bytes: usize) -> usize {
        self.weights.len() * elem_bytes
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
        assert_eq!(LayerKind::AvgPool(p).output_neurons(), 4 * 4 * 16);
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
        assert!(layer.weights.iter().all(|&w| w == 0.0));
        let mut rng = rand::rngs::mock::StepRng::new(1, 7);
        layer.randomize_weights(&mut rng, 0.5);
        assert!(layer.weights.iter().any(|&w| w != 0.0));
        assert_eq!(layer.weight_bytes(2), layer.weights.len() * 2);
    }
}
