//! Network container and the S-VGG11 model used in the paper's evaluation.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::layer::{ConvSpec, Layer, LayerKind, LinearSpec, PoolSpec};
use crate::neuron::{LifParams, NeuronModel};
use crate::tensor::TensorShape;

/// A feed-forward spiking neural network.
#[derive(Debug, Clone, PartialEq)]
pub struct Network {
    /// Name of the network (e.g. `S-VGG11`).
    pub name: String,
    layers: Vec<Layer>,
}

impl Network {
    /// Layers in execution order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Mutable layer access.
    pub fn layers_mut(&mut self) -> &mut [Layer] {
        &mut self.layers
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Total number of weights across all layers.
    pub fn total_weights(&self) -> usize {
        self.layers.iter().map(|l| l.kind.weight_count()).sum()
    }

    /// Total dense synaptic operations of one timestep.
    pub fn total_dense_synops(&self) -> u64 {
        self.layers.iter().map(|l| l.kind.dense_synops()).sum()
    }

    /// Set every layer's neuron model (how the scenario `[neuron_model]`
    /// table applies one model network-wide).
    pub fn set_neuron_model(&mut self, model: NeuronModel) {
        for layer in &mut self.layers {
            layer.neuron = model;
        }
    }

    /// Validate that consecutive layer shapes are compatible.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first incompatible layer pair.
    pub fn validate(&self) -> Result<(), String> {
        let mut prev_out: Option<usize> = None;
        for layer in &self.layers {
            let in_features = match &layer.kind {
                LayerKind::Conv(c) => c.input.len(),
                LayerKind::AvgPool(p) => p.input.len(),
                LayerKind::Linear(l) => l.in_features,
            };
            if let Some(prev) = prev_out {
                if prev != in_features {
                    return Err(format!(
                        "layer {} expects {} inputs but receives {}",
                        layer.name, in_features, prev
                    ));
                }
            }
            prev_out = Some(match &layer.kind {
                LayerKind::Conv(c) => c.output().len(),
                LayerKind::AvgPool(p) => p.output().len(),
                LayerKind::Linear(l) => l.out_features,
            });
        }
        Ok(())
    }

    /// The low-latency, single-timestep S-VGG11 network evaluated in the
    /// paper (CIFAR-10, 32x32 RGB input, spike encoding in the first layer).
    ///
    /// Layer ifmap shapes match Fig. 3a: 34x34x3, 34x34x64, 18x18x128,
    /// 18x18x256, 10x10x256, 10x10x512, followed by two fully connected
    /// layers. Weights are randomly initialized with the given `seed`
    /// (the evaluation metrics depend on shapes and firing statistics,
    /// not on trained weights).
    pub fn svgg11(seed: u64) -> Network {
        let lif = LifParams::new(0.5, 1.0);
        let conv = |input: TensorShape, out_channels: usize, pool: bool| ConvSpec {
            input,
            out_channels,
            kh: 3,
            kw: 3,
            stride: 1,
            padding: 1,
            pool,
        };

        let mut b = NetworkBuilder::new("S-VGG11");
        // conv1 performs spike encoding of the dense RGB input.
        b = b
            .conv("conv1", conv(TensorShape::new(32, 32, 3), 64, false), lif)
            .conv("conv2", conv(TensorShape::new(32, 32, 64), 128, true), lif)
            .conv("conv3", conv(TensorShape::new(16, 16, 128), 256, false), lif)
            .conv("conv4", conv(TensorShape::new(16, 16, 256), 256, true), lif)
            .conv("conv5", conv(TensorShape::new(8, 8, 256), 512, false), lif)
            .conv("conv6", conv(TensorShape::new(8, 8, 512), 512, true), lif)
            .linear("fc7", LinearSpec { in_features: 4 * 4 * 512, out_features: 1024 }, lif)
            .linear("fc8", LinearSpec { in_features: 1024, out_features: 10 }, lif);
        let mut net = b.build_with_random_weights(seed, 0.05);
        net.layers[0].encodes_input = true;
        net
    }
}

/// Incremental builder for [`Network`].
#[derive(Debug, Clone)]
pub struct NetworkBuilder {
    name: String,
    layers: Vec<Layer>,
}

impl NetworkBuilder {
    /// Start building a network with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        NetworkBuilder { name: name.into(), layers: Vec::new() }
    }

    /// Append a convolutional layer (any [`NeuronModel`]-convertible
    /// neuron parameters, e.g. bare [`LifParams`]).
    pub fn conv(mut self, name: &str, spec: ConvSpec, neuron: impl Into<NeuronModel>) -> Self {
        self.layers.push(Layer::new(name, LayerKind::Conv(spec), neuron));
        self
    }

    /// Append a spike average-pooling layer.
    pub fn avg_pool(mut self, name: &str, spec: PoolSpec, neuron: impl Into<NeuronModel>) -> Self {
        self.layers.push(Layer::new(name, LayerKind::AvgPool(spec), neuron));
        self
    }

    /// Append a fully connected layer.
    pub fn linear(mut self, name: &str, spec: LinearSpec, neuron: impl Into<NeuronModel>) -> Self {
        self.layers.push(Layer::new(name, LayerKind::Linear(spec), neuron));
        self
    }

    /// Replace every already-appended layer's neuron model (scenario
    /// overrides apply one model network-wide).
    pub fn with_neuron_model(mut self, model: NeuronModel) -> Self {
        for layer in &mut self.layers {
            layer.neuron = model;
        }
        self
    }

    /// Finish with zero weights.
    pub fn build(self) -> Network {
        Network { name: self.name, layers: self.layers }
    }

    /// Finish and randomize all weights from `seed`.
    pub fn build_with_random_weights(self, seed: u64, scale: f32) -> Network {
        let mut net = self.build();
        let mut rng = StdRng::seed_from_u64(seed);
        for layer in &mut net.layers {
            layer.randomize_weights(&mut rng, scale);
        }
        net
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn svgg11_has_eight_layers_with_paper_shapes() {
        let net = Network::svgg11(7);
        assert_eq!(net.len(), 8);
        let shapes: Vec<TensorShape> = net
            .layers()
            .iter()
            .filter_map(|l| match &l.kind {
                LayerKind::Conv(c) => Some(c.padded_input()),
                LayerKind::AvgPool(_) | LayerKind::Linear(_) => None,
            })
            .collect();
        assert_eq!(shapes[0], TensorShape::new(34, 34, 3));
        assert_eq!(shapes[1], TensorShape::new(34, 34, 64));
        assert_eq!(shapes[2], TensorShape::new(18, 18, 128));
        assert_eq!(shapes[3], TensorShape::new(18, 18, 256));
        assert_eq!(shapes[4], TensorShape::new(10, 10, 256));
        assert_eq!(shapes[5], TensorShape::new(10, 10, 512));
        assert!(net.layers()[0].encodes_input);
        assert!(net.validate().is_ok());
    }

    #[test]
    fn svgg11_shapes_chain_correctly() {
        let net = Network::svgg11(1);
        // conv6 pools 8x8x512 down to 4x4x512 which feeds fc7.
        if let LayerKind::Linear(l) = &net.layers()[6].kind {
            assert_eq!(l.in_features, 4 * 4 * 512);
        } else {
            panic!("layer 7 must be fully connected");
        }
    }

    #[test]
    fn validation_catches_shape_mismatch() {
        let lif = LifParams::default();
        let net = NetworkBuilder::new("bad")
            .conv(
                "c1",
                ConvSpec {
                    input: TensorShape::new(8, 8, 4),
                    out_channels: 8,
                    kh: 3,
                    kw: 3,
                    stride: 1,
                    padding: 1,
                    pool: false,
                },
                lif,
            )
            .linear("fc", LinearSpec { in_features: 99, out_features: 10 }, lif)
            .build();
        assert!(net.validate().is_err());
    }

    #[test]
    fn random_weights_are_deterministic_per_seed() {
        let a = Network::svgg11(123);
        let b = Network::svgg11(123);
        let c = Network::svgg11(124);
        assert_eq!(a.layers()[0].weights, b.layers()[0].weights);
        assert_ne!(a.layers()[0].weights, c.layers()[0].weights);
    }

    #[test]
    fn synop_totals_are_positive() {
        let net = Network::svgg11(3);
        assert!(net.total_dense_synops() > 100_000_000);
        assert!(net.total_weights() > 5_000_000);
    }
}
