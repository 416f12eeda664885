//! Network container, the S-VGG11 model used in the paper's evaluation and
//! the tiny CNN that the cycle-level timing model serves in test and smoke
//! time budgets.
//!
//! A network built with random weights draws none of them: each layer
//! draws its own where they are read ([`crate::layer`]). The exact
//! emitters read them rounded to the storage format through
//! [`Network::quantized_weights`]. For FP16 and FP8 it rounds each weight as
//! it is drawn and keeps only the rounded copy; FP64 and FP32 round to the
//! same values, so it lends the layer's own weights. A network serving one
//! format thus holds one copy of each layer's weights, and a network whose
//! weights no one reads (the analytic path's) holds none.

use std::sync::OnceLock;

use snitch_arch::fp::FpFormat;

use crate::layer::{ConvSpec, Layer, LayerKind, LinearSpec, PoolSpec};
use crate::neuron::{LifParams, NeuronModel};
use crate::tensor::TensorShape;

/// A feed-forward spiking neural network.
#[derive(Debug, Clone, PartialEq)]
pub struct Network {
    /// Name of the network (e.g. `S-VGG11`).
    pub name: String,
    layers: Vec<Layer>,
    quantized: QuantizedWeights,
}

/// One layer's weights rounded to FP16 and to FP8. Rounding to FP64 or FP32
/// is the identity, so those formats have no slot.
type FormatSlots = [OnceLock<Box<[f32]>>; 2];

/// Every layer's weights rounded to each storage format that changes them,
/// each filled on its first use. The memo is derived from the layers, so
/// it takes no part in a network's equality.
#[derive(Clone)]
struct QuantizedWeights(Box<[FormatSlots]>);

impl QuantizedWeights {
    fn new(layers: usize) -> Self {
        QuantizedWeights((0..layers).map(|_| Default::default()).collect())
    }

    /// Drop every memoized layer.
    fn clear(&mut self) {
        self.0.iter_mut().flatten().for_each(|slot| *slot = OnceLock::new());
    }
}

impl PartialEq for QuantizedWeights {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl std::fmt::Debug for QuantizedWeights {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuantizedWeights").finish_non_exhaustive()
    }
}

impl Network {
    /// Layers in execution order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Mutable layer access. Drops the memo of
    /// [`Network::quantized_weights`], so weights changed through it are
    /// quantized afresh on their next use.
    pub fn layers_mut(&mut self) -> &mut [Layer] {
        self.quantized.clear();
        &mut self.layers
    }

    /// Layer `idx`'s weights rounded to `format`
    /// ([`Layer::quantize_weights`]). FP64 and FP32 round to the same
    /// values, so they lend the layer's own [`Layer::weights`]. The first
    /// FP16 or FP8 call per layer quantizes its weights, as they are drawn
    /// if they are not yet, without keeping the originals; later calls,
    /// from any thread, return the same slice until
    /// [`Network::layers_mut`] is next called.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn quantized_weights(&self, idx: usize, format: FpFormat) -> &[f32] {
        let layer = &self.layers[idx];
        let slot = match format {
            FpFormat::Fp64 | FpFormat::Fp32 => return layer.weights(),
            FpFormat::Fp16 => 0,
            FpFormat::Fp8 => 1,
        };
        self.quantized.0[idx][slot].get_or_init(|| layer.quantize_weights(format).into())
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Set every layer's neuron model (how the scenario `[neuron_model]`
    /// table applies one model network-wide).
    pub fn set_neuron_model(&mut self, model: NeuronModel) {
        for layer in self.layers_mut() {
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
        net.layers_mut()[0].encodes_input = true;
        net
    }

    /// A small two-conv-plus-FC network (8x8x3 input, the first conv
    /// encoding it) that the cycle-level timing model can evaluate in
    /// test and smoke time budgets.
    pub fn tiny_cnn(seed: u64) -> Network {
        let lif = LifParams::new(0.5, 0.3);
        let conv = |input: TensorShape, out_channels: usize, pool: bool| ConvSpec {
            input,
            out_channels,
            kh: 3,
            kw: 3,
            stride: 1,
            padding: 1,
            pool,
        };
        let mut net = NetworkBuilder::new("tiny-cnn")
            .conv("conv1", conv(TensorShape::new(8, 8, 3), 8, true), lif)
            .conv("conv2", conv(TensorShape::new(4, 4, 8), 16, false), lif)
            .linear("fc3", LinearSpec { in_features: 4 * 4 * 16, out_features: 10 }, lif)
            .build_with_random_weights(seed, 0.1);
        net.layers_mut()[0].encodes_input = true;
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

    /// Finish with zero weights.
    pub fn build(self) -> Network {
        let quantized = QuantizedWeights::new(self.layers.len());
        Network { name: self.name, layers: self.layers, quantized }
    }

    /// Finish with weights uniform in `[-scale, scale]`, drawn layer after
    /// layer from the stream seeded with `seed`. Each layer records where
    /// its draws start and draws them on its first read
    /// ([`Layer::weights`]), so weights that are never read are never
    /// drawn, and the values are those of one sequential draw.
    pub fn build_with_random_weights(self, seed: u64, scale: f32) -> Network {
        let mut net = self.build();
        let mut skip = 0;
        for layer in net.layers_mut() {
            layer.draw_weights_from(seed, skip, scale);
            skip += layer.kind.weight_count() as u64;
        }
        net
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Barrier;

    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
        assert_eq!(a.layers()[0].weights(), b.layers()[0].weights());
        assert_ne!(a.layers()[0].weights(), c.layers()[0].weights());
    }

    #[test]
    fn quantized_weights_are_memoized_until_the_layers_change() {
        let mut net = Network::svgg11(5);
        let fp8 = net.quantized_weights(7, FpFormat::Fp8);
        assert_eq!(fp8, net.layers()[7].quantize_weights(FpFormat::Fp8));
        assert!(std::ptr::eq(fp8, net.quantized_weights(7, FpFormat::Fp8)), "memoized");
        assert_ne!(fp8, net.quantized_weights(7, FpFormat::Fp16), "one slot per format");
        assert_eq!(net.clone(), net, "the memo is not part of the value");

        net.layers_mut()[7].weights_mut()[0] = 0.75;
        assert_eq!(net.quantized_weights(7, FpFormat::Fp8)[0], FpFormat::Fp8.quantize(0.75));
        assert_eq!(
            net.quantized_weights(7, FpFormat::Fp8),
            net.layers()[7].quantize_weights(FpFormat::Fp8)
        );
    }

    /// The old `build_with_random_weights`: every layer's weights drawn in
    /// order from one stream, kept only as the oracle of the lazy draw.
    fn eager_draw(net: &Network, seed: u64, scale: f32) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let eager = |layer: &Layer| {
            let mut eager = Layer::new(layer.name.clone(), layer.kind, layer.neuron);
            eager.randomize_weights(&mut rng, scale);
            eager.weights().to_vec()
        };
        net.layers().iter().map(eager).collect()
    }

    /// Assert that `actual` is `expected` bit for bit, naming the first
    /// weight that differs.
    fn assert_same_bits(actual: &[f32], expected: &[f32], what: &str) {
        assert_eq!(actual.len(), expected.len(), "{what}: weight count");
        let differs = actual.iter().zip(expected).position(|(a, e)| a.to_bits() != e.to_bits());
        if let Some(i) = differs {
            panic!("{what}: weight {i} is {}, the sequential draw's {}", actual[i], expected[i]);
        }
    }

    /// S-VGG11 and tiny-cnn with the seeds and scales they are built with.
    fn lazy_networks() -> [(Network, Vec<Vec<f32>>); 2] {
        let svgg11 = Network::svgg11(7);
        let tiny = Network::tiny_cnn(7);
        let (svgg11_oracle, tiny_oracle) =
            (eager_draw(&svgg11, 7, 0.05), eager_draw(&tiny, 7, 0.1));
        [(svgg11, svgg11_oracle), (tiny, tiny_oracle)]
    }

    #[test]
    fn lazily_drawn_weights_are_the_sequential_draw_bit_for_bit() {
        for (net, oracle) in lazy_networks() {
            // Two threads read every layer at once, last layer first.
            let start = Barrier::new(2);
            let read = || {
                start.wait();
                net.layers().iter().rev().map(Layer::weights).collect::<Vec<_>>()
            };
            let [mut a, mut b] = std::thread::scope(|s| {
                [s.spawn(read), s.spawn(read)].map(|t| t.join().expect("reader panicked"))
            });
            a.reverse();
            b.reverse();
            for (idx, layer) in net.layers().iter().enumerate() {
                assert_same_bits(a[idx], &oracle[idx], &format!("{} {}", net.name, layer.name));
                assert!(std::ptr::eq(a[idx], b[idx]), "{} drawn once", layer.name);
                assert!(std::ptr::eq(a[idx], layer.weights()), "{} kept", layer.name);
            }
        }
    }

    #[test]
    fn quantized_weights_lend_or_round_the_sequential_draw() {
        for (net, oracle) in lazy_networks() {
            for (idx, layer) in net.layers().iter().enumerate() {
                for format in [FpFormat::Fp16, FpFormat::Fp8] {
                    let rounded: Vec<f32> =
                        oracle[idx].iter().map(|&w| format.quantize(w)).collect();
                    let memo = net.quantized_weights(idx, format);
                    assert_same_bits(memo, &rounded, &format!("{} {format:?}", layer.name));
                }
                for format in [FpFormat::Fp32, FpFormat::Fp64] {
                    let lent = net.quantized_weights(idx, format);
                    assert!(std::ptr::eq(lent, layer.weights()), "{} {format:?}", layer.name);
                }
                assert_same_bits(layer.weights(), &oracle[idx], &layer.name);
            }
        }
    }

    #[test]
    fn synop_totals_are_positive() {
        let net = Network::svgg11(3);
        let synops: u64 = net.layers().iter().map(|l| l.kind.dense_synops()).sum();
        let weights: usize = net.layers().iter().map(|l| l.kind.weight_count()).sum();
        assert!(synops > 100_000_000);
        assert!(weights > 5_000_000);
    }
}
