//! Functional reference inference engine.
//!
//! This engine computes SNN layer outputs directly in `f32` with plain
//! nested loops — no compression, no tiling, no hardware model. It serves
//! as ground truth for the kernel implementations in `spikestream-kernels`:
//! both the baseline and the SpikeStream kernels must produce the same
//! input currents and output spikes (up to the rounding of the selected
//! storage format).

use crate::layer::{ConvSpec, Layer, LayerKind, LinearSpec, PoolSpec};
use crate::neuron::NeuronState;
use crate::tensor::{SpikeMap, Tensor3, TensorShape};

/// Functional reference implementation of spiking layers.
#[derive(Debug, Clone, Default)]
pub struct ReferenceEngine;

impl ReferenceEngine {
    /// Create a reference engine.
    pub fn new() -> Self {
        ReferenceEngine
    }

    /// Input currents of a convolutional layer fed with binary spikes.
    ///
    /// `input` must already be padded to `spec.padded_input()`. Since spike
    /// values are 1, each active input channel simply contributes its weight
    /// (the multiply-free accumulation the paper exploits).
    ///
    /// # Panics
    ///
    /// Panics if the input shape does not match the padded layer input.
    pub fn conv_currents(&self, layer: &Layer, spec: &ConvSpec, input: &SpikeMap) -> Tensor3 {
        assert_eq!(input.shape(), spec.padded_input(), "input must be padded");
        let weights = layer.weights();
        let out_shape = spec.conv_output();
        let mut currents = Tensor3::zeros(out_shape);
        for oh in 0..out_shape.h {
            for ow in 0..out_shape.w {
                for kh in 0..spec.kh {
                    for kw in 0..spec.kw {
                        let ih = oh * spec.stride + kh;
                        let iw = ow * spec.stride + kw;
                        for ci in input.active_channels_iter(ih, iw) {
                            let ci = ci as usize;
                            for co in 0..spec.out_channels {
                                let w = weights[spec.weight_index(kh, kw, ci, co)];
                                let v = currents.get(oh, ow, co) + w;
                                currents.set(oh, ow, co, v);
                            }
                        }
                    }
                }
            }
        }
        currents
    }

    /// Input currents of the dense spike-encoding first layer (the image
    /// values act as input currents; the convolution is a real matmul).
    pub fn conv_currents_dense(&self, layer: &Layer, spec: &ConvSpec, image: &Tensor3) -> Tensor3 {
        assert_eq!(image.shape(), spec.padded_input(), "image must be padded");
        let weights = layer.weights();
        let out_shape = spec.conv_output();
        let mut currents = Tensor3::zeros(out_shape);
        for oh in 0..out_shape.h {
            for ow in 0..out_shape.w {
                for kh in 0..spec.kh {
                    for kw in 0..spec.kw {
                        let ih = oh * spec.stride + kh;
                        let iw = ow * spec.stride + kw;
                        for ci in 0..spec.input.c {
                            let x = image.get(ih, iw, ci);
                            if x == 0.0 {
                                continue;
                            }
                            for co in 0..spec.out_channels {
                                let w = weights[spec.weight_index(kh, kw, ci, co)];
                                let v = currents.get(oh, ow, co) + x * w;
                                currents.set(oh, ow, co, v);
                            }
                        }
                    }
                }
            }
        }
        currents
    }

    /// Input currents of a fully connected layer fed with binary spikes.
    /// The input map is read in flattened HWC order, so any shape with
    /// `in_features` total neurons is accepted; silent 64-neuron words are
    /// skipped in one comparison each.
    pub fn linear_currents(&self, layer: &Layer, spec: &LinearSpec, input: &SpikeMap) -> Vec<f32> {
        assert_eq!(input.shape().len(), spec.in_features, "input length mismatch");
        let weights = layer.weights();
        let mut currents = vec![0.0f32; spec.out_features];
        for i in input.iter_active() {
            for (o, current) in currents.iter_mut().enumerate() {
                *current += weights[spec.weight_index(i, o)];
            }
        }
        currents
    }

    /// Apply the layer's neuron dynamics to per-neuron currents and return
    /// the output spike map (before pooling) for a convolutional layer.
    pub fn activate_conv(
        &self,
        layer: &Layer,
        spec: &ConvSpec,
        currents: &Tensor3,
        state: &mut NeuronState,
    ) -> SpikeMap {
        let out_shape = spec.conv_output();
        assert_eq!(state.len(), out_shape.len(), "neuron state size mismatch");
        let mut spikes = SpikeMap::silent(out_shape);
        state.step_into_map(&layer.neuron, currents.data(), &mut spikes);
        spikes
    }

    /// One full convolutional layer step: currents, activation, pooling.
    pub fn conv_forward(
        &self,
        layer: &Layer,
        input: &SpikeMap,
        state: &mut NeuronState,
    ) -> SpikeMap {
        let LayerKind::Conv(spec) = &layer.kind else {
            panic!("conv_forward called on a non-convolutional layer");
        };
        let currents = self.conv_currents(layer, spec, input);
        let spikes = self.activate_conv(layer, spec, &currents, state);
        if spec.pool {
            max_pool_2x2(&spikes)
        } else {
            spikes
        }
    }

    /// One full average-pooling layer step: each output neuron fires when
    /// the average activity of its window reaches one half.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is not an average-pooling layer or the input shape
    /// does not match the spec.
    pub fn avg_pool_forward(&self, layer: &Layer, input: &SpikeMap) -> SpikeMap {
        let LayerKind::AvgPool(spec) = &layer.kind else {
            panic!("avg_pool_forward called on a non-pooling layer");
        };
        assert_eq!(input.shape(), spec.input, "input shape mismatch");
        avg_pool(input, spec)
    }

    /// One full fully connected layer step. The output map has shape
    /// `(1, 1, out_features)`.
    pub fn linear_forward(
        &self,
        layer: &Layer,
        input: &SpikeMap,
        state: &mut NeuronState,
    ) -> SpikeMap {
        let LayerKind::Linear(spec) = &layer.kind else {
            panic!("linear_forward called on a non-linear layer");
        };
        let currents = self.linear_currents(layer, spec, input);
        let mut spikes = SpikeMap::silent(TensorShape::new(1, 1, spec.out_features));
        state.step_into_map(&layer.neuron, &currents, &mut spikes);
        spikes
    }
}

/// Average pooling of a binary spike map: an output neuron fires when at
/// least [`PoolSpec::fire_threshold`] of its window inputs spiked (window
/// average >= 0.5).
pub fn avg_pool(map: &SpikeMap, spec: &PoolSpec) -> SpikeMap {
    let out_shape = spec.output();
    let threshold = spec.fire_threshold();
    if spec.window == 2 {
        // 2x2 windows always fire on >= 2 of 4 inputs; compute the majority
        // word-parallel: extract the four channel fibers of the window and
        // combine 64 channels per instruction.
        debug_assert_eq!(threshold, 2);
        return pool_2x2_words(map, out_shape, |[a, b, c, d]| {
            (a & b) | (c & d) | ((a | b) & (c | d))
        });
    }
    let mut out = SpikeMap::silent(out_shape);
    for h in 0..out_shape.h {
        for w in 0..out_shape.w {
            for c in 0..out_shape.c {
                let mut count = 0usize;
                for dh in 0..spec.window {
                    for dw in 0..spec.window {
                        if map.get(spec.window * h + dh, spec.window * w + dw, c) {
                            count += 1;
                        }
                    }
                }
                out.set(h, w, c, count >= threshold);
            }
        }
    }
    out
}

/// 2x2 max-pool of a binary spike map (logical OR over each window).
pub fn max_pool_2x2(map: &SpikeMap) -> SpikeMap {
    let s = map.shape();
    let out_shape = TensorShape::new(s.h / 2, s.w / 2, s.c);
    pool_2x2_words(map, out_shape, |[a, b, c, d]| a | b | c | d)
}

/// Word-parallel 2x2 pooling: for each output position, the four input
/// fibers of the window (each `c` contiguous bits) are gathered into word
/// buffers and `combine` reduces them 64 channels at a time.
fn pool_2x2_words(
    map: &SpikeMap,
    out_shape: TensorShape,
    combine: impl Fn([u64; 4]) -> u64,
) -> SpikeMap {
    let s = map.shape();
    let mut out = SpikeMap::silent(out_shape);
    let c = s.c;
    let n_words = c.div_ceil(64);
    let mut fibers = vec![0u64; 4 * n_words];
    for h in 0..out_shape.h {
        for w in 0..out_shape.w {
            fibers.fill(0);
            for (i, (dh, dw)) in [(0, 0), (0, 1), (1, 0), (1, 1)].into_iter().enumerate() {
                let start = ((2 * h + dh) * s.w + (2 * w + dw)) * c;
                map.or_range_into(start, c, &mut fibers[i * n_words..(i + 1) * n_words]);
            }
            let out_start = (h * out_shape.w + w) * c;
            for wi in 0..n_words {
                let word = combine([
                    fibers[wi],
                    fibers[n_words + wi],
                    fibers[2 * n_words + wi],
                    fibers[3 * n_words + wi],
                ]);
                if word != 0 {
                    let bits = (c - wi * 64).min(64);
                    out.or_range_from(out_start + wi * 64, bits, &[word]);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Layer;
    use crate::neuron::LifParams;

    fn tiny_conv() -> (Layer, ConvSpec) {
        let spec = ConvSpec {
            input: TensorShape::new(4, 4, 2),
            out_channels: 3,
            kh: 3,
            kw: 3,
            stride: 1,
            padding: 1,
            pool: false,
        };
        let mut layer = Layer::new("c", LayerKind::Conv(spec), LifParams::new(0.5, 0.5));
        for (i, w) in layer.weights_mut().iter_mut().enumerate() {
            *w = 0.01 * (i as f32 % 11.0) - 0.03;
        }
        (layer, spec)
    }

    #[test]
    fn silent_input_produces_zero_currents() {
        let (layer, spec) = tiny_conv();
        let input = SpikeMap::silent(spec.padded_input());
        let eng = ReferenceEngine::new();
        let currents = eng.conv_currents(&layer, &spec, &input);
        assert!(currents.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn single_spike_contributes_exactly_its_weights() {
        let (layer, spec) = tiny_conv();
        let mut input = SpikeMap::silent(spec.padded_input());
        // One spike at padded position (2, 2), channel 1.
        input.set(2, 2, 1, true);
        let eng = ReferenceEngine::new();
        let currents = eng.conv_currents(&layer, &spec, &input);
        // Output position (1, 1) sees this input at kernel offset (1, 1).
        let expected = layer.weights()[spec.weight_index(1, 1, 1, 0)];
        assert!((currents.get(1, 1, 0) - expected).abs() < 1e-6);
        // Output position (2, 2) sees it at kernel offset (0, 0).
        let expected = layer.weights()[spec.weight_index(0, 0, 1, 2)];
        assert!((currents.get(2, 2, 2) - expected).abs() < 1e-6);
    }

    #[test]
    fn dense_first_layer_scales_by_pixel_value() {
        let (layer, spec) = tiny_conv();
        let mut image = Tensor3::zeros(spec.padded_input());
        image.set(2, 2, 0, 0.5);
        let eng = ReferenceEngine::new();
        let currents = eng.conv_currents_dense(&layer, &spec, &image);
        let expected = 0.5 * layer.weights()[spec.weight_index(1, 1, 0, 0)];
        assert!((currents.get(1, 1, 0) - expected).abs() < 1e-6);
    }

    #[test]
    fn linear_currents_sum_active_rows() {
        let spec = LinearSpec { in_features: 4, out_features: 2 };
        let mut layer = Layer::new("fc", LayerKind::Linear(spec), LifParams::default());
        layer.set_weights(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let eng = ReferenceEngine::new();
        let input = SpikeMap::from_vec(TensorShape::new(1, 1, 4), vec![true, false, true, false]);
        let currents = eng.linear_currents(&layer, &spec, &input);
        assert_eq!(currents, vec![1.0 + 5.0, 2.0 + 6.0]);
    }

    #[test]
    fn conv_forward_applies_threshold_and_pool() {
        let spec = ConvSpec {
            input: TensorShape::new(4, 4, 1),
            out_channels: 1,
            kh: 1,
            kw: 1,
            stride: 1,
            padding: 0,
            pool: true,
        };
        let mut layer = Layer::new("c", LayerKind::Conv(spec), LifParams::new(0.0, 0.5));
        layer.set_weights(vec![1.0]);
        let mut input = SpikeMap::silent(spec.padded_input());
        input.set(0, 0, 0, true);
        input.set(3, 3, 0, true);
        let mut state = NeuronState::lif(spec.conv_output().len());
        let out = ReferenceEngine::new().conv_forward(&layer, &input, &mut state);
        assert_eq!(out.shape(), TensorShape::new(2, 2, 1));
        assert!(out.get(0, 0, 0));
        assert!(out.get(1, 1, 0));
        assert!(!out.get(0, 1, 0));
    }

    #[test]
    fn avg_pool_requires_half_the_window() {
        let spec = PoolSpec { input: TensorShape::new(4, 4, 1), window: 2 };
        let mut m = SpikeMap::silent(spec.input);
        // Window (0,0): one of four spikes -> silent.
        m.set(0, 0, 0, true);
        // Window (0,1): two of four spikes -> fires.
        m.set(0, 2, 0, true);
        m.set(1, 3, 0, true);
        let layer = Layer::new("pool", LayerKind::AvgPool(spec), LifParams::default());
        let out = ReferenceEngine::new().avg_pool_forward(&layer, &m);
        assert!(!out.get(0, 0, 0));
        assert!(out.get(0, 1, 0));
        assert_eq!(out.count_spikes(), 1);
    }

    #[test]
    fn max_pool_is_logical_or() {
        let mut m = SpikeMap::silent(TensorShape::new(4, 4, 1));
        m.set(1, 0, 0, true);
        let p = max_pool_2x2(&m);
        assert!(p.get(0, 0, 0));
        assert_eq!(p.count_spikes(), 1);
    }
}
