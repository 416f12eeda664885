//! Uniform per-layer kernel dispatch.
//!
//! [`LayerExecutor`] is the kernel value: a code variant and a storage
//! format. It owns the mapping from layer kind and input representation to
//! the matching emitter — the dense-encoding lowering for the
//! spike-encoding first layer, the compressed conv, pooling and fully
//! connected lowerings otherwise — together with the input compression
//! each emitter expects. Each emitter lives in its own module as a
//! `LayerExecutor` method ([`LayerExecutor::lower_conv`],
//! [`LayerExecutor::lower_dense`], [`LayerExecutor::lower_fc`],
//! [`LayerExecutor::lower_pool`]).
//!
//! The executor only *emits*: [`LayerExecutor::lower_exact`] and
//! [`LayerExecutor::lower_temporal_step`] write a layer's exact program
//! into a caller's [`ProgramSink`], work item by work item, and return the
//! structural measurements of the invocation ([`LayerExecution`]). The
//! cycle-level backend passes its interpreter as the sink, so each item
//! runs on the cluster model as it is lowered; a [`StreamProgram`] passed
//! as the sink collects the program instead. [`LayerExecutor::lower_symbolic`]
//! and [`LayerExecutor::bind_symbolic`] serve the analytic backend.

use snitch_arch::fp::FpFormat;
use snitch_arch::ClusterConfig;
use spikestream_ir::{
    CostIntegrator, KernelOp, ProgramCache, ProgramKey, ProgramSink, ServedCost, SparsityBucket,
    StreamProgram,
};
use spikestream_snn::{
    AerEvent, CompressedFcInput, CompressedIfmap, Layer, LayerKind, Network, NeuronState, SpikeMap,
    Tensor3,
};

use crate::conv::MAX_SIMD_LANES;
use crate::KernelVariant;

/// The input of one layer invocation.
#[derive(Debug, Clone, Copy)]
pub enum LayerInput<'a> {
    /// Dense, padded image consumed by the spike-encoding first layer.
    Image(&'a Tensor3),
    /// Input spike map of a spike-consuming layer (padded for conv layers,
    /// flattened `1 x 1 x F` for fully connected layers).
    Spikes(&'a SpikeMap),
}

/// Structural measurements of one layer invocation: what the layer consumed
/// and produced, independent of the timing its program is charged.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerExecution {
    /// Firing rate of the layer's input (1.0 for the dense encoding layer).
    pub input_rate: f64,
    /// Number of input spikes (dense pixels for the encoding layer).
    pub input_spikes: u64,
    /// Synaptic operations executed.
    pub synops: f64,
    /// Compressed (CSR-derived) input footprint in bytes.
    pub csr_footprint_bytes: f64,
    /// AER input footprint in bytes.
    pub aer_footprint_bytes: f64,
    /// Output spikes of the layer (after pooling for conv layers).
    pub output_spikes: u64,
}

/// The buffers an exact emitter reuses from call to call: the work item
/// it writes before handing it to its sink, the conv emitter's
/// active-channel lists of one receptive field, and the dense emitter's
/// rounded image, pixel masks and row of dot products. Each call's ops and
/// lists borrow that call's input, yet the allocations outlive them: an
/// emitter borrows a buffer typed for its input's lifetime and gives it
/// back empty, so once the buffers have grown to the largest call they
/// never allocate again.
#[derive(Debug, Clone, Default)]
pub struct OpBuffer {
    ops: Vec<KernelOp<'static>>,
    active: Vec<&'static [u16]>,
    /// The dense emitter's image, rounded to the storage format.
    rounded: Vec<f32>,
    /// Per dense pixel: all ones, or zero where the pixel is 0.0.
    masks: Vec<u32>,
    /// The dense emitter's dot products of one output row.
    row: Vec<[f32; MAX_SIMD_LANES]>,
}

/// `v` emptied and re-typed for the next call: an empty vector borrows
/// nothing, so it may serve the next input, and collecting it in place
/// keeps its allocation.
fn emptied<T, U>(mut v: Vec<T>) -> Vec<U> {
    v.clear();
    v.into_iter().map(|_| unreachable!("the buffer was cleared")).collect()
}

impl OpBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lend the (empty) op buffer to one emitter call.
    pub(crate) fn lend<'a>(&mut self) -> Vec<KernelOp<'a>> {
        std::mem::take(&mut self.ops)
    }

    /// Take the op buffer back from the call that borrowed it.
    pub(crate) fn restore(&mut self, ops: Vec<KernelOp<'_>>) {
        self.ops = emptied(ops);
    }

    /// Lend the (empty) active-channel list buffer to one conv call.
    pub(crate) fn lend_active<'a>(&mut self) -> Vec<&'a [u16]> {
        std::mem::take(&mut self.active)
    }

    /// Take the active-channel list buffer back from its conv call.
    pub(crate) fn restore_active(&mut self, active: Vec<&[u16]>) {
        self.active = emptied(active);
    }

    /// The dense emitter's buffers: `image` with `round` applied to every
    /// pixel, one mask word per pixel (all ones unless the pixel is 0.0),
    /// and a row of `row_len` zeroed lane groups.
    pub(crate) fn dense_rows(
        &mut self,
        image: &[f32],
        round: impl Fn(f32) -> f32,
        row_len: usize,
    ) -> (&[f32], &[u32], &mut [[f32; MAX_SIMD_LANES]]) {
        self.rounded.clear();
        self.rounded.extend(image.iter().map(|&x| round(x)));
        self.masks.clear();
        self.masks.extend(image.iter().map(|&x| u32::from(x != 0.0).wrapping_neg()));
        self.row.clear();
        self.row.resize(row_len, [0.0; MAX_SIMD_LANES]);
        (&self.rounded, &self.masks, &mut self.row)
    }
}

/// Reusable buffers for repeated [`LayerExecutor::lower_exact`] and
/// [`LayerExecutor::lower_temporal_step`] invocations: the neuron state, the
/// compressed-input buffers, the work-item [`OpBuffer`] and their backing
/// allocations. A worker that evaluates many layers (or many batch samples)
/// keeps one `LayerScratch` and avoids re-allocating these per layer once
/// the buffers reach steady-state capacity.
///
/// For temporal runs the scratch additionally owns one *persistent*
/// [`NeuronState`] per network layer: [`LayerScratch::begin_sample`] resets
/// them to the layer model's rest state, and every
/// [`LayerExecutor::lower_temporal_step`] of the sample advances them in
/// place — the state variables survive from timestep to timestep, which is
/// what makes the pipeline a real spiking inference. The states are pinned
/// to whichever worker owns the scratch, so a sample's timesteps always
/// execute on one worker, in order.
#[derive(Debug, Clone, Default)]
pub struct LayerScratch {
    state: NeuronState,
    ifmap: CompressedIfmap,
    fc: CompressedFcInput,
    ops: OpBuffer,
    /// Per-layer persistent neuron states of the current temporal sample
    /// (empty until [`LayerScratch::begin_sample`] is called).
    states: Vec<NeuronState>,
}

impl LayerScratch {
    /// Fresh, empty scratch buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a new temporal sample: size one persistent neuron state per
    /// layer of `network` and reset every state variable to the layer
    /// model's rest values, reusing the existing allocations. Must be
    /// called before the first [`LayerExecutor::lower_temporal_step`] of
    /// each sample — this is what guarantees neuron state never leaks
    /// between batch samples.
    pub fn begin_sample(&mut self, network: &Network) {
        self.states.resize_with(network.len(), NeuronState::default);
        for (layer, state) in network.layers().iter().zip(self.states.iter_mut()) {
            let neurons = match &layer.kind {
                // Conv membranes cover the pre-pool output neurons.
                LayerKind::Conv(c) => c.conv_output().len(),
                // Pooling is membrane-free.
                LayerKind::AvgPool(_) => 0,
                LayerKind::Linear(l) => l.out_features,
            };
            state.reset_for(&layer.neuron, neurons);
        }
    }

    /// The persistent neuron state of layer `idx` (read-only view, used
    /// by tests and diagnostics).
    ///
    /// # Panics
    ///
    /// Panics if [`LayerScratch::begin_sample`] has not sized the states or
    /// `idx` is out of range.
    pub fn membrane(&self, idx: usize) -> &NeuronState {
        &self.states[idx]
    }
}

/// The kernel value: one code variant and one storage format.
///
/// `LayerExecutor` is stateless (variant + format only); reusable buffers
/// live in a caller-owned [`LayerScratch`]. It emits programs and never
/// runs them: an exact lowering writes into the caller's [`ProgramSink`]
/// (an interpreter, or a [`StreamProgram`] that collects it), and a backend
/// integrates what a symbolic lowering returns.
///
/// # Example
///
/// ```
/// use snitch_arch::fp::FpFormat;
/// use snitch_arch::ClusterConfig;
/// use spikestream_ir::{CostIntegrator, StreamProgram};
/// use spikestream_kernels::{KernelVariant, LayerExecutor, LayerInput, LayerScratch};
/// use spikestream_snn::neuron::LifParams;
/// use spikestream_snn::tensor::{SpikeMap, TensorShape};
/// use spikestream_snn::{ConvSpec, NetworkBuilder};
///
/// let spec = ConvSpec {
///     input: TensorShape::new(4, 4, 4),
///     out_channels: 4,
///     kh: 3,
///     kw: 3,
///     stride: 1,
///     padding: 1,
///     pool: false,
/// };
/// let network = NetworkBuilder::new("one")
///     .conv("conv", spec, LifParams::new(0.5, 0.25))
///     .build_with_random_weights(1, 0.1);
/// let mut spikes = SpikeMap::silent(spec.padded_input());
/// spikes.set(2, 2, 1, true);
///
/// let mut scratch = LayerScratch::new();
/// let executor = LayerExecutor::new(KernelVariant::SpikeStream, FpFormat::Fp16);
/// let mut program = StreamProgram::new("conv", executor.format());
/// let exec = executor.lower_exact(
///     &ClusterConfig::default(),
///     &network,
///     0,
///     LayerInput::Spikes(&spikes),
///     &mut scratch,
///     &mut program,
/// );
/// assert_eq!(exec.input_spikes, 1);
/// assert!(!program.is_symbolic());
/// assert!(CostIntegrator::snitch().integrate(&program).cycles > 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerExecutor {
    pub(crate) variant: KernelVariant,
    pub(crate) format: FpFormat,
}

impl LayerExecutor {
    /// Create an executor for the given variant and floating-point format.
    pub fn new(variant: KernelVariant, format: FpFormat) -> Self {
        LayerExecutor { variant, format }
    }

    /// The code variant the dispatched kernels emit.
    pub fn variant(&self) -> KernelVariant {
        self.variant
    }

    /// The storage format of weights and activations.
    pub fn format(&self) -> FpFormat {
        self.format
    }

    /// Lower layer `idx` of `network` as one single-shot invocation into
    /// `sink`, as its exact stream program, dispatching to the matching
    /// emitter with the network's memoized
    /// [quantized weights](Network::quantized_weights) and reusing the
    /// caller's scratch buffers for the neuron state, the compressed input
    /// and the work items (no allocation once the buffers reached
    /// steady-state capacity). The neuron state rests before the layer
    /// runs. The program's gathers borrow the compressed input in
    /// `scratch`, so a collecting sink holds the scratch borrowed.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range or the input representation does not
    /// fit the layer (a dense image on a fully connected layer, a spike map
    /// whose shape does not match the layer input) — the same contract as
    /// the emitters.
    pub fn lower_exact<'s>(
        &self,
        config: &ClusterConfig,
        network: &Network,
        idx: usize,
        input: LayerInput<'_>,
        scratch: &'s mut LayerScratch,
        sink: &mut dyn ProgramSink<'s>,
    ) -> LayerExecution {
        let LayerScratch { state, ifmap, fc, ops, .. } = scratch;
        self.dispatch(config, network, idx, input, state, ifmap, fc, ops, true, sink).0
    }

    /// Lower layer `idx` of `network` for one *timestep* of a temporal
    /// sample, advancing the layer's persistent membrane state in
    /// `scratch` instead of resetting it. Writes the program into `sink`
    /// and returns the structural measurements plus the layer's output
    /// spike map (after pooling; `1 x 1 x F` for fully connected layers),
    /// which *is* the next layer's input at this timestep.
    ///
    /// The per-timestep program is the layer's regular stream program: its
    /// prologue DMA loads the membrane tile alongside the compressed
    /// per-step input (whose stream lengths reflect the step's realized
    /// sparsity) and its epilogue DMA writes the membranes back — the
    /// load/store phases every timestep of a stateful inference pays.
    ///
    /// # Panics
    ///
    /// Panics if [`LayerScratch::begin_sample`] was not called for the
    /// current network (membrane state missing or mis-sized), or on the
    /// input-shape mismatches of [`LayerExecutor::lower_exact`].
    pub fn lower_temporal_step<'s>(
        &self,
        config: &ClusterConfig,
        network: &Network,
        idx: usize,
        input: LayerInput<'_>,
        scratch: &'s mut LayerScratch,
        sink: &mut dyn ProgramSink<'s>,
    ) -> (LayerExecution, SpikeMap) {
        assert!(
            idx < scratch.states.len(),
            "LayerScratch::begin_sample must size the membrane states before temporal steps"
        );
        let LayerScratch { states, ifmap, fc, ops, .. } = scratch;
        self.dispatch(config, network, idx, input, &mut states[idx], ifmap, fc, ops, false, sink)
    }

    /// Lower one layer *symbolically* from expected firing rates,
    /// dispatching to the matching kernel emitter exactly like the exact
    /// dispatch does for concrete inputs: the dense-encoding kernel for the
    /// spike-encoding first layer, the sparse conv/pool/FC emitters
    /// otherwise. The analytic backend integrates the result.
    pub fn lower_symbolic(
        &self,
        config: &ClusterConfig,
        layer: &Layer,
        input_rate: f64,
        output_rate: f64,
    ) -> StreamProgram<'static> {
        let (label, model) = (&layer.name, &layer.neuron);
        match &layer.kind {
            LayerKind::Conv(spec) if layer.encodes_input => {
                self.lower_dense_symbolic(config, label, spec, model, output_rate)
            }
            LayerKind::Conv(spec) => {
                self.lower_conv_symbolic(config, label, spec, model, input_rate, output_rate)
            }
            LayerKind::AvgPool(spec) => self.lower_pool_symbolic(config, label, spec, output_rate),
            LayerKind::Linear(spec) => {
                self.lower_fc_symbolic(config, label, spec, model, input_rate, output_rate)
            }
        }
    }

    /// The cache key class of one (code variant, neuron model) pairing.
    /// Classes are process-internal — they only need to be stable and
    /// collision-free — so the variant occupies bit 0 and the layer's
    /// neuron-model class the bits above it: two models sharing one cache
    /// can never serve each other's costs.
    fn class(&self, layer: &Layer) -> u32 {
        let variant = match self.variant {
            KernelVariant::Baseline => 0,
            KernelVariant::SpikeStream => 1,
        };
        variant | (layer.neuron.cache_class() << 1)
    }

    /// Price `layer` at the realized `(input_rate, output_rate)` sparsity
    /// through the plan-owned cost memo: a hit returns the memoized
    /// [`ServedCost`]; a miss lowers the layer with
    /// [`LayerExecutor::lower_symbolic`], integrates the program, caches
    /// the cost's served projection (while the cache is below capacity)
    /// and returns it. This is the entry point the analytic serving hot
    /// path uses, so a sample population served again never re-lowers or
    /// re-integrates a layer.
    pub fn bind_symbolic(
        &self,
        cache: &ProgramCache,
        integrator: &CostIntegrator,
        layer_idx: usize,
        layer: &Layer,
        input_rate: f64,
        output_rate: f64,
    ) -> ServedCost {
        let key = ProgramKey {
            layer: layer_idx as u32,
            class: self.class(layer),
            format: self.format,
            bucket: SparsityBucket::of(input_rate, output_rate),
        };
        cache.get_or_emit(key, || {
            let program = self.lower_symbolic(integrator.config(), layer, input_rate, output_rate);
            ServedCost::from(&integrator.integrate(&program))
        })
    }

    /// The shared kernel dispatch behind [`LayerExecutor::lower_exact`]
    /// and [`LayerExecutor::lower_temporal_step`]: compress the input,
    /// lower the matching kernel against `state` into `sink`, and derive
    /// the structural measurements. `fresh` selects single-shot semantics — the membrane
    /// state is reset to rest before the layer runs, and the dense encoding
    /// layer reports its historical every-pixel input metrics (a temporal
    /// step instead counts the step's realized nonzero inputs, which is
    /// what rate coding sparsifies).
    #[allow(clippy::too_many_arguments)]
    fn dispatch<'s>(
        &self,
        config: &ClusterConfig,
        network: &Network,
        idx: usize,
        input: LayerInput<'_>,
        state: &mut NeuronState,
        ifmap: &'s mut CompressedIfmap,
        fc: &'s mut CompressedFcInput,
        ops: &mut OpBuffer,
        fresh: bool,
        sink: &mut dyn ProgramSink<'s>,
    ) -> (LayerExecution, SpikeMap) {
        let layer = &network.layers()[idx];
        let weights = network.quantized_weights(idx, self.format);
        match (&layer.kind, input) {
            (LayerKind::Conv(spec), LayerInput::Image(image)) => {
                if fresh {
                    state.reset_for(&layer.neuron, spec.conv_output().len());
                }
                let output = self.lower_dense(config, layer, weights, image, state, ops, sink);
                let padded = spec.padded_input();
                let input_spikes = if fresh { padded.len() } else { image.count_nonzero() };
                let exec = LayerExecution {
                    input_rate: input_spikes as f64 / padded.len().max(1) as f64,
                    input_spikes: input_spikes as u64,
                    synops: spec.dense_synops() as f64,
                    csr_footprint_bytes: (padded.len() * 4) as f64,
                    aer_footprint_bytes: (padded.len() * 4) as f64,
                    output_spikes: output.count_spikes() as u64,
                };
                (exec, output)
            }
            (LayerKind::Conv(spec), LayerInput::Spikes(spikes)) => {
                ifmap.refill_from(spikes);
                let ifmap: &'s CompressedIfmap = ifmap;
                if fresh {
                    state.reset_for(&layer.neuron, spec.conv_output().len());
                }
                let output = self.lower_conv(config, layer, weights, ifmap, state, ops, sink);
                let rate = ifmap.firing_rate();
                let exec = LayerExecution {
                    input_rate: rate,
                    input_spikes: ifmap.spike_count() as u64,
                    synops: spec.dense_synops() as f64 * rate,
                    csr_footprint_bytes: ifmap.footprint_bytes() as f64,
                    aer_footprint_bytes: (ifmap.spike_count() * AerEvent::BYTES) as f64,
                    output_spikes: output.count_spikes() as u64,
                };
                (exec, output)
            }
            (LayerKind::AvgPool(spec), LayerInput::Spikes(spikes)) => {
                ifmap.refill_from(spikes);
                let output = self.lower_pool(config, layer, spikes, ops, sink);
                let rate = ifmap.firing_rate();
                let exec = LayerExecution {
                    input_rate: rate,
                    input_spikes: ifmap.spike_count() as u64,
                    synops: spec.dense_synops() as f64 * rate,
                    csr_footprint_bytes: ifmap.footprint_bytes() as f64,
                    aer_footprint_bytes: (ifmap.spike_count() * AerEvent::BYTES) as f64,
                    output_spikes: output.count_spikes() as u64,
                };
                (exec, output)
            }
            (LayerKind::Linear(spec), LayerInput::Spikes(spikes)) => {
                fc.refill_from_map(spikes);
                let fc: &'s CompressedFcInput = fc;
                if fresh {
                    state.reset_for(&layer.neuron, spec.out_features);
                }
                let output = self.lower_fc(config, layer, weights, fc, state, ops, sink);
                let exec = LayerExecution {
                    input_rate: fc.spike_count() as f64 / spec.in_features as f64,
                    input_spikes: fc.spike_count() as u64,
                    synops: spec.dense_synops() as f64 * fc.spike_count() as f64
                        / spec.in_features as f64,
                    csr_footprint_bytes: fc.footprint_bytes() as f64,
                    aer_footprint_bytes: (fc.spike_count() * AerEvent::BYTES) as f64,
                    output_spikes: output.count_spikes() as u64,
                };
                (exec, output)
            }
            (LayerKind::Linear(_) | LayerKind::AvgPool(_), LayerInput::Image(_)) => {
                panic!("fully connected and pooling layers consume spikes, not dense images")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interpret;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use spikestream_snn::neuron::LifParams;
    use spikestream_snn::tensor::TensorShape;
    use spikestream_snn::{ConvSpec, NetworkBuilder};

    fn config() -> ClusterConfig {
        ClusterConfig::default()
    }

    fn conv_layer(pool: bool) -> (Layer, ConvSpec) {
        let spec = ConvSpec {
            input: TensorShape::new(6, 6, 8),
            out_channels: 8,
            kh: 3,
            kw: 3,
            stride: 1,
            padding: 1,
            pool,
        };
        let mut layer = Layer::new("conv", LayerKind::Conv(spec), LifParams::new(0.5, 0.25));
        let mut rng = StdRng::seed_from_u64(3);
        layer.randomize_weights(&mut rng, 0.1);
        (layer, spec)
    }

    /// A one-layer network around [`conv_layer`]'s layer.
    fn conv_network(pool: bool) -> (Network, ConvSpec) {
        let (layer, spec) = conv_layer(pool);
        let mut net = NetworkBuilder::new("one").conv("conv", spec, layer.neuron).build();
        net.layers_mut()[0].set_weights(layer.weights().to_vec());
        (net, spec)
    }

    fn random_spikes(shape: TensorShape, rate: f64, seed: u64) -> SpikeMap {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut map = SpikeMap::silent(shape);
        for h in 1..shape.h - 1 {
            for w in 1..shape.w - 1 {
                for c in 0..shape.c {
                    if rng.gen_bool(rate) {
                        map.set(h, w, c, true);
                    }
                }
            }
        }
        map
    }

    #[test]
    fn conv_dispatch_reports_the_compressed_input() {
        let (net, spec) = conv_network(false);
        let spikes = random_spikes(spec.padded_input(), 0.3, 11);
        let compressed = CompressedIfmap::from_spike_map(&spikes);
        let mut scratch = LayerScratch::new();
        let mut program = StreamProgram::new("conv", FpFormat::Fp16);
        let exec = LayerExecutor::new(KernelVariant::SpikeStream, FpFormat::Fp16).lower_exact(
            &config(),
            &net,
            0,
            LayerInput::Spikes(&spikes),
            &mut scratch,
            &mut program,
        );
        assert_eq!(exec.input_spikes, compressed.spike_count() as u64);
        assert_eq!(exec.input_rate, compressed.firing_rate());
        assert_eq!(exec.csr_footprint_bytes, compressed.footprint_bytes() as f64);
        assert!(exec.synops > 0.0);
        assert!(interpret(&program).cycles > 0);
    }

    #[test]
    fn executors_match_direct_kernel_invocations() {
        let (net, spec) = conv_network(true);
        let layer = &net.layers()[0];
        let spikes = random_spikes(spec.padded_input(), 0.25, 7);

        let executor = LayerExecutor::new(KernelVariant::Baseline, FpFormat::Fp16);
        let compressed = CompressedIfmap::from_spike_map(&spikes);
        let mut state = NeuronState::lif(spec.conv_output().len());
        let mut direct_program = StreamProgram::new(&layer.name, FpFormat::Fp16);
        let direct_output = executor.lower_conv(
            &config(),
            layer,
            &layer.quantize_weights(executor.format()),
            &compressed,
            &mut state,
            &mut OpBuffer::new(),
            &mut direct_program,
        );
        let direct_stats = interpret(&direct_program);

        let mut scratch = LayerScratch::new();
        let mut program = StreamProgram::new(&layer.name, FpFormat::Fp16);
        let exec = executor.lower_exact(
            &config(),
            &net,
            0,
            LayerInput::Spikes(&spikes),
            &mut scratch,
            &mut program,
        );
        let exec_stats = interpret(&program);

        assert_eq!(exec.output_spikes, direct_output.count_spikes() as u64);
        assert_eq!(exec_stats.cycles, direct_stats.cycles);
        assert_eq!(exec_stats.totals.int_instrs, direct_stats.totals.int_instrs);
    }

    #[test]
    fn scratch_reuse_is_bit_identical_to_fresh_buffers() {
        let (net, spec) = conv_network(true);
        let executor = LayerExecutor::new(KernelVariant::SpikeStream, FpFormat::Fp16);
        let mut scratch = LayerScratch::new();
        // Prime the scratch with a differently-shaped layer invocation.
        let warmup = random_spikes(spec.padded_input(), 0.5, 1);
        executor.lower_exact(
            &config(),
            &net,
            0,
            LayerInput::Spikes(&warmup),
            &mut scratch,
            &mut StreamProgram::new("conv", FpFormat::Fp16),
        );

        for seed in [2, 3, 4] {
            let spikes = random_spikes(spec.padded_input(), 0.2, seed);
            let mut fresh_scratch = LayerScratch::new();
            let mut fresh_program = StreamProgram::new("conv", FpFormat::Fp16);
            let fresh = executor.lower_exact(
                &config(),
                &net,
                0,
                LayerInput::Spikes(&spikes),
                &mut fresh_scratch,
                &mut fresh_program,
            );
            let mut reused_program = StreamProgram::new("conv", FpFormat::Fp16);
            let reused = executor.lower_exact(
                &config(),
                &net,
                0,
                LayerInput::Spikes(&spikes),
                &mut scratch,
                &mut reused_program,
            );
            assert_eq!(fresh, reused);
            assert_eq!(
                interpret(&fresh_program),
                interpret(&reused_program),
                "identical timing regardless of buffer reuse"
            );
        }
    }

    #[test]
    fn temporal_steps_persist_membrane_state_between_invocations() {
        let (net, spec) = conv_network(false);

        let executor = LayerExecutor::new(KernelVariant::SpikeStream, FpFormat::Fp32);
        let mut scratch = LayerScratch::new();
        scratch.begin_sample(&net);
        let spikes = random_spikes(spec.padded_input(), 0.3, 5);

        // Two temporal steps on the same input: the second step starts from
        // the first step's (decayed, reset-by-subtraction) membranes, so the
        // membrane trajectory must match a manual two-step reference run.
        let mut reference = NeuronState::lif(spec.conv_output().len());
        let compressed = CompressedIfmap::from_spike_map(&spikes);
        for step in 0..2 {
            let mut program = StreamProgram::new("conv", FpFormat::Fp32);
            let (exec, out) = executor.lower_temporal_step(
                &config(),
                &net,
                0,
                LayerInput::Spikes(&spikes),
                &mut scratch,
                &mut program,
            );
            let mut direct_program = StreamProgram::new("conv", FpFormat::Fp32);
            let direct = executor.lower_conv(
                &config(),
                &net.layers()[0],
                &net.layers()[0].quantize_weights(executor.format()),
                &compressed,
                &mut reference,
                &mut OpBuffer::new(),
                &mut direct_program,
            );
            assert_eq!(program, direct_program, "step {step} program");
            assert_eq!(out, direct, "step {step} spikes");
            assert_eq!(exec.output_spikes, direct.count_spikes() as u64);
            assert_eq!(scratch.membrane(0).membrane(), reference.membrane(), "step {step}");
        }

        // A new sample resets the membranes to rest.
        scratch.begin_sample(&net);
        assert!(scratch.membrane(0).membrane().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "begin_sample")]
    fn temporal_step_without_begin_sample_is_rejected() {
        let (net, spec) = conv_network(false);
        let spikes = random_spikes(spec.padded_input(), 0.2, 3);
        LayerExecutor::new(KernelVariant::Baseline, FpFormat::Fp16).lower_temporal_step(
            &config(),
            &net,
            0,
            LayerInput::Spikes(&spikes),
            &mut LayerScratch::new(),
            &mut StreamProgram::new("conv", FpFormat::Fp16),
        );
    }

    #[test]
    fn bind_symbolic_emits_once_then_hits_with_the_integrated_cost() {
        use spikestream_snn::{LinearSpec, PoolSpec};
        let lif = LifParams::new(0.5, 0.25);
        let conv_spec = ConvSpec {
            input: TensorShape::new(8, 8, 16),
            out_channels: 16,
            kh: 3,
            kw: 3,
            stride: 1,
            padding: 1,
            pool: false,
        };
        let mut encoder = Layer::new("enc", LayerKind::Conv(conv_spec), lif);
        encoder.encodes_input = true;
        let conv = Layer::new("conv", LayerKind::Conv(conv_spec), lif);
        let pool = Layer::new(
            "pool",
            LayerKind::AvgPool(PoolSpec { input: conv_spec.input, window: 2 }),
            lif,
        );
        let fc = Layer::new(
            "fc",
            LayerKind::Linear(LinearSpec { in_features: 256, out_features: 10 }),
            lif,
        );

        let integrator = CostIntegrator::snitch();
        for variant in [KernelVariant::Baseline, KernelVariant::SpikeStream] {
            let executor = LayerExecutor::new(variant, FpFormat::Fp16);
            for (idx, layer) in [&encoder, &conv, &pool, &fc].into_iter().enumerate() {
                let cache = ProgramCache::new();
                let first = executor.bind_symbolic(&cache, &integrator, idx, layer, 0.3, 0.4);
                assert_eq!(
                    (cache.counters().hits, cache.counters().emits),
                    (0, 1),
                    "{variant} {}: the first binding emits",
                    layer.name
                );
                let second = executor.bind_symbolic(&cache, &integrator, idx, layer, 0.3, 0.4);
                assert_eq!(
                    (cache.counters().hits, cache.counters().emits),
                    (1, 1),
                    "{variant} {}: the second binding hits",
                    layer.name
                );
                let fresh = integrator.integrate(&executor.lower_symbolic(
                    integrator.config(),
                    layer,
                    0.3,
                    0.4,
                ));
                let served = ServedCost::from(&fresh);
                assert_eq!(first, served, "{variant} {}: emit == integrate(lower)", layer.name);
                assert_eq!(second, served, "{variant} {}: hit == integrate(lower)", layer.name);
                assert!(fresh.cycles > 0, "sanity: bound programs integrate");
            }
        }
    }

    #[test]
    fn bind_symbolic_hits_on_repeated_bindings() {
        let (layer, _) = conv_layer(false);
        let executor = LayerExecutor::new(KernelVariant::SpikeStream, FpFormat::Fp16);
        let integrator = CostIntegrator::snitch();
        let cache = ProgramCache::new();
        let a = executor.bind_symbolic(&cache, &integrator, 1, &layer, 0.3, 0.2);
        let b = executor.bind_symbolic(&cache, &integrator, 1, &layer, 0.3, 0.2);
        assert_eq!(a, b, "hits return the memoized cost");
        assert_eq!(cache.counters().hits, 1);
        // A silent input is a different bucket (the gather is omitted
        // entirely), so it emits and prices differently.
        let silent = executor.bind_symbolic(&cache, &integrator, 1, &layer, 0.0, 0.2);
        assert_ne!(silent, a);
        assert_eq!(cache.counters().emits, 2);
    }

    #[test]
    #[should_panic(expected = "consume spikes")]
    fn dense_input_on_a_linear_layer_is_rejected() {
        use spikestream_snn::LinearSpec;
        let net = NetworkBuilder::new("fc")
            .linear(
                "fc",
                LinearSpec { in_features: 16, out_features: 4 },
                LifParams::new(0.5, 0.25),
            )
            .build();
        let image = Tensor3::zeros(TensorShape::new(4, 4, 1));
        LayerExecutor::new(KernelVariant::Baseline, FpFormat::Fp16).lower_exact(
            &config(),
            &net,
            0,
            LayerInput::Image(&image),
            &mut LayerScratch::new(),
            &mut StreamProgram::new("fc", FpFormat::Fp16),
        );
    }
}
