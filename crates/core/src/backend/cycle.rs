//! The cycle-level backend: exact stream programs interpreted on the
//! `snitch-sim` cluster model.

use snitch_sim::ClusterModel;
use spikestream_energy::Activity;
use spikestream_kernels::{LayerExecution, LayerInput, LayerScratch};
use spikestream_snn::encoding::pad_spikes;
use spikestream_snn::{
    AerFrame, LayerKind, SpikeMap, TemporalEncoder, Tensor3, WorkloadGenerator, WorkloadMode,
};

use super::{ExecutionBackend, LayerSample, SampleContext};

/// Cycle-level backend: lowers every layer to its stream program through
/// the context's [`LayerExecutor`](spikestream_kernels::LayerExecutor)
/// kernel dispatch and interprets the programs on one reused
/// [`ClusterModel`] (slower than the analytic backend; used for validation
/// and small batches). [`ClusterModel::finish_phase`] resets the cores and
/// the DMA engine between layers while the instruction cache stays warm —
/// kernels remain resident across layers, exactly as on the real cluster.
/// One [`LayerScratch`] is likewise reused across the layers of the sample.
///
/// In [`WorkloadMode::Synthetic`] each layer's input spike map is sampled
/// from the firing profile (the paper's single-shot evaluation). In
/// [`WorkloadMode::Temporal`] the backend runs a real T-timestep
/// inference: the input image is encoded per step, LIF membranes persist
/// in the scratch between steps ([`LayerScratch::begin_sample`] resets
/// them per sample), and the spikes layer N emits at step t *are* layer
/// N+1's compressed input at step t — per-step stream lengths, DMA
/// traffic and AER frames all reflect the emergent sparsity.
#[derive(Debug, Clone, Copy, Default)]
pub struct CycleLevelBackend;

impl ExecutionBackend for CycleLevelBackend {
    fn name(&self) -> &'static str {
        "cycle-level"
    }

    fn run_sample(&self, ctx: &SampleContext<'_>, sample: usize) -> Vec<LayerSample> {
        let mut out = Vec::with_capacity(ctx.network.len() * ctx.timesteps());
        self.run_sample_into(ctx, sample, &mut out);
        out
    }

    fn run_sample_into(&self, ctx: &SampleContext<'_>, sample: usize, out: &mut Vec<LayerSample>) {
        self.run_sample_with_scratch(ctx, sample, out, &mut LayerScratch::new());
    }

    fn run_sample_with_scratch(
        &self,
        ctx: &SampleContext<'_>,
        sample: usize,
        out: &mut Vec<LayerSample>,
        scratch: &mut LayerScratch,
    ) {
        match ctx.config.mode {
            WorkloadMode::Synthetic => self.run_synthetic(ctx, sample, out, scratch),
            WorkloadMode::Temporal { encoding, .. } => {
                self.run_temporal(ctx, sample, encoding, out, scratch)
            }
        }
    }
}

impl CycleLevelBackend {
    /// The paper's single-shot path: one profile-sampled evaluation.
    fn run_synthetic(
        &self,
        ctx: &SampleContext<'_>,
        sample: usize,
        out: &mut Vec<LayerSample>,
        scratch: &mut LayerScratch,
    ) {
        let generator = WorkloadGenerator::new(ctx.profile.clone(), ctx.config.seed);
        let workload = generator.generate(ctx.network, sample);
        let mut cluster = ClusterModel::new(ctx.cluster.clone(), ctx.cost.clone());
        out.reserve(ctx.network.len());

        for (idx, layer) in ctx.network.layers().iter().enumerate() {
            let input = match &layer.kind {
                LayerKind::Conv(_) if layer.encodes_input => LayerInput::Image(&workload.image),
                _ => LayerInput::Spikes(workload.spikes_for_layer(idx)),
            };
            let exec = ctx.executor.run_with_scratch(&mut cluster, layer, input, scratch);
            out.push(measure(ctx, &mut cluster, &layer.name, &exec));
        }
    }

    /// The temporal pipeline: T timesteps of real spike propagation with
    /// persistent membrane state pinned to this worker's scratch.
    fn run_temporal(
        &self,
        ctx: &SampleContext<'_>,
        sample: usize,
        encoding: spikestream_snn::TemporalEncoding,
        out: &mut Vec<LayerSample>,
        scratch: &mut LayerScratch,
    ) {
        let layers = ctx.network.layers();
        assert!(
            layers.first().is_some_and(|l| l.encodes_input),
            "the temporal pipeline requires a spike-encoding first layer \
             (the dense image is the only external input of a temporal run)"
        );

        let generator = WorkloadGenerator::new(ctx.profile.clone(), ctx.config.seed);
        let image = generator.generate_image(ctx.network, sample);
        // Per-(sample, step) deterministic encoder seed: temporal runs stay
        // bit-identical across worker/shard schedules. The domain constant
        // keeps this stream disjoint from the workload generator's
        // per-sample image RNG (which uses `seed ^ sample * phi` directly) —
        // otherwise step-0 rate coding would replay the very stream that
        // drew the pixel intensities it thresholds.
        const ENCODER_DOMAIN: u64 = 0x5DEE_CE66_D1CE_5EED;
        let encoder_seed =
            ctx.config.seed ^ (sample as u64).wrapping_mul(0x9e37_79b9) ^ ENCODER_DOMAIN;
        let encoder = TemporalEncoder::new(&image, encoding, encoder_seed);

        scratch.begin_sample(ctx.network);
        let mut cluster = ClusterModel::new(ctx.cluster.clone(), ctx.cost.clone());
        let timesteps = ctx.timesteps();
        out.reserve(ctx.network.len() * timesteps);

        let mut encoded = Tensor3::zeros(image.shape());
        for step in 0..timesteps {
            encoder.encode_step_into(step, &mut encoded);
            // The spikes the previous layer emitted this step, padded into
            // the next layer's expected input shape.
            let mut carry: Option<SpikeMap> = None;
            for (idx, layer) in layers.iter().enumerate() {
                let staged;
                let mut aer_frame = None;
                let input = if idx == 0 {
                    LayerInput::Image(&encoded)
                } else {
                    let prev = carry.take().expect("layer N feeds layer N+1");
                    staged = match &layer.kind {
                        LayerKind::Conv(c) if c.padding > 0 => pad_spikes(&prev, c.padding),
                        _ => prev,
                    };
                    if idx == 1 {
                        // One AER frame per timestep: the spike train the
                        // network's first spiking boundary would put on a
                        // neuromorphic interface, stamped with the step —
                        // this is what gives the event timestamps real
                        // semantics. Its size is that layer's reported AER
                        // footprint; deeper layers reuse the equivalent
                        // spike-count-derived value without materializing
                        // events.
                        let frame = AerFrame::from_spike_map(&staged, step as u16);
                        debug_assert!(frame.events().iter().all(|e| e.timestamp == step as u16));
                        aer_frame = Some(frame);
                    }
                    LayerInput::Spikes(&staged)
                };
                let (exec, output) =
                    ctx.executor.run_temporal_step(&mut cluster, layer, idx, input, scratch);
                let mut sample = measure(ctx, &mut cluster, &layer.name, &exec);
                if let Some(frame) = aer_frame {
                    debug_assert_eq!(frame.events().len() as u64, exec.input_spikes);
                    sample.aer_footprint_bytes = frame.footprint_bytes() as f64;
                }
                out.push(sample);
                carry = Some(output);
            }
        }
    }
}

/// Collect the finished layer phase into a [`LayerSample`].
fn measure(
    ctx: &SampleContext<'_>,
    cluster: &mut ClusterModel,
    name: &str,
    exec: &LayerExecution,
) -> LayerSample {
    let stats = cluster.finish_phase(name);
    let activity = Activity {
        cycles: stats.compute_cycles,
        int_instrs: stats.totals.int_instrs,
        flops: stats.totals.flops,
        dma_bytes: stats.dma_bytes_in + stats.dma_bytes_out,
        format: ctx.config.format,
    };
    LayerSample {
        cycles: stats.compute_cycles as f64,
        fpu_utilization: stats.fpu_utilization,
        ipc: stats.ipc,
        input_firing_rate: exec.input_rate,
        input_spikes: exec.input_spikes as f64,
        synops: exec.synops,
        energy_j: ctx.energy.energy_j(&activity),
        dma_bytes: (stats.dma_bytes_in + stats.dma_bytes_out) as f64,
        csr_footprint_bytes: exec.csr_footprint_bytes,
        aer_footprint_bytes: exec.aer_footprint_bytes,
    }
}
