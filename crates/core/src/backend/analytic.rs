//! The analytic backend: symbolic cost integration over the kernel IR.
//!
//! Every layer is lowered by the *same emitters* the cycle-level backend
//! uses — just symbolically, from the sample's expected firing rates
//! instead of a materialized spike workload — and the resulting
//! [`StreamProgram`](spikestream_ir::StreamProgram) is priced by the
//! [`CostIntegrator`]. There is no second copy of the kernel loop math
//! anywhere: on one exact program, analytic and cycle-level agree by
//! construction, and the `ir_equivalence` property tests pin the
//! integrator against the interpreter. A symbolic program prices the
//! *expected* workload (every kernel tap sees `channels × rate` active
//! inputs), so its per-layer cycles differ from a cycle-level run of the
//! realized spikes.

use spikestream_energy::Activity;
use spikestream_ir::ServedCost;
use spikestream_kernels::LayerScratch;
use spikestream_snn::compress::INDEX_BYTES;
use spikestream_snn::{AerEvent, Layer, LayerKind};

use super::{ExecutionBackend, LayerSample, SampleContext};

/// Symbolic layer-timing backend (fast; used for full-batch figure runs).
/// Layer runtimes come from integrating the cost model over the same
/// stream programs the cycle-level backend interprets; spike counts and
/// footprints are the expected values implied by each sample's jittered
/// firing rate. In temporal mode the backend integrates one program per
/// `(timestep, layer)` from the temporal sparsity model's expected
/// per-step rates — the per-step programs carry the same membrane
/// load/store DMA phases and sparsity-scaled stream lengths the
/// cycle-level backend interprets from real spikes.
#[derive(Debug, Clone, Copy, Default)]
pub struct AnalyticBackend;

impl ExecutionBackend for AnalyticBackend {
    fn name(&self) -> &'static str {
        "analytic"
    }

    fn run_sample_with_scratch(
        &self,
        ctx: &SampleContext<'_>,
        sample: usize,
        out: &mut Vec<LayerSample>,
        _scratch: &mut LayerScratch,
    ) {
        // The integrator and executor are context-owned (hoisted into the
        // plan): evaluating a sample clones neither the cluster
        // configuration nor the cost model.
        let integrator = ctx.integrator;
        let executor = ctx.executor;
        let layers = ctx.network.layers();
        let Some(last) = layers.len().checked_sub(1) else { return };
        let timesteps = ctx.timesteps();
        out.reserve(layers.len() * timesteps);
        for step in 0..timesteps {
            // Each layer's rate is drawn once per step: a layer's output
            // rate is the next layer's input rate, and the last layer's
            // output rate is its own input rate.
            let mut input_rate = ctx.sample_rate_at(0, sample, step);
            for (idx, layer) in layers.iter().enumerate() {
                let output_rate =
                    if idx < last { ctx.sample_rate_at(idx + 1, sample, step) } else { input_rate };
                // Plan-driven runs price through the plan's cost memo, so a
                // realized sparsity bucket is lowered and integrated once
                // and hit afterwards. A bare context lowers inline; both
                // paths run the exact same emitter + integrator, so the
                // samples are bit-identical.
                let cost = match ctx.programs {
                    Some(cache) => executor.bind_symbolic(
                        cache,
                        integrator,
                        idx,
                        layer,
                        input_rate,
                        output_rate,
                    ),
                    None => ServedCost::from(&integrator.integrate(&executor.lower_symbolic(
                        ctx.cluster,
                        layer,
                        input_rate,
                        output_rate,
                    ))),
                };
                out.push(layer_sample(ctx, layer, input_rate, &cost));
                input_rate = output_rate;
            }
        }
    }
}

fn layer_sample(
    ctx: &SampleContext<'_>,
    layer: &Layer,
    input_rate: f64,
    cost: &ServedCost,
) -> LayerSample {
    let activity = Activity {
        cycles: cost.compute_cycles,
        int_instrs: cost.int_instrs.round() as u64,
        flops: cost.flops.round() as u64,
        dma_bytes: cost.dma_bytes,
        format: ctx.config.format,
    };
    let energy_j = ctx.energy.energy_j(&activity);
    // The dense-encoding special case keys on `encodes_input`, exactly like
    // the lowering dispatch and the cycle backend's executor.
    let encodes = layer.encodes_input;
    let kind = &layer.kind;
    let (csr, aer) = footprints(kind, encodes, input_rate);
    let rate = if encodes { input_rate } else { input_rate.clamp(0.0, 1.0) };
    LayerSample {
        cycles: cost.compute_cycles as f64,
        fpu_utilization: cost.fpu_utilization,
        ipc: cost.ipc,
        input_firing_rate: rate,
        input_spikes: expected_input_spikes(kind, encodes, input_rate),
        synops: expected_synops(kind, encodes, input_rate),
        energy_j,
        dma_bytes: cost.dma_bytes as f64,
        csr_footprint_bytes: csr,
        aer_footprint_bytes: aer,
    }
}

/// Expected synaptic operations under the sample's firing rate (the dense
/// encoding layer consumes every pixel).
fn expected_synops(kind: &LayerKind, encodes: bool, rate: f64) -> f64 {
    let rate = if encodes { 1.0 } else { rate.clamp(0.0, 1.0) };
    kind.dense_synops() as f64 * rate
}

/// Expected ifmap footprints under the sample's firing rate, matching the
/// formats of Fig. 3a (CSR-derived vs AER).
fn footprints(kind: &LayerKind, encodes: bool, rate: f64) -> (f64, f64) {
    let rate = if encodes { 1.0 } else { rate };
    match kind {
        LayerKind::Conv(spec) => {
            let padded = spec.padded_input();
            let spikes = padded.len() as f64 * rate;
            let csr =
                spikes * INDEX_BYTES as f64 + ((padded.h * padded.w + 1) * INDEX_BYTES) as f64;
            let aer = spikes * AerEvent::BYTES as f64;
            (csr, aer)
        }
        LayerKind::AvgPool(spec) => {
            let spikes = spec.input.len() as f64 * rate;
            let csr = spikes * INDEX_BYTES as f64
                + ((spec.input.h * spec.input.w + 1) * INDEX_BYTES) as f64;
            let aer = spikes * AerEvent::BYTES as f64;
            (csr, aer)
        }
        LayerKind::Linear(spec) => {
            let spikes = spec.in_features as f64 * rate;
            (spikes * INDEX_BYTES as f64 + 4.0, spikes * AerEvent::BYTES as f64)
        }
    }
}

/// Expected input spike count under the sample's firing rate. Mirrors the
/// workload generator: the encoding layer consumes every (dense) pixel, the
/// silent padded border of conv inputs carries no spikes, and pooling
/// inputs have no border.
fn expected_input_spikes(kind: &LayerKind, encodes: bool, rate: f64) -> f64 {
    match kind {
        LayerKind::Conv(spec) => {
            let padded = spec.padded_input();
            if encodes {
                return padded.len() as f64;
            }
            let interior = if padded.h > 2 * spec.padding {
                (padded.h - 2 * spec.padding) * (padded.w - 2 * spec.padding) * padded.c
            } else {
                padded.len()
            };
            interior as f64 * rate
        }
        LayerKind::AvgPool(spec) => spec.input.len() as f64 * rate,
        LayerKind::Linear(spec) => spec.in_features as f64 * rate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, FpFormat, InferenceConfig, KernelVariant};

    #[test]
    fn cached_and_bare_contexts_price_samples_identically() {
        let paper = InferenceConfig::paper(KernelVariant::SpikeStream, FpFormat::Fp16);
        for config in [paper, paper.temporal_steps(3)] {
            let plan = Engine::svgg11(3).compiler().compile(config).unwrap();
            let cached = plan.context();
            let bare = SampleContext { programs: None, ..cached };
            let samples = [0, 1, 7, 1000];
            let lookups = (samples.len() * plan.network().len() * config.timesteps()) as u64;
            for pass in 0..2 {
                let before = plan.programs().counters();
                for sample in samples {
                    assert_eq!(
                        AnalyticBackend.run_sample(&cached, sample),
                        AnalyticBackend.run_sample(&bare, sample),
                        "T={} sample {sample} pass {pass}",
                        config.timesteps()
                    );
                }
                let after = plan.programs().counters();
                assert_eq!(
                    after.lookups() - before.lookups(),
                    lookups,
                    "only the cached side looks up"
                );
                if pass == 1 {
                    assert_eq!(after.hits - before.hits, lookups, "the second pass runs on hits");
                }
            }
        }
    }
}
