//! Inference reports: per-layer and end-to-end statistics.
//!
//! Since the serving redesign the monolithic [`InferenceReport`] is a
//! *fold* over the slot-major buffer a [`Session`](crate::Session)
//! serves into: the crate-internal `InferenceReport::fold_batch`
//! collapses that flat sample-major measurement buffer into
//! batch-averaged layer (and, for temporal runs, per-timestep)
//! statistics. Every execution path — sessions, one-shot plans, the
//! gateway's per-request demux — funnels through this one fold, which is
//! what keeps their reports bit-identical.

use snitch_arch::fp::FpFormat;
use spikestream_kernels::KernelVariant;
use spikestream_snn::Network;

use crate::backend::LayerSample;
use crate::engine::InferenceConfig;

/// Statistics of one network layer, averaged over the evaluated batch.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerReport {
    /// Layer name (e.g. `conv3`).
    pub name: String,
    /// Mean runtime in cycles.
    pub cycles: f64,
    /// Standard deviation of the runtime across the batch.
    pub cycles_std: f64,
    /// Mean runtime in seconds at the cluster clock.
    pub seconds: f64,
    /// Mean FPU utilization (0..=1).
    pub fpu_utilization: f64,
    /// Mean instructions per cycle per core.
    pub ipc: f64,
    /// Mean firing rate of the layer's input.
    pub input_firing_rate: f64,
    /// Mean input spike count (dense pixels for the encoding layer).
    pub input_spikes: f64,
    /// Mean synaptic operations executed.
    pub synops: f64,
    /// Mean energy in joules.
    pub energy_j: f64,
    /// Mean power in watts.
    pub power_w: f64,
    /// Mean compressed (CSR-derived) ifmap footprint in bytes.
    pub csr_footprint_bytes: f64,
    /// Mean AER ifmap footprint in bytes.
    pub aer_footprint_bytes: f64,
}

/// Batch-averaged statistics of one timestep of a temporal run: the
/// emergent per-step activity the synthetic single-shot path cannot show.
#[derive(Debug, Clone, PartialEq)]
pub struct TimestepReport {
    /// Timestep index (0-based).
    pub step: usize,
    /// Cycles this step cost, totalled across all layers and averaged over
    /// the batch.
    pub cycles: f64,
    /// DMA payload bytes (in + out) this step moved — including the
    /// per-step membrane load/store traffic — totalled across all layers
    /// and averaged over the batch.
    pub dma_bytes: f64,
    /// Energy in joules this step consumed, totalled across all layers and
    /// averaged over the batch.
    pub energy_j: f64,
    /// Mean input firing rate of each layer at this step, in layer order.
    pub firing_rates: Vec<f64>,
}

/// Occupancy statistics of one cluster shard in a sharded batch run.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardUtilization {
    /// Shard id (position in the fleet).
    pub shard: usize,
    /// Number of batch samples this shard executed.
    pub samples: u64,
    /// Simulated cycles this shard spent busy.
    pub busy_cycles: f64,
    /// Fraction of the batch makespan this shard spent busy (0..=1).
    pub utilization: f64,
}

/// Fleet-level statistics of a sharded request
/// ([`Request::with_shards`](crate::Request::with_shards)).
///
/// The shard assignment is a deterministic function of the per-sample
/// cycle counts (least-loaded stealing in simulated time), so these
/// statistics are as reproducible as the aggregate report itself.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSummary {
    /// Per-shard occupancy, indexed by shard id.
    pub shards: Vec<ShardUtilization>,
    /// Simulated wall time of the batch: the busiest shard's cycles.
    pub makespan_cycles: f64,
    /// Load imbalance: busiest shard over the mean (1.0 = perfectly
    /// balanced).
    pub imbalance: f64,
    /// Effective parallel speedup over a single shard running the whole
    /// stream (total busy cycles / makespan).
    pub batch_speedup: f64,
}

/// End-to-end inference report for one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceReport {
    /// Network name.
    pub network: String,
    /// Code variant that produced the report.
    pub variant: KernelVariant,
    /// Storage format that produced the report.
    pub format: FpFormat,
    /// Number of batch samples averaged.
    pub batch: usize,
    /// Per-layer statistics in execution order. In temporal runs each
    /// layer's extensive quantities (cycles, energy, spikes, synops) cover
    /// the whole T-step inference of a sample.
    pub layers: Vec<LayerReport>,
    /// Per-timestep breakdown of a temporal run (firing-rate trajectory,
    /// per-step cycles, DMA and energy); `None` for synthetic single-shot
    /// runs, whose reports therefore stay bit-identical to the historical
    /// format.
    pub timesteps: Option<Vec<TimestepReport>>,
    /// Per-shard fleet statistics; `None` for unsharded (sequential or
    /// plain parallel) runs. The aggregate layer statistics above are
    /// independent of the sharding, so stripping this field from a sharded
    /// report yields the bit-identical sequential report.
    pub shards: Option<ShardSummary>,
}

impl InferenceReport {
    /// Total mean runtime in cycles over all layers.
    pub fn total_cycles(&self) -> f64 {
        self.layers.iter().map(|l| l.cycles).sum()
    }

    /// Total mean runtime in seconds.
    pub fn total_seconds(&self) -> f64 {
        self.layers.iter().map(|l| l.seconds).sum()
    }

    /// Total mean energy in joules.
    pub fn total_energy_j(&self) -> f64 {
        self.layers.iter().map(|l| l.energy_j).sum()
    }

    /// Runtime-weighted average FPU utilization.
    pub fn average_utilization(&self) -> f64 {
        let total: f64 = self.total_cycles();
        if total == 0.0 {
            return 0.0;
        }
        self.layers.iter().map(|l| l.fpu_utilization * l.cycles).sum::<f64>() / total
    }

    /// End-to-end speedup of this report relative to `other`.
    pub fn speedup_over(&self, other: &InferenceReport) -> f64 {
        other.total_cycles() / self.total_cycles().max(1.0)
    }

    /// End-to-end energy-efficiency gain of this report relative to `other`.
    pub fn energy_gain_over(&self, other: &InferenceReport) -> f64 {
        other.total_energy_j() / self.total_energy_j().max(f64::MIN_POSITIVE)
    }

    /// Look up a layer report by name.
    pub fn layer(&self, name: &str) -> Option<&LayerReport> {
        self.layers.iter().find(|l| l.name == name)
    }

    /// Deterministic JSON rendering of the report.
    ///
    /// Field order is fixed and floats use Rust's shortest round-trip
    /// formatting, so two equal reports always produce byte-identical JSON
    /// — the property the engine's parallel-vs-sequential tests assert.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.layers.len() * 384);
        out.push_str("{\"network\":");
        json_string(&mut out, &self.network);
        out.push_str(",\"variant\":");
        json_string(&mut out, &self.variant.to_string());
        out.push_str(",\"format\":");
        json_string(&mut out, &self.format.to_string());
        out.push_str(&format!(",\"batch\":{}", self.batch));
        out.push_str(",\"layers\":[");
        for (i, layer) in self.layers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            layer.write_json(&mut out);
        }
        out.push(']');
        if let Some(steps) = &self.timesteps {
            out.push_str(",\"timesteps\":[");
            for (i, step) in steps.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                step.write_json(&mut out);
            }
            out.push(']');
        }
        if let Some(shards) = &self.shards {
            out.push_str(",\"shards\":");
            shards.write_json(&mut out);
        }
        out.push('}');
        out
    }

    /// The same report without the fleet statistics. A sharded report
    /// stripped this way is bit-identical (including
    /// [`to_json`](InferenceReport::to_json)) to the sequential report of
    /// the same scenario.
    pub fn without_shard_stats(mut self) -> Self {
        self.shards = None;
        self
    }

    /// Fold a batch of per-sample measurements into the averaged report.
    /// `flat` holds sample-major measurements; within one sample the
    /// layout is step-major (timestep `t`, layer `l` at
    /// `t * layer_count + l` — one step for synthetic runs). This is the
    /// layout shared by sequential sessions, the parallel worker fan-out
    /// and the sharded scheduler, so the fold is independent of how the
    /// stream was produced.
    ///
    /// Synthetic runs take the historical path untouched, so their reports
    /// stay bit-identical. Temporal runs first fold each sample's `T x L`
    /// block into per-layer totals (cycles/energy/spikes/synops summed
    /// over steps, rates and footprints averaged, utilization/IPC
    /// cycle-weighted) and additionally derive the per-timestep breakdown.
    ///
    /// # Panics
    ///
    /// Panics unless `flat` holds exactly one [`LayerSample`] per layer
    /// per timestep per sample.
    pub(crate) fn fold_batch(
        network: &Network,
        clock_hz: f64,
        config: &InferenceConfig,
        flat: &[LayerSample],
        batch: usize,
    ) -> InferenceReport {
        let layer_count = network.len();
        let timesteps = config.timesteps();
        let stride = layer_count * timesteps;
        assert_eq!(
            flat.len(),
            batch * stride,
            "backend must return exactly one LayerSample per layer per timestep per sample"
        );

        let (per_layer, timestep_reports): (std::borrow::Cow<'_, [LayerSample]>, _) =
            if config.mode.is_temporal() {
                let folded = fold_temporal_samples(flat, batch, timesteps, layer_count);
                let steps = summarize_timesteps(flat, batch, timesteps, layer_count);
                (folded.into(), Some(steps))
            } else {
                // The synthetic path stays zero-copy: one step per sample
                // means the flat buffer already is the per-layer view.
                (flat.into(), None)
            };

        let layers = network
            .layers()
            .iter()
            .enumerate()
            .map(|(idx, layer)| {
                // An empty batch (a manually built empty sample range)
                // folds to all-zero rows rather than slicing out of range.
                let samples = per_layer.get(idx..).unwrap_or(&[]).iter().step_by(layer_count);
                summarize_layer(layer.name.clone(), clock_hz, samples)
            })
            .collect();

        InferenceReport {
            network: network.name.clone(),
            variant: config.variant,
            format: config.format,
            batch,
            layers,
            timesteps: timestep_reports,
            shards: None,
        }
    }
}

/// Average one layer's per-sample measurements, read in place from the
/// batch's buffer, into its report row.
fn summarize_layer<'a>(
    name: String,
    clock_hz: f64,
    samples: impl ExactSizeIterator<Item = &'a LayerSample> + Clone,
) -> LayerReport {
    let n = samples.len().max(1) as f64;
    let mean = |f: fn(&LayerSample) -> f64| samples.clone().map(f).sum::<f64>() / n;
    let cycles_mean = mean(|s| s.cycles);
    let cycles_var = samples.clone().map(|s| (s.cycles - cycles_mean).powi(2)).sum::<f64>() / n;
    let seconds = cycles_mean / clock_hz;
    let energy = mean(|s| s.energy_j);
    LayerReport {
        name,
        cycles: cycles_mean,
        cycles_std: cycles_var.sqrt(),
        seconds,
        fpu_utilization: mean(|s| s.fpu_utilization),
        ipc: mean(|s| s.ipc),
        input_firing_rate: mean(|s| s.input_firing_rate),
        input_spikes: mean(|s| s.input_spikes),
        synops: mean(|s| s.synops),
        energy_j: energy,
        power_w: if seconds > 0.0 { energy / seconds } else { 0.0 },
        csr_footprint_bytes: mean(|s| s.csr_footprint_bytes),
        aer_footprint_bytes: mean(|s| s.aer_footprint_bytes),
    }
}

/// Fold each sample's `T x L` temporal block into one [`LayerSample`] per
/// layer: extensive quantities (cycles, energy, spikes, synops, DMA) sum
/// over the steps, rates and footprints average, and utilization/IPC are
/// cycle-weighted means — so a layer's folded sample describes the whole
/// T-step inference of that sample.
fn fold_temporal_samples(
    flat: &[LayerSample],
    batch: usize,
    timesteps: usize,
    layer_count: usize,
) -> Vec<LayerSample> {
    let stride = timesteps * layer_count;
    let mut folded = Vec::with_capacity(batch * layer_count);
    for sample in 0..batch {
        for layer in 0..layer_count {
            let mut acc = LayerSample::default();
            for step in 0..timesteps {
                let s = &flat[sample * stride + step * layer_count + layer];
                acc.cycles += s.cycles;
                acc.energy_j += s.energy_j;
                acc.input_spikes += s.input_spikes;
                acc.synops += s.synops;
                acc.dma_bytes += s.dma_bytes;
                acc.fpu_utilization += s.fpu_utilization * s.cycles;
                acc.ipc += s.ipc * s.cycles;
                acc.input_firing_rate += s.input_firing_rate;
                acc.csr_footprint_bytes += s.csr_footprint_bytes;
                acc.aer_footprint_bytes += s.aer_footprint_bytes;
            }
            let t = timesteps as f64;
            if acc.cycles > 0.0 {
                acc.fpu_utilization /= acc.cycles;
                acc.ipc /= acc.cycles;
            }
            acc.input_firing_rate /= t;
            acc.csr_footprint_bytes /= t;
            acc.aer_footprint_bytes /= t;
            folded.push(acc);
        }
    }
    folded
}

/// Batch-averaged per-timestep breakdown of a temporal run: for every step,
/// the total cycles and DMA bytes of that step plus the per-layer input
/// firing rates — the emergent sparsity trajectory Fig. 3a only shows in
/// steady state.
fn summarize_timesteps(
    flat: &[LayerSample],
    batch: usize,
    timesteps: usize,
    layer_count: usize,
) -> Vec<TimestepReport> {
    let stride = timesteps * layer_count;
    let n = batch.max(1) as f64;
    (0..timesteps)
        .map(|step| {
            let mut cycles = 0.0;
            let mut dma_bytes = 0.0;
            let mut energy_j = 0.0;
            let mut firing_rates = vec![0.0f64; layer_count];
            for sample in 0..batch {
                for layer in 0..layer_count {
                    let s = &flat[sample * stride + step * layer_count + layer];
                    cycles += s.cycles;
                    dma_bytes += s.dma_bytes;
                    energy_j += s.energy_j;
                    firing_rates[layer] += s.input_firing_rate;
                }
            }
            firing_rates.iter_mut().for_each(|r| *r /= n);
            TimestepReport {
                step,
                cycles: cycles / n,
                dma_bytes: dma_bytes / n,
                energy_j: energy_j / n,
                firing_rates,
            }
        })
        .collect()
}

impl TimestepReport {
    fn write_json(&self, out: &mut String) {
        out.push_str(&format!("{{\"step\":{}", self.step));
        out.push_str(",\"cycles\":");
        json_f64(out, self.cycles);
        out.push_str(",\"dma_bytes\":");
        json_f64(out, self.dma_bytes);
        out.push_str(",\"energy_j\":");
        json_f64(out, self.energy_j);
        out.push_str(",\"firing_rates\":[");
        for (i, rate) in self.firing_rates.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json_f64(out, *rate);
        }
        out.push_str("]}");
    }
}

impl ShardSummary {
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"makespan_cycles\":");
        json_f64(out, self.makespan_cycles);
        out.push_str(",\"imbalance\":");
        json_f64(out, self.imbalance);
        out.push_str(",\"batch_speedup\":");
        json_f64(out, self.batch_speedup);
        out.push_str(",\"per_shard\":[");
        for (i, shard) in self.shards.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"shard\":{},\"samples\":{}", shard.shard, shard.samples));
            out.push_str(",\"busy_cycles\":");
            json_f64(out, shard.busy_cycles);
            out.push_str(",\"utilization\":");
            json_f64(out, shard.utilization);
            out.push('}');
        }
        out.push_str("]}");
    }
}

impl LayerReport {
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"name\":");
        json_string(out, &self.name);
        let fields: [(&str, f64); 12] = [
            ("cycles", self.cycles),
            ("cycles_std", self.cycles_std),
            ("seconds", self.seconds),
            ("fpu_utilization", self.fpu_utilization),
            ("ipc", self.ipc),
            ("input_firing_rate", self.input_firing_rate),
            ("input_spikes", self.input_spikes),
            ("synops", self.synops),
            ("energy_j", self.energy_j),
            ("power_w", self.power_w),
            ("csr_footprint_bytes", self.csr_footprint_bytes),
            ("aer_footprint_bytes", self.aer_footprint_bytes),
        ];
        for (name, value) in fields {
            out.push_str(&format!(",\"{name}\":"));
            json_f64(out, value);
        }
        out.push('}');
    }
}

/// Append a JSON string literal with the escapes JSON requires.
fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append a finite `f64` as JSON (non-finite values become `null`).
fn json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let formatted = format!("{v}");
        out.push_str(&formatted);
        // `{}` omits the decimal point for integral floats; keep every value
        // unambiguously a float so the JSON round-trips type-stably.
        if !formatted.contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    } else {
        out.push_str("null");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer(name: &str, cycles: f64, util: f64, energy: f64) -> LayerReport {
        LayerReport {
            name: name.into(),
            cycles,
            cycles_std: 0.0,
            seconds: cycles / 1e9,
            fpu_utilization: util,
            ipc: 1.0,
            input_firing_rate: 0.2,
            input_spikes: 500.0,
            synops: 1000.0,
            energy_j: energy,
            power_w: energy / (cycles / 1e9),
            csr_footprint_bytes: 100.0,
            aer_footprint_bytes: 300.0,
        }
    }

    fn report(cycles: f64, energy: f64) -> InferenceReport {
        InferenceReport {
            network: "test".into(),
            variant: KernelVariant::Baseline,
            format: FpFormat::Fp16,
            batch: 1,
            layers: vec![layer("a", cycles, 0.1, energy), layer("b", cycles, 0.5, energy)],
            timesteps: None,
            shards: None,
        }
    }

    #[test]
    fn totals_sum_over_layers() {
        let r = report(1000.0, 1e-6);
        assert_eq!(r.total_cycles(), 2000.0);
        assert!((r.total_energy_j() - 2e-6).abs() < 1e-12);
        assert!((r.average_utilization() - 0.3).abs() < 1e-9);
    }

    #[test]
    fn speedup_and_energy_gain_are_relative() {
        let slow = report(10_000.0, 1e-5);
        let fast = report(2_000.0, 4e-6);
        assert!((fast.speedup_over(&slow) - 5.0).abs() < 1e-9);
        assert!((fast.energy_gain_over(&slow) - 2.5).abs() < 1e-9);
    }

    #[test]
    fn layer_lookup_by_name() {
        let r = report(1.0, 1.0);
        assert!(r.layer("a").is_some());
        assert!(r.layer("zzz").is_none());
    }

    #[test]
    fn json_is_deterministic_and_well_formed() {
        let r = report(1000.0, 1e-6);
        let json = r.to_json();
        assert_eq!(json, r.clone().to_json());
        assert!(json.starts_with("{\"network\":\"test\""));
        assert!(json.contains("\"variant\":\"Baseline\""));
        assert!(json.contains("\"batch\":1"));
        assert!(json.contains("\"cycles\":1000.0"));
        assert!(json.contains("\"input_spikes\":500.0"));
        assert_eq!(json.matches("{\"name\":").count(), 2);
        // Balanced braces/brackets (flat sanity check, no parser available).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn shard_summary_renders_and_strips_deterministically() {
        let plain = report(1000.0, 1e-6);
        let mut sharded = plain.clone();
        sharded.shards = Some(ShardSummary {
            shards: vec![
                ShardUtilization { shard: 0, samples: 3, busy_cycles: 3000.0, utilization: 1.0 },
                ShardUtilization {
                    shard: 1,
                    samples: 2,
                    busy_cycles: 2000.0,
                    utilization: 2.0 / 3.0,
                },
            ],
            makespan_cycles: 3000.0,
            imbalance: 1.2,
            batch_speedup: 5.0 / 3.0,
        });
        let json = sharded.to_json();
        assert!(json.contains("\"shards\":{\"makespan_cycles\":3000.0"));
        assert!(json.contains("\"per_shard\":[{\"shard\":0,\"samples\":3"));
        assert!(json.contains("\"imbalance\":1.2"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        // Stripping the fleet stats restores the unsharded report exactly.
        assert_eq!(sharded.clone().without_shard_stats(), plain);
        assert_eq!(sharded.without_shard_stats().to_json(), plain.to_json());
        assert!(!plain.to_json().contains("shards"));
    }

    #[test]
    fn timestep_breakdown_renders_only_for_temporal_reports() {
        let plain = report(1000.0, 1e-6);
        assert!(!plain.to_json().contains("timesteps"));

        let mut temporal = plain.clone();
        temporal.timesteps = Some(vec![
            TimestepReport {
                step: 0,
                cycles: 400.0,
                dma_bytes: 128.0,
                energy_j: 4e-7,
                firing_rates: vec![1.0, 0.1],
            },
            TimestepReport {
                step: 1,
                cycles: 600.0,
                dma_bytes: 160.0,
                energy_j: 6e-7,
                firing_rates: vec![1.0, 0.2],
            },
        ]);
        let json = temporal.to_json();
        assert!(json.contains("\"timesteps\":[{\"step\":0,\"cycles\":400.0"));
        assert!(json.contains("\"firing_rates\":[1.0,0.2]"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn json_escapes_strings_and_integral_floats() {
        let mut r = report(2.0, 1.0);
        r.network = "a\"b\\c\nd".into();
        let json = r.to_json();
        assert!(json.contains("\"network\":\"a\\\"b\\\\c\\nd\""));
        // 2.0 formats as "2" via `{}`; the serializer restores the ".0".
        assert!(json.contains("\"cycles\":2.0"));
    }
}
