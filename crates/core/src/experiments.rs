//! Experiment drivers that regenerate every figure of the paper.
//!
//! Each function returns plain data rows so that `spikestream figures`
//! (which renders them as text tables) and the integration tests consume
//! the same results. The mapping to the paper is documented per function;
//! how the experiments flow through the execution-backend layer is
//! described in ARCHITECTURE.md. Every driver compiles a
//! [`Plan`](crate::Plan) with [`Engine::compile`] and serves its full
//! batch through [`Plan::run`](crate::Plan::run), i.e. batch samples
//! execute in parallel on the analytic backend.

use neuro_accel_models::AcceleratorSpec;
use snitch_arch::fp::FpFormat;
use snitch_arch::CostModel;
use spikestream_kernels::KernelVariant;

use crate::engine::{Engine, InferenceConfig};
use crate::report::InferenceReport;

/// Default batch size of the paper's evaluation.
pub const PAPER_BATCH: usize = 128;

/// One row of Fig. 3a: per-layer ifmap memory footprint and firing rate.
#[derive(Debug, Clone, PartialEq)]
pub struct FootprintRow {
    /// Layer name.
    pub layer: String,
    /// Average input firing rate.
    pub firing_rate: f64,
    /// AER footprint in bytes.
    pub aer_bytes: f64,
    /// CSR-derived footprint in bytes.
    pub csr_bytes: f64,
}

impl FootprintRow {
    /// Footprint reduction of the CSR-derived format over AER.
    pub fn reduction(&self) -> f64 {
        if self.csr_bytes == 0.0 {
            0.0
        } else {
            self.aer_bytes / self.csr_bytes
        }
    }
}

/// One row of Fig. 3b: per-layer FPU utilization and IPC for both variants.
#[derive(Debug, Clone, PartialEq)]
pub struct UtilizationRow {
    /// Layer name.
    pub layer: String,
    /// Baseline FPU utilization.
    pub util_baseline: f64,
    /// SpikeStream FPU utilization.
    pub util_spikestream: f64,
    /// Baseline per-core IPC.
    pub ipc_baseline: f64,
    /// SpikeStream per-core IPC.
    pub ipc_spikestream: f64,
}

/// One row of Fig. 3c: per-layer speedups.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedupRow {
    /// Layer name.
    pub layer: String,
    /// SpikeStream FP16 speedup over the FP16 baseline.
    pub spikestream_fp16_over_baseline: f64,
    /// SpikeStream FP8 speedup over SpikeStream FP16.
    pub fp8_over_fp16: f64,
}

/// One row of Fig. 4: per-layer energy and power for the three kernels.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyRow {
    /// Layer name.
    pub layer: String,
    /// Baseline FP16 energy (mJ).
    pub energy_baseline_mj: f64,
    /// SpikeStream FP16 energy (mJ).
    pub energy_fp16_mj: f64,
    /// SpikeStream FP8 energy (mJ).
    pub energy_fp8_mj: f64,
    /// Baseline FP16 power (W).
    pub power_baseline_w: f64,
    /// SpikeStream FP16 power (W).
    pub power_fp16_w: f64,
    /// SpikeStream FP8 power (W).
    pub power_fp8_w: f64,
}

/// One row of Fig. 5: a platform's latency and energy on the 6th layer of
/// S-VGG11 over 500 timesteps.
#[derive(Debug, Clone, PartialEq)]
pub struct AcceleratorRow {
    /// Platform name.
    pub name: String,
    /// Latency in milliseconds (Fig. 5a).
    pub latency_ms: f64,
    /// Energy in millijoules (Fig. 5b).
    pub energy_mj: f64,
    /// Peak GSOP/s (right axis of Fig. 5a); 0 for this work.
    pub peak_gsop: f64,
    /// Technology node in nm (right axis of Fig. 5b).
    pub technology_nm: u32,
}

/// Headline end-to-end numbers quoted in the abstract and Section IV.
#[derive(Debug, Clone, PartialEq)]
pub struct HeadlineNumbers {
    /// SpikeStream FP16 speedup over the FP16 baseline.
    pub speedup_fp16: f64,
    /// SpikeStream FP8 speedup over the FP16 baseline.
    pub speedup_fp8: f64,
    /// Baseline average FPU utilization.
    pub utilization_baseline: f64,
    /// SpikeStream FP16 average FPU utilization.
    pub utilization_spikestream: f64,
    /// SpikeStream FP16 energy-efficiency gain over the baseline.
    pub energy_gain_fp16: f64,
    /// SpikeStream FP8 energy-efficiency gain over the baseline.
    pub energy_gain_fp8: f64,
}

/// One row of the optimization ablation (our addition, motivated by the
/// incremental presentation of Section III).
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// Configuration label.
    pub name: String,
    /// End-to-end runtime in cycles.
    pub cycles: f64,
    /// Average FPU utilization.
    pub utilization: f64,
}

fn config(variant: KernelVariant, format: FpFormat, batch: usize) -> InferenceConfig {
    InferenceConfig { batch, ..InferenceConfig::paper(variant, format) }
}

fn reports(batch: usize) -> (InferenceReport, InferenceReport, InferenceReport) {
    let engine = Engine::svgg11(42);
    let base16 = engine.compile(&config(KernelVariant::Baseline, FpFormat::Fp16, batch)).run();
    let ss16 = engine.compile(&config(KernelVariant::SpikeStream, FpFormat::Fp16, batch)).run();
    let ss8 = engine.compile(&config(KernelVariant::SpikeStream, FpFormat::Fp8, batch)).run();
    (base16, ss16, ss8)
}

/// Fig. 3a: average ifmap memory footprint (AER vs CSR-derived) and firing
/// activity across the S-VGG11 layers.
pub fn fig3a_footprint(batch: usize) -> Vec<FootprintRow> {
    let engine = Engine::svgg11(42);
    let report = engine.compile(&config(KernelVariant::SpikeStream, FpFormat::Fp16, batch)).run();
    report
        .layers
        .iter()
        .map(|l| FootprintRow {
            layer: l.name.clone(),
            firing_rate: l.input_firing_rate,
            aer_bytes: l.aer_footprint_bytes,
            csr_bytes: l.csr_footprint_bytes,
        })
        .collect()
}

/// Fig. 3b: average FPU utilization and per-core IPC of both code variants
/// in FP16 across the S-VGG11 layers.
pub fn fig3b_utilization(batch: usize) -> Vec<UtilizationRow> {
    let (base16, ss16, _) = reports(batch);
    base16
        .layers
        .iter()
        .zip(ss16.layers.iter())
        .map(|(b, s)| UtilizationRow {
            layer: b.name.clone(),
            util_baseline: b.fpu_utilization,
            util_spikestream: s.fpu_utilization,
            ipc_baseline: b.ipc,
            ipc_spikestream: s.ipc,
        })
        .collect()
}

/// Fig. 3c: average per-layer speedups (SpikeStream FP16 over the baseline,
/// and SpikeStream FP8 over SpikeStream FP16).
pub fn fig3c_speedup(batch: usize) -> Vec<SpeedupRow> {
    let (base16, ss16, ss8) = reports(batch);
    base16
        .layers
        .iter()
        .zip(ss16.layers.iter())
        .zip(ss8.layers.iter())
        .map(|((b, s16), s8)| SpeedupRow {
            layer: b.name.clone(),
            spikestream_fp16_over_baseline: b.cycles / s16.cycles.max(1.0),
            fp8_over_fp16: s16.cycles / s8.cycles.max(1.0),
        })
        .collect()
}

/// Fig. 4: average per-layer energy and power of the three kernels.
pub fn fig4_energy(batch: usize) -> Vec<EnergyRow> {
    let (base16, ss16, ss8) = reports(batch);
    base16
        .layers
        .iter()
        .zip(ss16.layers.iter())
        .zip(ss8.layers.iter())
        .map(|((b, s16), s8)| EnergyRow {
            layer: b.name.clone(),
            energy_baseline_mj: b.energy_j * 1e3,
            energy_fp16_mj: s16.energy_j * 1e3,
            energy_fp8_mj: s8.energy_j * 1e3,
            power_baseline_w: b.power_w,
            power_fp16_w: s16.power_w,
            power_fp8_w: s8.power_w,
        })
        .collect()
}

/// Fig. 5: latency (a) and energy (b) of the 6th S-VGG11 layer over
/// `timesteps` timesteps on the SoA neuromorphic accelerators and on this
/// work (baseline FP16, SpikeStream FP16, SpikeStream FP8).
pub fn fig5_accelerators(timesteps: u64, batch: usize) -> Vec<AcceleratorRow> {
    let (base16, ss16, ss8) = reports(batch);
    let layer = "conv6";
    let synops_per_ts = ss16.layer(layer).map(|l| l.synops).unwrap_or(0.0);
    let synops = (synops_per_ts * timesteps as f64) as u64;

    let mut rows: Vec<AcceleratorRow> = AcceleratorSpec::soa()
        .into_iter()
        .map(|spec| {
            let r = spec.run(synops);
            AcceleratorRow {
                name: r.name.clone(),
                latency_ms: r.latency_ms(),
                energy_mj: r.energy_mj(),
                peak_gsop: spec.peak_gsop,
                technology_nm: spec.technology_nm,
            }
        })
        .collect();

    let ours = |report: &InferenceReport, name: &str| {
        let l = report.layer(layer).expect("S-VGG11 has a conv6 layer");
        AcceleratorRow {
            name: name.to_string(),
            latency_ms: l.seconds * timesteps as f64 * 1e3,
            energy_mj: l.energy_j * timesteps as f64 * 1e3,
            peak_gsop: 0.0,
            technology_nm: 12,
        }
    };
    rows.push(ours(&base16, "Baseline FP16 (this work)"));
    rows.push(ours(&ss16, "SpikeStream FP16 (this work)"));
    rows.push(ours(&ss8, "SpikeStream FP8 (this work)"));
    rows
}

/// Headline end-to-end numbers (abstract / Section IV).
pub fn headline(batch: usize) -> HeadlineNumbers {
    let (base16, ss16, ss8) = reports(batch);
    HeadlineNumbers {
        speedup_fp16: ss16.speedup_over(&base16),
        speedup_fp8: ss8.speedup_over(&base16),
        utilization_baseline: base16.average_utilization(),
        utilization_spikestream: ss16.average_utilization(),
        energy_gain_fp16: ss16.energy_gain_over(&base16),
        energy_gain_fp8: ss8.energy_gain_over(&base16),
    }
}

/// Ablation over the incremental optimizations of Section III: the scalar
/// baseline, SpikeStream without shadow-register overlap, SpikeStream as
/// evaluated, and an idealized stream unit (one element per cycle, no
/// startup latency) that bounds the remaining headroom.
pub fn ablation(batch: usize) -> Vec<AblationRow> {
    let engine = Engine::svgg11(42);
    let mut rows = Vec::new();

    let run = |engine: &Engine, variant, format| {
        let r = engine.compile(&config(variant, format, batch)).run();
        (r.total_cycles(), r.average_utilization())
    };

    let (cycles, util) = run(&engine, KernelVariant::Baseline, FpFormat::Fp16);
    rows.push(AblationRow { name: "Baseline (TC+TP+DP+DB)".into(), cycles, utilization: util });

    // Without the shadow registers every stream reconfiguration waits for
    // the previous stream to drain: model it by charging the startup and
    // configuration serially, i.e. a much larger effective startup.
    let mut no_shadow = CostModel::default();
    no_shadow.stream_startup += 8;
    no_shadow.ssr_config_write += 2;
    let engine_ns = Engine::svgg11(42).with_cost_model(no_shadow);
    let (cycles, util) = run(&engine_ns, KernelVariant::SpikeStream, FpFormat::Fp16);
    rows.push(AblationRow {
        name: "SpikeStream w/o shadow regs".into(),
        cycles,
        utilization: util,
    });

    let (cycles, util) = run(&engine, KernelVariant::SpikeStream, FpFormat::Fp16);
    rows.push(AblationRow { name: "SpikeStream (SA)".into(), cycles, utilization: util });

    let ideal =
        CostModel { indirect_stream_interval: 1.0, stream_startup: 0, ..CostModel::default() };
    let engine_ideal = Engine::svgg11(42).with_cost_model(ideal);
    let (cycles, util) = run(&engine_ideal, KernelVariant::SpikeStream, FpFormat::Fp16);
    rows.push(AblationRow {
        name: "SpikeStream (ideal streams)".into(),
        cycles,
        utilization: util,
    });

    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    const BATCH: usize = 8;

    #[test]
    fn fig3a_csr_is_smaller_than_aer_on_spiking_layers() {
        let rows = fig3a_footprint(BATCH);
        assert_eq!(rows.len(), 8);
        for row in rows.iter().skip(1) {
            assert!(
                row.reduction() > 1.5,
                "{}: CSR should clearly beat AER, got {:.2}",
                row.layer,
                row.reduction()
            );
        }
        // Firing activity decreases with depth across the conv layers.
        assert!(rows[1].firing_rate > rows[5].firing_rate);
    }

    #[test]
    fn fig3b_spikestream_utilization_dominates_baseline() {
        let rows = fig3b_utilization(BATCH);
        for row in &rows {
            assert!(
                row.util_spikestream > row.util_baseline,
                "{}: {} vs {}",
                row.layer,
                row.util_spikestream,
                row.util_baseline
            );
        }
        // Sparse conv baseline sits around 10%.
        assert!(rows[2].util_baseline > 0.05 && rows[2].util_baseline < 0.16);
        // SpikeStream raises deep conv layers above 40%.
        assert!(rows[3].util_spikestream > 0.4);
    }

    #[test]
    fn fig3c_speedups_have_the_paper_shape() {
        let rows = fig3c_speedup(BATCH);
        // Deep conv layers gain more than the first (dense) layer.
        let first = rows[0].spikestream_fp16_over_baseline;
        let deep = rows[4].spikestream_fp16_over_baseline;
        assert!(deep > first, "deep {deep:.2} vs first {first:.2}");
        for row in &rows {
            assert!(row.spikestream_fp16_over_baseline > 1.0, "{}", row.layer);
            // FP8 halves the SIMD groups (up to ~2x); the tiny final
            // classifier has too few output channels to gain and even pays
            // slightly more spike-unpacking work per group.
            assert!(row.fp8_over_fp16 > 0.8 && row.fp8_over_fp16 < 2.1, "{}", row.layer);
        }
        // On the wide conv layers FP8 approaches (but does not reach) 2x.
        assert!(rows[4].fp8_over_fp16 > 1.4);
    }

    #[test]
    fn fig4_energy_gains_and_power_levels() {
        let rows = fig4_energy(BATCH);
        let total_base: f64 = rows.iter().map(|r| r.energy_baseline_mj).sum();
        let total_fp16: f64 = rows.iter().map(|r| r.energy_fp16_mj).sum();
        let total_fp8: f64 = rows.iter().map(|r| r.energy_fp8_mj).sum();
        assert!(total_fp16 < total_base);
        assert!(total_fp8 < total_fp16);
        // Power: streaming kernels draw more power than the baseline on the
        // sparse layers while finishing much earlier.
        assert!(rows[3].power_fp16_w > rows[3].power_baseline_w);
        // Conv layers dominate the total energy (paper: ~83%).
        let conv: f64 = rows.iter().take(6).map(|r| r.energy_baseline_mj).sum();
        assert!(conv / total_base > 0.7);
    }

    #[test]
    fn fig5_orders_platforms_as_in_the_paper() {
        let rows = fig5_accelerators(500, BATCH);
        let get = |name: &str| rows.iter().find(|r| r.name.contains(name)).unwrap();
        let lsm = get("LSMCore");
        let odin = get("ODIN");
        let fp8 = get("SpikeStream FP8");
        let base = get("Baseline FP16");
        // LSMCore is the fastest accelerator, ODIN the slowest; our FP8
        // implementation lands between LSMCore and Loihi, and the baseline
        // is the slowest of our variants.
        assert!(lsm.latency_ms < fp8.latency_ms);
        assert!(fp8.latency_ms < get("Loihi").latency_ms);
        assert!(odin.latency_ms > get("Loihi").latency_ms);
        assert!(base.latency_ms > fp8.latency_ms * 4.0);
        // Energy: our FP16/FP8 beat LSMCore, the most efficient SoA chip.
        assert!(fp8.energy_mj < lsm.energy_mj);
        assert!(get("SpikeStream FP16").energy_mj < lsm.energy_mj);
    }

    #[test]
    fn headline_numbers_are_in_the_paper_ballpark() {
        let h = headline(BATCH);
        assert!(h.speedup_fp16 > 3.5 && h.speedup_fp16 < 8.0, "{}", h.speedup_fp16);
        assert!(h.speedup_fp8 > h.speedup_fp16);
        assert!(h.utilization_baseline < 0.18);
        assert!(h.utilization_spikestream > 0.4);
        assert!(h.energy_gain_fp16 > 1.5);
        assert!(h.energy_gain_fp8 > h.energy_gain_fp16);
    }

    #[test]
    fn ablation_orders_configurations() {
        let rows = ablation(4);
        assert_eq!(rows.len(), 4);
        let cycles: Vec<f64> = rows.iter().map(|r| r.cycles).collect();
        // Baseline slowest, ideal streams fastest.
        assert!(cycles[0] > cycles[2]);
        assert!(cycles[1] >= cycles[2]);
        assert!(cycles[3] <= cycles[2]);
    }
}
