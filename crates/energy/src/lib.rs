//! Activity-based energy and power model of the Snitch cluster.
//!
//! The paper obtains energy numbers from post-layout gate-level simulation
//! of the GF 12LP+ implementation at 1 GHz / 0.8 V. This crate replaces
//! that flow with an activity-based analytical model: every cycle of static
//! operation, every integer instruction, every FLOP (per format) and every
//! DMA byte carries an energy coefficient. The default coefficients are
//! calibrated so that the three per-layer power levels reported in the
//! paper are reproduced (≈0.13 W for the FP16 baseline, ≈0.23 W for
//! SpikeStream FP16 and ≈0.22 W for SpikeStream FP8 on the sparse layers),
//! which makes the energy ratios of Fig. 4 / Fig. 5b meaningful.

use snitch_arch::fp::FpFormat;
use snitch_arch::ClusterConfig;

/// Activity counters of one layer or kernel invocation, in whatever units
/// the timing model provides (the cluster simulator's `PhaseStats` and the
/// IR cost integration's `ProgramCost` both convert into this).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Activity {
    /// Runtime in cycles.
    pub cycles: u64,
    /// Integer instructions executed (per cluster).
    pub int_instrs: u64,
    /// Scalar FLOPs executed (per cluster).
    pub flops: u64,
    /// Bytes moved by the DMA engine.
    pub dma_bytes: u64,
    /// Storage format of the FP datapath activity.
    pub format: FpFormat,
}

/// Energy coefficients of the cluster (picojoules).
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyModel {
    /// Static + clock-tree energy per core per cycle (pJ).
    pub static_pj_per_core_cycle: f64,
    /// Energy per integer instruction (pJ).
    pub int_instr_pj: f64,
    /// Energy per FP64 FLOP (pJ).
    pub flop64_pj: f64,
    /// Energy per FP32 FLOP (pJ).
    pub flop32_pj: f64,
    /// Energy per FP16 FLOP (pJ).
    pub flop16_pj: f64,
    /// Energy per FP8 FLOP (pJ). Narrow slices clock-gate the idle lanes,
    /// which is why FP8 consumes slightly less than FP16 at equal issue
    /// rate (Section IV-B).
    pub flop8_pj: f64,
    /// Energy per byte moved by the DMA engine (pJ).
    pub dma_byte_pj: f64,
    /// Number of worker cores contributing static power.
    pub cores: usize,
}

impl EnergyModel {
    /// Coefficients calibrated against the paper's reported kernel power.
    pub fn calibrated() -> Self {
        EnergyModel {
            static_pj_per_core_cycle: 9.0,
            int_instr_pj: 5.0,
            flop64_pj: 60.0,
            flop32_pj: 17.0,
            flop16_pj: 8.4,
            flop8_pj: 3.7,
            dma_byte_pj: 2.0,
            cores: ClusterConfig::default().worker_cores + 1,
        }
    }

    /// Energy per FLOP for a storage format (pJ).
    pub fn flop_pj(&self, format: FpFormat) -> f64 {
        match format {
            FpFormat::Fp64 => self.flop64_pj,
            FpFormat::Fp32 => self.flop32_pj,
            FpFormat::Fp16 => self.flop16_pj,
            FpFormat::Fp8 => self.flop8_pj,
        }
    }

    /// Total energy of an activity record, in joules.
    pub fn energy_j(&self, activity: &Activity) -> f64 {
        let static_e = activity.cycles as f64 * self.cores as f64 * self.static_pj_per_core_cycle;
        let int_e = activity.int_instrs as f64 * self.int_instr_pj;
        let fp_e = activity.flops as f64 * self.flop_pj(activity.format);
        let dma_e = activity.dma_bytes as f64 * self.dma_byte_pj;
        (static_e + int_e + fp_e + dma_e) * 1e-12
    }

    /// Average power of an activity record at the given clock, in watts.
    pub fn power_w(&self, activity: &Activity, clock_hz: f64) -> f64 {
        if activity.cycles == 0 {
            return 0.0;
        }
        let seconds = activity.cycles as f64 / clock_hz;
        self.energy_j(activity) / seconds
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self::calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Activity resembling one sparse S-VGG11 layer on the baseline kernel:
    /// the integer core is busy nearly every cycle while the FPU idles.
    fn baseline_like(cycles: u64) -> Activity {
        Activity {
            cycles,
            int_instrs: (cycles as f64 * 0.85 * 8.0) as u64,
            flops: (cycles as f64 * 0.095 * 8.0 * 4.0) as u64,
            dma_bytes: cycles / 10,
            format: FpFormat::Fp16,
        }
    }

    /// Activity resembling the same layer with SpikeStream: fewer integer
    /// instructions, much higher FPU activity, shorter runtime.
    fn spikestream_like(cycles: u64, format: FpFormat) -> Activity {
        Activity {
            cycles,
            int_instrs: (cycles as f64 * 0.35 * 8.0) as u64,
            flops: (cycles as f64 * 0.55 * 8.0 * format.simd_lanes() as f64) as u64,
            dma_bytes: cycles / 2,
            format,
        }
    }

    #[test]
    fn calibrated_power_levels_match_the_paper_regime() {
        let m = EnergyModel::calibrated();
        let clock = 1.0e9;
        let p_base = m.power_w(&baseline_like(1_000_000), clock);
        let p_fast16 = m.power_w(&spikestream_like(200_000, FpFormat::Fp16), clock);
        let p_fast8 = m.power_w(&spikestream_like(120_000, FpFormat::Fp8), clock);
        assert!((0.10..=0.18).contains(&p_base), "baseline power {p_base}");
        assert!((0.18..=0.30).contains(&p_fast16), "SpikeStream FP16 power {p_fast16}");
        assert!(p_fast8 < p_fast16 * 1.02, "FP8 should not consume more than FP16");
        assert!(p_fast16 > p_base, "streaming raises power but lowers energy");
    }

    #[test]
    fn streaming_lowers_total_energy_despite_higher_power() {
        let m = EnergyModel::calibrated();
        // Same work finished 5x faster: energy must go down.
        let e_base = m.energy_j(&baseline_like(1_000_000));
        let e_fast = m.energy_j(&spikestream_like(200_000, FpFormat::Fp16));
        assert!(e_fast < e_base, "{e_fast} vs {e_base}");
        let gain = e_base / e_fast;
        assert!(gain > 2.0 && gain < 6.0, "energy-efficiency gain {gain}");
    }

    #[test]
    fn narrower_formats_cost_less_per_flop() {
        let m = EnergyModel::calibrated();
        assert!(m.flop_pj(FpFormat::Fp8) < m.flop_pj(FpFormat::Fp16));
        assert!(m.flop_pj(FpFormat::Fp16) < m.flop_pj(FpFormat::Fp32));
        assert!(m.flop_pj(FpFormat::Fp32) < m.flop_pj(FpFormat::Fp64));
    }

    #[test]
    fn zero_cycle_activity_has_zero_power() {
        let m = EnergyModel::calibrated();
        let a =
            Activity { cycles: 0, int_instrs: 0, flops: 0, dma_bytes: 0, format: FpFormat::Fp16 };
        assert_eq!(m.power_w(&a, 1.0e9), 0.0);
        assert_eq!(m.energy_j(&a), 0.0);
    }

    #[test]
    fn energy_scales_linearly_with_activity() {
        let m = EnergyModel::calibrated();
        let one = baseline_like(100_000);
        let two = baseline_like(200_000);
        let ratio = m.energy_j(&two) / m.energy_j(&one);
        assert!((ratio - 2.0).abs() < 0.05);
    }
}
