//! Analytical models of published neuromorphic accelerators.
//!
//! Section IV-C of the paper compares SpikeStream against four accelerators
//! evaluated in the NeuroRVcore paper: Intel Loihi, ODIN, LSMCore and
//! NeuroRVcore itself, on the sixth layer of S-VGG11 over 500 timesteps.
//! The comparison uses each chip's published peak synaptic-operation rate
//! and energy efficiency; this crate reproduces that comparison as an
//! analytical model: latency = synaptic operations / effective SOP rate,
//! energy = synaptic operations x energy per SOP (plus idle power x time).
//!
//! The figures of merit are taken from the publications cited by the paper
//! and are intentionally kept as plain data so they can be adjusted.

/// A neuromorphic accelerator's published figures of merit.
#[derive(Debug, Clone, PartialEq)]
pub struct AcceleratorSpec {
    /// Chip name.
    pub name: String,
    /// Peak synaptic operations per second, in GSOP/s.
    pub peak_gsop: f64,
    /// Fraction of the peak rate sustained on the sparse VGG workload.
    pub sustained_fraction: f64,
    /// Energy per synaptic operation in picojoules.
    pub pj_per_sop: f64,
    /// Idle/leakage power in watts (charged over the whole run).
    pub idle_power_w: f64,
    /// Arithmetic precision in bits.
    pub precision_bits: u32,
    /// Technology node in nanometres.
    pub technology_nm: u32,
}

impl AcceleratorSpec {
    /// Intel Loihi (14 nm GALS many-core, 1-64 bit synapses).
    pub fn loihi() -> Self {
        AcceleratorSpec {
            name: "Loihi".into(),
            peak_gsop: 37.5,
            sustained_fraction: 0.30,
            pj_per_sop: 23.6,
            idle_power_w: 0.031,
            precision_bits: 8,
            technology_nm: 14,
        }
    }

    /// ODIN (28 nm, 64-neuron online-learning core, 4-bit weights).
    pub fn odin() -> Self {
        AcceleratorSpec {
            name: "ODIN".into(),
            peak_gsop: 0.038,
            sustained_fraction: 0.55,
            pj_per_sop: 12.7,
            idle_power_w: 0.0005,
            precision_bits: 4,
            technology_nm: 28,
        }
    }

    /// LSMCore (40 nm, 1024-LIF-neuron liquid state machine core, 4-bit).
    pub fn lsmcore() -> Self {
        AcceleratorSpec {
            name: "LSMCore".into(),
            peak_gsop: 400.0,
            sustained_fraction: 0.30,
            pj_per_sop: 22.0,
            idle_power_w: 0.25,
            precision_bits: 4,
            technology_nm: 40,
        }
    }

    /// NeuroRVcore (28 nm RISC-V core with a neuromorphic ISA extension).
    pub fn neurorvcore() -> Self {
        AcceleratorSpec {
            name: "NeuroRVcore".into(),
            peak_gsop: 128.0,
            sustained_fraction: 0.25,
            pj_per_sop: 26.0,
            idle_power_w: 0.09,
            precision_bits: 4,
            technology_nm: 28,
        }
    }

    /// All four accelerators compared in the paper.
    pub fn soa() -> Vec<AcceleratorSpec> {
        vec![Self::loihi(), Self::odin(), Self::lsmcore(), Self::neurorvcore()]
    }

    /// Sustained synaptic-operation rate in SOP/s.
    pub fn sustained_sops(&self) -> f64 {
        self.peak_gsop * 1e9 * self.sustained_fraction
    }

    /// Run the accelerator model on a workload of `synops` synaptic
    /// operations and return its predicted latency and energy.
    pub fn run(&self, synops: u64) -> AcceleratorResult {
        let latency_s = synops as f64 / self.sustained_sops();
        let dynamic_j = synops as f64 * self.pj_per_sop * 1e-12;
        let energy_j = dynamic_j + self.idle_power_w * latency_s;
        AcceleratorResult { name: self.name.clone(), latency_s, energy_j, spec: self.clone() }
    }
}

/// Predicted latency and energy of an accelerator on a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct AcceleratorResult {
    /// Chip name.
    pub name: String,
    /// Predicted latency in seconds.
    pub latency_s: f64,
    /// Predicted energy in joules.
    pub energy_j: f64,
    /// The spec used for the prediction.
    pub spec: AcceleratorSpec,
}

impl AcceleratorResult {
    /// Latency in milliseconds (the unit of Fig. 5a).
    pub fn latency_ms(&self) -> f64 {
        self.latency_s * 1e3
    }

    /// Energy in millijoules (the unit of Fig. 5b).
    pub fn energy_mj(&self) -> f64 {
        self.energy_j * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synaptic operations of the 6th S-VGG11 layer over 500 timesteps with
    /// ~10% input firing: 8x8 x 512 outputs x 3x3x512 x 0.10 x 500.
    fn layer6_synops_500ts() -> u64 {
        (8.0 * 8.0 * 512.0 * 9.0 * 512.0 * 0.10 * 500.0) as u64
    }

    #[test]
    fn lsmcore_is_the_fastest_and_odin_the_slowest() {
        let synops = layer6_synops_500ts();
        let results: Vec<AcceleratorResult> =
            AcceleratorSpec::soa().iter().map(|a| a.run(synops)).collect();
        let fastest =
            results.iter().min_by(|a, b| a.latency_s.partial_cmp(&b.latency_s).unwrap()).unwrap();
        let slowest =
            results.iter().max_by(|a, b| a.latency_s.partial_cmp(&b.latency_s).unwrap()).unwrap();
        assert_eq!(fastest.name, "LSMCore");
        assert_eq!(slowest.name, "ODIN");
    }

    #[test]
    fn lsmcore_latency_is_in_the_tens_of_milliseconds() {
        // The paper reports 46.08 ms for LSMCore on this workload.
        let r = AcceleratorSpec::lsmcore().run(layer6_synops_500ts());
        assert!(
            r.latency_ms() > 10.0 && r.latency_ms() < 150.0,
            "LSMCore latency {} ms",
            r.latency_ms()
        );
    }

    #[test]
    fn loihi_latency_is_hundreds_of_milliseconds() {
        // The paper derives ~510 ms for Loihi (2.38x slower than SpikeStream
        // FP8 at 217 ms).
        let r = AcceleratorSpec::loihi().run(layer6_synops_500ts());
        assert!(
            r.latency_ms() > 150.0 && r.latency_ms() < 2000.0,
            "Loihi latency {} ms",
            r.latency_ms()
        );
    }

    #[test]
    fn energy_combines_dynamic_and_idle_terms() {
        let spec = AcceleratorSpec::lsmcore();
        let small = spec.run(1_000_000);
        let large = spec.run(1_000_000_000);
        assert!(large.energy_j > small.energy_j * 500.0);
        assert!(small.energy_j > 0.0);
    }

    #[test]
    fn soa_list_contains_all_four_chips() {
        let names: Vec<String> = AcceleratorSpec::soa().into_iter().map(|a| a.name).collect();
        assert_eq!(names, vec!["Loihi", "ODIN", "LSMCore", "NeuroRVcore"]);
    }
}
