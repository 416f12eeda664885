//! Neuron dynamics: leaky integrate-and-fire (LIF) and Izhikevich.
//!
//! The paper's Eq. (1), the LIF model:
//!
//! ```text
//! i_m(t)  = Σ_n s_{i,n}(t) · w_n
//! v_m(t)  = v_m(t-1) · α + r · i_m(t) − v_rst · s_{o,m}(t)
//! s_{o,m} = 1 if v_m(t) ≥ v_th else 0
//! ```
//!
//! where the reset is applied by subtraction when the neuron fires.
//!
//! The Izhikevich model carries a second *recovery* variable `u` next to
//! the membrane potential `v` and advances both per timestep:
//!
//! ```text
//! v += 0.04·v² + 5·v + 140 − u + I
//! u += a·(b·v − u)
//! on spike (v ≥ v_th):  v = c,  u += d
//! ```
//!
//! Which model a layer runs is [`NeuronModel`]; the matching per-neuron
//! storage is the model-generic [`NeuronState`] used by the kernels, the
//! reference engine and the temporal pipeline alike.

use crate::tensor::{SpikeMap, WORD_BITS};

/// Parameters of the LIF neuron model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifParams {
    /// Membrane decay factor `α` in `[0, 1]`.
    pub alpha: f32,
    /// Membrane resistance `r` (usually 1).
    pub resistance: f32,
    /// Firing threshold `v_th`.
    pub v_threshold: f32,
    /// Reset potential subtracted when the neuron fires.
    pub v_reset: f32,
}

impl LifParams {
    /// Typical parameters used for directly-trained deep SNNs.
    pub fn new(alpha: f32, v_threshold: f32) -> Self {
        LifParams { alpha, resistance: 1.0, v_threshold, v_reset: v_threshold }
    }

    /// Validate the parameters.
    ///
    /// # Errors
    ///
    /// Returns an error message if `alpha` is outside `[0, 1]` or the
    /// threshold is not positive.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.alpha) {
            return Err(format!("decay factor alpha {} must lie in [0, 1]", self.alpha));
        }
        if self.v_threshold <= 0.0 || !self.v_threshold.is_finite() {
            return Err(format!("firing threshold {} must be positive", self.v_threshold));
        }
        if !self.resistance.is_finite() || self.resistance <= 0.0 {
            return Err(format!("membrane resistance {} must be positive", self.resistance));
        }
        if !self.v_reset.is_finite() || self.v_reset < 0.0 {
            return Err(format!("reset potential {} must be non-negative", self.v_reset));
        }
        Ok(())
    }
}

impl Default for LifParams {
    fn default() -> Self {
        LifParams::new(0.5, 1.0)
    }
}

/// Parameters of the Izhikevich neuron model.
///
/// The quadratic two-variable dynamics of Izhikevich (2003):
///
/// ```text
/// v += 0.04·v² + 5·v + 140 − u + I
/// u += a·(b·v − u)
/// on spike (v ≥ v_th):  v = c,  u += d
/// ```
///
/// The defaults are the canonical *regular spiking* cortical cell
/// (`a = 0.02, b = 0.2, c = −65, d = 8`, threshold 30 mV).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IzhiParams {
    /// Recovery time scale `a` (smaller is slower recovery).
    pub a: f32,
    /// Recovery sensitivity `b` to subthreshold membrane fluctuations.
    pub b: f32,
    /// After-spike membrane reset potential `c` (mV).
    pub c: f32,
    /// After-spike recovery increment `d`.
    pub d: f32,
    /// Firing threshold `v_th` (mV).
    pub v_threshold: f32,
}

impl IzhiParams {
    /// The canonical regular-spiking parameter set.
    pub fn regular_spiking() -> Self {
        IzhiParams { a: 0.02, b: 0.2, c: -65.0, d: 8.0, v_threshold: 30.0 }
    }

    /// The fast-spiking interneuron parameter set (`a = 0.1`).
    pub fn fast_spiking() -> Self {
        IzhiParams { a: 0.1, ..IzhiParams::regular_spiking() }
    }

    /// Resting membrane potential: the after-spike reset `c`.
    pub fn v_rest(&self) -> f32 {
        self.c
    }

    /// Resting recovery value `u = b·v_rest`.
    pub fn u_rest(&self) -> f32 {
        self.b * self.c
    }

    /// Validate the parameters.
    ///
    /// # Errors
    ///
    /// Returns an error message if any parameter is non-finite, the
    /// recovery time scale `a` is not in `(0, 1]`, or the threshold does
    /// not lie strictly above the reset potential `c`.
    pub fn validate(&self) -> Result<(), String> {
        for (name, value) in
            [("a", self.a), ("b", self.b), ("c", self.c), ("d", self.d), ("v_th", self.v_threshold)]
        {
            if !value.is_finite() {
                return Err(format!("izhikevich parameter {name} = {value} must be finite"));
            }
        }
        if self.a <= 0.0 || self.a > 1.0 {
            return Err(format!("recovery time scale a {} must lie in (0, 1]", self.a));
        }
        if self.v_threshold <= self.c {
            return Err(format!(
                "firing threshold {} must exceed the reset potential c {}",
                self.v_threshold, self.c
            ));
        }
        Ok(())
    }

    /// Advance one neuron by one quantized Euler step; the single source
    /// of the Izhikevich arithmetic shared by both stepping paths, so the
    /// per-neuron and word-packed trajectories are bit-identical.
    #[inline]
    fn step_one(&self, v: &mut f32, u: &mut f32, current: f32) -> bool {
        let v0 = *v;
        let v1 = v0 + (0.04 * v0 * v0 + 5.0 * v0 + 140.0 - *u + current);
        let u1 = *u + self.a * (self.b * v1 - *u);
        let fired = v1 >= self.v_threshold;
        if fired {
            *v = self.c;
            *u = u1 + self.d;
        } else {
            *v = v1;
            *u = u1;
        }
        fired
    }
}

impl Default for IzhiParams {
    fn default() -> Self {
        IzhiParams::regular_spiking()
    }
}

/// Which neuron dynamics a layer runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NeuronModel {
    /// Leaky integrate-and-fire (one state variable, the paper's Eq. 1).
    Lif(LifParams),
    /// Izhikevich (two state variables `v` and `u`).
    Izhikevich(IzhiParams),
}

impl NeuronModel {
    /// Validate the model parameters.
    ///
    /// # Errors
    ///
    /// Propagates the parameter-set validation of the underlying model.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            NeuronModel::Lif(p) => p.validate(),
            NeuronModel::Izhikevich(p) => p.validate(),
        }
    }

    /// Number of per-neuron state variables the model carries (`v`, and
    /// `u` for Izhikevich). This is what sizes the membrane DMA tiles.
    pub fn state_vars(&self) -> usize {
        match self {
            NeuronModel::Lif(_) => 1,
            NeuronModel::Izhikevich(_) => 2,
        }
    }

    /// Stable small-integer discriminator, folded into kernel cache-key
    /// classes so two models never cross-serve cached costs.
    pub fn cache_class(&self) -> u32 {
        match self {
            NeuronModel::Lif(_) => 0,
            NeuronModel::Izhikevich(_) => 1,
        }
    }

    /// The scenario-file spelling of this model.
    pub fn as_str(&self) -> &'static str {
        match self {
            NeuronModel::Lif(_) => "lif",
            NeuronModel::Izhikevich(_) => "izhikevich",
        }
    }
}

impl Default for NeuronModel {
    fn default() -> Self {
        NeuronModel::Lif(LifParams::default())
    }
}

impl From<LifParams> for NeuronModel {
    fn from(params: LifParams) -> Self {
        NeuronModel::Lif(params)
    }
}

impl From<IzhiParams> for NeuronModel {
    fn from(params: IzhiParams) -> Self {
        NeuronModel::Izhikevich(params)
    }
}

impl std::fmt::Display for NeuronModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Per-neuron state of one population: the membrane potential `v` of every
/// neuron and, for Izhikevich, the recovery variable `u` next to it (empty
/// for LIF). What the kernels, the reference engine and the temporal
/// pipeline carry per layer. The state holds the variables of the model it
/// was made or last reset for; each step matches on the layer's
/// [`NeuronModel`], and stepping with a model whose variables the state
/// does not hold panics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NeuronState {
    membrane: Vec<f32>,
    recovery: Vec<f32>,
}

impl NeuronState {
    /// A resting population of `n` neurons of the given model.
    pub fn new(model: &NeuronModel, n: usize) -> Self {
        let mut state = NeuronState::default();
        state.reset_for(model, n);
        state
    }

    /// A resting LIF population of `n` neurons.
    pub fn lif(n: usize) -> Self {
        NeuronState { membrane: vec![0.0; n], recovery: Vec::new() }
    }

    /// Number of neurons.
    pub fn len(&self) -> usize {
        self.membrane.len()
    }

    /// Whether the population is empty.
    pub fn is_empty(&self) -> bool {
        self.membrane.is_empty()
    }

    /// Membrane potentials `v`.
    pub fn membrane(&self) -> &[f32] {
        &self.membrane
    }

    /// Recovery variables `u` — empty for LIF populations.
    pub fn recovery(&self) -> &[f32] {
        &self.recovery
    }

    /// Panic unless the state holds the variables of `model`: no recovery
    /// value for LIF, one per neuron for Izhikevich.
    #[inline]
    fn check_model(&self, model: &NeuronModel) {
        let recovery = (model.state_vars() - 1) * self.membrane.len();
        assert!(
            self.recovery.len() == recovery,
            "neuron state ({} neurons, {} recovery values) does not match model `{model}`",
            self.membrane.len(),
            self.recovery.len(),
        );
    }

    /// Advance one neuron by one timestep of `model`; returns whether it
    /// fired. The fused kernels step each SIMD lane this way as they
    /// unpack it.
    ///
    /// # Panics
    ///
    /// Panics if the state does not hold the variables of `model` or
    /// `neuron` is out of range.
    #[inline]
    pub fn step_single(&mut self, model: &NeuronModel, neuron: usize, current: f32) -> bool {
        self.check_model(model);
        let v = &mut self.membrane[neuron];
        match model {
            NeuronModel::Lif(p) => {
                *v = *v * p.alpha + p.resistance * current;
                let fired = *v >= p.v_threshold;
                if fired {
                    *v -= p.v_reset;
                }
                fired
            }
            NeuronModel::Izhikevich(p) => p.step_one(v, &mut self.recovery[neuron], current),
        }
    }

    /// Advance every neuron by one timestep of `model`, packing the
    /// threshold crossings directly into the words of `out` — 64 neurons
    /// per word, with no intermediate `bool` buffer. The reference
    /// engine's path. Its LIF arithmetic is written apart from
    /// [`NeuronState::step_single`]'s, so the differential tests compare
    /// two implementations of Eq. (1).
    ///
    /// # Panics
    ///
    /// Panics if the state does not hold the variables of `model`, or if
    /// `currents.len()` or `out.shape().len()` differs from the population
    /// size.
    pub fn step_into_map(&mut self, model: &NeuronModel, currents: &[f32], out: &mut SpikeMap) {
        self.check_model(model);
        let n = self.membrane.len();
        assert_eq!(currents.len(), n, "current vector length mismatch");
        assert_eq!(
            out.shape().len(),
            n,
            "spike map {} does not hold one bit per neuron of the population ({n})",
            out.shape(),
        );
        let (membrane, recovery) = (&mut self.membrane, &mut self.recovery);
        let mut fire = |i: usize| match model {
            NeuronModel::Lif(p) => {
                let v = &mut membrane[i];
                *v = *v * p.alpha + p.resistance * currents[i];
                let fired = *v >= p.v_threshold;
                if fired {
                    *v -= p.v_reset;
                }
                fired
            }
            NeuronModel::Izhikevich(p) => {
                p.step_one(&mut membrane[i], &mut recovery[i], currents[i])
            }
        };
        for (w, word) in out.words_mut().iter_mut().enumerate() {
            let first = w * WORD_BITS;
            let mut packed = 0u64;
            for i in first..n.min(first + WORD_BITS) {
                if fire(i) {
                    packed |= 1 << (i - first);
                }
            }
            *word = packed;
        }
    }

    /// Reset to a resting population of `n` neurons of `model` (LIF
    /// membranes at 0, Izhikevich at `v = c`, `u = b·c`), reusing the
    /// allocations (the per-worker scratch path).
    pub fn reset_for(&mut self, model: &NeuronModel, n: usize) {
        let (v_rest, u_rest) = match model {
            NeuronModel::Lif(_) => (0.0, None),
            NeuronModel::Izhikevich(p) => (p.v_rest(), Some(p.u_rest())),
        };
        self.membrane.clear();
        self.membrane.resize(n, v_rest);
        self.recovery.clear();
        if let Some(u_rest) = u_rest {
            self.recovery.resize(n, u_rest);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::TensorShape;

    /// Step every neuron of `state` once through `step_single`.
    fn step_each(state: &mut NeuronState, model: &NeuronModel, currents: &[f32]) -> Vec<bool> {
        currents.iter().enumerate().map(|(n, &i)| state.step_single(model, n, i)).collect()
    }

    /// Eq. (1) written out over a plain membrane vector: the vector step
    /// both of the state's LIF paths are checked against.
    fn vector_step(params: &LifParams, membrane: &mut [f32], currents: &[f32]) -> Vec<bool> {
        membrane
            .iter_mut()
            .zip(currents)
            .map(|(v, &i)| {
                *v = *v * params.alpha + params.resistance * i;
                let fired = *v >= params.v_threshold;
                if fired {
                    *v -= params.v_reset;
                }
                fired
            })
            .collect()
    }

    #[test]
    fn neuron_fires_when_threshold_is_reached() {
        let model = NeuronModel::Lif(LifParams::new(0.5, 1.0));
        let mut state = NeuronState::lif(1);
        assert!(!state.step_single(&model, 0, 0.6));
        // v = 0.6*0.5 + 0.8 = 1.1 >= 1.0 -> fire, reset by subtraction.
        assert!(state.step_single(&model, 0, 0.8));
        assert!((state.membrane()[0] - 0.1).abs() < 1e-6);
    }

    #[test]
    fn silent_input_decays_membrane() {
        let model = NeuronModel::Lif(LifParams::new(0.5, 1.0));
        let mut state = NeuronState::lif(1);
        state.step_single(&model, 0, 0.8);
        state.step_single(&model, 0, 0.0);
        assert!((state.membrane()[0] - 0.4).abs() < 1e-6);
    }

    #[test]
    fn step_single_matches_vector_step() {
        let params = LifParams::default();
        let model = NeuronModel::Lif(params);
        let mut plain = [0.0f32; 3];
        let mut state = NeuronState::lif(3);
        let currents = [0.3, 1.5, 0.9];
        let spikes = vector_step(&params, &mut plain, &currents);
        assert_eq!(step_each(&mut state, &model, &currents), spikes);
        assert_eq!(state.membrane(), plain);
    }

    #[test]
    fn step_into_map_matches_vector_step() {
        let params = LifParams::default();
        let model = NeuronModel::Lif(params);
        let n = 130; // spans two full words plus a slack word
        let mut plain = vec![0.0f32; n];
        let mut state = NeuronState::lif(n);
        let currents: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37) % 2.0).collect();
        let mut map = SpikeMap::silent(TensorShape::new(1, 1, n));
        for _ in 0..3 {
            let spikes = vector_step(&params, &mut plain, &currents);
            state.step_into_map(&model, &currents, &mut map);
            assert!(spikes.contains(&true) && spikes.contains(&false));
            assert_eq!(map.to_bools(), spikes);
            assert_eq!(state.membrane(), plain);
        }
    }

    #[test]
    fn params_validation() {
        assert!(LifParams::new(0.5, 1.0).validate().is_ok());
        assert!(LifParams::new(1.5, 1.0).validate().is_err());
        assert!(LifParams::new(0.5, 0.0).validate().is_err());
    }

    #[test]
    fn reset_returns_to_rest() {
        let model = NeuronModel::Lif(LifParams::new(0.5, 1.0));
        let mut s = NeuronState::lif(4);
        step_each(&mut s, &model, &[0.1, 0.2, 0.3, 0.4]);
        assert!(s.membrane().iter().all(|&v| v > 0.0));
        s.reset_for(&model, 4);
        assert!(s.membrane().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn izhikevich_rests_at_c_and_spikes_reset_to_c() {
        let params = IzhiParams::regular_spiking();
        let model = NeuronModel::Izhikevich(params);
        let mut state = NeuronState::new(&model, 1);
        assert_eq!(state.membrane(), &[-65.0]);
        assert_eq!(state.recovery(), &[params.b * -65.0]);
        // Strong sustained current drives the neuron over threshold within
        // a few steps; the spike resets v to c and bumps u by d.
        let mut fired = None;
        for step in 0..200 {
            let u_before = state.recovery()[0];
            if state.step_single(&model, 0, 20.0) {
                fired = Some((step, u_before));
                break;
            }
        }
        let (_, u_before) = fired.expect("a 20 mV current must elicit a spike");
        assert_eq!(state.membrane()[0], params.c, "spike resets v to c");
        assert!(state.recovery()[0] > u_before, "spike bumps u by d");
    }

    #[test]
    fn izhikevich_step_paths_are_bit_identical() {
        let model = NeuronModel::Izhikevich(IzhiParams::regular_spiking());
        let n = 130; // spans two full words plus a slack word
        let mut a = NeuronState::new(&model, n);
        let mut b = NeuronState::new(&model, n);
        let currents: Vec<f32> = (0..n).map(|i| (i as f32 * 0.83) % 9.0).collect();
        let mut map = SpikeMap::silent(TensorShape::new(1, 1, n));
        for _ in 0..6 {
            let spikes = step_each(&mut a, &model, &currents);
            b.step_into_map(&model, &currents, &mut map);
            assert_eq!(map.to_bools(), spikes);
            assert_eq!(a.membrane(), b.membrane());
            assert_eq!(a.recovery(), b.recovery());
        }
    }

    #[test]
    fn izhi_params_validation() {
        assert!(IzhiParams::regular_spiking().validate().is_ok());
        assert!(IzhiParams { a: 0.0, ..IzhiParams::regular_spiking() }.validate().is_err());
        assert!(IzhiParams { a: f32::NAN, ..IzhiParams::regular_spiking() }.validate().is_err());
        assert!(
            IzhiParams { v_threshold: -70.0, ..IzhiParams::regular_spiking() }.validate().is_err(),
            "threshold below the reset potential is rejected"
        );
    }

    #[test]
    fn neuron_state_dispatches_and_resets_per_model() {
        let lif = NeuronModel::Lif(LifParams::default());
        let izhi = NeuronModel::Izhikevich(IzhiParams::regular_spiking());
        assert_eq!(lif.state_vars(), 1);
        assert_eq!(izhi.state_vars(), 2);
        assert_ne!(lif.cache_class(), izhi.cache_class());

        let mut state = NeuronState::default();
        state.reset_for(&lif, 4);
        assert_eq!(state.len(), 4);
        assert!(state.recovery().is_empty());
        step_each(&mut state, &lif, &[0.3, 0.2, 0.1, 0.0]);

        // Switching the model re-seats the variables and rests them.
        state.reset_for(&izhi, 3);
        assert_eq!(state.len(), 3);
        assert_eq!(state.membrane(), &[-65.0; 3]);
        assert_eq!(state.recovery().len(), 3);
        assert_eq!(step_each(&mut state, &izhi, &[0.0; 3]), vec![false; 3]);

        // And back: a LIF state carries no recovery values.
        state.reset_for(&lif, 2);
        assert_eq!(state, NeuronState::lif(2));
    }

    #[test]
    #[should_panic(expected = "does not match model")]
    fn stepping_with_a_mismatched_model_panics() {
        let mut state = NeuronState::lif(2);
        state.step_single(&NeuronModel::Izhikevich(IzhiParams::regular_spiking()), 0, 0.0);
    }

    #[test]
    #[should_panic(expected = "does not match model")]
    fn packing_with_a_mismatched_model_panics() {
        let mut state = NeuronState::new(&NeuronModel::Izhikevich(IzhiParams::default()), 2);
        let mut map = SpikeMap::silent(TensorShape::new(1, 1, 2));
        state.step_into_map(&NeuronModel::Lif(LifParams::default()), &[0.0; 2], &mut map);
    }

    #[test]
    fn neuron_state_lif_path_matches_plain_lif_state() {
        // The state's LIF step against Eq. (1) written out over a plain
        // membrane vector.
        let params = LifParams::new(0.5, 1.0);
        let model = NeuronModel::Lif(params);
        let mut plain = [0.0f32; 3];
        let mut generic = NeuronState::new(&model, 3);
        let currents = [0.4, 1.3, 0.9];
        for _ in 0..4 {
            let expected = vector_step(&params, &mut plain, &currents);
            assert_eq!(step_each(&mut generic, &model, &currents), expected);
            assert_eq!(generic.membrane(), plain);
        }
    }
}
