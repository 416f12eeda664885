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

/// Membrane state of a population of LIF neurons.
#[derive(Debug, Clone, PartialEq)]
pub struct LifState {
    membrane: Vec<f32>,
}

impl Default for LifState {
    /// An empty population (scratch seed for [`LifState::reset_to`]).
    fn default() -> Self {
        LifState::new(0)
    }
}

impl LifState {
    /// A resting population of `n` neurons.
    pub fn new(n: usize) -> Self {
        LifState { membrane: vec![0.0; n] }
    }

    /// Number of neurons.
    pub fn len(&self) -> usize {
        self.membrane.len()
    }

    /// Whether the population is empty.
    pub fn is_empty(&self) -> bool {
        self.membrane.is_empty()
    }

    /// Membrane potentials.
    pub fn membrane(&self) -> &[f32] {
        &self.membrane
    }

    /// Mutable membrane potentials (used by the kernels, which keep the
    /// neuron state dense in the scratchpad).
    pub fn membrane_mut(&mut self) -> &mut [f32] {
        &mut self.membrane
    }

    /// Advance every neuron by one timestep given its input current.
    ///
    /// Returns the output spike vector.
    ///
    /// # Panics
    ///
    /// Panics if `currents.len()` differs from the population size.
    pub fn step(&mut self, params: &LifParams, currents: &[f32]) -> Vec<bool> {
        assert_eq!(currents.len(), self.membrane.len(), "current vector length mismatch");
        let mut spikes = Vec::with_capacity(self.membrane.len());
        for (v, &i) in self.membrane.iter_mut().zip(currents.iter()) {
            *v = *v * params.alpha + params.resistance * i;
            let fired = *v >= params.v_threshold;
            if fired {
                *v -= params.v_reset;
            }
            spikes.push(fired);
        }
        spikes
    }

    /// Advance every neuron by one timestep, packing the threshold
    /// crossings directly into the words of `out` — 64 neurons per word,
    /// with no intermediate `bool` buffer. The temporal pipeline's no-alloc
    /// activation path.
    ///
    /// # Panics
    ///
    /// Panics if `currents.len()` or `out.shape().len()` differs from the
    /// population size.
    pub fn step_into_map(&mut self, params: &LifParams, currents: &[f32], out: &mut SpikeMap) {
        assert_eq!(currents.len(), self.membrane.len(), "current vector length mismatch");
        assert_eq!(
            out.shape().len(),
            self.membrane.len(),
            "spike map {} does not hold one bit per neuron of the population ({})",
            out.shape(),
            self.membrane.len(),
        );
        let words = out.words_mut();
        for (word, (vs, is)) in words
            .iter_mut()
            .zip(self.membrane.chunks_mut(WORD_BITS).zip(currents.chunks(WORD_BITS)))
        {
            let mut packed = 0u64;
            for (bit, (v, &i)) in vs.iter_mut().zip(is.iter()).enumerate() {
                *v = *v * params.alpha + params.resistance * i;
                if *v >= params.v_threshold {
                    *v -= params.v_reset;
                    packed |= 1 << bit;
                }
            }
            *word = packed;
        }
    }

    /// Advance one neuron (used by the per-neuron fused kernels).
    pub fn step_single(&mut self, params: &LifParams, neuron: usize, current: f32) -> bool {
        let v = &mut self.membrane[neuron];
        *v = *v * params.alpha + params.resistance * current;
        let fired = *v >= params.v_threshold;
        if fired {
            *v -= params.v_reset;
        }
        fired
    }

    /// Reset all membranes to the resting potential.
    pub fn reset(&mut self) {
        self.membrane.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Reset to a resting population of `n` neurons, reusing the existing
    /// allocation when its capacity allows (the batch driver's per-worker
    /// scratch path).
    pub fn reset_to(&mut self, n: usize) {
        self.membrane.clear();
        self.membrane.resize(n, 0.0);
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
    /// of the Izhikevich arithmetic shared by every stepping path, so the
    /// scalar, vector and word-packed trajectories are bit-identical.
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

/// State of a population of Izhikevich neurons: membrane `v` plus the
/// recovery variable `u`, both dense `f32` vectors.
#[derive(Debug, Clone, PartialEq)]
pub struct IzhiState {
    v: Vec<f32>,
    u: Vec<f32>,
}

impl IzhiState {
    /// A resting population of `n` neurons (`v = c`, `u = b·c`).
    pub fn new(params: &IzhiParams, n: usize) -> Self {
        IzhiState { v: vec![params.v_rest(); n], u: vec![params.u_rest(); n] }
    }

    /// Number of neurons.
    pub fn len(&self) -> usize {
        self.v.len()
    }

    /// Whether the population is empty.
    pub fn is_empty(&self) -> bool {
        self.v.is_empty()
    }

    /// Membrane potentials `v`.
    pub fn v(&self) -> &[f32] {
        &self.v
    }

    /// Recovery variables `u`.
    pub fn u(&self) -> &[f32] {
        &self.u
    }

    /// Advance every neuron by one timestep; returns the spike vector.
    ///
    /// # Panics
    ///
    /// Panics if `currents.len()` differs from the population size.
    pub fn step(&mut self, params: &IzhiParams, currents: &[f32]) -> Vec<bool> {
        assert_eq!(currents.len(), self.v.len(), "current vector length mismatch");
        let mut spikes = Vec::with_capacity(self.v.len());
        for ((v, u), &i) in self.v.iter_mut().zip(self.u.iter_mut()).zip(currents.iter()) {
            spikes.push(params.step_one(v, u, i));
        }
        spikes
    }

    /// Advance every neuron, packing the spikes word-wise into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `currents.len()` or `out.shape().len()` differs from the
    /// population size.
    pub fn step_into_map(&mut self, params: &IzhiParams, currents: &[f32], out: &mut SpikeMap) {
        assert_eq!(currents.len(), self.v.len(), "current vector length mismatch");
        assert_eq!(
            out.shape().len(),
            self.v.len(),
            "spike map {} does not hold one bit per neuron of the population ({})",
            out.shape(),
            self.v.len(),
        );
        let words = out.words_mut();
        for (word, ((vs, us), is)) in words.iter_mut().zip(
            self.v
                .chunks_mut(WORD_BITS)
                .zip(self.u.chunks_mut(WORD_BITS))
                .zip(currents.chunks(WORD_BITS)),
        ) {
            let mut packed = 0u64;
            for (bit, ((v, u), &i)) in vs.iter_mut().zip(us.iter_mut()).zip(is.iter()).enumerate() {
                if params.step_one(v, u, i) {
                    packed |= 1 << bit;
                }
            }
            *word = packed;
        }
    }

    /// Advance one neuron (used by the per-neuron fused kernels).
    pub fn step_single(&mut self, params: &IzhiParams, neuron: usize, current: f32) -> bool {
        let (v, u) = (&mut self.v[neuron], &mut self.u[neuron]);
        params.step_one(v, u, current)
    }

    /// Reset to a resting population of `n` neurons, reusing allocations.
    pub fn reset_to(&mut self, params: &IzhiParams, n: usize) {
        self.v.clear();
        self.v.resize(n, params.v_rest());
        self.u.clear();
        self.u.resize(n, params.u_rest());
    }
}

/// Model-generic per-neuron state: what the kernels, the reference engine
/// and the temporal pipeline carry per layer. The variant always matches
/// the layer's [`NeuronModel`]; stepping with a mismatched model panics.
#[derive(Debug, Clone, PartialEq)]
pub enum NeuronState {
    /// One membrane potential per neuron.
    Lif(LifState),
    /// Membrane plus recovery variable per neuron.
    Izhikevich(IzhiState),
}

impl Default for NeuronState {
    /// An empty LIF population (scratch seed for [`NeuronState::reset_for`]).
    fn default() -> Self {
        NeuronState::Lif(LifState::default())
    }
}

impl NeuronState {
    /// A resting population of `n` neurons of the given model.
    pub fn new(model: &NeuronModel, n: usize) -> Self {
        match model {
            NeuronModel::Lif(_) => NeuronState::Lif(LifState::new(n)),
            NeuronModel::Izhikevich(p) => NeuronState::Izhikevich(IzhiState::new(p, n)),
        }
    }

    /// A resting LIF population of `n` neurons.
    pub fn lif(n: usize) -> Self {
        NeuronState::Lif(LifState::new(n))
    }

    /// Number of neurons.
    pub fn len(&self) -> usize {
        match self {
            NeuronState::Lif(s) => s.len(),
            NeuronState::Izhikevich(s) => s.len(),
        }
    }

    /// Whether the population is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Membrane potentials `v`.
    pub fn membrane(&self) -> &[f32] {
        match self {
            NeuronState::Lif(s) => s.membrane(),
            NeuronState::Izhikevich(s) => s.v(),
        }
    }

    /// Mutable membrane potentials (used by the kernels, which keep the
    /// neuron state dense in the scratchpad).
    pub fn membrane_mut(&mut self) -> &mut [f32] {
        match self {
            NeuronState::Lif(s) => s.membrane_mut(),
            NeuronState::Izhikevich(s) => &mut s.v,
        }
    }

    /// Recovery variables `u` — empty for LIF populations.
    pub fn recovery(&self) -> &[f32] {
        match self {
            NeuronState::Lif(_) => &[],
            NeuronState::Izhikevich(s) => s.u(),
        }
    }

    /// Number of per-neuron state variables this state carries.
    pub fn state_vars(&self) -> usize {
        match self {
            NeuronState::Lif(_) => 1,
            NeuronState::Izhikevich(_) => 2,
        }
    }

    /// Advance every neuron by one timestep of `model`; returns the spike
    /// vector.
    ///
    /// # Panics
    ///
    /// Panics if the model does not match the state variant or the current
    /// vector length differs from the population size.
    pub fn step(&mut self, model: &NeuronModel, currents: &[f32]) -> Vec<bool> {
        match (self, model) {
            (NeuronState::Lif(s), NeuronModel::Lif(p)) => s.step(p, currents),
            (NeuronState::Izhikevich(s), NeuronModel::Izhikevich(p)) => s.step(p, currents),
            (state, model) => {
                panic!("neuron state ({} vars) does not match model `{model}`", state.state_vars())
            }
        }
    }

    /// Advance every neuron, packing the spikes word-wise into `out`.
    ///
    /// # Panics
    ///
    /// Same contract as [`NeuronState::step`], plus the spike-map shape
    /// check of the underlying state.
    pub fn step_into_map(&mut self, model: &NeuronModel, currents: &[f32], out: &mut SpikeMap) {
        match (self, model) {
            (NeuronState::Lif(s), NeuronModel::Lif(p)) => s.step_into_map(p, currents, out),
            (NeuronState::Izhikevich(s), NeuronModel::Izhikevich(p)) => {
                s.step_into_map(p, currents, out)
            }
            (state, model) => {
                panic!("neuron state ({} vars) does not match model `{model}`", state.state_vars())
            }
        }
    }

    /// Advance one neuron (used by the per-neuron fused kernels).
    ///
    /// # Panics
    ///
    /// Panics if the model does not match the state variant.
    pub fn step_single(&mut self, model: &NeuronModel, neuron: usize, current: f32) -> bool {
        match (self, model) {
            (NeuronState::Lif(s), NeuronModel::Lif(p)) => s.step_single(p, neuron, current),
            (NeuronState::Izhikevich(s), NeuronModel::Izhikevich(p)) => {
                s.step_single(p, neuron, current)
            }
            (state, model) => {
                panic!("neuron state ({} vars) does not match model `{model}`", state.state_vars())
            }
        }
    }

    /// Reset to a resting population of `n` neurons of `model`, switching
    /// the variant when needed and reusing allocations when it already
    /// matches (the per-worker scratch path).
    pub fn reset_for(&mut self, model: &NeuronModel, n: usize) {
        match (&mut *self, model) {
            (NeuronState::Lif(s), NeuronModel::Lif(_)) => s.reset_to(n),
            (NeuronState::Izhikevich(s), NeuronModel::Izhikevich(p)) => s.reset_to(p, n),
            (state, model) => *state = NeuronState::new(model, n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neuron_fires_when_threshold_is_reached() {
        let params = LifParams::new(0.5, 1.0);
        let mut state = LifState::new(1);
        assert_eq!(state.step(&params, &[0.6]), vec![false]);
        // v = 0.6*0.5 + 0.8 = 1.1 >= 1.0 -> fire, reset by subtraction.
        assert_eq!(state.step(&params, &[0.8]), vec![true]);
        assert!((state.membrane()[0] - 0.1).abs() < 1e-6);
    }

    #[test]
    fn silent_input_decays_membrane() {
        let params = LifParams::new(0.5, 1.0);
        let mut state = LifState::new(1);
        state.membrane_mut()[0] = 0.8;
        state.step(&params, &[0.0]);
        assert!((state.membrane()[0] - 0.4).abs() < 1e-6);
    }

    #[test]
    fn step_single_matches_vector_step() {
        let params = LifParams::default();
        let mut a = LifState::new(3);
        let mut b = LifState::new(3);
        let currents = [0.3, 1.5, 0.9];
        let spikes_a = a.step(&params, &currents);
        let spikes_b: Vec<bool> = (0..3).map(|n| b.step_single(&params, n, currents[n])).collect();
        assert_eq!(spikes_a, spikes_b);
        assert_eq!(a.membrane(), b.membrane());
    }

    #[test]
    fn step_into_map_matches_vector_step() {
        use crate::tensor::TensorShape;
        let params = LifParams::default();
        let n = 130; // spans two full words plus a slack word
        let mut a = LifState::new(n);
        let mut b = LifState::new(n);
        let currents: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37) % 2.0).collect();
        let mut map = SpikeMap::silent(TensorShape::new(1, 1, n));
        for _ in 0..3 {
            let spikes = a.step(&params, &currents);
            b.step_into_map(&params, &currents, &mut map);
            assert_eq!(map.to_bools(), spikes);
            assert_eq!(a.membrane(), b.membrane());
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
        let mut s = LifState::new(4);
        s.membrane_mut().copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        s.reset();
        assert!(s.membrane().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn izhikevich_rests_at_c_and_spikes_reset_to_c() {
        let params = IzhiParams::regular_spiking();
        let mut state = IzhiState::new(&params, 1);
        assert_eq!(state.v(), &[-65.0]);
        assert_eq!(state.u(), &[params.b * -65.0]);
        // Strong sustained current drives the neuron over threshold within
        // a few steps; the spike resets v to c and bumps u by d.
        let mut fired = None;
        for step in 0..200 {
            let u_before = state.u()[0];
            if state.step(&params, &[20.0])[0] {
                fired = Some((step, u_before));
                break;
            }
        }
        let (_, u_before) = fired.expect("a 20 mV current must elicit a spike");
        assert_eq!(state.v()[0], params.c, "spike resets v to c");
        assert!(state.u()[0] > u_before, "spike bumps u by d");
    }

    #[test]
    fn izhikevich_step_paths_are_bit_identical() {
        use crate::tensor::TensorShape;
        let params = IzhiParams::regular_spiking();
        let n = 130; // spans two full words plus a slack word
        let mut a = IzhiState::new(&params, n);
        let mut b = IzhiState::new(&params, n);
        let mut c = IzhiState::new(&params, n);
        let currents: Vec<f32> = (0..n).map(|i| (i as f32 * 0.83) % 9.0).collect();
        let mut map = SpikeMap::silent(TensorShape::new(1, 1, n));
        for _ in 0..6 {
            let spikes = a.step(&params, &currents);
            b.step_into_map(&params, &currents, &mut map);
            let singles: Vec<bool> =
                (0..n).map(|i| c.step_single(&params, i, currents[i])).collect();
            assert_eq!(map.to_bools(), spikes);
            assert_eq!(singles, spikes);
            assert_eq!(a.v(), b.v());
            assert_eq!(a.u(), b.u());
            assert_eq!(a.v(), c.v());
            assert_eq!(a.u(), c.u());
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
        assert_eq!(state.state_vars(), 1);
        assert!(state.recovery().is_empty());
        state.step(&lif, &[0.3, 0.2, 0.1, 0.0]);

        // Switching the model re-seats the variant and rests it.
        state.reset_for(&izhi, 3);
        assert_eq!(state.len(), 3);
        assert_eq!(state.state_vars(), 2);
        assert_eq!(state.membrane(), &[-65.0; 3]);
        assert_eq!(state.recovery().len(), 3);
        let spikes = state.step(&izhi, &[0.0; 3]);
        assert_eq!(spikes, vec![false; 3]);
    }

    #[test]
    #[should_panic(expected = "does not match model")]
    fn stepping_with_a_mismatched_model_panics() {
        let mut state = NeuronState::lif(2);
        state.step(&NeuronModel::Izhikevich(IzhiParams::regular_spiking()), &[0.0, 0.0]);
    }

    #[test]
    fn neuron_state_lif_path_matches_plain_lif_state() {
        let params = LifParams::new(0.5, 1.0);
        let model = NeuronModel::Lif(params);
        let mut plain = LifState::new(3);
        let mut generic = NeuronState::new(&model, 3);
        let currents = [0.4, 1.3, 0.9];
        for _ in 0..4 {
            let a = plain.step(&params, &currents);
            let b = generic.step(&model, &currents);
            assert_eq!(a, b);
            assert_eq!(plain.membrane(), generic.membrane());
        }
    }
}
