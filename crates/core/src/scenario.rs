//! Declarative scenario files for the `spikestream` CLI.
//!
//! A scenario is a small key/value file (a strict TOML subset — one
//! `[scenario]` table, `key = value` lines, `#` comments) that names
//! everything one batch-inference run needs: the network, the code
//! variant, the storage format, the timing model, the batch size, the
//! seed and the shard count. The CLI's `run`, `bench` and `compare`
//! subcommands all start from a scenario file, so every fleet experiment
//! is reproducible from a checked-in artifact.
//!
//! ```text
//! # examples/scenarios/svgg11_fp16.toml
//! [scenario]
//! name      = "svgg11-fp16"
//! network   = "svgg11"        # svgg11 | tiny-cnn | tiny-pool
//! variant   = "spikestream"   # baseline | spikestream
//! format    = "fp16"          # fp64 | fp32 | fp16 | fp8
//! timing    = "analytic"      # analytic | cycle-level
//! batch     = 128
//! seed      = 0xC1FA
//! shards    = 8
//! # Optional temporal-pipeline keys: setting either switches the run from
//! # the synthetic single-shot path to a real T-timestep inference.
//! timesteps = 4
//! encoding  = "rate"          # rate | direct
//!
//! # Optional neuron-model override applied to every layer of the network.
//! [neuron_model]
//! model       = "izhikevich"  # lif | izhikevich
//! a           = 0.02          # izhikevich: a b c d v_threshold
//! b           = 0.2           # lif:        alpha resistance v_threshold v_reset
//! c           = -65.0
//! d           = 8.0
//! v_threshold = 30.0
//!
//! # Optional serving-gateway policy for `spikestream serve-demo` (each
//! # key falls back to the gateway default when omitted).
//! [serve]
//! max_batch = 16
//! queue_cap = 256
//! ```
//!
//! The parser is hand-rolled (no external TOML dependency) and rejects
//! anything outside the subset with a line-numbered error; unknown keys
//! and sections additionally name the nearest valid spelling.
//!
//! # Example
//!
//! ```
//! use spikestream::Scenario;
//!
//! let scenario = Scenario::parse(
//!     "[scenario]\n\
//!      name = \"quick\"\n\
//!      batch = 4\n\
//!      shards = 2\n",
//! )
//! .unwrap();
//! assert_eq!(scenario.name, "quick");
//! let report = scenario.compile().unwrap().open_session().infer(&scenario.request());
//! assert_eq!(report.batch, 4);
//! assert_eq!(report.shards.as_ref().unwrap().shards.len(), 2);
//! ```

use snitch_arch::fp::FpFormat;
use spikestream_kernels::KernelVariant;
use spikestream_snn::neuron::LifParams;
use spikestream_snn::tensor::TensorShape;
use spikestream_snn::{
    ConvSpec, FiringProfile, IzhiParams, LinearSpec, Network, NetworkBuilder, NeuronModel,
    PoolSpec, TemporalEncoding, WorkloadMode,
};

use crate::engine::{Engine, InferenceConfig, TimingModel};
use crate::plan::{Compiler, Plan};
use crate::session::Request;
use crate::sharding::MAX_SHARDS;

/// The networks a scenario can name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetworkChoice {
    /// The paper's S-VGG11 with its calibrated CIFAR-10 firing profile.
    Svgg11,
    /// A small two-conv-plus-FC network (8x8x3 input) that the cycle-level
    /// timing model can evaluate in test/smoke time budgets.
    TinyCnn,
    /// The tiny CNN with a standalone average-pooling layer between the
    /// conv stage and the classifier — exercises the `AvgPool` layer kind
    /// (and its single stream-program emitter) end to end.
    TinyPool,
}

impl NetworkChoice {
    /// Build the network and its firing profile for `seed`.
    pub fn build(self, seed: u64) -> (Network, FiringProfile) {
        match self {
            NetworkChoice::Svgg11 => (Network::svgg11(seed), FiringProfile::paper_svgg11()),
            NetworkChoice::TinyCnn => {
                let lif = LifParams::new(0.5, 0.3);
                let mut net = NetworkBuilder::new("tiny-cnn")
                    .conv(
                        "conv1",
                        ConvSpec {
                            input: TensorShape::new(8, 8, 3),
                            out_channels: 8,
                            kh: 3,
                            kw: 3,
                            stride: 1,
                            padding: 1,
                            pool: true,
                        },
                        lif,
                    )
                    .conv(
                        "conv2",
                        ConvSpec {
                            input: TensorShape::new(4, 4, 8),
                            out_channels: 16,
                            kh: 3,
                            kw: 3,
                            stride: 1,
                            padding: 1,
                            pool: false,
                        },
                        lif,
                    )
                    .linear("fc3", LinearSpec { in_features: 4 * 4 * 16, out_features: 10 }, lif)
                    .build_with_random_weights(seed, 0.1);
                net.layers_mut()[0].encodes_input = true;
                (net, FiringProfile::uniform(3, 0.25))
            }
            NetworkChoice::TinyPool => {
                let lif = LifParams::new(0.5, 0.3);
                let mut net = NetworkBuilder::new("tiny-pool")
                    .conv(
                        "conv1",
                        ConvSpec {
                            input: TensorShape::new(8, 8, 3),
                            out_channels: 8,
                            kh: 3,
                            kw: 3,
                            stride: 1,
                            padding: 1,
                            pool: false,
                        },
                        lif,
                    )
                    .avg_pool(
                        "pool2",
                        PoolSpec { input: TensorShape::new(8, 8, 8), window: 2 },
                        lif,
                    )
                    .linear("fc3", LinearSpec { in_features: 4 * 4 * 8, out_features: 10 }, lif)
                    .build_with_random_weights(seed, 0.1);
                net.layers_mut()[0].encodes_input = true;
                (net, FiringProfile::uniform(3, 0.25))
            }
        }
    }

    /// The scenario-file spelling of this choice.
    pub fn as_str(self) -> &'static str {
        match self {
            NetworkChoice::Svgg11 => "svgg11",
            NetworkChoice::TinyCnn => "tiny-cnn",
            NetworkChoice::TinyPool => "tiny-pool",
        }
    }
}

/// A parse/validation error with the 1-based line it occurred on (0 for
/// file-level problems).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError {
    /// 1-based source line, 0 when no single line is at fault.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "scenario: {}", self.message)
        } else {
            write!(f, "scenario line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for ScenarioError {}

fn err(line: usize, message: impl Into<String>) -> ScenarioError {
    ScenarioError { line, message: message.into() }
}

/// Upper bound on a serving-gateway tenant's queue capacity, in requests.
/// The `[serve]` table's `queue_cap` and the CLI's `--queue-cap` reject
/// larger values, and the gateway clamps its configured capacity to it. The
/// `serve-demo` CLI queues every request of a run at once, so it bounds
/// that run's request count too.
pub const MAX_QUEUE_CAP: usize = 1 << 16;

/// Serving-gateway policy from a scenario's optional `[serve]` table.
///
/// Each field overrides the corresponding gateway default when set. The
/// core crate does not depend on the serving crate, so these are plain
/// values; the CLI folds them into `spikestream-serve`'s `GatewayConfig`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeSettings {
    /// Close a micro-batch once it holds this many samples
    /// (`1..=`[`Compiler::MAX_LAYER_SAMPLES`]: a batch never folds more
    /// layer samples than that, so a larger cap could never be reached).
    pub max_batch: Option<usize>,
    /// Bounded per-tenant queue capacity, in requests
    /// (`1..=`[`MAX_QUEUE_CAP`]).
    pub queue_cap: Option<usize>,
}

/// One declarative batch-inference scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (used in output headers).
    pub name: String,
    /// Network to evaluate.
    pub network: NetworkChoice,
    /// Inference configuration (variant, format, timing, batch, seed).
    pub config: InferenceConfig,
    /// Number of simulated cluster shards the batch is spread over
    /// (`1..=`[`MAX_SHARDS`] in a scenario file).
    pub shards: usize,
    /// Optional neuron-model override applied to every layer (from the
    /// `[neuron_model]` table); `None` keeps each network's built-in LIF
    /// parameters.
    pub neuron: Option<NeuronModel>,
    /// Optional serving-gateway policy (from the `[serve]` table); `None`
    /// leaves the gateway on its defaults.
    pub serve: Option<ServeSettings>,
}

impl Scenario {
    /// The defaults a scenario file overrides: S-VGG11, SpikeStream
    /// variant, FP16, analytic timing, the paper's batch of 128, one
    /// shard.
    pub fn defaults() -> Self {
        Scenario {
            name: "unnamed".to_string(),
            network: NetworkChoice::Svgg11,
            config: InferenceConfig::paper(KernelVariant::SpikeStream, FpFormat::Fp16),
            shards: 1,
            neuron: None,
            serve: None,
        }
    }

    /// Parse a scenario from the TOML-subset text format.
    ///
    /// # Errors
    ///
    /// Returns a line-numbered [`ScenarioError`] for anything outside the
    /// subset: unknown sections or keys, malformed values, missing
    /// `[scenario]` header.
    pub fn parse(text: &str) -> Result<Self, ScenarioError> {
        #[derive(PartialEq)]
        enum Section {
            None,
            Scenario,
            NeuronModel,
            Serve,
        }

        let mut scenario = Scenario::defaults();
        let mut section = Section::None;
        let mut saw_scenario = false;
        let mut saw_neuron = false;
        let mut serve = ServeSettings::default();
        let mut saw_serve = false;
        let mut timesteps: Option<usize> = None;
        let mut encoding: Option<TemporalEncoding> = None;
        // `[neuron_model]` keys, collected raw and assembled after the loop
        // so the `model` selector may appear anywhere in its table.
        let mut neuron_choice: Option<(usize, String)> = None;
        let mut neuron_params: Vec<(usize, String, f32)> = Vec::new();

        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(header) = line.strip_prefix('[') {
                let name = header
                    .strip_suffix(']')
                    .ok_or_else(|| err(lineno, "unterminated section header"))?
                    .trim();
                section = match name {
                    "scenario" => {
                        saw_scenario = true;
                        Section::Scenario
                    }
                    "neuron_model" => {
                        saw_neuron = true;
                        Section::NeuronModel
                    }
                    "serve" => {
                        saw_serve = true;
                        Section::Serve
                    }
                    other => {
                        return Err(err(
                            lineno,
                            format!(
                                "unknown section `[{other}]` (did you mean `[{}]`?)",
                                nearest(other, SECTION_NAMES)
                            ),
                        ))
                    }
                };
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| err(lineno, format!("expected `key = value`, got `{line}`")))?;
            let key = key.trim();
            let value = value.trim();
            if section == Section::None {
                return Err(err(lineno, "keys must appear inside the `[scenario]` section"));
            }
            if section == Section::NeuronModel {
                match key {
                    "model" => neuron_choice = Some((lineno, parse_string(lineno, value)?)),
                    "alpha" | "resistance" | "v_reset" | "v_threshold" | "a" | "b" | "c" | "d" => {
                        neuron_params.push((lineno, key.to_string(), parse_f32(lineno, value)?))
                    }
                    other => {
                        return Err(err(
                            lineno,
                            format!(
                                "unknown key `{other}` in `[neuron_model]` (did you mean \
                                 `{}`?)",
                                nearest(other, NEURON_KEYS)
                            ),
                        ))
                    }
                }
                continue;
            }
            if section == Section::Serve {
                match key {
                    "max_batch" => {
                        let max_batch = parse_u64(lineno, value)?;
                        if max_batch == 0 {
                            return Err(err(lineno, "max_batch must be at least 1"));
                        }
                        if max_batch > Compiler::MAX_LAYER_SAMPLES as u64 {
                            return Err(err(
                                lineno,
                                format!(
                                    "max_batch must be at most {}",
                                    Compiler::MAX_LAYER_SAMPLES
                                ),
                            ));
                        }
                        serve.max_batch = Some(max_batch as usize);
                    }
                    "queue_cap" => {
                        let queue_cap = parse_u64(lineno, value)?;
                        if queue_cap == 0 {
                            return Err(err(lineno, "queue_cap must be at least 1"));
                        }
                        if queue_cap > MAX_QUEUE_CAP as u64 {
                            return Err(err(
                                lineno,
                                format!("queue_cap must be at most {MAX_QUEUE_CAP}"),
                            ));
                        }
                        serve.queue_cap = Some(queue_cap as usize);
                    }
                    other => {
                        return Err(err(
                            lineno,
                            format!(
                                "unknown key `{other}` in `[serve]` (did you mean `{}`?)",
                                nearest(other, SERVE_KEYS)
                            ),
                        ))
                    }
                }
                continue;
            }
            match key {
                "name" => scenario.name = parse_string(lineno, value)?,
                "network" => {
                    scenario.network = match parse_string(lineno, value)?.as_str() {
                        "svgg11" => NetworkChoice::Svgg11,
                        "tiny-cnn" | "tiny" => NetworkChoice::TinyCnn,
                        "tiny-pool" => NetworkChoice::TinyPool,
                        other => {
                            return Err(err(
                                lineno,
                                format!(
                                    "unknown network `{other}` (svgg11 | tiny-cnn | tiny-pool)"
                                ),
                            ))
                        }
                    }
                }
                "variant" => {
                    scenario.config.variant = match parse_string(lineno, value)?.as_str() {
                        "baseline" => KernelVariant::Baseline,
                        "spikestream" => KernelVariant::SpikeStream,
                        other => {
                            return Err(err(
                                lineno,
                                format!("unknown variant `{other}` (baseline | spikestream)"),
                            ))
                        }
                    }
                }
                "format" => {
                    scenario.config.format = match parse_string(lineno, value)?.as_str() {
                        "fp64" => FpFormat::Fp64,
                        "fp32" => FpFormat::Fp32,
                        "fp16" => FpFormat::Fp16,
                        "fp8" => FpFormat::Fp8,
                        other => {
                            return Err(err(
                                lineno,
                                format!("unknown format `{other}` (fp64 | fp32 | fp16 | fp8)"),
                            ))
                        }
                    }
                }
                "timing" => {
                    scenario.config.timing = match parse_string(lineno, value)?.as_str() {
                        "analytic" => TimingModel::Analytic,
                        "cycle-level" | "cycle" => TimingModel::CycleLevel,
                        other => {
                            return Err(err(
                                lineno,
                                format!("unknown timing `{other}` (analytic | cycle-level)"),
                            ))
                        }
                    }
                }
                "batch" => {
                    let batch = parse_u64(lineno, value)? as usize;
                    if batch == 0 {
                        return Err(err(lineno, "batch must be at least 1"));
                    }
                    scenario.config.batch = batch;
                }
                "seed" => scenario.config.seed = parse_u64(lineno, value)?,
                "timesteps" => {
                    let steps = parse_u64(lineno, value)? as usize;
                    if steps == 0 {
                        return Err(err(lineno, "timesteps must be at least 1"));
                    }
                    timesteps = Some(steps);
                }
                "encoding" => {
                    encoding = Some(match parse_string(lineno, value)?.as_str() {
                        "rate" => TemporalEncoding::Rate,
                        "direct" => TemporalEncoding::Direct,
                        other => {
                            return Err(err(
                                lineno,
                                format!("unknown encoding `{other}` (rate | direct)"),
                            ))
                        }
                    });
                }
                "shards" => {
                    let shards = parse_u64(lineno, value)?;
                    if shards == 0 {
                        return Err(err(lineno, "shards must be at least 1"));
                    }
                    if shards > MAX_SHARDS as u64 {
                        return Err(err(lineno, format!("shards must be at most {MAX_SHARDS}")));
                    }
                    scenario.shards = shards as usize;
                }
                other => {
                    return Err(err(
                        lineno,
                        format!(
                            "unknown key `{other}` (did you mean `{}`?)",
                            nearest(other, SCENARIO_KEYS)
                        ),
                    ))
                }
            }
        }

        if !saw_scenario {
            return Err(err(0, "missing `[scenario]` section"));
        }
        if saw_neuron {
            scenario.neuron = Some(assemble_neuron_model(neuron_choice, &neuron_params)?);
        }
        if saw_serve {
            scenario.serve = Some(serve);
        }
        // Either temporal key switches the run to the temporal pipeline;
        // unspecified halves fall back to T = 1 / direct coding.
        if timesteps.is_some() || encoding.is_some() {
            scenario.config.mode = WorkloadMode::Temporal {
                timesteps: timesteps.unwrap_or(1),
                encoding: encoding.unwrap_or(TemporalEncoding::Direct),
            };
        }
        Ok(scenario)
    }

    /// Read and parse a scenario file.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] if the file cannot be read or fails
    /// [`Scenario::parse`].
    pub fn from_file(path: &std::path::Path) -> Result<Self, ScenarioError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| err(0, format!("cannot read {}: {e}", path.display())))?;
        Self::parse(&text)
    }

    /// Build the engine this scenario describes. A `[neuron_model]`
    /// override replaces the built network's per-layer dynamics before the
    /// engine is assembled, so it reaches every compile and serving path.
    pub fn engine(&self) -> Engine {
        let (mut network, profile) = self.network.build(self.config.seed);
        if let Some(model) = self.neuron {
            network.set_neuron_model(model);
        }
        Engine::new(network, profile)
    }

    /// Compile the scenario into a servable [`Plan`].
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] when the configuration fails plan
    /// compilation (e.g. a zero batch).
    pub fn compile(&self) -> Result<Plan, ScenarioError> {
        self.engine().compiler().compile(self.config).map_err(|e| err(0, e.to_string()))
    }

    /// The full-batch serving request this scenario describes, fleet
    /// attribution included.
    pub fn request(&self) -> Request {
        Request::batch(self.config.batch).with_shards(self.shards)
    }
}

/// Section headers the parser accepts.
const SECTION_NAMES: &[&str] = &["scenario", "neuron_model", "serve"];

/// Keys of the `[scenario]` table.
const SCENARIO_KEYS: &[&str] = &[
    "name",
    "network",
    "variant",
    "format",
    "timing",
    "batch",
    "seed",
    "timesteps",
    "encoding",
    "shards",
];

/// Keys of the `[neuron_model]` table (the union of both models' fields).
const NEURON_KEYS: &[&str] =
    &["model", "alpha", "resistance", "v_reset", "v_threshold", "a", "b", "c", "d"];

/// Keys of the `[serve]` table.
const SERVE_KEYS: &[&str] = &["max_batch", "queue_cap"];

/// The candidate with the smallest edit distance to `key` — what the
/// "did you mean" half of an unknown-key error names.
fn nearest<'a>(key: &str, candidates: &[&'a str]) -> &'a str {
    candidates
        .iter()
        .copied()
        .min_by_key(|c| edit_distance(key, c))
        .expect("candidate lists are non-empty")
}

/// Levenshtein distance over bytes, small-string sized.
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut diag = row[0];
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let cost = if ca == cb { diag } else { diag + 1 };
            diag = row[j + 1];
            row[j + 1] = cost.min(row[j] + 1).min(diag + 1);
        }
    }
    row[b.len()]
}

/// Turn the collected `[neuron_model]` keys into a [`NeuronModel`],
/// starting each model from its canonical defaults and rejecting keys
/// that belong to the other model with a line-numbered error.
fn assemble_neuron_model(
    choice: Option<(usize, String)>,
    params: &[(usize, String, f32)],
) -> Result<NeuronModel, ScenarioError> {
    let model = match &choice {
        None => "lif".to_string(),
        Some((line, name)) => match name.as_str() {
            "lif" | "izhikevich" => name.clone(),
            other => return Err(err(*line, format!("unknown model `{other}` (lif | izhikevich)"))),
        },
    };
    if model == "lif" {
        let mut p = LifParams::default();
        for (line, key, value) in params {
            match key.as_str() {
                "alpha" => p.alpha = *value,
                "resistance" => p.resistance = *value,
                "v_threshold" => p.v_threshold = *value,
                "v_reset" => p.v_reset = *value,
                other => {
                    return Err(err(
                        *line,
                        format!(
                            "key `{other}` does not apply to the lif model \
                             (alpha | resistance | v_threshold | v_reset)"
                        ),
                    ))
                }
            }
        }
        Ok(NeuronModel::Lif(p))
    } else {
        let mut p = IzhiParams::regular_spiking();
        for (line, key, value) in params {
            match key.as_str() {
                "a" => p.a = *value,
                "b" => p.b = *value,
                "c" => p.c = *value,
                "d" => p.d = *value,
                "v_threshold" => p.v_threshold = *value,
                other => {
                    return Err(err(
                        *line,
                        format!(
                            "key `{other}` does not apply to the izhikevich model \
                             (a | b | c | d | v_threshold)"
                        ),
                    ))
                }
            }
        }
        Ok(NeuronModel::Izhikevich(p))
    }
}

/// Strip a `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parse a double-quoted string value.
fn parse_string(line: usize, value: &str) -> Result<String, ScenarioError> {
    let inner = value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .ok_or_else(|| err(line, format!("expected a quoted string, got `{value}`")))?;
    if inner.contains('"') {
        return Err(err(line, "embedded quotes are not supported"));
    }
    Ok(inner.to_string())
}

/// Parse an unsigned integer (decimal, or hex with an `0x` prefix;
/// underscores allowed as digit separators).
fn parse_u64(line: usize, value: &str) -> Result<u64, ScenarioError> {
    let cleaned = value.replace('_', "");
    let parsed = match cleaned.strip_prefix("0x").or_else(|| cleaned.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => cleaned.parse(),
    };
    parsed.map_err(|_| err(line, format!("expected an unsigned integer, got `{value}`")))
}

/// Parse a finite float (negative values allowed; underscores allowed as
/// digit separators).
fn parse_f32(line: usize, value: &str) -> Result<f32, ScenarioError> {
    let cleaned = value.replace('_', "");
    match cleaned.parse::<f32>() {
        Ok(v) if v.is_finite() => Ok(v),
        _ => Err(err(line, format!("expected a finite number, got `{value}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL: &str = r#"
# A fully-specified scenario.
[scenario]
name    = "full"          # trailing comment
network = "tiny-cnn"
variant = "baseline"
format  = "fp8"
timing  = "cycle-level"
batch   = 3
seed    = 0xBEEF
shards  = 4
"#;

    #[test]
    fn full_scenario_round_trips_every_key() {
        let s = Scenario::parse(FULL).unwrap();
        assert_eq!(s.name, "full");
        assert_eq!(s.network, NetworkChoice::TinyCnn);
        assert_eq!(s.config.variant, KernelVariant::Baseline);
        assert_eq!(s.config.format, FpFormat::Fp8);
        assert_eq!(s.config.timing, TimingModel::CycleLevel);
        assert_eq!(s.config.batch, 3);
        assert_eq!(s.config.seed, 0xBEEF);
        assert_eq!(s.shards, 4);
    }

    #[test]
    fn omitted_keys_fall_back_to_the_paper_defaults() {
        let s = Scenario::parse("[scenario]\nname = \"d\"\n").unwrap();
        assert_eq!(s.network, NetworkChoice::Svgg11);
        assert_eq!(s.config, InferenceConfig::paper(KernelVariant::SpikeStream, FpFormat::Fp16));
        assert_eq!(s.shards, 1);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let cases = [
            ("[fleet]\n", 1, "unknown section"),
            ("[scenario]\nbogus = 1\n", 2, "unknown key"),
            ("[scenario]\nbatch = \"x\"\n", 2, "unsigned integer"),
            ("[scenario]\nbatch = 0\n", 2, "at least 1"),
            ("[scenario]\nshards = 0\n", 2, "at least 1"),
            ("[scenario]\nshards = 4000000000\n", 2, "at most 1024"),
            ("[scenario]\nnetwork = \"resnet\"\n", 2, "unknown network"),
            ("[scenario]\nname = unquoted\n", 2, "quoted string"),
            ("[scenario]\nnonsense\n", 2, "key = value"),
            ("name = \"early\"\n", 1, "inside the `[scenario]` section"),
            ("", 0, "missing `[scenario]`"),
        ];
        for (text, line, needle) in cases {
            let e = Scenario::parse(text).unwrap_err();
            assert_eq!(e.line, line, "{text:?}: {e}");
            assert!(e.message.contains(needle), "{text:?}: {e}");
        }
    }

    #[test]
    fn temporal_keys_switch_the_workload_mode() {
        let s = Scenario::parse(
            "[scenario]\nname = \"t\"\nnetwork = \"tiny-cnn\"\ntimesteps = 4\nencoding = \"rate\"\n",
        )
        .unwrap();
        assert_eq!(
            s.config.mode,
            WorkloadMode::Temporal { timesteps: 4, encoding: TemporalEncoding::Rate }
        );
        // Either key alone is enough; the other falls back to its default.
        let only_steps = Scenario::parse("[scenario]\ntimesteps = 2\n").unwrap();
        assert_eq!(
            only_steps.config.mode,
            WorkloadMode::Temporal { timesteps: 2, encoding: TemporalEncoding::Direct }
        );
        let only_encoding = Scenario::parse("[scenario]\nencoding = \"direct\"\n").unwrap();
        assert_eq!(
            only_encoding.config.mode,
            WorkloadMode::Temporal { timesteps: 1, encoding: TemporalEncoding::Direct }
        );
        // No temporal keys: the synthetic single-shot path.
        let plain = Scenario::parse("[scenario]\nname = \"p\"\n").unwrap();
        assert_eq!(plain.config.mode, WorkloadMode::Synthetic);
    }

    #[test]
    fn temporal_key_errors_carry_line_numbers() {
        let cases = [
            ("[scenario]\ntimesteps = 0\n", 2, "at least 1"),
            ("[scenario]\ntimesteps = \"x\"\n", 2, "unsigned integer"),
            ("[scenario]\nencoding = \"poisson2\"\n", 2, "unknown encoding"),
            ("[scenario]\nencoding = rate\n", 2, "quoted string"),
        ];
        for (text, line, needle) in cases {
            let e = Scenario::parse(text).unwrap_err();
            assert_eq!(e.line, line, "{text:?}: {e}");
            assert!(e.message.contains(needle), "{text:?}: {e}");
        }
    }

    #[test]
    fn temporal_scenario_runs_with_fleet_statistics() {
        let s = Scenario::parse(
            "[scenario]\nname = \"tt\"\nnetwork = \"tiny-cnn\"\ntiming = \"cycle-level\"\n\
             batch = 3\nshards = 2\ntimesteps = 2\nencoding = \"rate\"\n",
        )
        .unwrap();
        let plan = s.compile().unwrap();
        let mut session = plan.open_session();
        let report = session.infer(&s.request());
        assert_eq!(report.timesteps.as_ref().unwrap().len(), 2);
        assert_eq!(report.shards.as_ref().unwrap().shards.len(), 2);
        let sequential = session.infer(&Request::batch(s.config.batch).sequential());
        assert_eq!(report.without_shard_stats(), sequential);
    }

    #[test]
    fn unknown_keys_and_sections_name_the_nearest_valid_spelling() {
        let e = Scenario::parse("[scenario]\nbatchh = 3\n").unwrap_err();
        assert!(e.message.contains("unknown key `batchh`"), "{e}");
        assert!(e.message.contains("did you mean `batch`"), "{e}");
        let e = Scenario::parse("[scenario]\nshard = 2\n").unwrap_err();
        assert!(e.message.contains("did you mean `shards`"), "{e}");
        let e = Scenario::parse("[neuron-model]\n").unwrap_err();
        assert!(e.message.contains("unknown section `[neuron-model]`"), "{e}");
        assert!(e.message.contains("did you mean `[neuron_model]`"), "{e}");
        let e = Scenario::parse("[scenario]\n[neuron_model]\nalhpa = 0.5\n").unwrap_err();
        assert_eq!(e.line, 3, "{e}");
        assert!(e.message.contains("unknown key `alhpa` in `[neuron_model]`"), "{e}");
        assert!(e.message.contains("did you mean `alpha`"), "{e}");
    }

    #[test]
    fn neuron_model_table_selects_izhikevich_dynamics() {
        let s = Scenario::parse(
            "[scenario]\nname = \"iz\"\nnetwork = \"tiny-cnn\"\n\
             [neuron_model]\nmodel = \"izhikevich\"\na = 0.1\nc = -60.0\n",
        )
        .unwrap();
        let expected = IzhiParams { a: 0.1, c: -60.0, ..IzhiParams::regular_spiking() };
        assert_eq!(s.neuron, Some(NeuronModel::Izhikevich(expected)));
        // The override reaches the compiled network's layers.
        let plan = s.compile().unwrap();
        for layer in plan.network().layers() {
            assert_eq!(layer.neuron, NeuronModel::Izhikevich(expected));
        }
    }

    #[test]
    fn neuron_model_table_tunes_lif_parameters() {
        // `model` defaults to lif; the selector may also trail its params.
        let s = Scenario::parse(
            "[scenario]\nname = \"l\"\n[neuron_model]\nalpha = 0.75\nv_threshold = 2.0\n",
        )
        .unwrap();
        let expected =
            LifParams { alpha: 0.75, v_threshold: 2.0, v_reset: 1.0, ..LifParams::default() };
        assert_eq!(s.neuron, Some(NeuronModel::Lif(expected)));
        let trailing = Scenario::parse(
            "[scenario]\nname = \"l\"\n[neuron_model]\nalpha = 0.75\n\
             v_threshold = 2.0\nmodel = \"lif\"\n",
        )
        .unwrap();
        assert_eq!(trailing.neuron, s.neuron);
        // No table at all: the networks keep their built-in parameters.
        let plain = Scenario::parse("[scenario]\nname = \"p\"\n").unwrap();
        assert_eq!(plain.neuron, None);
    }

    #[test]
    fn neuron_model_errors_carry_line_numbers() {
        let cases = [
            ("[scenario]\n[neuron_model]\nmodel = \"hodgkin\"\n", 3, "unknown model"),
            ("[scenario]\n[neuron_model]\na = \"x\"\n", 3, "finite number"),
            ("[scenario]\n[neuron_model]\nc = nan\n", 3, "finite number"),
            ("[scenario]\n[neuron_model]\nmodel = lif\n", 3, "quoted string"),
            (
                "[scenario]\n[neuron_model]\nmodel = \"lif\"\nd = 8.0\n",
                4,
                "does not apply to the lif model",
            ),
            (
                "[scenario]\n[neuron_model]\nmodel = \"izhikevich\"\nalpha = 0.5\n",
                4,
                "does not apply to the izhikevich model",
            ),
        ];
        for (text, line, needle) in cases {
            let e = Scenario::parse(text).unwrap_err();
            assert_eq!(e.line, line, "{text:?}: {e}");
            assert!(e.message.contains(needle), "{text:?}: {e}");
        }
    }

    #[test]
    fn invalid_neuron_parameters_fail_at_compile_with_a_named_layer() {
        let s = Scenario::parse(
            "[scenario]\nname = \"bad\"\nnetwork = \"tiny-cnn\"\n\
             [neuron_model]\nmodel = \"izhikevich\"\nv_threshold = -80.0\n",
        )
        .unwrap();
        let e = s.compile().unwrap_err();
        assert!(e.message.contains("invalid izhikevich parameters"), "{e}");
        assert!(e.message.contains("conv1"), "{e}");
    }

    #[test]
    fn serve_table_collects_gateway_policy() {
        let s =
            Scenario::parse("[scenario]\nname = \"sv\"\n[serve]\nmax_batch = 16\nqueue_cap = 8\n")
                .unwrap();
        assert_eq!(s.serve, Some(ServeSettings { max_batch: Some(16), queue_cap: Some(8) }));
        // A partial table leaves the omitted knobs unset.
        let partial = Scenario::parse("[scenario]\n[serve]\nmax_batch = 4\n").unwrap();
        assert_eq!(partial.serve, Some(ServeSettings { max_batch: Some(4), queue_cap: None }));
        // No table at all: `None`, the gateway keeps its defaults.
        let plain = Scenario::parse("[scenario]\nname = \"p\"\n").unwrap();
        assert_eq!(plain.serve, None);
    }

    #[test]
    fn serve_table_errors_carry_line_numbers_and_spellings() {
        let cases = [
            ("[scenario]\n[serve]\nmax_batch = 0\n", 3, "at least 1"),
            ("[scenario]\n[serve]\nmax_batch = 4194305\n", 3, "at most 4194304"),
            ("[scenario]\n[serve]\nmax_batch = 18446744073709551615\n", 3, "at most 4194304"),
            ("[scenario]\n[serve]\nqueue_cap = 0\n", 3, "at least 1"),
            ("[scenario]\n[serve]\nqueue_cap = 65537\n", 3, "at most 65536"),
            ("[scenario]\n[serve]\nqueue_cap = \"x\"\n", 3, "unsigned integer"),
            ("[scenario]\n[serve]\nlinger_us = 0\n", 3, "unknown key `linger_us` in `[serve]`"),
        ];
        for (text, line, needle) in cases {
            let e = Scenario::parse(text).unwrap_err();
            assert_eq!(e.line, line, "{text:?}: {e}");
            assert!(e.message.contains(needle), "{text:?}: {e}");
        }
        let e = Scenario::parse("[scenario]\n[serve]\nmax_bath = 4\n").unwrap_err();
        assert_eq!(e.line, 3, "{e}");
        assert!(e.message.contains("unknown key `max_bath` in `[serve]`"), "{e}");
        assert!(e.message.contains("did you mean `max_batch`"), "{e}");
        let e = Scenario::parse("[sevre]\n").unwrap_err();
        assert!(e.message.contains("did you mean `[serve]`"), "{e}");
    }

    #[test]
    fn comments_do_not_break_quoted_values() {
        let s = Scenario::parse("[scenario]\nname = \"has # hash\"\n").unwrap();
        assert_eq!(s.name, "has # hash");
    }

    #[test]
    fn tiny_network_builds_and_validates() {
        let (net, profile) = NetworkChoice::TinyCnn.build(7);
        assert!(net.validate().is_ok());
        assert_eq!(net.len(), 3);
        assert_eq!(profile.rates.len(), 3);
        assert!(net.layers()[0].encodes_input);
    }

    #[test]
    fn scenario_run_matches_its_sequential_reference() {
        let s = Scenario::parse(
            "[scenario]\nname = \"eq\"\nnetwork = \"tiny-cnn\"\nbatch = 6\nshards = 3\n",
        )
        .unwrap();
        let plan = s.compile().unwrap();
        let mut session = plan.open_session();
        let sharded = session.infer(&s.request());
        let sequential = session.infer(&Request::batch(s.config.batch).sequential());
        assert_eq!(sharded.shards.as_ref().unwrap().shards.len(), 3);
        assert_eq!(sharded.without_shard_stats(), sequential);
    }
}
