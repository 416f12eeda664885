//! Declarative scenario files for the `spikestream` CLI.
//!
//! A scenario is a small key/value file (a strict TOML subset: `[table]`
//! headers, `key = value` lines, `#` comments) that names everything one
//! batch-inference run needs: the network, the code variant, the storage
//! format, the timing model, the batch size, the seed and the shard count.
//! The CLI's `run`, `bench` and `compare` subcommands all start from a
//! scenario file, so every fleet experiment is reproducible from a
//! checked-in artifact.
//!
//! ```text
//! # examples/scenarios/tiny_temporal.toml
//! [scenario]
//! name      = "tiny-temporal"
//! network   = "tiny-cnn"      # svgg11 | tiny-cnn | tiny-pool
//! variant   = "spikestream"   # baseline | spikestream
//! format    = "fp16"          # fp64 | fp32 | fp16 | fp8
//! timing    = "cycle-level"   # analytic | cycle-level
//! batch     = 2
//! seed      = 7
//! shards    = 2
//! timesteps = 4               # either temporal key switches the run to
//! encoding  = "rate"          # the T-timestep pipeline
//! ```
//!
//! An optional `[neuron_model]` table overrides every layer's neuron model,
//! and an optional `[serve]` table sets the serving gateway's policy;
//! [`KEY_REFERENCE`] lists every key of the three tables.
//!
//! The parser is hand-rolled (no TOML dependency) and driven by one key
//! table per section, whose rows name each key and its setter; the "did you
//! mean" half of an unknown-key error picks from the same rows. A file line
//! and a CLI override ([`Scenario::set`]) reach a scenario through the same
//! row lookup and setter. The setters share three parsers: a spelling list for
//! the enum keys; a [`Limit`] row for every integer (its name, its range
//! `1..=max` and the one wording of its errors; the CLI's own numbers have
//! rows too); and the quoted-string and finite-float parsers. Anything else
//! is a line-numbered error: an unknown section or key, a malformed or
//! out-of-range value, a section or key given twice (naming the line that
//! gave it first), and a quoted string holding a `"`, a `\` or a control
//! character, since the subset has no escapes.
//!
//! # Example
//!
//! ```
//! use spikestream::Scenario;
//!
//! let mut scenario = Scenario::parse(
//!     "[scenario]\n\
//!      name = \"quick\"\n\
//!      batch = 4\n\
//!      shards = 2\n",
//! )
//! .unwrap();
//! assert_eq!(scenario.name, "quick");
//! // What `spikestream run --shards 3` does to the scenario it read.
//! scenario.set("scenario", "shards", "3").unwrap();
//! let report = scenario.compile().unwrap().open_session().infer(&scenario.request());
//! assert_eq!(report.batch, 4);
//! assert_eq!(report.shards.as_ref().unwrap().shards.len(), 3);
//! ```

use std::borrow::Cow;
use std::fmt;

use snitch_arch::fp::FpFormat;
use spikestream_kernels::KernelVariant;
use spikestream_snn::neuron::LifParams;
use spikestream_snn::tensor::TensorShape;
use spikestream_snn::{
    ConvSpec, FiringProfile, IzhiParams, LinearSpec, Network, NetworkBuilder, NeuronModel,
    PoolSpec, TemporalEncoding,
};

use crate::engine::{Engine, InferenceConfig, TimingModel};
use crate::plan::{Compiler, Plan};
use crate::session::Request;
use crate::sharding::{MAX_SHARDS, MAX_WORKERS};
use FpFormat::{Fp16, Fp32, Fp64, Fp8};
use NetworkChoice::{Svgg11, TinyCnn, TinyPool};
use Setter::{Int, Param, Value};
use TimingModel::{Analytic, CycleLevel};

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
            NetworkChoice::TinyCnn => (Network::tiny_cnn(seed), FiringProfile::uniform(3, 0.25)),
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
        NETWORKS.iter().find(|&&(_, network)| network == self).expect("every network is spelled").0
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

/// Upper bound on a serving-gateway tenant's queue capacity, in requests:
/// the range of [`Limit::QUEUE_CAP`] and [`Limit::FAN_OUT`], and what the
/// gateway clamps its configured capacity to.
pub const MAX_QUEUE_CAP: usize = 1 << 16;

/// The range of one integer input, `1..=max`, and the one wording of its
/// errors. Every integer a scenario key or a CLI flag takes is bounded by
/// exactly one of these rows; the session and the gateway clamp what
/// reaches them in code to the same constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limit {
    /// The key or flag its errors name.
    pub name: &'static str,
    /// The largest value accepted; `usize::MAX` bounds only the minimum.
    pub max: usize,
}

impl Limit {
    /// `batch`, bounded only below: compilation bounds `batch × layers ×
    /// timesteps` by [`Compiler::MAX_LAYER_SAMPLES`].
    pub const BATCH: Limit = Limit { name: "batch", max: usize::MAX };
    /// `timesteps`, bounded like `batch`.
    pub const TIMESTEPS: Limit = Limit { name: "timesteps", max: usize::MAX };
    /// `shards`, and each entry of `bench --shards`.
    pub const SHARDS: Limit = Limit { name: "shards", max: MAX_SHARDS };
    /// `max_batch`: a batch never folds more layer samples than this.
    pub const MAX_BATCH: Limit = Limit { name: "max_batch", max: Compiler::MAX_LAYER_SAMPLES };
    /// `queue_cap`.
    pub const QUEUE_CAP: Limit = Limit { name: "queue_cap", max: MAX_QUEUE_CAP };
    /// `run --workers`.
    pub const WORKERS: Limit = Limit { name: "--workers", max: MAX_WORKERS };
    /// `serve-demo --clients`, one thread each.
    pub const CLIENTS: Limit = Limit { name: "--clients", max: MAX_WORKERS };
    /// `serve-demo --requests-per-client`.
    pub const REQUESTS_PER_CLIENT: Limit =
        Limit { name: "--requests-per-client", max: MAX_QUEUE_CAP };
    /// `serve-demo`'s K × M requests, all queued at once.
    pub const FAN_OUT: Limit =
        Limit { name: "--clients x --requests-per-client", max: MAX_QUEUE_CAP };
    /// `figures --batch`: the paper's S-VGG11 folds `batch × 8` layer samples.
    pub const FIGURES_BATCH: Limit =
        Limit { name: "--batch", max: Compiler::MAX_LAYER_SAMPLES / 8 };

    /// `value` as an integer within the limit (decimal, or hex after `0x`;
    /// `_` separates digits), or the limit's one error message.
    pub fn parse(&self, value: &str) -> Result<usize, String> {
        integer(value)
            .and_then(|n| usize::try_from(n).ok())
            .filter(|&n| self.contains(n))
            .ok_or_else(|| self.error(value))
    }

    /// `n` if it lies within the limit, or the limit's one error message.
    pub fn check(&self, n: usize) -> Result<usize, String> {
        Some(n).filter(|&n| self.contains(n)).ok_or_else(|| self.error(n))
    }

    fn contains(&self, n: usize) -> bool {
        (1..=self.max).contains(&n)
    }

    fn error(&self, got: impl fmt::Display) -> String {
        format!("{} must be an integer ({self}), got `{got}`", self.name)
    }
}

/// The accepted range, as errors and [`KEY_REFERENCE`] print it.
impl fmt::Display for Limit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.max == usize::MAX {
            f.write_str(">= 1")
        } else {
            write!(f, "1..={}", self.max)
        }
    }
}

/// Serving-gateway policy from a scenario's optional `[serve]` table.
///
/// Each field overrides the corresponding gateway default when set. The
/// core crate does not depend on the serving crate, so these are plain
/// values; the CLI folds them into `spikestream-serve`'s `GatewayConfig`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeSettings {
    /// Close a micro-batch once it holds this many samples (within
    /// [`Limit::MAX_BATCH`]).
    pub max_batch: Option<usize>,
    /// Bounded per-tenant queue capacity, in requests (within
    /// [`Limit::QUEUE_CAP`]).
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
    /// Number of simulated cluster shards the batch is spread over (within
    /// [`Limit::SHARDS`] when a file or flag sets it).
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

    /// Parse a scenario from the TOML-subset text format: each `[section]`
    /// header opens its table once, and each `key = value` line goes through
    /// its row's setter once, as [`Scenario::set`] does.
    ///
    /// # Errors
    ///
    /// Returns a line-numbered [`ScenarioError`] for anything outside the
    /// subset: unknown or repeated sections and keys, malformed or
    /// out-of-range values, a missing `[scenario]` header.
    pub fn parse(text: &str) -> Result<Self, ScenarioError> {
        let mut scenario = Scenario::defaults();
        let mut section = None;
        // The line each section was opened on, and each key row given on (no
        // table has more than 16 rows).
        let mut opened = [0; SECTIONS.len()];
        let mut given = [[0; 16]; SECTIONS.len()];
        // `model` may follow the `[neuron_model]` parameters it selects, so
        // they are set once every other line has been.
        let mut params = Vec::new();
        for (lineno, raw) in (1..).zip(text.lines()) {
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(header) = line.strip_prefix('[') {
                let name = header
                    .strip_suffix(']')
                    .ok_or_else(|| err(lineno, "unterminated section header"))?
                    .trim();
                let at = section_index(name).map_err(|message| err(lineno, message))?;
                if opened[at] != 0 {
                    let first = opened[at];
                    return Err(err(lineno, format!("section `[{name}]` repeats line {first}")));
                }
                opened[at] = lineno;
                (SECTIONS[at].open)(&mut scenario);
                section = Some(at);
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| err(lineno, format!("expected `key = value`, got `{line}`")))?;
            let (key, value) = (key.trim(), value.trim());
            let at = section
                .ok_or_else(|| err(lineno, "keys must appear inside the `[scenario]` section"))?;
            let row = row_index(&SECTIONS[at], key).map_err(|message| err(lineno, message))?;
            if given[at][row] != 0 {
                let first = given[at][row];
                return Err(err(lineno, format!("key `{key}` repeats line {first}")));
            }
            given[at][row] = lineno;
            if let Param(..) = SECTIONS[at].keys[row].1 {
                params.push((lineno, at, row, value));
            } else {
                scenario
                    .apply(&SECTIONS[at], row, value)
                    .map_err(|message| err(lineno, message))?;
            }
        }
        if opened[0] == 0 {
            return Err(err(0, "missing `[scenario]` section"));
        }
        for (lineno, at, row, value) in params {
            scenario.apply(&SECTIONS[at], row, value).map_err(|message| err(lineno, message))?;
        }
        Ok(scenario)
    }

    /// Set `key` of the `[section]` table from `value`, spelled as in a
    /// scenario file (strings quoted): the path of a CLI override, through
    /// the row setter a file line takes, so both accept the same spellings,
    /// number syntax and bounds.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] on line 0 for an unknown section or key,
    /// or for a value the key's row rejects; a rejected value's message
    /// starts with the key.
    pub fn set(&mut self, section: &str, key: &str, value: &str) -> Result<(), ScenarioError> {
        let table = &SECTIONS[section_index(section).map_err(|message| err(0, message))?];
        let row = row_index(table, key).map_err(|message| err(0, message))?;
        self.apply(table, row, value).map_err(|message| err(0, message))
    }

    /// Set the key of `table`'s row `row` from `value`.
    fn apply(&mut self, table: &Section, row: usize, value: &str) -> Result<(), String> {
        let (key, setter) = table.keys[row];
        let (lif, izhikevich) = match setter {
            Value(set) => return set(self, key, value),
            Int(limit, store) => return limit.parse(value).map(|n| store(self, n)),
            Param(lif, izhikevich) => (lif, izhikevich),
        };
        // A `[neuron_model]` parameter sets a field of the selected model (LIF
        // until a `model` key selects another), or names the keys it takes.
        let x = finite(key, value)?;
        let model = self.neuron.get_or_insert_with(NeuronModel::default);
        let applied = match model {
            NeuronModel::Lif(p) => lif.map(|set| set(p, x)),
            NeuronModel::Izhikevich(p) => izhikevich.map(|set| set(p, x)),
        };
        applied.ok_or_else(|| {
            let lif_model = matches!(model, NeuronModel::Lif(_));
            let takes = |&(name, setter): &(&'static str, Setter)| match (lif_model, setter) {
                (true, Param(Some(_), _)) | (false, Param(_, Some(_))) => Some(name),
                _ => None,
            };
            let names: Vec<&str> = table.keys.iter().filter_map(takes).collect();
            format!("{key} does not apply to the {} model ({})", model.as_str(), names.join(" | "))
        })
    }

    /// Every key row: its section, its name, and the [`Limit`] of an integer
    /// key.
    pub fn keys() -> impl Iterator<Item = (&'static str, &'static str, Option<Limit>)> {
        SECTIONS.iter().flat_map(|section| {
            section.keys.iter().map(move |&(key, setter)| match setter {
                Int(limit, _) => (section.name, key, Some(limit)),
                Value(_) | Param(..) => (section.name, key, None),
            })
        })
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

    /// The `[serve]` settings, created on first use.
    fn serve_mut(&mut self) -> &mut ServeSettings {
        self.serve.get_or_insert_with(ServeSettings::default)
    }
}

/// One `[section]` of a scenario file: its key table, and what opening it
/// sets before any of its keys.
struct Section {
    name: &'static str,
    open: fn(&mut Scenario),
    keys: &'static [(&'static str, Setter)],
}

type LifField = fn(&mut LifParams, f32);
type IzhiField = fn(&mut IzhiParams, f32);

/// How a key row's value reaches the scenario.
#[derive(Clone, Copy)]
enum Setter {
    /// A string, spelling or seed parser and a store; it takes the key,
    /// which its errors name.
    Value(fn(&mut Scenario, &str, &str) -> Result<(), String>),
    /// An integer within its [`Limit`] row, and its store.
    Int(Limit, fn(&mut Scenario, usize)),
    /// A `[neuron_model]` parameter, a finite float: the field it sets on
    /// each model that takes it.
    Param(Option<LifField>, Option<IzhiField>),
}

/// Every section and its key table: all that a scenario file can say.
static SECTIONS: [Section; 3] = [
    Section {
        name: "scenario",
        open: |_| {},
        keys: &[
            ("name", Value(|s, k, v| quoted(k, v).map(|name| s.name = name.to_owned()))),
            ("network", Value(|s, k, v| spelling(k, v, NETWORKS).map(|n| s.network = n))),
            ("variant", Value(|s, k, v| spelling(k, v, VARIANTS).map(|x| s.config.variant = x))),
            ("format", Value(|s, k, v| spelling(k, v, FORMATS).map(|x| s.config.format = x))),
            ("timing", Value(|s, k, v| spelling(k, v, TIMINGS).map(|x| s.config.timing = x))),
            ("batch", Int(Limit::BATCH, |s, n| s.config.batch = n)),
            ("seed", Value(|s, k, v| unsigned(k, v).map(|seed| s.config.seed = seed))),
            ("timesteps", Int(Limit::TIMESTEPS, |s, n| s.config = s.config.temporal_steps(n))),
            (
                "encoding",
                Value(|s, k, v| {
                    let encoding = spelling(k, v, ENCODINGS)?;
                    s.config = s.config.temporal(s.config.timesteps(), encoding);
                    Ok(())
                }),
            ),
            ("shards", Int(Limit::SHARDS, |s, n| s.shards = n)),
        ],
    },
    Section {
        name: "neuron_model",
        open: |s| s.neuron = Some(NeuronModel::default()),
        keys: &[
            ("model", Value(|s, k, v| spelling(k, v, MODELS).map(|m| s.neuron = Some(m())))),
            ("alpha", Param(Some(|p, x| p.alpha = x), None)),
            ("resistance", Param(Some(|p, x| p.resistance = x), None)),
            ("v_threshold", Param(Some(|p, x| p.v_threshold = x), Some(|p, x| p.v_threshold = x))),
            ("v_reset", Param(Some(|p, x| p.v_reset = x), None)),
            ("a", Param(None, Some(|p, x| p.a = x))),
            ("b", Param(None, Some(|p, x| p.b = x))),
            ("c", Param(None, Some(|p, x| p.c = x))),
            ("d", Param(None, Some(|p, x| p.d = x))),
        ],
    },
    Section {
        name: "serve",
        open: |s| s.serve = Some(ServeSettings::default()),
        keys: &[
            ("max_batch", Int(Limit::MAX_BATCH, |s, n| s.serve_mut().max_batch = Some(n))),
            ("queue_cap", Int(Limit::QUEUE_CAP, |s, n| s.serve_mut().queue_cap = Some(n))),
        ],
    },
];

/// The key reference `spikestream help` prints: every row of the key
/// tables on a line of its own, with the range of its [`Limit`] if it has one.
pub const KEY_REFERENCE: &str = "\
Scenario keys (all optional except the [scenario] header; each table and key
may appear once, and strings are double-quoted with no escapes):
    name      = \"string\"         scenario name, used in output headers
    network   = \"svgg11\"         svgg11 | tiny-cnn | tiny-pool
    variant   = \"spikestream\"    baseline | spikestream
    format    = \"fp16\"           fp64 | fp32 | fp16 | fp8
    timing    = \"analytic\"       analytic | cycle-level
    batch     = 128               batch samples (>= 1)
    seed      = 0xC1FA            workload seed (decimal or 0x hex)
    shards    = 1                 simulated cluster shards (1..=1024)
    timesteps = 4                 temporal-pipeline steps (>= 1; setting this
                                  or `encoding` enables real spike propagation)
    encoding  = \"rate\"           rate | direct (temporal input coding)

Neuron-model keys (optional [neuron_model] table; overrides every layer):
    model       = \"lif\"          lif | izhikevich (default lif)
    alpha       = 0.5             lif: decay factor in [0, 1]
    resistance  = 1.0             lif: membrane resistance (> 0)
    v_threshold = 1.0             firing threshold (lif: > 0; izhikevich: > c)
    v_reset     = 1.0             lif: reset potential (>= 0)
    a           = 0.02            izhikevich: recovery time scale in (0, 1]
    b           = 0.2             izhikevich: recovery sensitivity
    c           = -65.0           izhikevich: after-spike reset potential
    d           = 8.0             izhikevich: after-spike recovery increment

Serving keys (optional [serve] table; defaults for `serve-demo`):
    max_batch   = 64              micro-batch size cap (1..=4194304)
    queue_cap   = 256             per-tenant queue capacity (1..=65536)
";

/// The spellings of the enum keys' values, aliases last.
const NETWORKS: &[(&str, NetworkChoice)] =
    &[("svgg11", Svgg11), ("tiny-cnn", TinyCnn), ("tiny-pool", TinyPool), ("tiny", TinyCnn)];
const VARIANTS: &[(&str, KernelVariant)] =
    &[("baseline", KernelVariant::Baseline), ("spikestream", KernelVariant::SpikeStream)];
const FORMATS: &[(&str, FpFormat)] =
    &[("fp64", Fp64), ("fp32", Fp32), ("fp16", Fp16), ("fp8", Fp8)];
const TIMINGS: &[(&str, TimingModel)] =
    &[("analytic", Analytic), ("cycle-level", CycleLevel), ("cycle", CycleLevel)];
const ENCODINGS: &[(&str, TemporalEncoding)] =
    &[("rate", TemporalEncoding::Rate), ("direct", TemporalEncoding::Direct)];
/// Each model starts from its canonical parameters.
type NewModel = fn() -> NeuronModel;
const MODELS: &[(&str, NewModel)] =
    &[("lif", NeuronModel::default), ("izhikevich", || IzhiParams::regular_spiking().into())];

/// The index of the section named `name` in [`SECTIONS`].
fn section_index(name: &str) -> Result<usize, String> {
    SECTIONS.iter().position(|s| s.name == name).ok_or_else(|| {
        let names = SECTIONS.iter().map(|s| s.name);
        format!("unknown section `[{name}]` (did you mean `[{}]`?)", nearest(name, names))
    })
}

/// The row of `key` in `table`'s key table.
fn row_index(table: &Section, key: &str) -> Result<usize, String> {
    table.keys.iter().position(|&(name, _)| name == key).ok_or_else(|| {
        let nearest = nearest(key, table.keys.iter().map(|&(name, _)| name));
        format!("unknown key `{key}` in `[{}]` (did you mean `{nearest}`?)", table.name)
    })
}

/// The candidate with the smallest edit distance to `key` — what the
/// "did you mean" half of an unknown-key error names.
fn nearest<'a>(key: &str, candidates: impl Iterator<Item = &'a str>) -> &'a str {
    candidates.min_by_key(|c| edit_distance(key, c)).expect("key tables are non-empty")
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

/// A double-quoted string value. The subset has no escapes, so the string
/// may hold no `"`, `\` or control character.
fn quoted<'a>(key: &str, value: &'a str) -> Result<&'a str, String> {
    let inner = value.strip_prefix('"').and_then(|v| v.strip_suffix('"'));
    let plain = |s: &&str| !s.contains(|c: char| c == '"' || c == '\\' || c.is_control());
    inner.filter(plain).ok_or_else(|| {
        format!(
            "{key} must be a quoted string without `\"`, `\\` or control characters, got `{value}`"
        )
    })
}

/// The value a quoted spelling names, from its key's spelling list.
fn spelling<T: Copy>(key: &str, value: &str, spellings: &[(&str, T)]) -> Result<T, String> {
    let word = quoted(key, value)?;
    spellings.iter().find(|(s, _)| *s == word).map(|&(_, t)| t).ok_or_else(|| {
        let names: Vec<&str> = spellings.iter().map(|(s, _)| *s).collect();
        format!("{key} must be one of {}, got `{word}`", names.join(" | "))
    })
}

/// `value` without its `_` digit separators (borrowed when it has none),
/// or `None` if a `_` does not sit between two digits (hex digits after
/// `0x`), the one place TOML allows it.
fn digits(value: &str) -> Option<Cow<'_, str>> {
    if !value.contains('_') {
        return Some(Cow::Borrowed(value));
    }
    let hex = value.starts_with("0x") || value.starts_with("0X");
    let bytes = value.as_bytes();
    let digit = |b: u8| if hex { b.is_ascii_hexdigit() } else { b.is_ascii_digit() };
    let separates =
        |i: usize| i > 0 && i + 1 < bytes.len() && digit(bytes[i - 1]) && digit(bytes[i + 1]);
    (0..bytes.len())
        .filter(|&i| bytes[i] == b'_')
        .all(separates)
        .then(|| Cow::Owned(value.replace('_', "")))
}

/// An unsigned integer, with no bound beyond `u64`.
fn unsigned(key: &str, value: &str) -> Result<u64, String> {
    integer(value).ok_or_else(|| format!("{key} must be an unsigned integer, got `{value}`"))
}

/// An unsigned integer: decimal, or hex after `0x` (unsigned, as in TOML).
fn integer(value: &str) -> Option<u64> {
    let digits = digits(value)?;
    match digits.strip_prefix("0x").or_else(|| digits.strip_prefix("0X")) {
        Some(hex) if hex.starts_with('+') => None,
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => digits.parse().ok(),
    }
}

/// A finite float (negative values allowed).
fn finite(key: &str, value: &str) -> Result<f32, String> {
    match digits(value).map(|digits| digits.parse::<f32>()) {
        Some(Ok(x)) if x.is_finite() => Ok(x),
        _ => Err(format!("{key} must be a finite number, got `{value}`")),
    }
}

#[cfg(test)]
mod tests {
    use spikestream_snn::WorkloadMode;

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
            ("[scenario]\nbatch = \"x\"\n", 2, "batch must be an integer (>= 1), got `\"x\"`"),
            ("[scenario]\nbatch = 0\n", 2, "batch must be an integer (>= 1), got `0`"),
            // `_` only separates two digits: `0_x10` is no hex 16.
            ("[scenario]\nbatch = 0_x10\n", 2, "batch must be an integer (>= 1), got `0_x10`"),
            ("[scenario]\nbatch = _5\n", 2, "batch must be an integer (>= 1), got `_5`"),
            ("[scenario]\nbatch = 5_\n", 2, "batch must be an integer (>= 1), got `5_`"),
            ("[scenario]\nbatch = 1__0\n", 2, "batch must be an integer (>= 1), got `1__0`"),
            ("[scenario]\nbatch = 0x_10\n", 2, "batch must be an integer (>= 1), got `0x_10`"),
            ("[scenario]\nseed = 1_\n", 2, "seed must be an unsigned integer, got `1_`"),
            ("[scenario]\n[neuron_model]\nalpha = 0_.5\n", 3, "alpha must be a finite number"),
            ("[scenario]\n[neuron_model]\nalpha = 0.5_\n", 3, "alpha must be a finite number"),
            ("[scenario]\nshards = 0\n", 2, "shards must be an integer (1..=1024), got `0`"),
            (
                "[scenario]\nshards = 4000000000\n",
                2,
                "shards must be an integer (1..=1024), got `4000000000`",
            ),
            (
                "[scenario]\nnetwork = \"resnet\"\n",
                2,
                "network must be one of svgg11 | tiny-cnn | tiny-pool | tiny, got `resnet`",
            ),
            ("[scenario]\nname = unquoted\n", 2, "quoted string"),
            ("[scenario]\nnonsense\n", 2, "key = value"),
            ("name = \"early\"\n", 1, "inside the `[scenario]` section"),
            ("", 0, "missing `[scenario]`"),
            // A key or a table given twice names the line that gave it first.
            (
                "[scenario]\nnetwork = \"tiny-cnn\"\nbatch = 2\nbatch = 3\n",
                4,
                "key `batch` repeats line 3",
            ),
            (
                "[scenario]\nbatch = 2\n[serve]\n[scenario]\n",
                4,
                "section `[scenario]` repeats line 1",
            ),
            ("[scenario]\n[neuron_model]\na = 0.1\na = 0.2\n", 4, "key `a` repeats line 3"),
            (
                "[scenario]\n[serve]\nqueue_cap = 8\n[serve]\n",
                4,
                "section `[serve]` repeats line 2",
            ),
        ];
        for (text, line, needle) in cases {
            let e = Scenario::parse(text).unwrap_err();
            assert_eq!(e.line, line, "{text:?}: {e}");
            assert!(e.message.contains(needle), "{text:?}: {e}");
        }
    }

    #[test]
    fn underscores_separate_two_digits_only() {
        assert_eq!(integer("1_000"), Some(1000));
        assert_eq!(integer("0x1_0"), Some(16));
        assert_eq!(integer("0Xa_B"), Some(0xAB));
        assert_eq!(finite("alpha", "1_0.2_5"), Ok(10.25));
        assert_eq!(finite("alpha", "-1_0e1_0"), Ok(-10e10));
        assert_eq!(integer("0x+10"), None, "a hex integer has no sign");
        for bad in ["0_x10", "_5", "5_", "1__0", "0x_10", "1_.5", "1._5", "1_e5"] {
            assert_eq!(integer(bad), None, "{bad}");
            assert!(finite("alpha", bad).is_err(), "{bad}");
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
        let mut plain = Scenario::parse("[scenario]\nname = \"p\"\n").unwrap();
        assert_eq!(plain.config.mode, WorkloadMode::Synthetic);
        // `--timesteps` sets the key as a file line would, keeping the
        // encoding.
        let mut rate = Scenario::parse("[scenario]\nencoding = \"rate\"\n").unwrap();
        rate.set("scenario", "timesteps", "0x3").unwrap();
        assert_eq!(
            rate.config.mode,
            WorkloadMode::Temporal { timesteps: 3, encoding: TemporalEncoding::Rate }
        );
        plain.set("scenario", "timesteps", "2").unwrap();
        assert_eq!(plain.config.mode, only_steps.config.mode);
    }

    #[test]
    fn temporal_key_errors_carry_line_numbers() {
        let cases = [
            ("[scenario]\ntimesteps = 0\n", 2, "timesteps must be an integer (>= 1), got `0`"),
            ("[scenario]\ntimesteps = \"x\"\n", 2, "timesteps must be an integer (>= 1)"),
            (
                "[scenario]\nencoding = \"poisson2\"\n",
                2,
                "encoding must be one of rate | direct, got `poisson2`",
            ),
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
            (
                "[scenario]\n[neuron_model]\nmodel = \"hodgkin\"\n",
                3,
                "model must be one of lif | izhikevich, got `hodgkin`",
            ),
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
            (
                "[scenario]\n[serve]\nmax_batch = 0\n",
                3,
                "max_batch must be an integer (1..=4194304)",
            ),
            ("[scenario]\n[serve]\nmax_batch = 4194305\n", 3, "(1..=4194304), got `4194305`"),
            (
                "[scenario]\n[serve]\nmax_batch = 18446744073709551615\n",
                3,
                "(1..=4194304), got `18446744073709551615`",
            ),
            ("[scenario]\n[serve]\nqueue_cap = 0\n", 3, "queue_cap must be an integer (1..=65536)"),
            ("[scenario]\n[serve]\nqueue_cap = 65537\n", 3, "(1..=65536), got `65537`"),
            ("[scenario]\n[serve]\nqueue_cap = \"x\"\n", 3, "(1..=65536), got `\"x\"`"),
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
        // `Scenario::set`, the CLI's path, reports on line 0.
        let mut s = Scenario::defaults();
        let e = s.set("serve", "queue_cap", "65537").unwrap_err();
        let message = "queue_cap must be an integer (1..=65536), got `65537`".to_string();
        assert_eq!(e, ScenarioError { line: 0, message });
        let e = s.set("sevre", "queue_cap", "8").unwrap_err();
        assert_eq!(e.message, "unknown section `[sevre]` (did you mean `[serve]`?)");
    }

    #[test]
    fn comments_do_not_break_quoted_values() {
        let s = Scenario::parse("[scenario]\nname = \"has # hash\"\n").unwrap();
        assert_eq!(s.name, "has # hash");
    }

    #[test]
    fn quoted_strings_take_no_escapes_or_control_characters() {
        // The subset has no escapes: a backslash, an embedded quote or a
        // control character would reach the CLI's JSON output raw.
        for (text, value) in [
            ("[scenario]\nname = \"a\\q\tb\"\n", "\"a\\q\tb\""),
            ("[scenario]\nname = \"a\\\"\n", "\"a\\\""),
            ("[scenario]\nname = \"a\u{1}b\"\n", "\"a\u{1}b\""),
            ("[scenario]\nnetwork = \"tiny\tcnn\"\n", "\"tiny\tcnn\""),
        ] {
            let e = Scenario::parse(text).unwrap_err();
            let key = text[11..].split(' ').next().unwrap();
            let message = format!(
                "{key} must be a quoted string without `\"`, `\\` or control characters, \
                 got `{value}`"
            );
            assert_eq!(e, ScenarioError { line: 2, message }, "{text:?}");
        }
        let s = Scenario::parse("[scenario]\nname = \"tiny-cnn / 8 x 8, T=4\"\n").unwrap();
        assert_eq!(s.name, "tiny-cnn / 8 x 8, T=4");
    }

    #[test]
    fn the_key_reference_lists_every_row_and_its_bound() {
        for (section, key, limit) in Scenario::keys() {
            let line = KEY_REFERENCE
                .lines()
                .find(|line| line.split_once('=').is_some_and(|(name, _)| name.trim() == key))
                .unwrap_or_else(|| panic!("`[{section}] {key}` is missing from the reference"));
            if let Some(limit) = limit {
                assert!(line.contains(&format!("({limit}")), "{key}: {line}");
            }
        }
        for section in ["[scenario]", "[neuron_model]", "[serve]"] {
            assert!(KEY_REFERENCE.contains(section), "{section}");
        }
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
