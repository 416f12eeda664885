//! `spikestream-serve`: a concurrent serving gateway over `spikestream`'s
//! compile-once serving core.
//!
//! The crate turns the single-caller [`Session`](spikestream::Session)
//! into a multi-tenant service front end, in three pieces:
//!
//! - [`PlanRegistry`] — named tenants, each holding the current
//!   [`Plan`](spikestream::Plan) generation with a monotonically
//!   increasing version. [`Gateway::publish`] hot-swaps a tenant's plan
//!   under live traffic: in-flight batches finish on the old generation
//!   (their results name the version they ran under), queued and later
//!   requests run on the new one, and nothing is dropped.
//! - [`Gateway`] — clients on any thread call [`Gateway::submit`] (or
//!   [`Gateway::submit_timeout`]) with a tenant and a sample list, and
//!   park on the returned [`ResponseHandle`]. The tenant's plan alone
//!   fixes how each sample is evaluated; a request carries no options.
//!   Requests land in a bounded per-tenant queue ([`ServeError::Full`] /
//!   timeout backpressure); a per-tenant dispatcher thread pops the queue
//!   head plus the FIFO prefix that fits under `max_batch` samples —
//!   whatever queued while its previous batch ran — and runs them at once
//!   as one dynamically micro-batched `Session::serve_into` call. Samples
//!   are independently seeded by the core, so a coalesced request's
//!   results are byte-identical to running it alone on a bare session.
//!   Fleet statistics of a response are
//!   [`attribute_shards(&response.cycles(), n)`](spikestream::attribute_shards).
//! - [`GatewayStats`] — deterministic counters (submissions, batches and
//!   their size histogram, rejections, hot swaps, per-tenant queue
//!   depth), all readable without contending with serving.
//!
//! Everything is std threads and condvars — the same parked epoch/condvar
//! idiom as the core's worker pool; no async runtime.
//!
//! ```
//! use spikestream::{Engine, FpFormat, InferenceConfig, KernelVariant};
//! use spikestream_serve::{Gateway, GatewayConfig};
//!
//! let plan = Engine::svgg11(1).compile(&InferenceConfig {
//!     batch: 8,
//!     ..InferenceConfig::paper(KernelVariant::SpikeStream, FpFormat::Fp16)
//! });
//! let gateway = Gateway::new(GatewayConfig::default());
//! gateway.publish("svgg11", plan).unwrap();
//! let handle = gateway.submit("svgg11", &[0, 1]).unwrap();
//! let response = handle.wait().unwrap();
//! assert_eq!(response.plan_version(), 1);
//! assert!(response.report().total_cycles() > 0.0);
//! // Fleet statistics: the request's samples on two simulated shards.
//! let fleet = spikestream::attribute_shards(&response.cycles(), 2);
//! assert_eq!(fleet.shards.len(), 2);
//! ```

mod gateway;
mod registry;
mod stats;

pub use gateway::{Gateway, GatewayResponse, ResponseHandle};
pub use registry::{PlanRegistry, VersionedPlan};
pub use stats::{
    batch_hist_bucket, GatewayStats, TenantStats, BATCH_HIST_BUCKETS, BATCH_HIST_LABELS,
};

/// Gateway-wide serving policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatewayConfig {
    /// Close a micro-batch once it holds this many samples. A single
    /// request larger than the cap still runs, alone.
    pub max_batch: usize,
    /// Bounded per-tenant queue capacity, in requests, clamped to
    /// `1..=`[`MAX_QUEUE_CAP`](spikestream::scenario::MAX_QUEUE_CAP).
    /// Submissions beyond it fail fast ([`ServeError::Full`]) or park with
    /// a timeout ([`Gateway::submit_timeout`]).
    pub queue_cap: usize,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig { max_batch: 64, queue_cap: 256 }
    }
}

/// Everything that can go wrong between submission and response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// No plan has been published under this tenant name.
    UnknownTenant(String),
    /// A request must name at least one sample.
    EmptyRequest,
    /// The tenant's bounded queue is at capacity (fail-fast submission).
    Full {
        /// Tenant whose queue was full.
        tenant: String,
        /// The configured queue capacity.
        cap: usize,
    },
    /// The tenant's queue stayed full for the whole submission timeout.
    Timeout {
        /// Tenant whose queue stayed full.
        tenant: String,
    },
    /// A batch panicked and poisoned the tenant; the payload message is
    /// preserved. Publishing a new plan clears the poison.
    Poisoned(String),
    /// The gateway has been shut down.
    Shutdown,
    /// `samples × layers × timesteps` of one request overflows or exceeds
    /// [`Compiler::MAX_LAYER_SAMPLES`](spikestream::Compiler::MAX_LAYER_SAMPLES)
    /// layer samples. `layers` and `timesteps` are those of the tenant's
    /// published plan. Submission returns it; so does
    /// [`ResponseHandle::wait`] when a hot swap grew the plan after the
    /// request was queued.
    RequestTooLarge {
        /// Samples the request names.
        samples: usize,
        /// Layers in the tenant's network.
        layers: usize,
        /// Timesteps per sample.
        timesteps: usize,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownTenant(name) => write!(f, "unknown tenant `{name}`"),
            ServeError::EmptyRequest => write!(f, "request names no samples"),
            ServeError::Full { tenant, cap } => {
                write!(f, "tenant `{tenant}` queue is full ({cap} requests)")
            }
            ServeError::Timeout { tenant } => {
                write!(f, "timed out waiting for space in tenant `{tenant}` queue")
            }
            ServeError::Poisoned(message) => {
                write!(f, "tenant poisoned by a panicked batch: {message}")
            }
            ServeError::Shutdown => write!(f, "gateway is shut down"),
            ServeError::RequestTooLarge { samples, layers, timesteps } => write!(
                f,
                "{samples} samples x {layers} layers x {timesteps} timesteps exceeds the limit \
                 of {} layer samples per request",
                spikestream::Compiler::MAX_LAYER_SAMPLES
            ),
        }
    }
}

impl std::error::Error for ServeError {}
