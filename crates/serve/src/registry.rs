//! The gateway's tenant table: [`PlanRegistry`].
//!
//! The table maps tenant names to tenants, and each tenant's state holds
//! the plan generation currently serving it, so a tenant's version, queue
//! and session counters live in one place, under one lock. Publishing
//! ([`Gateway::publish`](crate::Gateway::publish)) is a *hot swap*: the
//! new generation replaces the old one under the tenant's lock, while
//! readers that resolved the previous [`VersionedPlan`] keep serving from
//! their own `Arc` until they next look the tenant up — nothing in flight
//! is invalidated, and every result can name the exact version it ran
//! under.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

use spikestream::Plan;

use crate::gateway::Tenant;
use crate::ServeError;

/// One published plan generation of a tenant: the immutable compiled
/// [`Plan`] plus the monotonically increasing version number its publish
/// stamped it with (first publish is version 1).
///
/// Holders of a `VersionedPlan` own the plan for as long as they keep the
/// `Arc` — a later publish never tears a generation out from under a
/// dispatcher that is mid-batch on it.
#[derive(Debug, Clone)]
pub struct VersionedPlan {
    /// The compiled plan of this generation.
    pub plan: Arc<Plan>,
    /// Monotonic per-tenant publish counter (1 for the first publish).
    pub version: u64,
}

/// The gateway's tenant table, from tenant name to tenant. Its public side
/// reads: [`PlanRegistry::get`]. Tenants are added and swapped only by
/// [`Gateway::publish`](crate::Gateway::publish), which also keeps each
/// tenant's dispatcher running.
pub struct PlanRegistry {
    pub(crate) tenants: Mutex<BTreeMap<String, Arc<Tenant>>>,
}

impl PlanRegistry {
    /// The current generation of tenant `name`, if published.
    pub fn get(&self, name: &str) -> Option<Arc<VersionedPlan>> {
        let tenant = self.tenant(name).ok()?;
        let plan = Arc::clone(&tenant.lock().plan);
        Some(plan)
    }

    /// Tenant `name`, or [`ServeError::UnknownTenant`] if it was never
    /// published.
    pub(crate) fn tenant(&self, name: &str) -> Result<Arc<Tenant>, ServeError> {
        self.lock().get(name).cloned().ok_or_else(|| ServeError::UnknownTenant(name.to_string()))
    }

    /// Lock the table. Never poisoned (see the gateway module's docs):
    /// under this guard run only map lookups and inserts, and the tenant
    /// guards taken inside it.
    pub(crate) fn lock(&self) -> MutexGuard<'_, BTreeMap<String, Arc<Tenant>>> {
        self.tenants.lock().expect("tenant table poisoned")
    }
}

impl std::fmt::Debug for PlanRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.lock().keys()).finish()
    }
}

#[cfg(test)]
mod tests {
    use crate::{Gateway, GatewayConfig};
    use spikestream::{Engine, FpFormat, InferenceConfig, KernelVariant, Plan};

    fn plan() -> Plan {
        Engine::svgg11(1).compile(&InferenceConfig {
            batch: 2,
            ..InferenceConfig::paper(KernelVariant::SpikeStream, FpFormat::Fp16)
        })
    }

    #[test]
    fn versions_are_monotonic_per_tenant() {
        let gateway = Gateway::new(GatewayConfig::default());
        assert_eq!(gateway.publish("a", plan()), Ok(1));
        assert_eq!(gateway.publish("b", plan()), Ok(1));
        assert_eq!(gateway.publish("a", plan()), Ok(2));
        let registry = gateway.registry();
        let version = |name| registry.get(name).map(|generation| generation.version);
        assert_eq!((version("a"), version("b"), version("c")), (Some(2), Some(1), None));
        assert_eq!(format!("{registry:?}"), r#"{"a", "b"}"#);
    }

    #[test]
    fn old_generations_survive_a_hot_swap() {
        let gateway = Gateway::new(GatewayConfig::default());
        gateway.publish("a", plan()).expect("publish");
        let old = gateway.registry().get("a").expect("published");
        gateway.publish("a", plan()).expect("republish");
        // The swapped-out generation is still fully usable through the
        // retained Arc — in-flight batches finish on it.
        assert_eq!(old.version, 1);
        let report = old.plan.open_session().infer(&spikestream::Request::batch(2));
        assert!(report.total_cycles() > 0.0);
        assert_eq!(gateway.registry().get("a").expect("published").version, 2);
    }
}
