//! Tenants, per-tenant quotas and admission errors.
//!
//! A live metascheduler serves many users (or projects — the paper's
//! virtual-organisation members) against the same non-dedicated platform,
//! so requests are attributed to a **tenant** and admission control caps
//! what each tenant may hold *in flight*: queued plus committed-but-not-
//! finished work. Quotas bound three dimensions independently:
//!
//! - **nodes** — the sum of `node_count` over in-flight requests, the
//!   tenant's concurrent co-allocation footprint;
//! - **budget** — the sum of request budgets `S` over in-flight requests,
//!   the tenant's outstanding spend commitment;
//! - **pending** — the number of requests queued but not yet committed,
//!   a backpressure bound on batch size.
//!
//! Admission is checked once, at submit time (a breach is a typed
//! [`AdmitError`] the serving layer maps to an HTTP error body): once a
//! request is admitted, its tenant's footprint only falls.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::RequestError;
use crate::money::Money;
use crate::request::ResourceRequest;

/// A tenant (user or project) name attributing submitted requests.
///
/// Free-form but non-empty; ordering and equality are plain string
/// comparison so tenant tables stay deterministic.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TenantId(pub String);

impl TenantId {
    /// Creates a tenant id from any string-like name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        TenantId(name.into())
    }

    /// The tenant name.
    #[must_use]
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for TenantId {
    fn from(name: &str) -> Self {
        TenantId(name.to_owned())
    }
}

/// Per-tenant admission caps. `None` in a dimension means unlimited.
///
/// Budgets are carried as plain credit floats so quota files stay
/// human-writable; comparisons convert through [`Money`] to share the
/// request budget's fixed-point semantics.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct TenantQuota {
    /// Cap on the summed `node_count` of in-flight requests.
    #[serde(default)]
    pub max_nodes: Option<usize>,
    /// Cap on the summed budget (credits) of in-flight requests.
    #[serde(default)]
    pub max_budget: Option<f64>,
    /// Cap on requests queued but not yet committed.
    #[serde(default)]
    pub max_pending: Option<usize>,
}

impl TenantQuota {
    /// A quota that admits everything.
    #[must_use]
    pub fn unlimited() -> Self {
        TenantQuota::default()
    }

    /// The budget cap as [`Money`], if set.
    #[must_use]
    pub fn max_budget_money(&self) -> Option<Money> {
        self.max_budget.map(Money::from_f64)
    }

    /// Checks whether adding a request of `nodes` nodes and `budget`
    /// credits on top of `usage` stays inside this quota.
    ///
    /// # Errors
    ///
    /// Returns the [`AdmitError`] naming the first breached dimension
    /// (pending, then nodes, then budget).
    pub fn admit(
        &self,
        usage: &TenantUsage,
        nodes: usize,
        budget: Money,
    ) -> Result<(), AdmitError> {
        if let Some(max) = self.max_pending {
            if usage.pending + 1 > max {
                return Err(AdmitError::PendingQuotaExceeded {
                    pending: usage.pending,
                    max,
                });
            }
        }
        if let Some(max) = self.max_nodes {
            if usage.nodes_in_flight + nodes > max {
                return Err(AdmitError::NodesQuotaExceeded {
                    in_flight: usage.nodes_in_flight,
                    requested: nodes,
                    max,
                });
            }
        }
        if let Some(max) = self.max_budget_money() {
            if usage.budget_in_flight.saturating_add(budget) > max {
                return Err(AdmitError::BudgetQuotaExceeded {
                    in_flight: usage.budget_in_flight.as_f64(),
                    requested: budget.as_f64(),
                    max: max.as_f64(),
                });
            }
        }
        Ok(())
    }
}

/// A tenant's current in-flight footprint, maintained by the serving
/// layer: charged at admission, released when a request finishes (or is
/// withdrawn), unchanged by the queued→committed transition.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct TenantUsage {
    /// Requests queued but not yet committed.
    pub pending: usize,
    /// Summed `node_count` over in-flight (queued + committed) requests.
    pub nodes_in_flight: usize,
    /// Summed budgets over in-flight requests.
    pub budget_in_flight: Money,
}

impl TenantUsage {
    /// Adds `request` to the in-flight footprint; a `queued` request also
    /// counts as pending.
    pub fn charge(&mut self, request: &ResourceRequest, queued: bool) {
        self.pending += usize::from(queued);
        self.nodes_in_flight += request.node_count();
        self.budget_in_flight = self.budget_in_flight.saturating_add(request.budget());
    }
}

/// Why a submitted request was not admitted.
///
/// Serialized into the HTTP error body verbatim, so each variant carries
/// the numbers a client needs to adapt (current usage, the request's
/// demand, the cap).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AdmitError {
    /// The request itself is malformed (zero nodes, zero volume,
    /// non-positive budget, …).
    InvalidRequest {
        /// The underlying request-validation failure.
        reason: String,
    },
    /// The tenant's pending-request cap is reached.
    PendingQuotaExceeded {
        /// Requests currently pending.
        pending: usize,
        /// The cap.
        max: usize,
    },
    /// Admitting the request would exceed the tenant's node cap.
    NodesQuotaExceeded {
        /// Nodes currently in flight.
        in_flight: usize,
        /// Nodes the request asks for.
        requested: usize,
        /// The cap.
        max: usize,
    },
    /// Admitting the request would exceed the tenant's budget cap.
    BudgetQuotaExceeded {
        /// Credits currently in flight.
        in_flight: f64,
        /// Credits the request asks for.
        requested: f64,
        /// The cap.
        max: f64,
    },
    /// The service only serves tenants named in its quota table, and this
    /// one is not.
    UnknownTenant {
        /// The tenant that submitted.
        tenant: String,
    },
    /// The request named a shard the service does not have.
    UnknownShard {
        /// The shard asked for.
        shard: u32,
        /// How many shards exist.
        shards: u32,
    },
    /// The request asks for more nodes than its shard has, so no cycle
    /// could ever place it.
    Unplaceable {
        /// Nodes the request asks for.
        requested: usize,
        /// Nodes the shard has.
        available: usize,
    },
}

impl AdmitError {
    /// A short machine-readable code, stable across releases — what the
    /// HTTP layer puts in the `error` field of a rejection body.
    #[must_use]
    pub fn code(&self) -> &'static str {
        match self {
            AdmitError::InvalidRequest { .. } => "bad_request",
            AdmitError::PendingQuotaExceeded { .. }
            | AdmitError::NodesQuotaExceeded { .. }
            | AdmitError::BudgetQuotaExceeded { .. } => "quota_exceeded",
            AdmitError::UnknownTenant { .. } => "unknown_tenant",
            AdmitError::UnknownShard { .. } => "unknown_shard",
            AdmitError::Unplaceable { .. } => "unplaceable",
        }
    }
}

impl From<RequestError> for AdmitError {
    fn from(error: RequestError) -> Self {
        AdmitError::InvalidRequest {
            reason: error.to_string(),
        }
    }
}

impl fmt::Display for AdmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmitError::InvalidRequest { reason } => write!(f, "invalid request: {reason}"),
            AdmitError::PendingQuotaExceeded { pending, max } => {
                write!(f, "pending quota exceeded: {pending} pending, cap {max}")
            }
            AdmitError::NodesQuotaExceeded {
                in_flight,
                requested,
                max,
            } => write!(
                f,
                "node quota exceeded: {in_flight} in flight + {requested} requested > cap {max}"
            ),
            AdmitError::BudgetQuotaExceeded {
                in_flight,
                requested,
                max,
            } => write!(
                f,
                "budget quota exceeded: {in_flight} in flight + {requested} requested > cap {max}"
            ),
            AdmitError::UnknownTenant { tenant } => write!(f, "unknown tenant {tenant:?}"),
            AdmitError::UnknownShard { shard, shards } => {
                write!(f, "unknown shard {shard} (service has {shards})")
            }
            AdmitError::Unplaceable {
                requested,
                available,
            } => write!(
                f,
                "request needs {requested} nodes but its shard has {available}"
            ),
        }
    }
}

impl std::error::Error for AdmitError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_quota_admits_everything() {
        let quota = TenantQuota::unlimited();
        let usage = TenantUsage {
            pending: 10_000,
            nodes_in_flight: 10_000,
            budget_in_flight: Money::from_units(1_000_000),
        };
        assert!(quota
            .admit(&usage, 1_000, Money::from_units(1_000_000))
            .is_ok());
    }

    #[test]
    fn each_dimension_is_enforced_independently() {
        let quota = TenantQuota {
            max_nodes: Some(8),
            max_budget: Some(100.0),
            max_pending: Some(2),
        };
        let usage = TenantUsage {
            pending: 1,
            nodes_in_flight: 6,
            budget_in_flight: Money::from_units(60),
        };
        // Fits all three.
        assert!(quota.admit(&usage, 2, Money::from_units(40)).is_ok());
        // Nodes breach.
        match quota.admit(&usage, 3, Money::from_units(1)) {
            Err(AdmitError::NodesQuotaExceeded {
                in_flight,
                requested,
                max,
            }) => {
                assert_eq!((in_flight, requested, max), (6, 3, 8));
            }
            other => panic!("expected a nodes breach, got {other:?}"),
        }
        // Budget breach.
        assert!(matches!(
            quota.admit(&usage, 1, Money::from_units(41)),
            Err(AdmitError::BudgetQuotaExceeded { .. })
        ));
        // Pending breach once the queue is full.
        let full = TenantUsage {
            pending: 2,
            ..usage
        };
        assert!(matches!(
            quota.admit(&full, 1, Money::from_units(1)),
            Err(AdmitError::PendingQuotaExceeded { .. })
        ));
    }

    #[test]
    fn exact_boundary_admits() {
        let quota = TenantQuota {
            max_nodes: Some(4),
            max_budget: Some(50.0),
            max_pending: Some(1),
        };
        let usage = TenantUsage::default();
        assert!(quota.admit(&usage, 4, Money::from_units(50)).is_ok());
    }

    #[test]
    fn codes_are_stable() {
        assert_eq!(
            AdmitError::from(RequestError::ZeroNodes).code(),
            "bad_request"
        );
        assert_eq!(
            AdmitError::NodesQuotaExceeded {
                in_flight: 0,
                requested: 1,
                max: 0
            }
            .code(),
            "quota_exceeded"
        );
        assert_eq!(
            AdmitError::UnknownShard {
                shard: 9,
                shards: 2
            }
            .code(),
            "unknown_shard"
        );
        assert_eq!(
            AdmitError::Unplaceable {
                requested: 100,
                available: 64
            }
            .code(),
            "unplaceable"
        );
    }

    #[test]
    fn quota_roundtrips_through_serde() {
        let quota = TenantQuota {
            max_nodes: Some(8),
            max_budget: Some(123.5),
            max_pending: None,
        };
        let json = serde_json::to_string(&quota).unwrap();
        let back: TenantQuota = serde_json::from_str(&json).unwrap();
        assert_eq!(quota, back);
        // Missing fields default to unlimited.
        let sparse: TenantQuota = serde_json::from_str(r#"{"max_nodes": 3}"#).unwrap();
        assert_eq!(sparse.max_nodes, Some(3));
        assert_eq!(sparse.max_budget, None);
    }

    #[test]
    fn display_is_informative() {
        let text = AdmitError::BudgetQuotaExceeded {
            in_flight: 10.0,
            requested: 5.0,
            max: 12.0,
        }
        .to_string();
        assert!(text.contains("budget quota exceeded"), "{text}");
        assert!(TenantId::new("alice").to_string() == "alice");
    }
}
