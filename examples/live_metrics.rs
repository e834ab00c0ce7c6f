//! Live metrics end to end: a disrupted rolling-horizon simulation runs
//! with a real [`MetricsRegistry`] threaded through every layer, then the
//! registry's Prometheus text rendering is printed — the exact payload
//! `slotsel serve` exposes on `GET /metrics`.
//!
//! The run is the metered twin of `fault_tolerant_rolling`: slots are
//! revoked and nodes fail between commit and execution, and the retry
//! policy re-enqueues the victims. Counters (scans, batches, disruption
//! events), gauges (survival rate) and histograms (cycle/scan latency)
//! all land in the one registry.
//!
//! ```text
//! cargo run --release --example live_metrics
//! ```

use slotsel::core::{Job, JobId, Money, RequestError, ResourceRequest, Volume};
use slotsel::env::{EnvironmentConfig, NodeGenConfig};
use slotsel::obs::{render_prometheus, MetricsRegistry, NoopJournal, Obs};
use slotsel::sim::disruption::DisruptionConfig;
use slotsel::sim::recovery::RecoveryPolicy;
use slotsel::sim::rolling::{simulate_with_recovery_observed, RollingConfig};

fn job(
    id: u32,
    priority: u32,
    nodes: usize,
    volume: u64,
    budget: i64,
) -> Result<Job, RequestError> {
    Ok(Job::new(
        JobId(id),
        priority,
        ResourceRequest::builder()
            .node_count(nodes)
            .volume(Volume::new(volume))
            .budget(Money::from_units(budget))
            .build()?,
    ))
}

fn main() -> Result<(), RequestError> {
    let config = RollingConfig {
        env: EnvironmentConfig {
            nodes: NodeGenConfig::with_count(10),
            ..EnvironmentConfig::paper_default()
        },
        max_cycles: 16,
        disruption: Some(DisruptionConfig::adversarial(42)),
        recovery: RecoveryPolicy::RetryNextCycle {
            backoff: 0,
            max_attempts: 4,
        },
        ..RollingConfig::default()
    };
    let jobs = (0..8)
        .map(|i| job(i, 1 + i % 3, 3, 200 + 50 * u64::from(i), 6_000))
        .collect::<Result<Vec<_>, _>>()?;

    let registry = MetricsRegistry::new();
    let report = simulate_with_recovery_observed(
        &config,
        jobs,
        &mut Obs::dark().with_metrics(&registry),
        &mut NoopJournal,
    );

    println!(
        "ran {} cycles: {} completed, {} starved, survival rate {:.3}",
        report.outcome.cycles.len(),
        report.outcome.completions.len(),
        report.outcome.starved.len(),
        report.survival.survival_rate(),
    );
    if let Some(p95) = registry.quantile("slotsel_rolling_cycle_seconds", &[], 0.95) {
        println!("p95 cycle latency {:.3} ms", p95 * 1e3);
    }
    println!("\n--- Prometheus exposition (what `slotsel serve` scrapes) ---\n");
    print!("{}", render_prometheus(&registry));
    Ok(())
}
