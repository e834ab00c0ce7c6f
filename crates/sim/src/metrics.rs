//! Streaming statistics and per-window metric records.

use serde::{Deserialize, Serialize};

use slotsel_core::window::Window;

use crate::disruption::DisruptionEvent;

/// Welford's online mean/variance accumulator.
///
/// Numerically stable for the long (5000-cycle) experiment runs.
///
/// # Examples
///
/// ```
/// use slotsel_sim::metrics::RunningStats;
///
/// let mut stats = RunningStats::new();
/// for x in [1.0, 2.0, 3.0] {
///     stats.push(x);
/// }
/// assert_eq!(stats.mean(), 2.0);
/// assert_eq!(stats.count(), 3);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    /// `None` until the first observation. Kept as an `Option` rather
    /// than a `±inf` sentinel so the accumulator serializes losslessly —
    /// JSON has no representation for infinities, and recovery snapshots
    /// (`docs/DURABILITY.md`) must round-trip bit-identically.
    min: Option<f64>,
    max: Option<f64>,
}

impl RunningStats {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        RunningStats::default()
    }

    /// Adds one observation.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not finite.
    pub fn push(&mut self, x: f64) {
        assert!(x.is_finite(), "non-finite observation {x}");
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = Some(self.min.map_or(x, |m| m.min(x)));
        self.max = Some(self.max.map_or(x, |m| m.max(x)));
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, or 0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population standard deviation, or 0 for fewer than two observations.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / self.count as f64).sqrt()
        }
    }

    /// Standard error of the mean, or 0 for fewer than two observations.
    #[must_use]
    pub fn std_error(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / (self.count as f64 - 1.0)).sqrt() / (self.count as f64).sqrt()
        }
    }

    /// Normal-approximation 95% confidence interval of the mean.
    ///
    /// Returns `(low, high)`; degenerate (the mean twice) for fewer than
    /// two observations.
    #[must_use]
    pub fn confidence95(&self) -> (f64, f64) {
        let half = 1.96 * self.std_error();
        (self.mean() - half, self.mean() + half)
    }

    /// Smallest observation, or `None` when empty.
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        self.min
    }

    /// Largest observation, or `None` when empty.
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        self.max
    }
}

/// The five quantities the paper's Figures 2–4 compare, extracted from one
/// window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WindowMetrics {
    /// Window start time.
    pub start: f64,
    /// Window runtime (longest composing slot).
    pub runtime: f64,
    /// Window finish time.
    pub finish: f64,
    /// Total processor time (sum of slot lengths).
    pub proc_time: f64,
    /// Total allocation cost.
    pub cost: f64,
}

impl WindowMetrics {
    /// Extracts the metrics from a window.
    #[must_use]
    pub fn of(window: &Window) -> Self {
        WindowMetrics {
            start: window.start().ticks() as f64,
            runtime: window.runtime().ticks() as f64,
            finish: window.finish().ticks() as f64,
            proc_time: window.proc_time().ticks() as f64,
            cost: window.total_cost().as_f64(),
        }
    }
}

/// Accumulated window metrics over many scheduling cycles, plus the number
/// of cycles in which the algorithm failed to find a window.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsAccumulator {
    /// Start-time statistics.
    pub start: RunningStats,
    /// Runtime statistics.
    pub runtime: RunningStats,
    /// Finish-time statistics.
    pub finish: RunningStats,
    /// Processor-time statistics.
    pub proc_time: RunningStats,
    /// Cost statistics.
    pub cost: RunningStats,
    /// Cycles where no window was found.
    pub misses: u64,
}

impl MetricsAccumulator {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        MetricsAccumulator::default()
    }

    /// Records one found window.
    pub fn push(&mut self, metrics: WindowMetrics) {
        self.start.push(metrics.start);
        self.runtime.push(metrics.runtime);
        self.finish.push(metrics.finish);
        self.proc_time.push(metrics.proc_time);
        self.cost.push(metrics.cost);
    }

    /// Records a cycle in which no window was found.
    pub fn push_miss(&mut self) {
        self.misses += 1;
    }

    /// Records one cycle's result: a found window, or a miss.
    pub fn record(&mut self, metrics: Option<WindowMetrics>) {
        match metrics {
            Some(m) => self.push(m),
            None => self.push_miss(),
        }
    }

    /// Number of cycles with a found window.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.start.count()
    }
}

/// Survival bookkeeping of a fault-injected rolling simulation: what was
/// injected, which committed windows it destroyed, and how many of their
/// jobs the recovery policy saved.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SurvivalMetrics {
    /// Free-time revocations injected.
    pub revocations: u64,
    /// Node failures injected.
    pub node_failures: u64,
    /// Node repairs completed.
    pub node_restorations: u64,
    /// Performance degradations injected.
    pub degradations: u64,
    /// Committed windows the disruptions made non-executable.
    pub windows_disrupted: u64,
    /// Victim jobs saved by an immediate migration.
    pub rescued_by_migration: u64,
    /// Victim jobs saved by re-enqueueing into a later cycle.
    pub rescued_by_retry: u64,
    /// Victim jobs that never completed (abandoned, retries exhausted,
    /// migration infeasible, or still waiting when the run ended).
    pub jobs_lost: u64,
    /// Cycles between a job's disruption and its eventual completion
    /// (0 for migrations, which recover within the same cycle).
    pub recovery_latency_cycles: RunningStats,
    /// Cost difference `migrated - original` per successful migration —
    /// the budget overrun the rescue cost.
    pub migration_overrun: RunningStats,
    /// Repaired schedules that failed the replay audit. Recovery
    /// re-validates everything it commits, so any non-zero count is a bug.
    pub audit_failures: u64,
}

impl SurvivalMetrics {
    /// Creates empty survival metrics.
    #[must_use]
    pub fn new() -> Self {
        SurvivalMetrics::default()
    }

    /// Counts one injected disruption event.
    pub fn record_event(&mut self, event: &DisruptionEvent) {
        match event {
            DisruptionEvent::SlotRevoked { .. } => self.revocations += 1,
            DisruptionEvent::NodeFailed { .. } => self.node_failures += 1,
            DisruptionEvent::NodeRestored { .. } => self.node_restorations += 1,
            DisruptionEvent::NodeDegraded { .. } => self.degradations += 1,
        }
    }

    /// Total disruptions injected, over all kinds.
    #[must_use]
    pub fn events_injected(&self) -> u64 {
        self.revocations + self.node_failures + self.node_restorations + self.degradations
    }

    /// Victim jobs that eventually completed, by either rescue path.
    #[must_use]
    pub fn rescued(&self) -> u64 {
        self.rescued_by_migration + self.rescued_by_retry
    }

    /// Fraction of disrupted windows whose jobs still completed; 1 when
    /// nothing was disrupted.
    #[must_use]
    pub fn survival_rate(&self) -> f64 {
        let resolved = self.rescued() + self.jobs_lost;
        if resolved == 0 {
            return 1.0;
        }
        self.rescued() as f64 / resolved as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_stats_basic() {
        let mut s = RunningStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn empty_stats_are_neutral() {
        let s = RunningStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn single_observation_has_zero_std() {
        let mut s = RunningStats::new();
        s.push(3.5);
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.std_dev(), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn rejects_nan() {
        RunningStats::new().push(f64::NAN);
    }

    #[test]
    fn confidence_interval_shrinks_with_samples() {
        let mut small = RunningStats::new();
        let mut large = RunningStats::new();
        for i in 0..10 {
            small.push(f64::from(i % 5));
        }
        for i in 0..1_000 {
            large.push(f64::from(i % 5));
        }
        let (lo_s, hi_s) = small.confidence95();
        let (lo_l, hi_l) = large.confidence95();
        assert!(
            hi_l - lo_l < hi_s - lo_s,
            "more samples must tighten the interval"
        );
        assert!(lo_l <= large.mean() && large.mean() <= hi_l);
    }

    #[test]
    fn degenerate_confidence_interval() {
        let mut s = RunningStats::new();
        s.push(4.0);
        assert_eq!(s.confidence95(), (4.0, 4.0));
        assert_eq!(s.std_error(), 0.0);
    }

    #[test]
    fn empty_and_loaded_stats_round_trip_through_serde() {
        // Empty stats must serialize losslessly: the old ±inf sentinels
        // had no JSON representation, which would corrupt recovery
        // snapshots carrying untouched accumulators.
        let empty = RunningStats::new();
        let json = serde_json::to_string(&empty).unwrap();
        let back: RunningStats = serde_json::from_str(&json).unwrap();
        assert_eq!(empty, back);

        let mut loaded = RunningStats::new();
        for x in [0.25, -3.5, 17.0] {
            loaded.push(x);
        }
        let json = serde_json::to_string(&loaded).unwrap();
        let back: RunningStats = serde_json::from_str(&json).unwrap();
        assert_eq!(loaded, back, "bit-exact f64 round-trip");
    }

    #[test]
    fn window_metrics_extraction() {
        use slotsel_core::money::Money;
        use slotsel_core::node::NodeId;
        use slotsel_core::slot::SlotId;
        use slotsel_core::time::{TimeDelta, TimePoint};
        use slotsel_core::window::WindowSlot;

        let w = Window::new(
            TimePoint::new(10),
            vec![
                WindowSlot::new(
                    SlotId(0),
                    NodeId(0),
                    TimeDelta::new(30),
                    Money::from_units(90),
                ),
                WindowSlot::new(
                    SlotId(1),
                    NodeId(1),
                    TimeDelta::new(50),
                    Money::from_units(110),
                ),
            ],
        );
        let m = WindowMetrics::of(&w);
        assert_eq!(m.start, 10.0);
        assert_eq!(m.runtime, 50.0);
        assert_eq!(m.finish, 60.0);
        assert_eq!(m.proc_time, 80.0);
        assert_eq!(m.cost, 200.0);
    }

    #[test]
    fn accumulator_counts_hits_and_misses() {
        let mut acc = MetricsAccumulator::new();
        acc.push(WindowMetrics {
            start: 1.0,
            runtime: 2.0,
            finish: 3.0,
            proc_time: 4.0,
            cost: 5.0,
        });
        acc.push(WindowMetrics {
            start: 3.0,
            runtime: 4.0,
            finish: 7.0,
            proc_time: 8.0,
            cost: 9.0,
        });
        acc.push_miss();
        assert_eq!(acc.hits(), 2);
        assert_eq!(acc.misses, 1);
        assert_eq!(acc.start.mean(), 2.0);
        assert_eq!(acc.cost.mean(), 7.0);
    }

    #[test]
    fn survival_metrics_count_events_and_rates() {
        use slotsel_core::node::{NodeId, Performance};
        use slotsel_core::time::{Interval, TimePoint};

        let mut s = SurvivalMetrics::new();
        assert_eq!(s.survival_rate(), 1.0, "no disruptions: perfect survival");
        s.record_event(&DisruptionEvent::SlotRevoked {
            node: NodeId(0),
            span: Interval::new(TimePoint::new(0), TimePoint::new(10)),
        });
        s.record_event(&DisruptionEvent::NodeFailed {
            node: NodeId(1),
            repair_cycles: 2,
        });
        s.record_event(&DisruptionEvent::NodeRestored { node: NodeId(1) });
        s.record_event(&DisruptionEvent::NodeDegraded {
            node: NodeId(2),
            from: Performance::new(8),
            to: Performance::new(4),
        });
        assert_eq!(s.revocations, 1);
        assert_eq!(s.node_failures, 1);
        assert_eq!(s.node_restorations, 1);
        assert_eq!(s.degradations, 1);
        assert_eq!(s.events_injected(), 4);

        s.rescued_by_migration = 2;
        s.rescued_by_retry = 1;
        s.jobs_lost = 1;
        assert_eq!(s.rescued(), 3);
        assert!((s.survival_rate() - 0.75).abs() < 1e-12);
    }
}
