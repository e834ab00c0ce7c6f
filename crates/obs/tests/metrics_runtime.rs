//! Concurrency and accuracy tests for the live-metrics runtime: counters
//! must be exact under thread hammering, gauge reads must never tear, and
//! the histogram's rank quantiles must stay within one log-linear bucket
//! of the true order statistic.

use std::sync::Arc;
use std::thread;

use proptest::prelude::*;

use slotsel_obs::metrics::AtomicHistogram;
use slotsel_obs::{Metrics, MetricsRegistry};

/// The log-linear grid splits each octave `[2^e, 2^(e+1))` into 8 equal
/// **linear** sub-buckets, so the widest bucket relative to its lower
/// bound is the first of an octave: `[2^e, 2^e · 9/8)`. A returned
/// quantile may exceed the true order statistic by at most that ratio.
const BUCKET_RATIO: f64 = 9.0 / 8.0;

#[test]
fn hammered_counters_are_exact() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 25_000;

    let registry = Arc::new(MetricsRegistry::new());
    thread::scope(|scope| {
        for t in 0..THREADS {
            let registry = Arc::clone(&registry);
            scope.spawn(move || {
                let label = if t % 2 == 0 { "even" } else { "odd" };
                for i in 0..PER_THREAD {
                    registry.counter_add("hammer_total", &[], 1);
                    registry.counter_add("hammer_labeled_total", &[("side", label)], 1);
                    registry.observe("hammer_values", &[], (i % 100) as f64 + 1.0);
                }
            });
        }
    });

    let total = (THREADS as u64) * PER_THREAD;
    assert_eq!(registry.counter_value("hammer_total", &[]), total);
    let even = registry.counter_value("hammer_labeled_total", &[("side", "even")]);
    let odd = registry.counter_value("hammer_labeled_total", &[("side", "odd")]);
    assert_eq!(even, total / 2);
    assert_eq!(odd, total / 2);
    let hist = registry.histogram("hammer_values", &[]).unwrap();
    assert_eq!(hist.count(), total);
    // Each thread observes 250 full cycles of 1..=100 (cycle sum 5050);
    // the values are small integers, so f64 accumulation is exact.
    assert_eq!(hist.sum(), (THREADS as f64) * 250.0 * 5050.0);
}

#[test]
fn gauge_reads_never_tear() {
    // Two writers race distinct bit patterns; any read must be exactly one
    // of them — a torn 32/32 mix would produce a third value.
    const A: f64 = 1.2345678901234567e100;
    const B: f64 = -9.87654321e-200;

    let registry = Arc::new(MetricsRegistry::new());
    registry.gauge_set("torn", &[], A);
    thread::scope(|scope| {
        for pattern in [A, B] {
            let registry = Arc::clone(&registry);
            scope.spawn(move || {
                for _ in 0..50_000 {
                    registry.gauge_set("torn", &[], pattern);
                }
            });
        }
        let reader = Arc::clone(&registry);
        scope.spawn(move || {
            for _ in 0..50_000 {
                let value = reader.gauge_value("torn", &[]).unwrap();
                assert!(
                    value == A || value == B,
                    "torn gauge read: {value:e} is neither written pattern"
                );
            }
        });
    });
}

proptest! {
    // The quantile is the upper bound of the bucket holding the true rank
    // statistic: never below it, never more than one bucket width above.
    #[test]
    fn quantile_rank_error_is_bounded_by_bucket_width(
        values in prop::collection::vec(1.0e-6f64..1.0e9, 1..200),
        q in 0.0f64..=1.0,
    ) {
        let hist = AtomicHistogram::new();
        for &v in &values {
            hist.observe(v);
        }
        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);
        let count = sorted.len() as u64;
        let target = ((q * count as f64).ceil() as u64).clamp(1, count);
        let truth = sorted[(target - 1) as usize];

        let estimate = hist.quantile(q).expect("non-empty histogram");
        prop_assert!(
            estimate >= truth,
            "quantile {q}: estimate {estimate:e} below true rank statistic {truth:e}"
        );
        prop_assert!(
            estimate <= truth * BUCKET_RATIO * (1.0 + 1e-9),
            "quantile {q}: estimate {estimate:e} exceeds {truth:e} by more than a bucket"
        );
    }

    // Counts and sums track every observation exactly (counts) and to
    // f64 round-off (sums), for arbitrary in-range inputs.
    #[test]
    fn histogram_count_and_extremes_are_exact(
        values in prop::collection::vec(1.0e-6f64..1.0e9, 1..100),
    ) {
        let hist = AtomicHistogram::new();
        for &v in &values {
            hist.observe(v);
        }
        prop_assert_eq!(hist.count(), values.len() as u64);
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(hist.min(), Some(min));
        prop_assert_eq!(hist.max(), Some(max));
    }
}
