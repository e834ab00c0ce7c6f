//! Live runtime metrics: atomic counters, gauges and log-linear
//! histograms behind an object-safe [`Metrics`] trait.
//!
//! Where [`crate::recorder::Recorder`] captures a *trace* — an ordered
//! stream of events you analyse after the run — this module captures
//! *aggregates* you can scrape while the run is still going: totals,
//! instantaneous values and latency quantiles. The two share the same
//! zero-cost philosophy: every instrumented hot path is generic over
//! `M: Metrics`, and the [`NoopMetrics`] implementation reports
//! [`enabled()`](Metrics::enabled) `== false` with `#[inline(always)]`
//! empty bodies, so the uninstrumented call monomorphises down to exactly
//! the code that existed before the probes.
//!
//! The live implementation is [`MetricsRegistry`]:
//!
//! - **counters** are one [`AtomicU64`] per series, incremented with a
//!   relaxed add, so concurrent increments sum exactly;
//! - **gauges** ([`Gauge`]) store an `f64` in an [`AtomicU64`] bit
//!   pattern;
//! - **histograms** ([`AtomicHistogram`]) bucket observations on a
//!   log-linear grid — 8 linear sub-buckets per power of two — which bounds
//!   the relative error of any rank-based quantile by the bucket width
//!   (≤ 12.5%) while using a fixed layout.
//!
//! Rendering to the Prometheus text exposition format lives in
//! [`crate::export`]; the scrape endpoint lives in [`crate::http`].

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Label pairs attached to one metric sample, e.g. `&[("policy", "AMP")]`.
///
/// Label *names* are static (they come from the instrumentation site);
/// label *values* may be computed at runtime.
pub type Labels<'a> = [(&'static str, &'a str)];

/// The live-metrics sink threaded through the instrumented layers.
///
/// All methods take `&self` so the trait is object-safe and a single sink
/// can be shared across threads; implementations are expected to be
/// internally synchronised. Like [`crate::recorder::Recorder`], call sites
/// gate any non-trivial argument preparation on
/// [`enabled()`](Metrics::enabled) so the no-op path stays free.
pub trait Metrics {
    /// Whether this sink records anything at all. Instrumented code skips
    /// label construction and timing when this returns `false`.
    fn enabled(&self) -> bool {
        true
    }

    /// Adds `delta` to the counter `name` with the given `labels`.
    fn counter_add(&self, name: &'static str, labels: &Labels<'_>, delta: u64);

    /// Sets the gauge `name` with the given `labels` to `value`.
    fn gauge_set(&self, name: &'static str, labels: &Labels<'_>, value: f64);

    /// Records `value` into the histogram `name` with the given `labels`.
    fn observe(&self, name: &'static str, labels: &Labels<'_>, value: f64);
}

/// Shared references forward, so `&dyn Metrics` (and `&MetricsRegistry`)
/// satisfy generic `M: Metrics` bounds.
impl<M: Metrics + ?Sized> Metrics for &M {
    #[inline]
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    #[inline]
    fn counter_add(&self, name: &'static str, labels: &Labels<'_>, delta: u64) {
        (**self).counter_add(name, labels, delta);
    }

    #[inline]
    fn gauge_set(&self, name: &'static str, labels: &Labels<'_>, value: f64) {
        (**self).gauge_set(name, labels, value);
    }

    #[inline]
    fn observe(&self, name: &'static str, labels: &Labels<'_>, value: f64) {
        (**self).observe(name, labels, value);
    }
}

/// A [`Metrics`] sink that records nothing.
///
/// [`enabled()`](Metrics::enabled) returns `false` and every recording
/// method is an `#[inline(always)]` empty body, so instrumented code
/// monomorphised over `NoopMetrics` compiles to the uninstrumented code.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopMetrics;

impl Metrics for NoopMetrics {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn counter_add(&self, _name: &'static str, _labels: &Labels<'_>, _delta: u64) {}

    #[inline(always)]
    fn gauge_set(&self, _name: &'static str, _labels: &Labels<'_>, _value: f64) {}

    #[inline(always)]
    fn observe(&self, _name: &'static str, _labels: &Labels<'_>, _value: f64) {}
}

/// An instantaneous `f64` value stored as bits in an [`AtomicU64`].
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

impl Gauge {
    /// Creates a gauge at `0.0`.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the value.
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Smallest power-of-two exponent on the histogram grid (`2^-30` ≈ 1 ns in
/// seconds); anything positive but smaller lands in the underflow bucket.
const MIN_EXP: i32 = -30;
/// One past the largest exponent on the grid (`2^34` ≈ 1.7e10); anything
/// `>= 2^34` lands in the overflow bucket.
const MAX_EXP: i32 = 34;
/// Linear sub-buckets per octave (power of two). 8 sub-buckets bound the
/// relative bucket width by `9/8`.
const SUBS: usize = 8;
/// Grid buckets plus one underflow and one overflow bucket.
const BUCKETS: usize = (MAX_EXP - MIN_EXP) as usize * SUBS + 2;
/// Lower edge of the grid.
const MIN_VALUE: f64 = 9.313_225_746_154_785e-10; // 2^-30
/// Upper edge of the grid.
const MAX_VALUE: f64 = 17_179_869_184.0; // 2^34

/// The bucket index for `value`. Index 0 is the underflow bucket
/// (`value < 2^-30`, including zero, negatives and NaN); the last index is
/// the overflow bucket (`value >= 2^34`).
fn bucket_index(value: f64) -> usize {
    if value.is_nan() || value < MIN_VALUE {
        return 0;
    }
    if value >= MAX_VALUE {
        return BUCKETS - 1;
    }
    // `value` is a normal positive float in [2^-30, 2^34): the exponent and
    // the top 3 mantissa bits address the (octave, sub-bucket) cell.
    let bits = value.to_bits();
    let exp = ((bits >> 52) & 0x7FF) as i32 - 1023;
    let sub = ((bits >> 49) & 0x7) as usize;
    1 + (exp - MIN_EXP) as usize * SUBS + sub
}

/// The inclusive upper bound of bucket `index`, as reported by quantiles
/// and the Prometheus `le` labels.
fn bucket_upper_bound(index: usize) -> f64 {
    if index == 0 {
        return MIN_VALUE;
    }
    if index >= BUCKETS - 1 {
        return f64::INFINITY;
    }
    let cell = index - 1;
    let exp = MIN_EXP + (cell / SUBS) as i32;
    let sub = (cell % SUBS) as u64;
    // (1 + (sub+1)/8) * 2^exp; when sub+1 == 8 the mantissa add carries
    // into the exponent field, yielding exactly 2^(exp+1).
    f64::from_bits((((exp + 1023) as u64) << 52) + ((sub + 1) << 49))
}

/// Atomically folds `value` into the `f64` bit pattern at `bits` with `f`.
fn atomic_f64_update(bits: &AtomicU64, value: f64, f: impl Fn(f64, f64) -> f64) {
    let mut current = bits.load(Ordering::Relaxed);
    loop {
        let next = f(f64::from_bits(current), value).to_bits();
        match bits.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(actual) => current = actual,
        }
    }
}

/// A lock-free histogram over a fixed log-linear bucket grid.
///
/// Buckets cover `[2^-30, 2^34)` with 8 linear sub-buckets per
/// octave, plus an underflow and an overflow bucket; the grid comfortably
/// spans nanosecond-scale durations in seconds up to large counts. A
/// rank-based [`quantile`](AtomicHistogram::quantile) reports the upper
/// bound of the bucket holding the rank, so its relative error is bounded
/// by the bucket width: for any in-range sample `v` at the requested rank,
/// `v < quantile ≤ v * 9/8`.
#[derive(Debug)]
pub struct AtomicHistogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        AtomicHistogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }
}

impl AtomicHistogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn observe(&self, value: f64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        atomic_f64_update(&self.sum_bits, value, |sum, v| sum + v);
        atomic_f64_update(&self.min_bits, value, f64::min);
        atomic_f64_update(&self.max_bits, value, f64::max);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    #[must_use]
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Smallest observed value, or `None` before any observation.
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        let v = f64::from_bits(self.min_bits.load(Ordering::Relaxed));
        (v != f64::INFINITY).then_some(v)
    }

    /// Largest observed value, or `None` before any observation.
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        let v = f64::from_bits(self.max_bits.load(Ordering::Relaxed));
        (v != f64::NEG_INFINITY).then_some(v)
    }

    /// The value at quantile `q ∈ [0, 1]` by bucket rank: the upper bound
    /// of the bucket containing the `ceil(q · count)`-th smallest
    /// observation (the observed maximum for the overflow bucket), or
    /// `None` before any observation.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        let target = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).clamp(1, count);
        let mut cumulative = 0u64;
        for (index, bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket.load(Ordering::Relaxed);
            if cumulative >= target {
                if index == BUCKETS - 1 {
                    return self.max();
                }
                return Some(bucket_upper_bound(index));
            }
        }
        self.max()
    }

    /// The non-empty buckets as `(upper_bound, count)` pairs in ascending
    /// bound order, for rendering and tests.
    #[must_use]
    pub fn nonzero_buckets(&self) -> Vec<(f64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(index, bucket)| {
                let count = bucket.load(Ordering::Relaxed);
                (count > 0).then(|| (bucket_upper_bound(index), count))
            })
            .collect()
    }
}

/// Owned label pairs identifying one series inside a family.
type LabelSet = Vec<(&'static str, String)>;

/// One metric family: every label combination seen for one metric name.
type Family<T> = Vec<(LabelSet, Arc<T>)>;

/// `true` when the owned label set matches the borrowed call-site labels.
fn labels_match(owned: &LabelSet, labels: &Labels<'_>) -> bool {
    owned.len() == labels.len()
        && owned
            .iter()
            .zip(labels.iter())
            .all(|((ok, ov), (k, v))| ok == k && ov == v)
}

/// Looks a series up under a read lock, without allocating.
fn lookup<T>(
    map: &RwLock<BTreeMap<&'static str, Family<T>>>,
    name: &str,
    labels: &Labels<'_>,
) -> Option<Arc<T>> {
    let map = map.read().expect("metrics lock poisoned");
    map.get(name)?
        .iter()
        .find(|(owned, _)| labels_match(owned, labels))
        .map(|(_, series)| Arc::clone(series))
}

/// Finds or inserts a series under the write lock.
fn get_or_insert<T: Default>(
    map: &RwLock<BTreeMap<&'static str, Family<T>>>,
    name: &'static str,
    labels: &Labels<'_>,
) -> Arc<T> {
    if let Some(series) = lookup(map, name, labels) {
        return series;
    }
    let mut map = map.write().expect("metrics lock poisoned");
    let family = map.entry(name).or_default();
    if let Some((_, series)) = family.iter().find(|(owned, _)| labels_match(owned, labels)) {
        return Arc::clone(series);
    }
    let owned: LabelSet = labels.iter().map(|&(k, v)| (k, v.to_owned())).collect();
    let series = Arc::new(T::default());
    family.push((owned, Arc::clone(&series)));
    family.sort_by(|(a, _), (b, _)| a.cmp(b));
    series
}

/// An immutable copy of one histogram, taken by
/// [`MetricsRegistry::snapshot`].
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Non-empty buckets as `(upper_bound, count)`, ascending.
    pub buckets: Vec<(f64, u64)>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
}

/// Owned labels of one snapshotted series.
pub type SnapshotLabels = Vec<(String, String)>;

/// Snapshotted series of one metric kind: `(name, labels, value)`.
pub type SnapshotSeries<T> = Vec<(String, SnapshotLabels, T)>;

/// A point-in-time copy of every series in a registry, sorted by
/// `(name, labels)` — the input to [`crate::export::render_prometheus`].
#[derive(Debug, Clone, Default)]
pub struct RegistrySnapshot {
    /// Counter series: `(name, labels, total)`.
    pub counters: SnapshotSeries<u64>,
    /// Gauge series: `(name, labels, value)`.
    pub gauges: SnapshotSeries<f64>,
    /// Histogram series: `(name, labels, snapshot)`.
    pub histograms: SnapshotSeries<HistogramSnapshot>,
}

/// The live [`Metrics`] implementation: a concurrent registry of
/// [`AtomicU64`] counters, [`Gauge`]s and [`AtomicHistogram`]s keyed by
/// `(name, labels)`.
///
/// Series are created on first use. The hot path is a read-lock lookup
/// (no allocation) followed by a relaxed atomic update; the write lock is
/// only taken the first time a `(name, labels)` pair appears.
///
/// # Examples
///
/// ```
/// use slotsel_obs::metrics::{Metrics, MetricsRegistry};
///
/// let registry = MetricsRegistry::new();
/// registry.counter_add("jobs_total", &[("policy", "AMP")], 3);
/// registry.observe("scan_seconds", &[], 0.004);
/// assert_eq!(registry.counter_value("jobs_total", &[("policy", "AMP")]), 3);
/// assert!(registry.quantile("scan_seconds", &[], 0.5).unwrap() >= 0.004);
/// ```
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: RwLock<BTreeMap<&'static str, Family<AtomicU64>>>,
    gauges: RwLock<BTreeMap<&'static str, Family<Gauge>>>,
    histograms: RwLock<BTreeMap<&'static str, Family<AtomicHistogram>>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter's current total, or 0 when the series does not exist.
    #[must_use]
    pub fn counter_value(&self, name: &str, labels: &Labels<'_>) -> u64 {
        lookup(&self.counters, name, labels).map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// The gauge's current value, or `None` when the series does not exist.
    #[must_use]
    pub fn gauge_value(&self, name: &str, labels: &Labels<'_>) -> Option<f64> {
        lookup(&self.gauges, name, labels).map(|g| g.get())
    }

    /// The histogram series, or `None` when it does not exist.
    #[must_use]
    pub fn histogram(&self, name: &str, labels: &Labels<'_>) -> Option<Arc<AtomicHistogram>> {
        lookup(&self.histograms, name, labels)
    }

    /// The histogram's rank quantile (see [`AtomicHistogram::quantile`]),
    /// or `None` when the series does not exist or is empty.
    #[must_use]
    pub fn quantile(&self, name: &str, labels: &Labels<'_>, q: f64) -> Option<f64> {
        self.histogram(name, labels)?.quantile(q)
    }

    /// A point-in-time copy of every series, sorted by `(name, labels)`.
    #[must_use]
    pub fn snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            counters: series(&self.counters, |counter| counter.load(Ordering::Relaxed)),
            gauges: series(&self.gauges, Gauge::get),
            histograms: series(&self.histograms, |histogram| HistogramSnapshot {
                buckets: histogram.nonzero_buckets(),
                count: histogram.count(),
                sum: histogram.sum(),
            }),
        }
    }
}

/// Every series of one kind as `(name, labels, value)`, in `(name,
/// labels)` order.
fn series<T, V>(
    map: &RwLock<BTreeMap<&'static str, Family<T>>>,
    value: impl Fn(&T) -> V,
) -> SnapshotSeries<V> {
    let map = map.read().expect("metrics lock poisoned");
    let mut out = Vec::new();
    for (name, family) in map.iter() {
        for (labels, series) in family {
            out.push(((*name).to_owned(), own_labels(labels), value(series)));
        }
    }
    out
}

/// Converts an owned label set into the snapshot's `(String, String)` form.
fn own_labels(labels: &LabelSet) -> Vec<(String, String)> {
    labels
        .iter()
        .map(|(k, v)| ((*k).to_owned(), v.clone()))
        .collect()
}

impl Metrics for MetricsRegistry {
    fn counter_add(&self, name: &'static str, labels: &Labels<'_>, delta: u64) {
        get_or_insert(&self.counters, name, labels).fetch_add(delta, Ordering::Relaxed);
    }

    fn gauge_set(&self, name: &'static str, labels: &Labels<'_>, value: f64) {
        get_or_insert(&self.gauges, name, labels).set(value);
    }

    fn observe(&self, name: &'static str, labels: &Labels<'_>, value: f64) {
        get_or_insert(&self.histograms, name, labels).observe(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_and_bounds_are_consistent() {
        for &value in &[1e-9, 1e-6, 0.001, 0.5, 1.0, 1.5, 7.0, 1024.0, 1e9] {
            let index = bucket_index(value);
            assert!(index > 0 && index < BUCKETS - 1, "{value} in grid");
            let upper = bucket_upper_bound(index);
            let lower = if index == 1 {
                MIN_VALUE
            } else {
                bucket_upper_bound(index - 1)
            };
            assert!(
                lower <= value && value < upper,
                "{value} in [{lower}, {upper})"
            );
            assert!(upper / lower <= 9.0 / 8.0 + 1e-12, "width bound at {value}");
        }
    }

    #[test]
    fn bucket_edges_and_degenerate_values() {
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-3.0), 0);
        assert_eq!(bucket_index(f64::NAN), 0);
        assert_eq!(bucket_index(MIN_VALUE / 2.0), 0);
        assert_eq!(bucket_index(f64::INFINITY), BUCKETS - 1);
        assert_eq!(bucket_index(MAX_VALUE), BUCKETS - 1);
        assert_eq!(bucket_index(MIN_VALUE), 1);
        assert_eq!(bucket_upper_bound(BUCKETS - 1), f64::INFINITY);
    }

    #[test]
    fn histogram_quantiles_track_ranks() {
        let h = AtomicHistogram::new();
        for i in 1..=1000 {
            h.observe(f64::from(i));
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile(0.5).unwrap();
        assert!((500.0..=500.0 * 1.125).contains(&p50), "p50 {p50}");
        let p99 = h.quantile(0.99).unwrap();
        assert!((990.0..=990.0 * 1.125).contains(&p99), "p99 {p99}");
        assert_eq!(h.quantile(0.0).unwrap(), h.quantile(1.0 / 1000.0).unwrap());
        assert!(h.quantile(1.0).unwrap() >= 1000.0);
    }

    #[test]
    fn registry_round_trips_series() {
        let registry = MetricsRegistry::new();
        registry.counter_add("c", &[("k", "a")], 2);
        registry.counter_add("c", &[("k", "b")], 3);
        registry.gauge_set("g", &[], 1.25);
        registry.observe("h", &[], 0.5);
        assert_eq!(registry.counter_value("c", &[("k", "a")]), 2);
        assert_eq!(registry.counter_value("c", &[("k", "b")]), 3);
        assert_eq!(registry.counter_value("c", &[("k", "missing")]), 0);
        assert_eq!(registry.gauge_value("g", &[]), Some(1.25));
        assert_eq!(registry.histogram("h", &[]).unwrap().count(), 1);
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counters.len(), 2);
        assert_eq!(snapshot.gauges.len(), 1);
        assert_eq!(snapshot.histograms.len(), 1);
    }

    #[test]
    fn noop_is_disabled() {
        assert!(!NoopMetrics.enabled());
        NoopMetrics.counter_add("x", &[], 1);
        let by_ref: &dyn Metrics = &NoopMetrics;
        assert!(!by_ref.enabled());
    }
}
