//! The AEP scan: a single linear pass over the ordered slot list.
//!
//! The **A**lgorithm searching for **E**xtreme **P**erformance walks the
//! slot list in non-decreasing start order, maintaining the *extended
//! window* — the set of alive slots that could still host a task anchored
//! at the current window start. After each admission it prunes slots whose
//! remainder became too short, and if at least `n` candidates remain it asks
//! a [`SelectionPolicy`] to pick the best `n`-subset and scores the
//! resulting window. The best-scoring window over all steps is returned.
//!
//! The scan never looks back: it visits each of the `m` slots exactly once.
//! One loop runs it for every policy, over one of two forms of the
//! extended window. Policies whose picks walk a cost or length order
//! ([`SelectionPolicy::uses_pool`]) get an incremental [`CandidatePool`]
//! that keeps the candidates ordered across steps (`O(log m')` per
//! admission/eviction), so their per-step subset selection never re-sorts
//! — this is what actually delivers the linear-in-`m` working time the
//! paper claims for all AEP implementations (§2.2, Table 1). Every other
//! policy gets a plain admission-ordered vector pruned with one retain
//! pass per admission. The historical sort-per-step formulation is
//! retained verbatim in [`crate::reference`] as a correctness oracle and
//! benchmark baseline.
//!
//! # Examples
//!
//! ```
//! use slotsel_core::algorithms::{MinCost, SlotSelector};
//! use slotsel_core::money::Money;
//! use slotsel_core::node::{NodeSpec, Performance, Platform, Volume};
//! use slotsel_core::request::ResourceRequest;
//! use slotsel_core::slotlist::SlotList;
//! use slotsel_core::time::{Interval, TimePoint};
//!
//! # fn main() -> Result<(), slotsel_core::error::RequestError> {
//! let platform: Platform = (0..3)
//!     .map(|i| {
//!         NodeSpec::builder(i)
//!             .performance(Performance::new(2 + i))
//!             .price_per_unit(Money::from_units(i64::from(2 + i)))
//!             .build()
//!     })
//!     .collect();
//! let mut slots = SlotList::new();
//! for node in &platform {
//!     slots.add(
//!         node.id(),
//!         Interval::new(TimePoint::new(0), TimePoint::new(600)),
//!         node.performance(),
//!         node.price_per_unit(),
//!     );
//! }
//! let request = ResourceRequest::builder()
//!     .node_count(2)
//!     .volume(Volume::new(100))
//!     .budget(Money::from_units(10_000))
//!     .build()?;
//! let window = MinCost.select(&platform, &slots, &request);
//! assert!(window.is_some());
//! # Ok(())
//! # }
//! ```

use slotsel_obs::{NoopRecorder, Obs, Phase, Recorder, TraceEvent};

use crate::node::Platform;
use crate::pool::CandidatePool;
use crate::request::ResourceRequest;
use crate::selectors::{build_window, Candidate};
use crate::slot::Slot;
use crate::slotlist::{Iter, SlotList};
use crate::time::TimePoint;
use crate::treeslots::{PruneSpec, PrunedCursor};
use crate::window::Window;

/// The pluggable step of the AEP scan: subset selection and window scoring.
///
/// `pick` is the paper's `getBestWindow`, `score` its `getCriterion`.
/// Implementations must be consistent: `score` has to be the criterion that
/// `pick` extremises at each step, otherwise the scan's "best over all
/// steps" result loses its meaning.
///
/// The scan keeps the extended window in one of two forms, chosen by
/// [`uses_pool`](SelectionPolicy::uses_pool): a plain admission-ordered
/// vector handed to [`pick`](SelectionPolicy::pick), or the incremental
/// [`CandidatePool`] handed to [`pick_pool`](SelectionPolicy::pick_pool).
/// Either way the picked indices go into one buffer the scan owns and
/// reuses across steps.
pub trait SelectionPolicy {
    /// Human-readable policy name for reports.
    fn name(&self) -> &str;

    /// Picks the best `n`-subset of `alive` for a window anchored at
    /// `window_start`, writing indices into `alive` to `picked`. Returns
    /// `false` when no subset satisfies the budget; `picked` then holds
    /// nothing the caller reads.
    ///
    /// `alive` lists the extended window in admission order. `picked`
    /// arrives empty and its capacity is reused from step to step, so a
    /// pick that only writes into it allocates nothing once it has grown.
    /// The scan calls this method for every policy that does not
    /// [`use the pool`](SelectionPolicy::uses_pool); the reference scan
    /// calls it for every policy.
    fn pick(
        &mut self,
        window_start: TimePoint,
        alive: &[Candidate],
        request: &ResourceRequest,
        picked: &mut Vec<usize>,
    ) -> bool;

    /// Whether the scan keeps the extended window in a [`CandidatePool`]
    /// and picks through [`pick_pool`](SelectionPolicy::pick_pool).
    ///
    /// The pool keeps the candidates cost- and length-ordered across
    /// steps, which pays off for picks that walk those orders at every
    /// step (MinCost, MinRunTime and MinFinish return `true`). Every
    /// other pick — first-fit, arrival order, random draws, per-step
    /// score vectors — runs cheaper on the plain vector with one retain
    /// pass per admission, which is the default.
    fn uses_pool(&self) -> bool {
        false
    }

    /// Picks the best `n`-subset directly from the scan's
    /// [`CandidatePool`], writing arena ids to `picked` under the same
    /// contract as [`pick`](SelectionPolicy::pick).
    ///
    /// The scan calls it only for a policy whose
    /// [`uses_pool`](SelectionPolicy::uses_pool) is `true`, and such a
    /// policy must pick the same subsets `pick` would, in the same order:
    /// the reference scan drives `pick` and must agree with it.
    ///
    /// # Panics
    ///
    /// The provided method panics; a policy that uses the pool overrides
    /// it.
    fn pick_pool(
        &mut self,
        _window_start: TimePoint,
        _pool: &CandidatePool,
        _request: &ResourceRequest,
        _picked: &mut Vec<usize>,
    ) -> bool {
        unreachable!("{} uses the pool but does not pick from it", self.name())
    }

    /// Scores a picked window; **lower is better**.
    fn score(&self, window: &Window) -> f64;

    /// When `true` the scan stops at the first suitable window — AMP's
    /// earliest-start behaviour, where later steps can never improve.
    fn stop_at_first(&self) -> bool {
        false
    }
}

/// Tuning knobs for [`scan_with`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ScanOptions {
    /// Stop scanning once no later window could beat the current best.
    ///
    /// Sound only for criteria that are bounded below by the window start
    /// (start or finish time): a window anchored at `t` can never finish
    /// before `t`, so once `best score ≤ t` the scan may stop. The paper's
    /// measured algorithms do **not** prune (Table 1 shows MinFinish paying
    /// the full scan cost); pruning is offered here as an extension and is
    /// exercised by the ablation benchmarks.
    pub prune_start_bounded: bool,
}

/// Counters describing one scan, for tests, reports and benchmarks.
#[derive(Debug, Clone, Default)]
pub struct ScanStats {
    /// Slots admitted into the extended window (passed the hardware check
    /// and were long enough in principle).
    pub slots_admitted: usize,
    /// Slots visited but never admitted: wrong hardware for the request,
    /// or too short for the task even when fully used. On a tree-backed
    /// scan this includes slots the aggregate-pruned cursor skipped
    /// without visiting — the skip predicate is exactly the rejection
    /// predicate, so the tally matches the plain scan's.
    pub slots_rejected: usize,
    /// Scan steps at which a suitable window existed and was evaluated.
    pub windows_evaluated: usize,
    /// Largest size the extended window reached.
    pub peak_extended_window: usize,
    /// Whole subtrees the aggregate-pruned tree cursor skipped without
    /// visiting their slots. Always 0 on `Vec`-backed scans. Diagnostic
    /// only: excluded from equality.
    pub subtrees_skipped: usize,
    /// Maximal runs of consecutive skipped slots the pruned cursor jumped
    /// over. Always 0 on `Vec`-backed scans. Diagnostic only: excluded
    /// from equality.
    pub windows_jumped: usize,
}

impl PartialEq for ScanStats {
    /// Equality compares the four scan counters only. The pruning tallies
    /// are diagnostics: by contract a pruned tree scan and a plain `Vec`
    /// scan of the same scenario produce *equal* stats while reporting
    /// different pruning work, and every differential oracle (fuzz
    /// checks, store equivalence, the reference scan) relies on that.
    fn eq(&self, other: &Self) -> bool {
        self.slots_admitted == other.slots_admitted
            && self.slots_rejected == other.slots_rejected
            && self.windows_evaluated == other.windows_evaluated
            && self.peak_extended_window == other.peak_extended_window
    }
}

impl Eq for ScanStats {}

/// Result of [`scan_with`]: the best window plus scan counters.
#[derive(Debug, Clone)]
pub struct ScanOutcome {
    /// The best window by the policy's criterion, if any window was found.
    pub best: Option<Window>,
    /// Scan counters.
    pub stats: ScanStats,
}

/// Runs the AEP scan and returns the best window by the policy's criterion.
///
/// Equivalent to [`scan_with`] with default [`ScanOptions`], discarding the
/// statistics.
#[must_use]
pub fn scan(
    platform: &Platform,
    slots: &SlotList,
    request: &ResourceRequest,
    policy: &mut dyn SelectionPolicy,
) -> Option<Window> {
    scan_with(platform, slots, request, policy, ScanOptions::default()).best
}

/// Runs the AEP scan with explicit options, returning the best window and
/// scan statistics.
///
/// Slots whose node fails the request's hardware/software requirements, or
/// that are too short for the task even when fully used, never enter the
/// extended window. With a deadline set, candidates that cannot complete by
/// it are pruned and the scan stops once window starts pass the deadline.
///
/// On a tree-backed [`SlotList`] (and without
/// [`prune_start_bounded`](ScanOptions::prune_start_bounded)) the scan
/// walks an aggregate-pruned cursor instead of the plain iterator,
/// skipping whole subtrees of provably-rejected slots; results, stats and
/// traces are identical, with the pruning work reported in
/// [`ScanStats::subtrees_skipped`] and [`ScanStats::windows_jumped`].
///
/// Equivalent to [`scan_observed`] with [`Obs::dark`].
#[must_use]
pub fn scan_with(
    platform: &Platform,
    slots: &SlotList,
    request: &ResourceRequest,
    policy: &mut dyn SelectionPolicy,
    options: ScanOptions,
) -> ScanOutcome {
    scan_observed(platform, slots, request, policy, options, &mut Obs::dark())
}

/// Runs the AEP scan, reporting to the observer context.
///
/// On top of [`scan_with`]'s behaviour:
///
/// - the **recorder** receives [`TraceEvent::ScanStarted`] /
///   [`TraceEvent::ScanFinished`] bracketing the scan (the latter carrying
///   the full [`ScanStats`]), a [`TraceEvent::BestUpdated`] for every
///   improvement of the best-so-far window (the paper's `maxCriterion`
///   updates), an `"aep.alive"` sample of the extended-window size at
///   every admission, and an `"aep.scan"` wall-clock timing;
/// - the **metrics** sink receives, labelled with the policy name, the
///   counters `slotsel_scan_total`, `slotsel_scan_windows_found_total`,
///   `slotsel_scan_slots_admitted_total`,
///   `slotsel_scan_slots_rejected_total`,
///   `slotsel_scan_windows_evaluated_total`,
///   `slotsel_scan_subtrees_skipped_total`,
///   `slotsel_scan_windows_jumped_total` (the aggregate-pruned cursor's
///   work on tree-backed lists; 0 on `Vec` lists),
///   `slotsel_pool_evicted_superseded_total` and
///   `slotsel_pool_evicted_expired_total`, plus the histograms
///   `slotsel_scan_seconds` and `slotsel_scan_alive_peak`;
/// - the **span** sink receives one `"aep.scan"` span, parented under
///   whatever span is open on it, carrying the policy name, the same
///   tallies as the counters and whether a window was found.
///
/// The recorder is checked once: a dark one runs the scan loop
/// monomorphised over [`NoopRecorder`], so the per-slot probes are dead
/// code and [`Obs::dark`] costs a few sink calls that read no clock and
/// allocate nothing.
#[must_use]
pub fn scan_observed(
    platform: &Platform,
    slots: &SlotList,
    request: &ResourceRequest,
    policy: &mut dyn SelectionPolicy,
    options: ScanOptions,
    obs: &mut Obs<'_>,
) -> ScanOutcome {
    let phase = obs.timed_phase("aep.scan");
    let (outcome, evictions) = if obs.recorder.enabled() {
        scan_body(
            platform,
            slots,
            request,
            policy,
            options,
            &mut *obs.recorder,
        )
    } else {
        scan_body(platform, slots, request, policy, options, &mut NoopRecorder)
    };
    report_scan(obs, phase, policy.name(), &outcome, evictions);
    outcome
}

/// Runs the scan loop over the extended window the policy picks from.
fn scan_body<R: Recorder + ?Sized>(
    platform: &Platform,
    slots: &SlotList,
    request: &ResourceRequest,
    policy: &mut dyn SelectionPolicy,
    options: ScanOptions,
    recorder: &mut R,
) -> (ScanOutcome, Evictions) {
    if policy.uses_pool() {
        let window = CandidatePool::new();
        scan_loop(window, platform, slots, request, policy, options, recorder)
    } else {
        // Pre-sized for the n needed plus churn slack, sparing the early
        // growth reallocations.
        let window = AdmissionOrder::with_capacity(2 * request.node_count().max(4));
        scan_loop(window, platform, slots, request, policy, options, recorder)
    }
}

/// `(superseded, expired)` extended-window evictions of one scan; only
/// the metrics sink reads them.
pub(crate) type Evictions = (u64, u64);

/// Reports one observed scan and ends its `"aep.scan"` phase: the scan's
/// counters and histograms, and its span's attributes, both read off one
/// tally list, so the two sinks cannot drift apart. The scan and the
/// reference scan share it, so both report the same signals.
pub(crate) fn report_scan(
    obs: &mut Obs<'_>,
    phase: Phase,
    policy: &str,
    outcome: &ScanOutcome,
    (superseded, expired): Evictions,
) {
    let stats = &outcome.stats;
    // (span attribute, metrics counter, value)
    let tallies = [
        (
            "slots_admitted",
            "slotsel_scan_slots_admitted_total",
            stats.slots_admitted,
        ),
        (
            "slots_rejected",
            "slotsel_scan_slots_rejected_total",
            stats.slots_rejected,
        ),
        (
            "windows_evaluated",
            "slotsel_scan_windows_evaluated_total",
            stats.windows_evaluated,
        ),
        (
            "subtrees_skipped",
            "slotsel_scan_subtrees_skipped_total",
            stats.subtrees_skipped,
        ),
        (
            "windows_jumped",
            "slotsel_scan_windows_jumped_total",
            stats.windows_jumped,
        ),
        (
            "found",
            "slotsel_scan_windows_found_total",
            usize::from(outcome.best.is_some()),
        ),
    ];
    let labels = [("policy", policy)];
    let metrics = obs.metrics;
    if metrics.enabled() {
        metrics.counter_add("slotsel_scan_total", &labels, 1);
        for (attr, counter, value) in tallies {
            // A scan that found nothing leaves the found series alone.
            if attr != "found" || value > 0 {
                metrics.counter_add(counter, &labels, value as u64);
            }
        }
        metrics.counter_add("slotsel_pool_evicted_superseded_total", &labels, superseded);
        metrics.counter_add("slotsel_pool_evicted_expired_total", &labels, expired);
        #[allow(clippy::cast_precision_loss)]
        metrics.observe(
            "slotsel_scan_alive_peak",
            &labels,
            stats.peak_extended_window as f64,
        );
    }
    if obs.spans.enabled() {
        obs.spans.attr_str("policy", policy);
        for (attr, _, value) in tallies {
            obs.spans.attr_u64(attr, value as u64);
        }
    }
    phase.end(obs, Some(("slotsel_scan_seconds", &labels)));
}

/// The slot stream the scan loop consumes: the plain in-order iterator,
/// or — when the list is tree-backed — the aggregate-pruned cursor that
/// skips whole subtrees of provably-rejected slots.
///
/// The pruned cursor only ever skips slots the scan preamble would
/// *reject* (wrong hardware when nothing on the platform admits the
/// request, or too short for the volume) and never a slot at or past the
/// deadline, where the scan breaks instead of rejecting. Rejected slots
/// influence nothing but the `slots_rejected` tally — they emit no
/// events, never touch the extended window and don't advance the
/// `BestUpdated` step counter (which counts admissions) — so skipping
/// them wholesale leaves windows, stats and traces byte-identical to the
/// plain scan once [`settle`](Self::settle) credits the skip count.
enum ScanStream<'a> {
    Plain(Iter<'a>),
    Pruned(PrunedCursor<'a>),
}

impl<'a> ScanStream<'a> {
    /// Picks the stream for one scan. The pruned cursor engages only for
    /// tree-backed lists without `prune_start_bounded`: that option
    /// breaks at the first *visited* slot past the best score — rejected
    /// slots included — so its break point depends on slots the cursor
    /// would skip.
    fn for_scan(
        platform: &Platform,
        slots: &'a SlotList,
        request: &ResourceRequest,
        options: ScanOptions,
    ) -> Self {
        if !options.prune_start_bounded {
            if let Some(tree) = slots.as_tree() {
                let admit_any = platform
                    .iter()
                    .any(|node| request.requirements().admits(node));
                return ScanStream::Pruned(tree.pruned_iter(PruneSpec {
                    volume: request.volume().work(),
                    deadline: request.deadline().map(TimePoint::ticks),
                    admit_any,
                }));
            }
        }
        ScanStream::Plain(slots.iter())
    }

    fn next(&mut self) -> Option<&'a Slot> {
        match self {
            ScanStream::Plain(iter) => iter.next(),
            ScanStream::Pruned(cursor) => cursor.next(),
        }
    }

    /// Folds the cursor's pruning tallies into `stats`: skipped slots are
    /// rejections the scan never had to visit. Must run before the
    /// `ScanFinished` event so its `slots_rejected` matches the plain
    /// scan's byte-for-byte.
    fn settle(self, stats: &mut ScanStats) {
        if let ScanStream::Pruned(cursor) = self {
            stats.slots_rejected += cursor.skipped_slots();
            stats.subtrees_skipped = cursor.subtrees_skipped();
            stats.windows_jumped = cursor.windows_jumped();
        }
    }
}

/// The extended window as the scan loop drives it: the candidates that
/// could still host a task anchored at the current window start.
///
/// Both forms hold the same candidates in the same admission order after
/// every step, so the loop's stats, traces and eviction tallies do not
/// depend on which one a policy picks from.
trait ExtendedWindow {
    /// Admits `candidate` at its own start, the scan's new window start.
    /// Supersedes the candidate on the same node (a node hosts at most one
    /// task), then evicts every candidate whose remainder became too short
    /// or, under `deadline`, that can no longer finish in time. A
    /// candidate that could not finish in time from its own start never
    /// enters: it was never alive, so it is no eviction either.
    fn admit(&mut self, candidate: Candidate, deadline: Option<TimePoint>);

    /// Number of alive candidates, the extended window size `m'`.
    fn len(&self) -> usize;

    /// Asks `policy` for the best `n`-subset, written to `picked`.
    fn pick(
        &self,
        policy: &mut dyn SelectionPolicy,
        window_start: TimePoint,
        request: &ResourceRequest,
        picked: &mut Vec<usize>,
    ) -> bool;

    /// Materialises a pick into a window anchored at `window_start`.
    fn build_window(&self, window_start: TimePoint, picked: &[usize]) -> Window;

    /// `(superseded, expired)` evictions so far.
    fn evictions(&self) -> Evictions;
}

impl ExtendedWindow for CandidatePool {
    fn admit(&mut self, candidate: Candidate, deadline: Option<TimePoint>) {
        let window_start = candidate.slot.start();
        CandidatePool::admit(self, candidate, deadline);
        self.advance(window_start);
    }

    fn len(&self) -> usize {
        CandidatePool::len(self)
    }

    fn pick(
        &self,
        policy: &mut dyn SelectionPolicy,
        window_start: TimePoint,
        request: &ResourceRequest,
        picked: &mut Vec<usize>,
    ) -> bool {
        policy.pick_pool(window_start, self, request, picked)
    }

    fn build_window(&self, window_start: TimePoint, picked: &[usize]) -> Window {
        CandidatePool::build_window(self, window_start, picked)
    }

    fn evictions(&self) -> Evictions {
        CandidatePool::evictions(self)
    }
}

/// The extended window as a plain vector in admission order, pruned with
/// one retain pass per admission — the representation the reference scan
/// keeps, for policies whose picks need no order maintained across steps.
struct AdmissionOrder {
    alive: Vec<Candidate>,
    superseded: u64,
    expired: u64,
}

impl AdmissionOrder {
    fn with_capacity(capacity: usize) -> Self {
        AdmissionOrder {
            alive: Vec::with_capacity(capacity),
            superseded: 0,
            expired: 0,
        }
    }
}

impl ExtendedWindow for AdmissionOrder {
    fn admit(&mut self, candidate: Candidate, deadline: Option<TimePoint>) {
        let window_start = candidate.slot.start();
        let node = candidate.slot.node();
        let survives = |c: &Candidate| {
            c.alive_at(window_start) && deadline.is_none_or(|d| window_start + c.length <= d)
        };
        self.alive.retain(|c| {
            if c.slot.node() == node {
                self.superseded += 1;
                false
            } else if survives(c) {
                true
            } else {
                self.expired += 1;
                false
            }
        });
        if survives(&candidate) {
            self.alive.push(candidate);
        }
    }

    fn len(&self) -> usize {
        self.alive.len()
    }

    fn pick(
        &self,
        policy: &mut dyn SelectionPolicy,
        window_start: TimePoint,
        request: &ResourceRequest,
        picked: &mut Vec<usize>,
    ) -> bool {
        policy.pick(window_start, &self.alive, request, picked)
    }

    fn build_window(&self, window_start: TimePoint, picked: &[usize]) -> Window {
        build_window(window_start, &self.alive, picked)
    }

    fn evictions(&self) -> Evictions {
        (self.superseded, self.expired)
    }
}

/// The AEP scan loop over either form of the extended window. Returns the
/// outcome plus the window's `(superseded, expired)` eviction counts for
/// the metrics layer.
fn scan_loop<W: ExtendedWindow, R: Recorder + ?Sized>(
    mut alive: W,
    platform: &Platform,
    slots: &SlotList,
    request: &ResourceRequest,
    policy: &mut dyn SelectionPolicy,
    options: ScanOptions,
    recorder: &mut R,
) -> (ScanOutcome, Evictions) {
    let n = request.node_count();
    // One pick buffer for the whole scan: picks write into it instead of
    // allocating a vector per consulted step.
    let mut picked: Vec<usize> = Vec::with_capacity(2 * n.max(4));
    let mut stats = ScanStats::default();
    let mut best: Option<(f64, Window)> = None;

    // The policy name is fetched (and allocated) once per scan, not once
    // per emitted event — `pick` can fire thousands of events on long
    // slot lists.
    let policy_name: Option<String> = recorder.enabled().then(|| policy.name().to_string());
    if let Some(name) = &policy_name {
        recorder.emit(TraceEvent::ScanStarted {
            policy: name.clone(),
            nodes_requested: n as u64,
            slots_total: slots.len() as u64,
        });
    }

    let mut stream = ScanStream::for_scan(platform, slots, request, options);
    while let Some(slot) = stream.next() {
        let window_start = slot.start();

        if let Some(deadline) = request.deadline() {
            // Later slots only start later; nothing can finish in time.
            if window_start >= deadline {
                break;
            }
        }
        if options.prune_start_bounded {
            if let Some((best_score, _)) = &best {
                if *best_score <= window_start.ticks() as f64 {
                    break;
                }
            }
        }

        // properHardwareAndSoftware: the node must satisfy the request.
        let admitted = platform
            .get(slot.node())
            .is_some_and(|node| request.requirements().admits(node));
        if !admitted {
            stats.slots_rejected += 1;
            continue;
        }
        let candidate = Candidate::new(*slot, request.volume());
        if slot.length() < candidate.length {
            stats.slots_rejected += 1;
            continue; // Too short even when fully used.
        }
        alive.admit(candidate, request.deadline());
        stats.slots_admitted += 1;
        stats.peak_extended_window = stats.peak_extended_window.max(alive.len());
        if recorder.enabled() {
            #[allow(clippy::cast_precision_loss)]
            recorder.observe("aep.alive", alive.len() as f64);
        }

        if alive.len() < n {
            continue;
        }
        picked.clear();
        if alive.pick(policy, window_start, request, &mut picked) {
            debug_assert_eq!(picked.len(), n, "policy must pick exactly n slots");
            let window = alive.build_window(window_start, &picked);
            let score = policy.score(&window);
            stats.windows_evaluated += 1;
            let improved = best.as_ref().is_none_or(|(s, _)| score < *s);
            if improved {
                if let Some(name) = &policy_name {
                    recorder.emit(TraceEvent::BestUpdated {
                        policy: name.clone(),
                        step: stats.slots_admitted as u64,
                        window_start: window_start.ticks(),
                        score,
                    });
                }
                best = Some((score, window));
            }
            if policy.stop_at_first() {
                break;
            }
        }
    }

    stream.settle(&mut stats);

    if let Some(name) = policy_name {
        recorder.emit(TraceEvent::ScanFinished {
            policy: name,
            slots_admitted: stats.slots_admitted as u64,
            slots_rejected: stats.slots_rejected as u64,
            windows_evaluated: stats.windows_evaluated as u64,
            peak_alive: stats.peak_extended_window as u64,
            subtrees_skipped: stats.subtrees_skipped as u64,
            windows_jumped: stats.windows_jumped as u64,
            found: best.is_some(),
            best_score: best.as_ref().map_or(0.0, |(score, _)| *score),
        });
    }

    (
        ScanOutcome {
            best: best.map(|(_, w)| w),
            stats,
        },
        alive.evictions(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::criteria::{Criterion, WindowCriterion};
    use crate::money::Money;
    use crate::node::{NodeId, NodeSpec, Performance, Volume};
    use crate::selectors::cheapest_n;
    use crate::time::Interval;

    /// A policy picking the cheapest n, scoring by an arbitrary criterion.
    struct CheapestBy {
        criterion: Criterion,
        first: bool,
    }

    impl SelectionPolicy for CheapestBy {
        fn name(&self) -> &str {
            "cheapest-by"
        }
        fn pick(
            &mut self,
            _window_start: TimePoint,
            alive: &[Candidate],
            request: &ResourceRequest,
            picked: &mut Vec<usize>,
        ) -> bool {
            cheapest_n(alive, request.node_count(), request.budget(), picked)
        }
        fn score(&self, window: &Window) -> f64 {
            self.criterion.score(window)
        }
        fn stop_at_first(&self) -> bool {
            self.first
        }
    }

    fn platform(perfs: &[u32]) -> Platform {
        perfs
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                NodeSpec::builder(i as u32)
                    .performance(Performance::new(p))
                    .price_per_unit(Money::from_units(i64::from(p)))
                    .build()
            })
            .collect()
    }

    fn full_slots(platform: &Platform, end: i64) -> SlotList {
        let mut list = SlotList::new();
        for node in platform {
            list.add(
                node.id(),
                Interval::new(TimePoint::new(0), TimePoint::new(end)),
                node.performance(),
                node.price_per_unit(),
            );
        }
        list
    }

    fn request(n: usize, volume: u64, budget: i64) -> ResourceRequest {
        ResourceRequest::builder()
            .node_count(n)
            .volume(Volume::new(volume))
            .budget(Money::from_units(budget))
            .build()
            .unwrap()
    }

    #[test]
    fn finds_window_on_idle_platform() {
        let p = platform(&[2, 4, 8]);
        let slots = full_slots(&p, 600);
        let mut policy = CheapestBy {
            criterion: Criterion::MinTotalCost,
            first: false,
        };
        let outcome = scan_with(
            &p,
            &slots,
            &request(2, 100, 100_000),
            &mut policy,
            ScanOptions::default(),
        );
        let w = outcome.best.expect("window exists");
        assert_eq!(w.start(), TimePoint::ZERO);
        assert_eq!(w.size(), 2);
        assert_eq!(outcome.stats.slots_admitted, 3);
    }

    #[test]
    fn no_window_when_too_few_nodes() {
        let p = platform(&[2, 4]);
        let slots = full_slots(&p, 600);
        let mut policy = CheapestBy {
            criterion: Criterion::MinTotalCost,
            first: false,
        };
        assert!(scan(&p, &slots, &request(3, 100, 100_000), &mut policy).is_none());
    }

    #[test]
    fn no_window_when_budget_too_small() {
        let p = platform(&[2, 2]);
        let slots = full_slots(&p, 600);
        // 100 work on perf 2 = 50 units at price 2 -> 100 each, 200 total.
        let mut policy = CheapestBy {
            criterion: Criterion::MinTotalCost,
            first: false,
        };
        assert!(scan(&p, &slots, &request(2, 100, 199), &mut policy).is_none());
        assert!(scan(&p, &slots, &request(2, 100, 200), &mut policy).is_some());
    }

    #[test]
    fn slots_too_short_never_admitted() {
        let p = platform(&[2]);
        let mut slots = SlotList::new();
        // 100 work on perf 2 needs 50; the slot is only 40 long.
        slots.add(
            NodeId(0),
            Interval::new(TimePoint::new(0), TimePoint::new(40)),
            Performance::new(2),
            Money::from_units(1),
        );
        let mut policy = CheapestBy {
            criterion: Criterion::MinTotalCost,
            first: false,
        };
        let outcome = scan_with(
            &p,
            &slots,
            &request(1, 100, 1_000),
            &mut policy,
            ScanOptions::default(),
        );
        assert!(outcome.best.is_none());
        assert_eq!(outcome.stats.slots_admitted, 0);
    }

    #[test]
    fn later_start_prunes_stale_candidates() {
        let p = platform(&[2, 2, 2]);
        let mut slots = SlotList::new();
        // Node 0 free [0, 60): can host a 50-long task only if anchored <= 10.
        slots.add(
            NodeId(0),
            Interval::new(TimePoint::new(0), TimePoint::new(60)),
            Performance::new(2),
            Money::from_units(1),
        );
        // Nodes 1, 2 free from t=20: anchoring there evicts node 0.
        for i in 1..3 {
            slots.add(
                NodeId(i),
                Interval::new(TimePoint::new(20), TimePoint::new(600)),
                Performance::new(2),
                Money::from_units(1),
            );
        }
        let mut policy = CheapestBy {
            criterion: Criterion::EarliestStart,
            first: true,
        };
        let w = scan(&p, &slots, &request(2, 100, 1_000), &mut policy).unwrap();
        assert_eq!(w.start(), TimePoint::new(20));
        let nodes: Vec<NodeId> = w.slots().iter().map(|s| s.node()).collect();
        assert!(
            !nodes.contains(&NodeId(0)),
            "node 0's remainder is too short at t=20"
        );
    }

    #[test]
    fn stop_at_first_returns_earliest() {
        let p = platform(&[2, 2, 2, 2]);
        let mut slots = SlotList::new();
        for (i, start) in [(0u32, 0i64), (1, 0), (2, 100), (3, 100)] {
            slots.add(
                NodeId(i),
                Interval::new(TimePoint::new(start), TimePoint::new(600)),
                Performance::new(2),
                Money::from_units(1),
            );
        }
        let mut first = CheapestBy {
            criterion: Criterion::EarliestStart,
            first: true,
        };
        let w = scan(&p, &slots, &request(2, 100, 1_000), &mut first).unwrap();
        assert_eq!(w.start(), TimePoint::ZERO);
    }

    #[test]
    fn full_scan_improves_over_first() {
        // Later window is cheaper: full scan must find it, first-fit must not.
        let p: Platform = vec![
            NodeSpec::builder(0)
                .performance(Performance::new(2))
                .price_per_unit(Money::from_units(10))
                .build(),
            NodeSpec::builder(1)
                .performance(Performance::new(2))
                .price_per_unit(Money::from_units(10))
                .build(),
            NodeSpec::builder(2)
                .performance(Performance::new(2))
                .price_per_unit(Money::from_units(1))
                .build(),
            NodeSpec::builder(3)
                .performance(Performance::new(2))
                .price_per_unit(Money::from_units(1))
                .build(),
        ]
        .into_iter()
        .collect();
        let mut slots = SlotList::new();
        for node in &p {
            let start = if node.id().index() < 2 { 0 } else { 200 };
            slots.add(
                node.id(),
                Interval::new(TimePoint::new(start), TimePoint::new(600)),
                node.performance(),
                node.price_per_unit(),
            );
        }
        let req = request(2, 100, 10_000);
        let mut full = CheapestBy {
            criterion: Criterion::MinTotalCost,
            first: false,
        };
        let w = scan(&p, &slots, &req, &mut full).unwrap();
        assert_eq!(
            w.total_cost(),
            Money::from_units(100),
            "2 slots x 50 units x price 1"
        );
        assert_eq!(w.start(), TimePoint::new(200));

        let mut first = CheapestBy {
            criterion: Criterion::EarliestStart,
            first: true,
        };
        let w = scan(&p, &slots, &req, &mut first).unwrap();
        assert_eq!(w.start(), TimePoint::ZERO);
        assert_eq!(w.total_cost(), Money::from_units(1_000));
    }

    #[test]
    fn requirements_filter_nodes() {
        let p: Platform = vec![
            NodeSpec::builder(0)
                .performance(Performance::new(2))
                .build(),
            NodeSpec::builder(1)
                .performance(Performance::new(9))
                .build(),
        ]
        .into_iter()
        .collect();
        let slots = full_slots(&p, 600);
        let req = ResourceRequest::builder()
            .node_count(1)
            .volume(Volume::new(100))
            .budget(Money::from_units(100_000))
            .requirements(
                crate::request::NodeRequirements::any().min_performance(Performance::new(5)),
            )
            .build()
            .unwrap();
        let mut policy = CheapestBy {
            criterion: Criterion::MinTotalCost,
            first: false,
        };
        let w = scan(&p, &slots, &req, &mut policy).unwrap();
        assert_eq!(w.slots()[0].node(), NodeId(1));
    }

    #[test]
    fn unknown_node_slots_are_skipped() {
        let p = platform(&[2]);
        let mut slots = full_slots(&p, 600);
        slots.add(
            NodeId(42),
            Interval::new(TimePoint::new(0), TimePoint::new(600)),
            Performance::new(9),
            Money::from_units(1),
        );
        let mut policy = CheapestBy {
            criterion: Criterion::MinTotalCost,
            first: false,
        };
        let w = scan(&p, &slots, &request(1, 100, 1_000), &mut policy).unwrap();
        assert_eq!(
            w.slots()[0].node(),
            NodeId(0),
            "slot on unknown node n42 ignored"
        );
    }

    #[test]
    fn deadline_cuts_scan_short() {
        let p = platform(&[2, 2]);
        let mut slots = SlotList::new();
        slots.add(
            NodeId(0),
            Interval::new(TimePoint::new(0), TimePoint::new(600)),
            Performance::new(2),
            Money::from_units(1),
        );
        slots.add(
            NodeId(1),
            Interval::new(TimePoint::new(300), TimePoint::new(600)),
            Performance::new(2),
            Money::from_units(1),
        );
        let req = ResourceRequest::builder()
            .node_count(2)
            .volume(Volume::new(100))
            .budget(Money::from_units(1_000))
            .deadline(TimePoint::new(200))
            .build()
            .unwrap();
        let mut policy = CheapestBy {
            criterion: Criterion::EarliestStart,
            first: false,
        };
        assert!(
            scan(&p, &slots, &req, &mut policy).is_none(),
            "second node only free after the deadline"
        );
    }

    #[test]
    fn deadline_admits_fitting_window() {
        let p = platform(&[2, 2]);
        let slots = full_slots(&p, 600);
        let req = ResourceRequest::builder()
            .node_count(2)
            .volume(Volume::new(100))
            .budget(Money::from_units(1_000))
            .deadline(TimePoint::new(50))
            .build()
            .unwrap();
        let mut policy = CheapestBy {
            criterion: Criterion::EarliestStart,
            first: false,
        };
        let w = scan(&p, &slots, &req, &mut policy).unwrap();
        assert!(w.finish() <= TimePoint::new(50));
    }

    #[test]
    fn prune_start_bounded_stops_early_without_changing_result() {
        let p = platform(&[2; 6]);
        let mut slots = SlotList::new();
        for i in 0..6u32 {
            let start = i64::from(i) * 50;
            slots.add(
                NodeId(i),
                Interval::new(TimePoint::new(start), TimePoint::new(1_000)),
                Performance::new(2),
                Money::from_units(1),
            );
        }
        let req = request(2, 100, 1_000);
        let mut a = CheapestBy {
            criterion: Criterion::EarliestFinish,
            first: false,
        };
        let plain = scan_with(&p, &slots, &req, &mut a, ScanOptions::default());
        let mut b = CheapestBy {
            criterion: Criterion::EarliestFinish,
            first: false,
        };
        let pruned = scan_with(
            &p,
            &slots,
            &req,
            &mut b,
            ScanOptions {
                prune_start_bounded: true,
            },
        );
        assert_eq!(
            plain.best.as_ref().map(Window::finish),
            pruned.best.as_ref().map(Window::finish)
        );
        assert!(pruned.stats.slots_admitted <= plain.stats.slots_admitted);
    }

    #[test]
    fn duplicate_node_slots_superseded_not_coallocated() {
        // Malformed input: two overlapping slots on one node. The scan must
        // not co-allocate both.
        let p = platform(&[2, 2]);
        let slots = SlotList::from_slots(vec![
            crate::slot::Slot::new(
                crate::slot::SlotId(0),
                NodeId(0),
                Interval::new(TimePoint::new(0), TimePoint::new(600)),
                Performance::new(2),
                Money::from_units(1),
            ),
            crate::slot::Slot::new(
                crate::slot::SlotId(1),
                NodeId(0),
                Interval::new(TimePoint::new(10), TimePoint::new(600)),
                Performance::new(2),
                Money::from_units(1),
            ),
            crate::slot::Slot::new(
                crate::slot::SlotId(2),
                NodeId(1),
                Interval::new(TimePoint::new(10), TimePoint::new(600)),
                Performance::new(2),
                Money::from_units(1),
            ),
        ]);
        let mut policy = CheapestBy {
            criterion: Criterion::MinTotalCost,
            first: false,
        };
        let w = scan(&p, &slots, &request(2, 100, 1_000), &mut policy).unwrap();
        let mut nodes: Vec<NodeId> = w.slots().iter().map(|s| s.node()).collect();
        nodes.sort_unstable();
        nodes.dedup();
        assert_eq!(nodes.len(), 2);
    }

    #[test]
    fn tree_backed_scan_prunes_an_all_dominated_list_at_the_root() {
        use crate::slot::{Slot, SlotId};
        use crate::slotlist::SlotStoreKind;
        // Every slot is too short for the volume: the aggregate cursor must
        // prove emptiness from the root aggregate without visiting leaves,
        // while still crediting every slot to `slots_rejected`.
        let p = platform(&[2]);
        let slots: Vec<Slot> = (0..64)
            .map(|i| {
                Slot::new(
                    SlotId(i),
                    NodeId(0),
                    Interval::new(
                        TimePoint::new(i as i64 * 10),
                        TimePoint::new(i as i64 * 10 + 4),
                    ),
                    Performance::new(2),
                    Money::from_units(1),
                )
            })
            .collect();
        let list = SlotList::from_slots_in(SlotStoreKind::Tree, slots);
        let mut policy = CheapestBy {
            criterion: Criterion::MinTotalCost,
            first: false,
        };
        let outcome = scan_with(
            &p,
            &list,
            &request(1, 1_000, 100_000),
            &mut policy,
            ScanOptions::default(),
        );
        assert!(outcome.best.is_none());
        assert_eq!(outcome.stats.slots_admitted, 0);
        assert_eq!(outcome.stats.slots_rejected, 64);
        assert_eq!(outcome.stats.subtrees_skipped, 1, "root skip expected");
        assert_eq!(outcome.stats.windows_jumped, 1);
    }

    #[test]
    fn tree_backed_scan_matches_vec_backed_scan_with_pruning_visible() {
        use crate::slot::{Slot, SlotId};
        use crate::slotlist::SlotStoreKind;
        // Alternate feasible and dominated slots across two nodes; the tree
        // scan must produce the identical outcome and legacy stats, with the
        // diagnostic counters lighting up only on the tree side.
        let slots: Vec<Slot> = (0..40)
            .map(|i| {
                let start = i as i64 * 25;
                let len = if i % 2 == 0 { 120 } else { 3 };
                Slot::new(
                    SlotId(i),
                    NodeId((i % 2) as u32),
                    Interval::new(TimePoint::new(start), TimePoint::new(start + len)),
                    Performance::new(2),
                    Money::from_units(1 + (i as i64 % 3)),
                )
            })
            .collect();
        let p = platform(&[2, 2]);
        let vec_list = SlotList::from_slots_in(SlotStoreKind::Vec, slots.clone());
        let tree_list = SlotList::from_slots_in(SlotStoreKind::Tree, slots);
        let req = request(2, 200, 100_000);
        let run = |list: &SlotList| {
            let mut policy = CheapestBy {
                criterion: Criterion::MinTotalCost,
                first: false,
            };
            scan_with(&p, list, &req, &mut policy, ScanOptions::default())
        };
        let on_vec = run(&vec_list);
        let on_tree = run(&tree_list);
        assert_eq!(on_vec.best, on_tree.best);
        // Legacy stats equality (the custom `PartialEq` ignores the new
        // diagnostic counters)...
        assert_eq!(on_vec.stats, on_tree.stats);
        // ...which only the tree-backed scan populates.
        assert_eq!(on_vec.stats.subtrees_skipped, 0);
        assert_eq!(on_vec.stats.windows_jumped, 0);
        assert!(on_tree.stats.windows_jumped >= 1);
    }
}
