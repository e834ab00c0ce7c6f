//! Intentionally-wrong scan and policy variants ("mutants").
//!
//! Compiled only under `--features mutants`, never by default. Each mutant
//! plants one realistic bug — an off-by-one on the deadline break, a
//! dropped liveness prune, a strict instead of inclusive budget comparison,
//! a corrupted pruning rule in the aggregate-driven tree cursor — and the
//! detection suite asserts the differential engine notices every one of
//! them within a few hundred tiny scenarios. This is a live
//! measurement of the fuzzer's teeth: a check battery that cannot catch a
//! seeded bug would not catch a real one either.

use slotsel_core::aep::{ScanOutcome, ScanStats, SelectionPolicy};
use slotsel_core::algorithms::{
    Amp, MinCost, MinFinish, MinProcTime, MinRunTime, RuntimeSelection,
};
use slotsel_core::criteria::WindowCriterion;
use slotsel_core::money::Money;
use slotsel_core::request::ResourceRequest;
use slotsel_core::scenario::Scenario;
use slotsel_core::selectors::{build_window, cheapest_n, min_runtime_exact, Candidate};
use slotsel_core::slot::Slot;
use slotsel_core::time::TimePoint;
use slotsel_core::validate::validate_window;
use slotsel_core::window::Window;

use slotsel_baselines::oracle::exhaustive_best_checked;

use crate::engine::{PolicyKind, ScanSide, ORACLE_SUBSET_LIMIT};

/// Bugs planted inside the scan loop (the policy stays healthy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanBug {
    /// Deadline entirely ignored: no anchor break, no candidate pruning.
    IgnoreDeadline,
    /// Anchor break uses `>` instead of `>=`: one extra scan step at an
    /// anchor exactly on the deadline.
    LateDeadlineBreak,
    /// The first slot of the list is never scanned.
    SkipFirstSlot,
    /// Candidates are never pruned when their slot's remainder gets too
    /// short — stale entries linger in the extended window.
    StaleAlive,
    /// A node's older slot is not superseded when a newer one is admitted,
    /// so one node can appear twice in a window.
    NoSupersede,
    /// `slots_rejected` is never counted.
    UncountedRejects,
}

/// Bugs planted inside the per-step selection (the scan stays healthy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyBug {
    /// MinCost feasibility uses `< budget` instead of `<= budget`.
    StrictBudgetMinCost,
    /// MinCost picks the first `n` admitted candidates instead of the
    /// cheapest `n`.
    FirstNMinCost,
    /// MinCost stops at the first suitable window like AMP does.
    StopAtFirstMinCost,
    /// MinRunTime(exact) picks the `n` longest placements instead of the
    /// `n` shortest.
    LongestRuntime,
}

/// Bugs planted inside the aggregate-pruned tree cursor (the scan loop
/// and the policy both stay healthy). Each corrupts one pruning rule of
/// the cursor the tree-backed AEP scan walks; the detection suite proves
/// the pruned-scan differential checks notice every one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneBug {
    /// The "every slot too short" cutoff uses `<=` instead of `<`:
    /// subtrees whose best slot fits the requested volume *exactly* are
    /// wrongly skipped, so exact-fit windows vanish.
    CapacityCutoffOffByOne,
    /// Price-based pruning with the bound inverted: subtrees whose
    /// cheapest slot is *under* the request's price cap — precisely the
    /// admittable ones — get skipped. (The healthy cursor prunes on no
    /// price bound at all: price never causes a per-slot scan rejection.)
    InvertedPriceBound,
    /// The deadline gate reads the subtree root's own start instead of
    /// the `max_start` aggregate — the classic stale/wrong-aggregate bug:
    /// subtrees reaching past the deadline get skipped wholesale and the
    /// scan's deadline break point is counted as a rejection.
    StaleDeadlineGate,
    /// Whole-subtree skips credit `count - 1` slots into the rejection
    /// tally, so `slots_rejected` undercounts whenever pruning fires.
    SkippedSubtreeUndercount,
}

/// What kind of code the bug lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutantKind {
    /// Buggy scan loop driving a healthy policy.
    Scan(ScanBug),
    /// Healthy scan loop driving a buggy policy.
    Policy(PolicyBug),
    /// Healthy scan loop fed by a buggy aggregate-pruned cursor.
    Prune(PruneBug),
}

/// One seeded bug the engine must be able to detect.
#[derive(Debug, Clone, Copy)]
pub struct Mutant {
    /// Stable name for reports.
    pub name: &'static str,
    /// The healthy policy this mutant masquerades as.
    pub policy: PolicyKind,
    /// Where the bug is planted.
    pub kind: MutantKind,
}

/// Every seeded mutant.
#[must_use]
pub fn all() -> Vec<Mutant> {
    vec![
        Mutant {
            name: "scan-ignore-deadline",
            policy: PolicyKind::Amp,
            kind: MutantKind::Scan(ScanBug::IgnoreDeadline),
        },
        Mutant {
            name: "scan-late-deadline-break",
            policy: PolicyKind::MinCost,
            kind: MutantKind::Scan(ScanBug::LateDeadlineBreak),
        },
        Mutant {
            name: "scan-skip-first-slot",
            policy: PolicyKind::Amp,
            kind: MutantKind::Scan(ScanBug::SkipFirstSlot),
        },
        Mutant {
            name: "scan-stale-alive",
            policy: PolicyKind::MinFinishExact,
            kind: MutantKind::Scan(ScanBug::StaleAlive),
        },
        Mutant {
            name: "scan-no-supersede",
            policy: PolicyKind::MinCost,
            kind: MutantKind::Scan(ScanBug::NoSupersede),
        },
        Mutant {
            name: "scan-uncounted-rejects",
            policy: PolicyKind::MinProcTime,
            kind: MutantKind::Scan(ScanBug::UncountedRejects),
        },
        Mutant {
            name: "policy-strict-budget",
            policy: PolicyKind::MinCost,
            kind: MutantKind::Policy(PolicyBug::StrictBudgetMinCost),
        },
        Mutant {
            name: "policy-first-n",
            policy: PolicyKind::MinCost,
            kind: MutantKind::Policy(PolicyBug::FirstNMinCost),
        },
        Mutant {
            name: "policy-stop-at-first",
            policy: PolicyKind::MinCost,
            kind: MutantKind::Policy(PolicyBug::StopAtFirstMinCost),
        },
        Mutant {
            name: "policy-longest-runtime",
            policy: PolicyKind::MinRunTimeExact,
            kind: MutantKind::Policy(PolicyBug::LongestRuntime),
        },
        Mutant {
            name: "prune-capacity-cutoff-off-by-one",
            policy: PolicyKind::MinCost,
            kind: MutantKind::Prune(PruneBug::CapacityCutoffOffByOne),
        },
        Mutant {
            name: "prune-inverted-price-bound",
            policy: PolicyKind::MinCost,
            kind: MutantKind::Prune(PruneBug::InvertedPriceBound),
        },
        Mutant {
            name: "prune-stale-deadline-gate",
            policy: PolicyKind::Amp,
            kind: MutantKind::Prune(PruneBug::StaleDeadlineGate),
        },
        Mutant {
            name: "prune-skipped-subtree-undercount",
            policy: PolicyKind::MinFinishExact,
            kind: MutantKind::Prune(PruneBug::SkippedSubtreeUndercount),
        },
    ]
}

impl Mutant {
    /// Runs the mutant over a scenario.
    #[must_use]
    pub fn run(&self, scenario: &Scenario, seed: u64) -> ScanOutcome {
        match self.kind {
            MutantKind::Scan(bug) => with_policy(self.policy, seed, |policy| {
                buggy_reference_scan(scenario, policy, bug)
            }),
            MutantKind::Policy(bug) => {
                let mut policy = BuggyPolicy { bug };
                scenario.scan_reference(&mut policy)
            }
            MutantKind::Prune(bug) => with_policy(self.policy, seed, |policy| {
                buggy_pruned_scan(scenario, policy, bug)
            }),
        }
    }
}

/// Whether the engine's check battery notices the mutant on this scenario:
/// any divergence from the healthy scan (window, score or stats), an
/// invalid window, or a disagreement with the exhaustive oracle counts.
#[must_use]
pub fn caught_on(mutant: &Mutant, scenario: &Scenario, seed: u64) -> bool {
    // A mutant that trips a model invariant (e.g. a duplicate-node window
    // from the missing supersede) panics inside the scan — the loudest
    // possible detection.
    let buggy =
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| mutant.run(scenario, seed)))
        {
            Ok(outcome) => outcome,
            Err(_) => return true,
        };
    let healthy = mutant.policy.scan(scenario, seed, ScanSide::Reference);
    if buggy.stats != healthy.stats {
        return true;
    }
    let criterion = mutant.policy.criterion();
    match (&buggy.best, &healthy.best) {
        (None, Some(_)) | (Some(_), None) => return true,
        (Some(b), Some(h)) => {
            if (criterion.score(b) - criterion.score(h)).abs() > 1e-6 {
                return true;
            }
            if validate_window(b, &scenario.platform, &scenario.slots, &scenario.request).is_err()
                || b.total_cost() > scenario.request.budget()
                || scenario.request.deadline().is_some_and(|d| b.finish() > d)
            {
                return true;
            }
        }
        (None, None) => {}
    }
    // Independent oracle cross-check, for bugs that happen to corrupt both
    // scans symmetrically.
    if let Ok(oracle) = exhaustive_best_checked(
        &scenario.platform,
        &scenario.slots,
        &scenario.request,
        &criterion,
        ORACLE_SUBSET_LIMIT,
    ) {
        match (&buggy.best, &oracle) {
            (None, Some(_)) | (Some(_), None) => return true,
            (Some(b), Some(o)) => {
                let (bs, os) = (criterion.score(b), criterion.score(o));
                if mutant.policy.is_exact() && (bs - os).abs() > 1e-6 {
                    return true;
                }
                if bs < os - 1e-6 {
                    return true;
                }
            }
            (None, None) => {}
        }
    }
    false
}

fn with_policy<R>(kind: PolicyKind, seed: u64, f: impl FnOnce(&mut dyn SelectionPolicy) -> R) -> R {
    match kind {
        PolicyKind::Amp => f(&mut Amp.policy()),
        PolicyKind::MinCost => f(&mut MinCost.policy()),
        PolicyKind::MinRunTimeGreedy => {
            f(&mut MinRunTime::with_selection(RuntimeSelection::Greedy).policy())
        }
        PolicyKind::MinRunTimeExact => {
            f(&mut MinRunTime::with_selection(RuntimeSelection::Exact).policy())
        }
        PolicyKind::MinFinishGreedy => {
            f(&mut MinFinish::with_selection(RuntimeSelection::Greedy).policy())
        }
        PolicyKind::MinFinishExact => {
            f(&mut MinFinish::with_selection(RuntimeSelection::Exact).policy())
        }
        PolicyKind::MinProcTime => {
            let mut algo = MinProcTime::with_seed(seed);
            let mut policy = algo.policy();
            f(&mut policy)
        }
    }
}

/// The sort-per-step reference loop with one [`ScanBug`] planted.
fn buggy_reference_scan(
    scenario: &Scenario,
    policy: &mut dyn SelectionPolicy,
    bug: ScanBug,
) -> ScanOutcome {
    let request = &scenario.request;
    let platform = &scenario.platform;
    let n = request.node_count();
    let mut alive: Vec<Candidate> = Vec::new();
    let mut stats = ScanStats::default();
    let mut best: Option<(f64, Window)> = None;

    for (index, slot) in scenario.slots.iter().enumerate() {
        if bug == ScanBug::SkipFirstSlot && index == 0 {
            continue;
        }
        let window_start = slot.start();
        if let Some(deadline) = request.deadline() {
            let past = match bug {
                ScanBug::IgnoreDeadline => false,
                ScanBug::LateDeadlineBreak => window_start > deadline,
                _ => window_start >= deadline,
            };
            if past {
                break;
            }
        }
        let admitted = platform
            .get(slot.node())
            .is_some_and(|node| request.requirements().admits(node));
        if !admitted {
            if bug != ScanBug::UncountedRejects {
                stats.slots_rejected += 1;
            }
            continue;
        }
        let candidate = Candidate::new(*slot, request.volume());
        if slot.length() < candidate.length {
            if bug != ScanBug::UncountedRejects {
                stats.slots_rejected += 1;
            }
            continue;
        }
        let survives = |c: &Candidate| {
            let live = bug == ScanBug::StaleAlive || c.alive_at(window_start);
            let in_time = bug == ScanBug::IgnoreDeadline
                || request
                    .deadline()
                    .is_none_or(|d| window_start + c.length <= d);
            live && in_time
        };
        if bug == ScanBug::NoSupersede {
            alive.retain(|c| survives(c));
        } else {
            alive.retain(|c| c.slot.node() != candidate.slot.node() && survives(c));
        }
        if survives(&candidate) {
            alive.push(candidate);
        }
        stats.slots_admitted += 1;
        stats.peak_extended_window = stats.peak_extended_window.max(alive.len());

        if alive.len() < n {
            continue;
        }
        let mut picked = Vec::new();
        if policy.pick(window_start, &alive, request, &mut picked) {
            let window = build_window(window_start, &alive, &picked);
            let score = policy.score(&window);
            stats.windows_evaluated += 1;
            if best.as_ref().is_none_or(|(s, _)| score < *s) {
                best = Some((score, window));
            }
            if policy.stop_at_first() {
                break;
            }
        }
    }

    ScanOutcome {
        best: best.map(|(_, w)| w),
        stats,
    }
}

/// Work capacity of a slot in exact integer arithmetic — replica of the
/// tree store's aggregate: `length >= time_for(volume)` iff
/// `capacity >= volume.work()`.
fn capacity_of(slot: &Slot) -> u128 {
    slot.length().ticks().max(0) as u128 * u128::from(slot.performance().rate())
}

/// A replica of `TreeSlots::pruned_iter` over an *implicit* balanced tree
/// built on the sorted slot sequence (node = midpoint of its range), with
/// one [`PruneBug`] planted. It mirrors the real cursor's in-order walk,
/// lazy right-subtree deferral and skip predicates, recomputing each
/// range's aggregates on the fly; with no bug it reproduces the plain
/// reference scan exactly.
struct BuggyPrunedCursor<'a> {
    slots: &'a [Slot],
    /// In-order stack of `(mid, hi)` pairs: node index and the exclusive
    /// end of its right subtree's range.
    stack: Vec<(usize, usize)>,
    /// Right subtree of the last yielded/skipped node, descended lazily at
    /// the next `next()` call so skip tallies never run ahead of a break.
    pending_right: Option<(usize, usize)>,
    volume: u64,
    deadline: Option<TimePoint>,
    admit_any: bool,
    price_cap: Option<Money>,
    prune_enabled: bool,
    bug: PruneBug,
    skipped: usize,
}

impl<'a> BuggyPrunedCursor<'a> {
    fn range_skippable(&self, lo: usize, hi: usize) -> bool {
        if !self.prune_enabled {
            return false;
        }
        let range = &self.slots[lo..hi];
        let max_capacity = range.iter().map(capacity_of).max().unwrap_or(0);
        let all_too_short = match self.bug {
            // BUG: `<=` instead of `<` — exact fits treated as too short.
            PruneBug::CapacityCutoffOffByOne => max_capacity <= u128::from(self.volume),
            _ => max_capacity < u128::from(self.volume),
        };
        let deadline_safe = match (self.bug, self.deadline) {
            (_, None) => true,
            // BUG: gates on the subtree root's own start instead of the
            // `max_start` aggregate.
            (PruneBug::StaleDeadlineGate, Some(d)) => {
                let mid = lo + (hi - lo) / 2;
                self.slots[mid].start() < d
            }
            (_, Some(d)) => range.iter().map(Slot::start).max().is_some_and(|s| s < d),
        };
        if self.bug == PruneBug::InvertedPriceBound && deadline_safe {
            // BUG: a price rule the healthy cursor does not have at all,
            // with the bound inverted — skips every subtree containing a
            // slot *cheaper* than the request's cap.
            let min_price = range.iter().map(|s| s.price_per_unit()).min();
            if let (Some(cap), Some(low)) = (self.price_cap, min_price) {
                if low < cap {
                    return true;
                }
            }
        }
        (!self.admit_any || all_too_short) && deadline_safe
    }

    fn slot_skippable(&self, slot: &Slot) -> bool {
        if !self.prune_enabled {
            return false;
        }
        let too_short = match self.bug {
            PruneBug::CapacityCutoffOffByOne => capacity_of(slot) <= u128::from(self.volume),
            _ => capacity_of(slot) < u128::from(self.volume),
        };
        let deadline_safe = self.deadline.is_none_or(|d| slot.start() < d);
        if self.bug == PruneBug::InvertedPriceBound
            && deadline_safe
            && self
                .price_cap
                .is_some_and(|cap| slot.price_per_unit() < cap)
        {
            return true;
        }
        (!self.admit_any || too_short) && deadline_safe
    }

    /// Pushes the left spine of `[lo, hi)`, skipping whole subtrees whose
    /// aggregates prove every slot dominated.
    fn descend(&mut self, lo: usize, mut hi: usize) {
        while lo < hi {
            if self.range_skippable(lo, hi) {
                let size = hi - lo;
                self.skipped += match self.bug {
                    // BUG: one slot per skipped subtree goes uncounted.
                    PruneBug::SkippedSubtreeUndercount => size.saturating_sub(1),
                    _ => size,
                };
                return;
            }
            let mid = lo + (hi - lo) / 2;
            self.stack.push((mid, hi));
            hi = mid;
        }
    }

    fn next(&mut self) -> Option<&'a Slot> {
        loop {
            if let Some((lo, hi)) = self.pending_right.take() {
                self.descend(lo, hi);
            }
            let (mid, hi) = self.stack.pop()?;
            self.pending_right = Some((mid + 1, hi));
            let slot = &self.slots[mid];
            if self.slot_skippable(slot) {
                self.skipped += 1;
                continue;
            }
            return Some(slot);
        }
    }
}

/// The healthy reference loop fed by a [`BuggyPrunedCursor`]: slots the
/// cursor prunes away are credited to `slots_rejected` after the loop,
/// exactly like the real tree-backed scan settles its cursor.
fn buggy_pruned_scan(
    scenario: &Scenario,
    policy: &mut dyn SelectionPolicy,
    bug: PruneBug,
) -> ScanOutcome {
    let request = &scenario.request;
    let platform = &scenario.platform;
    let slots: Vec<Slot> = scenario.slots.iter().copied().collect();
    // The tree store only holds strictly increasing (start, id) keys; on
    // malformed lists the real scan keeps the plain in-order walk, so the
    // replica disables pruning there too and the bug stays dormant.
    let prune_enabled = slots
        .windows(2)
        .all(|pair| (pair[0].start(), pair[0].id()) < (pair[1].start(), pair[1].id()));
    let mut cursor = BuggyPrunedCursor {
        slots: &slots,
        stack: Vec::new(),
        pending_right: None,
        volume: request.volume().work(),
        deadline: request.deadline(),
        admit_any: platform
            .iter()
            .any(|node| request.requirements().admits(node)),
        price_cap: request.requirements().price_cap(),
        prune_enabled,
        bug,
        skipped: 0,
    };
    cursor.descend(0, slots.len());

    let n = request.node_count();
    let mut alive: Vec<Candidate> = Vec::new();
    let mut stats = ScanStats::default();
    let mut best: Option<(f64, Window)> = None;

    while let Some(slot) = cursor.next() {
        let slot = *slot;
        let window_start = slot.start();
        if request.deadline().is_some_and(|d| window_start >= d) {
            break;
        }
        let admitted = platform
            .get(slot.node())
            .is_some_and(|node| request.requirements().admits(node));
        if !admitted {
            stats.slots_rejected += 1;
            continue;
        }
        let candidate = Candidate::new(slot, request.volume());
        if slot.length() < candidate.length {
            stats.slots_rejected += 1;
            continue;
        }
        let survives = |c: &Candidate| {
            c.alive_at(window_start)
                && request
                    .deadline()
                    .is_none_or(|d| window_start + c.length <= d)
        };
        alive.retain(|c| c.slot.node() != candidate.slot.node() && survives(c));
        if survives(&candidate) {
            alive.push(candidate);
        }
        stats.slots_admitted += 1;
        stats.peak_extended_window = stats.peak_extended_window.max(alive.len());

        if alive.len() < n {
            continue;
        }
        let mut picked = Vec::new();
        if policy.pick(window_start, &alive, request, &mut picked) {
            let window = build_window(window_start, &alive, &picked);
            let score = policy.score(&window);
            stats.windows_evaluated += 1;
            if best.as_ref().is_none_or(|(s, _)| score < *s) {
                best = Some((score, window));
            }
            if policy.stop_at_first() {
                break;
            }
        }
    }
    // Pruned-away slots are rejections the loop never saw.
    stats.slots_rejected += cursor.skipped;

    ScanOutcome {
        best: best.map(|(_, w)| w),
        stats,
    }
}

/// A healthy-looking policy with one [`PolicyBug`] planted.
struct BuggyPolicy {
    bug: PolicyBug,
}

impl BuggyPolicy {
    fn pick_indices(&self, alive: &[Candidate], request: &ResourceRequest) -> Option<Vec<usize>> {
        let n = request.node_count();
        if alive.len() < n {
            return None;
        }
        match self.bug {
            PolicyBug::StrictBudgetMinCost => {
                let mut order: Vec<usize> = (0..alive.len()).collect();
                order.sort_by_key(|&i| (alive[i].cost, i));
                let picked: Vec<usize> = order[..n].to_vec();
                let total: Money = picked.iter().map(|&i| alive[i].cost).sum();
                (total < request.budget()).then_some(picked) // BUG: strict.
            }
            PolicyBug::FirstNMinCost => {
                let picked: Vec<usize> = (0..n).collect(); // BUG: not cheapest.
                let total: Money = picked.iter().map(|&i| alive[i].cost).sum();
                (total <= request.budget()).then_some(picked)
            }
            PolicyBug::StopAtFirstMinCost => {
                let mut picked = Vec::new();
                cheapest_n(alive, n, request.budget(), &mut picked).then_some(picked)
            }
            PolicyBug::LongestRuntime => {
                let mut order: Vec<usize> = (0..alive.len()).collect();
                // BUG: longest placements first instead of shortest.
                order.sort_by_key(|&i| (std::cmp::Reverse(alive[i].length), i));
                let picked: Vec<usize> = order[..n].to_vec();
                let total: Money = picked.iter().map(|&i| alive[i].cost).sum();
                if total <= request.budget() {
                    Some(picked)
                } else {
                    // Stay feasibility-correct so only the score is wrong.
                    min_runtime_exact(alive, n, request.budget())
                }
            }
        }
    }
}

impl SelectionPolicy for BuggyPolicy {
    fn name(&self) -> &str {
        match self.bug {
            PolicyBug::LongestRuntime => "MinRunTime[mutant]",
            _ => "MinCost[mutant]",
        }
    }

    fn pick(
        &mut self,
        _window_start: TimePoint,
        alive: &[Candidate],
        request: &ResourceRequest,
        picked: &mut Vec<usize>,
    ) -> bool {
        self.pick_indices(alive, request)
            .map(|ids| *picked = ids)
            .is_some()
    }

    fn score(&self, window: &Window) -> f64 {
        match self.bug {
            PolicyBug::LongestRuntime => window.runtime().ticks() as f64,
            _ => window.total_cost().as_f64(),
        }
    }

    fn stop_at_first(&self) -> bool {
        self.bug == PolicyBug::StopAtFirstMinCost
    }
}
