//! The historical sort-per-step AEP scan, retained as a correctness oracle
//! and benchmark baseline.
//!
//! [`crate::aep::scan_observed`] now runs the extended window through the
//! incremental [`CandidatePool`](crate::pool::CandidatePool), which keeps
//! the candidates sorted across steps, for the policies whose picks walk
//! those orders. This module preserves the previous formulation — an insertion-ordered `Vec<Candidate>` pruned with `retain`
//! and re-sorted inside every [`SelectionPolicy::pick`] call — with
//! byte-identical behaviour: same windows, same [`ScanStats`], same trace
//! events.
//!
//! It exists for two reasons:
//!
//! - **oracle** — the `pool_equivalence` property tests drive both scans
//!   over randomized environments and assert pick-for-pick identical
//!   results and byte-identical traces;
//! - **baseline** — the `bench` binary times this scan against the pool
//!   scan to populate `BENCH_SCAN.json` with before/after medians.
//!
//! Compared to the code that used to live in `aep.rs`, the two per-admission
//! `retain` passes (node supersede, then liveness + deadline prune) are
//! merged into a single pass; the admitted candidate is appended afterwards
//! exactly when it passes the same liveness and deadline predicates, which
//! preserves the original alive-set contents and order.

use slotsel_obs::{NoopRecorder, Obs, Recorder, TraceEvent};

use crate::aep::{report_scan, Evictions, ScanOptions, ScanOutcome, ScanStats, SelectionPolicy};
use crate::node::Platform;
use crate::request::ResourceRequest;
use crate::selectors::{build_window, Candidate};
use crate::slotlist::SlotList;
use crate::window::Window;

/// Runs the sort-per-step reference scan, discarding options and stats.
///
/// Equivalent to [`reference_scan_with`] with default [`ScanOptions`].
#[must_use]
pub fn reference_scan(
    platform: &Platform,
    slots: &SlotList,
    request: &ResourceRequest,
    policy: &mut dyn SelectionPolicy,
) -> Option<Window> {
    reference_scan_with(platform, slots, request, policy, ScanOptions::default()).best
}

/// Runs the sort-per-step reference scan with explicit options.
///
/// Equivalent to [`reference_scan_observed`] with [`Obs::dark`].
#[must_use]
pub fn reference_scan_with(
    platform: &Platform,
    slots: &SlotList,
    request: &ResourceRequest,
    policy: &mut dyn SelectionPolicy,
    options: ScanOptions,
) -> ScanOutcome {
    reference_scan_observed(platform, slots, request, policy, options, &mut Obs::dark())
}

/// The sort-per-step reference scan, reporting to the observer context.
///
/// Behaviour, statistics, trace events, metrics and spans are identical to
/// [`crate::aep::scan_observed`]; only the complexity differs. Policies
/// are driven through their slice-based [`SelectionPolicy::pick`], which
/// is where the per-step `O(m' log m')` re-sorting lives.
#[must_use]
pub fn reference_scan_observed(
    platform: &Platform,
    slots: &SlotList,
    request: &ResourceRequest,
    policy: &mut dyn SelectionPolicy,
    options: ScanOptions,
    obs: &mut Obs<'_>,
) -> ScanOutcome {
    let phase = obs.timed_phase("aep.scan");
    let count_evictions = obs.metrics.enabled();
    let (outcome, evictions) = if obs.recorder.enabled() {
        reference_body(
            platform,
            slots,
            request,
            policy,
            options,
            &mut *obs.recorder,
            count_evictions,
        )
    } else {
        reference_body(
            platform,
            slots,
            request,
            policy,
            options,
            &mut NoopRecorder,
            count_evictions,
        )
    };
    report_scan(obs, phase, policy.name(), &outcome, evictions);
    outcome
}

fn reference_body<R: Recorder + ?Sized>(
    platform: &Platform,
    slots: &SlotList,
    request: &ResourceRequest,
    policy: &mut dyn SelectionPolicy,
    options: ScanOptions,
    recorder: &mut R,
    count_evictions: bool,
) -> (ScanOutcome, Evictions) {
    let n = request.node_count();
    let mut alive: Vec<Candidate> = Vec::new();
    let (mut superseded, mut expired) = (0, 0);
    let mut stats = ScanStats::default();
    let mut best: Option<(f64, Window)> = None;

    let policy_name: Option<String> = recorder.enabled().then(|| policy.name().to_string());
    if let Some(name) = &policy_name {
        recorder.emit(TraceEvent::ScanStarted {
            policy: name.clone(),
            nodes_requested: n as u64,
            slots_total: slots.len() as u64,
        });
    }

    for slot in slots {
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
        // One pass over the alive set drops candidates superseded by the
        // new slot's node (a node hosts at most one task), candidates whose
        // remainder is now too short, and, under a deadline, candidates
        // that can no longer finish in time.
        let survives = |c: &Candidate| {
            c.alive_at(window_start)
                && request
                    .deadline()
                    .is_none_or(|d| window_start + c.length <= d)
        };
        alive.retain(|c| {
            let same_node = c.slot.node() == candidate.slot.node();
            let keep = !same_node && survives(c);
            if !keep && count_evictions {
                if same_node {
                    superseded += 1;
                } else {
                    expired += 1;
                }
            }
            keep
        });
        if survives(&candidate) {
            alive.push(candidate);
        }
        stats.slots_admitted += 1;
        stats.peak_extended_window = stats.peak_extended_window.max(alive.len());
        if recorder.enabled() {
            #[allow(clippy::cast_precision_loss)]
            recorder.observe("aep.alive", alive.len() as f64);
        }

        if alive.len() < n {
            continue;
        }
        let mut picked = Vec::new();
        if policy.pick(window_start, &alive, request, &mut picked) {
            debug_assert_eq!(picked.len(), n, "policy must pick exactly n slots");
            let window = build_window(window_start, &alive, &picked);
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

    if let Some(name) = policy_name {
        recorder.emit(TraceEvent::ScanFinished {
            policy: name,
            slots_admitted: stats.slots_admitted as u64,
            slots_rejected: stats.slots_rejected as u64,
            windows_evaluated: stats.windows_evaluated as u64,
            peak_alive: stats.peak_extended_window as u64,
            subtrees_skipped: 0,
            windows_jumped: 0,
            found: best.is_some(),
            best_score: best.as_ref().map_or(0.0, |(score, _)| *score),
        });
    }

    (
        ScanOutcome {
            best: best.map(|(_, w)| w),
            stats,
        },
        (superseded, expired),
    )
}
