//! The differential check engine.
//!
//! Every check is a pure function of `(scenario, check kind, policy, seed)`
//! — [`run_check`] is the single entry point the campaign loop, the
//! shrinker and the corpus replay harness all share. A counterexample is
//! therefore exactly a [`Failure`]: re-running its embedded scenario
//! through [`run_check`] either reproduces the disagreement (shrinker,
//! triage) or passes (corpus regression guard after the bug is fixed).
//!
//! The checks:
//!
//! - **differential** — the incremental-pool scan and the sort-per-step
//!   reference scan must be pick-for-pick identical, including their
//!   [`ScanStats`](slotsel_core::aep::ScanStats), and the
//!   aggregate-pruned scan over a tree-backed copy must match both
//!   window-for-window, stat-for-stat and trace-byte-for-trace-byte;
//! - **oracle** — on scenarios small enough for
//!   [`slotsel_baselines::exhaustive_best`], every policy must agree with
//!   the oracle on feasibility, the exact policies must match its score,
//!   and the greedy/randomized ones must never beat it; the
//!   branch-and-bound sweep cross-checks the exhaustive enumeration itself
//!   on the additive criteria;
//! - **metamorphic** — shifting all times, uniformly scaling all prices,
//!   permuting node identities, doubling the budget, or adding a dominated
//!   slot must transform the answer in the predicted way.

use serde::{Deserialize, Serialize};

use slotsel_baselines::oracle::{exhaustive_best_checked, is_additive, subset_space};
use slotsel_baselines::{bnb_best, OracleTooLarge};
use slotsel_core::aep::{scan_observed, ScanOptions, ScanOutcome, SelectionPolicy};
use slotsel_core::algorithms::{
    Amp, MinCost, MinFinish, MinProcTime, MinRunTime, RuntimeSelection,
};
use slotsel_core::criteria::{Criterion, WindowCriterion};
use slotsel_core::money::Money;
use slotsel_core::node::{NodeSpec, Platform};
use slotsel_core::reference::reference_scan_observed;
use slotsel_core::scenario::Scenario;
use slotsel_core::slot::{Slot, SlotId};
use slotsel_core::slotlist::{SlotList, SlotStoreKind};
use slotsel_core::time::{Interval, TimeDelta, TimePoint};
use slotsel_core::validate::validate_window;
use slotsel_core::window::Window;

use crate::scenario::{disrupted_scenario, GeneratedCase};

/// Worst-anchor subset count above which the oracle checks are skipped.
pub const ORACLE_SUBSET_LIMIT: u64 = 10_000;

/// Float tolerance for score comparisons (all criterion scores are exact
/// integers or milli-credit sums well inside f64 precision).
const EPS: f64 = 1e-6;

/// The five paper policies plus the greedy/exact split — everything the
/// fuzzer drives through both scans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PolicyKind {
    /// AMP: first suitable window (earliest start), stop-at-first.
    Amp,
    /// MinCost: cheapest window, exact per step.
    MinCost,
    /// MinRunTime with the greedy per-step selection.
    MinRunTimeGreedy,
    /// MinRunTime with the exact per-step selection.
    MinRunTimeExact,
    /// MinFinish with the greedy per-step selection.
    MinFinishGreedy,
    /// MinFinish with the exact per-step selection.
    MinFinishExact,
    /// MinProcTime: the paper's simplified randomized selection.
    MinProcTime,
}

impl PolicyKind {
    /// Every policy the engine exercises.
    pub const ALL: [PolicyKind; 7] = [
        PolicyKind::Amp,
        PolicyKind::MinCost,
        PolicyKind::MinRunTimeGreedy,
        PolicyKind::MinRunTimeExact,
        PolicyKind::MinFinishGreedy,
        PolicyKind::MinFinishExact,
        PolicyKind::MinProcTime,
    ];

    /// Stable display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Amp => "AMP",
            PolicyKind::MinCost => "MinCost",
            PolicyKind::MinRunTimeGreedy => "MinRunTime(greedy)",
            PolicyKind::MinRunTimeExact => "MinRunTime(exact)",
            PolicyKind::MinFinishGreedy => "MinFinish(greedy)",
            PolicyKind::MinFinishExact => "MinFinish(exact)",
            PolicyKind::MinProcTime => "MinProcTime",
        }
    }

    /// The optimisation criterion this policy minimises.
    #[must_use]
    pub fn criterion(self) -> Criterion {
        match self {
            PolicyKind::Amp => Criterion::EarliestStart,
            PolicyKind::MinCost => Criterion::MinTotalCost,
            PolicyKind::MinRunTimeGreedy | PolicyKind::MinRunTimeExact => Criterion::MinRuntime,
            PolicyKind::MinFinishGreedy | PolicyKind::MinFinishExact => Criterion::EarliestFinish,
            PolicyKind::MinProcTime => Criterion::MinProcTime,
        }
    }

    /// Whether the per-step selection is exact, i.e. whether the policy's
    /// score must *equal* the exhaustive optimum (greedy and randomized
    /// selections are only bounded below by it).
    #[must_use]
    pub fn is_exact(self) -> bool {
        matches!(
            self,
            PolicyKind::Amp
                | PolicyKind::MinCost
                | PolicyKind::MinRunTimeExact
                | PolicyKind::MinFinishExact
        )
    }

    /// Runs this policy over a scenario through the chosen scan.
    #[must_use]
    pub fn scan(self, scenario: &Scenario, seed: u64, side: ScanSide) -> ScanOutcome {
        let run = |policy: &mut dyn SelectionPolicy| match side {
            ScanSide::Pool => scenario.scan_pool(policy),
            ScanSide::Reference => scenario.scan_reference(policy),
        };
        match self {
            PolicyKind::Amp => run(&mut Amp.policy()),
            PolicyKind::MinCost => run(&mut MinCost.policy()),
            PolicyKind::MinRunTimeGreedy => {
                run(&mut MinRunTime::with_selection(RuntimeSelection::Greedy).policy())
            }
            PolicyKind::MinRunTimeExact => {
                run(&mut MinRunTime::with_selection(RuntimeSelection::Exact).policy())
            }
            PolicyKind::MinFinishGreedy => {
                run(&mut MinFinish::with_selection(RuntimeSelection::Greedy).policy())
            }
            PolicyKind::MinFinishExact => {
                run(&mut MinFinish::with_selection(RuntimeSelection::Exact).policy())
            }
            PolicyKind::MinProcTime => {
                let mut algo = MinProcTime::with_seed(seed);
                let mut policy = algo.policy();
                run(&mut policy)
            }
        }
    }
}

/// Which scan formulation to drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanSide {
    /// The incremental [`CandidatePool`](slotsel_core::pool::CandidatePool)
    /// scan.
    Pool,
    /// The historical sort-per-step reference scan.
    Reference,
}

/// The individual properties the engine asserts. Each is re-runnable in
/// isolation from `(scenario, policy, seed)` via [`run_check`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CheckKind {
    /// Deserialized/derived scenarios must satisfy [`Scenario::validate`].
    ScenarioValidity,
    /// Pool scan and reference scan agree window-for-window and
    /// counter-for-counter.
    PoolVsReference,
    /// Any returned window passes structural validation and respects the
    /// budget and deadline.
    WindowValidity,
    /// Feasibility matches the exhaustive oracle; exact policies match its
    /// score, greedy/randomized ones never beat it.
    OracleAgreement,
    /// Branch-and-bound and exhaustive enumeration agree on the additive
    /// criteria.
    BnbCross,
    /// The tree slot store and the `Vec` oracle store agree: scans over a
    /// tree-backed copy of the scenario return identical outcomes, and a
    /// deterministic cut/release/retain/prune storm applied to both stores
    /// keeps them slot-for-slot identical after every step.
    StoreEquivalence,
    /// The aggregate-pruned scan over a tree-backed copy is pick-for-pick
    /// identical to the plain `Vec` pool scan *and* the reference scan,
    /// across every policy: same windows, same [`ScanStats`] (the pruning
    /// tallies are excluded from stats equality by contract), and
    /// byte-identical trace event streams (the same tallies, which ride
    /// the `scan_finished` wire line, are zeroed on both sides first).
    ///
    /// [`ScanStats`]: slotsel_core::aep::ScanStats
    PrunedScanEquivalence,
    /// Shifting every slot (and the deadline) by a constant shifts the
    /// answer and nothing else.
    TimeShift,
    /// Uniformly scaling all prices and the budget scales the cost and
    /// changes nothing else.
    PriceScale,
    /// Renaming nodes (a dense permutation) cannot change the outcome.
    NodePermutation,
    /// Doubling the budget keeps feasibility and never worsens an exact
    /// policy's score.
    BudgetMonotone,
    /// Adding an admissible (dominated) slot never worsens an exact
    /// policy's score and keeps feasibility.
    DominatedSlot,
}

impl CheckKind {
    /// Stable display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CheckKind::ScenarioValidity => "scenario-validity",
            CheckKind::PoolVsReference => "pool-vs-reference",
            CheckKind::WindowValidity => "window-validity",
            CheckKind::OracleAgreement => "oracle-agreement",
            CheckKind::BnbCross => "bnb-cross",
            CheckKind::StoreEquivalence => "store-equivalence",
            CheckKind::PrunedScanEquivalence => "pruned-scan-equivalence",
            CheckKind::TimeShift => "time-shift",
            CheckKind::PriceScale => "price-scale",
            CheckKind::NodePermutation => "node-permutation",
            CheckKind::BudgetMonotone => "budget-monotone",
            CheckKind::DominatedSlot => "dominated-slot",
        }
    }

    /// All per-policy checks, in campaign order.
    pub const PER_POLICY: [CheckKind; 8] = [
        CheckKind::PoolVsReference,
        CheckKind::WindowValidity,
        CheckKind::OracleAgreement,
        CheckKind::TimeShift,
        CheckKind::PriceScale,
        CheckKind::NodePermutation,
        CheckKind::BudgetMonotone,
        CheckKind::DominatedSlot,
    ];
}

/// One reproduced disagreement: the check that failed, on which policy, a
/// human-readable diagnosis, and the exact scenario that triggers it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Failure {
    /// Which property was violated.
    pub check: CheckKind,
    /// The policy involved, when the check is per-policy.
    pub policy: Option<PolicyKind>,
    /// What disagreed with what.
    pub detail: String,
    /// Seed for the randomized policy (ignored by the others).
    pub seed: u64,
    /// The input that reproduces the violation.
    pub scenario: Scenario,
}

/// Runs one check against one scenario.
///
/// # Errors
///
/// Returns a description of the violated property. Checks that do not
/// apply (oracle too large, non-exact policy for a monotonicity check,
/// price cap present for the scaling check) return `Ok(())`.
pub fn run_check(
    scenario: &Scenario,
    check: CheckKind,
    policy: Option<PolicyKind>,
    seed: u64,
) -> Result<(), String> {
    match check {
        CheckKind::ScenarioValidity => scenario.validate(),
        CheckKind::PoolVsReference => pool_vs_reference(scenario, require_policy(policy)?, seed),
        CheckKind::WindowValidity => window_validity(scenario, require_policy(policy)?, seed),
        CheckKind::OracleAgreement => oracle_agreement(scenario, require_policy(policy)?, seed),
        CheckKind::BnbCross => bnb_cross(scenario),
        CheckKind::StoreEquivalence => store_equivalence(scenario, seed),
        CheckKind::PrunedScanEquivalence => pruned_scan_equivalence(scenario, seed),
        CheckKind::TimeShift => time_shift(scenario, require_policy(policy)?, seed),
        CheckKind::PriceScale => price_scale(scenario, require_policy(policy)?, seed),
        CheckKind::NodePermutation => node_permutation(scenario, require_policy(policy)?, seed),
        CheckKind::BudgetMonotone => budget_monotone(scenario, require_policy(policy)?, seed),
        CheckKind::DominatedSlot => dominated_slot(scenario, require_policy(policy)?, seed),
    }
}

/// Runs the full check battery over a generated case, including the
/// disrupted variant when the case carries a disruption schedule. Returns
/// every failure found (empty when the case is clean).
#[must_use]
pub fn check_case(case: &GeneratedCase) -> Vec<Failure> {
    let mut failures = check_scenario(&case.scenario, case.seed);
    if let Some(disrupted) = disrupted_scenario(case) {
        // Failures on the disrupted variant embed the *disrupted* scenario,
        // so they shrink and replay without the disruption machinery.
        failures.extend(check_scenario(&disrupted, case.seed));
    }
    failures
}

/// Runs the full check battery over one scenario.
#[must_use]
pub fn check_scenario(scenario: &Scenario, seed: u64) -> Vec<Failure> {
    let mut failures = Vec::new();
    let mut record = |check: CheckKind, policy: Option<PolicyKind>, result: Result<(), String>| {
        if let Err(detail) = result {
            failures.push(Failure {
                check,
                policy,
                detail,
                seed,
                scenario: scenario.clone(),
            });
        }
    };

    record(
        CheckKind::ScenarioValidity,
        None,
        run_check(scenario, CheckKind::ScenarioValidity, None, seed),
    );
    record(
        CheckKind::BnbCross,
        None,
        run_check(scenario, CheckKind::BnbCross, None, seed),
    );
    record(
        CheckKind::StoreEquivalence,
        None,
        run_check(scenario, CheckKind::StoreEquivalence, None, seed),
    );
    record(
        CheckKind::PrunedScanEquivalence,
        None,
        run_check(scenario, CheckKind::PrunedScanEquivalence, None, seed),
    );
    for policy in PolicyKind::ALL {
        for check in CheckKind::PER_POLICY {
            record(
                check,
                Some(policy),
                run_check(scenario, check, Some(policy), seed),
            );
        }
    }
    failures
}

fn require_policy(policy: Option<PolicyKind>) -> Result<PolicyKind, String> {
    policy.ok_or_else(|| "check requires a policy".to_owned())
}

fn describe(window: &Option<Window>, criterion: Criterion) -> String {
    match window {
        None => "no window".to_owned(),
        Some(w) => format!(
            "window start={} score={} cost={} slots={:?}",
            w.start(),
            criterion.score(w),
            w.total_cost(),
            w.slots().iter().map(|ws| ws.slot().0).collect::<Vec<_>>()
        ),
    }
}

fn pool_vs_reference(scenario: &Scenario, policy: PolicyKind, seed: u64) -> Result<(), String> {
    let pool = policy.scan(scenario, seed, ScanSide::Pool);
    let reference = policy.scan(scenario, seed, ScanSide::Reference);
    if pool.best != reference.best {
        return Err(format!(
            "{}: pool scan found {} but reference scan found {}",
            policy.name(),
            describe(&pool.best, policy.criterion()),
            describe(&reference.best, policy.criterion()),
        ));
    }
    if pool.stats != reference.stats {
        return Err(format!(
            "{}: scan stats diverge: pool {:?} vs reference {:?}",
            policy.name(),
            pool.stats,
            reference.stats
        ));
    }
    Ok(())
}

fn window_validity(scenario: &Scenario, policy: PolicyKind, seed: u64) -> Result<(), String> {
    let outcome = policy.scan(scenario, seed, ScanSide::Pool);
    let Some(window) = outcome.best else {
        return Ok(());
    };
    validate_window(
        &window,
        &scenario.platform,
        &scenario.slots,
        &scenario.request,
    )
    .map_err(|v| format!("{}: invalid window: {v}", policy.name()))?;
    if window.total_cost() > scenario.request.budget() {
        return Err(format!(
            "{}: window cost {} exceeds budget {}",
            policy.name(),
            window.total_cost(),
            scenario.request.budget()
        ));
    }
    if let Some(deadline) = scenario.request.deadline() {
        if window.finish() > deadline {
            return Err(format!(
                "{}: window finishes at {} past the deadline {}",
                policy.name(),
                window.finish(),
                deadline
            ));
        }
    }
    Ok(())
}

fn oracle_agreement(scenario: &Scenario, policy: PolicyKind, seed: u64) -> Result<(), String> {
    let criterion = policy.criterion();
    let oracle = match exhaustive_best_checked(
        &scenario.platform,
        &scenario.slots,
        &scenario.request,
        &criterion,
        ORACLE_SUBSET_LIMIT,
    ) {
        Ok(best) => best,
        Err(OracleTooLarge { .. }) => return Ok(()), // Not applicable.
    };
    let outcome = policy.scan(scenario, seed, ScanSide::Pool);
    match (&outcome.best, &oracle) {
        (None, None) => Ok(()),
        (Some(found), Some(best)) => {
            let found_score = criterion.score(found);
            let best_score = criterion.score(best);
            if policy.is_exact() && (found_score - best_score).abs() > EPS {
                Err(format!(
                    "{}: exact policy scored {found_score} but the oracle optimum is {best_score}",
                    policy.name()
                ))
            } else if found_score < best_score - EPS {
                Err(format!(
                    "{}: policy scored {found_score}, beating the oracle optimum {best_score}",
                    policy.name()
                ))
            } else {
                Ok(())
            }
        }
        (found, best) => Err(format!(
            "{}: feasibility disagrees with the oracle: policy {} vs oracle {}",
            policy.name(),
            describe(found, criterion),
            describe(best, criterion),
        )),
    }
}

fn bnb_cross(scenario: &Scenario) -> Result<(), String> {
    if subset_space(&scenario.platform, &scenario.slots, &scenario.request) > ORACLE_SUBSET_LIMIT {
        return Ok(());
    }
    for criterion in Criterion::ALL {
        if !is_additive(criterion) {
            continue;
        }
        let exhaustive = exhaustive_best_checked(
            &scenario.platform,
            &scenario.slots,
            &scenario.request,
            &criterion,
            ORACLE_SUBSET_LIMIT,
        )
        .map_err(|e| e.to_string())?;
        let bnb = bnb_best(
            &scenario.platform,
            &scenario.slots,
            &scenario.request,
            criterion,
        );
        match (&exhaustive, &bnb) {
            (None, None) => {}
            (Some(e), Some(b)) => {
                let (es, bs) = (criterion.score(e), criterion.score(b));
                if (es - bs).abs() > EPS {
                    return Err(format!(
                        "{criterion}: exhaustive optimum {es} but branch-and-bound found {bs}"
                    ));
                }
            }
            _ => {
                return Err(format!(
                    "{criterion}: feasibility disagrees: exhaustive {} vs branch-and-bound {}",
                    describe(&exhaustive, criterion),
                    describe(&bnb, criterion),
                ))
            }
        }
    }
    Ok(())
}

/// Runs one policy over `slots` with a memory recorder attached,
/// returning the outcome, the serialized trace event stream and the
/// `"aep.alive"` sample digest `(count, sum)`.
fn traced_scan_over(
    kind: PolicyKind,
    scenario: &Scenario,
    slots: &SlotList,
    seed: u64,
    side: ScanSide,
) -> (ScanOutcome, Vec<String>, (u64, f64)) {
    use slotsel_obs::{MemoryRecorder, Obs, TraceEvent};

    let mut recorder = MemoryRecorder::new();
    let outcome = {
        let mut obs = Obs::dark().with_recorder(&mut recorder);
        let mut run = |policy: &mut dyn SelectionPolicy| {
            let scan = match side {
                ScanSide::Pool => scan_observed,
                ScanSide::Reference => reference_scan_observed,
            };
            scan(
                &scenario.platform,
                slots,
                &scenario.request,
                policy,
                ScanOptions::default(),
                &mut obs,
            )
        };
        match kind {
            PolicyKind::Amp => run(&mut Amp.policy()),
            PolicyKind::MinCost => run(&mut MinCost.policy()),
            PolicyKind::MinRunTimeGreedy => {
                run(&mut MinRunTime::with_selection(RuntimeSelection::Greedy).policy())
            }
            PolicyKind::MinRunTimeExact => {
                run(&mut MinRunTime::with_selection(RuntimeSelection::Exact).policy())
            }
            PolicyKind::MinFinishGreedy => {
                run(&mut MinFinish::with_selection(RuntimeSelection::Greedy).policy())
            }
            PolicyKind::MinFinishExact => {
                run(&mut MinFinish::with_selection(RuntimeSelection::Exact).policy())
            }
            PolicyKind::MinProcTime => {
                let mut algo = MinProcTime::with_seed(seed);
                let mut policy = algo.policy();
                run(&mut policy)
            }
        }
    };
    let trace: Vec<String> = recorder
        .events()
        .iter()
        .map(|event| {
            let mut event = event.clone();
            // The pruning tallies ride the scan_finished wire line but are
            // diagnostics excluded from equivalence by contract — the Vec
            // oracle never prunes, so zero them on both sides and compare
            // the rest of the line byte-for-byte.
            if let TraceEvent::ScanFinished {
                subtrees_skipped,
                windows_jumped,
                ..
            } = &mut event
            {
                *subtrees_skipped = 0;
                *windows_jumped = 0;
            }
            event.to_json_line()
        })
        .collect();
    let alive = recorder
        .samples("aep.alive")
        .map_or((0, 0.0), |h| (h.count(), h.sum()));
    (outcome, trace, alive)
}

/// The first line at which two serialized trace streams diverge, for
/// failure messages.
fn first_trace_divergence(a: &[String], b: &[String]) -> String {
    let at = a
        .iter()
        .zip(b.iter())
        .position(|(x, y)| x != y)
        .unwrap_or_else(|| a.len().min(b.len()));
    format!(
        "event {at}: {} vs {}",
        a.get(at).map_or("<end of trace>", String::as_str),
        b.get(at).map_or("<end of trace>", String::as_str),
    )
}

fn pruned_scan_equivalence(scenario: &Scenario, seed: u64) -> Result<(), String> {
    // Same preconditions as store-equivalence: the tree store rejects
    // duplicate slot ids and unsorted lists, both already flagged by the
    // validity check.
    let mut seen = std::collections::HashSet::new();
    if !scenario.slots.iter().all(|s| seen.insert(s.id())) || !scenario.slots.is_sorted() {
        return Ok(());
    }

    let mut vec_list = scenario.slots.clone();
    vec_list.convert(SlotStoreKind::Vec);
    let mut tree_list = scenario.slots.clone();
    tree_list.convert(SlotStoreKind::Tree);

    for policy in PolicyKind::ALL {
        // The tree pool scan takes the aggregate-pruned cursor; the Vec
        // pool scan and the reference scan are its two oracles.
        let (tree, tree_trace, tree_alive) =
            traced_scan_over(policy, scenario, &tree_list, seed, ScanSide::Pool);
        let (vec_pool, vec_trace, vec_alive) =
            traced_scan_over(policy, scenario, &vec_list, seed, ScanSide::Pool);
        let (reference, ref_trace, ref_alive) =
            traced_scan_over(policy, scenario, &vec_list, seed, ScanSide::Reference);

        for (oracle_name, oracle, oracle_trace, oracle_alive) in [
            ("vec pool scan", &vec_pool, &vec_trace, vec_alive),
            ("reference scan", &reference, &ref_trace, ref_alive),
        ] {
            if tree.best != oracle.best {
                return Err(format!(
                    "{}: pruned scan found {} but {oracle_name} found {}",
                    policy.name(),
                    describe(&tree.best, policy.criterion()),
                    describe(&oracle.best, policy.criterion()),
                ));
            }
            if tree.stats != oracle.stats {
                return Err(format!(
                    "{}: pruned scan stats diverge from {oracle_name}: {:?} vs {:?}",
                    policy.name(),
                    tree.stats,
                    oracle.stats,
                ));
            }
            if tree_trace != *oracle_trace {
                return Err(format!(
                    "{}: pruned scan trace diverges from {oracle_name} at {}",
                    policy.name(),
                    first_trace_divergence(&tree_trace, oracle_trace),
                ));
            }
            if tree_alive != oracle_alive {
                return Err(format!(
                    "{}: pruned scan aep.alive samples diverge from {oracle_name}: \
                     {tree_alive:?} vs {oracle_alive:?}",
                    policy.name(),
                ));
            }
        }

        // The new counters are diagnostics, but they must still be
        // internally consistent: skips are rejections, every jump skipped
        // at least one slot, and the Vec scan never prunes.
        if tree.stats.windows_jumped > tree.stats.slots_rejected {
            return Err(format!(
                "{}: pruned scan reports {} jumps but only {} rejections",
                policy.name(),
                tree.stats.windows_jumped,
                tree.stats.slots_rejected,
            ));
        }
        if vec_pool.stats.subtrees_skipped != 0 || vec_pool.stats.windows_jumped != 0 {
            return Err(format!(
                "{}: vec scan reports pruning work: {:?}",
                policy.name(),
                vec_pool.stats,
            ));
        }
    }
    Ok(())
}

fn store_equivalence(scenario: &Scenario, seed: u64) -> Result<(), String> {
    // The tree store rejects duplicate slot ids outright while the Vec
    // oracle merely behaves badly on them; such scenarios are invalid and
    // already flagged by the validity check, so the comparison is skipped.
    let mut seen = std::collections::HashSet::new();
    if !scenario.slots.iter().all(|s| seen.insert(s.id())) || !scenario.slots.is_sorted() {
        return Ok(());
    }

    let mut vec_list = scenario.slots.clone();
    vec_list.convert(SlotStoreKind::Vec);
    let mut tree_list = scenario.slots.clone();
    tree_list.convert(SlotStoreKind::Tree);
    stores_match(0, "convert", &vec_list, &tree_list)?;

    // Scans over a tree-backed copy of the scenario must be identical —
    // this covers the ordered iteration and covering lookups the AEP scan
    // performs.
    let tree_scenario = Scenario::new(
        scenario.platform.clone(),
        tree_list.clone(),
        scenario.request.clone(),
    );
    for policy in [
        PolicyKind::Amp,
        PolicyKind::MinCost,
        PolicyKind::MinProcTime,
    ] {
        let base = policy.scan(scenario, seed, ScanSide::Pool);
        let tree = policy.scan(&tree_scenario, seed, ScanSide::Pool);
        if base.best != tree.best || base.stats != tree.stats {
            return Err(format!(
                "{}: pool scan diverges across stores: vec {} vs tree {}",
                policy.name(),
                describe(&base.best, policy.criterion()),
                describe(&tree.best, policy.criterion()),
            ));
        }
    }

    // Drive one deterministic mutation stream through both stores and
    // demand they stay slot-for-slot identical after every step. The ops
    // cover everything the simulators do to a live list: cutting a
    // reservation out, releasing it back (coalescing), pruning expired
    // slots, dropping nodes, arbitrary retains and the live clock advance.
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let steps = (scenario.slots.len() * 2).clamp(8, 64);
    for step in 1..=steps {
        if vec_list.is_empty() {
            break;
        }
        let pick = (next() % vec_list.len() as u64) as usize;
        let slot = *vec_list.nth(pick).expect("index is below len");
        match next() % 7 {
            // Cut the middle half out of a slot, then release it again —
            // remainder insertion, fresh-id allocation and coalescing.
            0..=2 => {
                let quarter = slot.length() / 4;
                let reserved = Interval::new(slot.start() + quarter, slot.end() - quarter);
                if reserved.is_empty() {
                    continue;
                }
                let reservations = [(slot.id(), reserved)];
                vec_list
                    .cut(&reservations, TimeDelta::ZERO)
                    .map_err(|e| format!("step {step}: vec cut failed: {e}"))?;
                tree_list
                    .cut(&reservations, TimeDelta::ZERO)
                    .map_err(|e| format!("step {step}: tree cut failed: {e}"))?;
                stores_match(step, "cut", &vec_list, &tree_list)?;
                // Releasing a span that overlaps a free slot is a caller
                // bug (and panics); skip the release when another slot on
                // the node already overlaps the freed span.
                if vec_list
                    .iter()
                    .any(|s| s.node() == slot.node() && s.span().overlaps(&reserved))
                {
                    continue;
                }
                vec_list.release(
                    slot.node(),
                    reserved,
                    slot.performance(),
                    slot.price_per_unit(),
                );
                tree_list.release(
                    slot.node(),
                    reserved,
                    slot.performance(),
                    slot.price_per_unit(),
                );
                stores_match(step, "release", &vec_list, &tree_list)?;
            }
            3 => {
                let cutoff = slot.start();
                let dropped_vec = vec_list.prune_ended_by(cutoff);
                let dropped_tree = tree_list.prune_ended_by(cutoff);
                if dropped_vec != dropped_tree {
                    return Err(format!(
                        "step {step}: prune_ended_by({cutoff}) dropped \
                         {dropped_vec} slots on vec but {dropped_tree} on tree"
                    ));
                }
                stores_match(step, "prune_ended_by", &vec_list, &tree_list)?;
            }
            4 => {
                let residue = next() % 7;
                vec_list.retain(|s| s.id().0 % 7 != residue);
                tree_list.retain(|s| s.id().0 % 7 != residue);
                stores_match(step, "retain", &vec_list, &tree_list)?;
            }
            5 => {
                let dropped_vec = vec_list.remove_node_slots(slot.node());
                let dropped_tree = tree_list.remove_node_slots(slot.node());
                if dropped_vec != dropped_tree {
                    return Err(format!(
                        "step {step}: remove_node_slots({}) dropped \
                         {dropped_vec} slots on vec but {dropped_tree} on tree",
                        slot.node()
                    ));
                }
                stores_match(step, "remove_node_slots", &vec_list, &tree_list)?;
            }
            // The serve daemon's clock advance: grow every platform node
            // past the latest free time and trim what lies before the
            // picked slot's start. Both stores must also match the
            // per-node sequence the one-pass advance replaces.
            _ => {
                let horizon = vec_list
                    .iter()
                    .map(Slot::end)
                    .max()
                    .expect("list is non-empty");
                let advance = TimeDelta::new((next() % 97 + 1) as i64);
                let grown = Interval::new(horizon, horizon + advance);
                let mut stepped = vec_list.clone();
                advance_per_node(&mut stepped, &scenario.platform, grown, slot.start());
                vec_list.advance_horizon(&scenario.platform, grown, slot.start());
                tree_list.advance_horizon(&scenario.platform, grown, slot.start());
                stores_match(step, "advance_horizon", &stepped, &vec_list)?;
                stores_match(step, "advance_horizon", &vec_list, &tree_list)?;
            }
        }
    }

    // Converting the mutated tree back down must reproduce the Vec store
    // exactly, and both must serialize to the same store-agnostic layout.
    let mut round = tree_list.clone();
    round.convert(SlotStoreKind::Vec);
    stores_match(steps + 1, "round-trip convert", &vec_list, &round)?;
    let layout = |list: &SlotList| serde_json::to_string(list).expect("slot lists serialize");
    if layout(&vec_list) != layout(&tree_list) {
        return Err("serialized layouts diverge between vec and tree stores".to_owned());
    }
    Ok(())
}

/// The clock advance as [`SlotList::advance_horizon`] documents it: a
/// release of `grown` per platform node, a prune, then one cut of each
/// stale prefix. Kept as the one-pass advance's oracle.
fn advance_per_node(list: &mut SlotList, platform: &Platform, grown: Interval, now: TimePoint) {
    for node in platform.iter() {
        list.release(node.id(), grown, node.performance(), node.price_per_unit());
    }
    list.prune_ended_by(now);
    let stale: Vec<_> = list
        .iter()
        .take_while(|slot| slot.start() < now)
        .map(|slot| (slot.id(), Interval::new(slot.start(), now)))
        .collect();
    if !stale.is_empty() {
        list.cut(&stale, TimeDelta::ZERO)
            .expect("stale prefixes lie inside their slots");
    }
}

/// Demands two store backends hold identical slot sequences and statistics.
fn stores_match(
    step: usize,
    op: &str,
    vec_list: &SlotList,
    tree_list: &SlotList,
) -> Result<(), String> {
    if vec_list != tree_list {
        return Err(format!(
            "stores diverge after step {step} ({op}): vec [{vec_list}] vs tree [{tree_list}]"
        ));
    }
    if vec_list.stats() != tree_list.stats() {
        return Err(format!(
            "stats diverge after step {step} ({op}): vec {:?} vs tree {:?}",
            vec_list.stats(),
            tree_list.stats()
        ));
    }
    Ok(())
}

fn picked_slots(window: &Window) -> Vec<u64> {
    window.slots().iter().map(|ws| ws.slot().0).collect()
}

fn time_shift(scenario: &Scenario, policy: PolicyKind, seed: u64) -> Result<(), String> {
    const DELTA: i64 = 293;
    let shifted = shift_scenario(scenario, DELTA);
    let base = policy.scan(scenario, seed, ScanSide::Pool);
    let moved = policy.scan(&shifted, seed, ScanSide::Pool);
    if base.stats != moved.stats {
        return Err(format!(
            "{}: stats changed under a global +{DELTA} time shift: {:?} vs {:?}",
            policy.name(),
            base.stats,
            moved.stats
        ));
    }
    match (&base.best, &moved.best) {
        (None, None) => Ok(()),
        (Some(a), Some(b)) => {
            if picked_slots(a) != picked_slots(b)
                || b.start() != a.start() + TimeDelta::new(DELTA)
                || b.runtime() != a.runtime()
                || b.total_cost() != a.total_cost()
            {
                Err(format!(
                    "{}: +{DELTA} shift changed the window: {} vs {}",
                    policy.name(),
                    describe(&base.best, policy.criterion()),
                    describe(&moved.best, policy.criterion()),
                ))
            } else {
                Ok(())
            }
        }
        _ => Err(format!(
            "{}: feasibility changed under a global +{DELTA} time shift",
            policy.name()
        )),
    }
}

fn price_scale(scenario: &Scenario, policy: PolicyKind, seed: u64) -> Result<(), String> {
    const K: i64 = 3;
    if scenario.request.requirements().price_cap().is_some() {
        return Ok(()); // The cap does not scale with the slots; skip.
    }
    let scaled = scale_prices(scenario, K);
    let base = policy.scan(scenario, seed, ScanSide::Pool);
    let multiplied = policy.scan(&scaled, seed, ScanSide::Pool);
    if base.stats != multiplied.stats {
        return Err(format!(
            "{}: stats changed under a uniform x{K} price scale: {:?} vs {:?}",
            policy.name(),
            base.stats,
            multiplied.stats
        ));
    }
    match (&base.best, &multiplied.best) {
        (None, None) => Ok(()),
        (Some(a), Some(b)) => {
            if picked_slots(a) != picked_slots(b)
                || b.start() != a.start()
                || b.total_cost() != a.total_cost() * K
            {
                Err(format!(
                    "{}: x{K} price scale changed the window: {} vs {}",
                    policy.name(),
                    describe(&base.best, policy.criterion()),
                    describe(&multiplied.best, policy.criterion()),
                ))
            } else {
                Ok(())
            }
        }
        _ => Err(format!(
            "{}: feasibility changed under a uniform x{K} price scale",
            policy.name()
        )),
    }
}

fn node_permutation(scenario: &Scenario, policy: PolicyKind, seed: u64) -> Result<(), String> {
    let Some(permuted) = permute_nodes(scenario) else {
        return Ok(());
    };
    let base = policy.scan(scenario, seed, ScanSide::Pool);
    let renamed = policy.scan(&permuted, seed, ScanSide::Pool);
    if base.stats != renamed.stats {
        return Err(format!(
            "{}: stats changed when node identities were permuted: {:?} vs {:?}",
            policy.name(),
            base.stats,
            renamed.stats
        ));
    }
    match (&base.best, &renamed.best) {
        (None, None) => Ok(()),
        (Some(a), Some(b)) => {
            let criterion = policy.criterion();
            if picked_slots(a) != picked_slots(b)
                || (criterion.score(a) - criterion.score(b)).abs() > EPS
            {
                Err(format!(
                    "{}: permuting node identities changed the window: {} vs {}",
                    policy.name(),
                    describe(&base.best, criterion),
                    describe(&renamed.best, criterion),
                ))
            } else {
                Ok(())
            }
        }
        _ => Err(format!(
            "{}: feasibility changed when node identities were permuted",
            policy.name()
        )),
    }
}

fn budget_monotone(scenario: &Scenario, policy: PolicyKind, seed: u64) -> Result<(), String> {
    let richer = with_budget(scenario, scenario.request.budget().saturating_mul(2));
    let base = policy.scan(scenario, seed, ScanSide::Pool);
    let relaxed = policy.scan(&richer, seed, ScanSide::Pool);
    match (&base.best, &relaxed.best) {
        (Some(_), None) => Err(format!(
            "{}: doubling the budget made a feasible request infeasible",
            policy.name()
        )),
        (Some(a), Some(b)) if policy.is_exact() => {
            let criterion = policy.criterion();
            if criterion.score(b) > criterion.score(a) + EPS {
                Err(format!(
                    "{}: doubling the budget worsened the score: {} vs {}",
                    policy.name(),
                    criterion.score(a),
                    criterion.score(b)
                ))
            } else {
                Ok(())
            }
        }
        _ => Ok(()),
    }
}

fn dominated_slot(scenario: &Scenario, policy: PolicyKind, seed: u64) -> Result<(), String> {
    if !policy.is_exact() {
        return Ok(()); // Greedy picks may legitimately change arbitrarily.
    }
    let Some(augmented) = add_dominated_slot(scenario) else {
        return Ok(());
    };
    let base = policy.scan(scenario, seed, ScanSide::Pool);
    let extended = policy.scan(&augmented, seed, ScanSide::Pool);
    match (&base.best, &extended.best) {
        (Some(_), None) => Err(format!(
            "{}: adding an admissible slot made a feasible request infeasible",
            policy.name()
        )),
        (Some(a), Some(b)) => {
            let criterion = policy.criterion();
            if criterion.score(b) > criterion.score(a) + EPS {
                Err(format!(
                    "{}: adding an admissible slot worsened the score: {} vs {}",
                    policy.name(),
                    criterion.score(a),
                    criterion.score(b)
                ))
            } else {
                Ok(())
            }
        }
        _ => Ok(()),
    }
}

// ---------------------------------------------------------------------------
// Metamorphic transforms.
// ---------------------------------------------------------------------------

/// Shifts every slot span and the deadline by `delta` ticks.
#[must_use]
pub fn shift_scenario(scenario: &Scenario, delta: i64) -> Scenario {
    let delta = TimeDelta::new(delta);
    let slots: Vec<Slot> = scenario
        .slots
        .iter()
        .map(|s| s.with_span(s.id(), Interval::new(s.start() + delta, s.end() + delta)))
        .collect();
    let mut request = scenario.request.clone();
    if let Some(deadline) = request.deadline() {
        request = request
            .into_builder()
            .deadline(deadline + delta)
            .build()
            .expect("shifting a valid request keeps it valid");
    }
    Scenario::new(
        scenario.platform.clone(),
        SlotList::from_slots(slots),
        request,
    )
}

/// Multiplies every node price, slot price and the budget by `k`.
#[must_use]
pub fn scale_prices(scenario: &Scenario, k: i64) -> Scenario {
    let platform: Platform = scenario
        .platform
        .iter()
        .map(|node| respec(node, node.id().0, node.price_per_unit() * k))
        .collect();
    let slots: Vec<Slot> = scenario
        .slots
        .iter()
        .map(|s| {
            Slot::new(
                s.id(),
                s.node(),
                s.span(),
                s.performance(),
                s.price_per_unit() * k,
            )
        })
        .collect();
    let request = scenario
        .request
        .clone()
        .into_builder()
        .budget(scenario.request.budget() * k)
        .build()
        .expect("scaling a valid request keeps it valid");
    Scenario::new(platform, SlotList::from_slots(slots), request)
}

/// Applies the dense rotation `id -> (id + 1) mod len` to node identities.
/// Returns `None` for platforms too small to permute.
#[must_use]
pub fn permute_nodes(scenario: &Scenario) -> Option<Scenario> {
    let len = scenario.platform.len() as u32;
    if len < 2 {
        return None;
    }
    let remap = |id: slotsel_core::NodeId| slotsel_core::NodeId((id.0 + 1) % len);
    let mut nodes: Vec<NodeSpec> = scenario
        .platform
        .iter()
        .map(|node| respec(node, remap(node.id()).0, node.price_per_unit()))
        .collect();
    nodes.sort_by_key(NodeSpec::id);
    let slots: Vec<Slot> = scenario
        .slots
        .iter()
        .map(|s| {
            Slot::new(
                s.id(),
                remap(s.node()),
                s.span(),
                s.performance(),
                s.price_per_unit(),
            )
        })
        .collect();
    Some(Scenario::new(
        nodes.into_iter().collect(),
        SlotList::from_slots(slots),
        scenario.request.clone(),
    ))
}

/// Rebuilds the request with a different budget.
#[must_use]
pub fn with_budget(scenario: &Scenario, budget: Money) -> Scenario {
    let request = scenario
        .request
        .clone()
        .into_builder()
        .budget(budget)
        .build()
        .expect("budget stays positive");
    Scenario::new(scenario.platform.clone(), scenario.slots.clone(), request)
}

/// Adds one admissible node whose spec copies the worst admitted node
/// (lowest performance, then highest price) and gives it a slot spanning
/// the hull of all existing slots. For the exact policies this can only
/// weakly improve the optimum.
#[must_use]
pub fn add_dominated_slot(scenario: &Scenario) -> Option<Scenario> {
    let requirements = scenario.request.requirements();
    let template = scenario
        .platform
        .iter()
        .filter(|node| requirements.admits(node))
        .min_by_key(|node| (node.performance(), std::cmp::Reverse(node.price_per_unit())))?;
    let hull_start = scenario.slots.iter().map(Slot::start).min()?;
    let hull_end = scenario.slots.iter().map(Slot::end).max()?;
    let new_node = respec(
        template,
        scenario.platform.len() as u32,
        template.price_per_unit(),
    );
    let next_slot_id = scenario
        .slots
        .iter()
        .map(|s| s.id().0 + 1)
        .max()
        .unwrap_or(0);
    let extra = Slot::new(
        SlotId(next_slot_id),
        new_node.id(),
        Interval::new(hull_start, hull_end),
        new_node.performance(),
        new_node.price_per_unit(),
    );
    let platform: Platform = scenario
        .platform
        .iter()
        .cloned()
        .chain([new_node])
        .collect();
    let slots: Vec<Slot> = scenario.slots.iter().copied().chain([extra]).collect();
    Some(Scenario::new(
        platform,
        SlotList::from_slots(slots),
        scenario.request.clone(),
    ))
}

/// Copies a node spec under a new id and price, preserving everything else.
fn respec(node: &NodeSpec, id: u32, price: Money) -> NodeSpec {
    let mut builder = NodeSpec::builder(id)
        .performance(node.performance())
        .price_per_unit(price)
        .clock_mhz(node.clock_mhz())
        .ram_mb(node.ram_mb())
        .disk_gb(node.disk_gb())
        .os(node.os());
    if let Some(domain) = node.domain() {
        builder = builder.domain(domain);
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{ScenarioGen, SizeTier};

    #[test]
    fn clean_generated_cases_pass_every_check() {
        let gen = ScenarioGen::new(0xFEED, SizeTier::Tiny);
        for i in 0..15 {
            let case = gen.case(i);
            let failures = check_case(&case);
            assert!(
                failures.is_empty(),
                "case {i} failed: {} — {}",
                failures[0].check.name(),
                failures[0].detail
            );
        }
    }

    #[test]
    fn transforms_preserve_scenario_validity() {
        let gen = ScenarioGen::new(0xBEEF, SizeTier::Tiny);
        for i in 0..10 {
            let scenario = gen.case(i).scenario;
            shift_scenario(&scenario, 293).validate().unwrap();
            scale_prices(&scenario, 3).validate().unwrap();
            if let Some(p) = permute_nodes(&scenario) {
                p.validate().unwrap();
            }
            if let Some(d) = add_dominated_slot(&scenario) {
                d.validate().unwrap();
            }
        }
    }

    #[test]
    fn run_check_rejects_missing_policy() {
        let scenario = ScenarioGen::new(1, SizeTier::Tiny).case(0).scenario;
        assert!(run_check(&scenario, CheckKind::PoolVsReference, None, 0).is_err());
    }
}
