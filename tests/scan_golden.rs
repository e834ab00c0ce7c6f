//! Golden scan results for every selector that runs the AEP scan.
//!
//! Each case generates a seeded paper-style platform on one slot store and
//! runs a selector through `select_observed` with a memory recorder. The
//! case line records the picked slot ids, the scan counters the
//! `ScanFinished` event carries and an FNV-1a 64 digest of the JSONL
//! trace. The four pick-only selectors (FirstFit, ALP, MinAdditive,
//! MaxAdditive) have private policy types and no reference-scan
//! differential, so these lines are what pins their behaviour; the five
//! paper algorithms are recorded alongside them.
//!
//! The values below were recorded on the scan as it stood before the three
//! scan bodies were folded into one loop, and must not change: a
//! refactor of the scan keeps windows, counters and traces byte-identical.

use rand::rngs::StdRng;
use rand::SeedableRng;

use slotsel::baselines::{Alp, FirstFit};
use slotsel::core::slotlist::SlotStoreKind;
use slotsel::core::{
    Amp, CostScore, MaxAdditive, MinAdditive, MinCost, MinFinish, MinProcTime, MinRunTime, Money,
    NodeRequirements, Performance, ResourceRequest, SlotSelector, TimePoint, Volume,
};
use slotsel::env::EnvironmentConfig;
use slotsel::obs::{MemoryRecorder, Obs, TraceEvent};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn selectors() -> Vec<Box<dyn SlotSelector>> {
    vec![
        Box::new(Amp),
        Box::new(MinCost),
        Box::new(MinRunTime::default()),
        Box::new(MinFinish::default()),
        Box::new(MinProcTime::with_seed(7)),
        Box::new(FirstFit::new()),
        Box::new(Alp::new()),
        Box::new(MinAdditive::new(CostScore)),
        Box::new(MaxAdditive::new(CostScore)),
    ]
}

/// `(label, request)`: a plain budgeted request, and one under a deadline
/// and a minimum performance, so pruning, rejection and deadline eviction
/// all show up in the counters.
fn requests() -> Vec<(&'static str, ResourceRequest)> {
    let plain = ResourceRequest::builder()
        .node_count(4)
        .volume(Volume::new(150))
        .budget(Money::from_units(1_500))
        .build()
        .expect("valid request");
    let bounded = ResourceRequest::builder()
        .node_count(3)
        .volume(Volume::new(200))
        .budget(Money::from_units(2_000))
        .deadline(TimePoint::new(420))
        .requirements(NodeRequirements::any().min_performance(Performance::new(3)))
        .build()
        .expect("valid request");
    vec![("plain", plain), ("bounded", bounded)]
}

/// One line per (selector, seed, store, request) case.
fn report() -> Vec<String> {
    let mut lines = Vec::new();
    for seed in [11u64, 12] {
        for store in [SlotStoreKind::Vec, SlotStoreKind::Tree] {
            let mut config = EnvironmentConfig::with_node_count(24);
            config.store = store;
            let env = config.generate(&mut StdRng::seed_from_u64(seed));
            for (label, request) in requests() {
                for mut selector in selectors() {
                    let mut recorder = MemoryRecorder::new();
                    let window = selector.select_observed(
                        env.platform(),
                        env.slots(),
                        &request,
                        &mut Obs::dark().with_recorder(&mut recorder),
                    );
                    let slots: Vec<u64> = window
                        .iter()
                        .flat_map(|w| w.slots().iter().map(|s| s.slot().0))
                        .collect();
                    let mut trace = FNV_OFFSET;
                    let mut stats = String::from("none");
                    for event in recorder.events() {
                        trace = fnv(fnv(trace, event.to_json_line().as_bytes()), b"\n");
                        if let TraceEvent::ScanFinished {
                            slots_admitted,
                            slots_rejected,
                            windows_evaluated,
                            peak_alive,
                            subtrees_skipped,
                            windows_jumped,
                            ..
                        } = event
                        {
                            stats = format!(
                                "{slots_admitted}/{slots_rejected}/{windows_evaluated}/\
                                 {peak_alive}/{subtrees_skipped}/{windows_jumped}"
                            );
                        }
                    }
                    lines.push(format!(
                        "{} s{seed} {store:?} {label}: slots={slots:?} stats={stats} trace={trace:016x}",
                        selector.name(),
                    ));
                }
            }
        }
    }
    lines
}

/// Recorded before the scan bodies were merged; see the module docs.
const GOLDEN: &[&str] = &[
    "AMP s11 Vec plain: slots=[4, 14, 0, 10] stats=4/0/1/4/0/0 trace=ac7847931973bdba",
    "MinCost s11 Vec plain: slots=[70, 5, 32, 19] stats=85/14/82/21/0/0 trace=676112a58ba226da",
    "MinRunTime s11 Vec plain: slots=[22, 27, 97, 85] stats=85/14/82/21/0/0 trace=900030ae4fd43800",
    "MinFinish s11 Vec plain: slots=[22, 27, 97, 85] stats=85/14/82/21/0/0 trace=e9218b1bf348f771",
    "MinProcTime s11 Vec plain: slots=[98, 26, 88, 30] stats=85/14/82/21/0/0 trace=0f603e7c2ae8c667",
    "FirstFit s11 Vec plain: slots=[0, 4, 10, 14] stats=4/0/1/4/0/0 trace=72bd14ed36c518ef",
    "ALP s11 Vec plain: slots=[0, 4, 10, 14] stats=4/0/1/4/0/0 trace=6bca42834079c707",
    "MinAdditive(cost) s11 Vec plain: slots=[70, 5, 32, 19] stats=85/14/82/21/0/0 trace=db666cf1a43748bd",
    "MaxAdditive(cost) s11 Vec plain: slots=[83, 62, 79, 41] stats=85/14/82/21/0/0 trace=3bffb31f86a27e36",
    "AMP s11 Vec bounded: slots=[4, 0, 10] stats=3/0/1/3/0/0 trace=63c22195d5495aa0",
    "MinCost s11 Vec bounded: slots=[69, 4, 31] stats=62/13/57/20/0/0 trace=e731e712c8429e46",
    "MinRunTime s11 Vec bounded: slots=[22, 85, 97] stats=62/13/57/20/0/0 trace=7f8b0c4ada25da14",
    "MinFinish s11 Vec bounded: slots=[22, 85, 97] stats=62/13/57/20/0/0 trace=0b043e84da2c027b",
    "MinProcTime s11 Vec bounded: slots=[16, 87, 30] stats=62/13/57/20/0/0 trace=4969e75b70f8ddcc",
    "FirstFit s11 Vec bounded: slots=[0, 4, 10] stats=3/0/1/3/0/0 trace=b1031a02c24acbdf",
    "ALP s11 Vec bounded: slots=[0, 4, 10] stats=3/0/1/3/0/0 trace=cf48863c2bb56f95",
    "MinAdditive(cost) s11 Vec bounded: slots=[69, 4, 31] stats=62/13/57/20/0/0 trace=cdf4b25d3e1226c1",
    "MaxAdditive(cost) s11 Vec bounded: slots=[82, 61, 10] stats=62/13/57/20/0/0 trace=90fbac9cdd87ac79",
    "AMP s11 Tree plain: slots=[4, 14, 0, 10] stats=4/0/1/4/0/0 trace=ac7847931973bdba",
    "MinCost s11 Tree plain: slots=[70, 5, 32, 19] stats=85/14/82/21/6/10 trace=3558464fd555ee67",
    "MinRunTime s11 Tree plain: slots=[22, 27, 97, 85] stats=85/14/82/21/6/10 trace=9403ee8d0ae1daa9",
    "MinFinish s11 Tree plain: slots=[22, 27, 97, 85] stats=85/14/82/21/6/10 trace=a8a745784aa66cba",
    "MinProcTime s11 Tree plain: slots=[98, 26, 88, 30] stats=85/14/82/21/6/10 trace=bcad35134715e150",
    "FirstFit s11 Tree plain: slots=[0, 4, 10, 14] stats=4/0/1/4/0/0 trace=72bd14ed36c518ef",
    "ALP s11 Tree plain: slots=[0, 4, 10, 14] stats=4/0/1/4/0/0 trace=6bca42834079c707",
    "MinAdditive(cost) s11 Tree plain: slots=[70, 5, 32, 19] stats=85/14/82/21/6/10 trace=75dd630e71f93c42",
    "MaxAdditive(cost) s11 Tree plain: slots=[83, 62, 79, 41] stats=85/14/82/21/6/10 trace=ea508147a1121f51",
    "AMP s11 Tree bounded: slots=[4, 0, 10] stats=3/0/1/3/0/0 trace=63c22195d5495aa0",
    "MinCost s11 Tree bounded: slots=[69, 4, 31] stats=62/13/57/20/7/10 trace=3b81f7617cebc3da",
    "MinRunTime s11 Tree bounded: slots=[22, 85, 97] stats=62/13/57/20/7/10 trace=6b753ab243b9ef60",
    "MinFinish s11 Tree bounded: slots=[22, 85, 97] stats=62/13/57/20/7/10 trace=94f61a52c4edfadd",
    "MinProcTime s11 Tree bounded: slots=[16, 87, 30] stats=62/13/57/20/7/10 trace=f508c281f1549b4e",
    "FirstFit s11 Tree bounded: slots=[0, 4, 10] stats=3/0/1/3/0/0 trace=b1031a02c24acbdf",
    "ALP s11 Tree bounded: slots=[0, 4, 10] stats=3/0/1/3/0/0 trace=cf48863c2bb56f95",
    "MinAdditive(cost) s11 Tree bounded: slots=[69, 4, 31] stats=62/13/57/20/7/10 trace=b70a0ce7aff5d64d",
    "MaxAdditive(cost) s11 Tree bounded: slots=[82, 61, 10] stats=62/13/57/20/7/10 trace=54a4e83d62855fad",
    "AMP s12 Vec plain: slots=[9, 6, 12, 3] stats=4/1/1/4/0/0 trace=be3b17d0c95f070d",
    "MinCost s12 Vec plain: slots=[16, 9, 6, 70] stats=79/18/76/19/0/0 trace=6898e0e1b0616160",
    "MinRunTime s12 Vec plain: slots=[16, 73, 57, 52] stats=79/18/76/19/0/0 trace=c8516ecfd290955b",
    "MinFinish s12 Vec plain: slots=[16, 73, 57, 52] stats=79/18/76/19/0/0 trace=635eb3ed59bdd6b1",
    "MinProcTime s12 Vec plain: slots=[60, 72, 19, 42] stats=79/18/76/19/0/0 trace=b0683c6e2563bb8b",
    "FirstFit s12 Vec plain: slots=[3, 6, 9, 12] stats=4/1/1/4/0/0 trace=5249a0f83710c944",
    "ALP s12 Vec plain: slots=[3, 6, 9, 12] stats=4/1/1/4/0/0 trace=49d600d288b5e4ac",
    "MinAdditive(cost) s12 Vec plain: slots=[16, 9, 6, 70] stats=79/18/76/19/0/0 trace=94ef732059b8ca1a",
    "MaxAdditive(cost) s12 Vec plain: slots=[65, 28, 90, 74] stats=79/18/76/19/0/0 trace=1857ae9439fd11d4",
    "AMP s12 Vec bounded: slots=[9, 6, 3] stats=3/1/1/3/0/0 trace=a732b352d563fbaf",
    "MinCost s12 Vec bounded: slots=[16, 9, 70] stats=57/17/54/18/0/0 trace=b39d4b6374d1ebeb",
    "MinRunTime s12 Vec bounded: slots=[16, 52, 57] stats=57/17/54/18/0/0 trace=d581fb8d240274d8",
    "MinFinish s12 Vec bounded: slots=[16, 52, 57] stats=57/17/54/18/0/0 trace=d18f09d7debeadd0",
    "MinProcTime s12 Vec bounded: slots=[13, 16, 58] stats=57/17/54/18/0/0 trace=2745540807a048fc",
    "FirstFit s12 Vec bounded: slots=[3, 6, 9] stats=3/1/1/3/0/0 trace=bb6910cd854889c8",
    "ALP s12 Vec bounded: slots=[3, 6, 9] stats=3/1/1/3/0/0 trace=425cb3cffe5bd7a6",
    "MinAdditive(cost) s12 Vec bounded: slots=[16, 9, 70] stats=57/17/54/18/0/0 trace=07e0ee45b04348fa",
    "MaxAdditive(cost) s12 Vec bounded: slots=[89, 73, 53] stats=57/17/54/18/0/0 trace=7b58ea7786774a87",
    "AMP s12 Tree plain: slots=[9, 6, 12, 3] stats=4/1/1/4/0/1 trace=c9dfa7abf161cca2",
    "MinCost s12 Tree plain: slots=[16, 9, 6, 70] stats=79/18/76/19/3/15 trace=d0191a7af13ab311",
    "MinRunTime s12 Tree plain: slots=[16, 73, 57, 52] stats=79/18/76/19/3/15 trace=b32f33d1d4455214",
    "MinFinish s12 Tree plain: slots=[16, 73, 57, 52] stats=79/18/76/19/3/15 trace=5bb0bc0be44e805a",
    "MinProcTime s12 Tree plain: slots=[60, 72, 19, 42] stats=79/18/76/19/3/15 trace=283d14edf6c720fc",
    "FirstFit s12 Tree plain: slots=[3, 6, 9, 12] stats=4/1/1/4/0/1 trace=cd72329374852a07",
    "ALP s12 Tree plain: slots=[3, 6, 9, 12] stats=4/1/1/4/0/1 trace=6d10b01267dd48af",
    "MinAdditive(cost) s12 Tree plain: slots=[16, 9, 6, 70] stats=79/18/76/19/3/15 trace=6cab723a5377e58b",
    "MaxAdditive(cost) s12 Tree plain: slots=[65, 28, 90, 74] stats=79/18/76/19/3/15 trace=0a1b50bc95ab02af",
    "AMP s12 Tree bounded: slots=[9, 6, 3] stats=3/1/1/3/0/1 trace=83f80412f63c97ac",
    "MinCost s12 Tree bounded: slots=[16, 9, 70] stats=57/17/54/18/3/13 trace=135817556b74f49c",
    "MinRunTime s12 Tree bounded: slots=[16, 52, 57] stats=57/17/54/18/3/13 trace=39aa38e28c45c5ed",
    "MinFinish s12 Tree bounded: slots=[16, 52, 57] stats=57/17/54/18/3/13 trace=11f39a4bfb57f835",
    "MinProcTime s12 Tree bounded: slots=[13, 16, 58] stats=57/17/54/18/3/13 trace=6bebc68b9e4c98e9",
    "FirstFit s12 Tree bounded: slots=[3, 6, 9] stats=3/1/1/3/0/1 trace=d2353bac09c017ab",
    "ALP s12 Tree bounded: slots=[3, 6, 9] stats=3/1/1/3/0/1 trace=e276c924bc6a5a61",
    "MinAdditive(cost) s12 Tree bounded: slots=[16, 9, 70] stats=57/17/54/18/3/13 trace=b841295639dc0a43",
    "MaxAdditive(cost) s12 Tree bounded: slots=[89, 73, 53] stats=57/17/54/18/3/13 trace=d341441925bf9c72",
];

#[test]
fn scans_match_the_recorded_goldens() {
    let actual = report();
    let changed: Vec<String> = actual
        .iter()
        .zip(GOLDEN)
        .filter(|(now, was)| now != *was)
        .map(|(now, was)| format!("  was: {was}\n  now: {now}"))
        .collect();
    assert!(
        changed.is_empty() && actual.len() == GOLDEN.len(),
        "{} of {} scan goldens changed ({} cases now):\n{}",
        changed.len(),
        GOLDEN.len(),
        actual.len(),
        changed.join("\n")
    );
}
