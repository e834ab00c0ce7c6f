//! Dark-vs-lit observer identity, one test per instrumented layer.
//!
//! Each layer runs once with [`Obs::dark`] and once with the recorder,
//! the metrics registry and the span sink all lit, and must produce the
//! same outcome both times. The lit run's telemetry is then checked
//! against that outcome, so a probe that reports the wrong thing fails
//! here as surely as one that changes a decision.

use slotsel::baselines::{Alp, Backfill, FirstFit};
use slotsel::batch::{BatchScheduler, SearchStrategy};
use slotsel::core::aep::{scan_observed, scan_with, ScanOptions};
use slotsel::core::{
    Amp, CostScore, Criterion, Csa, Interval, Job, JobId, MaxAdditive, MinAdditive, MinCost,
    MinFinish, MinProcTime, MinRunTime, Money, NodeId, NodeSpec, Performance, Platform,
    ResourceRequest, SlotList, SlotSelector, TimePoint, Volume,
};
use slotsel::env::{EnvironmentConfig, NodeGenConfig};
use slotsel::obs::journal::MemoryJournal;
use slotsel::obs::span::AttrValue;
use slotsel::obs::{
    MemoryRecorder, MemorySpanSink, MetricsRegistry, NoopJournal, Obs, SpanId, SpanRecord,
    TraceEvent,
};
use slotsel::sim::serve::{LiveConfig, LiveService, Submission};
use slotsel::sim::{
    simulate_with_recovery, simulate_with_recovery_observed, DisruptionConfig, RecoveryPolicy,
    RollingConfig,
};

/// Every sink of an [`Obs`], lit and in memory.
#[derive(Default)]
struct Lit {
    recorder: MemoryRecorder,
    registry: MetricsRegistry,
    spans: MemorySpanSink,
}

impl Lit {
    fn obs(&mut self) -> Obs<'_> {
        Obs::new(&mut self.recorder, &self.registry, &mut self.spans)
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanRecord> + 'a {
        self.spans.records().iter().filter(move |r| r.name == name)
    }

    fn count(&self, name: &str, labels: &[(&'static str, &str)]) -> u64 {
        self.registry.counter_value(name, labels)
    }
}

fn attr(record: &SpanRecord, name: &str) -> String {
    record
        .attrs
        .iter()
        .find(|(key, _)| key == name)
        .map(|(_, value)| match value {
            AttrValue::U64(number) => number.to_string(),
            AttrValue::Str(text) => text.clone(),
        })
        .unwrap_or_else(|| panic!("{} has no {name} attribute", record.name))
}

/// Asserts that the timed phase `name` ran `runs` times and reached all
/// three sinks once per run: a span, a recorder timing under the span's
/// name and a sample in its `(metric, labels)` seconds histogram.
fn assert_phase_reports(
    lit: &Lit,
    name: &str,
    runs: u64,
    metric: &str,
    labels: &[(&'static str, &str)],
) {
    assert_eq!(lit.named(name).count() as u64, runs, "{name} spans");
    let timings = lit.recorder.timer(name).map_or(0, |timer| timer.count());
    assert_eq!(timings, runs, "{name} timings");
    let samples = lit
        .registry
        .histogram(metric, labels)
        .map_or(0, |histogram| histogram.count());
    assert_eq!(samples, runs, "{name} samples in {metric}{labels:?}");
}

/// Nodes of equal speed priced by `prices`.
fn platform(prices: &[i64], performance: u32) -> Platform {
    prices
        .iter()
        .enumerate()
        .map(|(i, &price)| {
            NodeSpec::builder(i as u32)
                .performance(Performance::new(performance))
                .price_per_unit(Money::from_units(price))
                .build()
        })
        .collect()
}

fn idle(platform: &Platform, end: i64) -> SlotList {
    let mut slots = SlotList::new();
    for node in platform {
        slots.add(
            node.id(),
            Interval::new(TimePoint::new(0), TimePoint::new(end)),
            node.performance(),
            node.price_per_unit(),
        );
    }
    slots
}

fn request(nodes: usize, volume: u64, budget: i64) -> ResourceRequest {
    ResourceRequest::builder()
        .node_count(nodes)
        .volume(Volume::new(volume))
        .budget(Money::from_units(budget))
        .build()
        .unwrap()
}

fn job(id: u32, priority: u32, nodes: usize, volume: u64, budget: i64) -> Job {
    Job::new(JobId(id), priority, request(nodes, volume, budget))
}

#[test]
fn scan_and_selectors_dark_and_lit_agree() {
    // Later nodes are cheaper, so every admission improves the cheapest
    // pair; the slot on the unknown node 77 must count as a rejection.
    let p = platform(&[9, 7, 5, 3], 4);
    let mut slots = idle(&p, 600);
    slots.add(
        NodeId(77),
        Interval::new(TimePoint::new(5), TimePoint::new(600)),
        Performance::new(2),
        Money::from_units(1),
    );
    let req = request(2, 100, 100_000);

    let dark = scan_with(
        &p,
        &slots,
        &req,
        &mut MinCost.policy(),
        ScanOptions::default(),
    );
    let mut lit = Lit::default();
    let scanned = scan_observed(
        &p,
        &slots,
        &req,
        &mut MinCost.policy(),
        ScanOptions::default(),
        &mut lit.obs(),
    );
    assert_eq!(dark.best, scanned.best);
    assert_eq!(dark.stats, scanned.stats);
    assert_eq!(dark.stats.slots_rejected, 1);
    let stats = &scanned.stats;

    // The recorder: ScanFinished mirrors the returned stats, one
    // alive-set sample per admission, one timing, improving scores.
    let finished = lit
        .recorder
        .events()
        .iter()
        .find_map(|e| match e {
            TraceEvent::ScanFinished {
                slots_admitted,
                slots_rejected,
                windows_evaluated,
                peak_alive,
                found,
                ..
            } => Some((
                *slots_admitted,
                *slots_rejected,
                *windows_evaluated,
                *peak_alive,
                *found,
            )),
            _ => None,
        })
        .expect("a ScanFinished event");
    assert_eq!(
        finished,
        (
            stats.slots_admitted as u64,
            stats.slots_rejected as u64,
            stats.windows_evaluated as u64,
            stats.peak_extended_window as u64,
            scanned.best.is_some(),
        )
    );
    assert_eq!(
        lit.recorder.samples("aep.alive").unwrap().count(),
        stats.slots_admitted as u64
    );
    assert_eq!(lit.recorder.timer("aep.scan").unwrap().count(), 1);
    let scores: Vec<f64> = lit
        .recorder
        .events()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::BestUpdated { score, .. } => Some(*score),
            _ => None,
        })
        .collect();
    assert!(scores.len() > 1, "{scores:?}");
    assert!(scores.windows(2).all(|w| w[1] < w[0]));

    // The span and the counters carry the same tallies.
    let spans: Vec<&SpanRecord> = lit.named("aep.scan").collect();
    assert_eq!(spans.len(), 1);
    assert_eq!(lit.spans.records().len(), 1);
    let labels = [("policy", "MinCost")];
    assert_eq!(attr(spans[0], "policy"), "MinCost");
    for (attr_name, counter, value) in [
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
        ("found", "slotsel_scan_windows_found_total", 1),
    ] {
        assert_eq!(attr(spans[0], attr_name), value.to_string(), "{attr_name}");
        assert_eq!(lit.count(counter, &labels), value as u64, "{counter}");
    }
    assert_eq!(lit.count("slotsel_scan_total", &labels), 1);

    // Every selector: the same window dark and lit, and — for the nine
    // that scan — one aep.scan span and one trace per selection.
    type Make = fn() -> Box<dyn SlotSelector>;
    let selectors: Vec<(Make, usize)> = vec![
        (|| Box::new(Amp), 1),
        (|| Box::new(MinCost), 1),
        (|| Box::new(MinFinish::new()), 1),
        (|| Box::new(MinRunTime::new()), 1),
        (|| Box::new(MinProcTime::with_seed(7)), 1),
        (|| Box::new(MinAdditive::new(CostScore)), 1),
        (|| Box::new(MaxAdditive::new(CostScore)), 1),
        (|| Box::new(FirstFit::new()), 1),
        (|| Box::new(Alp::new()), 1),
        (|| Box::new(Backfill::new()), 0),
    ];
    for (make, scans) in selectors {
        let dark = make().select(&p, &slots, &req);
        let mut lit = Lit::default();
        let mut selector = make();
        let window = selector.select_observed(&p, &slots, &req, &mut lit.obs());
        let name = selector.name();
        assert!(dark.is_some(), "{name}");
        assert_eq!(dark, window, "{name}");
        assert_eq!(lit.named("aep.scan").count(), scans, "{name}");
        let finished = lit
            .recorder
            .events_where(|e| matches!(e, TraceEvent::ScanFinished { found: true, .. }))
            .count();
        assert_eq!(finished, scans, "{name}");
    }
}

#[test]
fn csa_and_strategy_dark_and_lit_agree() {
    let p = platform(&[2, 5, 9, 3, 7], 4);
    let slots = idle(&p, 600);
    let req = request(2, 200, 100_000);

    let dark = Csa::new().find_alternatives(&p, &slots, &req);
    let mut lit = Lit::default();
    let found = Csa::new().find_alternatives_observed(&p, &slots, &req, &mut Amp, &mut lit.obs());
    assert_eq!(dark, found);
    assert!(found.len() > 1);
    let search: Vec<&SpanRecord> = lit.named("csa.search").collect();
    assert_eq!(search.len(), 1);
    assert_eq!(attr(search[0], "base"), "AMP");
    assert_eq!(attr(search[0], "alternatives"), found.len().to_string());
    // Every run of the base algorithm is a scan under the search, the last
    // one the run that found nothing.
    let scans: Vec<&SpanRecord> = lit.named("aep.scan").collect();
    assert_eq!(scans.len(), found.len() + 1);
    assert!(scans.iter().all(|s| s.parent == search[0].id));
    assert_eq!(
        lit.count("slotsel_csa_alternatives_total", &[]),
        found.len() as u64
    );
    assert_eq!(
        lit.count("slotsel_scan_windows_found_total", &[("policy", "AMP")]),
        found.len() as u64
    );

    let strategies = std::iter::once(SearchStrategy::default_csa())
        .chain(Criterion::ALL.into_iter().map(SearchStrategy::Directed));
    for strategy in strategies {
        let dark = strategy.find_alternatives(&p, &slots, &req);
        let mut lit = Lit::default();
        let found = strategy.find_alternatives_observed(&p, &slots, &req, &mut lit.obs());
        assert!(!found.is_empty(), "{strategy:?}");
        assert_eq!(dark, found, "{strategy:?}");
        // One scan per alternative found, each a span carrying found=1.
        let finding = lit.named("aep.scan").filter(|s| attr(s, "found") == "1");
        assert_eq!(finding.count(), found.len(), "{strategy:?}");
    }
}

#[test]
fn lit_csa_over_min_additive_records_one_scan_span_per_alternative() {
    let p = platform(&[2, 5, 9, 3, 7, 4], 4);
    let slots = idle(&p, 600);
    let req = request(2, 200, 100_000);
    let mut lit = Lit::default();
    let mut base = MinAdditive::new(CostScore);
    let found = Csa::new().max_alternatives(3).find_alternatives_observed(
        &p,
        &slots,
        &req,
        &mut base,
        &mut lit.obs(),
    );
    assert_eq!(found.len(), 3);
    let search = lit.named("csa.search").next().expect("csa.search span");
    let scans: Vec<&SpanRecord> = lit.named("aep.scan").collect();
    assert_eq!(scans.len(), found.len());
    for scan in scans {
        assert_eq!(scan.parent, search.id);
        assert_eq!(attr(scan, "policy"), "MinAdditive");
        assert_eq!(attr(scan, "found"), "1");
    }
}

#[test]
fn scheduler_dark_and_lit_agree() {
    let p = platform(&[1, 1, 1, 1], 2);
    let slots = idle(&p, 600);
    // Job 2 requests more nodes than the platform has, so it finds no
    // alternatives and is deferred.
    let jobs = vec![
        job(0, 3, 2, 100, 1_000),
        job(1, 1, 2, 100, 1_000),
        job(2, 2, 9, 100, 1_000),
    ];
    let scheduler = BatchScheduler::default();
    let dark = scheduler.schedule(&p, &slots, &jobs);
    let mut lit = Lit::default();
    let schedule = scheduler.schedule_observed(&p, &slots, &jobs, &mut lit.obs());
    assert_eq!(dark, schedule);
    assert_eq!(schedule.scheduled(), 2);
    assert_eq!(schedule.deferred(), 1);

    // The recorder: batch-level events only, in decision order.
    let recorder = &lit.recorder;
    let started: Vec<_> = recorder
        .events_where(|e| matches!(e, TraceEvent::BatchStarted { .. }))
        .collect();
    assert_eq!(started, [&TraceEvent::BatchStarted { jobs: 3 }]);
    let alternatives: Vec<(u64, u64)> = recorder
        .events()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::AlternativesFound { job, count } => Some((*job, *count)),
            _ => None,
        })
        .collect();
    let order: Vec<u64> = alternatives.iter().map(|&(job, _)| job).collect();
    assert_eq!(order, [0, 2, 1], "phase 1 visits jobs by priority");
    for (job, count) in alternatives {
        assert_eq!(count == 0, job == 2, "only the oversized job finds none");
    }
    let mckp: Vec<_> = recorder
        .events_where(|e| matches!(e, TraceEvent::MckpSolved { .. }))
        .collect();
    assert_eq!(mckp.len(), 1);
    if let TraceEvent::MckpSolved { classes, items, .. } = mckp[0] {
        assert_eq!(*classes, 2, "only jobs with alternatives enter MCKP");
        assert!(*items >= *classes);
    }
    let committed = recorder
        .events_where(|e| matches!(e, TraceEvent::JobCommitted { .. }))
        .count();
    assert_eq!(committed, 2);
    let deferred: Vec<_> = recorder
        .events_where(|e| matches!(e, TraceEvent::JobDeferred { .. }))
        .collect();
    assert_eq!(deferred, [&TraceEvent::JobDeferred { job: 2 }]);
    assert_eq!(
        recorder
            .events_where(|e| matches!(e, TraceEvent::ScanStarted { .. }))
            .count(),
        0,
        "the per-job searches run untraced"
    );
    for phase in ["batch.phase1", "batch.phase2", "batch.commit"] {
        assert_eq!(recorder.timer(phase).expect(phase).count(), 1, "{phase}");
    }

    // The metrics: the cycle's outcome, and the searches' scans.
    assert_eq!(lit.count("slotsel_batch_total", &[]), 1);
    assert_eq!(lit.count("slotsel_batch_jobs_scheduled_total", &[]), 2);
    assert_eq!(lit.count("slotsel_batch_jobs_deferred_total", &[]), 1);
    assert!(lit.count("slotsel_scan_total", &[("policy", "AMP")]) >= 3);

    // The spans: one root, three phases under it, the searches below, all
    // inside the root's interval.
    let root = lit.named("batch.schedule").next().expect("root span");
    assert_eq!(root.parent, SpanId::NONE);
    for phase in ["batch.phase1", "batch.phase2", "batch.commit"] {
        assert!(
            lit.named(phase).any(|r| r.parent == root.id),
            "missing {phase} under the root"
        );
    }
    assert_eq!(lit.named("csa.search").count(), 3);
    assert!(lit.named("aep.scan").count() >= 3);
    for record in lit.spans.records() {
        assert!(record.start_us >= root.start_us && record.end_us <= root.end_us);
    }
}

#[test]
fn rolling_dark_and_lit_agree() {
    for recovery in [
        RecoveryPolicy::Migrate,
        RecoveryPolicy::RetryNextCycle {
            backoff: 1,
            max_attempts: 3,
        },
        RecoveryPolicy::RetryNextCycle {
            backoff: 0,
            max_attempts: 5,
        },
    ] {
        let config = RollingConfig {
            env: EnvironmentConfig {
                nodes: NodeGenConfig::with_count(8),
                ..EnvironmentConfig::paper_default()
            },
            max_cycles: 30,
            disruption: Some(DisruptionConfig::adversarial(99)),
            recovery,
            ..RollingConfig::default()
        };
        let jobs: Vec<Job> = (0..6).map(|i| job(i, 1 + i % 3, 3, 200, 5_000)).collect();
        let dark = simulate_with_recovery(&config, jobs.clone());
        let mut lit = Lit::default();
        let report =
            simulate_with_recovery_observed(&config, jobs, &mut lit.obs(), &mut NoopJournal);
        assert_eq!(dark, report, "{recovery:?}: sinks must not alter the run");

        let cycles = report.outcome.cycles.len();
        let started = lit
            .recorder
            .events_where(|e| matches!(e, TraceEvent::CycleStarted { .. }))
            .count();
        assert_eq!(started, cycles, "{recovery:?}");
        assert_eq!(
            lit.count("slotsel_rolling_cycles_total", &[]),
            cycles as u64,
            "{recovery:?}"
        );

        // One root span per cycle; the disruption (adversarial model) and
        // scheduling phases each nest inside some cycle.
        let roots: Vec<&SpanRecord> = lit.named("rolling.cycle").collect();
        assert_eq!(roots.len(), cycles, "{recovery:?}");
        assert!(roots.iter().all(|c| c.parent == SpanId::NONE));
        for phase in ["batch.schedule", "rolling.disruption", "rolling.audit"] {
            let child = lit
                .named(phase)
                .next()
                .unwrap_or_else(|| panic!("missing {phase}"));
            assert!(
                roots.iter().any(|c| c.id == child.parent
                    && child.start_us >= c.start_us
                    && child.end_us <= c.end_us),
                "{phase} must nest inside its cycle"
            );
        }
    }
}

#[test]
fn serve_dark_and_lit_agree() {
    let config = LiveConfig {
        shards: 2,
        nodes_per_shard: 8,
        interval_length: 600,
        cycle_advance: 100,
        seed: 42,
        ..LiveConfig::default()
    };
    let seeded = || {
        let mut service = LiveService::new(config.clone());
        for (i, tenant) in ["alice", "bob", "alice", "bob", "carol"].iter().enumerate() {
            service
                .submit(&Submission {
                    tenant: (*tenant).to_owned(),
                    nodes: 1 + i % 3,
                    volume: 50,
                    budget: 100_000.0,
                    priority: 1,
                    deadline: None,
                    shard: None,
                })
                .unwrap();
        }
        service
    };
    let mut dark = seeded();
    let mut lit_service = seeded();
    let registry = MetricsRegistry::new();
    let mut journal = MemoryJournal::new();
    let mut spans = MemorySpanSink::new();
    let cycles = 3;
    let mut committed = 0;
    for _ in 0..cycles {
        let plain = dark.run_cycle();
        let observed = lit_service.run_cycle_spanned(&registry, &mut journal, &mut spans);
        assert_eq!(plain, observed);
        committed += observed.committed.len();
    }
    assert_eq!(dark.state(), lit_service.state());
    assert!(committed > 0);

    assert_eq!(
        registry.counter_value("slotsel_serve_cycles_total", &[]),
        cycles
    );
    assert!(!journal.records().is_empty());
    let records = spans.records();
    let roots: Vec<&SpanRecord> = records.iter().filter(|r| r.name == "serve.cycle").collect();
    assert_eq!(roots.len(), cycles as usize);
    assert_eq!(
        records.iter().filter(|r| r.name == "serve.shard").count(),
        2 * cycles as usize
    );
    let scans = records.iter().filter(|r| r.name == "aep.scan").count();
    assert!(scans >= committed, "{scans} scans for {committed} commits");
}

#[test]
fn a_lit_schedule_reports_each_timed_phase_to_all_three_sinks() {
    let p = platform(&[1, 2, 3, 4], 2);
    let slots = idle(&p, 600);
    let jobs = vec![job(0, 3, 2, 100, 1_000), job(1, 1, 2, 100, 1_000)];
    let mut lit = Lit::default();
    let schedule = BatchScheduler::default().schedule_observed(&p, &slots, &jobs, &mut lit.obs());
    assert_eq!(schedule.scheduled(), 2);
    for (name, phase) in [
        ("batch.phase1", "alternatives"),
        ("batch.phase2", "mckp"),
        ("batch.commit", "commit"),
    ] {
        assert_phase_reports(
            &lit,
            name,
            1,
            "slotsel_batch_phase_seconds",
            &[("phase", phase)],
        );
    }
    // The per-job searches run untraced: each scan is a span and a
    // histogram sample, and no recorder timing.
    let scans = lit.named("aep.scan").count() as u64;
    assert!(scans >= 2);
    let samples = lit
        .registry
        .histogram("slotsel_scan_seconds", &[("policy", "AMP")]);
    assert_eq!(samples.map(|h| h.count()), Some(scans));
    assert!(lit.recorder.timer("aep.scan").is_none());

    // A traced scan reaches all three.
    let mut lit = Lit::default();
    let _ = scan_observed(
        &p,
        &slots,
        &request(2, 100, 100_000),
        &mut MinCost.policy(),
        ScanOptions::default(),
        &mut lit.obs(),
    );
    assert_phase_reports(
        &lit,
        "aep.scan",
        1,
        "slotsel_scan_seconds",
        &[("policy", "MinCost")],
    );
}

#[test]
fn a_lit_rolling_run_reports_each_timed_phase_to_all_three_sinks() {
    let config = RollingConfig {
        env: EnvironmentConfig {
            nodes: NodeGenConfig::with_count(8),
            ..EnvironmentConfig::paper_default()
        },
        max_cycles: 30,
        disruption: Some(DisruptionConfig::adversarial(99)),
        recovery: RecoveryPolicy::RetryNextCycle {
            backoff: 1,
            max_attempts: 3,
        },
        ..RollingConfig::default()
    };
    let jobs: Vec<Job> = (0..6).map(|i| job(i, 1 + i % 3, 3, 200, 5_000)).collect();
    let mut lit = Lit::default();
    let report = simulate_with_recovery_observed(&config, jobs, &mut lit.obs(), &mut NoopJournal);
    let cycles = report.outcome.cycles.len() as u64;
    assert!(cycles > 1);
    assert_phase_reports(
        &lit,
        "rolling.cycle",
        cycles,
        "slotsel_rolling_cycle_seconds",
        &[],
    );
    // One schedule per cycle.
    for (name, phase) in [
        ("batch.phase1", "alternatives"),
        ("batch.phase2", "mckp"),
        ("batch.commit", "commit"),
    ] {
        assert_phase_reports(
            &lit,
            name,
            cycles,
            "slotsel_batch_phase_seconds",
            &[("phase", phase)],
        );
    }
    // Span-only phases are never timed.
    for name in [
        "batch.schedule",
        "csa.search",
        "recovery.detect",
        "rolling.audit",
    ] {
        assert!(lit.named(name).count() > 0, "{name}");
        assert!(lit.recorder.timer(name).is_none(), "{name}");
    }
}
