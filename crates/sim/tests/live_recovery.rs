//! Crash-at-every-record recovery, soak and golden-decision properties of
//! the live service (`sim::serve`).
//!
//! The contract under test (docs/DURABILITY.md, live journal): barriers
//! checkpoint live state only, finished jobs are journaled once in their
//! `Finished` record, and `recover_live` rebuilds the exact service —
//! retired archive included — from any prefix of the record stream.
//!
//! 1. a record-prefix sweep over every crash point of a seeded run, and
//!    recovery after a lost cycle whose `Finished` records reached disk;
//! 2. recovery of a journal written before finished jobs were retired
//!    out of the barrier, and of one continued past such a journal;
//! 3. a 2000-cycle soak asserting barriers stay live-sized;
//! 4. a golden digest pinning every commit and defer decision of a
//!    500-cycle run;
//! 5. allocations per submit that do not grow with the jobs table.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use slotsel_batch::BatchSchedulerConfig;
use slotsel_core::tenant::TenantQuota;
use slotsel_obs::journal::{Journal, MemoryJournal, WalJournal};
use slotsel_obs::NoopMetrics;
use slotsel_sim::journal::journal_path;
use slotsel_sim::parallel::Parallelism;
use slotsel_sim::serve::{
    recover_live, JobEntry, JobPhase, LiveConfig, LiveRecord, LiveService, QuotaTable, Submission,
};

const CYCLE_ADVANCE: i64 = 60;
const TENANTS: [&str; 3] = ["alice", "bob", "carol"];

/// Two shards of ten nodes; alice is capped so batch formation re-enforces
/// a quota, everyone else is unlimited.
fn config(seed: u64) -> LiveConfig {
    let mut quotas = QuotaTable::open();
    quotas.tenants.insert(
        "alice".to_owned(),
        TenantQuota {
            max_nodes: Some(10),
            max_budget: None,
            max_pending: Some(4),
        },
    );
    quotas.default = Some(TenantQuota::unlimited());
    LiveConfig {
        shards: 2,
        nodes_per_shard: 10,
        interval_length: 600,
        cycle_advance: CYCLE_ADVANCE,
        seed,
        quotas,
        ..LiveConfig::default()
    }
}

/// A seeded request stream: 0–3 submissions per cycle. `hard` mixes in
/// deadlines and tight budgets; some of those can never be met, so their
/// jobs are deferred every cycle.
fn arrivals(rng: &mut StdRng, cycle: u64, hard: bool) -> Vec<Submission> {
    let count = rng.gen_range(0..4u32);
    (0..count)
        .map(|_| {
            let tenant = TENANTS[rng.gen_range(0..TENANTS.len())];
            let nodes = rng.gen_range(1..=4usize);
            let volume = rng.gen_range(50..=400u64);
            let tight = hard && rng.gen_range(0..10u32) == 0;
            let budget = if tight {
                f64::from(rng.gen_range(1..20u32)) * 10.0
            } else {
                f64::from(rng.gen_range(50..400u32)) * 100.0
            };
            let deadline = (hard && rng.gen_range(0..10u32) == 0)
                .then(|| (cycle as i64 + rng.gen_range(2..12i64)) * CYCLE_ADVANCE);
            let shard = (rng.gen_range(0..4u32) == 0).then(|| rng.gen_range(0..2u32));
            Submission {
                tenant: tenant.to_owned(),
                nodes,
                volume,
                budget,
                priority: rng.gen_range(0..3u32),
                deadline,
                shard,
            }
        })
        .collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "slotsel-live-recovery-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes `records` as the journal of `dir`, replacing any previous one.
fn write_wal(dir: &Path, records: &[String]) {
    let mut wal = WalJournal::create(&journal_path(dir)).unwrap();
    for record in records {
        wal.append(record);
    }
    wal.finish().unwrap();
}

/// A seeded run journaled into memory, with the service as of every
/// record recovery may stop at: the header, each `Submitted`, each
/// barrier.
struct Run {
    records: Vec<String>,
    /// `(records written, service)` in record order.
    checkpoints: Vec<(usize, LiveService)>,
    service: LiveService,
}

fn drive(seed: u64, cycles: u64) -> Run {
    let config = config(seed);
    let mut service = LiveService::new(config.clone());
    let mut journal = MemoryJournal::new();
    journal.append(&LiveRecord::ServiceStarted { config }.encode());
    journal.commit();
    let mut checkpoints = vec![(1, service.clone())];
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    for cycle in 0..cycles {
        for submission in arrivals(&mut rng, cycle, false) {
            if let Ok(entry) = service.submit(&submission) {
                journal.append(&LiveRecord::Submitted { entry }.encode());
                journal.commit();
                checkpoints.push((journal.records().len(), service.clone()));
            }
        }
        service.run_cycle_observed(Parallelism::Serial, &NoopMetrics, &mut journal);
        checkpoints.push((journal.records().len(), service.clone()));
    }
    Run {
        records: journal.records().to_vec(),
        checkpoints,
        service,
    }
}

#[test]
fn every_crash_point_recovers_the_service_as_of_its_last_durable_record() {
    let run = drive(21, 40);
    assert!(
        run.service.retired().len() >= 10,
        "the sweep must cover retired jobs, got {}",
        run.service.retired().len()
    );
    let dir = temp_dir("sweep");
    for k in 1..=run.records.len() {
        write_wal(&dir, &run.records[..k]);
        let recovered = recover_live(&dir)
            .unwrap_or_else(|error| panic!("prefix of {k} records must recover: {error}"));
        let (_, expected) = run
            .checkpoints
            .iter()
            .rev()
            .find(|(written, _)| *written <= k)
            .expect("the header is a checkpoint");
        assert_eq!(
            &recovered.service, expected,
            "crash after record {k} must recover the service as of its last barrier \
             or Submitted record"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_finished_record_from_a_lost_cycle_yields_to_the_rerun_barrier() {
    // Run until a cycle commits and finishes the same job, then lose that
    // cycle's barrier: its `Finished` record reaches disk, the barrier
    // does not (the WAL buffer flushed mid-cycle before the kill).
    let config = config(13);
    let mut service = LiveService::new(config.clone());
    let mut records = vec![LiveRecord::ServiceStarted { config }.encode()];
    let mut rng = StdRng::seed_from_u64(29);
    let (lost, (job, shard)) = (0..200)
        .find_map(|cycle| {
            for submission in arrivals(&mut rng, cycle, false) {
                if let Ok(entry) = service.submit(&submission) {
                    records.push(LiveRecord::Submitted { entry }.encode());
                }
            }
            let mut journal = MemoryJournal::new();
            let outcome =
                service.run_cycle_observed(Parallelism::Serial, &NoopMetrics, &mut journal);
            let within = outcome
                .committed
                .iter()
                .find(|(id, _)| outcome.finished.contains(id))
                .copied();
            let (barrier, rest) = journal.records().split_last().expect("a barrier");
            assert!(barrier.starts_with("{\"CycleCommitted\""));
            records.extend(rest.iter().cloned());
            if within.is_none() {
                records.push(barrier.clone());
            }
            within.map(|job| (cycle, job))
        })
        .expect("some cycle commits and finishes a job within itself");
    let dir = temp_dir("lost-cycle");
    write_wal(&dir, &records);
    let mut restarted = recover_live(&dir).unwrap().service;
    let request = restarted.job(job).expect("re-applied").request.clone();

    // Before the re-run, higher-priority copies of the job arrive, one per
    // alternative the scheduler searches. Their alternatives are the job's
    // own, and they win every conflict, so the re-run cannot commit it.
    for _ in 0..LiveConfig::default().scheduler.max_alternatives_per_job {
        let entry = restarted
            .submit(&Submission {
                tenant: "bob".to_owned(),
                nodes: request.node_count(),
                volume: request.volume().work(),
                budget: request.budget().as_f64(),
                priority: 100,
                deadline: None,
                shard: Some(shard),
            })
            .unwrap();
        records.push(LiveRecord::Submitted { entry }.encode());
    }
    let mut journal = MemoryJournal::new();
    let outcome = restarted.run_cycle_observed(Parallelism::Serial, &NoopMetrics, &mut journal);
    assert_eq!(outcome.cycle, lost);
    assert!(
        restarted.state().jobs.iter().any(|entry| entry.id == job),
        "the re-run must leave {job:?} live"
    );
    records.extend(journal.records().iter().cloned());

    write_wal(&dir, &records);
    let recovered = recover_live(&dir).unwrap().service;
    assert!(
        recovered
            .state()
            .jobs
            .iter()
            .all(|entry| !recovered.retired().contains_key(&entry.id.0)),
        "a job is both retired and live"
    );
    assert_eq!(recovered.job_count(), restarted.job_count());
    assert_eq!(recovered, restarted);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Rewrites a journal into the shape written before finished jobs were
/// retired: `Finished` records carry only the job id, and every barrier
/// lists the jobs finished so far among the live ones, in id order.
fn pre_retirement_shape(records: &[String]) -> Vec<String> {
    let mut finished: Vec<JobEntry> = Vec::new();
    records
        .iter()
        .map(|line| match LiveRecord::decode(line).unwrap() {
            LiveRecord::Finished {
                cycle,
                job,
                entry: Some(entry),
            } => {
                finished.push(entry);
                format!("{{\"Finished\":{{\"cycle\":{cycle},\"job\":{job}}}}}")
            }
            LiveRecord::CycleCommitted { mut state } => {
                state.jobs.extend(finished.iter().cloned());
                state.jobs.sort_by_key(|entry| entry.id);
                LiveRecord::CycleCommitted { state }.encode()
            }
            _ => line.clone(),
        })
        .collect()
}

#[test]
fn a_pre_retirement_journal_recovers_into_the_archive_and_continues() {
    let cycles = 30;
    let run = drive(5, cycles);
    let old = pre_retirement_shape(&run.records);
    assert!(
        old.iter()
            .any(|line| line.starts_with("{\"CycleCommitted\"") && line.contains("\"Finished\"")),
        "the rewritten journal must hold a barrier listing a finished job"
    );
    let dir = temp_dir("pre-retirement");
    write_wal(&dir, &old);
    let recovered = recover_live(&dir).unwrap();
    assert_eq!(recovered.service, run.service);
    assert_eq!(recovered.barriers, cycles);
    assert!(recovered
        .service
        .state()
        .jobs
        .iter()
        .all(|entry| !matches!(entry.phase, JobPhase::Finished { .. })));

    // Continue the old journal with the current format: the jobs retired
    // by the old barriers survive a second recovery, whose last barrier
    // no longer lists them.
    let mut reference = run.service;
    let mut resumed = recovered.service;
    let mut journal = MemoryJournal::new();
    for _ in 0..5 {
        reference.run_cycle(Parallelism::Serial);
        resumed.run_cycle_observed(Parallelism::Serial, &NoopMetrics, &mut journal);
    }
    let mut continued = old;
    continued.extend(journal.records().iter().cloned());
    write_wal(&dir, &continued);
    let again = recover_live(&dir).unwrap();
    assert_eq!(again.service, reference);
    assert_eq!(again.service, resumed);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_2000_cycle_soak_keeps_barriers_live_sized() {
    /// Checks every barrier as it is written and keeps only sizes.
    #[derive(Default)]
    struct BarrierProbe {
        sizes: Vec<usize>,
        finished_in_barrier: usize,
    }
    impl Journal for BarrierProbe {
        fn append(&mut self, payload: &str) {
            if payload.starts_with("{\"CycleCommitted\"") {
                self.sizes.push(payload.len());
                // No other key of a barrier is named "Finished": the
                // substring appears only as a finished job's phase.
                if payload.contains("\"Finished\"") {
                    self.finished_in_barrier += 1;
                }
            }
        }
        fn commit(&mut self) {}
    }

    // Few alternatives per job keep 2000 unoptimised cycles quick; the
    // barrier's contents do not depend on how hard the search tries.
    let mut service = LiveService::new(LiveConfig {
        scheduler: BatchSchedulerConfig {
            max_alternatives_per_job: 2,
            ..BatchSchedulerConfig::default()
        },
        ..config(9)
    });
    let mut rng = StdRng::seed_from_u64(17);
    let mut probe = BarrierProbe::default();
    for cycle in 0..2000 {
        for submission in arrivals(&mut rng, cycle, false) {
            let _ = service.submit(&submission);
        }
        service.run_cycle_observed(Parallelism::Serial, &NoopMetrics, &mut probe);
    }
    assert_eq!(probe.sizes.len(), 2000);
    assert_eq!(
        probe.finished_in_barrier, 0,
        "a barrier held a finished job"
    );
    assert!(
        service.retired().len() > 1000,
        "the soak must retire most of its jobs, retired {}",
        service.retired().len()
    );
    let (at_200, last) = (probe.sizes[199], probe.sizes[1999]);
    assert!(
        last <= 2 * at_200,
        "the last barrier ({last} bytes) must stay within 2x the one at cycle 200 \
         ({at_200} bytes)"
    );
}

/// FNV-1a over the `Committed` and `Deferred` records, one line each.
struct DecisionDigest(u64);

impl Journal for DecisionDigest {
    fn append(&mut self, payload: &str) {
        if payload.starts_with("{\"Committed\"") || payload.starts_with("{\"Deferred\"") {
            for byte in payload.bytes().chain(std::iter::once(b'\n')) {
                self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }

    fn commit(&mut self) {}
}

#[test]
fn scheduling_decisions_match_the_golden_digest() {
    // Computed before finished jobs were retired out of the live table.
    // Finished jobs never took part in scheduling, so retiring them must
    // leave every commit and defer decision bit-identical.
    const GOLDEN: u64 = 0x999f_708c_af34_c197;
    let mut service = LiveService::new(config(7));
    let mut rng = StdRng::seed_from_u64(11);
    let mut digest = DecisionDigest(0xcbf2_9ce4_8422_2325);
    let (mut committed, mut deferred, mut finished) = (0, 0, 0);
    for cycle in 0..500 {
        for submission in arrivals(&mut rng, cycle, true) {
            let _ = service.submit(&submission);
        }
        let outcome = service.run_cycle_observed(Parallelism::Serial, &NoopMetrics, &mut digest);
        committed += outcome.committed.len();
        deferred += outcome.deferred.len();
        finished += outcome.finished.len();
    }
    assert_eq!((committed, deferred, finished), (488, 14_399, 486));
    assert_eq!(service.job_count(), 546);
    assert_eq!(digest.0, GOLDEN, "digest {:#018x}", digest.0);
}

/// Counts this thread's heap allocations, so tests running on other
/// threads do not disturb the count.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with` fails only while the thread's locals are torn down.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

// SAFETY: every method delegates to the system allocator unchanged; the
// only addition is a thread-local counter increment, which never
// allocates (a `const` Cell needs no lazy initialisation or destructor).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: forwarded under the caller's layout contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with the same layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        // SAFETY: forwarded under the caller's layout contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL_ALLOC: CountingAlloc = CountingAlloc;

fn allocations_of<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (ALLOCATIONS.with(Cell::get) - before, result)
}

#[test]
fn submit_allocations_do_not_grow_with_the_jobs_table() {
    let mut service = LiveService::new(config(3));
    let submission = |tenant: &str| Submission {
        tenant: tenant.to_owned(),
        nodes: 1,
        volume: 100,
        budget: 10_000.0,
        priority: 1,
        deadline: None,
        shard: Some(0),
    };
    for tenant in ["bob", "carol"] {
        service.submit(&submission(tenant)).unwrap();
    }
    let (few, _) = allocations_of(|| service.submit(&submission("bob")).unwrap());
    for index in 0..300 {
        service.submit(&submission(TENANTS[1 + index % 2])).unwrap();
    }
    let (many, _) = allocations_of(|| service.submit(&submission("bob")).unwrap());
    // Rebuilding usage once allocated a tenant key per queued job. Either
    // push may grow the jobs Vec, which is one reallocation.
    assert!(
        many <= few + 1,
        "a submit behind 300 queued jobs made {many} allocations, one behind 3 made {few}"
    );
}
