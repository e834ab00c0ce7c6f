//! The traced replay: the same arrival stream driven in-process through
//! each layer's public functions, with one span around every call, for
//! the per-layer metrics.
//!
//! The replay stands in for the daemon's two threads. Arrivals due in
//! `[k·50 ms, (k+1)·50 ms)` are admitted before cycle `k`, cycles run
//! serially, and the journal is a real [`DurableJournal`] behind a
//! [`CountingJournal`]. Besides the calls the daemon makes, the replay
//! makes the ones that split a cycle into layers: the batch scheduler on
//! the pre-cycle shard state, each queued job's alternative search on it,
//! and a re-encoding of the barrier. Each cycle's commits must match what
//! the scheduler predicted, so a replay that drifts from the service
//! fails instead of measuring something else.

use std::cmp::Reverse;
use std::path::Path;
use std::time::{Duration, Instant};

use slotsel_batch::{BatchScheduler, BatchSchedulerConfig, SearchStrategy};
use slotsel_core::request::{Job, JobId};
use slotsel_obs::journal::Journal;
use slotsel_obs::{chrome, MemorySpanSink, NoopMetrics, SpanRecord, SpanSink};
use slotsel_sim::journal::DurableJournal;
use slotsel_sim::parallel::Parallelism;
use slotsel_sim::serve::{JobPhase, LiveConfig, LiveRecord, LiveService, QuotaTable, Submission};

use crate::report::Metric;
use crate::stats::{mean, percentile, sorted, tail};
use crate::workload::{pick_index, Kind, Workload, CYCLE_ADVANCE, CYCLE_MS, INTERVAL};

/// The daemon's default snapshot cadence (`--snapshot-every`).
const SNAPSHOT_EVERY: u32 = 5;

/// How every barrier payload begins.
const BARRIER_PREFIX: &str = "{\"CycleCommitted\"";

/// A [`DurableJournal`] that counts what passes through it.
struct CountingJournal {
    inner: DurableJournal,
    /// Bytes written to the WAL, framing included.
    bytes: u64,
    /// Commit barriers, each one `fsync` of new records.
    commits: u64,
    /// The largest barrier record, framing included.
    barrier_bytes_max: u64,
}

impl Journal for CountingJournal {
    fn append(&mut self, payload: &str) {
        // On disk: 8 hex digits of CRC, a space, the payload, a newline.
        let bytes = payload.len() as u64 + 10;
        self.bytes += bytes;
        if payload.starts_with(BARRIER_PREFIX) {
            self.barrier_bytes_max = self.barrier_bytes_max.max(bytes);
        }
        self.inner.append(payload);
    }

    fn commit(&mut self) {
        self.commits += 1;
        self.inner.commit();
    }
}

/// Runs `f` inside a span named `name`; returns its result, wall time
/// and heap allocations. The span's own bookkeeping lies outside both.
fn measure<R>(
    spans: &mut MemorySpanSink,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> (R, Duration, u64) {
    let span = spans.open(name);
    let started = Instant::now();
    let (allocs, result) = crate::count_allocs(f);
    let took = started.elapsed();
    spans.close(span);
    (result, took, allocs)
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Raw observations of one replay.
#[derive(Debug, Default)]
struct Samples {
    env_generate_ms: f64,
    submit_us: Vec<f64>,
    submit_allocs: Vec<f64>,
    submit_commit_us: Vec<f64>,
    lookup_us: Vec<f64>,
    tenants_us: Vec<f64>,
    cycle_ms: Vec<f64>,
    cycle_allocs: Vec<f64>,
    cycle_bytes: Vec<f64>,
    barrier_encode_ms: Vec<f64>,
    batch_jobs: Vec<f64>,
    schedule_ms: Vec<f64>,
    search_ms: Vec<f64>,
    alternatives: Vec<f64>,
    phase2_self_ms: Vec<f64>,
    batched: usize,
    committed: usize,
}

/// What a replay measured.
#[derive(Debug)]
pub struct Replay {
    /// The per-layer metrics it owns.
    pub metrics: Vec<Metric>,
    /// Disagreements between the replay and the service.
    pub violations: Vec<String>,
    /// The span tree as a Chrome trace, validated.
    pub trace: String,
}

/// Replays `seconds` of `workload`'s arrivals for `seed`, journaling into
/// `dir`.
pub fn run(workload: &Workload, seed: u64, seconds: f64, dir: &Path) -> Result<Replay, String> {
    let config = LiveConfig {
        shards: workload.shards,
        nodes_per_shard: workload.nodes,
        interval_length: INTERVAL,
        cycle_advance: CYCLE_ADVANCE,
        seed,
        quotas: QuotaTable::open(),
        scheduler: BatchSchedulerConfig::default(),
    };
    let mut spans = MemorySpanSink::new();
    let mut groups: Vec<(u64, Vec<SpanRecord>)> = Vec::new();
    let mut s = Samples::default();
    let mut violations = Vec::new();

    let setup = spans.open("replay.setup");
    let (mut service, took, _) = measure(&mut spans, "env.generate", || {
        LiveService::new(config.clone())
    });
    s.env_generate_ms = ms(took);
    let mut journal = CountingJournal {
        inner: DurableJournal::create(dir, SNAPSHOT_EVERY)
            .map_err(|e| format!("{}: {e}", dir.display()))?,
        bytes: 0,
        commits: 0,
        barrier_bytes_max: 0,
    };
    journal.append(
        &LiveRecord::ServiceStarted {
            config: config.clone(),
        }
        .encode(),
    );
    journal.commit();
    spans.close(setup);
    groups.push((0, spans.take_records()));

    let arrivals = workload.arrivals(seed, seconds);
    let mut arrivals = arrivals.iter().peekable();
    let cycles = (seconds * 1e3 / CYCLE_MS as f64).ceil() as u64;
    let scheduler = BatchScheduler::new(config.scheduler.clone());
    let search = SearchStrategy::Csa {
        max_alternatives: config.scheduler.max_alternatives_per_job,
    };
    let mut admitted: Vec<JobId> = Vec::new();
    for k in 0..cycles {
        let root = spans.open("replay.cycle");
        spans.attr_u64("cycle", k);
        let window_end = Duration::from_millis(CYCLE_MS * (k + 1));
        while let Some(arrival) = arrivals.next_if(|a| a.due < window_end) {
            let read_job = match arrival.kind {
                Kind::Submit { tenant, nodes } => {
                    let submission = Submission {
                        tenant: tenant.to_owned(),
                        nodes,
                        volume: workload.volume,
                        budget: workload.budget,
                        // The daemon's default for a body without one.
                        priority: 1,
                        deadline: None,
                        shard: None,
                    };
                    let (entry, took, allocs) =
                        measure(&mut spans, "serve.submit", || service.submit(&submission));
                    let entry = match entry {
                        Ok(entry) => entry,
                        Err(error) => {
                            violations.push(format!("replayed submit refused: {error}"));
                            continue;
                        }
                    };
                    s.submit_us.push(us(took));
                    s.submit_allocs.push(allocs as f64);
                    admitted.push(entry.id);
                    let ((), took, _) = measure(&mut spans, "journal.submit_commit", || {
                        journal.append(&LiveRecord::Submitted { entry }.encode());
                        journal.commit();
                    });
                    s.submit_commit_us.push(us(took));
                    continue;
                }
                Kind::ReadJob { pick } => pick_index(pick, admitted.len()).map(|i| admitted[i]),
                Kind::ReadTenants => None,
                Kind::Healthz => continue,
            };
            // A job read before any job exists lists the tenants instead,
            // as the live generator does.
            match read_job {
                Some(id) => {
                    let (found, took, _) =
                        measure(&mut spans, "serve.lookup", || service.job(id).is_some());
                    if !found {
                        violations.push(format!("replayed lookup of {id} found nothing"));
                    }
                    s.lookup_us.push(us(took));
                }
                None => {
                    let (_, took, _) =
                        measure(&mut spans, "serve.tenants", || service.tenants().len());
                    s.tenants_us.push(us(took));
                }
            }
        }

        let predicted = predict_cycle(&service, &scheduler, search, &mut spans, &mut s);
        let before = journal.bytes;
        let (outcome, took, allocs) = measure(&mut spans, "serve.run_cycle", || {
            service.run_cycle_observed(Parallelism::Serial, &NoopMetrics, &mut journal)
        });
        s.cycle_ms.push(ms(took));
        s.cycle_allocs.push(allocs as f64);
        s.cycle_bytes.push((journal.bytes - before) as f64);
        s.committed += outcome.committed.len();
        for (shard, want) in predicted.iter().enumerate() {
            let got = outcome
                .committed
                .iter()
                .filter(|&&(_, s)| s as usize == shard)
                .count();
            if got != *want {
                violations.push(format!(
                    "cycle {k} shard {shard}: the scheduler predicted {want} commits, \
                     the service made {got}"
                ));
            }
        }
        let (_, took, _) = measure(&mut spans, "journal.barrier_encode", || {
            LiveRecord::CycleCommitted {
                state: service.state().clone(),
            }
            .encode()
            .len()
        });
        s.barrier_encode_ms.push(ms(took));
        spans.close(root);
        groups.push((k + 1, spans.take_records()));
    }
    let free_slots: usize = service.state().shards.iter().map(|s| s.slots.len()).sum();
    let CountingJournal {
        inner,
        commits,
        barrier_bytes_max,
        ..
    } = journal;
    inner.finish().map_err(|e| format!("replay journal: {e}"))?;

    let refs: Vec<(u64, &[SpanRecord])> = groups.iter().map(|(g, r)| (*g, r.as_slice())).collect();
    let trace = chrome::render(&refs);
    if let Err(error) = chrome::validate(&trace) {
        violations.push(format!("the replay's Chrome trace is invalid: {error}"));
    }
    let metrics = metrics(&s, commits, barrier_bytes_max, free_slots);
    Ok(Replay {
        metrics,
        violations,
        trace,
    })
}

/// Schedules each shard's queued jobs as the coming cycle will, timing
/// the whole schedule and each job's search. Returns the commits
/// predicted per shard.
fn predict_cycle(
    service: &LiveService,
    scheduler: &BatchScheduler,
    search: SearchStrategy,
    spans: &mut MemorySpanSink,
    s: &mut Samples,
) -> Vec<usize> {
    let state = service.state();
    let mut predicted = Vec::with_capacity(state.shards.len());
    for (shard, shard_state) in state.shards.iter().enumerate() {
        // Batch formation: the shard's queued jobs, priority first, then
        // admission order. Quotas are open, so none sits a cycle out.
        let mut queued: Vec<(usize, Job)> = state
            .jobs
            .iter()
            .enumerate()
            .filter(|(_, e)| e.shard as usize == shard && e.phase == JobPhase::Queued)
            .map(|(i, e)| (i, Job::new(e.id, e.priority, e.request.clone())))
            .collect();
        queued.sort_by_key(|(i, job)| (Reverse(job.priority()), *i));
        let jobs: Vec<Job> = queued.into_iter().map(|(_, job)| job).collect();
        if jobs.is_empty() {
            predicted.push(0);
            continue;
        }
        let span = spans.open("replay.shard");
        spans.attr_u64("shard", shard as u64);
        spans.attr_u64("jobs", jobs.len() as u64);
        let mut searching = Duration::ZERO;
        for job in &jobs {
            let (found, took, _) = measure(spans, "batch.search", || {
                search.find_alternatives(&shard_state.platform, &shard_state.slots, job.request())
            });
            s.search_ms.push(ms(took));
            s.alternatives.push(found.len() as f64);
            searching += took;
        }
        let (schedule, took, _) = measure(spans, "batch.schedule", || {
            scheduler.schedule(&shard_state.platform, &shard_state.slots, &jobs)
        });
        spans.close(span);
        s.batch_jobs.push(jobs.len() as f64);
        s.batched += jobs.len();
        s.schedule_ms.push(ms(took));
        s.phase2_self_ms.push(ms(took.saturating_sub(searching)));
        predicted.push(schedule.scheduled());
    }
    predicted
}

fn metrics(s: &Samples, commits: u64, barrier_bytes_max: u64, free_slots: usize) -> Vec<Metric> {
    let p50 = |v: &[f64]| percentile(&sorted(v.to_vec()), 0.5);
    let p90 = |v: &[f64]| tail(&sorted(v.to_vec()), 0.9);
    let max = |v: &[f64]| v.iter().copied().reduce(f64::max);
    let ratio = |a: usize, b: usize| (b > 0).then(|| a as f64 / b as f64);
    vec![
        Metric::new("serve.submit_us_p50", "us", p50(&s.submit_us)),
        Metric::new("serve.submit_us_p90", "us", p90(&s.submit_us)),
        Metric::new("serve.submit_allocs", "count", mean(&s.submit_allocs)),
        Metric::new(
            "journal.submit_commit_us_p50",
            "us",
            p50(&s.submit_commit_us),
        ),
        Metric::new(
            "journal.fsyncs_per_submit",
            "ratio",
            ratio(commits as usize, s.submit_us.len()),
        ),
        Metric::new(
            "journal.bytes_per_cycle_mean",
            "bytes",
            mean(&s.cycle_bytes),
        ),
        Metric::new(
            "journal.barrier_bytes_max",
            "bytes",
            Some(barrier_bytes_max as f64),
        ),
        Metric::new(
            "journal.barrier_encode_ms_p50",
            "ms",
            p50(&s.barrier_encode_ms),
        ),
        Metric::new("serve.cycle_ms_p50", "ms", p50(&s.cycle_ms)),
        Metric::new("serve.cycle_ms_p90", "ms", p90(&s.cycle_ms)),
        Metric::new("serve.cycle_allocs_mean", "count", mean(&s.cycle_allocs)),
        Metric::new("serve.batch_jobs_mean", "count", mean(&s.batch_jobs)),
        Metric::new("serve.batch_jobs_max", "count", max(&s.batch_jobs)),
        Metric::new("batch.schedule_ms_p50", "ms", p50(&s.schedule_ms)),
        Metric::new("batch.schedule_ms_max", "ms", max(&s.schedule_ms)),
        Metric::new("batch.search_ms_p50", "ms", p50(&s.search_ms)),
        Metric::new("batch.alternatives_mean", "count", mean(&s.alternatives)),
        Metric::new("batch.phase2_self_ms_p50", "ms", p50(&s.phase2_self_ms)),
        Metric::new("batch.phase2_self_ms_max", "ms", max(&s.phase2_self_ms)),
        Metric::new(
            "batch.committed_share",
            "ratio",
            ratio(s.committed, s.batched),
        ),
        Metric::new("core.free_slots_end", "count", Some(free_slots as f64)),
        Metric::new("serve.lookup_us_p50", "us", p50(&s.lookup_us)),
        Metric::new("serve.lookup_us_p90", "us", p90(&s.lookup_us)),
        Metric::new("serve.tenants_us_p50", "us", p50(&s.tenants_us)),
        Metric::new("env.generate_ms", "ms", Some(s.env_generate_ms)),
    ]
}
