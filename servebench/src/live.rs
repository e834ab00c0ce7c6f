//! The end-to-end run: the real daemon under open-loop load.
//!
//! Two sender threads work through the seeded schedule in due order, one
//! `Connection: close` request each at a time, sleeping until each request
//! is due. A journal tailer polls `journal.wal` every millisecond and
//! stamps a job committed when it reads the complete barrier line that
//! follows the job's `Committed` record. Every latency runs from the
//! request's due time, so a stall is charged to every request queued
//! behind it, and the generator's own lateness is reported separately.

use std::collections::{BTreeMap, BTreeSet};
use std::fs::File;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, RwLock};
use std::time::{Duration, Instant};

use slotsel_sim::journal::journal_path;

use crate::daemon::{dir_mb, Daemon};
use crate::http;
use crate::wal::{check_acks, check_commits, check_restart, Ledger, WalReader};
use crate::workload::{pick_index, Arrival, Kind, Workload};

/// Throwaway daemon start-ups timed before the load, and again after it.
/// With the start-up of the daemon that serves the load, `setup_s` is the
/// median of seven samples spread across the run.
const EXTRA_SETUPS: usize = 3;

/// Concurrent sender connections: with the tailer, the bench keeps the
/// two cores of the reference machine busy and no more.
const SENDERS: usize = 2;

/// How long acked submits may take to commit after the last send before
/// they count as failed.
const COMMIT_GRACE: Duration = Duration::from_secs(10);

/// Pause between journal polls.
const TAIL_EVERY: Duration = Duration::from_millis(1);

/// Bytes read from the journal per `read` call.
const TAIL_CHUNK: usize = 1 << 20;

/// Journal polls between checks of the daemon's memory.
const WATCH_EVERY: u64 = 100;

/// Resident memory past which the daemon is killed and the run fails;
/// every workload peaks an order of magnitude below it.
const RSS_LIMIT_MB: f64 = 1024.0;

/// What one run asks for.
#[derive(Debug, Clone, Copy)]
pub struct Plan<'a> {
    /// The `slotsel` binary.
    pub slotsel: &'a Path,
    /// The workload.
    pub workload: &'a Workload,
    /// The workload seed.
    pub seed: u64,
    /// Seconds of load.
    pub seconds: f64,
    /// Working directory for journals and logs; the caller removes it.
    pub dir: &'a Path,
}

/// How one request went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// A 200 answer with the expected body.
    pub ok: bool,
    /// For an acknowledged submit, the job id the daemon assigned.
    pub job: Option<u32>,
}

/// One request as the generator saw it, times from the start of the load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// What was asked.
    pub kind: Kind,
    /// When it was due.
    pub due: Duration,
    /// When it was sent.
    pub sent: Duration,
    /// When its answer (or failure) arrived.
    pub done: Duration,
    /// How it went.
    pub outcome: Outcome,
}

impl Sample {
    /// Latency charged from the due time, in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        ms(self.done.saturating_sub(self.due))
    }

    /// How late the generator sent it, in milliseconds.
    pub fn lag_ms(&self) -> f64 {
        ms(self.sent.saturating_sub(self.due))
    }
}

fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct LiveRun {
    /// Spawn-to-healthy times of every start-up, in seconds.
    pub setup_s: Vec<f64>,
    /// One sample per request, in due order.
    pub samples: Vec<Sample>,
    /// Due-to-commit latency of every committed acked submit, ms.
    pub commit_ms: Vec<f64>,
    /// Acked submits no barrier confirmed within the grace period.
    pub uncommitted: usize,
    /// The daemon's `VmHWM` just before shutdown, MB.
    pub peak_rss_mb: f64,
    /// Bytes under the journal directory after shutdown, MB.
    pub journal_mb: f64,
    /// Kill-to-healthy time of the restart, seconds.
    pub recover_s: Option<f64>,
    /// Correctness violations.
    pub violations: Vec<String>,
}

impl LiveRun {
    /// Latencies of the successful requests of one class, ms.
    pub fn latencies(&self, class: fn(&Kind) -> bool) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.outcome.ok && class(&s.kind))
            .map(Sample::latency_ms)
            .collect()
    }

    /// Requests that failed.
    pub fn failed(&self) -> usize {
        self.samples.iter().filter(|s| !s.outcome.ok).count()
    }

    /// Median over bursts of burst size divided by the time from the
    /// burst's due time to its last ack.
    pub fn burst_ack_rps(&self) -> Option<f64> {
        let mut bursts: BTreeMap<Duration, (usize, Duration)> = BTreeMap::new();
        for s in &self.samples {
            if matches!(s.kind, Kind::Submit { .. }) && s.outcome.ok {
                let burst = bursts.entry(s.due).or_default();
                burst.0 += 1;
                burst.1 = burst.1.max(s.done - s.due);
            }
        }
        let rates: Vec<f64> = bursts
            .values()
            .map(|&(acks, took)| acks as f64 / took.as_secs_f64())
            .collect();
        crate::stats::median(&crate::stats::sorted(rates))
    }
}

/// Runs `arrivals` open loop on `senders` threads. Each thread takes the
/// next arrival in due order, sleeps until it is due, calls `send`, then
/// `after` (outside the timed interval). Returns one sample per arrival,
/// in due order.
pub fn drive<S, A>(
    arrivals: &[Arrival],
    senders: usize,
    t0: Instant,
    send: S,
    after: A,
) -> Vec<Sample>
where
    S: Fn(&Arrival) -> Outcome + Sync,
    A: Fn(&Outcome) + Sync,
{
    let next = AtomicUsize::new(0);
    let mut samples: Vec<(usize, Sample)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..senders)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::SeqCst);
                        let Some(arrival) = arrivals.get(index) else {
                            return mine;
                        };
                        if let Some(wait) = arrival.due.checked_sub(t0.elapsed()) {
                            std::thread::sleep(wait);
                        }
                        let sent = t0.elapsed();
                        let outcome = send(arrival);
                        let done = t0.elapsed();
                        after(&outcome);
                        mine.push((
                            index,
                            Sample {
                                kind: arrival.kind,
                                due: arrival.due,
                                sent,
                                done,
                                outcome,
                            },
                        ));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("sender thread panicked"))
            .collect()
    });
    samples.sort_by_key(|&(index, _)| index);
    samples.into_iter().map(|(_, sample)| sample).collect()
}

/// The journal tailer's state.
struct Tail {
    path: PathBuf,
    file: Option<File>,
    buf: Vec<u8>,
    reader: WalReader,
    ledger: Ledger,
    /// When each job's commit barrier was read, from the start of the load.
    committed_at: BTreeMap<u32, Duration>,
}

impl Tail {
    fn new(path: PathBuf) -> Self {
        Tail {
            path,
            file: None,
            buf: vec![0; TAIL_CHUNK],
            reader: WalReader::default(),
            ledger: Ledger::default(),
            committed_at: BTreeMap::new(),
        }
    }

    /// Reads everything appended since the last poll.
    fn poll(&mut self, t0: Instant) -> Result<(), String> {
        if self.file.is_none() {
            match File::open(&self.path) {
                Ok(file) => self.file = Some(file),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
                Err(e) => return Err(format!("{}: {e}", self.path.display())),
            }
        }
        let Tail {
            file,
            buf,
            reader,
            ledger,
            committed_at,
            ..
        } = self;
        let file = file.as_ref().expect("opened above");
        loop {
            let read = file
                .read_at(buf, reader.offset())
                .map_err(|e| format!("reading the journal: {e}"))?;
            if read == 0 {
                return Ok(());
            }
            let now = t0.elapsed();
            reader.feed(&buf[..read], &mut |record| {
                for job in ledger.apply(record) {
                    committed_at.insert(job, now);
                }
            });
        }
    }

    /// The writer was killed: forget its unfinished line and the commits
    /// its last barrier never confirmed.
    fn restart(&mut self) {
        self.reader.restart();
        self.ledger.restart();
    }
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .expect("a bench thread panicked holding a lock")
}

/// What the restart measured.
struct Restart {
    recover_s: f64,
    acked_before: usize,
    jobs_after: u64,
}

/// State the senders, the restart and the tailer share during the load.
struct Shared<'a> {
    plan: &'a Plan<'a>,
    t0: Instant,
    /// The live daemon's address; the restart holds it exclusively, so no
    /// request is in flight while the daemon is down.
    gate: RwLock<std::net::SocketAddr>,
    daemon: Mutex<Option<Daemon>>,
    /// Acked job ids, in ack order.
    acked: Mutex<Vec<u32>>,
    tail: Mutex<Tail>,
    restarted: AtomicBool,
    restart: Mutex<Option<Result<Restart, String>>>,
}

impl Shared<'_> {
    fn send(&self, arrival: &Arrival) -> Outcome {
        // Holding the gate keeps the restart from killing the daemon under
        // a request, and makes the ack count it reads exact.
        let gate = self.gate.read().expect("gate poisoned");
        let addr = *gate;
        let failed = Outcome {
            ok: false,
            job: None,
        };
        let get = |path: &str| Outcome {
            ok: matches!(http::request(addr, "GET", path, ""), Ok(r) if r.status == 200),
            job: None,
        };
        match arrival.kind {
            Kind::Submit { tenant, nodes } => {
                let body = self.plan.workload.submit_body(tenant, nodes);
                let Ok(response) = http::request(addr, "POST", "/submit", &body) else {
                    return failed;
                };
                let job =
                    http::u64_field(&response.body, "job").and_then(|j| u32::try_from(j).ok());
                match job {
                    Some(job) if response.status == 200 => {
                        lock(&self.acked).push(job);
                        Outcome {
                            ok: true,
                            job: Some(job),
                        }
                    }
                    _ => failed,
                }
            }
            Kind::ReadJob { pick } => {
                let job = {
                    let acked = lock(&self.acked);
                    pick_index(pick, acked.len()).map(|i| acked[i])
                };
                match job {
                    Some(job) => get(&format!("/job/{job}")),
                    None => get("/tenants"),
                }
            }
            Kind::ReadTenants => get("/tenants"),
            Kind::Healthz => get("/healthz"),
        }
    }

    /// Restarts the daemon once the workload's ack count is reached.
    fn after(&self, outcome: &Outcome) {
        let Some(threshold) = self.plan.workload.restart_after_acks else {
            return;
        };
        if outcome.job.is_none()
            || lock(&self.acked).len() < threshold
            || self.restarted.swap(true, Ordering::SeqCst)
        {
            return;
        }
        let result = self.kill_and_recover();
        *lock(&self.restart) = Some(result);
    }

    /// Polls the journal until `stop`, and kills a daemon whose memory
    /// runs away: a batch past the MCKP cliff grows its DP table
    /// quadratically, and the machine is shared.
    fn tail_loop(&self, stop: &AtomicBool) -> Result<(), String> {
        for poll in 0u64.. {
            let stopping = stop.load(Ordering::SeqCst);
            lock(&self.tail).poll(self.t0)?;
            if stopping {
                break;
            }
            if poll % WATCH_EVERY == 0 {
                if let Some(daemon) = lock(&self.daemon).as_mut() {
                    let rss = daemon.peak_rss_mb().unwrap_or(0.0);
                    if rss > RSS_LIMIT_MB {
                        daemon.kill_now();
                        return Err(format!(
                            "daemon killed at {rss:.0} MB resident, over the {RSS_LIMIT_MB} MB limit"
                        ));
                    }
                }
            }
            std::thread::sleep(TAIL_EVERY);
        }
        Ok(())
    }

    /// SIGKILLs the daemon and restarts it with `--recover`, timing the
    /// kill to the first healthy probe.
    fn kill_and_recover(&self) -> Result<Restart, String> {
        let mut addr = self.gate.write().expect("gate poisoned");
        let acked_before = lock(&self.acked).len();
        let mut tail = lock(&self.tail);
        let killed = Instant::now();
        let daemon = lock(&self.daemon).take().ok_or("no daemon to kill")?;
        daemon.kill()?;
        tail.poll(self.t0)?;
        tail.restart();
        let plan = self.plan;
        let (daemon, _) = Daemon::spawn(
            plan.slotsel,
            plan.workload,
            plan.seed,
            &plan.dir.join("journal"),
            &plan.dir.join("recover.log"),
            true,
        )?;
        let recover_s = killed.elapsed().as_secs_f64();
        let state = http::request(daemon.addr(), "GET", "/state", "")
            .map_err(|e| format!("GET /state after recovery: {e}"))?;
        let jobs_after = http::u64_field(&state.body, "jobs")
            .ok_or_else(|| format!("GET /state body {:?} has no jobs", state.body))?;
        *addr = daemon.addr();
        *lock(&self.daemon) = Some(daemon);
        Ok(Restart {
            recover_s,
            acked_before,
            jobs_after,
        })
    }
}

/// Runs the workload against the real daemon and checks its journal.
pub fn run(plan: &Plan) -> Result<LiveRun, String> {
    let workload = plan.workload;
    std::fs::create_dir_all(plan.dir).map_err(|e| format!("{}: {e}", plan.dir.display()))?;
    let mut run = LiveRun::default();
    time_setups(plan, "before", &mut run.setup_s)?;
    let journal_dir = plan.dir.join("journal");
    let (daemon, took) = spawn(plan, "journal")?;
    run.setup_s.push(took.as_secs_f64());

    let arrivals = workload.arrivals(plan.seed, plan.seconds);
    let shared = Shared {
        plan,
        t0: Instant::now(),
        gate: RwLock::new(daemon.addr()),
        daemon: Mutex::new(Some(daemon)),
        acked: Mutex::new(Vec::new()),
        tail: Mutex::new(Tail::new(journal_path(&journal_dir))),
        restarted: AtomicBool::new(false),
        restart: Mutex::new(None),
    };
    let stop = AtomicBool::new(false);
    let tailed = std::thread::scope(|scope| {
        let tailer = scope.spawn(|| shared.tail_loop(&stop));
        run.samples = drive(
            &arrivals,
            SENDERS,
            shared.t0,
            |a| shared.send(a),
            |o| shared.after(o),
        );
        let stopped = finish_load(&shared, &mut run);
        stop.store(true, Ordering::SeqCst);
        let tailed = tailer.join().expect("tailer thread panicked");
        stopped.and(tailed)
    });
    if let Err(error) = tailed {
        run.violations.push(error);
    }
    run.journal_mb = dir_mb(&journal_dir)?;

    let Shared {
        acked,
        tail,
        restart,
        ..
    } = shared;
    let acked = acked.into_inner().expect("acked lock poisoned");
    let tail = tail.into_inner().expect("tail lock poisoned");
    match restart.into_inner().expect("restart lock poisoned") {
        Some(Ok(restart)) => {
            run.recover_s = Some(restart.recover_s);
            run.violations
                .extend(check_restart(restart.acked_before, restart.jobs_after));
        }
        Some(Err(error)) => run.violations.push(format!("restart: {error}")),
        None if workload.restart_after_acks.is_some() => {
            run.violations
                .push("the restart point was never reached".to_owned());
        }
        None => {}
    }
    check(&mut run, &acked, &tail);
    time_setups(plan, "after", &mut run.setup_s)?;
    Ok(run)
}

/// Starts a fresh daemon journaling into `plan.dir/name`.
fn spawn(plan: &Plan, name: &str) -> Result<(Daemon, Duration), String> {
    Daemon::spawn(
        plan.slotsel,
        plan.workload,
        plan.seed,
        &plan.dir.join(name),
        &plan.dir.join(format!("{name}.log")),
        false,
    )
}

/// Times [`EXTRA_SETUPS`] throwaway start-ups into `setup_s`.
fn time_setups(plan: &Plan, phase: &str, setup_s: &mut Vec<f64>) -> Result<(), String> {
    for i in 0..EXTRA_SETUPS {
        let name = format!("setup-{phase}-{i}");
        let (daemon, took) = spawn(plan, &name)?;
        setup_s.push(took.as_secs_f64());
        daemon.shutdown()?;
        let _ = std::fs::remove_dir_all(plan.dir.join(name));
    }
    Ok(())
}

/// After the last send: waits for acked submits to commit, then records
/// peak memory and shuts the daemon down.
fn finish_load(shared: &Shared, run: &mut LiveRun) -> Result<(), String> {
    let last_sent = run.samples.iter().map(|s| s.sent).max().unwrap_or_default();
    let deadline = shared.t0 + last_sent + COMMIT_GRACE;
    let acked = lock(&shared.acked).clone();
    while Instant::now() < deadline {
        let tail = lock(&shared.tail);
        if acked.iter().all(|job| tail.committed_at.contains_key(job)) {
            break;
        }
        drop(tail);
        std::thread::sleep(Duration::from_millis(5));
    }
    let daemon = lock(&shared.daemon)
        .take()
        .ok_or("the daemon did not survive the run")?;
    run.peak_rss_mb = daemon.peak_rss_mb()?;
    daemon.shutdown()
}

/// Commit latencies and the journal checks.
fn check(run: &mut LiveRun, acked: &[u32], tail: &Tail) {
    let due: BTreeMap<u32, Duration> = run
        .samples
        .iter()
        .filter_map(|s| Some((s.outcome.job?, s.due)))
        .collect();
    run.commit_ms = tail
        .committed_at
        .iter()
        .filter_map(|(job, at)| Some(ms(at.saturating_sub(*due.get(job)?))))
        .collect();
    let ledger = &tail.ledger;
    run.violations.extend(ledger.errors.iter().cloned());
    run.violations
        .extend(check_commits(&ledger.submitted, &ledger.commits));
    let committed: BTreeSet<u32> = ledger.commits.iter().map(|c| c.job).collect();
    let (violations, uncommitted) = check_acks(acked, &ledger.submitted, &committed);
    run.violations.extend(violations);
    run.uncommitted = uncommitted;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probes(dues_ms: &[u64]) -> Vec<Arrival> {
        dues_ms
            .iter()
            .map(|&ms| Arrival {
                due: Duration::from_millis(ms),
                kind: Kind::Healthz,
            })
            .collect()
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_queued_behind_it() {
        // One connection; the first answer takes 200 ms. The two requests
        // due meanwhile go out late and are charged from their due times.
        let arrivals = probes(&[0, 50, 100, 400]);
        let calls = AtomicUsize::new(0);
        let samples = drive(
            &arrivals,
            1,
            Instant::now(),
            |_| {
                if calls.fetch_add(1, Ordering::SeqCst) == 0 {
                    std::thread::sleep(Duration::from_millis(200));
                }
                Outcome {
                    ok: true,
                    job: None,
                }
            },
            |_| {},
        );
        let latency: Vec<f64> = samples.iter().map(Sample::latency_ms).collect();
        let lag: Vec<f64> = samples.iter().map(Sample::lag_ms).collect();
        assert!(latency[0] >= 200.0, "{latency:?}");
        assert!(
            latency[1] >= 150.0 && lag[1] >= 150.0,
            "{latency:?} {lag:?}"
        );
        assert!(
            latency[2] >= 100.0 && lag[2] >= 100.0,
            "{latency:?} {lag:?}"
        );
        // The stall is over by the time the last request is due.
        assert!(latency[3] < 100.0 && lag[3] < 100.0, "{latency:?} {lag:?}");
        assert_eq!(samples.iter().map(|s| s.due).collect::<Vec<_>>(), {
            arrivals.iter().map(|a| a.due).collect::<Vec<_>>()
        });
    }

    #[test]
    fn a_second_connection_absorbs_one_stall() {
        let arrivals = probes(&[0, 50]);
        let samples = drive(
            &arrivals,
            2,
            Instant::now(),
            |a| {
                if a.due.is_zero() {
                    std::thread::sleep(Duration::from_millis(300));
                }
                Outcome {
                    ok: true,
                    job: None,
                }
            },
            |_| {},
        );
        assert!(samples[1].latency_ms() < 200.0, "{samples:?}");
    }

    #[test]
    fn bursts_rate_their_acks_from_the_shared_due_time() {
        let sample = |due_ms: u64, done_ms: u64| Sample {
            kind: Kind::Submit {
                tenant: "alpha",
                nodes: 1,
            },
            due: Duration::from_millis(due_ms),
            sent: Duration::from_millis(due_ms),
            done: Duration::from_millis(done_ms),
            outcome: Outcome {
                ok: true,
                job: Some(0),
            },
        };
        let run = LiveRun {
            // Two bursts of two: 2 acks in 0.5 s and in 0.25 s.
            samples: vec![
                sample(0, 100),
                sample(0, 500),
                sample(1000, 1100),
                sample(1000, 1250),
            ],
            ..LiveRun::default()
        };
        assert_eq!(run.burst_ack_rps(), Some((4.0 + 8.0) / 2.0));
    }
}
