//! `slotsel` — command-line front end for the slot selection library.
//!
//! ```text
//! slotsel generate --nodes 100 --interval 600 --seed 42 --out env.json
//! slotsel info     --env env.json
//! slotsel select   --env env.json --algorithm mincost --n 5 --volume 300 --budget 1500
//! slotsel csa      --env env.json --n 5 --volume 300 --budget 1500 --criterion cost
//! slotsel batch    --env env.json --jobs jobs.json --objective min-total-cost
//! ```
//!
//! Environments are JSON files with a `platform` and a `slots` member (the
//! library's own serde forms); `generate` produces them and `info`
//! summarises them. `jobs.json` is an array of
//! `{ "id": 0, "priority": 5, "node_count": 5, "volume": 300, "budget": 1500.0 }`
//! objects.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use slotsel::baselines::{Alp, Backfill, FirstFit};
use slotsel::batch::{BatchObjective, BatchScheduler, BatchSchedulerConfig};
use slotsel::core::{
    best_by, Amp, Criterion, Csa, CutPolicy, EnergyScore, Job, JobId, MinAdditive, MinCost,
    MinFinish, MinProcTime, MinRunTime, Money, Platform, PowerModel, ProcTimeScore,
    ResourceRequest, SlotList, SlotSelector, TimeDelta, TimePoint, Volume, Window,
};
use slotsel::env::{EnvironmentConfig, NodeGenConfig};
use slotsel::obs::journal::NoopJournal;
use slotsel::obs::{Handler, Metrics, MetricsRegistry, MetricsServer, Obs};
use slotsel::sim::gantt::render_gantt;
use slotsel::sim::journal::{recover, DurableJournal, RecoverError};
use slotsel::sim::rolling::resume_with_recovery_observed;
use slotsel::sim::serve::{LiveConfig, QuotaTable};
use slotsel::sim::{
    simulate_with_recovery_observed, DisruptionConfig, LiveDaemon, RecoveryPolicy, RollingConfig,
    RollingReport,
};

/// The on-disk environment format.
#[derive(Debug, Serialize, Deserialize)]
struct EnvFile {
    platform: Platform,
    slots: SlotList,
}

/// The on-disk job format.
#[derive(Debug, Serialize, Deserialize)]
struct JobSpec {
    id: u32,
    #[serde(default)]
    priority: u32,
    node_count: usize,
    volume: u64,
    budget: f64,
    #[serde(default)]
    reference_span: Option<i64>,
    #[serde(default)]
    deadline: Option<i64>,
}

impl JobSpec {
    fn to_request(&self) -> Result<ResourceRequest, String> {
        let mut builder = ResourceRequest::builder()
            .node_count(self.node_count)
            .volume(Volume::new(self.volume))
            .budget(Money::from_f64(self.budget));
        if let Some(span) = self.reference_span {
            builder = builder.reference_span(TimeDelta::new(span));
        }
        if let Some(deadline) = self.deadline {
            builder = builder.deadline(TimePoint::new(deadline));
        }
        builder.build().map_err(|e| format!("job {}: {e}", self.id))
    }
}

struct Args {
    raw: Vec<String>,
}

impl Args {
    fn flag(&self, name: &str) -> Option<&str> {
        self.raw
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.raw.get(i + 1))
            .map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flag(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{name}: cannot parse {v:?}")),
        }
    }

    fn required(&self, name: &str) -> Result<&str, String> {
        self.flag(name)
            .ok_or_else(|| format!("missing required flag {name}"))
    }
}

fn load_env(args: &Args) -> Result<EnvFile, String> {
    let path = args.required("--env")?;
    let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn request_from_args(args: &Args) -> Result<ResourceRequest, String> {
    let spec = JobSpec {
        id: 0,
        priority: 0,
        node_count: args.parsed("--n", 5usize)?,
        volume: args.parsed("--volume", 300u64)?,
        budget: args.parsed("--budget", 1500.0f64)?,
        reference_span: args
            .flag("--span")
            .map(|v| v.parse())
            .transpose()
            .map_err(|_| "--span: not a number".to_owned())?,
        deadline: args
            .flag("--deadline")
            .map(|v| v.parse())
            .transpose()
            .map_err(|_| "--deadline: not a number".to_owned())?,
    };
    spec.to_request()
}

fn print_window(label: &str, window: Option<&Window>) {
    match window {
        Some(w) => {
            println!(
                "{label}: start {} runtime {} finish {} proc {} cost {}",
                w.start().ticks(),
                w.runtime().ticks(),
                w.finish().ticks(),
                w.proc_time().ticks(),
                w.total_cost()
            );
            for ws in w.slots() {
                println!(
                    "  {} on {}: [{}, {}) cost {}",
                    ws.slot(),
                    ws.node(),
                    w.start().ticks(),
                    (w.start() + ws.length()).ticks(),
                    ws.cost()
                );
            }
        }
        None => println!("{label}: no suitable window"),
    }
}

fn cmd_generate(args: &Args) -> Result<(), String> {
    let nodes: usize = args.parsed("--nodes", 100)?;
    let interval: i64 = args.parsed("--interval", 600)?;
    let seed: u64 = args.parsed("--seed", 42)?;
    let non_linux: f64 = args.parsed("--non-linux", 0.0)?;
    let config = EnvironmentConfig {
        nodes: NodeGenConfig {
            count: nodes,
            non_linux_fraction: non_linux,
            ..NodeGenConfig::paper_default()
        },
        interval_length: interval,
        ..EnvironmentConfig::paper_default()
    };
    let env = config.generate(&mut StdRng::seed_from_u64(seed));
    let file = EnvFile {
        platform: env.platform().clone(),
        slots: env.slots().clone(),
    };
    let json = serde_json::to_string_pretty(&file).map_err(|e| e.to_string())?;
    match args.flag("--out") {
        Some(path) => {
            fs::write(path, json).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("wrote {nodes} nodes / {} slots to {path}", file.slots.len());
        }
        None => println!("{json}"),
    }
    Ok(())
}

fn cmd_info(args: &Args) -> Result<(), String> {
    let env = load_env(args)?;
    println!("nodes: {}", env.platform.len());
    println!("slots: {}", env.slots.len());
    println!("total free node-time: {}", env.slots.total_free_time());
    let (min_perf, max_perf) = env.platform.iter().fold((u32::MAX, 0), |(lo, hi), n| {
        (
            lo.min(n.performance().rate()),
            hi.max(n.performance().rate()),
        )
    });
    println!("performance range: [{min_perf}, {max_perf}]");
    Ok(())
}

fn make_algorithm(name: &str) -> Result<Box<dyn SlotSelector>, String> {
    Ok(match name {
        "amp" => Box::new(Amp),
        "minfinish" => Box::new(MinFinish::new()),
        "mincost" => Box::new(MinCost),
        "minruntime" => Box::new(MinRunTime::new()),
        "minproctime" => Box::new(MinProcTime::new()),
        "minproc-additive" => Box::new(MinAdditive::new(ProcTimeScore)),
        "minenergy" => Box::new(MinAdditive::new(EnergyScore::new(PowerModel::default()))),
        "firstfit" => Box::new(FirstFit),
        "alp" => Box::new(Alp),
        "backfill" => Box::new(Backfill),
        other => {
            return Err(format!(
                "unknown algorithm {other:?}; expected amp|minfinish|mincost|minruntime|\
                 minproctime|minproc-additive|minenergy|firstfit|alp|backfill"
            ))
        }
    })
}

fn cmd_select(args: &Args) -> Result<(), String> {
    let env = load_env(args)?;
    let request = request_from_args(args)?;
    let name = args.flag("--algorithm").unwrap_or("amp");
    let mut algorithm = make_algorithm(name)?;
    let window = algorithm.select(&env.platform, &env.slots, &request);
    print_window(algorithm.name(), window.as_ref());
    Ok(())
}

fn parse_criterion(name: &str) -> Result<Criterion, String> {
    name.parse()
        .map_err(|e: slotsel::core::criteria::ParseCriterionError| e.to_string())
}

fn cmd_csa(args: &Args) -> Result<(), String> {
    let env = load_env(args)?;
    let request = request_from_args(args)?;
    let mut csa = Csa::new().cut_policy(CutPolicy::ReservationSpan);
    if let Some(max) = args.flag("--max") {
        csa = csa.max_alternatives(max.parse().map_err(|_| "--max: not a number".to_owned())?);
    }
    let alternatives = csa.find_alternatives(&env.platform, &env.slots, &request);
    println!("{} alternatives found", alternatives.len());
    match args.flag("--criterion") {
        Some(name) => {
            let criterion = parse_criterion(name)?;
            print_window(
                &format!("extreme by {criterion}"),
                best_by(&criterion, &alternatives),
            );
        }
        None => {
            for criterion in Criterion::ALL {
                if let Some(w) = best_by(&criterion, &alternatives) {
                    println!(
                        "  best {criterion:>8}: start {:>4} runtime {:>4} finish {:>4} cost {}",
                        w.start().ticks(),
                        w.runtime().ticks(),
                        w.finish().ticks(),
                        w.total_cost()
                    );
                }
            }
        }
    }
    Ok(())
}

fn parse_objective(name: &str) -> Result<BatchObjective, String> {
    name.parse()
        .map_err(|e: slotsel::batch::objective::ParseObjectiveError| e.to_string())
}

fn cmd_batch(args: &Args) -> Result<(), String> {
    let env = load_env(args)?;
    let jobs_path = args.required("--jobs")?;
    let text = fs::read_to_string(jobs_path).map_err(|e| format!("{jobs_path}: {e}"))?;
    let specs: Vec<JobSpec> =
        serde_json::from_str(&text).map_err(|e| format!("{jobs_path}: {e}"))?;
    let jobs: Vec<Job> = specs
        .iter()
        .map(|s| Ok(Job::new(JobId(s.id), s.priority, s.to_request()?)))
        .collect::<Result<_, String>>()?;

    let mut config = BatchSchedulerConfig::default();
    if let Some(name) = args.flag("--objective") {
        config.objective = parse_objective(name)?;
    }
    if let Some(budget) = args.flag("--vo-budget") {
        config.vo_budget = Some(
            budget
                .parse()
                .map_err(|_| "--vo-budget: not a number".to_owned())?,
        );
    }
    let schedule = BatchScheduler::new(config).schedule(&env.platform, &env.slots, &jobs);
    for assignment in &schedule.assignments {
        match &assignment.window {
            Some(w) => println!(
                "{} (prio {}): start {} finish {} cost {}",
                assignment.job.id(),
                assignment.job.priority(),
                w.start().ticks(),
                w.finish().ticks(),
                w.total_cost()
            ),
            None => println!(
                "{} (prio {}): deferred",
                assignment.job.id(),
                assignment.job.priority()
            ),
        }
    }
    println!(
        "scheduled {}/{} jobs, total cost {}, makespan {:?}",
        schedule.scheduled(),
        schedule.assignments.len(),
        schedule.total_cost(),
        schedule.makespan().map(TimePoint::ticks)
    );
    Ok(())
}

fn cmd_select_and_validate(args: &Args) -> Result<(), String> {
    // select, dump the window as JSON, or validate a window file.
    let env = load_env(args)?;
    let request = request_from_args(args)?;
    match args.flag("--window") {
        Some(path) => {
            let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let window: Window = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
            match slotsel::core::validate_window(&window, &env.platform, &env.slots, &request) {
                Ok(()) => {
                    println!("window is valid for the request on this environment");
                    Ok(())
                }
                Err(violation) => Err(format!("window invalid: {violation}")),
            }
        }
        None => {
            // No window given: select one and print it as JSON, ready to be
            // validated or archived.
            let name = args.flag("--algorithm").unwrap_or("amp");
            let mut algorithm = make_algorithm(name)?;
            match algorithm.select(&env.platform, &env.slots, &request) {
                Some(window) => {
                    let json = serde_json::to_string_pretty(&window).map_err(|e| e.to_string())?;
                    println!("{json}");
                    Ok(())
                }
                None => Err("no suitable window".to_owned()),
            }
        }
    }
}

fn cmd_gantt(args: &Args) -> Result<(), String> {
    let env = load_env(args)?;
    let width: usize = args.parsed("--width", 80)?;
    let window = match args.flag("--algorithm") {
        Some(name) => {
            let request = request_from_args(args)?;
            make_algorithm(name)?.select(&env.platform, &env.slots, &request)
        }
        None => None,
    };
    let end = env
        .slots
        .iter()
        .map(|s| s.end())
        .max()
        .ok_or("environment has no slots")?;
    let start = env
        .slots
        .iter()
        .map(|s| s.start())
        .min()
        .expect("non-empty checked above")
        .earliest(TimePoint::ZERO);
    print!(
        "{}",
        render_gantt(
            &env.platform,
            &env.slots,
            window.as_ref(),
            slotsel::core::Interval::new(start, end),
            width.max(1),
            true,
        )
    );
    Ok(())
}

fn parse_recovery(name: &str) -> Result<RecoveryPolicy, String> {
    Ok(match name {
        "abandon" => RecoveryPolicy::Abandon,
        "retry" => RecoveryPolicy::RetryNextCycle {
            backoff: 0,
            max_attempts: 5,
        },
        "migrate" => RecoveryPolicy::Migrate,
        other => {
            return Err(format!(
                "unknown recovery policy {other:?}; expected abandon|retry|migrate"
            ))
        }
    })
}

/// A deterministic synthetic batch for the serve daemon: `count` jobs with
/// varied sizes, priorities and budgets, derived only from the index.
fn serve_jobs(count: usize) -> Result<Vec<Job>, String> {
    (0..count)
        .map(|i| {
            let spec = JobSpec {
                id: i as u32,
                priority: 1 + (i as u32 % 3),
                node_count: 2 + i % 3,
                volume: 150 + 50 * (i as u64 % 4),
                budget: 20_000.0,
                reference_span: None,
                deadline: None,
            };
            Ok(Job::new(JobId(spec.id), spec.priority, spec.to_request()?))
        })
        .collect()
}

/// The journal directory of one serve round under `--journal-dir` — the
/// round number is recoverable from the name alone.
fn round_dir(base: &Path, round: u64) -> PathBuf {
    base.join(format!("round-{round:06}"))
}

/// The highest journaled round number under `base`, if any.
fn latest_round(base: &Path) -> Result<Option<u64>, String> {
    let entries = match fs::read_dir(base) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("{}: {e}", base.display())),
    };
    let mut latest = None;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", base.display()))?;
        let name = entry.file_name();
        let round = name
            .to_str()
            .and_then(|n| n.strip_prefix("round-"))
            .and_then(|n| n.parse::<u64>().ok());
        latest = latest.max(round);
    }
    Ok(latest)
}

fn print_round(round: u64, report: &RollingReport) {
    println!(
        "round {round}: {} completed, {} starved, {} lost, survival {:.3}, spent {:.1}",
        report.outcome.completions.len(),
        report.outcome.starved.len(),
        report.survival.jobs_lost,
        report.survival.survival_rate(),
        report.outcome.total_spent(),
    );
    std::io::stdout().flush().ok();
}

/// The journal flags of both serve modes: `--journal-dir`, whether
/// `--recover` was given, and `--snapshot-every`.
fn journal_flags(args: &Args) -> Result<(Option<PathBuf>, bool, u32), String> {
    let snapshot_every: u32 = args.parsed("--snapshot-every", 5)?;
    let journal_base = args.flag("--journal-dir").map(PathBuf::from);
    let recover_requested = args.raw.iter().any(|a| a == "--recover");
    if recover_requested && journal_base.is_none() {
        return Err("--recover requires --journal-dir".to_owned());
    }
    if snapshot_every == 0 {
        return Err("--snapshot-every must be at least 1".to_owned());
    }
    Ok((journal_base, recover_requested, snapshot_every))
}

/// Binds a serve daemon's endpoint and prints where it listens; a
/// `handler` (the live API) adds the submit line.
fn bind_server(
    addr: &str,
    attempts: u32,
    registry: Arc<MetricsRegistry>,
    handler: Option<Arc<Handler>>,
) -> Result<MetricsServer, String> {
    let live = handler.is_some();
    let server = MetricsServer::start(addr, registry, handler, attempts)
        .map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let addr = server.addr();
    println!("serving metrics on http://{addr}/metrics");
    if live {
        println!("live submit API on http://{addr}/submit");
    }
    println!("health checks on http://{addr}/healthz");
    println!("graceful shutdown via POST http://{addr}/shutdown");
    Ok(server)
}

/// `slotsel serve --live`: the continuous multi-tenant metascheduler (see
/// `docs/SERVING.md`). Unlike the default replay mode, the journal lives
/// directly in `--journal-dir` (one continuous run, not rounds).
fn cmd_serve_live(args: &Args) -> Result<(), String> {
    let addr = args.flag("--addr").unwrap_or("127.0.0.1:9184");
    let shards: u32 = args.parsed("--shards", 1)?;
    let nodes: usize = args.parsed("--nodes", 16)?;
    let interval: i64 = args.parsed("--interval", 600)?;
    let cycle_advance: i64 = args.parsed("--cycle-advance", 60)?;
    let cycles: u64 = args.parsed("--cycles", 0)?;
    let seed: u64 = args.parsed("--seed", 31_337)?;
    let cycle_ms: u64 = args.parsed("--cycle-ms", 250)?;
    let (journal_base, recover_requested, snapshot_every) = journal_flags(args)?;
    let bind_retries: u32 = args.parsed("--bind-retries", 5)?;
    let flight_cycles: usize = args.parsed("--flight-cycles", 64)?;
    let quotas = match args.flag("--quota-file") {
        Some(path) => {
            let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            QuotaTable::from_json(&text).map_err(|e| format!("{path}: {e}"))?
        }
        None => QuotaTable::open(),
    };

    let config = LiveConfig {
        shards,
        nodes_per_shard: nodes,
        interval_length: interval,
        cycle_advance,
        seed,
        quotas,
        scheduler: BatchSchedulerConfig::default(),
    };
    config.check().map_err(|reason| {
        // Name the flag that set the refused field.
        [
            ("shards", "--shards"),
            ("nodes_per_shard", "--nodes"),
            ("interval_length", "--interval"),
            ("cycle_advance", "--cycle-advance"),
        ]
        .into_iter()
        .find_map(|(field, flag)| Some(format!("{flag}{}", reason.strip_prefix(field)?)))
        .unwrap_or(reason)
    })?;

    let (daemon, report) = LiveDaemon::open(
        config,
        journal_base.as_deref(),
        recover_requested,
        snapshot_every,
        flight_cycles,
    )?;
    if let Some(line) = report {
        println!("{line}");
    }
    let daemon = Arc::new(daemon);
    let server = bind_server(
        addr,
        bind_retries,
        Arc::clone(daemon.registry()),
        Some(daemon.handler()),
    )?;
    // After --recover the service runs on the journal header's config.
    let running = daemon.config();
    println!(
        "live mode: {} shard(s) x {} nodes, +{} virtual time per cycle",
        running.shards, running.nodes_per_shard, running.cycle_advance
    );
    std::io::stdout().flush().ok();

    let mut executed = 0u64;
    while !server.shutdown_requested() && (cycles == 0 || executed < cycles) {
        // Sleep the cycle pace in short slices so a shutdown request
        // stops the daemon promptly even under a long --cycle-ms.
        let mut waited = 0u64;
        while waited < cycle_ms && !server.shutdown_requested() {
            let step = (cycle_ms - waited).min(50);
            std::thread::sleep(Duration::from_millis(step));
            waited += step;
        }
        if server.shutdown_requested() {
            break;
        }
        let outcome = daemon.run_cycle();
        executed += 1;
        if !outcome.committed.is_empty()
            || !outcome.deferred.is_empty()
            || !outcome.finished.is_empty()
        {
            println!(
                "cycle {}: {} committed, {} deferred, {} finished",
                outcome.cycle,
                outcome.committed.len(),
                outcome.deferred.len(),
                outcome.finished.len(),
            );
            std::io::stdout().flush().ok();
        }
    }

    daemon.finish()?;
    if server.shutdown_requested() {
        println!("shutdown requested; journal flushed and final snapshot written");
        std::io::stdout().flush().ok();
    }
    drop(server);
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    if args.raw.iter().any(|a| a == "--live") {
        return cmd_serve_live(args);
    }
    let addr = args.flag("--addr").unwrap_or("127.0.0.1:9184");
    let nodes: usize = args.parsed("--nodes", 16)?;
    let jobs: usize = args.parsed("--jobs", 8)?;
    let cycles: u32 = args.parsed("--cycles", 20)?;
    let seed: u64 = args.parsed("--seed", 31_337)?;
    let rounds: u64 = args.parsed("--rounds", 0)?;
    let pace_ms: u64 = args.parsed("--pace-ms", 250)?;
    let (journal_base, recover_requested, snapshot_every) = journal_flags(args)?;
    let bind_retries: u32 = args.parsed("--bind-retries", 5)?;
    let disruption = args
        .flag("--faults")
        .map(|v| {
            v.parse::<u64>()
                .map(DisruptionConfig::adversarial)
                .map_err(|_| "--faults: not a number".to_owned())
        })
        .transpose()?;
    let recovery = match args.flag("--recovery") {
        Some(name) => parse_recovery(name)?,
        None => RecoveryPolicy::default(),
    };

    let registry = Arc::new(MetricsRegistry::new());
    let server = bind_server(addr, bind_retries, Arc::clone(&registry), None)?;
    std::io::stdout().flush().ok();

    let batch = serve_jobs(jobs)?;
    let mut round = 0u64;

    // --recover: pick up the newest journaled round. A finished journal
    // just advances the round counter; an interrupted one resumes from
    // its last barrier and replays to the exact uninterrupted outcome.
    if recover_requested {
        let base = journal_base.as_ref().expect("checked above");
        match latest_round(base)? {
            None => println!("recover: no journaled rounds under {}", base.display()),
            Some(latest) => {
                let dir = round_dir(base, latest);
                match recover(&dir) {
                    Ok(run) if run.finished.is_some() => {
                        println!("recover: round {latest} already finished");
                        round = latest + 1;
                    }
                    Ok(run) => {
                        println!(
                            "recover: resuming round {latest} at cycle {} \
                             ({} completions so far)",
                            run.state.next_cycle,
                            run.state.completions.len(),
                        );
                        registry.counter_add("slotsel_serve_rounds_total", &[], 1);
                        registry.counter_add("slotsel_serve_recoveries_total", &[], 1);
                        let mut journal = DurableJournal::resume(&dir, &run, snapshot_every)
                            .map_err(|e| format!("{}: {e}", dir.display()))?;
                        let report = resume_with_recovery_observed(
                            run,
                            &mut Obs::dark().with_metrics(registry.as_ref()),
                            &mut journal,
                        );
                        journal
                            .finish()
                            .map_err(|e| format!("{}: {e}", dir.display()))?;
                        print_round(latest, &report);
                        round = latest + 1;
                    }
                    Err(RecoverError::EmptyJournal) => {
                        // Crashed before the header committed: nothing was
                        // recorded, so the round simply reruns.
                        println!("recover: round {latest} journal is empty; rerunning it");
                        round = latest;
                    }
                    Err(error) => return Err(format!("recover {}: {error}", dir.display())),
                }
            }
        }
    }

    loop {
        // Recovery may already have completed the requested round budget.
        if (rounds != 0 && round >= rounds) || server.shutdown_requested() {
            break;
        }
        let config = RollingConfig {
            env: EnvironmentConfig {
                nodes: NodeGenConfig {
                    count: nodes,
                    ..NodeGenConfig::paper_default()
                },
                ..EnvironmentConfig::paper_default()
            },
            max_cycles: cycles,
            // Distinct per-round seeds keep the daemon's rounds independent
            // while the whole run stays reproducible from --seed.
            seed: seed.wrapping_add(round.wrapping_mul(0x9E37_79B9)),
            disruption: disruption.clone(),
            recovery,
            ..RollingConfig::default()
        };
        registry.counter_add("slotsel_serve_rounds_total", &[], 1);
        let mut obs = Obs::dark().with_metrics(registry.as_ref());
        let report = match &journal_base {
            Some(base) => {
                let dir = round_dir(base, round);
                let mut journal = DurableJournal::create(&dir, snapshot_every)
                    .map_err(|e| format!("{}: {e}", dir.display()))?;
                let report =
                    simulate_with_recovery_observed(&config, batch.clone(), &mut obs, &mut journal);
                // Flush + fsync the tail; the round ends in RunFinished.
                journal
                    .finish()
                    .map_err(|e| format!("{}: {e}", dir.display()))?;
                report
            }
            None => {
                simulate_with_recovery_observed(&config, batch.clone(), &mut obs, &mut NoopJournal)
            }
        };
        print_round(round, &report);
        round += 1;
        if rounds != 0 && round >= rounds {
            break;
        }
        if server.shutdown_requested() {
            break;
        }
        std::thread::sleep(Duration::from_millis(pace_ms));
    }
    if server.shutdown_requested() {
        println!("shutdown requested; journal flushed");
        std::io::stdout().flush().ok();
    }
    drop(server);
    Ok(())
}

const USAGE: &str = "\
usage: slotsel <command> [flags]

commands:
  generate  --nodes N --interval L --seed S [--non-linux F] [--out FILE]
  info      --env FILE
  select    --env FILE --algorithm NAME [--n N --volume V --budget B --span T --deadline D]
  csa       --env FILE [--criterion NAME] [--max N] [request flags]
  batch     --env FILE --jobs FILE [--objective NAME] [--vo-budget B]
  gantt     --env FILE [--width W] [--algorithm NAME + request flags]
  validate  --env FILE [request flags] [--window FILE | --algorithm NAME]
  serve     [--addr HOST:PORT] [--nodes N] [--jobs J] [--cycles C] [--seed S]
            [--faults SEED] [--recovery abandon|retry|migrate]
            [--rounds R (0 = forever)] [--pace-ms MS] [--bind-retries N]
            [--journal-dir DIR [--recover] [--snapshot-every N]]
  serve --live
            [--addr HOST:PORT] [--shards N] [--nodes PER_SHARD] [--interval L]
            [--cycle-advance T] [--cycle-ms MS] [--cycles C (0 = forever)]
            [--seed S] [--quota-file FILE] [--bind-retries N]
            [--journal-dir DIR [--recover] [--snapshot-every N]]
            [--flight-cycles N]  # span flight recorder depth; see
                                 # GET /debug/trace, /debug/spans,
                                 # /debug/job/{id}/timeline
";

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = raw.first().cloned() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let args = Args { raw };
    let result = match command.as_str() {
        "generate" => cmd_generate(&args),
        "info" => cmd_info(&args),
        "select" => cmd_select(&args),
        "csa" => cmd_csa(&args),
        "batch" => cmd_batch(&args),
        "gantt" => cmd_gantt(&args),
        "validate" => cmd_select_and_validate(&args),
        "serve" => cmd_serve(&args),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
