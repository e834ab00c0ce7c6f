//! The live daemon behind `slotsel serve --live`.
//!
//! A [`LiveDaemon`] keeps the [`LiveService`], its journal and the
//! per-job timelines under one lock and the span flight recorder under
//! another, and does everything the daemon does with them: it opens or
//! recovers the journal directory, answers the HTTP routes
//! ([`LiveDaemon::handle`]), runs one journaled cycle at a time
//! ([`LiveDaemon::run_cycle`]) and writes the final snapshot at shutdown
//! ([`LiveDaemon::finish`]). The binary around it parses the flags, binds
//! the [`MetricsServer`](slotsel_obs::MetricsServer), paces the cycles
//! and prints; see `docs/SERVING.md`.
//!
//! One lock guards the service and the journal together, so a submit's
//! `Submitted` record can never interleave into a cycle's records: `POST
//! /submit` appends and fsyncs its record under the lock before it
//! answers, and a cycle runs whole under it. A cycle packs its span tree
//! into the flight recorder only after it has released that lock, and
//! `GET /debug/trace` and `GET /debug/spans` take only the recorder's
//! lock (the trace unpacks under it and renders after it), so they never
//! hold up a submit or a cycle's scheduling. The daemon starts no thread:
//! its routes run on the server's accept thread and its cycles on the
//! caller's.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use slotsel_core::request::JobId;
use slotsel_obs::http::id_segment;
use slotsel_obs::journal::{Journal, NoopJournal};
use slotsel_obs::json::{parse_object, ObjectWriter, Value};
use slotsel_obs::{
    chrome, FlightRecorder, Handler, HttpRequest, HttpResponse, MemorySpanSink, Metrics,
    MetricsRegistry, SpanRecord,
};

use crate::journal::{DurableJournal, RecoverError};
use crate::serve::{
    recover_live, CycleOutcome, JobEntry, LiveConfig, LiveRecord, LiveService, Submission,
};

/// What a [`LiveDaemon`] keeps under its lock.
#[derive(Debug)]
struct Live {
    service: LiveService,
    journal: Option<DurableJournal>,
    /// Per-job lifecycle log (`(cycle, event)` pairs, append-only) behind
    /// `GET /debug/job/{id}/timeline`.
    timelines: BTreeMap<u32, Vec<(u64, &'static str)>>,
}

/// The live daemon: a [`LiveService`] with its journal, route table and
/// cycle step, shared between the HTTP accept thread and the cycle loop.
#[derive(Debug)]
pub struct LiveDaemon {
    live: Mutex<Live>,
    /// Ring buffer of the last cycles' span trees, served as Chrome trace
    /// JSON by `GET /debug/trace`, under a lock of its own.
    flight: Mutex<FlightRecorder>,
    registry: Arc<MetricsRegistry>,
}

impl LiveDaemon {
    /// Opens a daemon for `config`, keeping the span trees of the last
    /// `flight_cycles` cycles. Without `journal_dir` it runs unjournaled.
    /// With one it starts a fresh journal there, or with `recover` resumes
    /// the live journal it finds (a directory without one starts fresh),
    /// snapshotting every `snapshot_every` barriers (a resumed format-1
    /// journal writes none, as its recovery reads none). Returns the
    /// daemon and, after `recover`, the line that says what recovery
    /// found.
    ///
    /// # Errors
    ///
    /// The journal directory cannot be created or reopened, or recovery
    /// refuses the journal.
    ///
    /// # Panics
    ///
    /// Panics if `config` is refused by [`LiveConfig::check`], or if
    /// `snapshot_every` is zero with a `journal_dir`.
    pub fn open(
        config: LiveConfig,
        journal_dir: Option<&Path>,
        recover: bool,
        snapshot_every: u32,
        flight_cycles: usize,
    ) -> Result<(Self, Option<String>), String> {
        let mut report = None;
        let (service, journal) = match journal_dir {
            None => (LiveService::new(config), None),
            Some(dir) => match recover.then(|| recover_live(dir)) {
                Some(Ok(recovered)) => {
                    report = Some(format!(
                        "recover: resuming live service at cycle {} \
                         ({} jobs, {} re-applied submits, {}{})",
                        recovered.service.cycle(),
                        recovered.service.job_count(),
                        recovered.resubmitted,
                        match recovered.snapshot_cycle {
                            Some(cycle) => format!("slots from the cycle-{cycle} snapshot"),
                            None => "replayed from the generated platform".to_owned(),
                        },
                        if recovered.discarded_tail {
                            ", torn tail truncated"
                        } else {
                            ""
                        },
                    ));
                    let mut journal = DurableJournal::resume_at(
                        dir,
                        recovered.resume_len,
                        recovered.barriers,
                        snapshot_every,
                    )
                    .map_err(io_error(dir))?;
                    if recovered.format == 1 {
                        journal = journal.without_snapshots();
                    }
                    (recovered.service, Some(journal))
                }
                Some(Err(error)) if !matches!(error, RecoverError::EmptyJournal) => {
                    return Err(format!("recover {}: {error}", dir.display()));
                }
                empty_or_fresh => {
                    if empty_or_fresh.is_some() {
                        report = Some(format!(
                            "recover: no live journal under {}; starting fresh",
                            dir.display()
                        ));
                    }
                    let mut journal =
                        DurableJournal::create(dir, snapshot_every).map_err(io_error(dir))?;
                    // No fsync of its own: every later commit — each ack's
                    // included — flushes the header first.
                    journal.append(
                        &LiveRecord::ServiceStarted {
                            config: config.clone(),
                        }
                        .encode(),
                    );
                    (LiveService::new(config), Some(journal))
                }
            },
        };

        let registry = Arc::new(MetricsRegistry::new());
        let store = service.state().shards[0].slots.store_kind().to_string();
        registry.gauge_set(
            "slotsel_build_info",
            &[
                ("version", env!("CARGO_PKG_VERSION")),
                ("store", &store),
                ("shards", &service.config().shards.to_string()),
            ],
            1.0,
        );
        let live = Mutex::new(Live {
            service,
            journal,
            timelines: BTreeMap::new(),
        });
        let flight = Mutex::new(FlightRecorder::new(flight_cycles));
        Ok((
            LiveDaemon {
                live,
                flight,
                registry,
            },
            report,
        ))
    }

    /// The configuration the service runs on. After a recovery it is the
    /// journal header's, not the one [`open`](Self::open) was given.
    #[must_use]
    pub fn config(&self) -> LiveConfig {
        self.lock().service.config().clone()
    }

    /// The registry the daemon's routes and cycles publish to, for the
    /// server's `GET /metrics`.
    #[must_use]
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The route table as a [`Handler`] for the server to mount.
    #[must_use]
    pub fn handler(self: &Arc<Self>) -> Arc<Handler> {
        let daemon = Arc::clone(self);
        Arc::new(move |request: &HttpRequest| daemon.handle(request))
    }

    fn lock(&self) -> MutexGuard<'_, Live> {
        // A panic while holding the lock poisons it; the state itself is
        // journal-backed, so keep serving rather than wedging the daemon.
        self.live.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn flight(&self) -> MutexGuard<'_, FlightRecorder> {
        // Every update leaves the recorder valid: a panic in a push at
        // worst leaves a name in the table that no span uses.
        self.flight.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs one cycle: schedules, journals and publishes it and logs each
    /// decided job's event in its timeline under the service lock, then
    /// takes the recorder's lock, releases the service lock and packs the
    /// cycle's span tree into the flight recorder.
    pub fn run_cycle(&self) -> CycleOutcome {
        let mut guard = self.lock();
        let live = &mut *guard;
        let mut journal: &mut dyn Journal = match &mut live.journal {
            Some(journal) => journal,
            None => &mut NoopJournal,
        };
        let mut sink = MemorySpanSink::new();
        let outcome =
            live.service
                .run_cycle_spanned(self.registry.as_ref(), &mut journal, &mut sink);
        let events = (outcome.committed.iter().map(|&(job, _)| (job, "committed")))
            .chain(outcome.deferred.iter().map(|&job| (job, "deferred")))
            .chain(outcome.finished.iter().map(|&job| (job, "finished")));
        for (job, event) in events {
            live.timelines
                .entry(job.0)
                .or_default()
                .push((outcome.cycle, event));
        }
        // Take the recorder before releasing the service: a reader of
        // `/debug/` then never sees a commit `/job/` shows without its
        // cycle's spans. The pack and push run on the recorder's lock alone.
        let mut flight = self.flight();
        drop(guard);
        flight.push(outcome.cycle, sink.take_records());
        outcome
    }

    /// Closes the journal, first saving the state as of the last barrier
    /// as a final snapshot unless the cadence already saved it: the
    /// graceful-shutdown contract. Later calls do nothing.
    ///
    /// # Errors
    ///
    /// The first error the journal met, its final flush included.
    pub fn finish(&self) -> Result<(), String> {
        let mut live = self.lock();
        let Some(journal) = live.journal.take() else {
            return Ok(());
        };
        let state = live.service.state();
        journal
            .finish_with_snapshot(&|| LiveRecord::encode_checkpoint(state))
            .map_err(|e| format!("journal finish: {e}"))
    }

    /// The live API's route table: `POST /submit`, `GET /job/{id}`,
    /// `GET /tenants`, `GET /state` and the `/debug/` views. `None` for
    /// any other request.
    pub fn handle(&self, request: &HttpRequest) -> Option<HttpResponse> {
        let path = request.path.as_str();
        Some(match (request.method.as_str(), path) {
            ("POST", "/submit") => self.submit(&request.body),
            ("GET", _) if path.starts_with("/job/") => {
                let id = id_segment(&path["/job/".len()..])?;
                match self.lock().service.job(JobId(id)) {
                    Some(entry) => HttpResponse::json(job_json(entry)),
                    None => HttpResponse::error(404, "unknown_job", &format!("no job {id}")),
                }
            }
            ("GET", "/tenants") => {
                let mut lines = String::new();
                for (tenant, usage, quota) in self.lock().service.tenants() {
                    let mut body = ObjectWriter::new();
                    body.str_field("tenant", &tenant);
                    body.u64_field("pending", usage.pending as u64);
                    body.u64_field("nodes_in_flight", usage.nodes_in_flight as u64);
                    body.f64_field("budget_in_flight", usage.budget_in_flight.as_f64());
                    if let Some(max) = quota.max_nodes {
                        body.u64_field("max_nodes", max as u64);
                    }
                    if let Some(max) = quota.max_budget {
                        body.f64_field("max_budget", max);
                    }
                    if let Some(max) = quota.max_pending {
                        body.u64_field("max_pending", max as u64);
                    }
                    push_line(&mut lines, body);
                }
                HttpResponse::ndjson(lines)
            }
            ("GET", "/state") => {
                let live = self.lock();
                let state = live.service.state();
                let in_phase =
                    |name| state.jobs.iter().filter(|j| j.phase.name() == name).count() as u64;
                let mut body = ObjectWriter::new();
                body.u64_field("cycle", state.cycle);
                body.u64_field("shards", state.shards.len() as u64);
                body.u64_field("jobs", live.service.job_count() as u64);
                body.u64_field("queued", in_phase("queued"));
                body.u64_field("scheduled", in_phase("scheduled"));
                HttpResponse::json(body.finish() + "\n")
            }
            ("GET", "/debug/trace") => {
                let groups: Vec<(u64, Vec<SpanRecord>)> = self.flight().groups().collect();
                let groups: Vec<(u64, &[SpanRecord])> = groups
                    .iter()
                    .map(|(cycle, records)| (*cycle, records.as_slice()))
                    .collect();
                HttpResponse::json(chrome::render(&groups))
            }
            ("GET", "/debug/spans") => {
                let phases = self.flight().phase_summary();
                let mut lines = String::new();
                for (name, summary) in phases {
                    let mut body = ObjectWriter::new();
                    body.str_field("name", &name);
                    body.u64_field("count", summary.count);
                    body.u64_field("total_us", summary.total_us);
                    body.u64_field("mean_us", summary.mean_us());
                    body.u64_field("min_us", summary.min_us);
                    body.u64_field("max_us", summary.max_us);
                    push_line(&mut lines, body);
                }
                HttpResponse::ndjson(lines)
            }
            ("GET", _) if path.starts_with("/debug/job/") && path.ends_with("/timeline") => {
                let id = id_segment(
                    path.strip_prefix("/debug/job/")?
                        .strip_suffix("/timeline")?,
                )?;
                match self.lock().timelines.get(&id) {
                    Some(events) => {
                        let mut lines = String::new();
                        for &(cycle, event) in events {
                            let mut body = ObjectWriter::new();
                            body.u64_field("job", u64::from(id));
                            body.u64_field("cycle", cycle);
                            body.str_field("event", event);
                            push_line(&mut lines, body);
                        }
                        HttpResponse::ndjson(lines)
                    }
                    None => HttpResponse::error(
                        404,
                        "unknown_job",
                        &format!("no timeline for job {id}"),
                    ),
                }
            }
            _ => return None,
        })
    }

    /// `POST /submit`: admits the body's request and makes its
    /// `Submitted` record durable before answering.
    fn submit(&self, body: &str) -> HttpResponse {
        let submission = match parse_submission(body) {
            Ok(submission) => submission,
            Err(detail) => return self.reject("bad_request", &detail),
        };
        let mut live = self.lock();
        match live.service.submit(&submission) {
            Ok(entry) => {
                live.timelines
                    .entry(entry.id.0)
                    .or_default()
                    .push((entry.submitted_cycle, "submitted"));
                // Durable before acknowledged: the fsync in commit() is
                // what lets --recover re-apply this submit after a crash.
                if let Some(journal) = live.journal.as_mut() {
                    journal.append(
                        &LiveRecord::Submitted {
                            entry: entry.clone(),
                        }
                        .encode(),
                    );
                    journal.commit();
                }
                self.registry.counter_add(
                    "slotsel_serve_submits_total",
                    &[("tenant", entry.tenant.as_str())],
                    1,
                );
                HttpResponse::json(job_json(&entry))
            }
            Err(error) => self.reject(error.code(), &error.to_string()),
        }
    }

    /// Counts a refused submit under its error code and answers it.
    fn reject(&self, code: &str, detail: &str) -> HttpResponse {
        self.registry
            .counter_add("slotsel_serve_rejects_total", &[("code", code)], 1);
        HttpResponse::error(admit_status(code), code, detail)
    }
}

fn io_error(dir: &Path) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{}: {e}", dir.display())
}

/// Appends `body` to an NDJSON response as one line.
fn push_line(lines: &mut String, body: ObjectWriter) {
    lines.push_str(&body.finish());
    lines.push('\n');
}

/// The flat-JSON rendering of one job for `POST /submit` / `GET /job/{id}`.
fn job_json(entry: &JobEntry) -> String {
    let mut body = ObjectWriter::new();
    body.u64_field("job", u64::from(entry.id.0));
    body.str_field("tenant", entry.tenant.as_str());
    body.u64_field("shard", u64::from(entry.shard));
    body.str_field("state", entry.phase.name());
    body.u64_field("priority", u64::from(entry.priority));
    body.u64_field("nodes", entry.request.node_count() as u64);
    body.f64_field("budget", entry.request.budget().as_f64());
    body.u64_field("submitted_cycle", entry.submitted_cycle);
    if let Some(window) = entry.phase.window() {
        body.i64_field("start", window.start().ticks());
        body.i64_field("finish", window.finish().ticks());
        body.f64_field("cost", window.total_cost().as_f64());
    }
    body.finish() + "\n"
}

/// HTTP status for an admission error code (the code itself travels in
/// the normalized error body).
fn admit_status(code: &str) -> u16 {
    match code {
        "quota_exceeded" => 429,
        "unknown_tenant" => 403,
        _ => 400,
    }
}

/// The keys a `POST /submit` body may hold.
const SUBMIT_KEYS: [&str; 7] = [
    "tenant", "nodes", "volume", "budget", "priority", "deadline", "shard",
];

/// Decodes a `POST /submit` body (one flat JSON object) into a
/// [`Submission`], refusing the first key it does not read.
fn parse_submission(body: &str) -> Result<Submission, String> {
    let object =
        parse_object(body.trim()).map_err(|e| format!("body is not a flat JSON object: {e}"))?;
    if let Value::Obj(fields) = &object {
        if let Some((key, _)) = fields
            .iter()
            .find(|(key, _)| !SUBMIT_KEYS.contains(&&**key))
        {
            return Err(format!("unknown field {key:?}"));
        }
    }
    let str_of = |key: &str| object.get(key).and_then(Value::as_str).map(str::to_owned);
    let num_of = |key: &str| object.get(key).and_then(Value::as_f64);
    let uint_of = |key: &str| -> Result<Option<u64>, String> {
        match num_of(key) {
            None => Ok(None),
            Some(v) if v >= 0.0 && v.fract() == 0.0 => Ok(Some(v as u64)),
            Some(v) => Err(format!("{key}: {v} is not a non-negative integer")),
        }
    };
    Ok(Submission {
        tenant: str_of("tenant").ok_or("missing string field \"tenant\"")?,
        nodes: uint_of("nodes")?.ok_or("missing integer field \"nodes\"")? as usize,
        volume: uint_of("volume")?.ok_or("missing integer field \"volume\"")?,
        budget: num_of("budget").ok_or("missing number field \"budget\"")?,
        priority: uint_of("priority")?.unwrap_or(1).min(u64::from(u32::MAX)) as u32,
        deadline: uint_of("deadline")?.map(|v| i64::try_from(v).unwrap_or(i64::MAX)),
        shard: uint_of("shard")?.map(|v| v.min(u64::from(u32::MAX)) as u32),
    })
}

#[cfg(test)]
mod tests {
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::path::PathBuf;

    use slotsel_obs::journal::read_journal;
    use slotsel_obs::MetricsServer;

    use super::*;
    use crate::journal::journal_path;

    const BODY: &str = r#"{"tenant":"alice","nodes":2,"volume":50,"budget":5000}"#;

    fn config() -> LiveConfig {
        LiveConfig {
            shards: 1,
            nodes_per_shard: 8,
            interval_length: 600,
            cycle_advance: 100,
            seed: 42,
            ..LiveConfig::default()
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("slotsel-daemon-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn daemon(journal_dir: Option<&Path>) -> LiveDaemon {
        LiveDaemon::open(config(), journal_dir, false, 5, 8)
            .unwrap()
            .0
    }

    fn request(method: &str, path: &str, body: &str) -> HttpRequest {
        HttpRequest {
            method: method.to_owned(),
            path: path.to_owned(),
            body: body.to_owned(),
        }
    }

    fn field(response: &HttpResponse, name: &str) -> Value {
        let object = parse_object(response.body.trim()).unwrap();
        object.get(name).cloned().unwrap_or(Value::Null)
    }

    #[test]
    fn a_submit_is_durable_before_it_is_acknowledged() {
        let dir = temp_dir("durable");
        let daemon = daemon(Some(&dir));
        let ack = daemon.handle(&request("POST", "/submit", BODY)).unwrap();
        assert_eq!(ack.status, 200, "{}", ack.body);
        // No cycle has run: the ack's own fsync put the record on disk.
        let records = read_journal(&journal_path(&dir)).unwrap().records;
        assert!(matches!(
            LiveRecord::decode(&records[0]),
            Ok(LiveRecord::ServiceStarted { .. })
        ));
        match LiveRecord::decode(records.last().unwrap()) {
            Ok(LiveRecord::Submitted { entry }) => {
                assert_eq!(entry.id, JobId(0));
                assert_eq!(entry.tenant.as_str(), "alice");
            }
            other => panic!("last record is not the submit: {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_job_timeline_lists_submitted_committed_and_finished_in_order() {
        let daemon = daemon(None);
        assert_eq!(
            daemon
                .handle(&request("POST", "/submit", BODY))
                .unwrap()
                .status,
            200
        );
        for _ in 0..20 {
            if !daemon.run_cycle().finished.is_empty() {
                break;
            }
        }
        let timeline = daemon
            .handle(&request("GET", "/debug/job/0/timeline", ""))
            .unwrap();
        assert_eq!(timeline.content_type, "application/x-ndjson");
        let events: Vec<String> = timeline
            .body
            .lines()
            .map(|line| {
                let object = parse_object(line).unwrap();
                object
                    .get("event")
                    .and_then(Value::as_str)
                    .unwrap()
                    .to_owned()
            })
            .collect();
        assert_eq!(events, ["submitted", "committed", "finished"]);
        let job = daemon.handle(&request("GET", "/job/0", "")).unwrap();
        assert_eq!(field(&job, "state").as_str(), Some("finished"));
    }

    #[test]
    fn an_unknown_job_answers_404() {
        let daemon = daemon(None);
        for path in ["/job/7", "/debug/job/7/timeline"] {
            let missing = daemon.handle(&request("GET", path, "")).unwrap();
            assert_eq!(missing.status, 404, "{path}");
            assert_eq!(field(&missing, "error").as_str(), Some("unknown_job"));
        }
        // Paths without a job id are not routes of the daemon.
        for path in ["/job/x", "/debug/job/timeline", "/debug/job/x/timeline"] {
            assert_eq!(daemon.handle(&request("GET", path, "")), None, "{path}");
        }
    }

    #[test]
    fn a_job_id_is_all_digits() {
        let daemon = daemon(None);
        assert_eq!(
            daemon
                .handle(&request("POST", "/submit", BODY))
                .unwrap()
                .status,
            200
        );
        for path in ["/job/0", "/job/00", "/debug/job/0/timeline"] {
            let found = daemon.handle(&request("GET", path, "")).unwrap();
            assert_eq!(found.status, 200, "{path}");
        }
        // A sign or a space is not part of an id: these match no route,
        // so the server answers 404 under one `{other}` metrics label.
        for path in ["/job/+0", "/job/+00", "/job/ 0", "/debug/job/+0/timeline"] {
            assert_eq!(daemon.handle(&request("GET", path, "")), None, "{path}");
        }
    }

    #[test]
    fn a_malformed_body_answers_400_and_counts_a_bad_request() {
        let daemon = daemon(None);
        let rejects = || {
            daemon
                .registry()
                .counter_value("slotsel_serve_rejects_total", &[("code", "bad_request")])
        };
        // A misspelled deadline, or a criterion the daemon does not take,
        // is refused by name rather than queued as a job without it.
        for (body, detail) in [
            ("not json", "body is not a flat JSON object"),
            (r#"{"tenant":"alice","nodes":2}"#, "missing integer field"),
            (
                r#"{"tenant":"alice","nodes":2,"volume":50,"budget":5000,"deadlin":5}"#,
                "unknown field \"deadlin\"",
            ),
            (
                r#"{"tenant":"alice","nodes":2,"volume":50,"budget":5000,"criterion":"mincost"}"#,
                "unknown field \"criterion\"",
            ),
        ] {
            let refused = daemon.handle(&request("POST", "/submit", body)).unwrap();
            assert_eq!(refused.status, 400, "{body}");
            assert_eq!(field(&refused, "error").as_str(), Some("bad_request"));
            let said = field(&refused, "detail");
            assert!(
                said.as_str().unwrap().starts_with(detail),
                "{body}: {said:?}"
            );
        }
        assert_eq!(rejects(), 4);
        assert_eq!(
            daemon
                .handle(&request("GET", "/state", ""))
                .map(|r| field(&r, "jobs")),
            Some(Value::Num(0.0))
        );
    }

    #[test]
    fn a_budget_money_cannot_hold_is_refused_and_the_server_stays_up() {
        let daemon = Arc::new(daemon(None));
        let server = MetricsServer::start(
            "127.0.0.1:0",
            Arc::clone(daemon.registry()),
            Some(daemon.handler()),
            1,
        )
        .unwrap();
        let send = |raw: String| {
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            stream.write_all(raw.as_bytes()).unwrap();
            let mut response = String::new();
            stream.read_to_string(&mut response).unwrap();
            response
        };
        for budget in ["1e300", "1e999"] {
            let body = format!(r#"{{"tenant":"alice","nodes":2,"volume":50,"budget":{budget}}}"#);
            let refused = send(format!(
                "POST /submit HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ));
            assert!(refused.starts_with("HTTP/1.1 400"), "{budget}: {refused}");
            assert!(refused.contains("\"error\":\"bad_request\""), "{refused}");
            let health = send("GET /healthz HTTP/1.1\r\n\r\n".to_owned());
            assert!(health.starts_with("HTTP/1.1 200"), "{budget}: {health}");
        }
        server.stop();
    }

    #[test]
    fn open_recovers_a_journal_and_starts_fresh_on_an_empty_directory() {
        let dir = temp_dir("recover");
        let first = daemon(Some(&dir));
        first.handle(&request("POST", "/submit", BODY)).unwrap();
        first.run_cycle();
        first.finish().unwrap();
        drop(first);

        let (resumed, report) = LiveDaemon::open(config(), Some(&dir), true, 5, 8).unwrap();
        let report = report.unwrap();
        assert!(
            report.starts_with("recover: resuming live service at cycle 1 (1 jobs, 0 re-applied"),
            "{report}"
        );
        assert_eq!(
            resumed
                .handle(&request("GET", "/job/0", ""))
                .map(|r| r.status),
            Some(200)
        );
        std::fs::remove_dir_all(&dir).unwrap();

        let (_, report) = LiveDaemon::open(config(), Some(&dir), true, 5, 8).unwrap();
        assert!(
            report.unwrap().ends_with("; starting fresh"),
            "an empty directory starts a fresh journal"
        );
        assert!(read_journal(&journal_path(&dir)).unwrap().records.len() <= 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
