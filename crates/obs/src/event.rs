//! The trace event schema.
//!
//! Every probe threaded through the scheduler emits one of these typed
//! events; a [`crate::recorder::TraceRecorder`] serializes each to one
//! JSONL line, and [`TraceEvent::from_json_line`] reads it back. The
//! schema is documented field-by-field in `docs/OBSERVABILITY.md`.
//!
//! Events deliberately carry only primitive types (ids as integers, time
//! as raw ticks): this crate sits *below* `slotsel-core` in the workspace
//! graph and must not know its types. The mapping back to domain types is
//! the call site's business.
//!
//! The serialization is stable and deterministic: field order is fixed by
//! each variant's `write` implementation, so a trace produced from the
//! same seed and configuration is byte-identical across runs (timings,
//! the only non-deterministic channel, can be excluded at the sink).

use crate::json::{JsonError, ObjectWriter, Value};

/// One trace event, as emitted by the instrumented hot paths.
///
/// The `type` tag on the wire is the variant name in snake case; see each
/// variant's docs for its fields.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A named counter was incremented ([`crate::recorder::Recorder::count`]).
    Count {
        /// Counter name, dot-separated (`"aep.slots_rejected"`).
        name: String,
        /// Increment, usually 1.
        delta: u64,
    },
    /// A named distribution received one sample
    /// ([`crate::recorder::Recorder::observe`]).
    Sample {
        /// Distribution name (`"aep.alive"`).
        name: String,
        /// The observed value.
        value: f64,
    },
    /// A named timer recorded one duration
    /// ([`crate::recorder::Recorder::time_ns`]). The only event kind whose
    /// payload is wall-clock dependent.
    Timing {
        /// Timer name (`"batch.phase1"`).
        name: String,
        /// Elapsed nanoseconds.
        nanos: u64,
    },

    /// An AEP scan began (`slotsel_core::aep::scan_observed`).
    ScanStarted {
        /// The selection policy's name.
        policy: String,
        /// Requested co-allocation width `n`.
        nodes_requested: u64,
        /// Slots in the input slot list.
        slots_total: u64,
    },
    /// The scan's best-so-far window improved.
    BestUpdated {
        /// The selection policy's name.
        policy: String,
        /// 1-based index of the admitted slot that triggered the update.
        step: u64,
        /// Window start, in model-time ticks.
        window_start: i64,
        /// The criterion value (lower is better).
        score: f64,
    },
    /// The scan finished.
    ScanFinished {
        /// The selection policy's name.
        policy: String,
        /// Slots admitted into the extended window.
        slots_admitted: u64,
        /// Slots rejected (wrong hardware, too short, past deadline).
        slots_rejected: u64,
        /// Steps at which a suitable window was evaluated.
        windows_evaluated: u64,
        /// Largest size the alive set reached.
        peak_alive: u64,
        /// Aggregate-pruned subtrees skipped (0 outside the tree store).
        subtrees_skipped: u64,
        /// Hopeless window starts jumped over (0 outside the tree store).
        windows_jumped: u64,
        /// Whether any window satisfied the request.
        found: bool,
        /// The winning criterion value; `0` when `found` is `false`.
        best_score: f64,
    },

    /// A batch scheduling cycle began (`slotsel_batch::BatchScheduler`).
    BatchStarted {
        /// Jobs in the batch.
        jobs: u64,
    },
    /// Phase 1 finished searching one job's alternatives.
    AlternativesFound {
        /// The job id.
        job: u64,
        /// Alternatives found (0 means the job cannot be scheduled).
        count: u64,
    },
    /// Phase 2 solved the multiple-choice knapsack.
    MckpSolved {
        /// Non-empty alternative classes (schedulable jobs).
        classes: u64,
        /// Total items across all classes (the MCKP instance size).
        items: u64,
        /// `true` for the exact DP solution, `false` for the greedy
        /// fallback (or when nothing was schedulable).
        exact: bool,
    },
    /// A job's window was committed.
    JobCommitted {
        /// The job id.
        job: u64,
        /// Window start, in ticks.
        start: i64,
        /// Window finish, in ticks.
        finish: i64,
        /// Allocation cost of the window.
        cost: f64,
    },
    /// A job found no committable window and was deferred.
    JobDeferred {
        /// The job id.
        job: u64,
    },

    /// A rolling-horizon cycle began (`slotsel_sim::rolling`).
    CycleStarted {
        /// Cycle index.
        cycle: u64,
        /// Jobs pending at the start of the cycle.
        pending: u64,
    },
    /// A rolling-horizon cycle finished.
    CycleFinished {
        /// Cycle index.
        cycle: u64,
        /// Jobs that completed in the cycle.
        scheduled: u64,
        /// Money spent in the cycle.
        spent: f64,
    },
    /// A disruption revoked a span of free time (`slotsel_sim::disruption`).
    SlotRevoked {
        /// Cycle index.
        cycle: u64,
        /// The node losing free time.
        node: u64,
        /// Revoked span start, in ticks.
        span_start: i64,
        /// Revoked span end, in ticks.
        span_end: i64,
    },
    /// A node failed.
    NodeFailed {
        /// Cycle index.
        cycle: u64,
        /// The failed node.
        node: u64,
        /// Whole cycles until restoration.
        repair_cycles: u64,
    },
    /// A previously failed node was restored.
    NodeRestored {
        /// Cycle index.
        cycle: u64,
        /// The repaired node.
        node: u64,
    },
    /// A node's performance degraded.
    NodeDegraded {
        /// Cycle index.
        cycle: u64,
        /// The degraded node.
        node: u64,
        /// Rate before.
        from_rate: u64,
        /// Rate after.
        to_rate: u64,
    },
    /// One committed window was replayed through the execution audit
    /// (`slotsel_sim::recovery::detect_victims`).
    WindowAudited {
        /// The window's job id.
        job: u64,
        /// `true` if the window still executes on the perturbed
        /// environment, `false` if it became a victim.
        survived: bool,
    },
    /// A victim job was rescued.
    JobRescued {
        /// Cycle index of the rescue.
        cycle: u64,
        /// The job id.
        job: u64,
        /// `"retry"` or `"migrate"`.
        via: String,
    },
    /// A victim job was lost for good.
    JobLost {
        /// Cycle index.
        cycle: u64,
        /// The job id.
        job: u64,
    },
    /// A victim job was parked to retry in a later cycle.
    JobParked {
        /// Cycle index.
        cycle: u64,
        /// The job id.
        job: u64,
        /// First cycle at which the job re-enters the batch.
        eligible_at: u64,
    },
    /// A parked job re-entered the pending batch.
    JobReadmitted {
        /// Cycle index.
        cycle: u64,
        /// The job id.
        job: u64,
    },
}

/// Failure to decode a trace line back into a [`TraceEvent`].
#[derive(Debug, Clone, PartialEq)]
pub enum EventDecodeError {
    /// The line is not a flat JSON object.
    Json(JsonError),
    /// The object does not match the event schema.
    Schema(String),
}

impl std::fmt::Display for EventDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EventDecodeError::Json(e) => write!(f, "{e}"),
            EventDecodeError::Schema(m) => write!(f, "schema error: {m}"),
        }
    }
}

impl std::error::Error for EventDecodeError {}

impl From<JsonError> for EventDecodeError {
    fn from(e: JsonError) -> Self {
        EventDecodeError::Json(e)
    }
}

fn need<'a>(object: &'a Value, field: &str) -> Result<&'a Value, EventDecodeError> {
    object
        .get(field)
        .ok_or_else(|| EventDecodeError::Schema(format!("missing field '{field}'")))
}

fn str_of(object: &Value, field: &str) -> Result<String, EventDecodeError> {
    need(object, field)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| EventDecodeError::Schema(format!("field '{field}' is not a string")))
}

fn f64_of(object: &Value, field: &str) -> Result<f64, EventDecodeError> {
    need(object, field)?
        .as_f64()
        .ok_or_else(|| EventDecodeError::Schema(format!("field '{field}' is not a number")))
}

/// Like [`u64_of`] but defaults to 0 when the field is absent — for
/// fields added to a variant after traces of it were already on disk.
fn u64_or_zero(object: &Value, field: &str) -> Result<u64, EventDecodeError> {
    if object.get(field).is_none() {
        return Ok(0);
    }
    u64_of(object, field)
}

#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
fn u64_of(object: &Value, field: &str) -> Result<u64, EventDecodeError> {
    let value = f64_of(object, field)?;
    if value < 0.0 || value.fract() != 0.0 {
        return Err(EventDecodeError::Schema(format!(
            "field '{field}' is not an unsigned integer"
        )));
    }
    Ok(value as u64)
}

#[allow(clippy::cast_possible_truncation)]
fn i64_of(object: &Value, field: &str) -> Result<i64, EventDecodeError> {
    let value = f64_of(object, field)?;
    if value.fract() != 0.0 {
        return Err(EventDecodeError::Schema(format!(
            "field '{field}' is not an integer"
        )));
    }
    Ok(value as i64)
}

fn bool_of(object: &Value, field: &str) -> Result<bool, EventDecodeError> {
    need(object, field)?
        .as_bool()
        .ok_or_else(|| EventDecodeError::Schema(format!("field '{field}' is not a boolean")))
}

impl TraceEvent {
    /// The wire `type` tag of this event.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Count { .. } => "count",
            TraceEvent::Sample { .. } => "sample",
            TraceEvent::Timing { .. } => "timing",
            TraceEvent::ScanStarted { .. } => "scan_started",
            TraceEvent::BestUpdated { .. } => "best_updated",
            TraceEvent::ScanFinished { .. } => "scan_finished",
            TraceEvent::BatchStarted { .. } => "batch_started",
            TraceEvent::AlternativesFound { .. } => "alternatives_found",
            TraceEvent::MckpSolved { .. } => "mckp_solved",
            TraceEvent::JobCommitted { .. } => "job_committed",
            TraceEvent::JobDeferred { .. } => "job_deferred",
            TraceEvent::CycleStarted { .. } => "cycle_started",
            TraceEvent::CycleFinished { .. } => "cycle_finished",
            TraceEvent::SlotRevoked { .. } => "slot_revoked",
            TraceEvent::NodeFailed { .. } => "node_failed",
            TraceEvent::NodeRestored { .. } => "node_restored",
            TraceEvent::NodeDegraded { .. } => "node_degraded",
            TraceEvent::WindowAudited { .. } => "window_audited",
            TraceEvent::JobRescued { .. } => "job_rescued",
            TraceEvent::JobLost { .. } => "job_lost",
            TraceEvent::JobParked { .. } => "job_parked",
            TraceEvent::JobReadmitted { .. } => "job_readmitted",
        }
    }

    /// Serializes the event to one JSONL line (no trailing newline).
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let mut w = ObjectWriter::new();
        w.str_field("type", self.kind());
        match self {
            TraceEvent::Count { name, delta } => {
                w.str_field("name", name);
                w.u64_field("delta", *delta);
            }
            TraceEvent::Sample { name, value } => {
                w.str_field("name", name);
                w.f64_field("value", *value);
            }
            TraceEvent::Timing { name, nanos } => {
                w.str_field("name", name);
                w.u64_field("nanos", *nanos);
            }
            TraceEvent::ScanStarted {
                policy,
                nodes_requested,
                slots_total,
            } => {
                w.str_field("policy", policy);
                w.u64_field("nodes_requested", *nodes_requested);
                w.u64_field("slots_total", *slots_total);
            }
            TraceEvent::BestUpdated {
                policy,
                step,
                window_start,
                score,
            } => {
                w.str_field("policy", policy);
                w.u64_field("step", *step);
                w.i64_field("window_start", *window_start);
                w.f64_field("score", *score);
            }
            TraceEvent::ScanFinished {
                policy,
                slots_admitted,
                slots_rejected,
                windows_evaluated,
                peak_alive,
                subtrees_skipped,
                windows_jumped,
                found,
                best_score,
            } => {
                w.str_field("policy", policy);
                w.u64_field("slots_admitted", *slots_admitted);
                w.u64_field("slots_rejected", *slots_rejected);
                w.u64_field("windows_evaluated", *windows_evaluated);
                w.u64_field("peak_alive", *peak_alive);
                w.u64_field("subtrees_skipped", *subtrees_skipped);
                w.u64_field("windows_jumped", *windows_jumped);
                w.bool_field("found", *found);
                w.f64_field("best_score", *best_score);
            }
            TraceEvent::BatchStarted { jobs } => {
                w.u64_field("jobs", *jobs);
            }
            TraceEvent::AlternativesFound { job, count } => {
                w.u64_field("job", *job);
                w.u64_field("count", *count);
            }
            TraceEvent::MckpSolved {
                classes,
                items,
                exact,
            } => {
                w.u64_field("classes", *classes);
                w.u64_field("items", *items);
                w.bool_field("exact", *exact);
            }
            TraceEvent::JobCommitted {
                job,
                start,
                finish,
                cost,
            } => {
                w.u64_field("job", *job);
                w.i64_field("start", *start);
                w.i64_field("finish", *finish);
                w.f64_field("cost", *cost);
            }
            TraceEvent::JobDeferred { job } => {
                w.u64_field("job", *job);
            }
            TraceEvent::CycleStarted { cycle, pending } => {
                w.u64_field("cycle", *cycle);
                w.u64_field("pending", *pending);
            }
            TraceEvent::CycleFinished {
                cycle,
                scheduled,
                spent,
            } => {
                w.u64_field("cycle", *cycle);
                w.u64_field("scheduled", *scheduled);
                w.f64_field("spent", *spent);
            }
            TraceEvent::SlotRevoked {
                cycle,
                node,
                span_start,
                span_end,
            } => {
                w.u64_field("cycle", *cycle);
                w.u64_field("node", *node);
                w.i64_field("span_start", *span_start);
                w.i64_field("span_end", *span_end);
            }
            TraceEvent::NodeFailed {
                cycle,
                node,
                repair_cycles,
            } => {
                w.u64_field("cycle", *cycle);
                w.u64_field("node", *node);
                w.u64_field("repair_cycles", *repair_cycles);
            }
            TraceEvent::NodeRestored { cycle, node } => {
                w.u64_field("cycle", *cycle);
                w.u64_field("node", *node);
            }
            TraceEvent::NodeDegraded {
                cycle,
                node,
                from_rate,
                to_rate,
            } => {
                w.u64_field("cycle", *cycle);
                w.u64_field("node", *node);
                w.u64_field("from_rate", *from_rate);
                w.u64_field("to_rate", *to_rate);
            }
            TraceEvent::WindowAudited { job, survived } => {
                w.u64_field("job", *job);
                w.bool_field("survived", *survived);
            }
            TraceEvent::JobRescued { cycle, job, via } => {
                w.u64_field("cycle", *cycle);
                w.u64_field("job", *job);
                w.str_field("via", via);
            }
            TraceEvent::JobLost { cycle, job } => {
                w.u64_field("cycle", *cycle);
                w.u64_field("job", *job);
            }
            TraceEvent::JobParked {
                cycle,
                job,
                eligible_at,
            } => {
                w.u64_field("cycle", *cycle);
                w.u64_field("job", *job);
                w.u64_field("eligible_at", *eligible_at);
            }
            TraceEvent::JobReadmitted { cycle, job } => {
                w.u64_field("cycle", *cycle);
                w.u64_field("job", *job);
            }
        }
        w.finish()
    }

    /// Decodes one JSONL line back into an event.
    ///
    /// The inverse of [`TraceEvent::to_json_line`]: for every event `e`,
    /// `from_json_line(&e.to_json_line()) == Ok(e)` — the round-trip
    /// property tested in this crate and in `slotsel-sim`.
    pub fn from_json_line(line: &str) -> Result<TraceEvent, EventDecodeError> {
        let o = crate::json::parse_object(line)?;
        let kind = str_of(&o, "type")?;
        let event = match kind.as_str() {
            "count" => TraceEvent::Count {
                name: str_of(&o, "name")?,
                delta: u64_of(&o, "delta")?,
            },
            "sample" => TraceEvent::Sample {
                name: str_of(&o, "name")?,
                value: f64_of(&o, "value")?,
            },
            "timing" => TraceEvent::Timing {
                name: str_of(&o, "name")?,
                nanos: u64_of(&o, "nanos")?,
            },
            "scan_started" => TraceEvent::ScanStarted {
                policy: str_of(&o, "policy")?,
                nodes_requested: u64_of(&o, "nodes_requested")?,
                slots_total: u64_of(&o, "slots_total")?,
            },
            "best_updated" => TraceEvent::BestUpdated {
                policy: str_of(&o, "policy")?,
                step: u64_of(&o, "step")?,
                window_start: i64_of(&o, "window_start")?,
                score: f64_of(&o, "score")?,
            },
            "scan_finished" => TraceEvent::ScanFinished {
                policy: str_of(&o, "policy")?,
                slots_admitted: u64_of(&o, "slots_admitted")?,
                slots_rejected: u64_of(&o, "slots_rejected")?,
                windows_evaluated: u64_of(&o, "windows_evaluated")?,
                peak_alive: u64_of(&o, "peak_alive")?,
                // Added after the PR 9 pruned scans; absent in older traces.
                subtrees_skipped: u64_or_zero(&o, "subtrees_skipped")?,
                windows_jumped: u64_or_zero(&o, "windows_jumped")?,
                found: bool_of(&o, "found")?,
                best_score: f64_of(&o, "best_score")?,
            },
            "batch_started" => TraceEvent::BatchStarted {
                jobs: u64_of(&o, "jobs")?,
            },
            "alternatives_found" => TraceEvent::AlternativesFound {
                job: u64_of(&o, "job")?,
                count: u64_of(&o, "count")?,
            },
            "mckp_solved" => TraceEvent::MckpSolved {
                classes: u64_of(&o, "classes")?,
                items: u64_of(&o, "items")?,
                exact: bool_of(&o, "exact")?,
            },
            "job_committed" => TraceEvent::JobCommitted {
                job: u64_of(&o, "job")?,
                start: i64_of(&o, "start")?,
                finish: i64_of(&o, "finish")?,
                cost: f64_of(&o, "cost")?,
            },
            "job_deferred" => TraceEvent::JobDeferred {
                job: u64_of(&o, "job")?,
            },
            "cycle_started" => TraceEvent::CycleStarted {
                cycle: u64_of(&o, "cycle")?,
                pending: u64_of(&o, "pending")?,
            },
            "cycle_finished" => TraceEvent::CycleFinished {
                cycle: u64_of(&o, "cycle")?,
                scheduled: u64_of(&o, "scheduled")?,
                spent: f64_of(&o, "spent")?,
            },
            "slot_revoked" => TraceEvent::SlotRevoked {
                cycle: u64_of(&o, "cycle")?,
                node: u64_of(&o, "node")?,
                span_start: i64_of(&o, "span_start")?,
                span_end: i64_of(&o, "span_end")?,
            },
            "node_failed" => TraceEvent::NodeFailed {
                cycle: u64_of(&o, "cycle")?,
                node: u64_of(&o, "node")?,
                repair_cycles: u64_of(&o, "repair_cycles")?,
            },
            "node_restored" => TraceEvent::NodeRestored {
                cycle: u64_of(&o, "cycle")?,
                node: u64_of(&o, "node")?,
            },
            "node_degraded" => TraceEvent::NodeDegraded {
                cycle: u64_of(&o, "cycle")?,
                node: u64_of(&o, "node")?,
                from_rate: u64_of(&o, "from_rate")?,
                to_rate: u64_of(&o, "to_rate")?,
            },
            "window_audited" => TraceEvent::WindowAudited {
                job: u64_of(&o, "job")?,
                survived: bool_of(&o, "survived")?,
            },
            "job_rescued" => TraceEvent::JobRescued {
                cycle: u64_of(&o, "cycle")?,
                job: u64_of(&o, "job")?,
                via: str_of(&o, "via")?,
            },
            "job_lost" => TraceEvent::JobLost {
                cycle: u64_of(&o, "cycle")?,
                job: u64_of(&o, "job")?,
            },
            "job_parked" => TraceEvent::JobParked {
                cycle: u64_of(&o, "cycle")?,
                job: u64_of(&o, "job")?,
                eligible_at: u64_of(&o, "eligible_at")?,
            },
            "job_readmitted" => TraceEvent::JobReadmitted {
                cycle: u64_of(&o, "cycle")?,
                job: u64_of(&o, "job")?,
            },
            other => {
                return Err(EventDecodeError::Schema(format!(
                    "unknown event type '{other}'"
                )))
            }
        };
        Ok(event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One exemplar per variant, used by the exhaustive round-trip test.
    pub(crate) fn exemplars() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Count {
                name: "aep.slots_rejected".into(),
                delta: 3,
            },
            TraceEvent::Sample {
                name: "aep.alive".into(),
                value: 17.5,
            },
            TraceEvent::Timing {
                name: "batch.phase1".into(),
                nanos: 1_234_567,
            },
            TraceEvent::ScanStarted {
                policy: "MinCost".into(),
                nodes_requested: 5,
                slots_total: 409,
            },
            TraceEvent::BestUpdated {
                policy: "MinCost".into(),
                step: 12,
                window_start: -3,
                score: 1069.25,
            },
            TraceEvent::ScanFinished {
                policy: "MinCost".into(),
                slots_admitted: 400,
                slots_rejected: 9,
                windows_evaluated: 396,
                peak_alive: 98,
                subtrees_skipped: 41,
                windows_jumped: 17,
                found: true,
                best_score: 1069.25,
            },
            TraceEvent::BatchStarted { jobs: 6 },
            TraceEvent::AlternativesFound { job: 4, count: 16 },
            TraceEvent::MckpSolved {
                classes: 6,
                items: 96,
                exact: true,
            },
            TraceEvent::JobCommitted {
                job: 4,
                start: 0,
                finish: 55,
                cost: 740.5,
            },
            TraceEvent::JobDeferred { job: 2 },
            TraceEvent::CycleStarted {
                cycle: 7,
                pending: 4,
            },
            TraceEvent::CycleFinished {
                cycle: 7,
                scheduled: 3,
                spent: 4321.0,
            },
            TraceEvent::SlotRevoked {
                cycle: 7,
                node: 3,
                span_start: 100,
                span_end: 220,
            },
            TraceEvent::NodeFailed {
                cycle: 7,
                node: 5,
                repair_cycles: 2,
            },
            TraceEvent::NodeRestored { cycle: 9, node: 5 },
            TraceEvent::NodeDegraded {
                cycle: 7,
                node: 1,
                from_rate: 8,
                to_rate: 4,
            },
            TraceEvent::WindowAudited {
                job: 4,
                survived: false,
            },
            TraceEvent::JobRescued {
                cycle: 8,
                job: 4,
                via: "migrate".into(),
            },
            TraceEvent::JobLost { cycle: 8, job: 2 },
            TraceEvent::JobParked {
                cycle: 7,
                job: 4,
                eligible_at: 9,
            },
            TraceEvent::JobReadmitted { cycle: 9, job: 4 },
        ]
    }

    #[test]
    fn every_variant_round_trips() {
        for event in exemplars() {
            let line = event.to_json_line();
            let back = TraceEvent::from_json_line(&line)
                .unwrap_or_else(|e| panic!("decoding {line}: {e}"));
            assert_eq!(back, event, "line: {line}");
        }
    }

    #[test]
    fn serialization_is_stable() {
        // The wire format is a contract (docs/OBSERVABILITY.md): changing
        // it must be a conscious, documented act that fails this test.
        let event = TraceEvent::ScanFinished {
            policy: "AMP".into(),
            slots_admitted: 10,
            slots_rejected: 2,
            windows_evaluated: 6,
            peak_alive: 8,
            subtrees_skipped: 3,
            windows_jumped: 1,
            found: true,
            best_score: 0.0,
        };
        assert_eq!(
            event.to_json_line(),
            r#"{"type":"scan_finished","policy":"AMP","slots_admitted":10,"slots_rejected":2,"windows_evaluated":6,"peak_alive":8,"subtrees_skipped":3,"windows_jumped":1,"found":true,"best_score":0}"#
        );
    }

    #[test]
    fn scan_finished_tolerates_traces_without_pruning_tallies() {
        // Traces recorded before the pruned-scan counters joined the
        // variant must still decode, with the tallies defaulting to 0.
        let line = r#"{"type":"scan_finished","policy":"AMP","slots_admitted":10,"slots_rejected":2,"windows_evaluated":6,"peak_alive":8,"found":true,"best_score":0}"#;
        let event = TraceEvent::from_json_line(line).expect("old trace decodes");
        match event {
            TraceEvent::ScanFinished {
                subtrees_skipped,
                windows_jumped,
                ..
            } => {
                assert_eq!(subtrees_skipped, 0);
                assert_eq!(windows_jumped, 0);
            }
            other => panic!("unexpected variant: {other:?}"),
        }
    }

    #[test]
    fn unknown_type_is_rejected() {
        let err = TraceEvent::from_json_line(r#"{"type":"warp_drive"}"#).unwrap_err();
        assert!(matches!(err, EventDecodeError::Schema(_)));
    }

    #[test]
    fn missing_and_mistyped_fields_are_rejected() {
        assert!(TraceEvent::from_json_line(r#"{"type":"count","name":"x"}"#).is_err());
        assert!(
            TraceEvent::from_json_line(r#"{"type":"count","name":"x","delta":-1}"#).is_err(),
            "negative delta is not a u64"
        );
        assert!(
            TraceEvent::from_json_line(r#"{"type":"count","name":"x","delta":1.5}"#).is_err(),
            "fractional delta is not a u64"
        );
        assert!(
            TraceEvent::from_json_line(r#"{"type":"job_lost","cycle":"one","job":1}"#).is_err()
        );
    }
}
