//! Chrome trace-event JSON export and validation for span trees.
//!
//! [`render`] turns [`SpanRecord`] groups into the Trace Event Format
//! that Perfetto and `about://tracing` load directly: one *process* per
//! group (the live daemon maps a scheduling cycle to a pid), one *thread*
//! per track (shard `s` runs on track `s + 1`, the coordinator on 0),
//! `"X"` complete events for spans and `"i"` instant events for point
//! marks. Span attributes travel in `args`, alongside the span's own
//! `id`/`parent` links so the tree survives the flat encoding.
//!
//! Both directions go through the crate's [`crate::json`] module: each
//! event is an [`ObjectWriter`] with its `args` nested by
//! [`ObjectWriter::object_field`], and [`validate`] reads the document
//! back with the crate's one reader ([`parse`], re-exported here with its
//! [`Value`]) before checking the span tree: every parent exists,
//! children nest inside their parents, same-track spans form a proper
//! stack. The test suites and the CI `chrome-check` step share it.

use std::collections::{BTreeMap, BTreeSet};

use crate::json::ObjectWriter;
pub use crate::json::{parse, Value};
use crate::span::SpanRecord;

/// Renders `(group id, spans)` pairs as a Chrome trace-event JSON
/// document. Group ids become pids (the live daemon passes cycle
/// numbers), tracks become tids.
#[must_use]
pub fn render(groups: &[(u64, &[SpanRecord])]) -> String {
    let mut document = String::from("{\"traceEvents\":[");
    let mut push = |event: ObjectWriter| {
        // Only the first event follows the array's `[`.
        if !document.ends_with('[') {
            document.push(',');
        }
        document.push_str(&event.finish());
    };

    // Metadata: name each process and thread so the viewer's sidebar
    // reads "cycle 12 / shard 1" instead of bare numbers.
    let tracks: BTreeSet<(u64, u32)> = groups
        .iter()
        .flat_map(|(pid, records)| records.iter().map(move |r| (*pid, r.track)))
        .collect();
    let mut seen_pid = None;
    for &(pid, tid) in &tracks {
        if seen_pid != Some(pid) {
            seen_pid = Some(pid);
            push(metadata("process_name", pid, 0, &format!("cycle {pid}")));
        }
        let label = if tid == 0 {
            "main".to_owned()
        } else {
            format!("track {tid}")
        };
        push(metadata("thread_name", pid, tid, &label));
    }

    for (pid, records) in groups {
        for record in *records {
            let mut args = ObjectWriter::new();
            args.u64_field("id", record.id.0);
            args.u64_field("parent", record.parent.0);
            for (name, value) in &record.attrs {
                value.write_field(name, &mut args);
            }
            let mut event = ObjectWriter::new();
            event.str_field("name", &record.name);
            event.str_field("ph", if record.instant { "i" } else { "X" });
            event.u64_field("ts", record.start_us);
            if !record.instant {
                event.u64_field("dur", record.duration_us());
            }
            event.u64_field("pid", *pid);
            event.u64_field("tid", u64::from(record.track));
            if record.instant {
                event.str_field("s", "t");
            }
            event.object_field("args", args);
            push(event);
        }
    }
    document.push_str("],\"displayTimeUnit\":\"ms\"}");
    document
}

/// One `"M"` event naming a process or thread.
fn metadata(kind: &str, pid: u64, tid: u32, label: &str) -> ObjectWriter {
    let mut args = ObjectWriter::new();
    args.str_field("name", label);
    let mut event = ObjectWriter::new();
    event.str_field("name", kind);
    event.str_field("ph", "M");
    event.u64_field("pid", pid);
    event.u64_field("tid", u64::from(tid));
    event.object_field("args", args);
    event
}

/// What [`validate`] verified about a trace document.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total events including metadata.
    pub events: usize,
    /// `"X"` complete (duration) events.
    pub spans: usize,
    /// `"i"` instant events.
    pub instants: usize,
    /// Distinct pids (cycles).
    pub processes: usize,
    /// Distinct (pid, tid) tracks.
    pub tracks: usize,
}

/// Parses and structurally validates a Chrome trace-event document:
///
/// 1. the document is an object with a `traceEvents` array, every event
///    carrying `name`/`ph`/`pid`/`tid` (plus `ts` and, for `"X"`, `dur`);
/// 2. every span's `args.parent` (when non-zero) names an `args.id` that
///    exists within the same pid;
/// 3. every child's interval lies within its parent's;
/// 4. spans sharing a (pid, tid) track are properly nested — they form a
///    stack, never partially overlapping (shard tracks are disjoint lanes).
///
/// # Errors
///
/// Returns the first violation, described.
pub fn validate(text: &str) -> Result<TraceSummary, String> {
    let document = parse(text)?;
    let events = document
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or("document has no traceEvents array")?;

    let mut summary = TraceSummary {
        events: events.len(),
        ..TraceSummary::default()
    };
    // (pid, id) -> (ts, end); parent links never cross pids.
    let mut spans: BTreeMap<(u64, u64), (f64, f64)> = BTreeMap::new();
    let mut parents: Vec<(u64, u64, f64, f64)> = Vec::new(); // (pid, parent, ts, end)
    let mut by_track: BTreeMap<(u64, u64), Vec<(f64, f64)>> = BTreeMap::new();
    let mut pids: BTreeMap<u64, ()> = BTreeMap::new();

    for (index, event) in events.iter().enumerate() {
        let field_num = |key: &str| -> Result<f64, String> {
            event
                .get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("event {index}: missing numeric {key:?}"))
        };
        let ph = event
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {index}: missing ph"))?;
        event
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {index}: missing name"))?;
        let pid = field_num("pid")? as u64;
        let tid = field_num("tid")? as u64;
        pids.entry(pid).or_insert(());
        match ph {
            "M" => {}
            "i" => {
                summary.instants += 1;
                field_num("ts")?;
            }
            "X" => {
                summary.spans += 1;
                let ts = field_num("ts")?;
                let dur = field_num("dur")?;
                if ts < 0.0 || dur < 0.0 {
                    return Err(format!("event {index}: negative ts/dur"));
                }
                let args = event
                    .get("args")
                    .ok_or_else(|| format!("event {index}: span has no args"))?;
                let id = args
                    .get("id")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("event {index}: span has no args.id"))?
                    as u64;
                let parent = args.get("parent").and_then(Value::as_f64).unwrap_or(0.0) as u64;
                if spans.insert((pid, id), (ts, ts + dur)).is_some() {
                    return Err(format!(
                        "event {index}: duplicate span id {id} in pid {pid}"
                    ));
                }
                if parent != 0 {
                    parents.push((pid, parent, ts, ts + dur));
                }
                by_track.entry((pid, tid)).or_default().push((ts, ts + dur));
            }
            other => return Err(format!("event {index}: unknown ph {other:?}")),
        }
    }
    summary.processes = pids.len();
    summary.tracks = by_track.len();

    // 2 + 3: parents exist (within the pid) and contain their children.
    for (pid, parent, ts, end) in parents {
        let Some(&(parent_ts, parent_end)) = spans.get(&(pid, parent)) else {
            return Err(format!("span parent {parent} missing in pid {pid}"));
        };
        if ts < parent_ts || end > parent_end {
            return Err(format!(
                "child [{ts}, {end}] escapes parent {parent} [{parent_ts}, {parent_end}] \
                 in pid {pid}"
            ));
        }
    }

    // 4: per-track laminarity — sort by (start, -length); each span must
    // nest inside or fall after every open ancestor.
    for ((pid, tid), mut intervals) in by_track {
        intervals.sort_by(|a, b| {
            a.0.total_cmp(&b.0)
                .then((b.1 - b.0).total_cmp(&(a.1 - a.0)))
        });
        let mut stack: Vec<(f64, f64)> = Vec::new();
        for (ts, end) in intervals {
            while let Some(&(_, open_end)) = stack.last() {
                if ts >= open_end {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&(_, open_end)) = stack.last() {
                if end > open_end {
                    return Err(format!(
                        "track ({pid}, {tid}): span [{ts}, {end}] partially overlaps \
                         an open span ending at {open_end}"
                    ));
                }
            }
            stack.push((ts, end));
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{MemorySpanSink, SpanSink};

    fn sample_records() -> Vec<SpanRecord> {
        let mut sink = MemorySpanSink::new();
        let root = sink.open("serve.cycle");
        sink.attr_u64("cycle", 3);
        let schedule = sink.open("batch.schedule");
        sink.attr_str("policy", "AMP");
        sink.instant("mckp.solved");
        sink.close(schedule);
        let commit = sink.open("serve.commit");
        sink.close(commit);
        sink.close(root);
        sink.take_records()
    }

    #[test]
    fn render_produces_valid_nested_chrome_json() {
        let records = sample_records();
        let text = render(&[(3, &records)]);
        let summary = validate(&text).expect("valid trace");
        assert_eq!(summary.spans, 3);
        assert_eq!(summary.instants, 1);
        assert_eq!(summary.processes, 1);
        // Attributes and links survive the round trip.
        let document = parse(&text).unwrap();
        let events = document.get("traceEvents").unwrap().as_array().unwrap();
        let schedule = events
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("batch.schedule"))
            .expect("schedule span present");
        assert_eq!(
            schedule
                .get("args")
                .unwrap()
                .get("policy")
                .unwrap()
                .as_str(),
            Some("AMP")
        );
        assert_eq!(
            schedule
                .get("args")
                .unwrap()
                .get("parent")
                .unwrap()
                .as_f64(),
            Some(1.0)
        );
    }

    #[test]
    fn render_separates_groups_into_processes_and_tracks() {
        let records_a = sample_records();
        let mut sink = MemorySpanSink::new();
        sink.set_track(2);
        let id = sink.open("serve.shard");
        sink.close(id);
        let records_b = sink.take_records();
        let text = render(&[(1, &records_a), (2, &records_b)]);
        let summary = validate(&text).expect("valid trace");
        assert_eq!(summary.processes, 2);
        assert!(text.contains("\"cycle 1\""));
        assert!(text.contains("\"cycle 2\""));
        assert!(text.contains("\"track 2\""));
    }

    #[test]
    fn names_and_attrs_are_escaped() {
        let mut sink = MemorySpanSink::new();
        let id = sink.open("weird");
        sink.attr_str("note", "a \"quoted\"\nline\\");
        sink.close(id);
        let records = sink.take_records();
        let text = render(&[(0, &records)]);
        let summary = validate(&text).expect("escaped trace still parses");
        assert_eq!(summary.spans, 1);
        let document = parse(&text).unwrap();
        let events = document.get("traceEvents").unwrap().as_array().unwrap();
        let span = events
            .iter()
            .find(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .unwrap();
        assert_eq!(
            span.get("args").unwrap().get("note").unwrap().as_str(),
            Some("a \"quoted\"\nline\\")
        );
    }

    #[test]
    fn validate_rejects_a_missing_parent() {
        let text = "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"X\",\"ts\":0,\"dur\":5,\
                    \"pid\":0,\"tid\":0,\"args\":{\"id\":2,\"parent\":1}}]}";
        let error = validate(text).unwrap_err();
        assert!(error.contains("parent 1 missing"), "{error}");
    }

    #[test]
    fn validate_rejects_a_child_escaping_its_parent() {
        let text = "{\"traceEvents\":[\
            {\"name\":\"p\",\"ph\":\"X\",\"ts\":0,\"dur\":5,\"pid\":0,\"tid\":0,\
             \"args\":{\"id\":1,\"parent\":0}},\
            {\"name\":\"c\",\"ph\":\"X\",\"ts\":3,\"dur\":5,\"pid\":0,\"tid\":1,\
             \"args\":{\"id\":2,\"parent\":1}}]}";
        let error = validate(text).unwrap_err();
        assert!(error.contains("escapes parent"), "{error}");
    }

    #[test]
    fn validate_rejects_partial_overlap_on_one_track() {
        let text = "{\"traceEvents\":[\
            {\"name\":\"a\",\"ph\":\"X\",\"ts\":0,\"dur\":5,\"pid\":0,\"tid\":1,\
             \"args\":{\"id\":1,\"parent\":0}},\
            {\"name\":\"b\",\"ph\":\"X\",\"ts\":3,\"dur\":5,\"pid\":0,\"tid\":1,\
             \"args\":{\"id\":2,\"parent\":0}}]}";
        let error = validate(text).unwrap_err();
        assert!(error.contains("partially overlaps"), "{error}");
    }

    #[test]
    fn validate_rejects_malformed_documents() {
        assert!(validate("not json").is_err());
        assert!(validate("{\"noTraceEvents\":[]}").is_err());
        assert!(validate("{\"traceEvents\":[{\"ph\":\"X\"}]}").is_err());
    }
}
