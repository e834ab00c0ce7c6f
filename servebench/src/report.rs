//! Metric definitions and the result line.

use std::fmt::Write as _;

use crate::live::LiveRun;
use crate::stats::{median, percentile, sorted, tail};
use crate::workload::{Kind, Submits, Workload};

/// One reported metric. `None` means the sample cannot support it (too
/// few samples beyond a tail percentile); it prints as `null`.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// Its value.
    pub value: Option<f64>,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, unit: &'static str, value: Option<f64>) -> Self {
        Metric { name, unit, value }
    }
}

fn is_submit(kind: &Kind) -> bool {
    matches!(kind, Kind::Submit { .. })
}

fn is_read(kind: &Kind) -> bool {
    matches!(kind, Kind::ReadJob { .. } | Kind::ReadTenants)
}

fn is_probe(kind: &Kind) -> bool {
    *kind == Kind::Healthz
}

/// The end-to-end metrics of an untraced run, the ones `BENCHMARK.json`
/// gates: what a tenant waits for (commit), and what an operator pays in
/// start-up time, memory and disk. Commit latency is paced by the
/// daemon's 50 ms cycle, so it moves with the code more than with the
/// host; sub-millisecond ack and read latencies move with the host's
/// scheduling noise and are only printed (see [`extras`]).
pub fn end_to_end(run: &LiveRun) -> Vec<Metric> {
    let commits = sorted(run.commit_ms.clone());
    vec![
        Metric::new("setup_s", "s", median(&sorted(run.setup_s.clone()))),
        Metric::new("commit_p50_ms", "ms", percentile(&commits, 0.5)),
        Metric::new("commit_p95_ms", "ms", tail(&commits, 0.95)),
        Metric::new("peak_rss_mb", "MB", Some(run.peak_rss_mb)),
        Metric::new("journal_mb", "MB", Some(run.journal_mb)),
    ]
}

/// The per-layer metrics a traced run takes from the real run: the HTTP
/// accept loop's probe and the generator's own lateness.
pub fn live_layers(run: &LiveRun) -> Vec<Metric> {
    let probes = sorted(run.latencies(is_probe));
    let lag = sorted(run.samples.iter().map(|s| s.lag_ms()).collect());
    vec![
        Metric::new("http.healthz_p50_ms", "ms", percentile(&probes, 0.5)),
        Metric::new("http.healthz_p90_ms", "ms", tail(&probes, 0.9)),
        Metric::new("bench.gen_lag_p90_ms", "ms", tail(&lag, 0.9)),
    ]
}

/// Measurements outside `BENCHMARK.json`, printed and saved with `--out`
/// but not gated: ack and read latencies, the tails (each withheld unless
/// ten samples lie beyond it), the shares behind `failed`, and the
/// restart and burst numbers only some workloads have.
pub fn extras(run: &LiveRun, workload: &Workload) -> Vec<Metric> {
    let acks = sorted(run.latencies(is_submit));
    let reads = sorted(run.latencies(is_read));
    let commits = sorted(run.commit_ms.clone());
    let share = |part: usize, whole: usize| (whole > 0).then(|| part as f64 / whole as f64);
    let mut extras = vec![
        Metric::new("ack_p50_ms", "ms", percentile(&acks, 0.5)),
        Metric::new("ack_p95_ms", "ms", tail(&acks, 0.95)),
        Metric::new("ack_p99_ms", "ms", tail(&acks, 0.99)),
        Metric::new("read_p50_ms", "ms", percentile(&reads, 0.5)),
        Metric::new("read_p95_ms", "ms", tail(&reads, 0.95)),
        Metric::new("read_p99_ms", "ms", tail(&reads, 0.99)),
        Metric::new("commit_p99_ms", "ms", tail(&commits, 0.99)),
        Metric::new(
            "failed_share",
            "ratio",
            share(run.failed(), run.samples.len()),
        ),
        Metric::new(
            "uncommitted_share",
            "ratio",
            share(run.uncommitted, acks.len()),
        ),
    ];
    if workload.restart_after_acks.is_some() {
        extras.push(Metric::new("recover_s", "s", run.recover_s));
    }
    if matches!(workload.submits, Submits::Bursts { .. }) {
        extras.push(Metric::new("burst_ack_rps", "1/s", run.burst_ack_rps()));
    }
    extras
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
pub fn json_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_object(metrics)
    )
}

/// Metrics as a JSON object: `{"name": {"value": v, "unit": "u"}, …}`.
pub fn json_object(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, metric) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = match metric.value {
            Some(v) if v.is_finite() => v.to_string(),
            _ => "null".to_owned(),
        };
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            metric.name, metric.unit
        );
    }
    out.push('}');
    out
}

/// Human-readable rows for standard error.
pub fn table(metrics: &[Metric]) -> String {
    let mut out = String::new();
    for metric in metrics {
        let value = metric.value.map_or_else(
            || "null (too few samples)".to_owned(),
            |v| format!("{v:.4}"),
        );
        let _ = writeln!(out, "  {:<32} {value:>14} {}", metric.name, metric.unit);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_line_carries_every_metric_and_nulls_unsupported_ones() {
        let line = json_line(
            true,
            12,
            0,
            &[
                Metric::new("ack_p50_ms", "ms", Some(1.25)),
                Metric::new("ack_p95_ms", "ms", None),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {\
             \"ack_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"ack_p95_ms\": {\"value\": null, \"unit\": \"ms\"}}}"
        );
        let parsed = slotsel_obs::chrome::parse(&line).unwrap();
        assert!(parsed.get("metrics").unwrap().get("ack_p95_ms").is_some());
    }
}
