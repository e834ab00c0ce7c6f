//! `serve-bench compare PARENT_DIR CHANGE_DIR`: judges two sets of run
//! reports (written with `--out`) metric by metric, under the bounds in
//! `BENCHMARK.json`.
//!
//! For every workload and metric it prints each side's median and
//! quartiles and a verdict:
//!
//! - **better** — the change wins at least nine tenths of the runs paired
//!   by seed (ties count for neither) and the medians differ by more than
//!   the parent's interquartile range;
//! - **worse** — the change's median is worse than the parent's by more
//!   than the metric's bound;
//! - **unresolved** — either side's spread exceeds the bound and not every
//!   run of the change beats every run of the parent;
//! - **unchanged** — otherwise.
//!
//! Metrics without a bound (the per-layer ones, and the printed extras a
//! report carries) get medians only. The command fails when any metric is
//! worse.

use std::collections::BTreeMap;
use std::path::Path;

use slotsel_obs::chrome::{parse, Value};

use crate::stats::{median, quartiles, sorted, spread};

/// A metric's gate from `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gate {
    /// Whether lower values are better.
    pub lower_is_better: bool,
    /// Allowed worsening as a share of the parent's median; `None` for a
    /// per-layer metric.
    pub bound: Option<f64>,
}

/// The verdict on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// A gain by the pairwise rule.
    Better,
    /// Worse by more than the bound: a regression.
    Worse,
    /// Too noisy to call.
    Unresolved,
    /// Within the bound.
    Unchanged,
}

/// Judges one metric from its runs keyed by seed.
pub fn judge(
    parent: &BTreeMap<u64, f64>,
    change: &BTreeMap<u64, f64>,
    lower_is_better: bool,
    bound: f64,
) -> Option<Verdict> {
    let p = sorted(parent.values().copied().collect());
    let c = sorted(change.values().copied().collect());
    let (mp, mc) = (median(&p)?, median(&c)?);
    let better = |a: f64, b: f64| if lower_is_better { a < b } else { a > b };
    let pairs: Vec<(f64, f64)> = parent
        .iter()
        .filter_map(|(seed, &pv)| Some((pv, *change.get(seed)?)))
        .collect();
    let wins = pairs.iter().filter(|&&(pv, cv)| better(cv, pv)).count();
    let (q1, q3) = quartiles(&p)?;
    if !pairs.is_empty()
        && wins * 10 >= pairs.len() * 9
        && better(mc, mp)
        && (mc - mp).abs() > q3 - q1
    {
        return Some(Verdict::Better);
    }
    let limit = mp.abs() * bound;
    let worse = if lower_is_better {
        mc > mp + limit
    } else {
        mc < mp - limit
    };
    if worse {
        return Some(Verdict::Worse);
    }
    let noisy = spread(&p).is_some_and(|s| s > bound) || spread(&c).is_some_and(|s| s > bound);
    let all_win = match (p.first(), p.last(), c.first(), c.last()) {
        (Some(&p_lo), Some(&p_hi), Some(&c_lo), Some(&c_hi)) => {
            if lower_is_better {
                c_hi < p_lo
            } else {
                c_lo > p_hi
            }
        }
        _ => false,
    };
    Some(if noisy && !all_win {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    })
}

/// Reads every metric's gate from a `BENCHMARK.json` document.
pub fn gates(benchmark: &str) -> Result<BTreeMap<String, Gate>, String> {
    let document = parse(benchmark)?;
    let mut gates = BTreeMap::new();
    for section in ["end_to_end", "per_layer"] {
        let entries = document
            .get(section)
            .and_then(Value::as_array)
            .ok_or_else(|| format!("BENCHMARK.json has no {section} list"))?;
        for entry in entries {
            let name = entry
                .get("name")
                .and_then(Value::as_str)
                .ok_or("a metric without a name")?;
            let better = entry.get("better").and_then(Value::as_str);
            gates.insert(
                name.to_owned(),
                Gate {
                    lower_is_better: better != Some("higher"),
                    bound: entry.get("bound").and_then(Value::as_f64),
                },
            );
        }
    }
    Ok(gates)
}

/// Metric values by `(workload, metric)`, then by seed.
type Runs = BTreeMap<(String, String), BTreeMap<u64, f64>>;

/// Run reports under `dir`.
fn load(dir: &Path) -> Result<Runs, String> {
    let mut values = Runs::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let report = parse(text.trim()).map_err(|e| format!("{}: {e}", path.display()))?;
        let field = |key| {
            report
                .get(key)
                .ok_or_else(|| format!("{}: no {key}", path.display()))
        };
        let workload = field("workload")?.as_str().unwrap_or_default().to_owned();
        let seed = field("seed")?.as_f64().unwrap_or_default() as u64;
        let Some(Value::Obj(metrics)) = report.get("metrics") else {
            return Err(format!("{}: no metrics object", path.display()));
        };
        let extras = match report.get("extras") {
            Some(Value::Obj(extras)) => extras.as_slice(),
            _ => &[],
        };
        for (name, metric) in metrics.iter().chain(extras) {
            if let Some(value) = metric.get("value").and_then(Value::as_f64) {
                values
                    .entry((workload.clone(), name.clone()))
                    .or_default()
                    .insert(seed, value);
            }
        }
    }
    Ok(values)
}

fn describe(values: &BTreeMap<u64, f64>) -> String {
    let sorted = sorted(values.values().copied().collect());
    match (median(&sorted), quartiles(&sorted)) {
        (Some(m), Some((q1, q3))) => format!("{m:>12.4} [{q1:.4}, {q3:.4}] n={}", sorted.len()),
        (Some(m), None) => format!("{m:>12.4} n={}", sorted.len()),
        _ => "-".to_owned(),
    }
}

/// Compares the report sets; returns whether no metric regressed.
pub fn run(parent_dir: &Path, change_dir: &Path, benchmark: &Path) -> Result<bool, String> {
    let text =
        std::fs::read_to_string(benchmark).map_err(|e| format!("{}: {e}", benchmark.display()))?;
    let gates = gates(&text)?;
    let parent = load(parent_dir)?;
    let change = load(change_dir)?;
    let mut regressions = 0;
    println!(
        "{:<9} {:<30} {:<44} {:<44} verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]"
    );
    for ((workload, metric), before) in &parent {
        let Some(after) = change.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let gate = gates.get(metric.as_str());
        let verdict = match gate.and_then(|g| Some((g.lower_is_better, g.bound?))) {
            Some((lower_is_better, bound)) => match judge(before, after, lower_is_better, bound) {
                Some(Verdict::Worse) => {
                    regressions += 1;
                    "worse"
                }
                Some(Verdict::Better) => "better",
                Some(Verdict::Unresolved) => "unresolved",
                Some(Verdict::Unchanged) => "unchanged",
                None => "-",
            },
            None => "-",
        };
        println!(
            "{workload:<9} {metric:<30} {:<44} {:<44} {verdict}",
            describe(before),
            describe(after)
        );
    }
    if regressions > 0 {
        println!("{regressions} regression(s)");
    }
    Ok(regressions == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: bool = true;

    fn runs(values: &[f64]) -> BTreeMap<u64, f64> {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u64, v))
            .collect()
    }

    #[test]
    fn verdicts_follow_the_pairing_and_bound_rules() {
        let parent = runs(&[
            100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9,
        ]);
        // Every run 20% faster: a gain.
        let faster: Vec<f64> = parent.values().map(|v| v * 0.8).collect();
        assert_eq!(
            judge(&parent, &runs(&faster), LOWER, 0.1),
            Some(Verdict::Better)
        );
        // 5% slower stays within the 10% bound.
        let slower: Vec<f64> = parent.values().map(|v| v * 1.05).collect();
        assert_eq!(
            judge(&parent, &runs(&slower), LOWER, 0.1),
            Some(Verdict::Unchanged)
        );
        // 20% slower is a regression; for a higher-is-better metric it is
        // a gain.
        let much_slower: Vec<f64> = parent.values().map(|v| v * 1.2).collect();
        assert_eq!(
            judge(&parent, &runs(&much_slower), LOWER, 0.1),
            Some(Verdict::Worse)
        );
        assert_eq!(
            judge(&parent, &runs(&much_slower), !LOWER, 0.1),
            Some(Verdict::Better)
        );
    }

    #[test]
    fn a_wide_spread_is_unresolved_unless_every_run_wins() {
        let noisy = runs(&[
            50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0,
        ]);
        let same = noisy.clone();
        assert_eq!(judge(&noisy, &same, LOWER, 0.1), Some(Verdict::Unresolved));
        let far_better = runs(&[10.0; 10]);
        assert_eq!(
            judge(&noisy, &far_better, LOWER, 0.1),
            Some(Verdict::Better)
        );
        // Only eight of ten pairs win: not a gain, and too noisy to call.
        let mostly: Vec<f64> = noisy
            .values()
            .enumerate()
            .map(|(i, v)| if i < 2 { v + 1.0 } else { v - 5.0 })
            .collect();
        assert_eq!(
            judge(&noisy, &runs(&mostly), LOWER, 0.1),
            Some(Verdict::Unresolved)
        );
    }

    #[test]
    fn gates_come_from_benchmark_json() {
        let gates = gates(
            r#"{"end_to_end": [{"name": "ack_p50_ms", "unit": "ms", "better": "lower", "bound": 0.2}],
                "per_layer": [{"name": "batch.committed_share", "unit": "ratio", "better": "higher"}]}"#,
        )
        .unwrap();
        assert_eq!(
            gates["ack_p50_ms"],
            Gate {
                lower_is_better: true,
                bound: Some(0.2)
            }
        );
        assert_eq!(
            gates["batch.committed_share"],
            Gate {
                lower_is_better: false,
                bound: None
            }
        );
    }
}
