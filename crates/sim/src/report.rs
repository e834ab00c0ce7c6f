//! Plain-text rendering of the paper's tables and figures.
//!
//! The studies of `slotsel-bench` (run by its `reproduce` binary) print
//! the same rows/series the paper reports:
//! aligned tables for Tables 1–2 and horizontal ASCII bar charts for
//! Figures 2–6, each bar annotated with the measured value and, where the
//! paper prints one, the reference value.

use std::fmt::Write as _;

use crate::metrics::MetricsAccumulator;
use crate::quality::QualityResults;
use crate::scaling::{ScalingPoint, TIMED_ALGORITHMS};
use slotsel_core::criteria::Criterion;

/// Maximum bar width in characters.
const BAR_WIDTH: usize = 42;

/// Renders an aligned table: a header row and data rows, columns padded to
/// the widest cell.
///
/// # Panics
///
/// Panics if a row's width differs from the header's.
#[must_use]
pub fn render_table(header: &[String], rows: &[Vec<String>]) -> String {
    for row in rows {
        assert_eq!(row.len(), header.len(), "ragged table row {row:?}");
    }
    let mut widths: Vec<usize> = header.iter().map(String::len).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let render_row = |out: &mut String, row: &[String]| {
        for (i, (cell, width)) in row.iter().zip(&widths).enumerate() {
            if i == 0 {
                let _ = write!(out, "{cell:<width$}");
            } else {
                let _ = write!(out, "  {cell:>width$}");
            }
        }
        out.push('\n');
    };
    render_row(&mut out, header);
    let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
    let _ = writeln!(out, "{}", "-".repeat(total));
    for row in rows {
        render_row(&mut out, row);
    }
    out
}

/// Renders a horizontal bar chart of labelled values (one figure panel).
///
/// Bars are scaled to the maximum value; each line shows the label, the
/// bar, and the numeric value. Values print with one decimal, unless the
/// smallest nonzero one is below 1: then with as many as give it three
/// significant digits.
#[must_use]
pub fn render_bars(title: &str, series: &[(String, f64)]) -> String {
    let mut out = format!("{title}\n");
    let max = series.iter().map(|&(_, v)| v).fold(0.0_f64, f64::max);
    let smallest = (series.iter().map(|&(_, v)| v))
        .filter(|&v| v > 0.0)
        .fold(f64::INFINITY, f64::min);
    let decimals = if smallest < 1.0 {
        (2.0 - smallest.log10().floor()) as usize
    } else {
        1
    };
    let label_width = series.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    for (label, value) in series {
        let filled = if max > 0.0 {
            ((value / max) * BAR_WIDTH as f64).round() as usize
        } else {
            0
        };
        let _ = writeln!(
            out,
            "  {label:<label_width$}  {}{}  {value:8.decimals$}",
            "#".repeat(filled),
            " ".repeat(BAR_WIDTH - filled.min(BAR_WIDTH)),
        );
    }
    out
}

/// Extracts one figure's series (a metric across algorithms, CSA last) from
/// quality results.
///
/// `metric` picks the window quantity; the CSA value is taken from the
/// alternative extreme by `csa_criterion` — e.g. Figure 2(b) plots runtimes
/// and CSA's best-runtime alternative.
#[must_use]
pub fn quality_series(
    results: &QualityResults,
    metric: fn(&MetricsAccumulator) -> f64,
    csa_criterion: Criterion,
) -> Vec<(String, f64)> {
    let mut series: Vec<(String, f64)> = results
        .algorithms
        .iter()
        .map(|(name, acc)| (name.clone(), metric(acc)))
        .collect();
    if let Some(csa) = results.csa(csa_criterion) {
        series.push(("CSA".to_owned(), metric(csa)));
    }
    series
}

/// Renders a Table 1/2-shaped timing table from sweep points.
///
/// `parameter_label` names the varied quantity (e.g. `"CPU nodes number"`).
#[must_use]
pub fn render_scaling_table(
    parameter_label: &str,
    points: &[ScalingPoint],
    with_slots: bool,
) -> String {
    let mut header = vec![format!("{parameter_label}:")];
    for point in points {
        header.push(point.parameter.to_string());
    }
    let mut rows = Vec::new();
    if with_slots {
        let mut row = vec!["Number of slots:".to_owned()];
        row.extend(points.iter().map(|p| format!("{:.1}", p.slots.mean())));
        rows.push(row);
    }
    let mut row = vec!["CSA: Alternatives Num".to_owned()];
    row.extend(
        points
            .iter()
            .map(|p| format!("{:.1}", p.csa_alternatives.mean())),
    );
    rows.push(row);
    let mut row = vec!["CSA per Alt".to_owned()];
    row.extend(
        points
            .iter()
            .map(|p| format!("{:.3}", p.csa_per_alternative_ms)),
    );
    rows.push(row);
    for name in TIMED_ALGORITHMS {
        let mut row = vec![name.to_owned()];
        row.extend(
            points
                .iter()
                .map(|p| format!("{:.4}", p.mean_ms(name).unwrap_or(0.0))),
        );
        rows.push(row);
    }
    render_table(&header, &rows)
}

/// Renders Figures 5/6: per-algorithm working time against the sweep
/// parameter, as one series block per algorithm (CSA excluded, as in the
/// paper's Figure 5 note).
#[must_use]
pub fn render_scaling_series(parameter_label: &str, points: &[ScalingPoint]) -> String {
    let mut out = String::new();
    for name in TIMED_ALGORITHMS.iter().filter(|&&n| n != "CSA") {
        let series: Vec<(String, f64)> = points
            .iter()
            .map(|p| {
                (
                    format!("{} {}", parameter_label, p.parameter),
                    p.mean_ms(name).unwrap_or(0.0),
                )
            })
            .collect();
        out.push_str(&render_bars(&format!("{name} working time, ms"), &series));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::RunningStats;

    fn stats_of(values: &[f64]) -> RunningStats {
        let mut s = RunningStats::new();
        for &v in values {
            s.push(v);
        }
        s
    }

    #[test]
    fn table_is_aligned() {
        let table = render_table(
            &["A".into(), "B".into()],
            &[
                vec!["row1".into(), "1".into()],
                vec!["longer-row".into(), "22.5".into()],
            ],
        );
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4);
        let width = lines[0].len();
        assert!(lines.iter().skip(2).all(|l| l.len() == width), "{table}");
        assert!(lines[2].starts_with("row1"));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn table_rejects_ragged_rows() {
        let _ = render_table(&["A".into()], &[vec!["1".into(), "2".into()]]);
    }

    #[test]
    fn bars_scale_to_max() {
        let chart = render_bars(
            "demo",
            &[
                ("full".into(), 10.0),
                ("half".into(), 5.0),
                ("zero".into(), 0.0),
            ],
        );
        let lines: Vec<&str> = chart.lines().collect();
        let hashes = |s: &str| s.matches('#').count();
        assert_eq!(hashes(lines[1]), BAR_WIDTH);
        assert_eq!(hashes(lines[2]), BAR_WIDTH / 2);
        assert_eq!(hashes(lines[3]), 0);
        assert!(lines[1].ends_with("  10.0"), "{chart}");
        // Sub-unit values keep three significant digits, and the series
        // shares their decimals.
        let chart = render_bars("ms", &[("AMP".into(), 0.0345), ("CSA".into(), 12.5)]);
        let lines: Vec<&str> = chart.lines().collect();
        assert!(lines[1].ends_with("  0.0345"), "{chart}");
        assert!(lines[2].ends_with(" 12.5000"), "{chart}");
    }

    #[test]
    fn bars_handle_all_zero_series() {
        let chart = render_bars("demo", &[("a".into(), 0.0)]);
        assert!(chart.contains("0.0"));
    }

    #[test]
    fn scaling_table_contains_all_rows() {
        let point = ScalingPoint {
            parameter: 100,
            slots: stats_of(&[470.0]),
            csa_alternatives: stats_of(&[57.0]),
            timings_ms: TIMED_ALGORITHMS
                .iter()
                .map(|&n| (n.to_owned(), stats_of(&[1.0])))
                .collect(),
            csa_per_alternative_ms: 0.9,
        };
        let table = render_scaling_table("CPU nodes number", std::slice::from_ref(&point), false);
        for name in TIMED_ALGORITHMS {
            assert!(table.contains(name), "missing row {name}\n{table}");
        }
        assert!(!table.contains("Number of slots"));
        let with_slots = render_scaling_table("Scheduling interval length", &[point], true);
        assert!(with_slots.contains("Number of slots"));
        assert!(with_slots.contains("470.0"));
    }

    #[test]
    fn scaling_series_skips_csa() {
        let point = ScalingPoint {
            parameter: 50,
            slots: stats_of(&[200.0]),
            csa_alternatives: stats_of(&[20.0]),
            timings_ms: TIMED_ALGORITHMS
                .iter()
                .map(|&n| (n.to_owned(), stats_of(&[2.0])))
                .collect(),
            csa_per_alternative_ms: 0.5,
        };
        let out = render_scaling_series("nodes", &[point]);
        assert!(!out.contains("CSA working time"));
        assert!(out.contains("AMP working time"));
    }
}
