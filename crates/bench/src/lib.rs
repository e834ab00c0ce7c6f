//! # slotsel-bench
//!
//! Regeneration harness for the paper's evaluation and the repo's
//! performance gate. The binaries:
//!
//! - `reproduce` — every table and figure of the evaluation, as the six
//!   [`study::Study`]s (Figs 2–6, Tables 1–2, §3.3, the ablations and the
//!   two extension studies), written to an artifacts directory;
//! - `bench` and `bench-diff` — the scan, store and CSA timings and
//!   allocation counts of `BENCH_SCAN.json`, and the gate against it;
//! - `trace-report` — summary tables of a JSONL event trace;
//! - `chrome-check` — validates a Chrome trace-event document.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cutting;
pub mod study;

/// Parses a `--cycles N` / `--runs N` style override from argv, returning
/// `default` when absent.
///
/// # Panics
///
/// Panics with a usage message when the flag is present without a valid
/// number.
#[must_use]
pub fn numeric_flag(args: &[String], flag: &str, default: u64) -> u64 {
    args.iter().position(|a| a == flag).map_or(default, |i| {
        args.get(i + 1)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("usage: {flag} <positive integer>"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_flag_parses_and_defaults() {
        let args: Vec<String> = ["prog", "--cycles", "250"]
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(numeric_flag(&args, "--cycles", 10), 250);
        assert_eq!(numeric_flag(&args, "--runs", 10), 10);
    }

    #[test]
    #[should_panic(expected = "usage")]
    fn numeric_flag_rejects_garbage() {
        let args: Vec<String> = ["prog", "--cycles", "abc"]
            .iter()
            .map(ToString::to_string)
            .collect();
        let _ = numeric_flag(&args, "--cycles", 10);
    }
}
