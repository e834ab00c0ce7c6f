//! `serve-bench` — open-loop serving benchmark for `slotsel serve --live`.
//!
//! ```text
//! serve-bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1 | --traced]
//!             [--smoke] [--out DIR] [--slotsel PATH]
//! serve-bench compare PARENT_DIR CHANGE_DIR [--benchmark BENCHMARK.json]
//! ```
//!
//! Each workload (all four, in order, unless `--workload` names one) is a
//! seeded open-loop traffic mix driven over HTTP against the real daemon.
//! An untraced run prints the end-to-end metrics; `--trace 1` (or
//! `--traced`) prints the per-layer metrics instead, from the real run's
//! HTTP probe plus an in-process replay of the same arrivals, and writes
//! the replay's span tree as a Chrome trace. Each workload ends with one
//! JSON result line on stdout; tables and warnings go to stderr. The exit
//! code is 1 on any correctness violation and 2 when a run cannot be made.
//! See `SERVE_BENCH.md` beside this package for the definitions.

mod compare;
mod daemon;
mod http;
mod live;
mod replay;
mod report;
mod stats;
mod wal;
mod workload;

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::workload::{Workload, WORKLOADS};

/// Counts every heap allocation the process makes, so the replay can
/// report exact allocation counts per call.
struct CountingAlloc;

/// Allocations (`alloc` + `realloc`) since process start.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method delegates to the system allocator unchanged; the
// only addition is a relaxed atomic increment with no other side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded under the caller's layout contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with the same layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded under the caller's layout contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL_ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` and returns how many heap allocations it performed. Only the
/// single-threaded replay calls this, so the delta is `f`'s alone.
pub(crate) fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, result)
}

/// Seconds of load per workload unless `--seconds` says otherwise.
const DEFAULT_SECONDS: f64 = 15.0;

/// Seconds of load per workload under `--smoke`.
const SMOKE_SECONDS: f64 = 2.0;

const USAGE: &str = "usage:
  serve-bench [--workload steady|burst|wide|polling] [--seed N] [--seconds S]
              [--trace 0|1 | --traced] [--smoke] [--out DIR] [--slotsel PATH]
  serve-bench compare PARENT_DIR CHANGE_DIR [--benchmark BENCHMARK.json]";

/// A parsed command line for a benchmark run.
#[derive(Debug)]
struct Options {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    slotsel: PathBuf,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workloads: WORKLOADS.iter().collect(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
        slotsel: target_dir().join("release").join("slotsel"),
    };
    let mut seconds = None;
    let mut smoke = false;
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let workload =
                    workload::find(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
                options.workloads = vec![workload];
            }
            "--seed" => options.seed = parse_value(flag, value()?)?,
            "--seconds" => seconds = Some(parse_value::<f64>(flag, value()?)?),
            "--trace" => {
                options.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--traced" => options.trace = true,
            "--smoke" => smoke = true,
            "--out" => options.out = Some(PathBuf::from(value()?)),
            "--slotsel" => options.slotsel = PathBuf::from(value()?),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    options.seconds = match (seconds, smoke) {
        (Some(s), _) if s.is_finite() && s > 0.0 => s,
        (Some(s), _) => return Err(format!("--seconds must be positive, not {s}")),
        (None, true) => SMOKE_SECONDS,
        (None, false) => DEFAULT_SECONDS,
    };
    Ok(options)
}

fn parse_value<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: cannot parse {value:?}"))
}

/// Cargo's target directory, where the daemon is built and working files
/// go: `$CARGO_TARGET_DIR`, else `target` under the working directory.
fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// Runs one workload; returns whether its outputs were correct.
fn run_workload(options: &Options, workload: &Workload) -> Result<bool, String> {
    let root = target_dir().join("serve-bench");
    // Fixed-width names keep path lengths, and so allocation counts,
    // identical from one invocation to the next.
    let work_dir = |what: &str| {
        root.join(format!(
            "{what}-{}-{:010}",
            workload.name,
            std::process::id()
        ))
    };
    let live_dir = work_dir("live");
    let _ = std::fs::remove_dir_all(&live_dir);
    let plan = live::Plan {
        slotsel: &options.slotsel,
        workload,
        seed: options.seed,
        seconds: options.seconds,
        dir: &live_dir,
    };
    let live = live::run(&plan);
    let _ = std::fs::remove_dir_all(&live_dir);
    let live = live?;
    let mut violations = live.violations.clone();

    let metrics = if options.trace {
        let replay_dir = work_dir("replay");
        let _ = std::fs::remove_dir_all(&replay_dir);
        let replay = replay::run(workload, options.seed, options.seconds, &replay_dir);
        let _ = std::fs::remove_dir_all(&replay_dir);
        let replay = replay?;
        let trace_path = root.join(format!("trace-{}-seed{}.json", workload.name, options.seed));
        std::fs::write(&trace_path, &replay.trace)
            .map_err(|e| format!("{}: {e}", trace_path.display()))?;
        eprintln!("chrome trace: {}", trace_path.display());
        violations.extend(replay.violations);
        let mut metrics = report::live_layers(&live);
        metrics.extend(replay.metrics);
        metrics
    } else {
        report::end_to_end(&live)
    };

    let correct = violations.is_empty();
    let attempted = live.samples.len();
    let failed = live.failed() + live.uncommitted;
    eprintln!(
        "== {} (seed {}, {} s, {}): {attempted} requests, {failed} failed",
        workload.name,
        options.seed,
        options.seconds,
        if options.trace { "traced" } else { "untraced" }
    );
    let extras = report::extras(&live, workload);
    eprint!("{}", report::table(&metrics));
    eprint!("{}", report::table(&extras));
    for metric in metrics.iter().filter(|m| m.value.is_none()) {
        eprintln!(
            "warning: {} withheld: fewer than {} samples beyond it",
            metric.name,
            stats::MIN_BEYOND
        );
    }
    for violation in &violations {
        eprintln!("VIOLATION: {violation}");
    }
    let line = report::json_line(correct, attempted, failed, &metrics);
    if let Some(out) = &options.out {
        write_report(out, workload, options, &line, &extras)?;
    }
    println!("{line}");
    Ok(correct)
}

/// Saves a result line for `compare`, tagged with its workload and seed
/// and joined by the ungated extras.
fn write_report(
    dir: &Path,
    workload: &Workload,
    options: &Options,
    line: &str,
    extras: &[report::Metric],
) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let trace = u8::from(options.trace);
    let path = dir.join(format!(
        "{}-seed{}-trace{trace}.json",
        workload.name, options.seed
    ));
    let tagged = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {trace}, \"extras\": {}, {}",
        workload.name,
        options.seed,
        report::json_object(extras),
        &line[1..]
    );
    std::fs::write(&path, tagged + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare_command(&args[1..]);
    }
    let options = match parse(&args) {
        Ok(options) => options,
        Err(error) => {
            eprintln!("error: {error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if !options.slotsel.is_file() {
        eprintln!(
            "error: no daemon at {}; build it with `cargo build --release` or pass --slotsel",
            options.slotsel.display()
        );
        return ExitCode::from(2);
    }
    let mut correct = true;
    for workload in &options.workloads {
        match run_workload(&options, workload) {
            Ok(ok) => correct &= ok,
            Err(error) => {
                eprintln!("error: {}: {error}", workload.name);
                return ExitCode::from(2);
            }
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn compare_command(args: &[String]) -> ExitCode {
    let (dirs, benchmark) = match args {
        [parent, change] => ([parent, change], "BENCHMARK.json"),
        [parent, change, flag, path] if flag == "--benchmark" => ([parent, change], path.as_str()),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match compare::run(Path::new(dirs[0]), Path::new(dirs[1]), Path::new(benchmark)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(error) => {
            eprintln!("error: {error}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(text: &str) -> Vec<String> {
        text.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn the_command_line_flags_parse() {
        let options = parse(&args("--workload wide --seed 9 --seconds 10 --trace 1")).unwrap();
        assert_eq!(options.workloads.len(), 1);
        assert_eq!(options.workloads[0].name, "wide");
        assert_eq!(
            (options.seed, options.seconds, options.trace),
            (9, 10.0, true)
        );

        let options = parse(&args("--smoke")).unwrap();
        assert_eq!(options.workloads.len(), 4);
        assert_eq!(options.seconds, SMOKE_SECONDS);
        assert!(!options.trace);

        assert!(parse(&args("--trace 2")).is_err());
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--seconds 0")).is_err());
        assert!(parse(&args("--seed")).is_err());
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let run = live::LiveRun::default();
        let mut names: Vec<&str> = report::end_to_end(&run)
            .iter()
            .chain(report::live_layers(&run).iter())
            .map(|m: &report::Metric| m.name)
            .collect();
        names.sort_unstable();
        let count = names.len();
        names.dedup();
        assert_eq!(names.len(), count);
        assert!(names.iter().all(|n| n.len() <= 64
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))));
    }
}
