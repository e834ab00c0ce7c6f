//! Regenerates the paper's tables and figures: one study, several, or all.
//!
//! ```text
//! cargo run --release -p slotsel-bench --bin reproduce -- [STUDY...] [--fast] [--out DIR]
//! ```
//!
//! `STUDY` is one of `figures`, `table1`, `table2`, `ablation`, `batch` and
//! `sensitivity`; with none given, all six run. Each study's files are
//! written under `--out` (default `artifacts/`) and its `.txt` file is
//! echoed to stdout. The default scale is the paper's; `--fast` trades
//! statistical depth for a run of a few seconds. EXPERIMENTS.md lists the
//! files and the measured values.

use std::path::PathBuf;
use std::process::ExitCode;

use slotsel_bench::study::{Scale, STUDIES};

const USAGE: &str = "usage: reproduce [figures|table1|table2|ablation|batch|sensitivity]... \
                     [--fast] [--out DIR]";

fn refuse(arg: &str) -> ExitCode {
    eprintln!("unexpected argument {arg:?}\n{USAGE}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut studies = Vec::new();
    let mut scale = Scale::PAPER;
    let mut out = PathBuf::from("artifacts");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fast" => scale = Scale::FAST,
            "--out" => match args.next() {
                Some(dir) => out = dir.into(),
                None => return refuse(&arg),
            },
            name => match STUDIES.iter().find(|(study, _)| *study == name) {
                Some(study) => studies.push(study),
                None => return refuse(&arg),
            },
        }
    }
    if studies.is_empty() {
        studies = STUDIES.iter().collect();
    }
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("create {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    for (i, (name, run)) in studies.iter().enumerate() {
        eprintln!("[{}/{}] {name}", i + 1, studies.len());
        for artifact in run(&scale) {
            match artifact.write(&out) {
                Ok(path) => eprintln!("wrote {}", path.display()),
                Err(e) => {
                    eprintln!("write {}: {e}", out.join(artifact.name).display());
                    return ExitCode::FAILURE;
                }
            }
            if artifact.name.ends_with(".txt") {
                println!("{}", artifact.contents);
            }
        }
    }
    ExitCode::SUCCESS
}
