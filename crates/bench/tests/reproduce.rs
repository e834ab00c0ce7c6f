//! Every study of `reproduce`, run at a tiny scale into a temporary
//! directory, writes exactly the files EXPERIMENTS.md's Step 1 table lists,
//! so the guide and the driver cannot drift apart.

use std::collections::BTreeSet;
use std::fs;

use slotsel_bench::study::{Scale, STUDIES};
use slotsel_sim::config::paper;

const TINY: Scale = Scale {
    quality_cycles: 8,
    sweep_runs: 2,
    ablation_cycles: 3,
    batch_cycles: 2,
    sensitivity_cycles: 2,
};

/// The `artifacts/…` file names in the table of EXPERIMENTS.md's Step 1.
fn documented_artifacts() -> BTreeSet<String> {
    let guide = include_str!("../../../EXPERIMENTS.md");
    let step1 = guide
        .split("\n## ")
        .find(|section| section.starts_with("Step 1"))
        .expect("EXPERIMENTS.md has a Step 1 section");
    step1
        .lines()
        .filter(|line| line.starts_with('|'))
        .flat_map(|row| row.split("`artifacts/").skip(1))
        .map(|rest| rest.split('`').next().expect("closing backtick").to_owned())
        .collect()
}

#[test]
fn every_study_writes_the_files_experiments_md_lists() {
    let dir = std::env::temp_dir().join(format!("slotsel-reproduce-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create the artifacts directory");
    for (_, study) in STUDIES {
        for artifact in study(&TINY) {
            artifact.write(&dir).expect("write an artifact");
        }
    }

    let written: BTreeSet<String> = fs::read_dir(&dir)
        .expect("read the artifacts directory")
        .map(|entry| {
            let entry = entry.expect("directory entry");
            entry.file_name().into_string().expect("UTF-8 file name")
        })
        .collect();
    assert_eq!(written, documented_artifacts());
    assert!(written.contains("ablation.txt") && written.contains("quality.json"));

    for name in &written {
        let contents = fs::read_to_string(dir.join(name)).expect("read an artifact");
        assert!(!contents.trim().is_empty(), "{name} is empty");
        if name.ends_with(".json") {
            serde_json::from_str::<serde::Value>(&contents)
                .unwrap_or_else(|e| panic!("{name} does not parse: {e}"));
        }
    }

    let figures = fs::read_to_string(dir.join("figures.txt")).expect("read figures.txt");
    // Every bar the paper gives a value for carries it, in each panel.
    for panel in [
        paper::START,
        paper::RUNTIME,
        paper::FINISH,
        paper::PROC_TIME,
        paper::COST,
    ] {
        for (name, value) in panel {
            let bar = format!("{name}  (paper: {value:.1})");
            assert!(figures.contains(&bar), "no bar {bar:?}\n{figures}");
        }
    }
    assert!(figures.contains("§3.3"), "no §3.3 comparison\n{figures}");
    for row in [
        "MinFinish (finish)",
        "MinCost (cost)",
        "MinRunTime (runtime)",
        "MinProcTime (proctime)",
    ] {
        assert!(figures.contains(row), "no §3.3 row {row:?}\n{figures}");
    }
    fs::remove_dir_all(&dir).expect("remove the artifacts directory");
}
