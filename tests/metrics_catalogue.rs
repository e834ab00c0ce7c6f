//! The metric catalogue in `docs/OBSERVABILITY.md` matches the code: every
//! metric name the catalogue lists appears as a `"slotsel_…"` string
//! literal in the sources (`crates/*/src`, `src/`), and every such literal
//! has a catalogue row. A metric added without a row, or a row left behind
//! when its emitter goes, fails here.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Repository root (the crate root of the top-level `slotsel` package).
fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, files: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("source directory is readable") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, files);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            files.push(path);
        }
    }
}

/// The source directories whose literals name the emitted metrics.
fn source_dirs() -> Vec<PathBuf> {
    let root = repo_root();
    let mut dirs = vec![root.join("src")];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ exists") {
        let src = entry.expect("directory entry").path().join("src");
        if src.is_dir() {
            dirs.push(src);
        }
    }
    dirs
}

/// Whether `c` may appear in a metric name.
fn name_char(c: char) -> bool {
    c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'
}

/// Every `"slotsel_…"` string literal in `text` that is a whole metric
/// name: the quotes enclose nothing but name characters.
fn metric_literals(text: &str, names: &mut BTreeSet<String>) {
    for (start, _) in text.match_indices("\"slotsel_") {
        let rest = &text[start + 1..];
        let end = rest.find(|c: char| !name_char(c)).unwrap_or(rest.len());
        if rest[end..].starts_with('"') {
            names.insert(rest[..end].to_owned());
        }
    }
}

/// The metric names in the catalogue table's first column.
fn catalogue_names(text: &str) -> BTreeSet<String> {
    let start = text
        .find("### Metric catalogue")
        .expect("OBSERVABILITY.md has a metric catalogue");
    text[start..]
        .lines()
        .skip_while(|line| !line.starts_with('|'))
        .take_while(|line| line.starts_with('|'))
        .filter_map(|line| {
            let cell = line.split('|').nth(1)?.trim();
            let name = cell.strip_prefix('`')?.strip_suffix('`')?;
            name.starts_with("slotsel_").then(|| name.to_owned())
        })
        .collect()
}

#[test]
fn the_metric_catalogue_lists_exactly_the_emitted_names() {
    let mut files = Vec::new();
    for dir in source_dirs() {
        rust_files(&dir, &mut files);
    }
    assert!(files.len() > 20, "found only {} source files", files.len());
    let mut emitted = BTreeSet::new();
    for file in &files {
        let text = std::fs::read_to_string(file).expect("source is readable");
        metric_literals(&text, &mut emitted);
    }

    let doc = std::fs::read_to_string(repo_root().join("docs/OBSERVABILITY.md"))
        .expect("docs/OBSERVABILITY.md is readable");
    let catalogue = catalogue_names(&doc);
    assert!(
        catalogue.len() > 30,
        "read only {} catalogue rows",
        catalogue.len()
    );

    let undocumented: Vec<_> = emitted.difference(&catalogue).collect();
    let unemitted: Vec<_> = catalogue.difference(&emitted).collect();
    assert!(
        undocumented.is_empty() && unemitted.is_empty(),
        "emitted without a catalogue row: {undocumented:?}; \
         catalogued but never emitted: {unemitted:?}"
    );
}
