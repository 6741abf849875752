//! The experiment ids the docs name are the ids that exist: a renamed
//! or dropped experiment fails here instead of leaving stale docs.

use raidsim_bench::{BINARIES, EXPERIMENTS};
use std::collections::BTreeSet;
use std::path::Path;

const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// Every id with a way to run it: the table's entries and the binaries.
fn runnable() -> BTreeSet<String> {
    let table = EXPERIMENTS.iter().map(|e| e.id);
    table
        .chain(BINARIES.iter().map(|(id, _)| *id))
        .map(String::from)
        .collect()
}

/// The ids `doc` names as `exp <id>`, plus those of the binaries it
/// names.
fn named_in(doc: &str) -> BTreeSet<String> {
    let text = std::fs::read_to_string(Path::new(ROOT).join(doc)).unwrap();
    let mut ids: BTreeSet<String> = text
        .match_indices("exp E")
        .map(|(at, _)| {
            let digits = text[at + 5..].chars().take_while(char::is_ascii_digit);
            format!("E{}", digits.collect::<String>())
        })
        .collect();
    for (id, bin) in BINARIES {
        if text.contains(bin) {
            ids.insert(id.to_string());
        }
    }
    ids
}

#[test]
fn experiments_md_names_every_experiment() {
    assert_eq!(named_in("EXPERIMENTS.md"), runnable());
}

#[test]
fn design_index_names_every_experiment() {
    assert_eq!(named_in("DESIGN.md"), runnable());
}

/// `src/bin/` holds the runner and exactly the binaries of
/// [`BINARIES`].
#[test]
fn binaries_are_the_runner_and_the_listed_exceptions() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
    let found: BTreeSet<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    let expected: BTreeSet<String> = BINARIES
        .iter()
        .map(|(_, bin)| format!("{bin}.rs"))
        .chain(["exp.rs".to_string()])
        .collect();
    assert_eq!(found, expected);
}
