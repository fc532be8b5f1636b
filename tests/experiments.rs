//! `EXPERIMENTS.md` is the reproduction of the paper's evaluation: one
//! section per [`atlas_bench::SECTIONS`] table. Each test below rebuilds
//! one section and compares it with the checked-in copy, so the harness
//! spreads the sections over the cores; a mismatch names the section and
//! the first line that differs. A plan or cost-model change that moves a
//! number regenerates the file in the same commit.

use atlas_bench::{document, key_of, split, REGENERATE, SECTIONS};

const PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/EXPERIMENTS.md");

fn checked_in() -> String {
    std::fs::read_to_string(PATH).unwrap_or_else(|e| panic!("{PATH}: {e}; run `{REGENERATE}`"))
}

/// Panics unless `got` equals the checked-in `want`, which starts at line
/// `first_line` of the file, naming `what` and the first line that differs.
fn assert_same(what: &str, first_line: usize, want: &str, got: &str) {
    if got == want {
        return;
    }
    let (want, got): (Vec<_>, Vec<_>) = (want.lines().collect(), got.lines().collect());
    let i = (0..want.len().max(got.len()))
        .find(|&i| want.get(i) != got.get(i))
        .unwrap_or(0);
    panic!(
        "EXPERIMENTS.md {what} differs at line {}:\n  checked in: {}\n  generated:  {}\n\
         If the change is intended, regenerate the file with `{REGENERATE}`.",
        first_line + i,
        want.get(i).unwrap_or(&"<end>"),
        got.get(i).unwrap_or(&"<end>"),
    );
}

fn check(key: &str) {
    let doc = checked_in();
    let (first_line, want) = split(&doc)
        .into_iter()
        .find(|(_, s)| key_of(s) == key)
        .unwrap_or_else(|| panic!("EXPERIMENTS.md has no `{key}` section; run `{REGENERATE}`"));
    let build = SECTIONS
        .iter()
        .find(|s| s.0 == key)
        .expect("a known section")
        .1;
    assert_same(
        &format!("section `{key}`"),
        first_line,
        want,
        &build().render(key),
    );
}

macro_rules! sections {
    ($($key:ident),* $(,)?) => {
        $(#[test] fn $key() { check(stringify!($key)); })*
        const TESTED: &[&str] = &[$(stringify!($key)),*];
    };
}

sections!(
    table1_table2,
    fig5_weak_scaling,
    fig7_fig8_offload,
    fig9_fig12_staging,
    fig10_kernelization,
    fig13_pruning,
    best_fusion_size,
    ablations,
);

/// The file holds exactly the known sections, in order, each with a test
/// above, under a header whose claim summary matches their claim lines.
#[test]
fn file_holds_exactly_the_known_sections() {
    let doc = checked_in();
    let sections = split(&doc);
    let keys: Vec<&str> = sections.iter().map(|(_, s)| key_of(s)).collect();
    let known: Vec<&str> = SECTIONS.iter().map(|s| s.0).collect();
    assert_eq!(keys, known, "EXPERIMENTS.md sections; run `{REGENERATE}`");
    assert_eq!(TESTED, known.as_slice(), "one test per section");
    let sections: Vec<String> = sections.iter().map(|(_, s)| s.to_string()).collect();
    assert_same("header or layout", 1, &doc, &document(&sections));
}
