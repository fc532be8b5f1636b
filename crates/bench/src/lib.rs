//! # atlas-bench
//!
//! The paper's evaluation (arXiv 2408.09055: Table I/II, Fig. 5/6, 7/8,
//! 9/12, 10/14/25 and 13, §VII-E, and two ablations), reproduced on the
//! model clock as one [`Table`] per figure, plus the host-clock benches
//! under `benches/`.
//!
//! [`SECTIONS`] lists the tables. `cargo run --release -p atlas-bench
//! --bin experiments` renders them into the checked-in `EXPERIMENTS.md`,
//! and the root test `tests/experiments.rs` fails, naming the section and
//! line, when a table no longer matches its checked-in copy.
//!
//! Only model-clock values and exact counts enter the file: a dry run is
//! a pure function of the plan and the cost model, so the file is the
//! same on every host and changes only with a plan or the model. Absolute
//! numbers come from the calibrated cost model (the substrate is a
//! simulator, not Perlmutter); the *shape* — who wins, by what factor,
//! where crossovers fall — is the reproduction target, written down as
//! claims that pass or fail. Measured host time, end to end and per
//! layer, comes from the separate `e2ebench` package.

mod figures;

pub use figures::*;

/// The command that rewrites `EXPERIMENTS.md`.
pub const REGENERATE: &str = "cargo run --release -p atlas-bench --bin experiments";

/// A section of `EXPERIMENTS.md`: the key its heading carries and the
/// function that builds its table.
pub type Section = (&'static str, fn() -> Table);

/// Every section of `EXPERIMENTS.md`, in file order.
pub const SECTIONS: [Section; 8] = [
    ("table1_table2", table1_table2),
    ("fig5_weak_scaling", fig5_weak_scaling),
    ("fig7_fig8_offload", fig7_fig8_offload),
    ("fig9_fig12_staging", fig9_fig12_staging),
    ("fig10_kernelization", fig10_kernelization),
    ("fig13_pruning", fig13_pruning),
    ("best_fusion_size", best_fusion_size),
    ("ablations", ablations),
];

/// One reproduced figure: rows of cells formatted at a fixed precision,
/// and the figure's shape claims, each a sentence that passes or fails.
pub struct Table {
    /// Heading text (the section key is appended when rendering).
    pub title: &'static str,
    /// What the rows are, in a sentence or two.
    pub note: &'static str,
    /// Column names, `" | "`-separated.
    pub columns: &'static str,
    /// Rows, their cells `" | "`-separated.
    pub rows: Vec<String>,
    /// `(sentence, pass)` per shape claim.
    pub claims: Vec<(String, bool)>,
    /// Host wall-clock seconds of named steps. The `experiments` binary
    /// prints them; they never enter the file.
    pub host_secs: Vec<(String, f64)>,
}

impl Table {
    /// An empty table.
    pub fn new(title: &'static str, note: &'static str, columns: &'static str) -> Self {
        Table {
            title,
            note,
            columns,
            rows: Vec::new(),
            claims: Vec::new(),
            host_secs: Vec::new(),
        }
    }

    /// Appends a row; it must have one cell per column.
    pub fn row(&mut self, cells: String) {
        let width = |s: &str| s.matches(" | ").count();
        assert_eq!(
            width(&cells),
            width(self.columns),
            "{}: {cells}",
            self.title
        );
        self.rows.push(cells);
    }

    /// Records a shape claim.
    pub fn claim(&mut self, text: &str, pass: bool) {
        self.claims.push((text.to_string(), pass));
    }

    /// The markdown section: heading, note, table, claims. Starts with
    /// `## ` and ends with a newline.
    pub fn render(&self, key: &str) -> String {
        let (title, note, columns) = (self.title, self.note, self.columns);
        let rule = "---|".repeat(columns.matches(" | ").count() + 1);
        let mut s = format!("## {title} (`{key}`)\n\n{note}\n\n| {columns} |\n|{rule}\n");
        for row in &self.rows {
            s += &format!("| {row} |\n");
        }
        s += "\n";
        for (text, pass) in &self.claims {
            s += &format!("- **{}** {text}\n", if *pass { "PASS" } else { "FAIL" });
        }
        s
    }
}

/// The key a rendered section's heading carries.
pub fn key_of(section: &str) -> &str {
    let heading = section.lines().next().and_then(|h| h.strip_suffix("`)"));
    heading
        .and_then(|h| h.rsplit_once("(`"))
        .map_or("", |(_, key)| key)
}

/// `EXPERIMENTS.md` from its rendered sections: a header with the claim
/// summary, then the sections, one blank line apart.
pub fn document(sections: &[String]) -> String {
    let lines = || {
        sections
            .iter()
            .flat_map(|s| s.lines().map(move |l| (key_of(s), l)))
    };
    let passing = lines()
        .filter(|(_, l)| l.starts_with("- **PASS** "))
        .count();
    let failing: Vec<String> = lines()
        .filter_map(|(key, l)| Some(format!("- `{key}`: {}\n", l.strip_prefix("- **FAIL** ")?)))
        .collect();
    let mut doc = format!(
        "# Experiments\n\n\
         The evaluation of arXiv 2408.09055, reproduced on the model clock. \
         Generated by `{REGENERATE}`; `cargo test --test experiments` fails \
         when a section no longer matches. Do not edit by hand.\n\n\
         Every value is a model-clock time or an exact count, so this file \
         is the same on every host. A change that moves a plan or the cost \
         model shows up here as a diff.\n\n\
         **{passing} of {} claims pass.**\n",
        passing + failing.len(),
    );
    if !failing.is_empty() {
        doc += &format!("\nFailing:\n\n{}", failing.concat());
    }
    for s in sections {
        doc += &format!("\n{s}");
    }
    doc
}

/// Splits `EXPERIMENTS.md` into `(first line number, section)`, the
/// inverse of [`document`] for the sections.
pub fn split(doc: &str) -> Vec<(usize, &str)> {
    let starts: Vec<usize> = doc.match_indices("\n## ").map(|(i, _)| i + 1).collect();
    let ends = starts.iter().skip(1).map(|&e| e - 1).chain([doc.len()]);
    starts
        .iter()
        .zip(ends)
        .map(|(&a, b)| (doc[..a].lines().count() + 1, &doc[a..b]))
        .collect()
}
