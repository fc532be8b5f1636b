//! `atlas-lint` — the workspace determinism lint.
//!
//! Atlas' plans, fingerprints, and samples must be bit-reproducible across
//! processes and machines: a plan-affecting code path that reads the wall
//! clock, iterates a randomly-seeded hash table, or draws from an OS RNG
//! breaks the differential suites and the serve pool's cross-tenant plan
//! cache. This binary scans the determinism-critical crates for those
//! patterns (plus undocumented `unsafe`), with no dependencies beyond the
//! standard library — the scanner is a hand-rolled Rust lexer in the
//! style of `crates/serve/src/json.rs`.
//!
//! ## Rules
//!
//! | rule | flags | scope |
//! |------|-------|-------|
//! | `wall-clock` | `Instant::now`, `SystemTime` | all critical crates |
//! | `thread-rng` | `thread_rng` | all critical crates |
//! | `default-hasher` | `HashMap`/`HashSet` built with the randomly-seeded default hasher | `crates/core` (plan-affecting) |
//! | `undocumented-unsafe` | an `unsafe` token with no `SAFETY:` / `# Safety` comment nearby | all critical crates |
//!
//! A site that is genuinely fine carries an escape on its own line or the
//! line above:
//!
//! ```text
//! // lint: allow(wall-clock) — gated on an explicit opt-in time budget.
//! ```
//!
//! The justification after the rule is mandatory; a bare `allow` is
//! itself reported. Matching is lexical: string literals and comments are
//! excluded from code, so a doc mention of `Instant::now` never fires.
//!
//! Usage: `atlas-lint [workspace-root]` (default `.`). Exit 0 when clean,
//! 1 with findings (printed as `path:line: rule: message`, sorted), 2 on
//! usage or I/O errors.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Crates whose behavior feeds plan bytes, fingerprints, or samples.
const CRITICAL_CRATES: &[&str] = &[
    "crates/core",
    "crates/machine",
    "crates/statevec",
    "crates/sampler",
    "crates/serve",
    "crates/stabilizer",
    "crates/ilp",
];

/// The `default-hasher` rule only applies where hash iteration order can
/// reach plan bytes.
const HASHER_SCOPE: &str = "crates/core";

/// How many preceding lines a `SAFETY:` / `# Safety` comment may sit
/// above its `unsafe` token.
const SAFETY_WINDOW: usize = 6;

const USAGE: &str = "usage: atlas-lint [workspace-root]

Scans the determinism-critical crates (core, machine, statevec, sampler,
serve, stabilizer, ilp) for wall-clock reads, thread-local RNG, default
hashers in plan-affecting code, and undocumented unsafe. Escape hatch:
`// lint: allow(<rule>) — <justification>` on the line or the line above.";

/// One reported lint violation.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Finding {
    file: String,
    line: usize,
    rule: &'static str,
    message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A source file split into per-line (code, comment) halves: string and
/// char literal *contents* are blanked out of `code`, comment text goes
/// to `comment`.
struct SplitSource {
    lines: Vec<(String, String)>,
}

fn split_source(src: &str) -> SplitSource {
    #[derive(PartialEq)]
    enum State {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(u32),
    }
    let mut lines: Vec<(String, String)> = vec![(String::new(), String::new())];
    let mut state = State::Code;
    let chars: Vec<char> = src.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if state == State::LineComment {
                state = State::Code;
            }
            lines.push((String::new(), String::new()));
            i += 1;
            continue;
        }
        let (code, comment) = lines.last_mut().expect("at least one line");
        match state {
            State::Code => match c {
                '/' if chars.get(i + 1) == Some(&'/') => {
                    state = State::LineComment;
                    i += 2;
                    continue;
                }
                '/' if chars.get(i + 1) == Some(&'*') => {
                    state = State::BlockComment(1);
                    i += 2;
                    continue;
                }
                '"' => {
                    code.push('"');
                    state = State::Str;
                }
                'r' | 'b' => {
                    // Possible raw (byte) string: r"..", r#".."#, br".."
                    let mut j = i + 1;
                    if c == 'b' && chars.get(j) == Some(&'r') {
                        j += 1;
                    }
                    let mut hashes = 0u32;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if c != 'b' || j > i + 1 {
                        if chars.get(j) == Some(&'"') {
                            code.push('"');
                            state = State::RawStr(hashes);
                            i = j + 1;
                            continue;
                        }
                    } else if chars.get(j) == Some(&'"') {
                        // b"..."
                        code.push('"');
                        state = State::Str;
                        i = j + 1;
                        continue;
                    }
                    code.push(c);
                }
                '\'' => {
                    // Char literal vs lifetime: a backslash or a
                    // one-char-then-quote sequence is a literal.
                    let next = chars.get(i + 1);
                    let is_literal = match next {
                        Some('\\') => true,
                        Some(&ch) => chars.get(i + 2) == Some(&'\'') && ch != '\'',
                        None => false,
                    };
                    if is_literal {
                        // Skip to the closing quote (escape-aware).
                        let mut j = i + 1;
                        while j < chars.len() && chars[j] != '\'' {
                            if chars[j] == '\\' {
                                j += 1;
                            }
                            j += 1;
                        }
                        code.push('\'');
                        i = j + 1;
                        continue;
                    }
                    code.push('\'');
                }
                _ => code.push(c),
            },
            State::LineComment => comment.push(c),
            State::BlockComment(depth) => {
                if c == '*' && chars.get(i + 1) == Some(&'/') {
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    i += 2;
                    continue;
                }
                if c == '/' && chars.get(i + 1) == Some(&'*') {
                    state = State::BlockComment(depth + 1);
                    i += 2;
                    continue;
                }
                comment.push(c);
            }
            State::Str => match c {
                '\\' => {
                    i += 2;
                    continue;
                }
                '"' => {
                    code.push('"');
                    state = State::Code;
                }
                _ => {}
            },
            State::RawStr(hashes) => {
                if c == '"' {
                    let mut ok = true;
                    for k in 0..hashes {
                        if chars.get(i + 1 + k as usize) != Some(&'#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        code.push('"');
                        state = State::Code;
                        i += 1 + hashes as usize;
                        continue;
                    }
                }
            }
        }
        i += 1;
    }
    SplitSource { lines }
}

/// Whether `needle` occurs in `hay` as a standalone word (no identifier
/// character on either side).
fn word_match(hay: &str, needle: &str) -> bool {
    let bytes = hay.as_bytes();
    let mut from = 0;
    while let Some(pos) = hay[from..].find(needle) {
        let start = from + pos;
        let end = start + needle.len();
        let before_ok = start == 0 || {
            let b = bytes[start - 1];
            !(b.is_ascii_alphanumeric() || b == b'_')
        };
        let after_ok = end == hay.len() || {
            let b = bytes[end];
            !(b.is_ascii_alphanumeric() || b == b'_')
        };
        if before_ok && after_ok {
            return true;
        }
        from = end;
    }
    false
}

/// The allow-escape state for `rule` at line `i` (0-based): `None` when no
/// escape is present, `Some(true)` when an escape with a justification
/// covers the line, `Some(false)` for a bare escape.
fn allow_escape(split: &SplitSource, i: usize, rule: &str) -> Option<bool> {
    let lines_to_check = [Some(i), i.checked_sub(1)];
    for li in lines_to_check.into_iter().flatten() {
        let comment = &split.lines[li].1;
        let marker = format!("lint: allow({rule})");
        if let Some(pos) = comment.find(&marker) {
            let rest = comment[pos + marker.len()..]
                .trim_start_matches([' ', '\t', '—', '-', ':', ','])
                .trim();
            return Some(rest.len() >= 8);
        }
    }
    None
}

/// Records a finding unless an allow-escape with a justification covers
/// the line; a bare escape is reported as its own problem.
fn report(
    findings: &mut Vec<Finding>,
    split: &SplitSource,
    file: &str,
    i: usize,
    rule: &'static str,
    message: String,
) {
    match allow_escape(split, i, rule) {
        Some(true) => {}
        Some(false) => findings.push(Finding {
            file: file.to_string(),
            line: i + 1,
            rule,
            message: format!("`lint: allow({rule})` needs a justification after the rule name"),
        }),
        None => findings.push(Finding {
            file: file.to_string(),
            line: i + 1,
            rule,
            message,
        }),
    }
}

/// Lints one file's source. `hasher_scope` enables the `default-hasher`
/// rule (plan-affecting modules only).
fn lint_source(file: &str, src: &str, hasher_scope: bool) -> Vec<Finding> {
    let split = split_source(src);
    let mut findings = Vec::new();
    for i in 0..split.lines.len() {
        let code = split.lines[i].0.as_str();
        if code.contains("Instant::now") {
            report(
                &mut findings,
                &split,
                file,
                i,
                "wall-clock",
                "`Instant::now` makes behavior depend on real time".to_string(),
            );
        }
        if word_match(code, "SystemTime") {
            report(
                &mut findings,
                &split,
                file,
                i,
                "wall-clock",
                "`SystemTime` makes behavior depend on real time".to_string(),
            );
        }
        if word_match(code, "thread_rng") {
            report(
                &mut findings,
                &split,
                file,
                i,
                "thread-rng",
                "`thread_rng` draws OS entropy; use the seeded workspace RNG".to_string(),
            );
        }
        if hasher_scope
            && !code.contains("BuildHasherDefault")
            && (word_match(code, "HashMap") || word_match(code, "HashSet"))
            && (code.contains("::new(")
                || code.contains("::default(")
                || code.contains("::with_capacity(")
                || code.contains("Default::default(")
                || code.contains("::from("))
        {
            report(
                &mut findings,
                &split,
                file,
                i,
                "default-hasher",
                "default-hasher container in plan-affecting code; use `DetMap`/`DetSet`"
                    .to_string(),
            );
        }
        if word_match(code, "unsafe") {
            let lo = i.saturating_sub(SAFETY_WINDOW);
            let documented = (lo..=i).any(|li| {
                let c = &split.lines[li].1;
                c.contains("SAFETY:") || c.contains("# Safety")
            });
            if !documented {
                report(
                    &mut findings,
                    &split,
                    file,
                    i,
                    "undocumented-unsafe",
                    "`unsafe` without a `SAFETY:` comment within 6 lines".to_string(),
                );
            }
        }
    }
    findings
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .collect::<std::io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            walk(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn run(root: &Path) -> Result<Vec<Finding>, String> {
    let mut findings = Vec::new();
    let mut scanned = 0usize;
    for krate in CRITICAL_CRATES {
        let dir = root.join(krate).join("src");
        if !dir.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        walk(&dir, &mut files).map_err(|e| format!("walking {}: {e}", dir.display()))?;
        for path in files {
            let src = std::fs::read_to_string(&path)
                .map_err(|e| format!("reading {}: {e}", path.display()))?;
            let label = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .into_owned();
            findings.extend(lint_source(&label, &src, krate == &HASHER_SCOPE));
            scanned += 1;
        }
    }
    if scanned == 0 {
        return Err(format!(
            "no critical crates found under {} (pass the workspace root)",
            root.display()
        ));
    }
    findings.sort();
    Ok(findings)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if args.len() > 1 {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    let root = PathBuf::from(args.first().map(String::as_str).unwrap_or("."));
    match run(&root) {
        Ok(findings) if findings.is_empty() => {
            println!("atlas-lint: clean");
            ExitCode::SUCCESS
        }
        Ok(findings) => {
            let mut out = String::new();
            for f in &findings {
                let _ = writeln!(out, "{f}");
            }
            print!("{out}");
            println!("atlas-lint: {} finding(s)", findings.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("atlas-lint: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(src: &str) -> Vec<&'static str> {
        lint_source("fixture.rs", src, true)
            .into_iter()
            .map(|f| f.rule)
            .collect()
    }

    /// Regression fixture for the lint's first real catch: the ILP
    /// branch-and-bound read the wall clock unconditionally, so the
    /// *default* deterministic path observed real time on every solve
    /// (the solver now has a node budget only and reads no clock).
    #[test]
    fn catches_unconditional_wall_clock_read() {
        let src = "fn solve() {\n    let start = Instant::now();\n}\n";
        let f = lint_source("solver.rs", src, false);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "wall-clock");
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn allow_with_justification_suppresses() {
        let src = "// lint: allow(wall-clock) — gated on an explicit opt-in time budget.\n\
                   let start = config.time_limit.map(|_| Instant::now());\n";
        assert!(rules(src).is_empty());
    }

    #[test]
    fn bare_allow_is_itself_reported() {
        let src = "// lint: allow(wall-clock)\nlet t = Instant::now();\n";
        let f = lint_source("fixture.rs", src, false);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("justification"));
    }

    #[test]
    fn mentions_in_comments_and_strings_do_not_fire() {
        let src = "// Instant::now is banned here\nlet s = \"Instant::now\";\n\
                   let r = r#\"SystemTime goes \"here\"\"#;\n";
        assert!(rules(src).is_empty());
    }

    #[test]
    fn char_literal_quote_does_not_corrupt_string_state() {
        // A '"' char literal must not open a string that would swallow
        // the Instant::now on the next line.
        let src = "let q = '\"';\nlet t = Instant::now();\n";
        assert_eq!(rules(src), vec!["wall-clock"]);
    }

    #[test]
    fn system_time_and_thread_rng_fire() {
        assert_eq!(
            rules("let t = SystemTime::now();\nlet r = thread_rng();\n"),
            vec!["wall-clock", "thread-rng"]
        );
    }

    #[test]
    fn default_hasher_only_in_scope() {
        let src = "let m: HashMap<u32, u32> = HashMap::new();\n";
        assert_eq!(rules(src), vec!["default-hasher"]);
        assert!(lint_source("fixture.rs", src, false).is_empty());
        // Fixed-seed hashers are the sanctioned replacement.
        let det = "type DetMap<K, V> = HashMap<K, V, BuildHasherDefault<DefaultHasher>>;\n\
                   let m = DetMap::default();\n";
        assert!(rules(det).is_empty());
    }

    #[test]
    fn undocumented_unsafe_fires_and_safety_comment_suppresses() {
        assert_eq!(
            rules("unsafe { ptr.read() };\n"),
            vec!["undocumented-unsafe"]
        );
        assert!(
            rules("// SAFETY: index is owned by this worker.\nunsafe { ptr.read() };\n").is_empty()
        );
        assert!(
            rules("/// # Safety\n/// Caller owns the index.\nunsafe fn read() {}\n").is_empty()
        );
    }

    #[test]
    fn unsafe_in_lint_attributes_is_not_a_token_match() {
        assert!(rules("#![deny(unsafe_op_in_unsafe_fn)]\n#![forbid(unsafe_code)]\n").is_empty());
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        // If 'a were lexed as an open char literal the unsafe token on
        // the same line would be swallowed.
        let src = "fn f<'a>(x: &'a u8) { unsafe { g(x) } }\n";
        assert_eq!(rules(src), vec!["undocumented-unsafe"]);
    }

    #[test]
    fn block_comments_nest() {
        let src = "/* outer /* inner */ still comment: Instant::now */\nlet x = 1;\n";
        assert!(rules(src).is_empty());
    }

    #[test]
    fn the_workspace_is_clean() {
        // The lint's own acceptance bar: the critical crates carry no
        // unescaped findings. CARGO_MANIFEST_DIR is the workspace root
        // (the lint lives in the root package).
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let findings = run(&root).expect("critical crates present");
        assert!(
            findings.is_empty(),
            "lint findings:\n{}",
            findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
