//! End-to-end smoke test of the benchmark binary in `--quick` mode, and
//! the check that `BENCHMARK.json` states the catalogue the program uses.

use atlas_e2e_bench::metrics::{MetricDef, END_TO_END, PER_LAYER};
use atlas_e2e_bench::report::Report;
use atlas_e2e_bench::WORKLOADS;
use atlas_serve::json::{parse, Json};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_atlas-e2e-bench");

fn names(j: &Json, key: &str) -> Vec<String> {
    let Some(Json::Arr(items)) = j.get(key) else {
        panic!("BENCHMARK.json lacks `{key}`")
    };
    items
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_owned()
        })
        .collect()
}

/// Every workload and metric the program knows is in `BENCHMARK.json`
/// with the same unit, direction and bound — and nothing else is.
#[test]
fn benchmark_json_matches_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let j = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON");
    assert_eq!(names(&j, "workloads"), WORKLOADS);
    for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let Some(Json::Arr(items)) = j.get(key) else {
            unreachable!()
        };
        let want: Vec<&str> = defs.iter().map(|m| m.name).collect();
        assert_eq!(names(&j, key), want, "`{key}` names or order differ");
        for (item, def) in items.iter().zip(defs) {
            let MetricDef {
                name,
                unit,
                better,
                bound,
                ..
            } = def;
            assert_eq!(
                item.get("unit").and_then(Json::as_str),
                Some(*unit),
                "{name}"
            );
            assert_eq!(
                item.get("better").and_then(Json::as_str),
                Some(better.name()),
                "{name}"
            );
            assert_eq!(item.get("bound").and_then(Json::as_f64), *bound, "{name}");
        }
    }
    let Some(Json::Arr(paths)) = j.get("paths") else {
        panic!("no paths")
    };
    assert_eq!(paths, &[Json::Str("e2ebench".into())]);
}

/// `--all --quick` runs the four workloads, untraced and traced, in
/// child processes; every run must be correct, report its whole
/// catalogue, drop no trace event, and the report must be refused by
/// `--compare` because it is stamped quick.
#[test]
fn quick_run_of_every_workload_is_correct_and_complete() {
    let out = std::env::temp_dir().join(format!("atlas-e2e-quick-{}.json", std::process::id()));
    let run = Command::new(BIN)
        .args(["--all", "--quick", "--seed", "5", "--out"])
        .arg(&out)
        .output()
        .expect("spawn the benchmark");
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let text = std::fs::read_to_string(&out).expect("report written");
    let json = parse(&text).expect("report is valid JSON");
    assert_eq!(json.get("quick"), Some(&Json::Bool(true)));
    assert_eq!(json.get("comparable"), Some(&Json::Bool(false)));
    let report = Report::from_json(&json).expect("report reads back");
    for w in WORKLOADS {
        let runs = &report.workloads[w];
        assert!(
            runs.correct && runs.failed == 0 && runs.attempted > 0,
            "{w}: {runs:?}"
        );
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert_eq!(runs.values[m.name].len(), 1, "{w} lacks {}", m.name);
        }
        for m in END_TO_END {
            assert!(runs.values[m.name][0] > 0.0, "{w}: {} is zero", m.name);
        }
        assert_eq!(runs.values["telemetry.dropped"], [0.0]);
    }
    assert!(report.workloads["dense22"].values["statevec.kernel_crit_s"][0] > 0.0);
    assert!(report.workloads["shuffle22"].values["machine.reshuffles"][0] >= 1.0);
    assert_eq!(
        report.workloads["plan36"].values["statevec.programs"],
        [0.0]
    );
    assert!(report.workloads["serve16"].values["serve.cache_misses"][0] > 0.0);

    let cmp = Command::new(BIN)
        .arg("--compare")
        .args([&out, &out])
        .output()
        .expect("spawn --compare");
    assert_eq!(cmp.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&cmp.stderr).contains("--quick"));
    let _ = std::fs::remove_file(&out);
}

/// The driver's contract for a bad invocation: no result line, non-zero.
#[test]
fn unknown_workload_exits_non_zero_without_a_result() {
    let run = Command::new(BIN)
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("spawn the benchmark");
    assert_eq!(run.status.code(), Some(2));
    assert!(run.stdout.is_empty());
}
