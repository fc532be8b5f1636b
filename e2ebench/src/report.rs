//! The one JSON writer of the benchmark: the driver's result line and
//! the multi-run report file that `--compare` reads.
//!
//! Documents are built as [`atlas_serve::json::Json`] values — the
//! repository's own JSON type — and rendered here, so writer and parser
//! agree by construction and key order is the order of construction.

use crate::host;
use crate::metrics::{MetricDef, RunResult, END_TO_END, PER_LAYER};
use atlas_serve::json::{escape, Json};
use std::collections::BTreeMap;

/// Report format version; bump on any change a reader must notice.
pub const SCHEMA: &str = "atlas-e2e-bench/1";

/// Renders a JSON value on one line. Non-finite numbers have no JSON
/// spelling and become `null`.
pub fn render(j: &Json) -> String {
    match j {
        Json::Null => "null".to_owned(),
        Json::Bool(b) => b.to_string(),
        // `{}` prints the shortest digits that read back to the same f64.
        Json::Num(x) if x.is_finite() => format!("{x}"),
        Json::Num(_) => "null".to_owned(),
        Json::Str(s) => format!("\"{}\"", escape(s)),
        Json::Arr(items) => {
            let inner: Vec<String> = items.iter().map(render).collect();
            format!("[{}]", inner.join(","))
        }
        Json::Obj(fields) => {
            let inner: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("\"{}\":{}", escape(k), render(v)))
                .collect();
            format!("{{{}}}", inner.join(","))
        }
    }
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn num(x: f64) -> Json {
    Json::Num(x)
}

/// The catalogue a run of this kind must report in full.
pub fn catalogue(trace: bool) -> &'static [MetricDef] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// The driver's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, with every metric of the run's catalogue and nothing
/// else. A metric the workload has no value for (a layer it never
/// enters) is reported as 0.
pub fn result_line(res: &RunResult, trace: bool) -> String {
    for name in res.values.keys() {
        assert!(
            catalogue(trace).iter().any(|m| m.name == *name),
            "workload produced `{name}`, which is not a {} metric",
            if trace { "per-layer" } else { "end-to-end" },
        );
    }
    let metrics = catalogue(trace)
        .iter()
        .map(|m| {
            let value = res.values.get(m.name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            (
                m.name.to_owned(),
                obj(vec![
                    ("value", num(value)),
                    ("unit", Json::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    render(&obj(vec![
        ("correct", Json::Bool(res.correct)),
        ("attempted", num(res.attempted as f64)),
        ("failed", num(res.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]))
}

/// Every run of one workload in a report: per-metric value lists.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WorkloadRuns {
    /// All runs reported `correct`.
    pub correct: bool,
    /// Units attempted, summed over runs.
    pub attempted: u64,
    /// Units failed, summed over runs.
    pub failed: u64,
    /// Metric name → one value per run, in run order.
    pub values: BTreeMap<String, Vec<f64>>,
}

/// A complete set of runs: header plus per-workload value lists.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    /// `--seed` of every run.
    pub seed: u64,
    /// `--seconds` of every run.
    pub seconds: f64,
    /// Runs per workload and kind.
    pub runs: u64,
    /// Reduced sizes; never comparable.
    pub quick: bool,
    /// Logical CPUs of the host.
    pub host_cpus: u64,
    /// Threads the workloads used.
    pub threads: u64,
    /// Workload name → its runs.
    pub workloads: BTreeMap<String, WorkloadRuns>,
}

impl Report {
    /// An empty report stamped with this host's facts.
    pub fn new(seed: u64, seconds: f64, runs: u64, quick: bool) -> Self {
        Report {
            seed,
            seconds,
            runs,
            quick,
            host_cpus: host::cpus() as u64,
            threads: host::bench_threads() as u64,
            workloads: BTreeMap::new(),
        }
    }

    /// Workloads are sized for two cores: a one-core host's numbers must
    /// not pass for a two-core run's, and quick runs measure other sizes.
    pub fn comparable(&self) -> bool {
        self.host_cpus >= 2 && !self.quick
    }

    /// Folds one parsed result line into the report.
    pub fn add(&mut self, workload: &str, line: &Json) -> Result<(), String> {
        let w = self
            .workloads
            .entry(workload.to_owned())
            .or_insert_with(|| WorkloadRuns {
                correct: true,
                ..WorkloadRuns::default()
            });
        let field = |k: &str| {
            line.get(k)
                .ok_or_else(|| format!("result line lacks `{k}`"))
        };
        w.correct &= field("correct")? == &Json::Bool(true);
        w.attempted += field("attempted")?.as_u64().ok_or("bad `attempted`")?;
        w.failed += field("failed")?.as_u64().ok_or("bad `failed`")?;
        let Json::Obj(metrics) = field("metrics")? else {
            return Err("`metrics` is not an object".into());
        };
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or("metric lacks a value")?;
            w.values.entry(name.clone()).or_default().push(value);
        }
        Ok(())
    }

    /// The report as one JSON document, with the metric catalogue (unit,
    /// direction, bound) and the provenance a reader needs to judge it.
    pub fn to_json(&self) -> Json {
        let defs = END_TO_END
            .iter()
            .map(|m| (m, "end_to_end"))
            .chain(PER_LAYER.iter().map(|m| (m, "per_layer")))
            .map(|(m, kind)| {
                obj(vec![
                    ("name", Json::Str(m.name.into())),
                    ("kind", Json::Str(kind.into())),
                    ("unit", Json::Str(m.unit.into())),
                    ("better", Json::Str(m.better.name().into())),
                    ("bound", m.bound.map_or(Json::Null, Json::Num)),
                    ("exact", Json::Bool(m.exact)),
                ])
            })
            .collect();
        let workloads = self
            .workloads
            .iter()
            .map(|(name, w)| {
                let values = w
                    .values
                    .iter()
                    .map(|(k, xs)| {
                        (
                            k.clone(),
                            Json::Arr(xs.iter().copied().map(Json::Num).collect()),
                        )
                    })
                    .collect();
                (
                    name.clone(),
                    obj(vec![
                        ("correct", Json::Bool(w.correct)),
                        ("attempted", num(w.attempted as f64)),
                        ("failed", num(w.failed as f64)),
                        ("values", Json::Obj(values)),
                    ]),
                )
            })
            .collect();
        obj(vec![
            ("schema", Json::Str(SCHEMA.into())),
            (
                "git_rev",
                Json::Str(host::tool_line("git", &["rev-parse", "HEAD"])),
            ),
            ("rustc", Json::Str(host::tool_line("rustc", &["-V"]))),
            ("host_cpus", num(self.host_cpus as f64)),
            ("threads", num(self.threads as f64)),
            ("comparable", Json::Bool(self.comparable())),
            ("seed", num(self.seed as f64)),
            ("seconds", num(self.seconds)),
            ("runs", num(self.runs as f64)),
            ("quick", Json::Bool(self.quick)),
            ("metrics", Json::Arr(defs)),
            ("workloads", Json::Obj(workloads)),
        ])
    }

    /// Reads a report back (the fields `--compare` needs).
    pub fn from_json(j: &Json) -> Result<Self, String> {
        let field = |k: &str| j.get(k).ok_or_else(|| format!("report lacks `{k}`"));
        if field("schema")?.as_str() != Some(SCHEMA) {
            return Err(format!("not a `{SCHEMA}` report"));
        }
        let int = |k: &str| field(k)?.as_u64().ok_or_else(|| format!("bad `{k}`"));
        let mut report = Report {
            seed: int("seed")?,
            seconds: field("seconds")?.as_f64().ok_or("bad `seconds`")?,
            runs: int("runs")?,
            quick: field("quick")? == &Json::Bool(true),
            host_cpus: int("host_cpus")?,
            threads: int("threads")?,
            workloads: BTreeMap::new(),
        };
        let Json::Obj(workloads) = field("workloads")? else {
            return Err("`workloads` is not an object".into());
        };
        for (name, w) in workloads {
            let get = |k: &str| {
                w.get(k)
                    .ok_or_else(|| format!("workload `{name}` lacks `{k}`"))
            };
            let Json::Obj(values) = get("values")? else {
                return Err(format!("workload `{name}`: `values` is not an object"));
            };
            let values = values
                .iter()
                .map(|(k, xs)| match xs {
                    Json::Arr(xs) => Ok((k.clone(), xs.iter().filter_map(Json::as_f64).collect())),
                    _ => Err(format!("workload `{name}`: `{k}` is not a list")),
                })
                .collect::<Result<_, String>>()?;
            report.workloads.insert(
                name.clone(),
                WorkloadRuns {
                    correct: get("correct")? == &Json::Bool(true),
                    attempted: get("attempted")?.as_u64().ok_or("bad `attempted`")?,
                    failed: get("failed")?.as_u64().ok_or("bad `failed`")?,
                    values,
                },
            );
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas_serve::json::parse;

    fn sample_result() -> RunResult {
        let mut res = RunResult {
            correct: true,
            attempted: 5,
            failed: 0,
            ..RunResult::default()
        };
        res.values.insert("latency_p50_ms", 1_234.567_891_234_5);
        res.values.insert("setup_s", 0.25);
        res
    }

    /// The result line parses, carries exactly the contract's four keys,
    /// lists every end-to-end metric in catalogue order, and keeps all
    /// of a value's digits.
    #[test]
    fn result_line_is_valid_and_key_stable() {
        let line = result_line(&sample_result(), false);
        assert_eq!(line, result_line(&sample_result(), false));
        let j = parse(&line).unwrap();
        let Json::Obj(top) = &j else {
            panic!("not an object")
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Some(Json::Obj(metrics)) = j.get("metrics") else {
            panic!("no metrics")
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, expected);
        let p50 = j.get("metrics").unwrap().get("latency_p50_ms").unwrap();
        assert_eq!(
            p50.get("value").unwrap().as_f64(),
            Some(1_234.567_891_234_5)
        );
        assert_eq!(p50.get("unit").unwrap().as_str(), Some("ms"));
    }

    #[test]
    #[should_panic(expected = "not a per-layer metric")]
    fn result_line_rejects_metrics_of_the_other_kind() {
        result_line(&sample_result(), true);
    }

    #[test]
    fn non_finite_numbers_render_as_null() {
        let j = Json::Arr(vec![
            Json::Num(f64::NAN),
            Json::Num(1.5),
            Json::Str("a\"b".into()),
        ]);
        assert_eq!(render(&j), r#"[null,1.5,"a\"b"]"#);
        assert!(parse(&render(&j)).is_ok());
    }

    #[test]
    fn report_round_trips_through_its_json() {
        let mut report = Report::new(7, 20.0, 2, false);
        let line = parse(&result_line(&sample_result(), false)).unwrap();
        report.add("dense22", &line).unwrap();
        report.add("dense22", &line).unwrap();
        let text = render(&report.to_json());
        let back = Report::from_json(&parse(&text).unwrap()).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.workloads["dense22"].values["setup_s"], [0.25, 0.25]);
        assert_eq!(back.workloads["dense22"].attempted, 10);
    }
}
