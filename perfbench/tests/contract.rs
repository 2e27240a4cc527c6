//! The benchmark checked against its own declaration: `BENCHMARK.json` at
//! the repository root names exactly the workloads and metrics this crate
//! emits, every workload emits every metric it declares, and a failed
//! output check shows in the error rate and the result line.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (the workloads run full-size inputs, which a debug build runs slowly).

use serde_json::Value;

use sustain_perfbench::report::{self, Tally};
use sustain_perfbench::{figures, Config, END_TO_END, PER_LAYER, WORKLOADS};

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    serde_json::parse(&text).expect("BENCHMARK.json parses")
}

fn keys(v: &Value) -> Vec<&str> {
    match v {
        Value::Object(entries) => entries.iter().map(|(k, _)| k.as_str()).collect(),
        _ => panic!("expected an object, got {v:?}"),
    }
}

fn entries<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    v.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("`{key}` is a list"))
}

fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("`{key}` is a string in {v:?}"))
}

fn is_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

fn is_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn benchmark_json_declares_exactly_what_the_crate_emits() {
    let json = benchmark_json();
    assert_eq!(
        keys(&json),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let workloads = entries(&json, "workloads");
    assert!((2..=8).contains(&workloads.len()));
    let names: Vec<&str> = workloads.iter().map(|w| str_of(w, "name")).collect();
    assert_eq!(names, WORKLOADS);
    for w in workloads {
        assert_eq!(keys(w), ["name", "why"]);
        let why = str_of(w, "why");
        assert!(why.len() <= 200 && !why.contains('\n'), "why of {w:?}");
    }

    let end_to_end = entries(&json, "end_to_end");
    let per_layer = entries(&json, "per_layer");
    assert!((1..=16).contains(&end_to_end.len()));
    assert!((1..=128).contains(&per_layer.len()));
    let mut seen = std::collections::HashSet::new();
    for m in end_to_end.iter().chain(per_layer) {
        let name = str_of(m, "name");
        assert!(is_name(name), "metric name `{name}`");
        assert!(seen.insert(name), "metric `{name}` declared twice");
        assert!(is_unit(str_of(m, "unit")), "unit of `{name}`");
        assert!(matches!(str_of(m, "better"), "higher" | "lower"));
    }
    for name in &names {
        assert!(is_name(name) && seen.insert(name), "workload name `{name}`");
    }

    let declared = |list: &[Value]| -> Vec<(String, String)> {
        list.iter()
            .map(|m| (str_of(m, "name").to_owned(), str_of(m, "unit").to_owned()))
            .collect()
    };
    let emitted = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect()
    };
    assert_eq!(declared(end_to_end), emitted(END_TO_END));
    assert_eq!(declared(per_layer), emitted(PER_LAYER));

    let mut largest: f64 = 0.0;
    for m in end_to_end {
        assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
        let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "bound of {m:?}");
        largest = largest.max(bound);
    }
    let setup = end_to_end
        .iter()
        .find(|m| str_of(m, "name") == "setup_s")
        .expect("setup_s is declared");
    assert_eq!(
        (str_of(setup, "unit"), str_of(setup, "better")),
        ("s", "lower")
    );
    assert_eq!(setup.get("bound").and_then(Value::as_f64), Some(largest));
    for m in per_layer {
        assert_eq!(keys(m), ["name", "unit", "better"]);
    }

    let seconds = json
        .get("run_seconds")
        .and_then(Value::as_i128)
        .expect("run_seconds");
    assert!((1..=60).contains(&seconds));
    let command = entries(&json, "command");
    assert!(!command.is_empty() && command.len() <= 32);
    for part in command {
        let part = part.as_str().expect("command parts are strings");
        assert!(part.len() <= 200 && !part.starts_with('/') && !part.contains(".."));
    }
    let paths = entries(&json, "paths");
    assert_eq!(paths.len(), 1);
    assert_eq!(paths[0].as_str(), Some("perfbench"));
}

#[test]
fn readme_documents_every_workload_and_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/README.md");
    let readme = std::fs::read_to_string(path).expect("README.md is readable");
    for name in WORKLOADS
        .iter()
        .chain(END_TO_END.iter().map(|(n, _)| n))
        .chain(PER_LAYER.iter().map(|(n, _)| n))
    {
        assert!(
            readme.contains(&format!("`{name}`")),
            "README.md does not document `{name}`"
        );
    }
}

#[test]
fn a_failed_check_raises_the_error_rate_and_clears_correct() {
    // No generator runs here: the workload test below owns the process-wide
    // thread and obs settings.
    let mut tally = Tally::default();
    figures::check_fanout(&mut tally, &[], "");
    assert_eq!(
        (tally.attempted, tally.failed, tally.error_rate()),
        (1, 0, 0.0)
    );
    figures::check_fanout(&mut tally, &[], "a table\n");
    assert_eq!((tally.attempted, tally.failed), (2, 1));
    assert_eq!(tally.error_rate(), 0.5);
    let failure = tally
        .first_failure
        .as_deref()
        .expect("the failure is described");
    assert!(failure.contains("figures_output.txt"), "{failure}");
    let line = report::result_line(&tally, &[]);
    assert!(line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
}

/// One test drives every workload: the thread-count override and the
/// installed obs handle are process-wide, so parallel tests would race.
#[test]
fn every_workload_emits_every_metric_it_declares_with_no_failed_check() {
    let cfg = Config {
        seed: 7,
        seconds: 0.1,
        threads: 2,
    };
    for workload in WORKLOADS {
        let run = sustain_perfbench::run_end_to_end(workload, &cfg).expect("runs");
        assert_eq!(
            run.tally.failed, 0,
            "{workload}: {:?}",
            run.tally.first_failure
        );
        assert!(run.tally.attempted > 0);
        let metrics = sustain_perfbench::end_to_end_metrics(&run).expect("metrics");
        let names: Vec<&str> = metrics.iter().map(|m| m.name).collect();
        let declared: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, declared, "{workload}");
        for m in &metrics {
            assert!(m.value.is_finite() && m.value > 0.0, "{workload}: {m:?}");
        }

        let traced = sustain_perfbench::run_traced(workload, &cfg).expect("traced run");
        assert_eq!(
            traced.tally.failed, 0,
            "{workload}: {:?}",
            traced.tally.first_failure
        );
        let metrics = sustain_perfbench::per_layer_metrics(&traced);
        assert_eq!(metrics.len(), PER_LAYER.len());
        let value = |name: &str| {
            metrics
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
                .expect("declared metric")
        };
        for m in &metrics {
            assert!(m.value.is_finite() && m.value >= 0.0, "{workload}: {m:?}");
        }
        for always in [
            "par.speedup",
            "par.efficiency",
            "par.map_calls_total",
            "obs.tracing_overhead",
        ] {
            assert!(value(always) > 0.0, "{workload}: {always}");
        }
        let own = match *workload {
            "figures" => ["figs.critical_path_ms", "optim.self_ms", "edge.self_ms"],
            "fleet_year" => [
                "des.events_total",
                "fleet.replica_busy_ms",
                "fleet.jobs_completed",
            ],
            _ => [
                "stream.flushes_total",
                "stream.flush_busy_ms",
                "telemetry.coverage",
            ],
        };
        for name in own {
            assert!(value(name) > 0.0, "{workload}: {name} reads 0");
        }
    }
}
