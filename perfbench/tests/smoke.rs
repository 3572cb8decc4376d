//! Smoke-size runs of every workload: the gates pass, and the result
//! line carries exactly the metrics `BENCHMARK.json` declares, with the
//! declared units.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use tta_campaignd::json::Json;

const WORKLOADS: [&str; 4] = ["safety-n5", "liveness-s4", "campaign-e10", "fuzz-seed7"];

fn benchmark() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String)> {
    benchmark()
        .get(list)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// A fresh working directory for one run.
fn workdir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create work dir");
    dir
}

fn run(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("benchmark binary runs")
}

/// Checks the result line and returns its `(name, unit, value)` metrics.
fn result_metrics(workload: &str, output: &Output) -> Vec<(String, String, f64)> {
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "{workload} failed:\n{stdout}");
    let result =
        Json::parse(stdout.lines().last().expect("a result line")).expect("result is JSON");
    let Json::Obj(fields) = &result else {
        panic!("result is an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        result.get("correct").and_then(Json::as_bool),
        Some(true),
        "{stdout}"
    );
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("metrics is an object")
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .expect("unit")
                .to_string();
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .expect("numeric value");
            assert!(value.is_finite(), "{workload} {name} = {value}");
            (name.clone(), unit, value)
        })
        .collect()
}

#[test]
fn untraced_runs_pass_their_gates_and_report_every_end_to_end_metric() {
    let want = declared("end_to_end");
    for workload in WORKLOADS {
        let output = run(
            &workdir(workload),
            &[
                "--workload",
                workload,
                "--smoke",
                "--seconds",
                "0.5",
                "--trace",
                "0",
            ],
        );
        let got = result_metrics(workload, &output);
        let names: Vec<(String, String)> =
            got.iter().map(|(n, u, _)| (n.clone(), u.clone())).collect();
        assert_eq!(names, want, "{workload}");
        for (name, _, value) in &got {
            assert!(*value > 0.0, "{workload} {name} must never be 0");
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(stdout.contains("e2e error_rate 0 ratio"), "{stdout}");
        let provenance = stdout
            .lines()
            .find_map(|l| l.strip_prefix("provenance "))
            .expect("provenance line");
        let provenance = Json::parse(provenance).expect("provenance is JSON");
        for key in [
            "host_cpus",
            "git_rev",
            "rustc",
            "threads",
            "seed",
            "comparable",
        ] {
            assert!(provenance.get(key).is_some(), "provenance lacks {key}");
        }
    }
}

#[test]
fn traced_runs_report_every_per_layer_metric_and_write_a_chrome_trace() {
    let want = declared("per_layer");
    for workload in WORKLOADS {
        let dir = workdir(&format!("{workload}-traced"));
        let output = run(&dir, &["--workload", workload, "--smoke", "--trace", "1"]);
        let got = result_metrics(workload, &output);
        let names: Vec<(String, String)> =
            got.iter().map(|(n, u, _)| (n.clone(), u.clone())).collect();
        assert_eq!(names, want, "{workload}");
        let overhead = got
            .iter()
            .find(|m| m.0 == "bench.trace_overhead")
            .expect("overhead")
            .2;
        assert!(overhead > 0.0);

        let trace = dir.join(format!(".bench_out/trace-{workload}-7.json"));
        let doc = Json::parse(&std::fs::read_to_string(&trace).expect("trace written"))
            .expect("trace is JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents");
        assert!(!events.is_empty(), "{workload} recorded no spans");
        for event in events {
            assert_eq!(event.get("ph").and_then(Json::as_str), Some("X"));
            assert!(event.get("name").and_then(Json::as_str).is_some());
            assert!(event.get("ts").and_then(Json::as_f64).is_some());
            assert!(event
                .get("dur")
                .and_then(Json::as_f64)
                .is_some_and(|d| d >= 0.0));
        }
    }
}

#[test]
fn usage_errors_exit_2_without_a_result() {
    let dir = workdir("usage");
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "safety-n5", "--trace", "2"],
        &["--seconds", "0"],
    ] {
        let output = run(&dir, args);
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}

#[test]
fn benchmark_json_declares_the_workloads_and_a_bounded_setup_time() {
    let doc = benchmark();
    let Json::Obj(fields) = &doc else {
        panic!("BENCHMARK.json is an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(names, WORKLOADS);
    let e2e = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .expect("end_to_end");
    let setup = e2e
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some("setup_s"))
        .expect("setup_s is declared");
    assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    assert_eq!(setup.get("better").and_then(Json::as_str), Some("lower"));
    for metric in e2e {
        let bound = metric.get("bound").and_then(Json::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25);
    }
}
