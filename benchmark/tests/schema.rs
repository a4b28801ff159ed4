//! `BENCHMARK.json` and the program agree: the file names exactly the
//! workloads and metrics the program knows, with the same units,
//! directions and bounds, and a run prints exactly those names on a last
//! line with exactly the contract's keys.

use std::process::Command;

use ab_benchmark::schema::{Metric, END_TO_END, PER_LAYER};
use ab_benchmark::workloads::WORKLOADS;
use ab_scenario::Json;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    Json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn members(json: &Json) -> &[(String, Json)] {
    match json {
        Json::Obj(members) => members,
        other => panic!("expected an object, found {other:?}"),
    }
}

fn items<'a>(json: &'a Json, key: &str) -> &'a [Json] {
    match json.get(key) {
        Some(Json::Arr(items)) => items,
        other => panic!("{key}: expected an array, found {other:?}"),
    }
}

fn text<'a>(json: &'a Json, key: &str) -> &'a str {
    match json.get(key) {
        Some(Json::Str(s)) => s,
        other => panic!("{key}: expected a string, found {other:?}"),
    }
}

fn keys(json: &Json) -> Vec<&str> {
    members(json).iter().map(|(k, _)| k.as_str()).collect()
}

#[test]
fn the_file_has_exactly_the_contracts_keys() {
    let file = benchmark_json();
    assert_eq!(
        keys(&file),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(items(&file, "paths"), [Json::str("benchmark")]);
    let seconds = file
        .get("run_seconds")
        .and_then(Json::as_f64)
        .expect("a number");
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
}

#[test]
fn the_file_names_the_programs_workloads() {
    let file = benchmark_json();
    let listed: Vec<(&str, &str)> = items(&file, "workloads")
        .iter()
        .map(|w| {
            assert_eq!(keys(w), ["name", "why"]);
            (text(w, "name"), text(w, "why"))
        })
        .collect();
    assert_eq!(listed, WORKLOADS);
    assert!(listed
        .iter()
        .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));
}

fn assert_lists_agree(listed: &[Json], known: &[Metric], bounded: bool) {
    assert_eq!(listed.len(), known.len());
    for (entry, metric) in listed.iter().zip(known) {
        let mut expected = vec!["name", "unit", "better"];
        if bounded {
            expected.push("bound");
        }
        assert_eq!(keys(entry), expected, "{}", metric.name);
        assert_eq!(text(entry, "name"), metric.name);
        assert_eq!(text(entry, "unit"), metric.unit, "{}", metric.name);
        assert_eq!(
            text(entry, "better"),
            metric.better.label(),
            "{}",
            metric.name
        );
        assert_eq!(
            entry.get("bound").and_then(Json::as_f64),
            metric.bound,
            "{}",
            metric.name
        );
        assert!(
            metric.name.len() <= 64 && metric.unit.len() <= 16,
            "{}",
            metric.name
        );
    }
}

#[test]
fn the_file_names_the_programs_metrics() {
    let file = benchmark_json();
    assert_lists_agree(items(&file, "end_to_end"), &END_TO_END, true);
    assert_lists_agree(items(&file, "per_layer"), &PER_LAYER, false);
    // Set-up time is there, in seconds, lower is better, and no bound is
    // larger than its own or than the contract's cap.
    let setup = &END_TO_END[0];
    assert_eq!(
        (setup.name, setup.unit, setup.better.label()),
        ("setup_s", "s", "lower")
    );
    assert!(END_TO_END
        .iter()
        .all(|m| m.bound <= setup.bound && m.bound <= Some(0.25)));
    let mut names: Vec<&str> = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .map(|m| m.name)
        .collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(
        names.len(),
        END_TO_END.len() + PER_LAYER.len(),
        "a name is used once"
    );
}

/// One pass of the smallest workload through the binary, as the driver
/// runs it; the parsed last line.
fn run(trace: &str) -> Json {
    let output = Command::new(env!("CARGO_BIN_EXE_ab_benchmark"))
        .args([
            "--workload",
            "vm_forward",
            "--seed",
            "5",
            "--seconds",
            "0.05",
        ])
        .args(["--trace", trace, "--smoke"])
        .output()
        .expect("the binary runs");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8");
    assert!(output.status.success(), "{stdout}");
    Json::parse(stdout.lines().last().expect("a last line")).expect("the last line is JSON")
}

fn assert_result_line(result: &Json, known: &[Metric]) {
    assert_eq!(keys(result), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(result.get("failed"), Some(&Json::U64(0)));
    assert!(
        result
            .get("attempted")
            .and_then(Json::as_f64)
            .expect("a number")
            >= 1.0
    );
    let metrics = members(result.get("metrics").expect("metrics"));
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let expected: Vec<&str> = known.iter().map(|m| m.name).collect();
    assert_eq!(names, expected);
    for ((name, body), metric) in metrics.iter().zip(known) {
        assert_eq!(keys(body), ["value", "unit"], "{name}");
        assert_eq!(text(body, "unit"), metric.unit, "{name}");
        let value = body.get("value").and_then(Json::as_f64);
        assert!(value.is_some_and(f64::is_finite), "{name}: {value:?}");
    }
}

#[test]
fn an_untraced_run_prints_every_end_to_end_metric_and_none_is_zero() {
    let result = run("0");
    assert_result_line(&result, &END_TO_END);
    for (name, body) in members(result.get("metrics").expect("metrics")) {
        assert!(
            body.get("value").and_then(Json::as_f64) > Some(0.0),
            "{name} is zero"
        );
    }
}

#[test]
fn a_traced_run_prints_every_per_layer_metric() {
    let result = run("1");
    assert_result_line(&result, &PER_LAYER);
    let value = |name: &str| {
        result
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .expect(name)
    };
    // The rows of this workload's layers are filled in, another's are 0,
    // and the kernel suite ran.
    assert!(value("active_bridge.calls") > 0.0 && value("switchlet.instr_per_frame") > 0.0);
    assert_eq!(value("ab_scenario.run_in_share"), 0.0);
    assert!(value("ether.parse_ns") > 0.0 && value("active_bridge.cache_live_slots") > 0.0);
}

#[test]
fn bad_arguments_exit_with_2_and_print_no_result() {
    for args in [
        &["--workload", "nonesuch", "--trace", "0"][..],
        &["--trace", "2"],
        &[],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_ab_benchmark"))
            .args(args)
            .output()
            .expect("the binary runs");
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}
