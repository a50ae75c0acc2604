//! Runs every workload at `--smoke` scale, untraced and traced, and
//! checks that each run prints exactly the metrics `BENCHMARK.json`
//! names for its mode, each with its unit and a finite value, and that
//! no request failed; and that `layers.json` describes exactly those
//! per-layer metrics, with a traced run labelling as a probe every
//! metric `layers.json` does not measure from that workload's traffic.
//! This keeps the two files and the binary in sync.
//!
//! ```text
//! cargo test --release --manifest-path ledger/Cargo.toml
//! ```

use objectrunner_store::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

const WORKLOADS: [&str; 4] = ["serve-cached", "harvest", "onboard-drift", "stream-crawl"];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("ledger sits in the repository root")
        .to_path_buf()
}

/// Build the daemon next to the ledger binary under test, with the same
/// profile, where the ledger looks for it.
fn build_daemon(ledger: &Path) {
    let profile_dir = ledger.parent().expect("binary directory");
    let target = profile_dir.parent().expect("target directory");
    let mut cargo = Command::new(env!("CARGO"));
    cargo
        .args([
            "build",
            "--quiet",
            "-p",
            "objectrunner-serve",
            "--bin",
            "objectrunner-serve",
        ])
        .arg("--manifest-path")
        .arg(repo_root().join("Cargo.toml"))
        .env("CARGO_TARGET_DIR", target);
    if profile_dir.file_name().is_some_and(|n| n == "release") {
        cargo.arg("--release");
    }
    let status = cargo.status().expect("cargo runs");
    assert!(status.success(), "building objectrunner-serve failed");
}

fn read_json(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn strings(j: Option<&Json>) -> Vec<String> {
    j.and_then(Json::as_arr)
        .expect("an array")
        .iter()
        .map(|s| s.as_str().expect("a string").to_owned())
        .collect()
}

/// `layers.json`: per-layer metric name → the workloads its value is
/// measured from traffic on.
fn from_traffic() -> BTreeMap<String, Vec<String>> {
    let json = read_json(&repo_root().join("ledger/layers.json"));
    json.get("metrics")
        .and_then(Json::as_arr)
        .expect("metrics")
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).expect("name");
            (name.to_owned(), strings(m.get("from_traffic")))
        })
        .collect()
}

/// `(name, unit)` of every metric in one section of BENCHMARK.json.
fn declared(section: &str) -> Vec<(String, String)> {
    let json = read_json(&repo_root().join("BENCHMARK.json"));
    json.get(section)
        .and_then(Json::as_arr)
        .expect("metric section")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn layers_json_describes_the_declared_per_layer_metrics() {
    let layers = read_json(&repo_root().join("ledger/layers.json"));
    let mut named: Vec<String> = layers
        .get("metrics")
        .and_then(Json::as_arr)
        .expect("metrics")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_owned()
        })
        .collect();
    named.sort();
    let mut want: Vec<String> = declared("per_layer").into_iter().map(|m| m.0).collect();
    want.sort();
    assert_eq!(named, want, "layers.json against BENCHMARK.json per_layer");

    let end_to_end: Vec<String> = declared("end_to_end").into_iter().map(|m| m.0).collect();
    for m in layers
        .get("metrics")
        .and_then(Json::as_arr)
        .expect("metrics")
    {
        let name = m.get("name").and_then(Json::as_str).expect("name");
        for w in strings(m.get("from_traffic")) {
            assert!(
                WORKLOADS.contains(&w.as_str()),
                "{name}: unknown workload {w}"
            );
        }
        for target in strings(m.get("moves")) {
            let (metric, workload) = target.split_once('@').expect("metric@workload");
            assert!(
                end_to_end.iter().any(|e| e == metric),
                "{name}: unknown metric {metric}"
            );
            assert!(
                WORKLOADS.contains(&workload),
                "{name}: unknown workload {workload}"
            );
        }
    }
}

#[test]
fn every_workload_prints_every_declared_metric() {
    let ledger = PathBuf::from(env!("CARGO_BIN_EXE_ledger"));
    build_daemon(&ledger);
    let root = repo_root();
    let declared_workloads = {
        let json = read_json(&root.join("BENCHMARK.json"));
        let mut names: Vec<String> = json
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_owned()
            })
            .collect();
        names.sort();
        names
    };
    let mut expected_workloads: Vec<String> = WORKLOADS.iter().map(|w| w.to_string()).collect();
    expected_workloads.sort();
    assert_eq!(declared_workloads, expected_workloads);

    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let mut want = declared(section);
        want.sort();
        for workload in WORKLOADS {
            let out = Command::new(&ledger)
                .args(["--root"])
                .arg(&root)
                .args([
                    "--workload",
                    workload,
                    "--seed",
                    "1",
                    "--smoke",
                    "--seconds",
                    "0.5",
                ])
                .args(["--trace", trace])
                .output()
                .expect("ledger runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} --trace {trace} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            let result = Json::parse(last).expect("the last line is JSON");
            assert_eq!(
                result.get("correct").and_then(Json::as_bool),
                Some(true),
                "{last}"
            );
            assert_eq!(
                result.get("failed").and_then(Json::as_i64),
                Some(0),
                "{last}"
            );
            assert!(result.get("attempted").and_then(Json::as_i64).unwrap_or(0) >= 1);
            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                panic!("{workload}: no metrics object in {last}");
            };
            let mut got: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    let value = m.get("value").and_then(Json::as_f64);
                    assert!(
                        value.is_some_and(f64::is_finite),
                        "{workload}: {name} is not a finite number"
                    );
                    let unit = m.get("unit").and_then(Json::as_str).expect("unit");
                    (name.clone(), unit.to_owned())
                })
                .collect();
            got.sort();
            assert_eq!(got, want, "{workload} --trace {trace}");
            if trace == "1" {
                // The human-readable line of each metric carries its note.
                let traffic = from_traffic();
                for line in stdout.lines() {
                    let Some(name) = line.split_whitespace().next() else {
                        continue;
                    };
                    let Some(on) = traffic.get(name) else {
                        continue;
                    };
                    assert_eq!(
                        line.contains("probe"),
                        !on.iter().any(|w| w == workload),
                        "{workload}: the note of {name} disagrees with layers.json: {line}"
                    );
                }
            }
        }
    }
}
