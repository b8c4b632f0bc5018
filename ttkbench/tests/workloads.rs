//! The benchmark's own tests: a tiny-size run of every workload in both
//! modes prints every metric `BENCHMARK.json` names, with its unit; a
//! corrupted reference answer is caught and counted as failed; the exact
//! counts repeat across runs with one seed.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

const WORKLOADS: [&str; 3] = ["dp-paper", "remote-shards", "serve-mixed"];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the repository")
        .to_path_buf()
}

/// Builds the `ttk` binary once per test process and returns its path.
fn ttk() -> &'static Path {
    static TTK: OnceLock<PathBuf> = OnceLock::new();
    TTK.get_or_init(|| {
        let root = repo_root();
        let status = Command::new(env!("CARGO"))
            .args(["build", "--release", "--offline", "--quiet", "--bin", "ttk"])
            .arg("--manifest-path")
            .arg(root.join("Cargo.toml"))
            .status()
            .expect("cargo runs");
        assert!(status.success(), "building ttk failed");
        let target = std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| root.join("target"));
        let target = if target.is_absolute() {
            target
        } else {
            root.join(target)
        };
        target.join("release").join("ttk")
    })
}

/// Runs one tiny workload in a work directory of its own.
fn run(workload: &str, trace: bool, seed: u64, extra: &[&str]) -> Output {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let work = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "{workload}-{}",
        RUNS.fetch_add(1, Ordering::Relaxed)
    ));
    Command::new(env!("CARGO_BIN_EXE_ttkbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            "1",
            "--trace",
            if trace { "1" } else { "0" },
            "--tiny",
        ])
        .arg("--ttk")
        .arg(ttk())
        .arg("--work")
        .arg(work)
        .args(extra)
        .output()
        .expect("the benchmark runs")
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |entry: &str, key: &str| -> Option<String> {
        let at = entry.find(&format!("\"{key}\": \""))? + key.len() + 5;
        Some(entry[at..at + entry[at..].find('"')?].to_string())
    };
    body.split('{')
        .filter_map(|entry| Some((field(entry, "name")?, field(entry, "unit")?)))
        .collect()
}

fn assert_prints_every_metric(workload: &str, trace: bool) {
    let output = run(workload, trace, 1, &[]);
    let text = stdout(&output);
    assert!(
        output.status.success(),
        "{workload} trace={trace} failed:\n{text}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = text.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\": true"), "{last}");
    let section = if trace { "per_layer" } else { "end_to_end" };
    let metrics = declared(section);
    assert!(!metrics.is_empty());
    for (name, unit) in metrics {
        let entry = format!("\"{name}\": {{\"value\": ");
        let at = last
            .find(&entry)
            .unwrap_or_else(|| panic!("{workload}: `{name}` missing from {last}"));
        let rest = &last[at + entry.len()..];
        let value = &rest[..rest.find(',').expect("value then unit")];
        assert!(value.parse::<f64>().is_ok(), "{name} = {value}");
        assert!(
            rest.starts_with(&format!("{value}, \"unit\": \"{unit}\"}}")),
            "{workload}: `{name}` not in {unit}: {rest}"
        );
        // The human-readable report names the metric too, with unit and
        // sample count.
        assert!(
            text.lines()
                .any(|l| l.trim_start().starts_with(&format!("{name} "))
                    && l.contains(&unit)
                    && l.contains("(n=")),
            "{workload}: no report line for `{name}`"
        );
    }
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    for workload in WORKLOADS {
        assert_prints_every_metric(workload, false);
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric() {
    for workload in WORKLOADS {
        assert_prints_every_metric(workload, true);
    }
}

#[test]
fn a_corrupted_reference_is_caught_and_counted_as_failed() {
    for workload in WORKLOADS {
        let output = run(workload, false, 2, &["--corrupt-reference"]);
        let text = stdout(&output);
        assert_eq!(output.status.code(), Some(1), "{workload}:\n{text}");
        let last = text.lines().last().expect("a result line");
        assert!(
            last.starts_with("{\"correct\": false"),
            "{workload}: {last}"
        );
        assert!(!last.contains("\"failed\": 0,"), "{workload}: {last}");
        assert!(
            text.contains("differs from its reference"),
            "{workload}:\n{text}"
        );
    }
}

#[test]
fn exact_counts_repeat_across_runs_with_one_seed() {
    for workload in ["dp-paper", "remote-shards"] {
        for trace in [false, true] {
            let fingerprint = |output: Output| {
                let text = stdout(&output);
                assert!(output.status.success(), "{text}");
                assert!(!text.contains("count drift"), "{text}");
                text.lines()
                    .find(|l| l.contains("counts fingerprint"))
                    .expect("a fingerprint line")
                    .to_string()
            };
            let first = fingerprint(run(workload, trace, 3, &[]));
            let second = fingerprint(run(workload, trace, 3, &[]));
            assert_eq!(first, second, "{workload} trace={trace}");
        }
    }
}
