//! The ttk benchmark: three closed-loop workloads run against the real
//! `ttk` binaries and the public `ttk_core` API, every answer checked, with
//! a separate traced run that splits query time by layer.
//!
//! See `SPEC.md` beside this crate for the workloads, their input sizes and
//! seed handling, every metric with its unit and direction, and which
//! end-to-end metric each layer metric should move.

pub mod daemon;
pub mod inputs;
pub mod metrics;
pub mod trace;
pub mod workloads;

use std::path::PathBuf;

use metrics::{report_table, result_line};
use workloads::{dp_paper, remote_shards, serve_mixed, Config, Outcome};

/// The workload names, in the order `SPEC.md` lists them.
pub const WORKLOADS: [&str; 3] = [dp_paper::NAME, remote_shards::NAME, serve_mixed::NAME];

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub config: Config,
}

const USAGE: &str = "usage: ttkbench --workload dp-paper|remote-shards|serve-mixed --seed N \
                     --seconds S --trace 0|1 [--ttk PATH] [--work DIR] [--tiny] \
                     [--corrupt-reference]";

/// Parses the run's arguments; the `ttk` binary defaults to the release
/// build under `$CARGO_TARGET_DIR` (or `target`).
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut ttk = None;
    let mut work = None;
    let mut tiny = false;
    let mut corrupt_reference = false;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = || {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                })
            }
            "--ttk" => ttk = Some(PathBuf::from(value()?)),
            "--work" => work = Some(PathBuf::from(value()?)),
            "--tiny" => tiny = true,
            "--corrupt-reference" => corrupt_reference = true,
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    let workload = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`\n{USAGE}"));
    }
    let seconds = seconds.ok_or_else(|| format!("--seconds is required\n{USAGE}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    let ttk = ttk.unwrap_or_else(|| {
        let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
        PathBuf::from(target).join("release").join("ttk")
    });
    let work = work.unwrap_or_else(|| PathBuf::from(".bench_work").join(&workload));
    Ok(Args {
        config: Config {
            seed: seed.ok_or_else(|| format!("--seed is required\n{USAGE}"))?,
            seconds,
            trace: trace.ok_or_else(|| format!("--trace is required\n{USAGE}"))?,
            tiny,
            ttk,
            work,
            corrupt_reference,
        },
        workload,
    })
}

/// Runs one workload in a fresh work directory.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let config = &args.config;
    if !config.ttk.is_file() {
        return Err(format!(
            "no ttk binary at {} (build it with `cargo build --release --bin ttk`)",
            config.ttk.display()
        ));
    }
    if config.work.exists() {
        std::fs::remove_dir_all(&config.work)
            .map_err(|e| format!("clearing {}: {e}", config.work.display()))?;
    }
    std::fs::create_dir_all(&config.work)
        .map_err(|e| format!("creating {}: {e}", config.work.display()))?;
    match args.workload.as_str() {
        dp_paper::NAME => dp_paper::run(config),
        remote_shards::NAME => remote_shards::run(config),
        serve_mixed::NAME => serve_mixed::run(config),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// The run's standard output: the report, then the result line last.
pub fn render(args: &Args, outcome: &Outcome) -> String {
    let kind = if args.config.trace {
        "per-layer (traced)"
    } else {
        "end-to-end"
    };
    let mut out = report_table(
        &format!(
            "{} seed {} — {kind} metrics",
            args.workload, args.config.seed
        ),
        &outcome.metrics,
    );
    if !outcome.details.is_empty() {
        out.push_str(&report_table("  workload detail", &outcome.details));
    }
    for note in &outcome.notes {
        out.push_str(&format!("  note: {note}\n"));
    }
    out.push_str(&format!(
        "  {} operations attempted, {} failed\n",
        outcome.attempted, outcome.failed
    ));
    out.push_str(&result_line(
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        &outcome.metrics,
    ));
    out.push('\n');
    out
}
