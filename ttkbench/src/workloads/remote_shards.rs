//! `remote-shards`: one client over two real `ttk serve-shard` daemons.
//!
//! Each daemon serves half of a ~100k-tuple CarTel relation (30k road
//! segments, split round-robin). One client thread runs `Session::execute`
//! over a `RemoteShardDataset` of both, two connections per query. The mix
//! is mostly gated k=2 queries (U-Topk off: the servers stop at the
//! Theorem-2 bound) plus one full-stream query per pass (U-Topk on, k=3:
//! each shard drains completely, as the CLI does today). Wire, merge,
//! pushdown and dial cost dominate; the DP is small.

use std::path::PathBuf;
use std::time::Instant;

use ttk_core::{ConnectOptions, Dataset, RemoteShardDataset, Session, TopkQuery};

use super::{
    end_to_end, error_rate, reference_hash, run_passes, Config, CountGuard, Outcome, References,
    Shape, TraceRun, CLIENT_TIMEOUT,
};
use crate::daemon::{drain_all, Daemon};
use crate::inputs::{csv_rows, generate_cartel, reference_table, Rng, SCORE};
use crate::metrics::{mean, median, Class, Metric, Ops};
use crate::trace::Counts;

pub const NAME: &str = "remote-shards";

/// Daemon pairs started per run; `setup_s` is the median.
const SETUP_REPS: usize = 5;

/// The p_tau values the gated queries cycle through.
const GATED_P_TAU: [f64; 3] = [1e-3, 5e-4, 2e-3];

/// The relation is fixed (generator seed 7) so every run measures the same
/// scan and DP work; the run seed orders the queries of each pass.
const RELATION_SEED: u64 = 7;

struct Size {
    segments: usize,
    gated_per_pass: usize,
}

const FULL: Size = Size {
    segments: 30_000,
    gated_per_pass: 99,
};

const TINY: Size = Size {
    segments: 300,
    gated_per_pass: 5,
};

fn gated(p_tau: f64) -> Shape {
    Shape {
        label: format!("gated/k2/p{p_tau:e}"),
        class: Class::Light,
        dataset: 0,
        query: TopkQuery::new(2).with_p_tau(p_tau).with_u_topk(false),
    }
}

/// One pass: `gated_per_pass` gated k=2 queries and one full-stream k=3
/// query (the CLI default shape, U-Topk on).
fn shapes(size: &Size) -> Vec<Shape> {
    let mut shapes: Vec<Shape> = (0..size.gated_per_pass)
        .map(|i| gated(GATED_P_TAU[i % GATED_P_TAU.len()]))
        .collect();
    shapes.push(Shape {
        label: "full-stream/k3".to_string(),
        class: Class::Heavy,
        dataset: 0,
        query: TopkQuery::new(3),
    });
    shapes
}

fn remote_dataset(daemons: &[Daemon]) -> Dataset {
    RemoteShardDataset::new(daemons.iter().map(|d| d.addr.clone()))
        .with_connect_options(ConnectOptions::default().with_timeout(CLIENT_TIMEOUT))
        .into_dataset()
}

/// Starts both shard daemons and runs one gated query through them: spawn
/// to port file, plus the first query, which imports and scores each
/// shard's CSV (the daemons load lazily).
fn start_pair(
    config: &Config,
    paths: &[PathBuf],
    id_base: u64,
) -> Result<(Vec<Daemon>, f64), String> {
    let started = Instant::now();
    let mut daemons = Vec::new();
    for (index, (path, base)) in paths.iter().zip([0, id_base]).enumerate() {
        let args: Vec<String> = vec![
            "serve-shard".into(),
            path.display().to_string(),
            "--score".into(),
            SCORE.into(),
            "--listen".into(),
            "127.0.0.1:0".into(),
            "--id-base".into(),
            base.to_string(),
        ];
        daemons.push(Daemon::spawn(
            &config.ttk,
            &format!("shard{index}"),
            &args,
            &config.work,
        )?);
    }
    Session::new()
        .execute(&remote_dataset(&daemons), &gated(GATED_P_TAU[0]).query)
        .map_err(|e| format!("warm-up query over the shard daemons failed: {e}"))?;
    Ok((daemons, started.elapsed().as_secs_f64()))
}

pub fn run(config: &Config) -> Result<Outcome, String> {
    let size = if config.tiny { &TINY } else { &FULL };
    let paths = generate_cartel(
        &config.ttk,
        size.segments,
        RELATION_SEED,
        &config.work.join("relation.csv"),
        2,
    )?;
    let id_base = csv_rows(&paths[0])?;

    let mut setup = Vec::new();
    let mut daemons = Vec::new();
    for rep in 0..SETUP_REPS {
        let (pair, seconds) = start_pair(config, &paths, id_base)?;
        setup.push(seconds);
        if rep + 1 < SETUP_REPS {
            drain_all(pair)?;
        } else {
            daemons = pair;
        }
    }

    // References from a local table of the same rows (not part of set-up).
    let table = reference_table(&paths)?;
    let shapes = shapes(size);
    let mut references = References::default();
    for shape in &shapes {
        if !references.contains(&shape.label) {
            references.insert(&shape.label, reference_hash(&table, &shape.query)?);
        }
    }
    if config.corrupt_reference {
        references.corrupt(&shapes[0].label);
    }

    let dataset = remote_dataset(&daemons);
    let mut rng = Rng::new(config.seed);
    if config.trace {
        let mut run = TraceRun::default();
        let mut session = Session::new();
        run_passes(config.seconds, &mut rng, &shapes, |shape| {
            run.query(&mut session, &dataset, shape, Some(&references))
        });
        drain_all(daemons)?;
        return run.finish(config, NAME, Default::default(), Vec::new());
    }

    let mut session = Session::new();
    let mut ops = Ops::default();
    let mut guard = CountGuard::default();
    let mut notes = Vec::new();
    let mut wire_tuples = 0u64;
    let mut gated_shipped = Vec::new();
    let mut full_shipped = Vec::new();
    let elapsed = run_passes(config.seconds, &mut rng, &shapes, |shape| {
        let started = Instant::now();
        let result = session.execute(&dataset, &shape.query);
        let ms = started.elapsed().as_secs_f64() * 1e3;
        match result {
            Ok(answer) => {
                let ok = references.matches(&shape.label, &answer);
                if !ok {
                    notes.push(format!(
                        "`{}`: answer differs from its reference",
                        shape.label
                    ));
                }
                let shipped = session
                    .explain(&dataset, &shape.query)
                    .observed_wire_tuples
                    .unwrap_or(0);
                wire_tuples += shipped;
                match shape.class {
                    Class::Heavy => full_shipped.push(shipped as f64),
                    _ => gated_shipped.push(shipped as f64),
                }
                guard.observe(
                    &shape.label,
                    Counts {
                        depth: answer.scan_depth as u64,
                        expansions: answer.u_topk.as_ref().map_or(0, |u| u.expansions),
                        wire_tuples: shipped,
                        ..Counts::default()
                    },
                );
                ops.push(shape.class, ms, ok);
            }
            Err(e) => {
                notes.push(format!("`{}` failed: {e}", shape.label));
                ops.push(shape.class, ms, false);
            }
        }
    });

    let peak_rss: f64 = daemons.iter().filter_map(Daemon::peak_rss_mb).sum();
    drain_all(daemons)?;
    let metrics = end_to_end(&ops, elapsed, &setup, wire_tuples as f64, elapsed, peak_rss);
    let gated = ops.latencies(&[Class::Light]);
    let full = ops.latencies(&[Class::Heavy]);
    let details = vec![
        Metric::new("gated_p50_ms", median(&gated), "ms", gated.len()),
        Metric::new("full_stream_p50_ms", median(&full), "ms", full.len()),
        Metric::new(
            "gated_wire_tuples",
            mean(&gated_shipped),
            "count",
            gated_shipped.len(),
        ),
        Metric::new(
            "full_stream_wire_tuples",
            mean(&full_shipped),
            "count",
            full_shipped.len(),
        ),
        error_rate(&ops),
    ];
    let mut outcome = Outcome {
        metrics,
        details,
        attempted: ops.attempted(),
        failed: ops.failed(),
        notes,
    };
    guard.report(&mut outcome);
    Ok(outcome)
}
