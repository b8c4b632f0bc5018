//! `dp-paper`: the paper's DP at its own k values, in process.
//!
//! One client thread runs `Session::execute` on in-memory CarTel areas of
//! 60 road segments (~200 tuples) at k=10 and k=20 with the paper's
//! defaults (c=3, pτ=1e-3, 200 lines, witnesses on, U-Topk off), plus the
//! CLI's default shape (U-Topk on) at k=10 on one area. The DP does nearly
//! all the work; no wire, daemon or cache is on the path.

use std::path::PathBuf;
use std::time::Instant;

use ttk_core::{answer_hash, Dataset, Session, TopkQuery};

use super::{
    end_to_end, error_rate, run_passes, Config, CountGuard, Outcome, References, Shape, TraceRun,
};
use crate::inputs::{generate_cartel, reference_table, Rng};
use crate::metrics::{median, vm_hwm_mb, Class, Metric, Ops};
use crate::trace::Counts;

pub const NAME: &str = "dp-paper";

/// Dataset builds timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Times each k_light query runs per measured pass: the light class is the
/// cheap one, and repeats steady its median.
const LIGHT_REPEATS: usize = 4;

struct Panel {
    segments: usize,
    /// CarTel generator seeds of the areas. The panel is fixed so every
    /// run, whatever its seed, measures the same DP work; the run seed
    /// orders the queries (see `SPEC.md`).
    area_seeds: [u64; 3],
    k_light: usize,
    k_heavy: usize,
}

const FULL: Panel = Panel {
    segments: 60,
    area_seeds: [1, 2, 5],
    k_light: 10,
    k_heavy: 20,
};

const TINY: Panel = Panel {
    segments: 8,
    area_seeds: [1, 2, 3],
    k_light: 3,
    k_heavy: 4,
};

/// One pass: k_light on every area (`light_repeats` times each), k_heavy
/// on two areas (both U-Topk off), and the CLI default shape (U-Topk on) at
/// k_light on area 0.
fn shapes(panel: &Panel, light_repeats: usize) -> Vec<Shape> {
    let mut shapes = Vec::new();
    for area in (0..panel.area_seeds.len()).flat_map(|area| vec![area; light_repeats]) {
        shapes.push(Shape {
            label: format!("area{area}/k{}", panel.k_light),
            class: Class::Light,
            dataset: area,
            query: TopkQuery::new(panel.k_light).with_u_topk(false),
        });
    }
    for area in 0..2 {
        shapes.push(Shape {
            label: format!("area{area}/k{}", panel.k_heavy),
            class: Class::Heavy,
            dataset: area,
            query: TopkQuery::new(panel.k_heavy).with_u_topk(false),
        });
    }
    shapes.push(Shape {
        label: format!("area0/k{}/u-topk", panel.k_light),
        class: Class::Other,
        dataset: 0,
        query: TopkQuery::new(panel.k_light),
    });
    shapes
}

pub fn run(config: &Config) -> Result<Outcome, String> {
    let panel = if config.tiny { &TINY } else { &FULL };
    let mut paths: Vec<PathBuf> = Vec::new();
    for (area, &seed) in panel.area_seeds.iter().enumerate() {
        let out = config.work.join(format!("area{area}.csv"));
        paths.extend(generate_cartel(&config.ttk, panel.segments, seed, &out, 1)?);
    }

    // Set-up: import, score and index every area, as a user loading the
    // panel would. Repeated after one untimed build; the median is reported.
    let mut setup = Vec::new();
    let mut datasets: Vec<Dataset> = Vec::new();
    for rep in 0..=SETUP_REPS {
        let started = Instant::now();
        datasets = paths
            .iter()
            .map(|path| reference_table(std::slice::from_ref(path)))
            .collect::<Result<_, _>>()?;
        if rep > 0 {
            setup.push(started.elapsed().as_secs_f64());
        }
    }

    let mut rng = Rng::new(config.seed);
    if config.trace {
        let shapes = shapes(panel, 1);
        let mut run = TraceRun::default();
        let mut session = Session::new();
        run_passes(config.seconds, &mut rng, &shapes, |shape| {
            run.query(&mut session, &datasets[shape.dataset], shape, None)
        });
        return run.finish(config, NAME, Default::default(), Vec::new());
    }

    // One untimed query first, so heap growth and page faults land outside
    // the window.
    Session::new()
        .execute(
            &datasets[2],
            &TopkQuery::new(panel.k_light).with_u_topk(false),
        )
        .map_err(|e| format!("warm-up query failed: {e}"))?;

    // The first answer of each shape runs in a fresh session and becomes
    // its reference; every later answer, from the run's long-lived session
    // and in another order, must hash equal to it.
    let shapes = shapes(panel, LIGHT_REPEATS);
    let mut references = References::default();
    let mut session = Session::new();
    let mut ops = Ops::default();
    let mut guard = CountGuard::default();
    let mut notes = Vec::new();
    let mut rows = 0u64;
    let elapsed = run_passes(config.seconds, &mut rng, &shapes, |shape| {
        let dataset = &datasets[shape.dataset];
        let first = !references.contains(&shape.label);
        let started = Instant::now();
        let result = if first {
            Session::new().execute(dataset, &shape.query)
        } else {
            session.execute(dataset, &shape.query)
        };
        let ms = started.elapsed().as_secs_f64() * 1e3;
        match result {
            Ok(answer) => {
                if first {
                    references.insert(&shape.label, answer_hash(&answer));
                    if config.corrupt_reference && shape.class == Class::Light {
                        references.corrupt(&shape.label);
                    }
                }
                let ok = references.matches(&shape.label, &answer);
                if !ok {
                    notes.push(format!(
                        "`{}`: answer differs from its reference",
                        shape.label
                    ));
                }
                rows += answer.scan_depth as u64;
                guard.observe(
                    &shape.label,
                    Counts {
                        depth: answer.scan_depth as u64,
                        expansions: answer.u_topk.as_ref().map_or(0, |u| u.expansions),
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

    let peak_rss = vm_hwm_mb("self").unwrap_or(f64::NAN);
    let metrics = end_to_end(&ops, elapsed, &setup, rows as f64, elapsed, peak_rss);
    let light = ops.latencies(&[Class::Light]);
    let heavy = ops.latencies(&[Class::Heavy]);
    let cli = ops.latencies(&[Class::Other]);
    let details = vec![
        Metric::new(
            format!("k{}_p50_ms", panel.k_light),
            median(&light),
            "ms",
            light.len(),
        ),
        Metric::new(
            format!("k{}_p50_ms", panel.k_heavy),
            median(&heavy),
            "ms",
            heavy.len(),
        ),
        Metric::new(
            format!("cli_k{}_p50_ms", panel.k_light),
            median(&cli),
            "ms",
            cli.len(),
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
