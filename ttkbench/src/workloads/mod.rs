//! The three workloads and what they share: run configuration, query
//! shapes, the closed-loop pass runner, the answer checks, the determinism
//! guard and the traced-query recorder.

pub mod dp_paper;
pub mod remote_shards;
pub mod serve_mixed;

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ttk_core::uncertain::wire;
use ttk_core::{
    answer_from_wire, answer_hash, answer_to_wire, CacheKey, Dataset, QueryAnswer, ResultCache,
    Session, TopkQuery,
};

use crate::inputs::Rng;
use crate::metrics::{mean, median, percentile, Class, Metric, Ops};
use crate::trace::{breakdowns, coverage, layer_mean_ms, replay, Counts, Tracer};

/// Every client call is bounded by this timeout (per dial and per read), so
/// a stalled peer counts as a failed operation instead of hanging the run.
pub const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// What one invocation runs.
#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Tiny inputs, for the benchmark's own tests.
    pub tiny: bool,
    /// The `ttk` binary the daemons run.
    pub ttk: PathBuf,
    /// Scratch directory for inputs, daemon logs and trace files.
    pub work: PathBuf,
    /// Self-test hook: corrupt one reference answer, which every check must
    /// then catch.
    pub corrupt_reference: bool,
}

/// What a workload reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Further per-workload figures for the human-readable report (the
    /// per-class names such as `k10_p50_ms`, and layers that only this
    /// workload runs).
    pub details: Vec<Metric>,
    pub attempted: u64,
    /// Failed operations plus answers that missed their reference.
    pub failed: u64,
    pub notes: Vec<String>,
}

/// One query of a workload's mix.
#[derive(Debug, Clone)]
pub struct Shape {
    pub label: String,
    pub class: Class,
    /// Index of the dataset the shape queries.
    pub dataset: usize,
    pub query: TopkQuery,
}

/// Runs whole passes over `shapes` — each pass in its own seeded order —
/// until `seconds` have elapsed (at least one pass), calling `run` for each
/// query. Returns the elapsed wall time. Whole passes keep the class mix of
/// every run identical.
pub fn run_passes(
    seconds: f64,
    rng: &mut Rng,
    shapes: &[Shape],
    mut run: impl FnMut(&Shape),
) -> Duration {
    let started = Instant::now();
    loop {
        let mut order: Vec<usize> = (0..shapes.len()).collect();
        rng.shuffle(&mut order);
        for index in order {
            run(&shapes[index]);
        }
        if started.elapsed().as_secs_f64() >= seconds {
            return started.elapsed();
        }
    }
}

/// Reference answer hashes, one per shape label.
#[derive(Debug, Default)]
pub struct References {
    hashes: HashMap<String, u64>,
}

impl References {
    pub fn insert(&mut self, label: &str, hash: u64) {
        self.hashes.insert(label.to_string(), hash);
    }

    /// Flips one bit of one reference (the self-test of the checks).
    pub fn corrupt(&mut self, label: &str) {
        if let Some(hash) = self.hashes.get_mut(label) {
            *hash ^= 1;
        }
    }

    pub fn contains(&self, label: &str) -> bool {
        self.hashes.contains_key(label)
    }

    /// True when `answer` hashes equal to the reference of `label`.
    pub fn matches(&self, label: &str, answer: &QueryAnswer) -> bool {
        self.matches_hash(label, answer_hash(answer))
    }

    pub fn matches_hash(&self, label: &str, hash: u64) -> bool {
        self.hashes.get(label) == Some(&hash)
    }
}

/// The reference answer hash of `query`: `Session::execute` on a local
/// in-memory table of the same rows, in a fresh session.
pub fn reference_hash(table: &Dataset, query: &TopkQuery) -> Result<u64, String> {
    Session::new()
        .execute(table, query)
        .map(|answer| answer_hash(&answer))
        .map_err(|e| e.to_string())
}

/// Determinism guard: exact counts per shape must repeat bit-for-bit.
#[derive(Debug, Default)]
pub struct CountGuard {
    first: HashMap<String, Counts>,
    pub drift: Vec<String>,
}

impl CountGuard {
    pub fn observe(&mut self, label: &str, counts: Counts) {
        match self.first.get(label) {
            None => {
                self.first.insert(label.to_string(), counts);
            }
            Some(first) if *first != counts => self.drift.push(format!(
                "count drift on `{label}`: first {first:?}, now {counts:?}"
            )),
            Some(_) => {}
        }
    }

    /// A hash of every shape's counts, printed so runs with one seed can be
    /// compared.
    pub fn fingerprint(&self) -> u64 {
        let mut entries: Vec<_> = self.first.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        let mut hasher = DefaultHasher::new();
        for (label, counts) in entries {
            label.hash(&mut hasher);
            format!("{counts:?}").hash(&mut hasher);
        }
        hasher.finish()
    }

    pub fn report(&self, outcome: &mut Outcome) {
        outcome
            .notes
            .push(format!("counts fingerprint: {:016x}", self.fingerprint()));
        outcome.notes.extend(self.drift.iter().cloned());
    }
}

/// The end-to-end metrics every workload prints, from its closed-loop ops.
/// `rows` is the workload's data-path row count (see `SPEC.md`).
pub fn end_to_end(
    ops: &Ops,
    elapsed: Duration,
    setup: &[f64],
    rows: f64,
    rows_elapsed: Duration,
    peak_rss_mb: f64,
) -> Vec<Metric> {
    let queries = ops.latencies(crate::metrics::QUERIES);
    let light = ops.latencies(&[Class::Light]);
    let heavy = ops.latencies(&[Class::Heavy]);
    let seconds = elapsed.as_secs_f64();
    vec![
        Metric::new("setup_s", median(setup), "s", setup.len()),
        Metric::new("query_p50_ms", median(&queries), "ms", queries.len()),
        Metric::new(
            "query_p90_ms",
            percentile(&queries, 90.0),
            "ms",
            queries.len(),
        ),
        Metric::new(
            "queries_per_s",
            queries.len() as f64 / seconds,
            "1/s",
            queries.len(),
        ),
        Metric::new("light_p50_ms", median(&light), "ms", light.len()),
        Metric::new("heavy_p50_ms", median(&heavy), "ms", heavy.len()),
        Metric::new(
            "rows_per_s",
            rows / rows_elapsed.as_secs_f64(),
            "1/s",
            rows as usize,
        ),
        Metric::new("peak_rss_mb", peak_rss_mb, "MiB", 1),
    ]
}

/// `error_rate` for the report: failed or wrong ÷ attempted.
pub fn error_rate(ops: &Ops) -> Metric {
    Metric::new(
        "error_rate",
        ops.failed() as f64 / ops.attempted().max(1) as f64,
        "ratio",
        ops.attempted() as usize,
    )
}

/// The traced run's recorder: every query runs untraced through a
/// `Session`, then as a traced replay whose answer must hash equal; the
/// answer then goes through the codec and a result-cache lookup probe.
pub struct TraceRun {
    pub tracer: Tracer,
    pub guard: CountGuard,
    pub counts: Vec<Counts>,
    pub untraced_ms: Vec<f64>,
    pub traced_ms: Vec<f64>,
    pub encode_us: Vec<f64>,
    pub decode_us: Vec<f64>,
    pub lookup_us: Vec<f64>,
    pub u_topk_failed: u64,
    pub ops: Ops,
    /// Failures and mismatches, for the report.
    pub notes: Vec<String>,
    cache: ResultCache,
    next_id: u32,
}

impl Default for TraceRun {
    fn default() -> Self {
        TraceRun {
            tracer: Tracer::new(),
            guard: CountGuard::default(),
            counts: Vec::new(),
            untraced_ms: Vec::new(),
            traced_ms: Vec::new(),
            encode_us: Vec::new(),
            decode_us: Vec::new(),
            lookup_us: Vec::new(),
            u_topk_failed: 0,
            ops: Ops::default(),
            notes: Vec::new(),
            cache: ResultCache::new(64),
            next_id: 0,
        }
    }
}

impl TraceRun {
    /// Runs one query untraced and traced; the op fails on any error or
    /// when either answer misses `reference` (when given).
    pub fn query(
        &mut self,
        session: &mut Session,
        dataset: &Dataset,
        shape: &Shape,
        reference: Option<&References>,
    ) {
        let query = &shape.query;
        let started = Instant::now();
        let untraced = session.execute(dataset, query);
        let untraced_ms = started.elapsed().as_secs_f64() * 1e3;
        let id = self.next_id;
        self.next_id += 1;
        let started = Instant::now();
        let traced = replay(&self.tracer, id, dataset, query);
        let traced_ms = started.elapsed().as_secs_f64() * 1e3;
        let (untraced, (traced, counts)) = match (untraced, traced) {
            (Ok(untraced), Ok(traced)) => (untraced, traced),
            (untraced, traced) => {
                if query.compute_u_topk {
                    self.u_topk_failed += 1;
                }
                self.ops.push(shape.class, untraced_ms, false);
                if let Err(e) = untraced {
                    self.notes.push(format!("`{}` failed: {e}", shape.label));
                }
                if let Err(e) = traced {
                    self.notes
                        .push(format!("`{}` replay failed: {e}", shape.label));
                }
                return;
            }
        };
        let hash = answer_hash(&untraced);
        let mut ok = true;
        if answer_hash(&traced) != hash {
            ok = false;
            self.notes.push(format!(
                "`{}`: the traced replay's answer differs from Session::execute",
                shape.label
            ));
        }
        if reference.is_some_and(|reference| !reference.matches(&shape.label, &untraced)) {
            ok = false;
            self.notes.push(format!(
                "`{}`: answer differs from its reference",
                shape.label
            ));
        }
        if !self.codec_probe(&untraced, hash) {
            ok = false;
            self.notes.push(format!(
                "`{}`: the codec round trip changed the answer",
                shape.label
            ));
        }
        self.lookup_probe(dataset, query, &untraced);
        self.ops.push(shape.class, untraced_ms, ok);
        self.untraced_ms.push(untraced_ms);
        self.traced_ms.push(traced_ms);
        self.counts.push(counts);
        self.guard.observe(&shape.label, counts);
    }

    /// Encodes the answer as the query daemon does, decodes it as the
    /// client does, and checks the round trip is bit-identical.
    fn codec_probe(&mut self, answer: &QueryAnswer, hash: u64) -> bool {
        let started = Instant::now();
        let result = answer_to_wire(answer, false);
        let mut frame = Vec::new();
        let written = wire::write_query_result(&mut frame, &result);
        self.encode_us.push(started.elapsed().as_secs_f64() * 1e6);
        if written.is_err() {
            return false;
        }
        let started = Instant::now();
        let decoded = wire::read_query_result(&mut frame.as_slice()).map(answer_from_wire);
        self.decode_us.push(started.elapsed().as_secs_f64() * 1e6);
        matches!(decoded, Ok((back, _)) if answer_hash(&back) == hash)
    }

    /// Times a result-cache lookup of the query's key in a benchmark-owned
    /// cache that holds every answer this run produced.
    fn lookup_probe(&mut self, dataset: &Dataset, query: &TopkQuery, answer: &QueryAnswer) {
        let cache = &self.cache;
        let key = CacheKey::new(dataset.id(), dataset.epoch(), query);
        let started = Instant::now();
        let hit = cache.get(&key);
        self.lookup_us.push(started.elapsed().as_secs_f64() * 1e6);
        if hit.is_none() {
            cache.insert(key, Arc::new(answer.clone()));
        }
    }

    /// The per-layer metrics common to every workload. `server` carries the
    /// daemon-side cache figures (`hit_ratio`, `evictions`) and the mean
    /// live segment count where the workload has them.
    pub fn layer_metrics(&self, server: ServerLayers) -> Vec<Metric> {
        let spans = self.tracer.spans();
        let breakdowns = breakdowns(&spans);
        let n = self.counts.len();
        let sum = |f: fn(&Counts) -> u64| self.counts.iter().map(f).sum::<u64>() as f64;
        let per_query = |total: f64| if n == 0 { 0.0 } else { total / n as f64 };
        let depth = sum(|c| c.depth);
        let pulled = sum(|c| c.pulled);
        let wire_tuples = sum(|c| c.wire_tuples);
        let segments = sum(|c| c.segments);
        let dp_ms_total: f64 = breakdowns
            .iter()
            .filter_map(|b| b.self_ns.get("dp"))
            .map(|&ns| ns as f64 / 1e6)
            .sum();
        let pull_ms = layer_mean_ms(&breakdowns, "pull");
        let pull_s_total: f64 = breakdowns
            .iter()
            .filter_map(|b| b.self_ns.get("pull"))
            .map(|&ns| ns as f64 / 1e9)
            .sum();
        let u_topk_queries: Vec<&Counts> =
            self.counts.iter().filter(|c| c.expansions > 0).collect();
        vec![
            Metric::new("open.ms", layer_mean_ms(&breakdowns, "open"), "ms", n),
            Metric::new("scan.self_ms", layer_mean_ms(&breakdowns, "scan"), "ms", n),
            Metric::new("scan.depth", per_query(depth), "count", n),
            Metric::new("scan.pulled", per_query(pulled), "count", n),
            Metric::new(
                "scan.admit_ratio",
                if pulled > 0.0 { depth / pulled } else { 0.0 },
                "ratio",
                n,
            ),
            Metric::new("pull.ms", pull_ms, "ms", n),
            Metric::new("pull.blocks", per_query(sum(|c| c.blocks)), "count", n),
            Metric::new("drain.ms", layer_mean_ms(&breakdowns, "drain"), "ms", n),
            Metric::new("wire.tuples", per_query(wire_tuples), "count", n),
            Metric::new(
                "wire.shipped_over_depth",
                if wire_tuples > 0.0 {
                    wire_tuples / depth
                } else {
                    0.0
                },
                "ratio",
                n,
            ),
            Metric::new(
                "wire.tuples_per_s",
                if pull_s_total > 0.0 {
                    wire_tuples / pull_s_total
                } else {
                    0.0
                },
                "1/s",
                n,
            ),
            Metric::new("dp.ms", layer_mean_ms(&breakdowns, "dp"), "ms", n),
            Metric::new("dp.segments", per_query(segments), "count", n),
            Metric::new(
                "dp.ms_per_segment",
                if segments > 0.0 {
                    dp_ms_total / segments
                } else {
                    0.0
                },
                "ms",
                n,
            ),
            Metric::new("dp.lines", per_query(sum(|c| c.lines)), "count", n),
            Metric::new("typical.ms", layer_mean_ms(&breakdowns, "typical"), "ms", n),
            Metric::new("u_topk.ms", layer_mean_ms(&breakdowns, "u_topk"), "ms", n),
            Metric::new(
                "u_topk.expansions",
                if u_topk_queries.is_empty() {
                    0.0
                } else {
                    u_topk_queries.iter().map(|c| c.expansions).sum::<u64>() as f64
                        / u_topk_queries.len() as f64
                },
                "count",
                u_topk_queries.len(),
            ),
            Metric::new("u_topk.failed", self.u_topk_failed as f64, "count", n),
            Metric::new("cache.hit_ratio", server.hit_ratio, "ratio", n),
            Metric::new("cache.evictions", server.evictions, "count", n),
            Metric::new(
                "cache.lookup_us",
                mean(&self.lookup_us),
                "us",
                self.lookup_us.len(),
            ),
            Metric::new(
                "encode.us",
                mean(&self.encode_us),
                "us",
                self.encode_us.len(),
            ),
            Metric::new(
                "decode.us",
                mean(&self.decode_us),
                "us",
                self.decode_us.len(),
            ),
            Metric::new("live.segments", server.live_segments, "count", n),
            Metric::new(
                "trace.overhead_ms",
                median(&self.traced_ms) - median(&self.untraced_ms),
                "ms",
                n,
            ),
            Metric::new("trace.coverage", coverage(&breakdowns), "ratio", n),
            Metric::new("counts.drift", self.guard.drift.len() as f64, "count", n),
        ]
    }

    /// Writes the spans to `<work>/trace-<workload>-<seed>.jsonl`.
    pub fn write_spans(&self, config: &Config, workload: &str) -> Result<PathBuf, String> {
        let path = config
            .work
            .join(format!("trace-{workload}-{}.jsonl", config.seed));
        self.tracer
            .write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        Ok(path)
    }

    /// Folds the traced run into an outcome.
    pub fn finish(
        self,
        config: &Config,
        workload: &str,
        server: ServerLayers,
        details: Vec<Metric>,
    ) -> Result<Outcome, String> {
        let path = self.write_spans(config, workload)?;
        let metrics = self.layer_metrics(server);
        let mut notes = self.notes;
        notes.push(format!("spans written to {}", path.display()));
        if let Some(coverage) = metrics.iter().find(|m| m.name == "trace.coverage") {
            if coverage.value < 0.95 {
                notes.push(format!(
                    "layer self times cover only {:.1} % of the traced query time",
                    coverage.value * 100.0
                ));
            }
        }
        let mut outcome = Outcome {
            metrics,
            details,
            attempted: self.ops.attempted(),
            failed: self.ops.failed(),
            notes,
        };
        self.guard.report(&mut outcome);
        Ok(outcome)
    }
}

/// Daemon-side layer figures a workload contributes to its traced run.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerLayers {
    pub hit_ratio: f64,
    pub evictions: f64,
    pub live_segments: f64,
}
