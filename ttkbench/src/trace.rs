//! The traced run: `Session::execute` replayed as its public calls, with a
//! span around each call.
//!
//! Spans live in memory (name, start, end, parent, query id) and are written
//! out when the run ends; per-layer self times are computed from them. The
//! replayed answer must hash equal to `Session::execute` on the same query,
//! so the trace measures the same program the untraced run does.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use ttk_core::uncertain::{Result as TtkResult, SourceTuple, TupleBlock, TupleSource};
use ttk_core::{
    topk_score_distribution, typical_topk, u_topk, Algorithm, Dataset, MainConfig, MeStrategy,
    QueryAnswer, RankScan, ScanGate, ScanSpec, TopkQuery, UTopkConfig,
};

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub query: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    query: Cell<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            query: Cell::new(0),
        }
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer::default()
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                query: self.query.get(),
                name,
                start_ns: 0,
                end_ns: 0,
                parent: self.open.borrow().last().copied(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.open.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[index].start_ns = start;
        spans[index].end_ns = end;
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.borrow().iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"query\": {}, \"name\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"parent\": {parent}}}",
                span.query, span.name, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

/// A `TupleSource` wrapper that records a `pull` span around each pull.
struct TimedSource<'a> {
    inner: &'a mut dyn TupleSource,
    tracer: &'a Tracer,
    pulls: u64,
}

impl TupleSource for TimedSource<'_> {
    fn next_tuple(&mut self) -> TtkResult<Option<SourceTuple>> {
        self.pulls += 1;
        let inner = &mut self.inner;
        self.tracer.span("pull", || inner.next_tuple())
    }

    fn next_block(&mut self, max: usize) -> TtkResult<Option<TupleBlock>> {
        self.pulls += 1;
        let inner = &mut self.inner;
        self.tracer.span("pull", || inner.next_block(max))
    }

    fn size_hint(&self) -> Option<usize> {
        self.inner.size_hint()
    }
}

/// The exact counts one replayed query produced. They must repeat
/// bit-for-bit across runs with one seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Theorem-2 scan depth (tuples admitted by the gate).
    pub depth: u64,
    /// Tuples pulled by the gated scan (depth + look-ahead + block surplus).
    pub pulled: u64,
    /// Pull calls (blocks) over the whole query, drain included.
    pub blocks: u64,
    /// Per-segment dynamic programs the DP ran.
    pub segments: u64,
    /// Lines of the answer distribution.
    pub lines: u64,
    /// U-Topk search expansions (0 when U-Topk is off).
    pub expansions: u64,
    /// Tuples received over the wire (0 for in-process scans).
    pub wire_tuples: u64,
}

/// Replays `Session::execute(dataset, query)` as public calls inside a
/// `query` span: `ScanSpec::for_query`, `open_for`, a gate carrying the
/// spec's meter, `collect_prefix` over a timed source, the DP on the prefix
/// table, `typical_topk`, then `into_full_table` and `u_topk` when the
/// query computes U-Topk.
pub fn replay(
    tracer: &Tracer,
    query_id: u32,
    dataset: &Dataset,
    query: &TopkQuery,
) -> Result<(QueryAnswer, Counts), String> {
    assert_eq!(
        query.algorithm,
        Algorithm::Main,
        "the replay mirrors the main algorithm only"
    );
    tracer.query.set(query_id);
    tracer.span("query", || replay_calls(tracer, dataset, query))
}

fn replay_calls(
    tracer: &Tracer,
    dataset: &Dataset,
    query: &TopkQuery,
) -> Result<(QueryAnswer, Counts), String> {
    let text = |e: ttk_core::uncertain::Error| e.to_string();
    let mut counts = Counts::default();
    let spec = tracer.span("spec", || ScanSpec::for_query(query));
    let mut handle = tracer
        .span("open", || dataset.open_for(&spec))
        .map_err(text)?;
    let wire = handle.wire_stats().cloned();
    let started = Instant::now();
    let mut gate = tracer
        .span("gate", || {
            ScanGate::new(query.k, query.p_tau).map(|mut gate| {
                gate.set_meter(Some(spec.meter.clone()));
                gate
            })
        })
        .map_err(text)?;
    let mut source = TimedSource {
        inner: &mut handle,
        tracer,
        pulls: 0,
    };
    let prefix = tracer
        .span("scan", || {
            RankScan::new().collect_prefix(&mut source, &mut gate)
        })
        .map_err(text)?;
    counts.depth = prefix.depth() as u64;
    counts.pulled = prefix.pulled as u64;
    let config = MainConfig {
        p_tau: query.p_tau,
        max_lines: query.max_lines,
        coalesce_policy: query.coalesce_policy,
        track_witnesses: true,
        me_strategy: MeStrategy::LeadRegions,
    };
    let out = tracer
        .span("dp", || {
            topk_score_distribution(&prefix.table, query.k, &config)
        })
        .map_err(text)?;
    let distribution_time = started.elapsed();
    if out.distribution.is_empty() {
        return Err(format!(
            "the table admits no top-{} vector (fewer than k compatible tuples)",
            query.k
        ));
    }
    counts.segments = out.segments as u64;
    counts.lines = out.distribution.points().len() as u64;
    let typical_started = Instant::now();
    let typical = tracer
        .span("typical", || {
            typical_topk(&out.distribution, query.typical_count)
        })
        .map_err(text)?;
    let typical_time = typical_started.elapsed();
    let u_topk_answer = if query.compute_u_topk {
        let full = tracer
            .span("drain", || prefix.into_full_table(&mut source))
            .map_err(text)?;
        let answer = tracer
            .span("u_topk", || u_topk(&full, query.k, &UTopkConfig::default()))
            .map_err(text)?;
        counts.expansions = answer.as_ref().map_or(0, |a| a.expansions);
        answer
    } else {
        None
    };
    counts.blocks = source.pulls;
    counts.wire_tuples = wire.map_or(0, |stats| stats.tuples_received());
    let answer = QueryAnswer {
        distribution: out.distribution,
        typical,
        u_topk: u_topk_answer,
        scan_depth: out.scan_depth,
        distribution_time,
        typical_time,
    };
    Ok((answer, counts))
}

/// Where one traced query's time went: the `query` span's duration and the
/// self time (duration minus child spans) of each layer span under it.
#[derive(Debug, Clone, Default)]
pub struct Breakdown {
    pub total_ns: u64,
    pub self_ns: BTreeMap<&'static str, u64>,
}

/// Folds spans into one breakdown per traced query (in query-id order).
pub fn breakdowns(spans: &[Span]) -> Vec<Breakdown> {
    let mut children_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children_ns[parent] += span.duration_ns();
        }
    }
    let mut by_query: BTreeMap<u32, Breakdown> = BTreeMap::new();
    for (index, span) in spans.iter().enumerate() {
        let entry = by_query.entry(span.query).or_default();
        if span.parent.is_none() {
            entry.total_ns += span.duration_ns();
        } else {
            *entry.self_ns.entry(span.name).or_default() +=
                span.duration_ns().saturating_sub(children_ns[index]);
        }
    }
    by_query.into_values().collect()
}

/// Share of the traced query time the layer spans account for (1.0 means
/// the layer self times sum exactly to the query time).
pub fn coverage(breakdowns: &[Breakdown]) -> f64 {
    let total: u64 = breakdowns.iter().map(|b| b.total_ns).sum();
    let covered: u64 = breakdowns
        .iter()
        .map(|b| b.self_ns.values().sum::<u64>())
        .sum();
    if total == 0 {
        return 0.0;
    }
    covered as f64 / total as f64
}

/// Mean self time of layer `name` in milliseconds, over the queries in
/// which the layer ran; 0 when it never ran.
pub fn layer_mean_ms(breakdowns: &[Breakdown], name: &str) -> f64 {
    let values: Vec<f64> = breakdowns
        .iter()
        .filter_map(|b| b.self_ns.get(name))
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_subtract_children() {
        let tracer = Tracer::new();
        tracer.span("query", || {
            tracer.span("scan", || {
                tracer.span("pull", || {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
            });
            tracer.span("dp", || {
                std::thread::sleep(std::time::Duration::from_millis(1))
            });
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[2].parent, Some(1));
        let breakdown = &breakdowns(&spans)[0];
        assert!(breakdown.self_ns["pull"] >= 2_000_000);
        assert!(breakdown.self_ns["scan"] < breakdown.self_ns["pull"]);
        let cover = coverage(&breakdowns(&spans));
        assert!(cover > 0.9 && cover <= 1.0, "{cover}");
    }
}
