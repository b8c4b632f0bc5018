//! The paper's main algorithm: dynamic programming for the top-k score
//! distribution (§3.2), extended to mutual-exclusion groups (§3.3) and score
//! ties (§3.4).
//!
//! The module is split into the mechanical recurrence ([`engine`]) and the
//! driver in this file, which
//!
//! 1. streams the rank-ordered tuples through the Theorem-2 [`ScanGate`]
//!    ([`crate::scan`]), so the dynamic program only ever sees the prefix it
//!    is allowed to read,
//! 2. decomposes the (rank-ordered) tuples into *ending segments* — maximal
//!    lead-tuple regions and individual non-lead tuples (§3.3.3),
//! 3. translates each segment into a row sequence where every other ME group
//!    is compressed into a *rule tuple* (§3.3.1) and exit points are enabled
//!    only inside the segment (§3.3.2), and
//! 4. runs the engine once per segment and merges the resulting
//!    distributions. The segments are independent, so a query whose
//!    estimated work clears a fixed floor fans them out over scoped worker
//!    threads (the calling thread is one of them) that claim segments
//!    through an atomic cursor. Each worker hands its partial to a shared
//!    reorder buffer that folds the partials in strictly in segment order,
//!    with the same merge-and-coalesce sequence as a sequential run, so the
//!    answer is bit-identical whichever thread ran which segment. Small
//!    queries, and queries inside batch workers (which already use the
//!    cores), run their segments on the calling thread. The workers of a
//!    serving daemon do fan out: they spend most of their time on sockets
//!    and cache hits, so a cache miss above the floor is usually the only
//!    DP running, and when several coincide the threads share the cores
//!    without changing any answer.
//!
//! On a table without mutual exclusion the decomposition degenerates to a
//! single segment spanning all tuples, i.e. exactly the basic algorithm of
//! §3.2.

pub mod engine;

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use ttk_uncertain::{
    CoalescePolicy, Error, Result, ScoreDistribution, TableSource, TupleSource, UncertainTable,
    VectorWitness,
};

use crate::scan::{RankScan, ScanPrefix};
use crate::scan_depth::ScanGate;
use engine::DpRow;

/// How the driver decomposes a table with ME groups into per-ending dynamic
/// programs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MeStrategy {
    /// One dynamic program per maximal lead-tuple region plus one per
    /// non-lead tuple (§3.3.3). This is the refinement the paper recommends;
    /// its cost is O(k·m·n) where m is the number of ME-correlated tuples.
    #[default]
    LeadRegions,
    /// One dynamic program per candidate ending tuple (the "simple
    /// extension" of §3.3.2). Asymptotically slower — O(k·n²) — but a useful
    /// correctness oracle and ablation baseline.
    PerEnding,
}

/// Configuration of the main algorithm.
#[derive(Debug, Clone, Copy)]
pub struct MainConfig {
    /// Probability threshold pτ: top-k vectors with probability below this
    /// may be ignored. Controls the scan depth (Theorem 2).
    pub p_tau: f64,
    /// Maximum number of lines kept in any distribution (`c'`, §3.2.1).
    /// Zero keeps every line (exact but potentially exponential output).
    pub max_lines: usize,
    /// How coalesced lines are combined.
    pub coalesce_policy: CoalescePolicy,
    /// Whether witness vectors are tracked (required for c-Typical-Topk).
    pub track_witnesses: bool,
    /// ME-group decomposition strategy.
    pub me_strategy: MeStrategy,
}

impl Default for MainConfig {
    fn default() -> Self {
        MainConfig {
            p_tau: 1e-3,
            max_lines: 200,
            coalesce_policy: CoalescePolicy::PaperMean,
            track_witnesses: true,
            me_strategy: MeStrategy::LeadRegions,
        }
    }
}

/// Result of the main algorithm, with some execution statistics.
#[derive(Debug, Clone)]
pub struct MainOutput {
    /// The (possibly coalesced) score distribution of top-k vectors.
    pub distribution: ScoreDistribution,
    /// Scan depth n actually used (Theorem 2).
    pub scan_depth: usize,
    /// Number of per-segment dynamic programs executed.
    pub segments: usize,
}

/// Runs the main dynamic-programming algorithm and returns the top-k score
/// distribution.
///
/// This is a convenience wrapper streaming the in-memory table through the
/// rank-scan executor; [`topk_score_distribution_streamed`] accepts any
/// [`TupleSource`].
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] when `k == 0` or the probability
/// threshold is outside `(0, 1)`.
pub fn topk_score_distribution(
    table: &UncertainTable,
    k: usize,
    config: &MainConfig,
) -> Result<MainOutput> {
    topk_score_distribution_streamed(&mut TableSource::new(table), k, config)
}

/// Runs the main algorithm against a rank-ordered [`TupleSource`], reading at
/// most one tuple past the Theorem-2 bound.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] for invalid parameters and propagates
/// source errors.
pub fn topk_score_distribution_streamed(
    source: &mut dyn TupleSource,
    k: usize,
    config: &MainConfig,
) -> Result<MainOutput> {
    if k == 0 {
        return Err(Error::InvalidParameter("k must be at least 1".into()));
    }
    let mut gate = ScanGate::new(k, config.p_tau)?;
    let prefix = RankScan::new().collect_prefix(source, &mut gate)?;
    topk_from_prefix(&prefix, k, config, SegmentFanOut::Auto)
}

/// Runs the per-segment dynamic programs over an already-collected scan
/// prefix. Shared by the streaming entry points and the batch
/// [`crate::query::Executor`], which decides where the segments run.
pub(crate) fn topk_from_prefix(
    prefix: &ScanPrefix,
    k: usize,
    config: &MainConfig,
    fan_out: SegmentFanOut,
) -> Result<MainOutput> {
    run_on_prefix_table(&prefix.table, prefix.depth(), k, config, fan_out)
}

/// Estimated work (Σ rows × k × line cap over the segments) under which one
/// query's segment DPs stay on the calling thread. A unit costs roughly
/// 25–70 ns of DP, so the floor is tens of milliseconds of work: small
/// queries keep their one thread to themselves, which matters where other
/// queries run beside them. For scale: a gated k=2 or k=3 query over a
/// 101k-tuple CarTel relation estimates at 0.5–0.8 M, a k=5 query with a
/// 10- or 20-line cap over a 3.3k-tuple one at 0.15 M, and the paper's
/// k=10 and k=20 queries on 60-segment CarTel areas at 10 M and 44 M.
const FAN_OUT_WORK_FLOOR: usize = 2_000_000;

/// The line cap an uncoalesced run (`max_lines == 0`) is costed at.
const UNCAPPED_LINES_ESTIMATE: usize = 200;

/// Where one query's per-segment dynamic programs run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SegmentFanOut {
    /// On every available core when the estimated work clears
    /// [`FAN_OUT_WORK_FLOOR`], on the calling thread otherwise.
    Auto,
    /// Always on the calling thread: batch workers already use the cores.
    Sequential,
    /// On exactly this many workers whatever the work (capped at one per
    /// segment) — the seam the parity tests force the fan-out through.
    #[cfg(test)]
    Forced(usize),
}

impl SegmentFanOut {
    /// How many workers (the calling thread included) run `segments`.
    fn workers(self, segments: &[Range<usize>], k: usize, max_lines: usize) -> usize {
        let wanted = match self {
            SegmentFanOut::Sequential => 1,
            #[cfg(test)]
            SegmentFanOut::Forced(workers) => workers,
            SegmentFanOut::Auto => {
                let lines = if max_lines == 0 {
                    UNCAPPED_LINES_ESTIMATE
                } else {
                    max_lines
                };
                // A segment's rows are at most its end position: one per
                // tuple above it (ME groups compress) plus its own tuples.
                let rows: usize = segments.iter().map(|segment| segment.end).sum();
                if rows.saturating_mul(k).saturating_mul(lines) < FAN_OUT_WORK_FLOOR {
                    1
                } else {
                    std::thread::available_parallelism().map_or(1, |n| n.get())
                }
            }
        };
        wanted.clamp(1, segments.len().max(1))
    }
}

fn run_on_prefix_table(
    working: &UncertainTable,
    depth: usize,
    k: usize,
    config: &MainConfig,
    fan_out: SegmentFanOut,
) -> Result<MainOutput> {
    if working.len() < k {
        // No possible world can contain k tuples from the considered prefix;
        // with a sensible pτ this only happens when the full table itself has
        // fewer than k tuples.
        return Ok(MainOutput {
            distribution: ScoreDistribution::empty(),
            scan_depth: depth,
            segments: 0,
        });
    }

    // A vector's last member sits at position ≥ k-1; segments entirely
    // above that can never host an ending.
    let segments: Vec<Range<usize>> = build_segments(working, config.me_strategy)
        .into_iter()
        .filter(|segment| segment.end >= k)
        .collect();
    let run_segment = |segment: &Range<usize>| {
        let (rows, exits) = build_rows(working, segment.clone());
        engine::run(&rows, &exits, k, config)
    };
    let workers = fan_out.workers(&segments, k, config.max_lines);
    let merged = run_segments(&segments, workers, &run_segment, InOrderMerge::new(config));

    // Witness vectors are assembled in row order, which may interleave rule
    // members out of rank order; restore rank order for presentation.
    let distribution = restore_witness_rank_order(merged, working);

    Ok(MainOutput {
        distribution,
        scan_depth: depth,
        segments: segments.len(),
    })
}

/// Folds per-segment partial distributions into the answer strictly in
/// segment order, with the same merge-and-coalesce sequence whichever
/// thread computed which segment — so the answer is bit-identical to a
/// sequential run. A partial that finishes ahead of its predecessors waits
/// in the reorder buffer `pending`.
struct InOrderMerge {
    distribution: ScoreDistribution,
    next: usize,
    pending: BTreeMap<usize, ScoreDistribution>,
    max_lines: usize,
    policy: CoalescePolicy,
}

impl InOrderMerge {
    fn new(config: &MainConfig) -> Self {
        InOrderMerge {
            distribution: ScoreDistribution::empty(),
            next: 0,
            pending: BTreeMap::new(),
            max_lines: config.max_lines,
            policy: config.coalesce_policy,
        }
    }

    /// Accepts the partial of segment `index` and folds in every partial
    /// that is now next in order.
    fn push(&mut self, index: usize, partial: ScoreDistribution) {
        self.pending.insert(index, partial);
        while let Some(partial) = self.pending.remove(&self.next) {
            // Shifting by 0 and scaling by 1 is exact for every score the
            // engine produces (it never produces -0.0), so this is the plain
            // union of the lines.
            self.distribution
                .merge_shifted_scaled(&partial, 0.0, 1.0, None);
            if self.max_lines > 0 {
                self.distribution.coalesce(self.max_lines, self.policy);
            }
            self.next += 1;
        }
    }
}

/// Runs the segment DPs on `workers` scoped threads, the calling thread
/// being one of them, and returns the merged answer. Every worker runs the
/// same loop: claim the next segment through an atomic cursor, run it, and
/// push the partial into the shared in-order `merge`. One worker spawns no
/// thread.
///
/// Segments are claimed in segment order, the order they are merged in, so
/// the reorder buffer holds about one partial per worker. Claiming the
/// largest (last) segments first would balance the tail slightly better,
/// but every partial would then wait for segment 0, finished last; on the
/// paper's CarTel areas it measured no faster.
fn run_segments(
    segments: &[Range<usize>],
    workers: usize,
    run_segment: &(dyn Fn(&Range<usize>) -> ScoreDistribution + Sync),
    merge: InOrderMerge,
) -> ScoreDistribution {
    let cursor = AtomicUsize::new(0);
    let merge = Mutex::new(merge);
    let work = || loop {
        let index = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(segment) = segments.get(index) else {
            break;
        };
        let partial = run_segment(segment);
        merge
            .lock()
            .expect("a segment worker panicked")
            .push(index, partial);
    };
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(work);
        }
        work();
    });
    merge
        .into_inner()
        .expect("a segment worker panicked")
        .distribution
}

/// Decomposes positions `0..table.len()` into ending segments.
fn build_segments(table: &UncertainTable, strategy: MeStrategy) -> Vec<Range<usize>> {
    match strategy {
        MeStrategy::PerEnding => (0..table.len()).map(|p| p..p + 1).collect(),
        MeStrategy::LeadRegions => {
            let mut segments = Vec::new();
            let mut run_start: Option<usize> = None;
            for pos in 0..table.len() {
                if table.is_lead(pos) {
                    if run_start.is_none() {
                        run_start = Some(pos);
                    }
                } else {
                    if let Some(s) = run_start.take() {
                        segments.push(s..pos);
                    }
                    segments.push(pos..pos + 1);
                }
            }
            if let Some(s) = run_start {
                segments.push(s..table.len());
            }
            segments
        }
    }
}

/// Builds the engine rows and exit flags for one ending segment.
///
/// Rows consist of (a) the tuples ranked above the segment, with every ME
/// group that has two or more members in that prefix compressed into a rule
/// tuple placed at its highest-ranked member, and (b) one simple row per
/// segment position. Members of an ending tuple's own group that are ranked
/// above it are removed entirely (they are automatically absent whenever the
/// ending tuple exists); this situation only arises for single non-lead
/// segments. Exit points are enabled exactly at the segment rows.
///
/// The table's own group index is the group → prefix-members index: member
/// positions are rank-sorted, so a group's members above the segment are a
/// prefix of them. Concurrent segment workers share it read-only.
fn build_rows(table: &UncertainTable, segment: Range<usize>) -> (Vec<DpRow>, Vec<bool>) {
    let start = segment.start;
    // The group of a single non-lead ending tuple: its higher-ranked members
    // must be dropped from the prefix rows. A lead-region segment never has
    // such members (every segment member is the lead of its group).
    let ending_group = if segment.len() == 1 && !table.is_lead(start) {
        Some(table.group_index(start))
    } else {
        None
    };

    let mut rows = Vec::with_capacity(start + segment.len());
    let mut exits = Vec::with_capacity(start + segment.len());
    for pos in 0..start {
        let g = table.group_index(pos);
        // Each group becomes one row, at its lead (highest-ranked member).
        if Some(g) == ending_group || !table.is_lead(pos) {
            continue;
        }
        let positions = table.group_positions(g);
        let members = &positions[..positions.partition_point(|&p| p < start)];
        if members.len() == 1 {
            let t = table.tuple(pos);
            rows.push(DpRow::Simple {
                id: t.id(),
                score: t.score(),
                prob: t.prob(),
            });
        } else {
            rows.push(DpRow::Rule {
                branches: members
                    .iter()
                    .map(|&p| {
                        let t = table.tuple(p);
                        (t.id(), t.score(), t.prob())
                    })
                    .collect(),
            });
        }
        exits.push(false);
    }
    for pos in segment {
        let t = table.tuple(pos);
        rows.push(DpRow::Simple {
            id: t.id(),
            score: t.score(),
            prob: t.prob(),
        });
        exits.push(true);
    }
    (rows, exits)
}

/// Re-sorts every witness vector into table rank order. Multi-id witnesses
/// are rebuilt line by line through [`ScoreDistribution::add_mass`], which
/// also folds a line into an epsilon-equal predecessor and drops a line
/// without mass.
fn restore_witness_rank_order(
    distribution: ScoreDistribution,
    table: &UncertainTable,
) -> ScoreDistribution {
    let needs_fix = distribution
        .points()
        .any(|p| p.witness.is_some_and(|w| w.ids.len() > 1));
    if !needs_fix {
        return distribution;
    }
    let mut rebuilt = ScoreDistribution::empty();
    let mut ids = Vec::new();
    for point in distribution.points() {
        let witness = match point.witness {
            Some(w) => {
                ids.clear();
                ids.extend_from_slice(w.ids);
                ids.sort_by_key(|id| table.position(*id).unwrap_or(usize::MAX));
                Some(VectorWitness {
                    ids: &ids,
                    probability: w.probability,
                })
            }
            None => None,
        };
        rebuilt.add_mass(point.score, point.probability, witness);
    }
    rebuilt
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use ttk_uncertain::{exact_topk_score_distribution, TupleId, UncertainTable, UncertainTuple};

    fn soldier_table() -> UncertainTable {
        UncertainTable::builder()
            .tuple(1u64, 49.0, 0.4)
            .unwrap()
            .tuple(2u64, 60.0, 0.4)
            .unwrap()
            .tuple(3u64, 110.0, 0.4)
            .unwrap()
            .tuple(4u64, 80.0, 0.3)
            .unwrap()
            .tuple(5u64, 56.0, 1.0)
            .unwrap()
            .tuple(6u64, 58.0, 0.5)
            .unwrap()
            .tuple(7u64, 125.0, 0.3)
            .unwrap()
            .me_rule([2u64, 4, 7])
            .me_rule([3u64, 6])
            .build()
            .unwrap()
    }

    fn exact_config() -> MainConfig {
        MainConfig {
            p_tau: 1e-9,
            max_lines: 0,
            ..MainConfig::default()
        }
    }

    fn assert_distributions_match(a: &ScoreDistribution, b: &ScoreDistribution) {
        assert_eq!(a.len(), b.len(), "different number of lines:\n{a:?}\n{b:?}");
        for (pa, pb) in a.points().zip(b.points()) {
            assert!(
                (pa.score - pb.score).abs() < 1e-9,
                "score mismatch {} vs {}",
                pa.score,
                pb.score
            );
            assert!(
                (pa.probability - pb.probability).abs() < 1e-9,
                "probability mismatch at score {}: {} vs {}",
                pa.score,
                pa.probability,
                pb.probability
            );
        }
    }

    #[test]
    fn matches_exhaustive_on_soldier_table_for_all_k() {
        let table = soldier_table();
        for k in 1..=5 {
            let exact = exact_topk_score_distribution(&table, k, 1 << 20).unwrap();
            for strategy in [MeStrategy::LeadRegions, MeStrategy::PerEnding] {
                let mut config = exact_config();
                config.me_strategy = strategy;
                let out = topk_score_distribution(&table, k, &config).unwrap();
                assert_distributions_match(&out.distribution, &exact);
            }
        }
    }

    #[test]
    fn soldier_top2_distribution_matches_figure_3() {
        let table = soldier_table();
        let out = topk_score_distribution(&table, 2, &exact_config()).unwrap();
        let d = &out.distribution;
        assert!((d.total_probability() - 1.0).abs() < 1e-9);
        assert!((d.expected_score() - 164.1).abs() < 0.05);
        // Pr(top-2 score = 235) = 0.12, witnessed by <T7, T3>.
        let p = d.points().find(|p| (p.score - 235.0).abs() < 1e-9).unwrap();
        assert!((p.probability - 0.12).abs() < 1e-9);
        let w = p.witness.unwrap();
        assert_eq!(w.ids, [TupleId(7), TupleId(3)]);
        // Pr(top-2 score = 118) = 0.2, witnessed by <T2, T6> (the U-Top2).
        let p118 = d.points().find(|p| (p.score - 118.0).abs() < 1e-9).unwrap();
        assert!((p118.probability - 0.2).abs() < 1e-9);
        let w = p118.witness.unwrap();
        assert_eq!(w.ids, [TupleId(2), TupleId(6)]);
        // Pr(score > 118) = 0.76 (observation 1 in §1).
        assert!((d.mass_above(118.0) - 0.76).abs() < 1e-9);
    }

    #[test]
    fn independent_tuples_match_exhaustive() {
        let table = UncertainTable::builder()
            .tuple(1u64, 100.0, 0.9)
            .unwrap()
            .tuple(2u64, 90.0, 0.2)
            .unwrap()
            .tuple(3u64, 70.0, 0.6)
            .unwrap()
            .tuple(4u64, 50.0, 0.8)
            .unwrap()
            .tuple(5u64, 30.0, 0.5)
            .unwrap()
            .build()
            .unwrap();
        for k in 1..=4 {
            let exact = exact_topk_score_distribution(&table, k, 1 << 20).unwrap();
            let out = topk_score_distribution(&table, k, &exact_config()).unwrap();
            assert_distributions_match(&out.distribution, &exact);
            // One lead region, therefore exactly one dynamic program.
            assert_eq!(out.segments, 1);
        }
    }

    #[test]
    fn ties_match_exhaustive() {
        // Example 4 of the paper: a tie group of three tuples at score 7 and
        // one at score 8, etc.
        let table = UncertainTable::builder()
            .tuple(1u64, 10.0, 0.5)
            .unwrap()
            .tuple(2u64, 8.0, 0.3)
            .unwrap()
            .tuple(3u64, 8.0, 0.2)
            .unwrap()
            .tuple(4u64, 8.0, 0.1)
            .unwrap()
            .tuple(5u64, 7.0, 0.5)
            .unwrap()
            .tuple(6u64, 7.0, 0.4)
            .unwrap()
            .tuple(7u64, 7.0, 0.2)
            .unwrap()
            .build()
            .unwrap();
        for k in 1..=6 {
            let exact = exact_topk_score_distribution(&table, k, 1 << 20).unwrap();
            let out = topk_score_distribution(&table, k, &exact_config()).unwrap();
            assert_distributions_match(&out.distribution, &exact);
        }
    }

    #[test]
    fn ties_and_me_groups_match_exhaustive() {
        let table = UncertainTable::builder()
            .tuple(1u64, 10.0, 0.5)
            .unwrap()
            .tuple(2u64, 9.0, 0.35)
            .unwrap()
            .tuple(3u64, 9.0, 0.45)
            .unwrap()
            .tuple(4u64, 9.0, 0.3)
            .unwrap()
            .tuple(5u64, 8.0, 0.6)
            .unwrap()
            .tuple(6u64, 7.0, 0.3)
            .unwrap()
            .tuple(7u64, 7.0, 0.2)
            .unwrap()
            .me_rule([2u64, 5])
            .me_rule([3u64, 6, 7])
            .build()
            .unwrap();
        for k in 1..=5 {
            let exact = exact_topk_score_distribution(&table, k, 1 << 20).unwrap();
            for strategy in [MeStrategy::LeadRegions, MeStrategy::PerEnding] {
                let mut config = exact_config();
                config.me_strategy = strategy;
                let out = topk_score_distribution(&table, k, &config).unwrap();
                assert_distributions_match(&out.distribution, &exact);
            }
        }
    }

    #[test]
    fn example_4_configuration_probability() {
        // §3.4 Example 4: Pr(at least 2 of {T5 0.5, T6 0.4, T7 0.2} appear)
        // must be folded into the configuration containing T1, T2, T4.
        let table = UncertainTable::builder()
            .tuple(1u64, 10.0, 0.5)
            .unwrap()
            .tuple(2u64, 8.0, 0.3)
            .unwrap()
            .tuple(3u64, 8.0, 0.2)
            .unwrap()
            .tuple(4u64, 8.0, 0.1)
            .unwrap()
            .tuple(5u64, 7.0, 0.5)
            .unwrap()
            .tuple(6u64, 7.0, 0.4)
            .unwrap()
            .tuple(7u64, 7.0, 0.2)
            .unwrap()
            .build()
            .unwrap();
        let out = topk_score_distribution(&table, 5, &exact_config()).unwrap();
        // Configuration score 10 + 8 + 8 + 7 + 7 = 40 includes several
        // configurations; verify against the exhaustive distribution instead
        // of a single hand-picked line, then check the hand-computed
        // probability from the paper: Pr(c) = 0.5·0.3·(1−0.2)·0.1·0.3 where
        // the last factor is Pr(≥2 of the tie group appear) = 0.3.
        let pr_c = 0.5 * 0.3 * (1.0 - 0.2) * 0.1 * 0.3;
        assert!(pr_c > 0.0);
        let exact = exact_topk_score_distribution(&table, 5, 1 << 20).unwrap();
        assert_distributions_match(&out.distribution, &exact);
    }

    #[test]
    fn streamed_and_materialized_paths_are_bit_identical() {
        let table = soldier_table();
        for k in 1..=5 {
            for p_tau in [1e-9, 0.05] {
                for strategy in [MeStrategy::LeadRegions, MeStrategy::PerEnding] {
                    let config = MainConfig {
                        p_tau,
                        max_lines: 0,
                        me_strategy: strategy,
                        ..MainConfig::default()
                    };
                    // The streamed answer over the whole table against the
                    // streamed answer over the table cut at the scan depth.
                    let full = topk_score_distribution(&table, k, &config).unwrap();
                    let depth = crate::scan_depth::scan_depth(&table, k, p_tau).unwrap();
                    let truncated =
                        topk_score_distribution(&table.truncate(depth), k, &config).unwrap();
                    // PartialEq compares exact f64 values: bit-identical.
                    assert_eq!(full.distribution, truncated.distribution);
                    assert_eq!(full.scan_depth, truncated.scan_depth);
                    assert_eq!(full.segments, truncated.segments);
                }
            }
        }
    }

    #[test]
    fn k_larger_than_table_returns_empty() {
        let table = UncertainTable::builder()
            .tuple(1u64, 10.0, 0.5)
            .unwrap()
            .tuple(2u64, 9.0, 0.5)
            .unwrap()
            .build()
            .unwrap();
        let out = topk_score_distribution(&table, 5, &exact_config()).unwrap();
        assert!(out.distribution.is_empty());
        assert_eq!(out.segments, 0);
    }

    #[test]
    fn k_zero_is_rejected() {
        let table = soldier_table();
        assert!(topk_score_distribution(&table, 0, &exact_config()).is_err());
    }

    #[test]
    fn coalescing_bounds_output_lines_and_keeps_mass() {
        let table = soldier_table();
        let mut config = exact_config();
        config.max_lines = 3;
        let out = topk_score_distribution(&table, 2, &config).unwrap();
        assert!(out.distribution.len() <= 3);
        assert!((out.distribution.total_probability() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pruning_threshold_drops_little_mass() {
        let table = soldier_table();
        let mut config = exact_config();
        config.p_tau = 0.05;
        let out = topk_score_distribution(&table, 2, &config).unwrap();
        // With a coarse threshold the captured mass may shrink, but never by
        // more than ... it should stay close to 1 for this tiny table.
        assert!(out.distribution.total_probability() > 0.9);
        assert!(out.scan_depth <= table.len());
    }

    #[test]
    fn per_ending_and_lead_region_strategies_agree() {
        let table = soldier_table();
        for k in 1..=4 {
            let lead = topk_score_distribution(
                &table,
                k,
                &MainConfig {
                    me_strategy: MeStrategy::LeadRegions,
                    ..exact_config()
                },
            )
            .unwrap();
            let per = topk_score_distribution(
                &table,
                k,
                &MainConfig {
                    me_strategy: MeStrategy::PerEnding,
                    ..exact_config()
                },
            )
            .unwrap();
            assert_distributions_match(&lead.distribution, &per.distribution);
            assert!(per.segments >= lead.segments);
        }
    }

    /// Runs the streaming main algorithm with an explicit segment fan-out.
    fn run_with(
        table: &UncertainTable,
        k: usize,
        config: &MainConfig,
        fan_out: SegmentFanOut,
    ) -> MainOutput {
        let mut gate = ScanGate::new(k, config.p_tau).unwrap();
        let prefix = RankScan::new()
            .collect_prefix(&mut TableSource::new(table), &mut gate)
            .unwrap();
        topk_from_prefix(&prefix, k, config, fan_out).unwrap()
    }

    /// Random tables with score ties (a small integer score range) and
    /// greedy ME groups of up to `max_group` members.
    fn tables(tuples: std::ops::Range<usize>) -> impl Strategy<Value = UncertainTable> {
        let tuple = (0u64..1000, 0i32..8, 1u32..=10);
        (proptest::collection::vec(tuple, tuples), 1usize..5).prop_map(|(mut raw, max_group)| {
            raw.sort_by_key(|r| r.0);
            raw.dedup_by_key(|r| r.0);
            let tuples: Vec<UncertainTuple> = raw
                .iter()
                .map(|&(id, score, p)| UncertainTuple::new(id, score as f64, p as f64 / 10.0))
                .collect::<ttk_uncertain::Result<_>>()
                .unwrap();
            let mut rules: Vec<Vec<TupleId>> = Vec::new();
            let mut current: Vec<TupleId> = Vec::new();
            let mut mass = 0.0;
            for t in &tuples {
                if current.len() < max_group && mass + t.prob() <= 1.0 {
                    current.push(t.id());
                    mass += t.prob();
                } else {
                    rules.push(std::mem::replace(&mut current, vec![t.id()]));
                    mass = t.prob();
                }
            }
            rules.push(current);
            rules.retain(|rule| rule.len() > 1);
            UncertainTable::new(tuples, rules).unwrap()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Segments fanned out over several workers and merged in order give
        /// the sequential answer bit for bit, and both match the
        /// possible-world oracle.
        #[test]
        fn fanned_out_segments_match_sequential_and_the_oracle(
            table in tables(1..10),
            k in 1usize..5,
            workers in 2usize..5,
        ) {
            let exact = exact_topk_score_distribution(&table, k, 1 << 24).unwrap();
            for me_strategy in [MeStrategy::LeadRegions, MeStrategy::PerEnding] {
                let config = MainConfig { me_strategy, ..exact_config() };
                let sequential = run_with(&table, k, &config, SegmentFanOut::Sequential);
                let fanned = run_with(&table, k, &config, SegmentFanOut::Forced(workers));
                prop_assert_eq!(&fanned.distribution, &sequential.distribution);
                prop_assert_eq!(fanned.segments, sequential.segments);
                prop_assert_eq!(fanned.scan_depth, sequential.scan_depth);
                assert_distributions_match(&fanned.distribution, &exact);
            }
        }

        /// With pruning and a tight line cap every merge coalesces, so the
        /// answer depends on the merge order: the fan-out must still fold the
        /// partials in segment order.
        #[test]
        fn fanned_out_segments_coalesce_in_segment_order(
            table in tables(10..60),
            k in 1usize..6,
            workers in 2usize..5,
            max_lines in 1usize..6,
        ) {
            for me_strategy in [MeStrategy::LeadRegions, MeStrategy::PerEnding] {
                let config = MainConfig {
                    max_lines,
                    me_strategy,
                    ..MainConfig::default()
                };
                let sequential = run_with(&table, k, &config, SegmentFanOut::Sequential);
                let fanned = run_with(&table, k, &config, SegmentFanOut::Forced(workers));
                prop_assert_eq!(&fanned.distribution, &sequential.distribution);
                prop_assert_eq!(fanned.segments, sequential.segments);
                prop_assert_eq!(fanned.scan_depth, sequential.scan_depth);
            }
        }
    }

    #[test]
    fn small_queries_stay_on_the_calling_thread() {
        // Segment end positions shaped like the real queries: Σ end over the
        // segments is what the work estimate charges per k and line.
        let shape = |segments: usize, rows: usize| -> Vec<Range<usize>> {
            (0..segments)
                .map(|i| {
                    let end = (rows * (i + 1) * 2 / (segments * (segments + 1))).max(1);
                    end - 1..end
                })
                .collect()
        };
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        // A gated remote k=3 query (19 segments, Σ end 1368, 200 lines).
        let remote = shape(19, 1368);
        assert_eq!(SegmentFanOut::Auto.workers(&remote, 3, 200), 1);
        // A serving daemon's 20-line cache miss at k=5 (30 segments, Σ 1416).
        let miss = shape(30, 1416);
        assert_eq!(SegmentFanOut::Auto.workers(&miss, 5, 20), 1);
        // The paper's k=10 on a 60-segment CarTel area fans out.
        let paper = shape(75, 4991);
        assert_eq!(SegmentFanOut::Auto.workers(&paper, 10, 200), cores.min(75));
        // Never more workers than segments; never fanned out when told not to.
        assert_eq!(SegmentFanOut::Auto.workers(&paper[..1], 10, 200), 1);
        assert_eq!(SegmentFanOut::Sequential.workers(&paper, 20, 200), 1);
        assert_eq!(SegmentFanOut::Forced(8).workers(&paper[..3], 1, 1), 3);
        assert_eq!(SegmentFanOut::Forced(2).workers(&[], 1, 1), 1);
    }
}
