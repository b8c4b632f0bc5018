//! Probability mass functions over top-k total scores.
//!
//! The complete answer to a top-k query on uncertain data is a joint
//! distribution over k-tuple vectors; the paper's proposal is to expose the
//! induced distribution over *total scores* (a one-dimensional PMF), plus one
//! witness vector per score. [`ScoreDistribution`] is that object. It also
//! implements the *line coalescing* approximation of §3.2.1 that keeps
//! intermediate and final distributions at a bounded number of points.

use crate::tuple::TupleId;
use crate::vector::TopkVector;

/// Relative tolerance under which two scores are considered the same line of
/// the PMF (guards against floating point dust produced by different
/// summation orders).
const SCORE_MERGE_EPSILON: f64 = 1e-9;

/// Returns true when two total scores should be treated as the same value.
#[inline]
pub fn scores_equal(a: f64, b: f64) -> bool {
    let scale = 1.0_f64.max(a.abs()).max(b.abs());
    (a - b).abs() <= SCORE_MERGE_EPSILON * scale
}

/// How two coalesced lines combine into one (§3.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CoalescePolicy {
    /// The paper's rule: the merged score is the plain average of the two
    /// scores and the probability is their sum.
    #[default]
    PaperMean,
    /// A slight refinement: the merged score is the probability-weighted
    /// average, which preserves the expectation of the distribution exactly.
    WeightedMean,
}

/// The most probable top-k vector attaining a given total score.
#[derive(Debug, Clone, PartialEq)]
pub struct VectorWitness {
    /// Tuple ids of the witness vector in rank order.
    pub ids: Vec<TupleId>,
    /// Probability that this exact vector is the top-k vector.
    pub probability: f64,
}

impl VectorWitness {
    /// An empty witness (used as the seed of dynamic programs).
    pub fn empty() -> Self {
        VectorWitness {
            ids: Vec::new(),
            probability: 1.0,
        }
    }

    /// Converts the witness into a full [`TopkVector`] given its total score.
    pub fn to_vector(&self, total_score: f64) -> TopkVector {
        TopkVector::new(self.ids.clone(), total_score, self.probability)
    }
}

/// One vertical line of the PMF: a total score, the probability that the
/// top-k vector has that total score, and optionally the most probable
/// vector attaining it.
#[derive(Debug, Clone, PartialEq)]
pub struct DistributionPoint {
    /// Total score of the top-k vector.
    pub score: f64,
    /// Probability mass at this score.
    pub probability: f64,
    /// Most probable single vector attaining this score, when tracked.
    pub witness: Option<VectorWitness>,
}

/// A histogram view of a [`ScoreDistribution`] at a caller-chosen bucket
/// width (usage (1) of §2.2: "an application can access the distribution at
/// any granularity of precision").
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Inclusive lower bound of the first bucket.
    pub start: f64,
    /// Width of every bucket.
    pub width: f64,
    /// Probability mass per bucket.
    pub buckets: Vec<f64>,
}

impl Histogram {
    /// The inclusive lower edge of bucket `i`.
    pub fn bucket_start(&self, i: usize) -> f64 {
        self.start + self.width * i as f64
    }

    /// Total mass captured by the histogram.
    pub fn total(&self) -> f64 {
        self.buckets.iter().sum()
    }
}

/// A discrete probability distribution over top-k total scores.
///
/// Points are kept sorted by score. The distribution is *not* required to sum
/// to one: pruning thresholds (pτ), possible worlds with fewer than `k`
/// tuples, and line coalescing all legitimately leave the captured mass
/// slightly below one. Use [`total_probability`](Self::total_probability) to
/// inspect the captured mass and [`normalize`](Self::normalize) to rescale.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScoreDistribution {
    points: Vec<DistributionPoint>,
}

impl ScoreDistribution {
    /// The empty distribution (no mass). Merging it into another distribution
    /// is a no-op; it is also the "blocked exit point" of §3.3.2.
    pub fn empty() -> Self {
        ScoreDistribution { points: Vec::new() }
    }

    /// The unit distribution: score 0 with probability 1 and an empty witness
    /// vector. This is the "enabled exit point" / auxiliary column-0 cell of
    /// the dynamic program (§3.2).
    pub fn unit() -> Self {
        ScoreDistribution {
            points: vec![DistributionPoint {
                score: 0.0,
                probability: 1.0,
                witness: Some(VectorWitness::empty()),
            }],
        }
    }

    /// A distribution with a single point.
    pub fn singleton(score: f64, probability: f64, witness: Option<VectorWitness>) -> Self {
        ScoreDistribution {
            points: vec![DistributionPoint {
                score,
                probability,
                witness,
            }],
        }
    }

    /// Builds a distribution from `(score, probability)` pairs (no witnesses).
    pub fn from_pairs<I: IntoIterator<Item = (f64, f64)>>(pairs: I) -> Self {
        let mut d = ScoreDistribution::empty();
        for (s, p) in pairs {
            d.add_mass(s, p, None);
        }
        d
    }

    /// Reconstructs a distribution from score lines produced by
    /// [`points`](Self::points) elsewhere (the wire codec) — **verbatim**, no
    /// sorting and no coalescing, so the reconstruction is bit-identical to
    /// the original. The caller asserts the points are in ascending score
    /// order; routing arbitrary lines through [`add_mass`](Self::add_mass)
    /// instead keeps the ordering invariant but may merge epsilon-close
    /// scores, which is exactly what a bit-exact transport must not do.
    pub fn from_points(points: Vec<DistributionPoint>) -> Self {
        ScoreDistribution { points }
    }

    /// Number of distinct score lines.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the distribution carries no mass.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The score lines in ascending score order.
    #[inline]
    pub fn points(&self) -> &[DistributionPoint] {
        &self.points
    }

    /// Iterates over `(score, probability)` pairs in ascending score order.
    pub fn pairs(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.points.iter().map(|p| (p.score, p.probability))
    }

    /// Adds probability mass at a score, merging with an existing line when
    /// the scores are equal (keeping the more probable witness).
    pub fn add_mass(&mut self, score: f64, probability: f64, witness: Option<VectorWitness>) {
        if probability <= 0.0 {
            return;
        }
        match self.points.binary_search_by(|p| p.score.total_cmp(&score)) {
            Ok(i) => {
                self.points[i].probability += probability;
                Self::keep_better_witness(&mut self.points[i].witness, witness);
            }
            Err(i) => {
                // Check the neighbours for epsilon-equality before inserting.
                if i > 0 && scores_equal(self.points[i - 1].score, score) {
                    self.points[i - 1].probability += probability;
                    Self::keep_better_witness(&mut self.points[i - 1].witness, witness);
                } else if i < self.points.len() && scores_equal(self.points[i].score, score) {
                    self.points[i].probability += probability;
                    Self::keep_better_witness(&mut self.points[i].witness, witness);
                } else {
                    self.points.insert(
                        i,
                        DistributionPoint {
                            score,
                            probability,
                            witness,
                        },
                    );
                }
            }
        }
    }

    fn keep_better_witness(slot: &mut Option<VectorWitness>, candidate: Option<VectorWitness>) {
        match (slot.as_ref(), candidate) {
            (_, None) => {}
            (None, Some(c)) => *slot = Some(c),
            (Some(cur), Some(c)) => {
                if c.probability > cur.probability {
                    *slot = Some(c);
                }
            }
        }
    }

    /// Returns a copy with every score shifted by `delta` and every
    /// probability (point and witness) multiplied by `factor`; `prepend`, when
    /// given, is pushed onto the front of every witness vector.
    ///
    /// This is exactly step (2) of the distribution merging process of §3.2
    /// (and, with `delta = 0`, `prepend = None`, step (1)).
    pub fn shifted_scaled(&self, delta: f64, factor: f64, prepend: Option<TupleId>) -> Self {
        if factor <= 0.0 {
            return ScoreDistribution::empty();
        }
        let points = self
            .points
            .iter()
            .map(|p| DistributionPoint {
                score: p.score + delta,
                probability: p.probability * factor,
                witness: p.witness.as_ref().map(|w| {
                    let mut ids = Vec::with_capacity(w.ids.len() + usize::from(prepend.is_some()));
                    if let Some(id) = prepend {
                        ids.push(id);
                    }
                    ids.extend_from_slice(&w.ids);
                    VectorWitness {
                        ids,
                        probability: w.probability * factor,
                    }
                }),
            })
            .collect();
        ScoreDistribution { points }
    }

    /// Merges another distribution into this one (step (3) of §3.2): the
    /// union of the lines, with equal scores combined by summing their
    /// probabilities and keeping the more probable witness.
    pub fn merge_from(&mut self, other: &ScoreDistribution) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            *self = other.clone();
            return;
        }
        let mut merged = Vec::with_capacity(self.points.len() + other.points.len());
        let mut a = std::mem::take(&mut self.points).into_iter().peekable();
        let mut b = other.points.iter().cloned().peekable();
        while let (Some(pa), Some(pb)) = (a.peek(), b.peek()) {
            if scores_equal(pa.score, pb.score) {
                let mut pa = a.next().unwrap();
                let pb = b.next().unwrap();
                pa.probability += pb.probability;
                Self::keep_better_witness(&mut pa.witness, pb.witness);
                merged.push(pa);
            } else if pa.score < pb.score {
                merged.push(a.next().unwrap());
            } else {
                merged.push(b.next().unwrap());
            }
        }
        merged.extend(a);
        merged.extend(b);
        self.points = merged;
    }

    /// Total probability mass captured by the distribution.
    pub fn total_probability(&self) -> f64 {
        self.points.iter().map(|p| p.probability).sum()
    }

    /// Rescales the distribution so it sums to one. No-op on empty
    /// distributions.
    pub fn normalize(&mut self) {
        let total = self.total_probability();
        if total > 0.0 {
            for p in &mut self.points {
                p.probability /= total;
            }
        }
    }

    /// Smallest score carrying mass.
    pub fn min_score(&self) -> Option<f64> {
        self.points.first().map(|p| p.score)
    }

    /// Largest score carrying mass.
    pub fn max_score(&self) -> Option<f64> {
        self.points.last().map(|p| p.score)
    }

    /// The score with the largest probability mass (the mode).
    pub fn mode(&self) -> Option<&DistributionPoint> {
        self.points
            .iter()
            .max_by(|a, b| a.probability.total_cmp(&b.probability))
    }

    /// Expected total score, conditioned on the captured mass.
    pub fn expected_score(&self) -> f64 {
        let total = self.total_probability();
        if total <= 0.0 {
            return 0.0;
        }
        self.points
            .iter()
            .map(|p| p.score * p.probability)
            .sum::<f64>()
            / total
    }

    /// Variance of the total score, conditioned on the captured mass.
    pub fn variance(&self) -> f64 {
        let total = self.total_probability();
        if total <= 0.0 {
            return 0.0;
        }
        let mean = self.expected_score();
        self.points
            .iter()
            .map(|p| (p.score - mean).powi(2) * p.probability)
            .sum::<f64>()
            / total
    }

    /// Standard deviation of the total score.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Probability that the total score is at most `x` (unnormalized CDF).
    pub fn cdf(&self, x: f64) -> f64 {
        self.points
            .iter()
            .take_while(|p| p.score <= x)
            .map(|p| p.probability)
            .sum()
    }

    /// The smallest score `s` such that the normalized CDF at `s` is at least
    /// `q` (`q ∈ [0, 1]`). Returns `None` on an empty distribution.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let total = self.total_probability();
        let mut acc = 0.0;
        for p in &self.points {
            acc += p.probability;
            if acc / total >= q - 1e-12 {
                return Some(p.score);
            }
        }
        self.max_score()
    }

    /// Probability mass with a score strictly greater than `x`.
    pub fn mass_above(&self, x: f64) -> f64 {
        self.points
            .iter()
            .rev()
            .take_while(|p| p.score > x)
            .map(|p| p.probability)
            .sum()
    }

    /// Builds a histogram with the given bucket width (usage (1) of §2.2).
    /// Returns `None` on an empty distribution or a non-positive width.
    pub fn histogram(&self, bucket_width: f64) -> Option<Histogram> {
        if self.is_empty() || bucket_width <= 0.0 || !bucket_width.is_finite() {
            return None;
        }
        let lo = self.min_score()?;
        let hi = self.max_score()?;
        let n = (((hi - lo) / bucket_width).floor() as usize) + 1;
        let mut buckets = vec![0.0; n];
        for p in &self.points {
            let mut idx = ((p.score - lo) / bucket_width).floor() as usize;
            if idx >= n {
                idx = n - 1;
            }
            buckets[idx] += p.probability;
        }
        Some(Histogram {
            start: lo,
            width: bucket_width,
            buckets,
        })
    }

    /// Expected distance from a random score drawn from this distribution to
    /// the closest score in `representatives` — the objective minimized by
    /// the c-Typical-Topk scores (Definition 1). The expectation is taken
    /// over the captured (unnormalized) mass, matching the paper's objective.
    pub fn expected_min_distance(&self, representatives: &[f64]) -> f64 {
        if representatives.is_empty() {
            return f64::INFINITY;
        }
        self.points
            .iter()
            .map(|p| {
                let d = representatives
                    .iter()
                    .map(|r| (p.score - r).abs())
                    .fold(f64::INFINITY, f64::min);
                d * p.probability
            })
            .sum()
    }

    /// First-order Wasserstein (earth mover's) distance between two
    /// distributions, treating both as normalized. A convenient scalar for
    /// comparing an approximate (coalesced or pruned) distribution against an
    /// exact one.
    pub fn earth_movers_distance(&self, other: &ScoreDistribution) -> f64 {
        if self.is_empty() || other.is_empty() {
            return if self.is_empty() && other.is_empty() {
                0.0
            } else {
                f64::INFINITY
            };
        }
        let ta = self.total_probability();
        let tb = other.total_probability();
        // Walk the union of the supports accumulating |CDF_a - CDF_b|.
        let mut grid: Vec<f64> = self
            .points
            .iter()
            .map(|p| p.score)
            .chain(other.points.iter().map(|p| p.score))
            .collect();
        grid.sort_by(|a, b| a.total_cmp(b));
        grid.dedup_by(|a, b| scores_equal(*a, *b));
        let mut ia = 0;
        let mut ib = 0;
        let mut cdf_a = 0.0;
        let mut cdf_b = 0.0;
        let mut dist = 0.0;
        for w in grid.windows(2) {
            let (x0, x1) = (w[0], w[1]);
            while ia < self.points.len() && self.points[ia].score <= x0 + 1e-15 {
                cdf_a += self.points[ia].probability / ta;
                ia += 1;
            }
            while ib < other.points.len() && other.points[ib].score <= x0 + 1e-15 {
                cdf_b += other.points[ib].probability / tb;
                ib += 1;
            }
            dist += (cdf_a - cdf_b).abs() * (x1 - x0);
        }
        dist
    }

    /// Coalesces lines until at most `max_lines` remain (§3.2.1): repeatedly
    /// merge the two closest-in-score neighbouring lines. Under
    /// [`CoalescePolicy::PaperMean`] the merged score is the plain average of
    /// the two (the paper's rule); under
    /// [`CoalescePolicy::WeightedMean`] it is the probability-weighted
    /// average. In both cases probabilities add and the more probable witness
    /// is kept.
    pub fn coalesce(&mut self, max_lines: usize, policy: CoalescePolicy) {
        if max_lines == 0 || self.points.len() <= max_lines {
            return;
        }
        // The number of merges needed is small in steady state (the DP calls
        // this after every merge step), so a scan-for-minimum loop is
        // adequate and allocation free.
        while self.points.len() > max_lines {
            let mut best = 0;
            let mut best_gap = f64::INFINITY;
            for i in 0..self.points.len() - 1 {
                let gap = self.points[i + 1].score - self.points[i].score;
                if gap < best_gap {
                    best_gap = gap;
                    best = i;
                }
            }
            let right = self.points.remove(best + 1);
            let left = &mut self.points[best];
            let merged_prob = left.probability + right.probability;
            left.score = match policy {
                CoalescePolicy::PaperMean => (left.score + right.score) / 2.0,
                CoalescePolicy::WeightedMean => {
                    (left.score * left.probability + right.score * right.probability) / merged_prob
                }
            };
            left.probability = merged_prob;
            Self::keep_better_witness(&mut left.witness, right.witness);
        }
    }

    /// Returns the witness vectors as full [`TopkVector`]s, one per line that
    /// has a witness, in ascending score order.
    pub fn witness_vectors(&self) -> Vec<TopkVector> {
        self.points
            .iter()
            .filter_map(|p| p.witness.as_ref().map(|w| w.to_vector(p.score)))
            .collect()
    }

    /// The point whose score is closest to `score`.
    pub fn nearest_point(&self, score: f64) -> Option<&DistributionPoint> {
        self.points
            .iter()
            .min_by(|a, b| (a.score - score).abs().total_cmp(&(b.score - score).abs()))
    }
}

/// A columnar (structure-of-arrays) working set for the dynamic program's
/// inner loop: scores, probabilities and witnesses held in parallel columns
/// instead of a `Vec` of [`DistributionPoint`]s.
///
/// The array-of-structs layout of [`ScoreDistribution`] is the right shape
/// for consumers — every point carries its witness — but the recurrence of
/// §3.2 touches millions of cells, and there the layout is hostile: the
/// exclude branch clones every point (witness vectors included) just to scale
/// the probabilities, and the include branch materializes a shifted/scaled
/// copy that the subsequent merge immediately tears apart again. The columnar
/// form fixes both:
///
/// * [`scale_in_place`](Self::scale_in_place) multiplies the probability
///   columns in place — a branch-free pass over contiguous `f64`s the
///   compiler auto-vectorizes, with no allocation at all;
/// * [`merge_shifted_scaled`](Self::merge_shifted_scaled) fuses steps (2) and
///   (3) of §3.2 into one sorted-union pass that computes shifted scores and
///   scaled probabilities on the fly and copies a witness's ids only for
///   lines that actually survive the merge;
/// * [`coalesce`](Self::coalesce) scans for the closest pair over the
///   contiguous score column instead of striding through 40-byte points.
///
/// Witnesses are flat columns too. Every line of a DP cell D_{i,j} carries
/// exactly `j` ids, so the ids of all lines sit back to back in one
/// `Vec<TupleId>` at a fixed stride, beside a witness-probability column.
/// Extending, keeping or moving a witness is a slice copy; no line owns an
/// allocation. [`into_distribution`](Self::into_distribution) builds one
/// [`VectorWitness`] per surviving line, once, at the end.
///
/// Every operation performs the floating-point arithmetic in exactly the
/// order of the equivalent [`ScoreDistribution`] calls
/// ([`shifted_scaled`](ScoreDistribution::shifted_scaled) followed by
/// [`merge_from`](ScoreDistribution::merge_from), and
/// [`coalesce`](ScoreDistribution::coalesce)), so results are bit-identical
/// to the scalar path — no reassociation, no fused multiply-adds.
///
/// Witness tracking is all-or-nothing: the witness columns are either empty
/// (witnesses disabled) or hold one witness per score line, all of the same
/// length. Mixing a tracked operand with an untracked one is unsupported
/// (debug-asserted); merging witnesses of another length into a non-empty
/// set panics (see [`merge_shifted_scaled`](Self::merge_shifted_scaled)).
///
/// ```
/// use ttk_uncertain::ScoreColumns;
///
/// // D = 0.3 · unit  ∪  (unit shifted by 5.0, scaled by 0.7)
/// let unit = ScoreColumns::unit(false);
/// let mut d = unit.clone();
/// d.scale_in_place(0.3);
/// d.merge_shifted_scaled(&unit, 5.0, 0.7, None);
/// let dist = d.into_distribution();
/// assert_eq!(dist.pairs().collect::<Vec<_>>(), vec![(0.0, 0.3), (5.0, 0.7)]);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScoreColumns {
    /// Total scores, ascending.
    scores: Vec<f64>,
    /// Probability mass per score line (parallel to `scores`).
    probs: Vec<f64>,
    /// Witness probability per score line: parallel to `scores` when
    /// witnesses are tracked, empty otherwise.
    witness_probs: Vec<f64>,
    /// The witness ids of every line back to back, `stride` per line.
    witness_ids: Vec<TupleId>,
    /// Ids per witness (the `j` of the cell).
    stride: usize,
}

/// One candidate pair in the coalescing heap: the gap between line `left`
/// and its right neighbour at the time the entry was pushed. Ordered by
/// `(gap, left)` so the heap pops exactly the pair the scan-for-minimum loop
/// would pick (leftmost on equal gaps); `stamp` detects stale entries.
#[derive(Debug, PartialEq)]
struct GapEntry {
    gap: f64,
    left: u32,
    stamp: u32,
}

impl Eq for GapEntry {}

impl PartialOrd for GapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for GapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.gap
            .total_cmp(&other.gap)
            .then(self.left.cmp(&other.left))
            .then(self.stamp.cmp(&other.stamp))
    }
}

impl ScoreColumns {
    /// The empty working set (no mass) — the engine's initial cell value and
    /// the "blocked exit point" of §3.3.2.
    pub fn empty() -> Self {
        ScoreColumns::default()
    }

    /// The unit distribution (score 0, probability 1): the enabled exit point
    /// of the dynamic program. With `track_witnesses` the single line carries
    /// an empty witness vector for the recurrence to extend.
    pub fn unit(track_witnesses: bool) -> Self {
        ScoreColumns {
            scores: vec![0.0],
            probs: vec![1.0],
            witness_probs: if track_witnesses {
                vec![1.0]
            } else {
                Vec::new()
            },
            witness_ids: Vec::new(),
            stride: 0,
        }
    }

    /// Number of score lines.
    #[inline]
    pub fn len(&self) -> usize {
        self.scores.len()
    }

    /// True when the working set carries no mass.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }

    /// Drops every line, keeping the allocated capacity.
    pub fn clear(&mut self) {
        self.scores.clear();
        self.probs.clear();
        self.witness_probs.clear();
        self.witness_ids.clear();
    }

    /// True when the lines carry witnesses.
    #[inline]
    fn tracked(&self) -> bool {
        !self.witness_probs.is_empty()
    }

    /// The witness ids of line `line`.
    #[inline]
    fn witness(&self, line: usize) -> &[TupleId] {
        &self.witness_ids[line * self.stride..(line + 1) * self.stride]
    }

    /// Checks the column invariants: parallel columns, and one witness of
    /// `stride` ids per line when tracked.
    #[inline]
    fn debug_assert_shape(&self) {
        debug_assert_eq!(self.scores.len(), self.probs.len());
        debug_assert!(self.witness_probs.is_empty() || self.witness_probs.len() == self.len());
        debug_assert_eq!(
            self.witness_ids.len(),
            self.witness_probs.len() * self.stride,
            "every witness of one cell has the same length"
        );
    }

    /// Scales every probability (line and witness) by `factor` in place — the
    /// exclude branch of the recurrence. Equivalent to
    /// [`ScoreDistribution::shifted_scaled`]`(0.0, factor, None)` including
    /// its `score + 0.0` normalization of negative zeros, but with no
    /// allocation: the probability columns are multiplied in branch-free
    /// passes over contiguous `f64`s. A non-positive `factor` empties the set.
    pub fn scale_in_place(&mut self, factor: f64) {
        if factor <= 0.0 {
            self.clear();
            return;
        }
        for s in &mut self.scores {
            *s += 0.0;
        }
        for p in &mut self.probs {
            *p *= factor;
        }
        for p in &mut self.witness_probs {
            *p *= factor;
        }
    }

    /// Merges `below` — shifted by `delta`, scaled by `factor`, with
    /// `prepend` pushed onto the front of every witness — into `self`: the
    /// include branch of the recurrence, i.e. steps (2) and (3) of §3.2 fused
    /// into a single sorted-union pass.
    ///
    /// Bit-identical to `self.merge_from(&below.shifted_scaled(delta, factor,
    /// prepend))` on the equivalent [`ScoreDistribution`]s: shifted scores
    /// and scaled probabilities are computed on the fly in the same order,
    /// equal lines (under [`scores_equal`]) sum as `self + below` and keep
    /// the strictly more probable witness. The difference is purely
    /// mechanical — no intermediate shifted copy exists, and a `below`
    /// witness's ids are only copied for lines that survive the merge.
    ///
    /// # Panics
    ///
    /// When both sets are non-empty and tracked, and `below`'s witnesses
    /// (one id longer with `prepend`) differ in length from `self`'s: all
    /// witnesses of one set share one length.
    pub fn merge_shifted_scaled(
        &mut self,
        below: &ScoreColumns,
        delta: f64,
        factor: f64,
        prepend: Option<TupleId>,
    ) {
        if factor <= 0.0 || below.is_empty() {
            return;
        }
        let tracked = below.tracked();
        let stride = below.stride + usize::from(prepend.is_some());
        debug_assert!(
            self.is_empty() || self.tracked() == tracked,
            "mixing witness-tracked and untracked operands"
        );
        assert!(
            self.is_empty() || !tracked || self.stride == stride,
            "merging witnesses of {stride} ids into a cell of {}-id witnesses",
            self.stride
        );
        if self.is_empty() {
            self.scores.extend(below.scores.iter().map(|s| s + delta));
            self.probs.extend(below.probs.iter().map(|p| p * factor));
            self.stride = stride;
            if tracked {
                self.witness_probs
                    .extend(below.witness_probs.iter().map(|p| p * factor));
                self.witness_ids.reserve(below.len() * stride);
                for ib in 0..below.len() {
                    self.witness_ids.extend(prepend);
                    self.witness_ids.extend_from_slice(below.witness(ib));
                }
            }
            self.debug_assert_shape();
            return;
        }
        let (a_len, b_len) = (self.len(), below.len());
        let lines = a_len + b_len;
        let mut scores = Vec::with_capacity(lines);
        let mut probs = Vec::with_capacity(lines);
        let (mut witness_probs, mut witness_ids) = if tracked {
            (
                Vec::with_capacity(lines),
                Vec::with_capacity(lines * stride),
            )
        } else {
            (Vec::new(), Vec::new())
        };
        // Witness of a line of `self` (kept as is) or of `below` (scaled,
        // with `prepend` in front).
        let keep_a = |ia: usize, wp: &mut Vec<f64>, ids: &mut Vec<TupleId>| {
            wp.push(self.witness_probs[ia]);
            ids.extend_from_slice(self.witness(ia));
        };
        let take_b = |ib: usize, wp: &mut Vec<f64>, ids: &mut Vec<TupleId>| {
            wp.push(below.witness_probs[ib] * factor);
            ids.extend(prepend);
            ids.extend_from_slice(below.witness(ib));
        };
        let (mut ia, mut ib) = (0, 0);
        while ia < a_len && ib < b_len {
            let a_score = self.scores[ia];
            let b_score = below.scores[ib] + delta;
            if scores_equal(a_score, b_score) {
                scores.push(a_score);
                probs.push(self.probs[ia] + below.probs[ib] * factor);
                if tracked {
                    if below.witness_probs[ib] * factor > self.witness_probs[ia] {
                        take_b(ib, &mut witness_probs, &mut witness_ids);
                    } else {
                        keep_a(ia, &mut witness_probs, &mut witness_ids);
                    }
                }
                ia += 1;
                ib += 1;
            } else if a_score < b_score {
                scores.push(a_score);
                probs.push(self.probs[ia]);
                if tracked {
                    keep_a(ia, &mut witness_probs, &mut witness_ids);
                }
                ia += 1;
            } else {
                scores.push(b_score);
                probs.push(below.probs[ib] * factor);
                if tracked {
                    take_b(ib, &mut witness_probs, &mut witness_ids);
                }
                ib += 1;
            }
        }
        scores.extend_from_slice(&self.scores[ia..]);
        probs.extend_from_slice(&self.probs[ia..]);
        if tracked {
            witness_probs.extend_from_slice(&self.witness_probs[ia..]);
            witness_ids.extend_from_slice(&self.witness_ids[ia * self.stride..]);
        }
        for ib in ib..b_len {
            scores.push(below.scores[ib] + delta);
            probs.push(below.probs[ib] * factor);
            if tracked {
                take_b(ib, &mut witness_probs, &mut witness_ids);
            }
        }
        self.scores = scores;
        self.probs = probs;
        self.witness_probs = witness_probs;
        self.witness_ids = witness_ids;
        self.debug_assert_shape();
    }

    /// Coalesces lines until at most `max_lines` remain — the columnar
    /// equivalent of [`ScoreDistribution::coalesce`], merging the same pairs
    /// in the same order with the same arithmetic (bit-identical results).
    ///
    /// Two implementations with identical output are dispatched on size. For
    /// a handful of merges the scalar rescan-after-every-merge loop wins: the
    /// scan is a branch-light pass over the contiguous score column and
    /// allocates nothing. Past the crossover the lazy min-heap version takes
    /// over, dropping the cost from O((n − max)·n) to O(n log n) — the
    /// difference between the dynamic program spending its time rescanning
    /// for the closest pair and spending it on actual convolution.
    pub fn coalesce(&mut self, max_lines: usize, policy: CoalescePolicy) {
        if max_lines == 0 || self.len() <= max_lines {
            return;
        }
        // Scan cost ~ excess·n, heap cost ~ (n + excess)·log n plus five
        // allocations; the constant below puts the crossover where the two
        // measure about even.
        if (self.len() - max_lines) * self.len() < 8192 {
            self.coalesce_scan(max_lines, policy);
        } else {
            self.coalesce_heap(max_lines, policy);
        }
        self.debug_assert_shape();
    }

    /// Moves the witness of line `from` over the witness of line `to`.
    #[inline]
    fn copy_witness(&mut self, from: usize, to: usize) {
        self.witness_probs[to] = self.witness_probs[from];
        let s = self.stride;
        self.witness_ids
            .copy_within(from * s..(from + 1) * s, to * s);
    }

    /// The allocation-free scan-for-minimum coalescing loop: optimal for a
    /// small number of merges over a short score column.
    fn coalesce_scan(&mut self, max_lines: usize, policy: CoalescePolicy) {
        let tracked = self.tracked();
        while self.len() > max_lines {
            let mut best = 0;
            let mut best_gap = f64::INFINITY;
            for i in 0..self.scores.len() - 1 {
                let gap = self.scores[i + 1] - self.scores[i];
                if gap < best_gap {
                    best_gap = gap;
                    best = i;
                }
            }
            let right = best + 1;
            let right_score = self.scores.remove(right);
            let right_prob = self.probs.remove(right);
            let merged_prob = self.probs[best] + right_prob;
            self.scores[best] = match policy {
                CoalescePolicy::PaperMean => (self.scores[best] + right_score) / 2.0,
                CoalescePolicy::WeightedMean => {
                    (self.scores[best] * self.probs[best] + right_score * right_prob) / merged_prob
                }
            };
            self.probs[best] = merged_prob;
            if tracked {
                if self.witness_probs[right] > self.witness_probs[best] {
                    self.copy_witness(right, best);
                }
                self.witness_probs.remove(right);
                let s = self.stride;
                self.witness_ids.drain(right * s..(right + 1) * s);
            }
        }
    }

    /// Heap-based coalescing: the closest pair is tracked in a lazy min-heap
    /// over the neighbour gaps, with a doubly-linked list threading the
    /// surviving lines. A merge invalidates at most the two gaps adjacent to
    /// the merged pair; fresh entries are pushed and stale ones discarded on
    /// pop via per-line stamps. The selection order is identical to the
    /// scan — the heap orders by `(gap, position)` and the scan keeps the
    /// leftmost line on equal gaps (scores are ascending, so gaps are never
    /// negative zero and `f64::total_cmp` agrees with `<` on them) — and the
    /// merge arithmetic is untouched, so results stay bit-exact.
    fn coalesce_heap(&mut self, max_lines: usize, policy: CoalescePolicy) {
        let n = self.len();
        let tracked = self.tracked();
        // Line `i` is alive while `next[i] != DEAD`; `next`/`prev` thread the
        // surviving lines in ascending-score order (original indices never
        // reorder, so index order == scan order). `stamp[i]` versions the gap
        // between line `i` and its current right neighbour.
        const TAIL: u32 = u32::MAX;
        const DEAD: u32 = u32::MAX - 1;
        let mut next: Vec<u32> = (1..n as u32).chain([TAIL]).collect();
        let mut prev: Vec<u32> = [TAIL].into_iter().chain(0..n as u32 - 1).collect();
        let mut stamp: Vec<u32> = vec![0; n];
        let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<GapEntry>> = (0..n - 1)
            .map(|i| {
                std::cmp::Reverse(GapEntry {
                    gap: self.scores[i + 1] - self.scores[i],
                    left: i as u32,
                    stamp: 0,
                })
            })
            .collect();
        let mut remaining = n;
        while remaining > max_lines {
            let entry = heap.pop().expect("a gap per excess line").0;
            let left = entry.left as usize;
            // Stale: the left line died, or its right-neighbour gap changed
            // since the entry was pushed.
            if next[left] == DEAD || entry.stamp != stamp[left] {
                continue;
            }
            let right = next[left] as usize;
            debug_assert_ne!(next[right], DEAD);
            let right_score = self.scores[right];
            let right_prob = self.probs[right];
            let merged_prob = self.probs[left] + right_prob;
            self.scores[left] = match policy {
                CoalescePolicy::PaperMean => (self.scores[left] + right_score) / 2.0,
                CoalescePolicy::WeightedMean => {
                    (self.scores[left] * self.probs[left] + right_score * right_prob) / merged_prob
                }
            };
            self.probs[left] = merged_prob;
            // `right` dies below, so its witness is copied, not swapped.
            if tracked && self.witness_probs[right] > self.witness_probs[left] {
                self.copy_witness(right, left);
            }
            // Unlink `right` and refresh the two affected gaps.
            let after = next[right];
            next[left] = after;
            next[right] = DEAD;
            if after != TAIL {
                prev[after as usize] = left as u32;
            }
            remaining -= 1;
            stamp[left] = stamp[left].wrapping_add(1);
            if after != TAIL {
                heap.push(std::cmp::Reverse(GapEntry {
                    gap: self.scores[after as usize] - self.scores[left],
                    left: left as u32,
                    stamp: stamp[left],
                }));
            }
            let before = prev[left];
            if before != TAIL {
                let before = before as usize;
                stamp[before] = stamp[before].wrapping_add(1);
                heap.push(std::cmp::Reverse(GapEntry {
                    gap: self.scores[left] - self.scores[before],
                    left: before as u32,
                    stamp: stamp[before],
                }));
            }
        }
        // Compact the survivors in place, preserving order.
        let mut keep = 0;
        for (i, &slot) in next.iter().enumerate().take(n) {
            if slot != DEAD {
                if keep != i {
                    self.scores[keep] = self.scores[i];
                    self.probs[keep] = self.probs[i];
                    if tracked {
                        self.copy_witness(i, keep);
                    }
                }
                keep += 1;
            }
        }
        self.scores.truncate(keep);
        self.probs.truncate(keep);
        if tracked {
            self.witness_probs.truncate(keep);
            self.witness_ids.truncate(keep * self.stride);
        }
    }

    /// Converts the working set into the consumer-facing
    /// [`ScoreDistribution`] (witnesses attached when tracked, `None`
    /// otherwise), consuming the columns. This is the one place a
    /// [`VectorWitness`] is allocated per line.
    pub fn into_distribution(self) -> ScoreDistribution {
        let tracked = self.tracked();
        let points = (0..self.len())
            .map(|line| DistributionPoint {
                score: self.scores[line],
                probability: self.probs[line],
                witness: tracked.then(|| VectorWitness {
                    ids: self.witness(line).to_vec(),
                    probability: self.witness_probs[line],
                }),
            })
            .collect();
        ScoreDistribution { points }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dist(pairs: &[(f64, f64)]) -> ScoreDistribution {
        ScoreDistribution::from_pairs(pairs.iter().copied())
    }

    #[test]
    fn unit_and_empty() {
        assert!(ScoreDistribution::empty().is_empty());
        let u = ScoreDistribution::unit();
        assert_eq!(u.len(), 1);
        assert_eq!(u.total_probability(), 1.0);
        assert_eq!(u.points()[0].score, 0.0);
        assert!(u.points()[0].witness.is_some());
    }

    #[test]
    fn add_mass_merges_equal_scores() {
        let mut d = ScoreDistribution::empty();
        d.add_mass(10.0, 0.2, None);
        d.add_mass(12.0, 0.3, None);
        d.add_mass(10.0 + 1e-12, 0.1, None);
        assert_eq!(d.len(), 2);
        assert!((d.cdf(10.5) - 0.3).abs() < 1e-12);
        // Zero or negative mass is ignored.
        d.add_mass(50.0, 0.0, None);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn add_mass_keeps_more_probable_witness() {
        let mut d = ScoreDistribution::empty();
        d.add_mass(
            5.0,
            0.2,
            Some(VectorWitness {
                ids: vec![TupleId(1)],
                probability: 0.2,
            }),
        );
        d.add_mass(
            5.0,
            0.3,
            Some(VectorWitness {
                ids: vec![TupleId(2)],
                probability: 0.3,
            }),
        );
        let w = d.points()[0].witness.as_ref().unwrap();
        assert_eq!(w.ids, vec![TupleId(2)]);
        assert!((d.points()[0].probability - 0.5).abs() < 1e-12);
    }

    #[test]
    fn shifted_scaled_applies_delta_factor_and_prepend() {
        let base = ScoreDistribution::unit();
        let d = base.shifted_scaled(7.0, 0.4, Some(TupleId(3)));
        assert_eq!(d.len(), 1);
        assert!((d.points()[0].score - 7.0).abs() < 1e-12);
        assert!((d.points()[0].probability - 0.4).abs() < 1e-12);
        let w = d.points()[0].witness.as_ref().unwrap();
        assert_eq!(w.ids, vec![TupleId(3)]);
        assert!((w.probability - 0.4).abs() < 1e-12);
        // Scaling by zero empties the distribution.
        assert!(base.shifted_scaled(1.0, 0.0, None).is_empty());
    }

    #[test]
    fn merge_from_unions_and_sums() {
        let mut a = dist(&[(1.0, 0.1), (3.0, 0.2)]);
        let b = dist(&[(2.0, 0.3), (3.0, 0.1)]);
        a.merge_from(&b);
        assert_eq!(a.len(), 3);
        assert!((a.total_probability() - 0.7).abs() < 1e-12);
        let probs: Vec<f64> = a.pairs().map(|(_, p)| p).collect();
        assert!((probs[2] - 0.3).abs() < 1e-12); // 0.2 + 0.1 at score 3
                                                 // Merging an empty distribution is a no-op; merging into empty copies.
        let mut e = ScoreDistribution::empty();
        e.merge_from(&a);
        assert_eq!(e.len(), 3);
        a.merge_from(&ScoreDistribution::empty());
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn moments_and_quantiles() {
        let d = dist(&[(10.0, 0.25), (20.0, 0.5), (30.0, 0.25)]);
        assert!((d.expected_score() - 20.0).abs() < 1e-12);
        assert!((d.variance() - 50.0).abs() < 1e-12);
        assert!((d.std_dev() - 50.0_f64.sqrt()).abs() < 1e-12);
        assert_eq!(d.min_score(), Some(10.0));
        assert_eq!(d.max_score(), Some(30.0));
        assert_eq!(d.mode().unwrap().score, 20.0);
        assert_eq!(d.quantile(0.0), Some(10.0));
        assert_eq!(d.quantile(0.5), Some(20.0));
        assert_eq!(d.quantile(1.0), Some(30.0));
        assert!((d.mass_above(15.0) - 0.75).abs() < 1e-12);
        assert!((d.cdf(25.0) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn moments_are_conditioned_on_captured_mass() {
        // Same shape but only 0.5 total mass: expectation must not change.
        let d = dist(&[(10.0, 0.125), (20.0, 0.25), (30.0, 0.125)]);
        assert!((d.expected_score() - 20.0).abs() < 1e-12);
        assert!((d.variance() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn normalize_rescales_to_one() {
        let mut d = dist(&[(10.0, 0.2), (20.0, 0.2)]);
        d.normalize();
        assert!((d.total_probability() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets_capture_all_mass() {
        let d = dist(&[(0.0, 0.1), (4.9, 0.2), (5.0, 0.3), (14.9, 0.4)]);
        let h = d.histogram(5.0).unwrap();
        assert_eq!(h.buckets.len(), 3);
        assert!((h.buckets[0] - 0.3).abs() < 1e-12);
        assert!((h.buckets[1] - 0.3).abs() < 1e-12);
        assert!((h.buckets[2] - 0.4).abs() < 1e-12);
        assert!((h.total() - 1.0).abs() < 1e-12);
        assert_eq!(h.bucket_start(1), 5.0);
        assert!(d.histogram(0.0).is_none());
        assert!(ScoreDistribution::empty().histogram(1.0).is_none());
    }

    #[test]
    fn expected_min_distance_matches_hand_computation() {
        let d = dist(&[(0.0, 0.5), (10.0, 0.5)]);
        assert!((d.expected_min_distance(&[0.0]) - 5.0).abs() < 1e-12);
        assert!((d.expected_min_distance(&[5.0]) - 5.0).abs() < 1e-12);
        assert!((d.expected_min_distance(&[0.0, 10.0]) - 0.0).abs() < 1e-12);
        assert_eq!(d.expected_min_distance(&[]), f64::INFINITY);
    }

    #[test]
    fn coalesce_respects_max_lines_and_preserves_mass() {
        let mut d = dist(&[(1.0, 0.1), (1.1, 0.1), (5.0, 0.3), (9.0, 0.5)]);
        d.coalesce(3, CoalescePolicy::PaperMean);
        assert_eq!(d.len(), 3);
        assert!((d.total_probability() - 1.0).abs() < 1e-12);
        // The two closest lines (1.0 and 1.1) merged to their plain average.
        assert!((d.points()[0].score - 1.05).abs() < 1e-12);

        let mut d = dist(&[(0.0, 0.9), (1.0, 0.1), (100.0, 0.5)]);
        d.coalesce(2, CoalescePolicy::WeightedMean);
        assert_eq!(d.len(), 2);
        assert!((d.points()[0].score - 0.1).abs() < 1e-12);

        // max_lines = 0 disables coalescing.
        let mut d = dist(&[(1.0, 0.5), (2.0, 0.5)]);
        d.coalesce(0, CoalescePolicy::PaperMean);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn weighted_coalescing_preserves_expectation() {
        let mut d = dist(&[(1.0, 0.2), (2.0, 0.4), (10.0, 0.2), (11.0, 0.2)]);
        let before = d.expected_score();
        d.coalesce(2, CoalescePolicy::WeightedMean);
        assert!((d.expected_score() - before).abs() < 1e-9);
    }

    #[test]
    fn emd_of_identical_distributions_is_zero() {
        let a = dist(&[(1.0, 0.4), (5.0, 0.6)]);
        let b = dist(&[(1.0, 0.4), (5.0, 0.6)]);
        assert!(a.earth_movers_distance(&b).abs() < 1e-12);
        let c = dist(&[(2.0, 0.4), (6.0, 0.6)]);
        assert!((a.earth_movers_distance(&c) - 1.0).abs() < 1e-9);
        assert_eq!(
            ScoreDistribution::empty().earth_movers_distance(&ScoreDistribution::empty()),
            0.0
        );
        assert!(a
            .earth_movers_distance(&ScoreDistribution::empty())
            .is_infinite());
    }

    #[test]
    fn nearest_point_and_witness_vectors() {
        let mut d = ScoreDistribution::empty();
        d.add_mass(
            5.0,
            0.5,
            Some(VectorWitness {
                ids: vec![TupleId(1), TupleId(2)],
                probability: 0.4,
            }),
        );
        d.add_mass(9.0, 0.5, None);
        assert_eq!(d.nearest_point(6.0).unwrap().score, 5.0);
        assert_eq!(d.nearest_point(8.0).unwrap().score, 9.0);
        let vs = d.witness_vectors();
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].total_score(), 5.0);
        assert_eq!(vs[0].ids().len(), 2);
    }

    /// Converts a distribution whose points either all carry witnesses of
    /// one length or none do into the columnar form (test-only seam:
    /// production code builds columns through `unit`/`merge_shifted_scaled`).
    fn columns_of(d: &ScoreDistribution) -> ScoreColumns {
        let tracked = d.points().iter().all(|p| p.witness.is_some()) && !d.is_empty();
        let witnesses: Vec<&VectorWitness> = if tracked {
            d.points()
                .iter()
                .filter_map(|p| p.witness.as_ref())
                .collect()
        } else {
            Vec::new()
        };
        let stride = witnesses.first().map_or(0, |w| w.ids.len());
        assert!(witnesses.iter().all(|w| w.ids.len() == stride));
        ScoreColumns {
            scores: d.points().iter().map(|p| p.score).collect(),
            probs: d.points().iter().map(|p| p.probability).collect(),
            witness_probs: witnesses.iter().map(|w| w.probability).collect(),
            witness_ids: witnesses
                .iter()
                .flat_map(|w| w.ids.iter().copied())
                .collect(),
            stride,
        }
    }

    /// Lines with `width`-id witnesses; ids are derived from `seed` so two
    /// fixtures never share one.
    fn witnessed_wide(pairs: &[(f64, f64)], seed: u64, width: u64) -> ScoreDistribution {
        let points = pairs
            .iter()
            .enumerate()
            .map(|(i, &(score, probability))| DistributionPoint {
                score,
                probability,
                witness: Some(VectorWitness {
                    ids: (0..width)
                        .map(|w| TupleId(seed + 100 * w + i as u64))
                        .collect(),
                    probability: probability * 0.9,
                }),
            })
            .collect();
        ScoreDistribution::from_points(points)
    }

    fn witnessed(pairs: &[(f64, f64)], seed: u64) -> ScoreDistribution {
        witnessed_wide(pairs, seed, 2)
    }

    #[test]
    fn columns_scale_matches_shifted_scaled_bit_exactly() {
        let base = witnessed(&[(-0.0, 0.25), (1.5, 0.5), (8.0, 0.125)], 7);
        for factor in [0.3, 1.0, 0.0, -1.0] {
            let scalar = base.shifted_scaled(0.0, factor, None);
            let mut cols = columns_of(&base);
            cols.scale_in_place(factor);
            // PartialEq compares exact f64 bits — including the `-0.0 + 0.0`
            // normalization of the score column.
            assert_eq!(cols.into_distribution(), scalar, "factor {factor}");
        }
    }

    #[test]
    fn columns_merge_matches_shift_then_merge_bit_exactly() {
        // Scores engineered so the union hits every branch: strictly
        // interleaved lines, epsilon-equal lines (witness comparison both
        // ways), and tails on both sides. As in a DP cell, every line of the
        // result carries witnesses of one length: the accumulator's are one
        // id longer than `below`'s exactly when an id is prepended.
        let pairs = [(1.0, 0.2), (4.0, 0.4), (9.0, 0.1), (12.0, 0.05)];
        let below = witnessed(
            &[(0.5, 0.3), (2.0 + 1e-13, 0.9), (7.0, 0.6), (20.0, 0.01)],
            50,
        );
        for (delta, factor, prepend) in [
            (2.0, 0.7, Some(TupleId(999))),
            (0.0, 1.0, None),
            (-3.0, 0.001, Some(TupleId(5))),
        ] {
            let acc = witnessed_wide(&pairs, 1, 2 + u64::from(prepend.is_some()));
            let mut scalar = acc.clone();
            scalar.merge_from(&below.shifted_scaled(delta, factor, prepend));
            let mut cols = columns_of(&acc);
            cols.merge_shifted_scaled(&columns_of(&below), delta, factor, prepend);
            assert_eq!(cols.into_distribution(), scalar, "delta {delta}");
        }
        // Merging into an empty accumulator reproduces the clone path.
        let mut scalar = ScoreDistribution::empty();
        scalar.merge_from(&below.shifted_scaled(1.0, 0.5, Some(TupleId(3))));
        let mut cols = ScoreColumns::empty();
        cols.merge_shifted_scaled(&columns_of(&below), 1.0, 0.5, Some(TupleId(3)));
        assert_eq!(cols.into_distribution(), scalar);
        // A non-positive factor is a no-op, like merging an emptied shift.
        let acc = witnessed(&pairs, 1);
        let mut cols = columns_of(&acc);
        cols.merge_shifted_scaled(&columns_of(&below), 1.0, 0.0, None);
        assert_eq!(cols.into_distribution(), acc);
    }

    #[test]
    #[should_panic(expected = "merging witnesses of 3 ids into a cell of 2-id witnesses")]
    fn columns_merge_rejects_witnesses_of_another_length() {
        let mut cols = columns_of(&witnessed(&[(1.0, 0.5)], 1));
        let below = columns_of(&witnessed(&[(2.0, 0.5)], 50));
        cols.merge_shifted_scaled(&below, 1.0, 0.5, Some(TupleId(9)));
    }

    #[test]
    fn columns_merge_without_witnesses() {
        let acc = dist(&[(1.0, 0.2), (4.0, 0.4)]);
        let below = dist(&[(0.5, 0.3), (4.0, 0.25)]);
        let mut scalar = acc.clone();
        scalar.merge_from(&below.shifted_scaled(0.0, 0.5, None));
        let mut cols = columns_of(&acc);
        cols.merge_shifted_scaled(&columns_of(&below), 0.0, 0.5, None);
        assert_eq!(cols.into_distribution(), scalar);
    }

    #[test]
    fn columns_coalesce_matches_distribution_coalesce_bit_exactly() {
        let base = witnessed(
            &[
                (1.0, 0.1),
                (1.4, 0.3),
                (2.0, 0.2),
                (5.0, 0.15),
                (5.3, 0.05),
                (9.0, 0.2),
            ],
            11,
        );
        for policy in [CoalescePolicy::PaperMean, CoalescePolicy::WeightedMean] {
            for max_lines in [4, 2, 1] {
                let mut scalar = base.clone();
                scalar.coalesce(max_lines, policy);
                let mut cols = columns_of(&base);
                cols.coalesce(max_lines, policy);
                assert_eq!(
                    cols.into_distribution(),
                    scalar,
                    "policy {policy:?} max_lines {max_lines}"
                );
            }
        }
    }

    #[test]
    fn columns_coalesce_heap_matches_scan_on_many_lines() {
        // A few hundred lines with deliberately repeated gap values, so the
        // heap's (gap, position) tie-break is exercised against the scalar
        // scan's leftmost-strictly-smaller rule at every merge.
        let mut x = 0u64;
        let mut score = 0.0;
        let pairs: Vec<(f64, f64)> = (0..300)
            .map(|_| {
                // Deterministic xorshift; gaps drawn from a small set of
                // discrete values to force plenty of exact ties.
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                score += [0.5, 1.0, 1.0, 2.0, 0.25][(x % 5) as usize];
                (score, 0.001 + (x % 997) as f64 / 1000.0)
            })
            .collect();
        let base = witnessed(&pairs, 1000);
        for policy in [CoalescePolicy::PaperMean, CoalescePolicy::WeightedMean] {
            for max_lines in [200, 64, 7] {
                let mut scalar = base.clone();
                scalar.coalesce(max_lines, policy);
                let mut cols = columns_of(&base);
                cols.coalesce(max_lines, policy);
                assert_eq!(
                    cols.into_distribution(),
                    scalar,
                    "policy {policy:?} max_lines {max_lines}"
                );
            }
        }
    }

    #[test]
    fn columns_unit_round_trips() {
        assert_eq!(
            ScoreColumns::unit(true).into_distribution(),
            ScoreDistribution::unit()
        );
        assert_eq!(
            ScoreColumns::unit(false).into_distribution(),
            ScoreDistribution::singleton(0.0, 1.0, None)
        );
        assert!(ScoreColumns::empty().is_empty());
        assert_eq!(ScoreColumns::unit(true).len(), 1);
    }
}
