//! Probability mass functions over top-k total scores.
//!
//! The complete answer to a top-k query on uncertain data is a joint
//! distribution over k-tuple vectors; the paper's proposal is to expose the
//! induced distribution over *total scores* (a one-dimensional PMF), plus one
//! witness vector per score. [`ScoreDistribution`] is that object. It is also
//! the dynamic program's working cell: it carries the merge steps of §3.2 and
//! the *line coalescing* approximation of §3.2.1 that keeps intermediate and
//! final distributions at a bounded number of points.

use std::ops::Range;

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

/// The most probable top-k vector attaining one score line, borrowed from
/// the witness columns of a [`ScoreDistribution`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VectorWitness<'a> {
    /// Tuple ids of the witness vector in rank order.
    pub ids: &'a [TupleId],
    /// Probability that this exact vector is the top-k vector.
    pub probability: f64,
}

impl VectorWitness<'_> {
    /// Converts the witness into a full [`TopkVector`] given its total score.
    pub fn to_vector(&self, total_score: f64) -> TopkVector {
        TopkVector::new(self.ids.to_vec(), total_score, self.probability)
    }
}

/// One vertical line of the PMF, borrowed from a [`ScoreDistribution`]: a
/// total score, the probability that the top-k vector has that total score,
/// and the most probable vector attaining it when witnesses are tracked.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistributionPoint<'a> {
    /// Total score of the top-k vector.
    pub score: f64,
    /// Probability mass at this score.
    pub probability: f64,
    /// Most probable single vector attaining this score, when tracked.
    pub witness: Option<VectorWitness<'a>>,
}

/// The lines of a [`ScoreDistribution`] in ascending score order (see
/// [`ScoreDistribution::points`]).
#[derive(Debug, Clone)]
pub struct Points<'a> {
    distribution: &'a ScoreDistribution,
    lines: Range<usize>,
}

impl<'a> Iterator for Points<'a> {
    type Item = DistributionPoint<'a>;

    fn next(&mut self) -> Option<Self::Item> {
        self.lines.next().map(|line| self.distribution.point(line))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.lines.size_hint()
    }
}

impl DoubleEndedIterator for Points<'_> {
    fn next_back(&mut self) -> Option<Self::Item> {
        self.lines
            .next_back()
            .map(|line| self.distribution.point(line))
    }
}

impl ExactSizeIterator for Points<'_> {}

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

/// A discrete probability distribution over top-k total scores, with the
/// most probable witness vector of every score line.
///
/// Lines are kept sorted by score. The distribution is *not* required to sum
/// to one: pruning thresholds (pτ), possible worlds with fewer than `k`
/// tuples, and line coalescing all legitimately leave the captured mass
/// slightly below one. Use [`total_probability`](Self::total_probability) to
/// inspect the captured mass and [`normalize`](Self::normalize) to rescale.
///
/// The lines are stored as parallel columns: scores, probabilities, witness
/// probabilities, and the witness ids of all lines back to back at a fixed
/// stride (every line of a DP cell D_{i,j} carries exactly `j` ids). The
/// recurrence of §3.2 touches millions of cells, and the columns keep its
/// two inner-loop operations cheap:
///
/// * [`scale_in_place`](Self::scale_in_place) multiplies the probability
///   columns in place — a branch-free pass over contiguous `f64`s the
///   compiler auto-vectorizes, with no allocation at all;
/// * [`merge_shifted_scaled`](Self::merge_shifted_scaled) fuses steps (2) and
///   (3) of §3.2 into one sorted-union pass that computes shifted scores and
///   scaled probabilities on the fly and copies a witness's ids only for
///   lines that actually survive the merge;
/// * [`coalesce`](Self::coalesce) scans for the closest pair over the
///   contiguous score column.
///
/// Extending, keeping or moving a witness is a slice copy; no line owns an
/// allocation. Consumers read lines through [`points`](Self::points), which
/// lends out [`DistributionPoint`] views, or through the
/// [`scores`](Self::scores) and [`probabilities`](Self::probabilities)
/// columns.
///
/// Witness tracking is all-or-nothing: either no line carries a witness, or
/// every line carries one and all have the same length. Adding a line of the
/// other shape panics (see [`add_mass`](Self::add_mass) and
/// [`merge_shifted_scaled`](Self::merge_shifted_scaled)).
///
/// ```
/// use ttk_uncertain::ScoreDistribution;
///
/// // D = 0.3 · unit  ∪  (unit shifted by 5.0, scaled by 0.7)
/// let unit = ScoreDistribution::unit(false);
/// let mut d = unit.clone();
/// d.scale_in_place(0.3);
/// d.merge_shifted_scaled(&unit, 5.0, 0.7, None);
/// assert_eq!(d.pairs().collect::<Vec<_>>(), vec![(0.0, 0.3), (5.0, 0.7)]);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScoreDistribution {
    /// Total scores, ascending.
    scores: Vec<f64>,
    /// Probability mass per score line (parallel to `scores`).
    probs: Vec<f64>,
    /// Witness probability per score line: parallel to `scores` when
    /// witnesses are tracked, empty otherwise.
    witness_probs: Vec<f64>,
    /// The witness ids of every line back to back, `stride` per line.
    witness_ids: Vec<TupleId>,
    /// Ids per witness (the `j` of the cell); zero when untracked, so equal
    /// lines always compare equal.
    stride: usize,
}

impl ScoreDistribution {
    /// The empty distribution (no mass). Merging it into another distribution
    /// is a no-op; it is also the "blocked exit point" of §3.3.2.
    pub fn empty() -> Self {
        ScoreDistribution::default()
    }

    /// The unit distribution: score 0 with probability 1. This is the
    /// "enabled exit point" / auxiliary column-0 cell of the dynamic program
    /// (§3.2). With `track_witnesses` the single line carries an empty
    /// witness vector for the recurrence to extend.
    pub fn unit(track_witnesses: bool) -> Self {
        ScoreDistribution {
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

    /// Builds a distribution from `(score, probability)` pairs (no witnesses).
    pub fn from_pairs<I: IntoIterator<Item = (f64, f64)>>(pairs: I) -> Self {
        let mut d = ScoreDistribution::empty();
        for (s, p) in pairs {
            d.add_mass(s, p, None);
        }
        d
    }

    /// Number of distinct score lines.
    #[inline]
    pub fn len(&self) -> usize {
        self.scores.len()
    }

    /// True when the distribution carries no mass.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }

    /// The score lines in ascending score order.
    pub fn points(&self) -> Points<'_> {
        Points {
            distribution: self,
            lines: 0..self.len(),
        }
    }

    /// Line `line` (0-based, in ascending score order).
    ///
    /// # Panics
    ///
    /// When `line >= self.len()`.
    pub fn point(&self, line: usize) -> DistributionPoint<'_> {
        DistributionPoint {
            score: self.scores[line],
            probability: self.probs[line],
            witness: self.tracked().then(|| VectorWitness {
                ids: self.witness(line),
                probability: self.witness_probs[line],
            }),
        }
    }

    /// The score column, ascending.
    #[inline]
    pub fn scores(&self) -> &[f64] {
        &self.scores
    }

    /// The probability column, parallel to [`scores`](Self::scores).
    #[inline]
    pub fn probabilities(&self) -> &[f64] {
        &self.probs
    }

    /// Iterates over `(score, probability)` pairs in ascending score order.
    pub fn pairs(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.scores.iter().copied().zip(self.probs.iter().copied())
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

    /// True when a line carrying `witness` has the shape of the lines held:
    /// witnessed exactly when they are, with as many ids. An empty
    /// distribution takes either shape.
    fn fits(&self, witness: Option<VectorWitness<'_>>) -> bool {
        self.is_empty()
            || match witness {
                None => !self.tracked(),
                Some(w) => self.tracked() && w.ids.len() == self.stride,
            }
    }

    /// Inserts a new line before line `at`, with no neighbour merging. The
    /// caller has checked [`fits`](Self::fits).
    fn insert_line(
        &mut self,
        at: usize,
        score: f64,
        probability: f64,
        witness: Option<VectorWitness<'_>>,
    ) {
        if self.is_empty() {
            self.stride = witness.map_or(0, |w| w.ids.len());
        }
        self.scores.insert(at, score);
        self.probs.insert(at, probability);
        if let Some(w) = witness {
            self.witness_probs.insert(at, w.probability);
            let s = self.stride;
            self.witness_ids
                .splice(at * s..at * s, w.ids.iter().copied());
        }
        self.debug_assert_shape();
    }

    /// Replaces the witness of line `line` when `candidate` is strictly more
    /// probable.
    fn offer_witness(&mut self, line: usize, candidate: Option<VectorWitness<'_>>) {
        if let Some(c) = candidate {
            if c.probability > self.witness_probs[line] {
                self.witness_probs[line] = c.probability;
                let s = self.stride;
                self.witness_ids[line * s..(line + 1) * s].copy_from_slice(c.ids);
            }
        }
    }

    /// Adds probability mass at a score, merging with an existing line when
    /// the scores are equal (keeping the more probable witness).
    ///
    /// # Panics
    ///
    /// When the distribution is not empty and `witness` has another shape
    /// than its lines: absent where they carry witnesses, present where they
    /// do not, or of another length.
    pub fn add_mass(&mut self, score: f64, probability: f64, witness: Option<VectorWitness<'_>>) {
        if probability <= 0.0 {
            return;
        }
        assert!(
            self.fits(witness),
            "adding a line whose witness shape differs from the distribution's"
        );
        let line = match self.scores.binary_search_by(|s| s.total_cmp(&score)) {
            Ok(i) => i,
            // Check the neighbours for epsilon-equality before inserting.
            Err(i) if i > 0 && scores_equal(self.scores[i - 1], score) => i - 1,
            Err(i) if i < self.len() && scores_equal(self.scores[i], score) => i,
            Err(i) => return self.insert_line(i, score, probability, witness),
        };
        self.probs[line] += probability;
        self.offer_witness(line, witness);
    }

    /// Appends `point` above every line held, verbatim: no merging with an
    /// epsilon-close neighbour and no coalescing, so a distribution rebuilt
    /// line by line from [`points`](Self::points) (the wire codec) is
    /// bit-identical to the original. The caller asserts ascending score
    /// order. Returns false, appending nothing, when the point's witness
    /// shape differs from the lines held.
    pub(crate) fn push_point(&mut self, point: DistributionPoint<'_>) -> bool {
        if !self.fits(point.witness) {
            return false;
        }
        self.insert_line(self.len(), point.score, point.probability, point.witness);
        true
    }

    /// Total probability mass captured by the distribution.
    pub fn total_probability(&self) -> f64 {
        self.probs.iter().sum()
    }

    /// Rescales the distribution so it sums to one. No-op on empty
    /// distributions.
    pub fn normalize(&mut self) {
        let total = self.total_probability();
        if total > 0.0 {
            for p in &mut self.probs {
                *p /= total;
            }
        }
    }

    /// Smallest score carrying mass.
    pub fn min_score(&self) -> Option<f64> {
        self.scores.first().copied()
    }

    /// Largest score carrying mass.
    pub fn max_score(&self) -> Option<f64> {
        self.scores.last().copied()
    }

    /// The line with the largest probability mass (the mode).
    pub fn mode(&self) -> Option<DistributionPoint<'_>> {
        let (line, _) = self
            .probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))?;
        Some(self.point(line))
    }

    /// Expected total score, conditioned on the captured mass.
    pub fn expected_score(&self) -> f64 {
        let total = self.total_probability();
        if total <= 0.0 {
            return 0.0;
        }
        self.pairs().map(|(s, p)| s * p).sum::<f64>() / total
    }

    /// Variance of the total score, conditioned on the captured mass.
    pub fn variance(&self) -> f64 {
        let total = self.total_probability();
        if total <= 0.0 {
            return 0.0;
        }
        let mean = self.expected_score();
        self.pairs()
            .map(|(s, p)| (s - mean).powi(2) * p)
            .sum::<f64>()
            / total
    }

    /// Standard deviation of the total score.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Probability that the total score is at most `x` (unnormalized CDF).
    pub fn cdf(&self, x: f64) -> f64 {
        self.pairs()
            .take_while(|&(s, _)| s <= x)
            .map(|(_, p)| p)
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
        for (s, p) in self.pairs() {
            acc += p;
            if acc / total >= q - 1e-12 {
                return Some(s);
            }
        }
        self.max_score()
    }

    /// Probability mass with a score strictly greater than `x`.
    pub fn mass_above(&self, x: f64) -> f64 {
        self.scores
            .iter()
            .zip(&self.probs)
            .rev()
            .take_while(|&(&s, _)| s > x)
            .map(|(_, &p)| p)
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
        for (s, p) in self.pairs() {
            let idx = (((s - lo) / bucket_width).floor() as usize).min(n - 1);
            buckets[idx] += p;
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
        self.pairs()
            .map(|(s, p)| {
                let d = representatives
                    .iter()
                    .map(|r| (s - r).abs())
                    .fold(f64::INFINITY, f64::min);
                d * p
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
        let mut grid: Vec<f64> = self.scores.iter().chain(&other.scores).copied().collect();
        grid.sort_by(|a, b| a.total_cmp(b));
        grid.dedup_by(|a, b| scores_equal(*a, *b));
        let mut ia = 0;
        let mut ib = 0;
        let mut cdf_a = 0.0;
        let mut cdf_b = 0.0;
        let mut dist = 0.0;
        for w in grid.windows(2) {
            let (x0, x1) = (w[0], w[1]);
            while ia < self.len() && self.scores[ia] <= x0 + 1e-15 {
                cdf_a += self.probs[ia] / ta;
                ia += 1;
            }
            while ib < other.len() && other.scores[ib] <= x0 + 1e-15 {
                cdf_b += other.probs[ib] / tb;
                ib += 1;
            }
            dist += (cdf_a - cdf_b).abs() * (x1 - x0);
        }
        dist
    }

    /// Returns the witness vectors as full [`TopkVector`]s, one per line when
    /// witnesses are tracked (none otherwise), in ascending score order.
    pub fn witness_vectors(&self) -> Vec<TopkVector> {
        self.points()
            .filter_map(|p| p.witness.map(|w| w.to_vector(p.score)))
            .collect()
    }

    /// The line whose score is closest to `score`.
    pub fn nearest_point(&self, score: f64) -> Option<DistributionPoint<'_>> {
        let (line, _) = self
            .scores
            .iter()
            .enumerate()
            .min_by(|a, b| (a.1 - score).abs().total_cmp(&(b.1 - score).abs()))?;
        Some(self.point(line))
    }

    /// Drops every line, keeping the allocated capacity.
    fn clear(&mut self) {
        self.scores.clear();
        self.probs.clear();
        self.witness_probs.clear();
        self.witness_ids.clear();
        self.stride = 0;
    }

    /// Checks the column invariants: parallel columns, one witness of
    /// `stride` ids per line when tracked, and a zero stride otherwise.
    #[inline]
    fn debug_assert_shape(&self) {
        debug_assert_eq!(self.scores.len(), self.probs.len());
        debug_assert!(self.witness_probs.is_empty() || self.witness_probs.len() == self.len());
        debug_assert!(self.tracked() || self.stride == 0);
        debug_assert_eq!(
            self.witness_ids.len(),
            self.witness_probs.len() * self.stride,
            "every witness of one distribution has the same length"
        );
    }

    /// Scales every probability (line and witness) by `factor` in place — the
    /// exclude branch of the recurrence (step (1) of §3.2) — with no
    /// allocation: the probability columns are multiplied in branch-free
    /// passes over contiguous `f64`s, and every score gets `+ 0.0`, which
    /// turns a negative zero positive. A non-positive `factor` empties the
    /// distribution.
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
    /// Shifted scores and scaled probabilities are computed on the fly; no
    /// intermediate shifted copy exists, and a `below` witness's ids are only
    /// copied for lines that survive the merge. Lines with equal scores
    /// (under [`scores_equal`]) keep `self`'s score, sum their probabilities
    /// as `self + below`, and keep `below`'s witness only when it is strictly
    /// more probable. Merging into an empty distribution copies `below`,
    /// shifted and scaled; a non-positive `factor` merges nothing.
    ///
    /// # Panics
    ///
    /// When both distributions are non-empty and only one carries
    /// witnesses, or `below`'s witnesses (one id longer with `prepend`)
    /// differ in length from `self`'s: all witnesses of one distribution
    /// share one length.
    pub fn merge_shifted_scaled(
        &mut self,
        below: &ScoreDistribution,
        delta: f64,
        factor: f64,
        prepend: Option<TupleId>,
    ) {
        if factor <= 0.0 || below.is_empty() {
            return;
        }
        let tracked = below.tracked();
        let stride = below.stride + usize::from(prepend.is_some());
        assert!(
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
            self.stride = if tracked { stride } else { 0 };
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

    /// Coalesces lines until at most `max_lines` remain (§3.2.1): repeatedly
    /// merge the two closest-in-score neighbouring lines, the leftmost pair
    /// on equal gaps. Under [`CoalescePolicy::PaperMean`] the merged score
    /// is the plain average of the two (the paper's rule); under
    /// [`CoalescePolicy::WeightedMean`] it is the probability-weighted
    /// average. In both cases probabilities add and the strictly more
    /// probable witness replaces the left one. `max_lines == 0` keeps every
    /// line.
    ///
    /// Two implementations with identical output are dispatched on size. For
    /// a handful of merges the rescan-after-every-merge loop wins: the
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

#[cfg(test)]
mod tests {
    use super::*;

    fn dist(pairs: &[(f64, f64)]) -> ScoreDistribution {
        ScoreDistribution::from_pairs(pairs.iter().copied())
    }

    fn ids(raw: &[u64]) -> Vec<TupleId> {
        raw.iter().map(|&id| TupleId(id)).collect()
    }

    /// Lines `(score, probability, witness ids, witness probability)`,
    /// appended verbatim.
    fn witnessed(lines: &[(f64, f64, &[u64], f64)]) -> ScoreDistribution {
        let mut d = ScoreDistribution::empty();
        for &(score, probability, raw, witness_probability) in lines {
            let ids = ids(raw);
            assert!(d.push_point(DistributionPoint {
                score,
                probability,
                witness: Some(VectorWitness {
                    ids: &ids,
                    probability: witness_probability,
                }),
            }));
        }
        d
    }

    /// Every line as `(score, probability, witness ids, witness
    /// probability)`, for exact comparisons.
    fn lines(d: &ScoreDistribution) -> Vec<(f64, f64, Vec<TupleId>, f64)> {
        d.points()
            .map(|p| {
                let w = p.witness.expect("witnessed line");
                (p.score, p.probability, w.ids.to_vec(), w.probability)
            })
            .collect()
    }

    #[test]
    fn unit_and_empty() {
        assert!(ScoreDistribution::empty().is_empty());
        let u = ScoreDistribution::unit(true);
        assert_eq!(u.len(), 1);
        assert_eq!(u.total_probability(), 1.0);
        assert_eq!(u.point(0).score, 0.0);
        assert_eq!(u.point(0).witness.unwrap().ids, &[] as &[TupleId]);
        let untracked = ScoreDistribution::unit(false);
        assert_eq!(untracked, dist(&[(0.0, 1.0)]));
        assert!(untracked.point(0).witness.is_none());
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
        let (first, second) = (ids(&[1]), ids(&[2]));
        d.add_mass(
            5.0,
            0.2,
            Some(VectorWitness {
                ids: &first,
                probability: 0.2,
            }),
        );
        d.add_mass(
            5.0,
            0.3,
            Some(VectorWitness {
                ids: &second,
                probability: 0.3,
            }),
        );
        let w = d.point(0).witness.unwrap();
        assert_eq!(w.ids, second);
        assert!((d.point(0).probability - 0.5).abs() < 1e-12);
        // A new line between existing ones keeps every witness in place.
        d.add_mass(
            1.0,
            0.1,
            Some(VectorWitness {
                ids: &first,
                probability: 0.1,
            }),
        );
        assert_eq!(
            lines(&d),
            vec![(1.0, 0.1, first, 0.1), (5.0, 0.5, second, 0.3)]
        );
    }

    #[test]
    #[should_panic(expected = "witness shape")]
    fn add_mass_rejects_a_witness_of_another_shape() {
        let mut d = witnessed(&[(1.0, 0.5, &[1, 2], 0.5)]);
        d.add_mass(2.0, 0.5, None);
    }

    #[test]
    fn push_point_refuses_another_witness_shape() {
        let mut d = witnessed(&[(1.0, 0.5, &[1, 2], 0.5)]);
        let (short, long) = (ids(&[3]), ids(&[3, 4]));
        fn point(ids: Option<&[TupleId]>) -> DistributionPoint<'_> {
            DistributionPoint {
                score: 2.0,
                probability: 0.25,
                witness: ids.map(|ids| VectorWitness {
                    ids,
                    probability: 0.25,
                }),
            }
        }
        assert!(!d.push_point(point(None)));
        assert!(!d.push_point(point(Some(&short))));
        assert_eq!(d.len(), 1);
        assert!(d.push_point(point(Some(&long))));
        assert_eq!(d.len(), 2);
        let mut untracked = dist(&[(1.0, 0.5)]);
        assert!(!untracked.push_point(point(Some(&long))));
        assert!(untracked.push_point(point(None)));
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
        assert!((d.point(0).score - 1.05).abs() < 1e-12);

        let mut d = dist(&[(0.0, 0.9), (1.0, 0.1), (100.0, 0.5)]);
        d.coalesce(2, CoalescePolicy::WeightedMean);
        assert_eq!(d.len(), 2);
        assert!((d.point(0).score - 0.1).abs() < 1e-12);

        // max_lines = 0 disables coalescing.
        let mut d = dist(&[(1.0, 0.5), (2.0, 0.5)]);
        d.coalesce(0, CoalescePolicy::PaperMean);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn coalesce_keeps_the_strictly_more_probable_witness() {
        let mut d = witnessed(&[
            (1.0, 0.25, &[1], 0.25),
            (1.5, 0.5, &[2], 0.5),
            (4.0, 0.25, &[3], 0.5),
        ]);
        // 1.0 and 1.5 are closest; the right witness is more probable.
        d.coalesce(2, CoalescePolicy::PaperMean);
        assert_eq!(
            lines(&d),
            vec![(1.25, 0.75, ids(&[2]), 0.5), (4.0, 0.25, ids(&[3]), 0.5)]
        );
        // An equally probable right witness does not replace the left one.
        d.coalesce(1, CoalescePolicy::PaperMean);
        assert_eq!(lines(&d), vec![(2.625, 1.0, ids(&[2]), 0.5)]);
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
        let d = witnessed(&[(5.0, 0.5, &[1, 2], 0.4), (9.0, 0.5, &[3, 4], 0.5)]);
        assert_eq!(d.nearest_point(6.0).unwrap().score, 5.0);
        assert_eq!(d.nearest_point(8.0).unwrap().score, 9.0);
        let vs = d.witness_vectors();
        assert_eq!(vs.len(), 2);
        assert_eq!(vs[0].total_score(), 5.0);
        assert_eq!(vs[0].ids(), &ids(&[1, 2])[..]);
        assert!(dist(&[(1.0, 1.0)]).witness_vectors().is_empty());
    }

    #[test]
    fn scale_in_place_scales_both_probability_columns() {
        let base = witnessed(&[(-0.0, 0.5, &[1], 0.25), (2.0, 0.25, &[2], 0.125)]);
        let mut d = base.clone();
        d.scale_in_place(0.5);
        assert_eq!(
            lines(&d),
            vec![
                (0.0, 0.25, ids(&[1]), 0.125),
                (2.0, 0.125, ids(&[2]), 0.0625)
            ]
        );
        // `-0.0 + 0.0` is `+0.0`.
        assert_eq!(d.point(0).score.to_bits(), 0.0f64.to_bits());
        // A non-positive factor empties the distribution, shape included.
        for factor in [0.0, -1.0] {
            let mut d = base.clone();
            d.scale_in_place(factor);
            assert_eq!(d, ScoreDistribution::empty());
        }
    }

    #[test]
    fn merge_sums_equal_scores_as_self_plus_below_and_keeps_witnesses() {
        let mut acc = witnessed(&[
            (3.0, 0.25, &[1, 2], 0.25),
            (6.0, 0.125, &[3, 4], 0.0625),
            (10.0, 0.5, &[5, 6], 0.5),
        ]);
        let below = witnessed(&[
            (1.0, 0.5, &[7], 0.5),
            (4.0, 0.5, &[8], 0.25),
            (5.0, 0.25, &[10], 0.25),
        ]);
        // Shifted by 2 and halved, `below` lands on 3, 6 and 7 with witness
        // probabilities 0.25, 0.125 and 0.125.
        acc.merge_shifted_scaled(&below, 2.0, 0.5, Some(TupleId(9)));
        assert_eq!(
            lines(&acc),
            vec![
                // A tie keeps `self`'s witness.
                (3.0, 0.5, ids(&[1, 2]), 0.25),
                // The strictly more probable `below` witness wins.
                (6.0, 0.375, ids(&[9, 8]), 0.125),
                (7.0, 0.125, ids(&[9, 10]), 0.125),
                (10.0, 0.5, ids(&[5, 6]), 0.5),
            ]
        );

        // Equal lines keep `self`'s score and add `below` onto `self` one
        // merge at a time: ((1 + ε) + ε) rounds to 1, (1 + (ε + ε)) does not.
        let tiny = f64::EPSILON * 0.5;
        let mut acc = dist(&[(2.0, 1.0)]);
        let below = dist(&[(2.0 + 1e-13, tiny)]);
        acc.merge_shifted_scaled(&below, 0.0, 1.0, None);
        acc.merge_shifted_scaled(&below, 0.0, 1.0, None);
        assert_eq!(
            acc.pairs().collect::<Vec<_>>(),
            vec![(2.0, (1.0 + tiny) + tiny)]
        );
        assert_ne!((1.0 + tiny) + tiny, 1.0 + (tiny + tiny));
    }

    #[test]
    fn columns_merge_without_witnesses() {
        let mut acc = dist(&[(1.0, 0.25), (4.0, 0.5)]);
        let below = dist(&[(0.5, 0.5), (4.0, 0.25), (6.0, 0.125)]);
        acc.merge_shifted_scaled(&below, 0.0, 0.5, None);
        assert_eq!(
            acc.pairs().collect::<Vec<_>>(),
            vec![(0.5, 0.25), (1.0, 0.25), (4.0, 0.625), (6.0, 0.0625)]
        );
        assert!(acc.points().all(|p| p.witness.is_none()));
    }

    #[test]
    fn merge_from_unions_and_sums() {
        let mut a = dist(&[(1.0, 0.1), (3.0, 0.2)]);
        let b = dist(&[(2.0, 0.3), (3.0, 0.1)]);
        a.merge_shifted_scaled(&b, 0.0, 1.0, None);
        assert_eq!(a.len(), 3);
        assert!((a.total_probability() - 0.7).abs() < 1e-12);
        let probs: Vec<f64> = a.pairs().map(|(_, p)| p).collect();
        assert!((probs[2] - 0.3).abs() < 1e-12); // 0.2 + 0.1 at score 3

        // Merging an empty distribution is a no-op; merging into empty copies.
        let mut e = ScoreDistribution::empty();
        e.merge_shifted_scaled(&a, 0.0, 1.0, None);
        assert_eq!(e, a);
        a.merge_shifted_scaled(&ScoreDistribution::empty(), 0.0, 1.0, None);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn merge_into_empty_shifts_scales_and_prepends() {
        let mut d = ScoreDistribution::empty();
        d.merge_shifted_scaled(&ScoreDistribution::unit(true), 7.0, 0.5, Some(TupleId(3)));
        assert_eq!(lines(&d), vec![(7.0, 0.5, ids(&[3]), 0.5)]);
        // Untracked operands stay untracked.
        let mut d = ScoreDistribution::empty();
        d.merge_shifted_scaled(&ScoreDistribution::unit(false), 7.0, 0.5, None);
        assert_eq!(d, dist(&[(7.0, 0.5)]));
    }

    #[test]
    fn merge_with_a_non_positive_factor_is_a_no_op() {
        let acc = witnessed(&[(1.0, 0.5, &[1, 2], 0.5)]);
        let below = witnessed(&[(2.0, 0.5, &[3], 0.5)]);
        for factor in [0.0, -1.0] {
            let mut d = acc.clone();
            d.merge_shifted_scaled(&below, 1.0, factor, Some(TupleId(9)));
            assert_eq!(d, acc);
            let mut d = ScoreDistribution::empty();
            d.merge_shifted_scaled(&below, 1.0, factor, Some(TupleId(9)));
            assert!(d.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "merging witnesses of 3 ids into a cell of 2-id witnesses")]
    fn columns_merge_rejects_witnesses_of_another_length() {
        let mut acc = witnessed(&[(1.0, 0.5, &[1, 2], 0.5)]);
        let below = witnessed(&[(2.0, 0.5, &[3, 4], 0.5)]);
        acc.merge_shifted_scaled(&below, 1.0, 0.5, Some(TupleId(9)));
    }

    #[test]
    fn columns_coalesce_heap_matches_scan_on_many_lines() {
        // A few hundred lines with deliberately repeated gap values, so the
        // heap's (gap, position) tie-break is exercised against the scan's
        // leftmost-strictly-smaller rule at every merge.
        let mut x = 0u64;
        let mut score = 0.0;
        let mut base = ScoreDistribution::empty();
        for line in 0..300u64 {
            // Deterministic xorshift; gaps drawn from a small set of
            // discrete values to force plenty of exact ties.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            score += [0.5, 1.0, 1.0, 2.0, 0.25][(x % 5) as usize];
            let probability = 0.001 + (x % 997) as f64 / 1000.0;
            let ids = ids(&[line, 1000 + line]);
            assert!(base.push_point(DistributionPoint {
                score,
                probability,
                witness: Some(VectorWitness {
                    ids: &ids,
                    probability: probability * ((x >> 8) % 10) as f64 / 10.0,
                }),
            }));
        }
        for policy in [CoalescePolicy::PaperMean, CoalescePolicy::WeightedMean] {
            for max_lines in [200, 64, 7] {
                let mut scan = base.clone();
                scan.coalesce_scan(max_lines, policy);
                let mut heap = base.clone();
                heap.coalesce_heap(max_lines, policy);
                assert_eq!(heap, scan, "policy {policy:?} max_lines {max_lines}");
                assert_eq!(heap.len(), max_lines);
                // The dispatching entry point picks one of the two.
                let mut dispatched = base.clone();
                dispatched.coalesce(max_lines, policy);
                assert_eq!(dispatched, scan, "policy {policy:?} max_lines {max_lines}");
            }
        }
    }

    #[test]
    fn columns_unit_round_trips() {
        // The unit cell survives an identity merge (no shift, factor 1, no
        // prepend) into an empty cell, witnessed or not.
        for track in [true, false] {
            let unit = ScoreDistribution::unit(track);
            let mut copy = ScoreDistribution::empty();
            copy.merge_shifted_scaled(&unit, 0.0, 1.0, None);
            assert_eq!(copy, unit);
        }
        assert_eq!(ScoreDistribution::unit(false), dist(&[(0.0, 1.0)]));
        assert_eq!(
            lines(&ScoreDistribution::unit(true)),
            vec![(0.0, 1.0, Vec::new(), 1.0)]
        );
        assert!(ScoreDistribution::empty().is_empty());
        assert_eq!(ScoreDistribution::unit(true).len(), 1);
    }
}
