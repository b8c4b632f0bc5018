//! Selecting c-Typical-Topk answers from a score distribution (§4).
//!
//! Given the PMF `{(s_1, p_1), …, (s_n, p_n)}` of top-k total scores (scores
//! ascending) the c-Typical-Topk *scores* are the `c` support points that
//! minimise the expected distance between a random score drawn from the PMF
//! and the closest chosen score (Definition 1) — a one-dimensional c-median
//! problem restricted to the support. The c-Typical-Topk *tuples* are, for
//! each chosen score, the most probable top-k vector attaining it
//! (Definition 2); those witnesses are carried by the
//! [`ScoreDistribution`] produced by the
//! algorithms of this crate.
//!
//! The solver is the two-function dynamic program of Figure 7 (after Hassin &
//! Tamir): `F_a(j)` is the optimal cost of covering the suffix `{s_j, …}`
//! with at most `a` typical scores, and `G_a(j)` the same under the
//! constraint that `s_j` itself is typical. With prefix sums `P`/`PS` every
//! candidate split is evaluated in O(1).

use ttk_uncertain::{DistributionPoint, Error, Result, ScoreDistribution, TopkVector};

/// One selected typical answer.
#[derive(Debug, Clone, PartialEq)]
pub struct TypicalAnswer {
    /// The typical score (a support point of the distribution).
    pub score: f64,
    /// Probability mass the distribution assigns to that exact score.
    pub probability: f64,
    /// The most probable top-k vector attaining the score, when the
    /// producing algorithm tracked witnesses.
    pub vector: Option<TopkVector>,
}

/// The result of c-Typical-Topk selection.
#[derive(Debug, Clone, PartialEq)]
pub struct TypicalSelection {
    /// The selected answers in ascending score order. Contains
    /// `min(c, support size)` entries.
    pub answers: Vec<TypicalAnswer>,
    /// The achieved objective: `E[min_i |S − s_i|]` over the captured mass.
    pub expected_distance: f64,
}

impl TypicalAnswer {
    /// The typical answer a distribution line stands for.
    fn from_point(point: DistributionPoint<'_>) -> Self {
        TypicalAnswer {
            score: point.score,
            probability: point.probability,
            vector: point.witness.map(|w| w.to_vector(point.score)),
        }
    }
}

impl TypicalSelection {
    /// The typical scores in ascending order.
    pub fn scores(&self) -> Vec<f64> {
        self.answers.iter().map(|a| a.score).collect()
    }

    /// The typical vectors (where available) in ascending score order.
    pub fn vectors(&self) -> Vec<&TopkVector> {
        self.answers
            .iter()
            .filter_map(|a| a.vector.as_ref())
            .collect()
    }
}

/// Selects the c-Typical-Topk answers from a score distribution using the
/// O(c·n²) dynamic program of Figure 7 (the paper reports O(cn) after the
/// prefix-sum preprocessing; the quadratic inner minimisation is kept simple
/// here because `n` is already bounded by the line-coalescing limit).
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] when `c == 0` or the distribution is
/// empty.
#[allow(clippy::needless_range_loop)] // index arithmetic mirrors the paper's recurrences
pub fn typical_topk(distribution: &ScoreDistribution, c: usize) -> Result<TypicalSelection> {
    if c == 0 {
        return Err(Error::InvalidParameter(
            "the number of typical answers c must be at least 1".into(),
        ));
    }
    if distribution.is_empty() {
        return Err(Error::InvalidParameter(
            "cannot select typical answers from an empty distribution".into(),
        ));
    }
    let n = distribution.len();
    let scores = distribution.scores();
    let probs = distribution.probabilities();

    if c >= n {
        // Every support point becomes typical; the objective is zero.
        let answers = distribution
            .points()
            .map(TypicalAnswer::from_point)
            .collect();
        return Ok(TypicalSelection {
            answers,
            expected_distance: 0.0,
        });
    }

    // Prefix sums: P[j] = Σ_{b<j} p_b, PS[j] = Σ_{b<j} p_b·s_b  (0-based,
    // exclusive upper bound, so P[0] = 0 and P[n] is the total mass).
    let mut prefix_p = vec![0.0; n + 1];
    let mut prefix_ps = vec![0.0; n + 1];
    for j in 0..n {
        prefix_p[j + 1] = prefix_p[j] + probs[j];
        prefix_ps[j + 1] = prefix_ps[j] + probs[j] * scores[j];
    }
    // Cost of assigning points j..k (inclusive) to the typical score s_k
    // (all of them lie at or below s_k).
    let left_cost = |j: usize, k: usize| -> f64 {
        (prefix_p[k + 1] - prefix_p[j]) * scores[k] - (prefix_ps[k + 1] - prefix_ps[j])
    };
    // Cost of assigning points j..k (inclusive) to the typical score s_j
    // (all of them lie at or above s_j).
    let right_cost = |j: usize, k: usize| -> f64 {
        (prefix_ps[k + 1] - prefix_ps[j]) - (prefix_p[k + 1] - prefix_p[j]) * scores[j]
    };

    // f[a][j]: optimal cost for suffix starting at j with at most a typical
    // scores; g[a][j]: same with s_j forced typical. `f_arg`/`g_arg` record
    // the minimising split for traceback. Index a from 1..=c.
    let mut f = vec![vec![f64::INFINITY; n + 2]; c + 1];
    let mut g = vec![vec![f64::INFINITY; n + 2]; c + 1];
    let mut f_arg = vec![vec![0usize; n + 2]; c + 1];
    let mut g_arg = vec![vec![0usize; n + 2]; c + 1];

    // Boundary: G_1(j) = cost of assigning the whole suffix to s_j;
    // F_a(n) = 0 (empty suffix).
    for j in 0..n {
        g[1][j] = right_cost(j, n - 1);
        g_arg[1][j] = n; // the next subproblem starts past the end
    }
    for a in 1..=c {
        f[a][n] = 0.0;
        g[a][n] = 0.0;
    }

    // F_a(j) = min_{j ≤ k < n} [ left_cost(j, k) + G_a(k) ].
    let fill_f =
        |f: &mut Vec<Vec<f64>>, f_arg: &mut Vec<Vec<usize>>, g: &Vec<Vec<f64>>, a: usize| {
            for j in (0..n).rev() {
                let mut best = f64::INFINITY;
                let mut best_k = j;
                for k in j..n {
                    let candidate = left_cost(j, k) + g[a][k];
                    if candidate < best {
                        best = candidate;
                        best_k = k;
                    }
                }
                f[a][j] = best;
                f_arg[a][j] = best_k;
            }
        };

    fill_f(&mut f, &mut f_arg, &g, 1);
    for a in 2..=c {
        // G_a(j) = min_{j < k ≤ n} [ right_cost(j, k-1) + F_{a-1}(k) ].
        for j in (0..n).rev() {
            let mut best = f64::INFINITY;
            let mut best_k = j + 1;
            for k in (j + 1)..=n {
                let candidate = right_cost(j, k - 1) + f[a - 1][k];
                if candidate < best {
                    best = candidate;
                    best_k = k;
                }
            }
            g[a][j] = best;
            g_arg[a][j] = best_k;
        }
        fill_f(&mut f, &mut f_arg, &g, a);
    }

    // Traceback (lines 36–41 of Figure 7).
    let mut chosen = Vec::with_capacity(c);
    let mut start = 0usize;
    for a in (1..=c).rev() {
        if start >= n {
            break;
        }
        let typical = f_arg[a][start];
        chosen.push(typical);
        start = if a >= 2 { g_arg[a][typical] } else { n };
    }
    chosen.sort_unstable();
    chosen.dedup();

    let answers: Vec<TypicalAnswer> = chosen
        .iter()
        .map(|&i| TypicalAnswer::from_point(distribution.point(i)))
        .collect();
    let expected_distance = f[c][0];
    Ok(TypicalSelection {
        answers,
        expected_distance,
    })
}

/// Brute-force reference implementation: tries every subset of `c` support
/// points. Exponential; used for testing the dynamic program and exposed for
/// small didactic cases.
pub fn typical_topk_brute_force(
    distribution: &ScoreDistribution,
    c: usize,
) -> Result<TypicalSelection> {
    if c == 0 {
        return Err(Error::InvalidParameter(
            "the number of typical answers c must be at least 1".into(),
        ));
    }
    if distribution.is_empty() {
        return Err(Error::InvalidParameter(
            "cannot select typical answers from an empty distribution".into(),
        ));
    }
    let n = distribution.len();
    let take = c.min(n);
    let mut best: Option<(Vec<usize>, f64)> = None;

    fn search(
        distribution: &ScoreDistribution,
        n: usize,
        take: usize,
        start: usize,
        current: &mut Vec<usize>,
        best: &mut Option<(Vec<usize>, f64)>,
    ) {
        if current.len() == take {
            let representatives: Vec<f64> =
                current.iter().map(|&i| distribution.scores()[i]).collect();
            let cost = distribution.expected_min_distance(&representatives);
            if best.as_ref().is_none_or(|(_, b)| cost < *b - 1e-15) {
                *best = Some((current.clone(), cost));
            }
            return;
        }
        for i in start..n {
            if n - i < take - current.len() {
                break;
            }
            current.push(i);
            search(distribution, n, take, i + 1, current, best);
            current.pop();
        }
    }
    search(distribution, n, take, 0, &mut Vec::new(), &mut best);
    let (idx, cost) = best.expect("at least one combination exists");
    let answers = idx
        .iter()
        .map(|&i| TypicalAnswer::from_point(distribution.point(i)))
        .collect();
    Ok(TypicalSelection {
        answers,
        expected_distance: cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttk_uncertain::ScoreDistribution;

    fn dist(pairs: &[(f64, f64)]) -> ScoreDistribution {
        ScoreDistribution::from_pairs(pairs.iter().copied())
    }

    #[test]
    fn rejects_invalid_inputs() {
        let d = dist(&[(1.0, 0.5)]);
        assert!(typical_topk(&d, 0).is_err());
        assert!(typical_topk(&ScoreDistribution::empty(), 1).is_err());
        assert!(typical_topk_brute_force(&d, 0).is_err());
        assert!(typical_topk_brute_force(&ScoreDistribution::empty(), 2).is_err());
    }

    #[test]
    fn one_typical_score_of_a_symmetric_distribution_is_the_median() {
        let d = dist(&[(0.0, 0.25), (10.0, 0.5), (20.0, 0.25)]);
        let sel = typical_topk(&d, 1).unwrap();
        assert_eq!(sel.answers.len(), 1);
        assert_eq!(sel.answers[0].score, 10.0);
        assert!((sel.expected_distance - 5.0).abs() < 1e-12);
    }

    #[test]
    fn c_at_least_support_size_costs_nothing() {
        let d = dist(&[(0.0, 0.5), (7.0, 0.5)]);
        for c in [2, 3, 10] {
            let sel = typical_topk(&d, c).unwrap();
            assert_eq!(sel.answers.len(), 2);
            assert_eq!(sel.expected_distance, 0.0);
        }
    }

    #[test]
    fn two_clusters_are_covered_by_two_typicals() {
        let d = dist(&[(0.0, 0.3), (1.0, 0.3), (100.0, 0.2), (101.0, 0.2)]);
        let sel = typical_topk(&d, 2).unwrap();
        let scores = sel.scores();
        assert!(scores[0] <= 1.0 && scores[1] >= 100.0, "{scores:?}");
        // The optimal cost covers only the within-cluster spread.
        assert!(sel.expected_distance <= 0.3 + 0.2 + 1e-12);
    }

    #[test]
    fn matches_brute_force_on_random_small_inputs() {
        // Deterministic pseudo-random inputs (no external RNG needed).
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for case in 0..30 {
            let n = 2 + (next() % 9) as usize;
            let pairs: Vec<(f64, f64)> = (0..n)
                .map(|_| {
                    (
                        (next() % 1000) as f64 / 10.0,
                        ((next() % 99) + 1) as f64 / 100.0,
                    )
                })
                .collect();
            let d = dist(&pairs);
            for c in 1..=3usize.min(d.len()) {
                let fast = typical_topk(&d, c).unwrap();
                let slow = typical_topk_brute_force(&d, c).unwrap();
                assert!(
                    (fast.expected_distance - slow.expected_distance).abs() < 1e-9,
                    "case {case}, c={c}: {} vs {} ({:?})",
                    fast.expected_distance,
                    slow.expected_distance,
                    pairs
                );
                // The reported objective must equal the objective of the
                // reported scores.
                let recomputed = d.expected_min_distance(&fast.scores());
                assert!((recomputed - fast.expected_distance).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn soldier_example_three_typical_scores() {
        // §2.2: the 3-Typical-Top-2 scores of the soldier table are
        // {118, 183, 235} with expected distance 6.6, and the 1-Typical-Top-2
        // score is 170 (vector <T3, T2>).
        let table = ttk_uncertain::UncertainTable::builder()
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
            .unwrap();
        let dist = crate::dp::topk_score_distribution(
            &table,
            2,
            &crate::dp::MainConfig {
                p_tau: 1e-9,
                max_lines: 0,
                ..crate::dp::MainConfig::default()
            },
        )
        .unwrap()
        .distribution;

        let three = typical_topk(&dist, 3).unwrap();
        assert_eq!(three.scores(), vec![118.0, 183.0, 235.0]);
        assert!((three.expected_distance - 6.6).abs() < 0.05);
        let vectors = three.vectors();
        assert_eq!(vectors.len(), 3);
        assert_eq!(
            vectors[0].ids(),
            &[ttk_uncertain::TupleId(2), ttk_uncertain::TupleId(6)]
        );
        assert_eq!(
            vectors[1].ids(),
            &[ttk_uncertain::TupleId(7), ttk_uncertain::TupleId(6)]
        );
        assert_eq!(
            vectors[2].ids(),
            &[ttk_uncertain::TupleId(7), ttk_uncertain::TupleId(3)]
        );

        let one = typical_topk(&dist, 1).unwrap();
        assert_eq!(one.scores(), vec![170.0]);
        let v = &one.vectors()[0];
        assert_eq!(
            v.ids(),
            &[ttk_uncertain::TupleId(3), ttk_uncertain::TupleId(2)]
        );
        assert!((v.probability() - 0.16).abs() < 1e-9);
    }
}
