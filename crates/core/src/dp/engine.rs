//! The generic dynamic-programming engine shared by the main algorithm.
//!
//! The engine runs the bottom-up recurrence of §3.2 over an abstract sequence
//! of [`DpRow`]s. A row is either a *simple* uncertain tuple or a *rule
//! tuple* (§3.3.1) compressing an ME group into one row whose include branch
//! enumerates the member tuples. Exit points (the auxiliary column 0 of the
//! paper, §3.3.2) are enabled per row: a top-k vector may have its last
//! (lowest-ranked) member at row `r` only when `exits[r]` is true.
//!
//! The drivers in [`super`] decide how tables are translated into rows and
//! which exits are enabled; the engine is agnostic to those decisions.

use ttk_uncertain::{ScoreDistribution, TupleId};

use super::MainConfig;

/// One row of the dynamic-programming table.
#[derive(Debug, Clone)]
pub enum DpRow {
    /// A single uncertain tuple.
    Simple {
        /// Tuple id (for witness tracking).
        id: TupleId,
        /// Tuple score.
        score: f64,
        /// Membership probability.
        prob: f64,
    },
    /// A compressed ME group ("rule tuple", §3.3.1): when included, exactly
    /// one of the branches appears; when excluded, none of them appears.
    Rule {
        /// The member tuples: `(id, score, probability)`.
        branches: Vec<(TupleId, f64, f64)>,
    },
}

impl DpRow {
    /// Probability that the row contributes no tuple (the exclude branch).
    pub fn exclude_probability(&self) -> f64 {
        match self {
            DpRow::Simple { prob, .. } => (1.0 - prob).max(0.0),
            DpRow::Rule { branches } => (1.0 - branches.iter().map(|b| b.2).sum::<f64>()).max(0.0),
        }
    }

    /// Number of underlying uncertain tuples represented by the row.
    pub fn width(&self) -> usize {
        match self {
            DpRow::Simple { .. } => 1,
            DpRow::Rule { branches } => branches.len(),
        }
    }
}

/// Runs the dynamic program and returns the distribution of the total score
/// of top-`k` selections over `rows`, where a selection may only have its
/// last selected row at a position `r` with `exits[r] == true`.
///
/// `exits.len()` must equal `rows.len()`. Of `config`, the engine reads the
/// line cap, the coalescing policy and whether witnesses are tracked.
///
/// Every cell is a columnar [`ScoreDistribution`], so the two inner-loop
/// operations run over contiguous columns: the exclude branch scales the
/// probability columns in place (a branch-free, auto-vectorizable pass with
/// no allocation) and the include branch fuses shift, scale and merge into
/// one sorted-union sweep. Every line of cell D_{i,j} carries exactly `j`
/// witness ids, held back to back in one id column per cell, so extending a
/// witness by the row's tuple is a slice copy. The answer cell is returned
/// as is.
///
/// Only the *live* cells are computed: D_{0,k} reads D_{1,k} and
/// D_{1,k-1}, which read cells down to j = k-2 at row 2, and so on, so at
/// row `i` only the cells j ≥ max(1, k − i) can reach the answer. The
/// skipped cells are never read, which keeps the output bit-identical.
pub fn run(rows: &[DpRow], exits: &[bool], k: usize, config: &MainConfig) -> ScoreDistribution {
    assert_eq!(rows.len(), exits.len(), "one exit flag per row");
    if k == 0 || rows.is_empty() {
        return ScoreDistribution::empty();
    }

    // `current[j]` holds D_{i+1, j} while processing row i (bottom-up).
    // Column 0 is *not* stored: the recurrence consults `exits[i]` directly
    // when it needs D_{i+1, 0}. `next` is the double buffer the new cells are
    // written into; the two swap every row, so the cell vectors are
    // allocated once.
    let mut current: Vec<ScoreDistribution> = vec![ScoreDistribution::empty(); k + 1];
    let mut next: Vec<ScoreDistribution> = vec![ScoreDistribution::empty(); k + 1];
    let unit = ScoreDistribution::unit(config.track_witnesses);

    for i in (0..rows.len()).rev() {
        let row = &rows[i];
        let exclude_p = row.exclude_probability();
        // Descending j lets the exclude branch *take* `current[j]` and scale
        // it in place — `current[j]` is never read again this row once the
        // cells above it are done, while `current[j - 1]` (the include
        // branch's input) has not been touched yet. Cell values do not depend
        // on the iteration order. Cells below `live` are dead (see above);
        // row i+1 computed every cell this row reads, since its own bound is
        // one lower.
        let live = k.saturating_sub(i).max(1);
        for j in (live..=k).rev() {
            // Exclude branch: row i contributes nothing.
            let mut dist = std::mem::take(&mut current[j]);
            dist.scale_in_place(exclude_p);
            // Include branch: row i contributes one tuple; the remaining j-1
            // selections come from below (or from the exit when j == 1).
            let below: &ScoreDistribution = if j == 1 {
                if exits[i] {
                    &unit
                } else {
                    // Blocked exit point: distribution (0, 0), i.e. empty.
                    &current[0]
                }
            } else {
                &current[j - 1]
            };
            if !below.is_empty() {
                match row {
                    DpRow::Simple { id, score, prob } => {
                        let prepend = config.track_witnesses.then_some(*id);
                        dist.merge_shifted_scaled(below, *score, *prob, prepend);
                    }
                    DpRow::Rule { branches } => {
                        for (id, score, prob) in branches {
                            let prepend = config.track_witnesses.then_some(*id);
                            dist.merge_shifted_scaled(below, *score, *prob, prepend);
                        }
                    }
                }
            }
            if config.max_lines > 0 {
                dist.coalesce(config.max_lines, config.coalesce_policy);
            }
            next[j] = dist;
        }
        // current[0] stays empty in both buffers: it only models the blocked
        // exit.
        std::mem::swap(&mut current, &mut next);
    }
    std::mem::take(&mut current[k])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple(id: u64, score: f64, prob: f64) -> DpRow {
        DpRow::Simple {
            id: TupleId(id),
            score,
            prob,
        }
    }

    fn cfg() -> MainConfig {
        MainConfig {
            max_lines: 0,
            ..MainConfig::default()
        }
    }

    #[test]
    fn exclude_probability_of_rows() {
        assert!((simple(1, 5.0, 0.3).exclude_probability() - 0.7).abs() < 1e-12);
        let rule = DpRow::Rule {
            branches: vec![(TupleId(1), 5.0, 0.3), (TupleId(2), 4.0, 0.5)],
        };
        assert!((rule.exclude_probability() - 0.2).abs() < 1e-12);
        assert_eq!(rule.width(), 2);
        assert_eq!(simple(1, 5.0, 0.3).width(), 1);
    }

    #[test]
    fn top1_of_two_independent_tuples() {
        // Tuples: A (score 10, 0.5), B (score 4, 0.8).
        // Top-1 = 10 with prob 0.5; 4 with prob 0.5*0.8 = 0.4.
        let rows = vec![simple(1, 10.0, 0.5), simple(2, 4.0, 0.8)];
        let d = run(&rows, &[true, true], 1, &cfg());
        assert_eq!(d.len(), 2);
        assert!((d.cdf(5.0) - 0.4).abs() < 1e-12);
        assert!((d.total_probability() - 0.9).abs() < 1e-12);
        // Witnesses recorded with their probabilities.
        let ws = d.witness_vectors();
        assert_eq!(ws.len(), 2);
        assert_eq!(ws[1].ids(), &[TupleId(1)]);
    }

    #[test]
    fn top2_requires_both_tuples() {
        let rows = vec![simple(1, 10.0, 0.5), simple(2, 4.0, 0.8)];
        let d = run(&rows, &[true, true], 2, &cfg());
        assert_eq!(d.len(), 1);
        assert!((d.point(0).score - 14.0).abs() < 1e-12);
        assert!((d.point(0).probability - 0.4).abs() < 1e-12);
        let w = d.point(0).witness.unwrap();
        assert_eq!(w.ids, [TupleId(1), TupleId(2)]);
    }

    #[test]
    fn blocked_exits_restrict_endings() {
        // Only vectors ending at the second row are allowed.
        let rows = vec![simple(1, 10.0, 0.5), simple(2, 4.0, 0.8)];
        let d = run(&rows, &[false, true], 1, &cfg());
        // Top-1 ending at row 1 means row 0 must be absent.
        assert_eq!(d.len(), 1);
        assert!((d.point(0).score - 4.0).abs() < 1e-12);
        assert!((d.point(0).probability - 0.4).abs() < 1e-12);
    }

    #[test]
    fn rule_rows_enumerate_members_top1() {
        // One ME group {A: 10/0.3, B: 9/0.4} (both members ranked above the
        // independent tuple C: 8/0.5), exits enabled everywhere, k = 1.
        //
        // Ground truth: top-1 = 10 with 0.3 (A appears); 9 with 0.4 (B
        // appears, A automatically absent); 8 with 0.5·(1−0.7) = 0.15 (C
        // appears, neither group member does).
        let rule = DpRow::Rule {
            branches: vec![(TupleId(1), 10.0, 0.3), (TupleId(2), 9.0, 0.4)],
        };
        let rows = vec![rule, simple(3, 8.0, 0.5)];
        let d = run(&rows, &[true, true], 1, &cfg());
        let probs: Vec<(f64, f64)> = d.pairs().collect();
        assert_eq!(probs.len(), 3);
        assert!((probs[0].0 - 8.0).abs() < 1e-12 && (probs[0].1 - 0.15).abs() < 1e-12);
        assert!((probs[1].0 - 9.0).abs() < 1e-12 && (probs[1].1 - 0.4).abs() < 1e-12);
        assert!((probs[2].0 - 10.0).abs() < 1e-12 && (probs[2].1 - 0.3).abs() < 1e-12);
    }

    #[test]
    fn rule_rows_with_restricted_exit_top2() {
        // Same data, but only vectors ending at C are allowed (the per-ending
        // construction of §3.3.2), k = 2.
        //
        // Ground truth: <A, C> with 0.3·0.5 = 0.15 (score 18) and <B, C> with
        // 0.4·0.5 = 0.2 (score 17).
        let rule = DpRow::Rule {
            branches: vec![(TupleId(1), 10.0, 0.3), (TupleId(2), 9.0, 0.4)],
        };
        let rows = vec![rule, simple(3, 8.0, 0.5)];
        let d = run(&rows, &[false, true], 2, &cfg());
        let probs: Vec<(f64, f64)> = d.pairs().collect();
        assert_eq!(probs.len(), 2);
        assert!((probs[0].0 - 17.0).abs() < 1e-12 && (probs[0].1 - 0.2).abs() < 1e-12);
        assert!((probs[1].0 - 18.0).abs() < 1e-12 && (probs[1].1 - 0.15).abs() < 1e-12);
        // Witness of score 17 is <B, C>.
        let w = d.point(0).witness.unwrap();
        assert_eq!(w.ids, [TupleId(2), TupleId(3)]);
    }

    /// Every present/absent pattern of independent simple rows: the top-k
    /// vector is the first `k` present rows, and it counts only when its last
    /// member sits at an enabled exit.
    fn brute_force(rows: &[(f64, f64)], exits: &[bool], k: usize) -> ScoreDistribution {
        let mut d = ScoreDistribution::empty();
        for world in 0u32..1 << rows.len() {
            let mut prob = 1.0;
            let mut present = Vec::new();
            for (r, &(_, p)) in rows.iter().enumerate() {
                if world & (1 << r) != 0 {
                    prob *= p;
                    present.push(r);
                } else {
                    prob *= 1.0 - p;
                }
            }
            if present.len() >= k && exits[present[k - 1]] {
                d.add_mass(present[..k].iter().map(|&r| rows[r].0).sum(), prob, None);
            }
        }
        d
    }

    #[test]
    fn skipped_and_blocked_low_cells_never_reach_the_answer() {
        // At row i the engine only computes cells j >= k - i. With every exit
        // pattern, the cells it skips (e.g. D_{0,1}, non-empty whenever row 0
        // may exit) and the blocked exits must not leak into D_{0,k}: the
        // answer matches the possible-world enumeration, and it is empty
        // whenever no enabled exit sits at row k-1 or below.
        let raw = [(10.0, 0.5), (8.0, 0.3), (6.5, 0.9), (3.0, 0.6), (1.25, 0.4)];
        let rows: Vec<DpRow> = raw
            .iter()
            .enumerate()
            .map(|(i, &(score, prob))| simple(i as u64, score, prob))
            .collect();
        for pattern in 0u32..1 << raw.len() {
            let exits: Vec<bool> = (0..raw.len()).map(|r| pattern & (1 << r) != 0).collect();
            for k in 1..=raw.len() {
                let got = run(&rows, &exits, k, &cfg());
                let want = brute_force(&raw, &exits, k);
                assert_eq!(got.len(), want.len(), "exits {exits:?}, k={k}");
                for ((gs, gp), (ws, wp)) in got.pairs().zip(want.pairs()) {
                    assert!((gs - ws).abs() < 1e-9 && (gp - wp).abs() < 1e-12);
                }
                if !exits[k - 1..].contains(&true) {
                    assert!(got.is_empty(), "exits {exits:?}, k={k}");
                }
                assert!(got.points().all(|p| p.witness.unwrap().ids.len() == k));
            }
        }
    }

    #[test]
    fn k_zero_or_empty_rows_give_empty_distribution() {
        assert!(run(&[], &[], 3, &cfg()).is_empty());
        let rows = vec![simple(1, 1.0, 0.5)];
        assert!(run(&rows, &[true], 0, &cfg()).is_empty());
    }

    #[test]
    fn witness_tracking_can_be_disabled() {
        let rows = vec![simple(1, 10.0, 0.5), simple(2, 4.0, 0.8)];
        let mut config = cfg();
        config.track_witnesses = false;
        let d = run(&rows, &[true, true], 1, &config);
        assert!(d.points().all(|p| p.witness.is_none()));
    }

    #[test]
    fn coalescing_limits_lines() {
        let rows: Vec<DpRow> = (0..40)
            .map(|i| simple(i as u64, 1000.0 - i as f64 * 7.3, 0.5))
            .collect();
        let exits = vec![true; rows.len()];
        let config = MainConfig {
            max_lines: 16,
            ..MainConfig::default()
        };
        let d = run(&rows, &exits, 3, &config);
        assert!(d.len() <= 16);
        assert!(d.total_probability() <= 1.0 + 1e-9);
    }

    #[test]
    fn certain_tuples_concentrate_all_mass() {
        let rows = vec![
            simple(1, 5.0, 1.0),
            simple(2, 3.0, 1.0),
            simple(3, 1.0, 1.0),
        ];
        let d = run(&rows, &[true, true, true], 2, &cfg());
        assert_eq!(d.len(), 1);
        assert!((d.point(0).score - 8.0).abs() < 1e-12);
        assert!((d.point(0).probability - 1.0).abs() < 1e-12);
    }
}
