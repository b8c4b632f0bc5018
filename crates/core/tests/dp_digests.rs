//! Pins the main algorithm's output bit for bit on CarTel areas at the
//! paper's k values.
//!
//! The digests were recorded before the segment fan-out and the flat witness
//! columns existed, so any change to the DP's arithmetic order, its
//! coalescing sequence, its witness selection or its segment decomposition
//! shows up here — whichever thread ran which segment.

use ttk_core::dp::{topk_score_distribution, MainConfig, MeStrategy};
use ttk_datagen::cartel::{generate_area, CartelConfig};
use ttk_uncertain::UncertainTable;

/// FNV-1a over every line's score and probability bits and its witness (ids
/// then probability bits, or a marker when absent), then the segment count
/// and the scan depth.
fn digest(table: &UncertainTable, k: usize, config: &MainConfig) -> u64 {
    let out = topk_score_distribution(table, k, config).unwrap();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for point in out.distribution.points() {
        eat(point.score.to_bits());
        eat(point.probability.to_bits());
        match point.witness {
            Some(w) => {
                for id in w.ids {
                    eat(id.raw());
                }
                eat(w.probability.to_bits());
            }
            None => eat(u64::MAX),
        }
    }
    eat(out.segments as u64);
    eat(out.scan_depth as u64);
    hash
}

fn area(segments: usize, seed: u64) -> UncertainTable {
    generate_area(&CartelConfig {
        segments,
        seed,
        ..CartelConfig::default()
    })
    .unwrap()
    .into_table()
}

/// Recorded sequentially, one segment after another, with a witness vector
/// allocated per line. The areas are small enough for the whole test to run
/// in about 2 s single-threaded; k=20 needs at least 20 road segments (the
/// bins of one segment are mutually exclusive).
#[test]
fn cartel_distributions_are_pinned() {
    use MeStrategy::{LeadRegions, PerEnding};
    let cases = [
        (14, 1, 10, true, LeadRegions, 0x3b0d_8ba0_afcd_a91c),
        (14, 1, 10, false, LeadRegions, 0x7b23_2070_1a27_4528),
        (14, 2, 10, true, LeadRegions, 0x112f_8bc6_71ae_3d9e),
        (14, 2, 10, false, LeadRegions, 0x5492_4fa3_9f2b_542c),
        (21, 1, 20, true, LeadRegions, 0xcce0_5c0e_7030_3919),
        (21, 1, 20, false, LeadRegions, 0xe740_f579_199c_83ba),
        (14, 2, 10, true, PerEnding, 0xae66_006a_5983_6c1e),
    ];
    let mut failures = Vec::new();
    for (segments, seed, k, witnesses, me_strategy, expected) in cases {
        let config = MainConfig {
            track_witnesses: witnesses,
            me_strategy,
            ..MainConfig::default()
        };
        let got = digest(&area(segments, seed), k, &config);
        if got != expected {
            failures.push(format!(
                "{segments} segments, seed {seed}, k={k}, witnesses {witnesses}, \
                 {me_strategy:?}: got {got:#018x}, pinned {expected:#018x}"
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
