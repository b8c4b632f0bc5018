//! Seeded inputs: CarTel relations written by `ttk generate`, the local
//! reference tables built from the same files, live-feed rows, and the
//! small RNG that drives every seeded choice.

use std::path::{Path, PathBuf};
use std::process::Command;

use ttk_core::uncertain::{GroupKey, SourceTuple, UncertainTable, UncertainTuple};
use ttk_core::Dataset;
use ttk_datagen::cartel::{generate_area, CartelConfig};
use ttk_pdb::{parse_expression, CsvDataset, CsvOptions, ShardImportOptions};

/// The paper's congestion score over the CarTel columns.
pub const SCORE: &str = "speed_limit / (length / delay)";

/// SplitMix64: a tiny deterministic generator for the benchmark's seeded
/// choices (query order, shapes, relation seeds).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` ≥ 1).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Writes a CarTel relation with `ttk generate cartel`; with `shards > 1`
/// the rows are split round-robin into `<stem>.shardN.csv` files. Returns
/// the written paths.
pub fn generate_cartel(
    ttk: &Path,
    segments: usize,
    seed: u64,
    out: &Path,
    shards: usize,
) -> Result<Vec<PathBuf>, String> {
    let output = Command::new(ttk)
        .args(["generate", "cartel", "--segments"])
        .arg(segments.to_string())
        .arg("--seed")
        .arg(seed.to_string())
        .arg("--shards")
        .arg(shards.to_string())
        .arg("--out")
        .arg(out)
        .output()
        .map_err(|e| format!("running {} generate: {e}", ttk.display()))?;
    if !output.status.success() {
        return Err(format!(
            "ttk generate cartel failed: {}",
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    if shards <= 1 {
        return Ok(vec![out.to_path_buf()]);
    }
    let stem = out.with_extension("");
    Ok((0..shards)
        .map(|i| PathBuf::from(format!("{}.shard{i}.csv", stem.display())))
        .collect())
}

/// Rows in each file (header excluded).
pub fn csv_rows(path: &Path) -> Result<u64, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    Ok(text.lines().count().saturating_sub(1) as u64)
}

/// The CSV import the daemons run, as an in-process provider dataset: one
/// file (`ttk serve`), or shard files with global ids and hashed group keys
/// (what `ttk serve-shard --id-base` serves).
pub fn csv_dataset(paths: &[PathBuf]) -> Result<CsvDataset, String> {
    let score = parse_expression(SCORE).map_err(|e| e.to_string())?;
    Ok(match paths {
        [one] => CsvDataset::from_path(one.clone(), CsvOptions::default(), score),
        many => CsvDataset::from_shard_paths(many.to_vec(), CsvOptions::default(), score)
            .with_import(ShardImportOptions {
                first_tuple_id: 0,
                hashed_group_keys: true,
            }),
    })
}

/// A local in-memory table of the rows `paths` hold, scored exactly as the
/// daemons score them: the reference every remote answer is checked
/// against.
pub fn reference_table(paths: &[PathBuf]) -> Result<Dataset, String> {
    let rows = csv_dataset(paths)?
        .scored_rows()
        .map_err(|e| e.to_string())?;
    table_of(rows).map(Dataset::table)
}

/// Builds a table from rank-ordered rows.
pub fn table_of(rows: Vec<SourceTuple>) -> Result<UncertainTable, String> {
    let keys: Vec<GroupKey> = rows.iter().map(|row| row.group).collect();
    let tuples: Vec<UncertainTuple> = rows.into_iter().map(|row| row.tuple).collect();
    UncertainTable::from_rank_ordered(tuples, &keys).map_err(|e| e.to_string())
}

/// The rows of a CarTel area in generation order (segment by segment), each
/// grouped by its road segment: what a live feed appends.
pub fn feed_rows(segments: usize, seed: u64) -> Result<Vec<SourceTuple>, String> {
    let area = generate_area(&CartelConfig {
        segments,
        seed,
        ..CartelConfig::default()
    })
    .map_err(|e| e.to_string())?;
    let mut rows = Vec::new();
    for segment in &area.segments {
        for bin in &segment.bins {
            let tuple = UncertainTuple::new(
                bin.tuple_id,
                bin.congestion_score,
                bin.probability.clamp(1e-6, 1.0),
            )
            .map_err(|e| e.to_string())?;
            rows.push(SourceTuple::grouped(tuple, segment.segment_id));
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_bounded() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..100 {
            let x = a.below(10);
            assert_eq!(x, b.below(10));
            assert!(x < 10);
        }
        let mut items: Vec<u32> = (0..20).collect();
        Rng::new(3).shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn feed_rows_are_grouped_by_segment() {
        let rows = feed_rows(5, 1).unwrap();
        assert!(rows.len() >= 5);
        assert!(rows
            .iter()
            .all(|row| matches!(row.group, GroupKey::Shared(_))));
    }
}
