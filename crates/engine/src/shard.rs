//! Deterministic corpus sharding and shard-artifact merging.
//!
//! A sharded run (`cmr extract --shard i/N`) partitions the input by
//! record index: shard `i` owns every global index `g` with
//! `g % N == i`, so the partition depends only on the corpus order —
//! never on timing, worker count, or which shards ran when. Each shard
//! produces its own output, journal, quarantine, and metrics files;
//! the functions here recombine those artifacts into exactly what an
//! unsharded run would have produced:
//!
//! * [`merge_outputs`] round-robin interleaves the shard output files,
//!   restoring global input order line for line;
//! * [`merge_quarantine`] maps each shard's quarantine entries from
//!   stream indices to global ones and orders them globally;
//! * [`crate::EngineMetrics::merge`] sums per-shard metrics.
//!
//! The merge is pure bookkeeping — no extraction reruns — so merging N
//! shard outputs is O(total output bytes).

use crate::quarantine::QuarantineEntry;
use std::fmt;
use std::io::{BufRead, Write};

/// Which shard owns global record index `g` in an `N`-way partition.
pub fn shard_of(global_index: usize, total: usize) -> usize {
    global_index % total.max(1)
}

/// One shard's slice of an `N`-way run: shard `index` of `total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// This shard's number, `0..total`.
    pub index: usize,
    /// Total shards in the partition.
    pub total: usize,
}

impl fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.total)
    }
}

impl ShardSpec {
    /// Parses the CLI form `i/N` (0-based: `0/4` … `3/4`).
    pub fn parse(spec: &str) -> Result<ShardSpec, String> {
        let err = || format!("invalid shard spec `{spec}` (expected i/N with 0 <= i < N)");
        let (i, n) = spec.split_once('/').ok_or_else(err)?;
        let index: usize = i.trim().parse().map_err(|_| err())?;
        let total: usize = n.trim().parse().map_err(|_| err())?;
        if total == 0 || index >= total {
            return Err(err());
        }
        Ok(ShardSpec { index, total })
    }

    /// Whether this shard owns global record index `g`.
    pub fn owns(&self, global_index: usize) -> bool {
        shard_of(global_index, self.total) == self.index
    }

    /// The global corpus index of this shard's `local`-th record.
    pub fn global_index(&self, local: usize) -> usize {
        self.index + local * self.total
    }

    /// How many of `records` global records this shard owns.
    pub fn len(&self, records: usize) -> usize {
        records / self.total + usize::from(records % self.total > self.index)
    }

    /// Whether this shard owns none of `records` global records.
    pub fn is_empty(&self, records: usize) -> bool {
        self.len(records) == 0
    }
}

/// Round-robin interleaves the shard output streams (shard `i` of
/// `shards.len()` first) into `out`, restoring the unsharded output
/// line order. Returns the number of lines written.
///
/// A valid partition leaves shard line counts within one of each other
/// in a specific shape (shards below the remainder have one extra);
/// any other shape means the inputs are not the shards of one run and
/// is rejected rather than silently merged.
pub fn merge_outputs<R: BufRead, W: Write>(shards: &mut [R], out: &mut W) -> std::io::Result<u64> {
    let n = shards.len();
    if n == 0 {
        return Ok(0);
    }
    let mut total = 0u64;
    loop {
        for i in 0..n {
            let mut line = String::new();
            if shards[i].read_line(&mut line)? == 0 {
                // Shard i is the first to run out, at global index
                // `total`: every other shard must be done too.
                for (j, shard) in shards.iter_mut().enumerate() {
                    if j == i {
                        continue;
                    }
                    let mut probe = String::new();
                    if shard.read_line(&mut probe)? != 0 {
                        return Err(std::io::Error::other(format!(
                            "shard outputs are unbalanced: shard {i} ended at record {total} \
                             but shard {j} still has lines (not the shards of one run?)"
                        )));
                    }
                }
                return Ok(total);
            }
            if !line.ends_with('\n') {
                line.push('\n');
            }
            out.write_all(line.as_bytes())?;
            total += 1;
        }
    }
}

/// Merges the shards' quarantine entries (shard `i` of `shards.len()`
/// first) into the unsharded run's: shard `i`'s entry at stream index
/// `k` is global record `i + k·N`, and the merged entries are in global
/// order.
pub fn merge_quarantine(shards: Vec<Vec<QuarantineEntry>>) -> Vec<QuarantineEntry> {
    let total = shards.len();
    let mut merged = Vec::new();
    for (index, entries) in shards.into_iter().enumerate() {
        for mut entry in entries {
            entry.index = ShardSpec { index, total }.global_index(entry.index);
            merged.push(entry);
        }
    }
    merged.sort_by_key(|e| e.index);
    merged
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::engine::EngineError;
    use std::io::Cursor;

    #[test]
    fn shard_spec_parses_and_partitions() {
        let s = ShardSpec::parse("1/3").unwrap();
        assert_eq!((s.index, s.total), (1, 3));
        assert!(s.owns(1) && s.owns(4) && !s.owns(0) && !s.owns(3));
        assert_eq!(s.global_index(0), 1);
        assert_eq!(s.global_index(2), 7);
        assert_eq!(s.len(7), 2, "shard 1 of 3 owns indices 1 and 4 of 0..7");
        assert_eq!(s.len(8), 3);
        assert!(ShardSpec::parse("3/3").is_err(), "index must be < total");
        assert!(ShardSpec::parse("0/0").is_err());
        assert!(ShardSpec::parse("2").is_err());
        assert!(ShardSpec { index: 2, total: 3 }.is_empty(2));
    }

    #[test]
    fn every_index_lands_on_exactly_one_shard() {
        for n in 1..=5usize {
            for g in 0..23usize {
                let owners: Vec<usize> = (0..n)
                    .filter(|&i| ShardSpec { index: i, total: n }.owns(g))
                    .collect();
                assert_eq!(owners, vec![shard_of(g, n)]);
            }
        }
    }

    #[test]
    fn merge_outputs_round_robins_back_to_input_order() {
        // 7 records over 3 shards: 0,3,6 | 1,4 | 2,5.
        let mut shards = vec![
            Cursor::new("r0\nr3\nr6\n".to_string()),
            Cursor::new("r1\nr4\n".to_string()),
            Cursor::new("r2\nr5\n".to_string()),
        ];
        let mut out = Vec::new();
        let n = merge_outputs(&mut shards, &mut out).unwrap();
        assert_eq!(n, 7);
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "r0\nr1\nr2\nr3\nr4\nr5\nr6\n"
        );
    }

    #[test]
    fn merge_outputs_rejects_unbalanced_shards() {
        let mut shards = vec![
            Cursor::new("r0\n".to_string()),
            Cursor::new("r1\nr4\nr7\n".to_string()),
        ];
        let mut out = Vec::new();
        let err = merge_outputs(&mut shards, &mut out).unwrap_err();
        assert!(err.to_string().contains("unbalanced"), "was: {err}");
    }

    #[test]
    fn merge_quarantine_maps_stream_indices_to_global_order() {
        let entry = |index: usize, tag: &str| QuarantineEntry {
            index,
            text: tag.to_string(),
            error: EngineError::Timeout { millis: 50 },
        };
        // 3 shards: shard 0 owns 0,3,6 | shard 1 owns 1,4,7 | shard 2 owns 2,5.
        let merged = merge_quarantine(vec![
            vec![entry(1, "g3"), entry(2, "g6")],
            vec![entry(2, "g7")],
            vec![entry(0, "g2")],
        ]);
        let shape: Vec<(usize, &str)> = merged.iter().map(|e| (e.index, e.text.as_str())).collect();
        assert_eq!(shape, vec![(2, "g2"), (3, "g3"), (6, "g6"), (7, "g7")]);
    }
}
