//! Workload inputs: generated notes, their gold labels, and the NDJSON
//! the program reads. The program only ever sees NDJSON files (or the
//! same lines as HTTP bodies); the gold labels stay in this process.

use cmr_corpus::{CorpusBuilder, CorpusPlan, GoldRecord, NoiseConfig, NoiseInjector};
use std::ops::Range;

/// Noise level of the corrupted corpus: about one link-parse lookup in
/// fifteen misses the cache, and no record fails.
const NOISE_LEVEL: f64 = 0.2;

/// Chunks of notes a seed provides; batch rounds take one chunk each, so
/// a run measures several different samples of its input kind.
pub const CHUNKS: usize = 16;

/// Which generator output a workload reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Generated notes as dictated (`style_variation` 1.0).
    Clean,
    /// The same generator's notes after [`noise`] corruption.
    Noisy,
}

/// The corruption of the noisy corpus: the composite profile at
/// [`NOISE_LEVEL`] without the two channels that merge sentences
/// (dropped punctuation, collapsed line breaks). Merged run-on sentences
/// make a few notes per thousand cost hundreds of milliseconds in the
/// cubic parser, so a run's cost would hinge on which seed drew them.
fn noise() -> NoiseConfig {
    NoiseConfig::level(NOISE_LEVEL)
        .with_punct_drop(0.0)
        .with_whitespace_collapse(0.0)
}

/// A generated note set.
pub struct Notes {
    /// Gold labels, one per note, in input order.
    pub gold: Vec<GoldRecord>,
    /// One `{"text": ...}` NDJSON object per note, without the newline.
    pub lines: Vec<String>,
}

impl Notes {
    /// The NDJSON file body for notes `range` (newline-terminated lines).
    pub fn body(&self, range: Range<usize>) -> String {
        let mut out = String::new();
        for line in &self.lines[range] {
            out.push_str(line);
            out.push('\n');
        }
        out
    }
}

/// Every note a seed can provide for one kind: [`CHUNKS`] chunks of
/// `chunk` notes, generated on demand. The clean workloads share one
/// source per seed, so their first chunk is the same corpus.
pub struct Source {
    plan: CorpusPlan,
    injector: Option<NoiseInjector>,
}

impl Source {
    pub fn new(kind: Kind, seed: u64, chunk: usize) -> Source {
        let plan = CorpusBuilder::new()
            .records(CHUNKS * chunk)
            .seed(sub_seed(seed, "corpus"))
            .style_variation(1.0)
            .plan();
        let injector = match kind {
            Kind::Clean => None,
            Kind::Noisy => Some(NoiseInjector::new(noise(), sub_seed(seed, "noise"))),
        };
        Source { plan, injector }
    }

    /// Notes `range` of the source, with their gold labels.
    pub fn notes(&self, range: Range<usize>) -> Notes {
        let gold: Vec<GoldRecord> = range.map(|i| self.plan.record(i)).collect();
        let lines = gold
            .iter()
            .map(|r| match &self.injector {
                Some(inj) => ndjson_line(&inj.corrupt(&r.text)),
                None => ndjson_line(&r.text),
            })
            .collect();
        Notes { gold, lines }
    }
}

/// `{"text": ...}` with JSON string escaping.
fn ndjson_line(text: &str) -> String {
    let quoted = serde_json::to_string(text).expect("a string always serializes");
    format!("{{\"text\":{quoted}}}")
}

/// Sub-seed for one purpose, derived from the run seed.
fn sub_seed(seed: u64, purpose: &str) -> u64 {
    fnv1a(&[&seed.to_le_bytes()[..], purpose.as_bytes()].concat())
}

/// FNV-1a 64-bit digest of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_notes_and_kinds_share_the_corpus() {
        let a = Source::new(Kind::Clean, 7, 3).notes(0..3);
        assert_eq!(a.lines, Source::new(Kind::Clean, 7, 3).notes(0..3).lines);
        let noisy = Source::new(Kind::Noisy, 7, 3).notes(0..3);
        assert_eq!(
            noisy.gold[0].text, a.gold[0].text,
            "noise leaves gold alone"
        );
        assert_ne!(noisy.lines, a.lines);
        assert_ne!(Source::new(Kind::Clean, 8, 3).notes(0..3).lines, a.lines);
        // Chunks are slices of one plan.
        let all = Source::new(Kind::Clean, 7, 3).notes(0..6);
        assert_eq!(
            all.lines[3..],
            Source::new(Kind::Clean, 7, 3).notes(3..6).lines[..]
        );
    }

    #[test]
    fn fnv1a_known_values() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
