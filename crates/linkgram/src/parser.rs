//! The link grammar parser.
//!
//! A memoized top-down region parser in the style of Sleator & Temperley's
//! O(n³) algorithm. A *region* `(L, R, l, r)` is the span of words strictly
//! between positions `L` and `R`, together with the still-unsatisfied
//! right-pointing connectors `l` of `L` and left-pointing connectors `r` of
//! `R` that must link into the region. Connector lists are kept
//! **farthest-first** internally (dictionary syntax is nearest-first and is
//! reversed at load): the head of `l` is the connector that links to the
//! farthest (and therefore first-chosen) word `W`.
//!
//! The case split on each region is the classic one:
//!
//! * `l` non-empty → `W` is the word `l`'s head links to; `W`'s farthest
//!   left connector must match it; `W` may additionally link to `R`.
//! * `l` empty, `r` non-empty → `W` is the word `r`'s head links to, via
//!   `W`'s farthest right connector.
//! * both empty → the region must contain no words (anything inside would
//!   be disconnected from the rest of the linkage).
//!
//! Planarity and connectivity are consequences of this decomposition, which
//! is exactly the published argument. Costs are minimized instead of
//! linkages counted: disjunct costs plus a small per-link length penalty, so
//! the parser prefers close attachments.

use crate::dict::{
    has, ConnId, ConnectorTable, Dictionary, ListId, ShapeDisjunct, WordShape, EMPTY_LIST,
};
use crate::linkage::{Link, Linkage};
use cmr_postag::{PosTagger, TaggedToken};
use cmr_text::{tokenize, Sym};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Per-link length penalty: breaks cost ties toward close attachment
/// without overriding whole-number disjunct costs.
const LENGTH_PENALTY: f64 = 0.01;

/// Hard limit on sentence length (words incl. wall); longer inputs fail the
/// parse (and flow to the pattern fallback) rather than taking unbounded
/// time.
const MAX_WORDS: usize = 48;

/// Maximum cached parse structures before the cache resets.
const PARSE_CACHE_CAP: usize = 4096;

/// The parser: the process-wide compiled [`Dictionary`] and a structure
/// cache.
///
/// The cache exploits a structural fact: a linkage depends only on each
/// word's *class key* (explicit word-table entry, or POS-tag class), never
/// on open-vocabulary spellings or number values. Re-parsing "pulse of 84"
/// after "pulse of 96" is a lookup. The cache makes the parser `!Sync`;
/// clone it per thread instead (the dictionary is compiled once per
/// process and shared, the cache is per-parser memory).
///
/// A pool of per-thread parsers can additionally attach one
/// [`SharedParseCache`]: each parser still answers from its lock-free local
/// cache first, and only consults (and feeds) the shared map on a local
/// miss — so a sentence shape is parsed once per *pool*, not once per
/// worker, at the cost of one mutex lock per locally-unseen shape.
#[derive(Debug, Clone)]
pub struct LinkParser {
    dict: &'static Dictionary,
    cache: std::cell::RefCell<ShapeCache>,
    shared: Option<SharedParseCache>,
    stats: std::cell::Cell<ParserStats>,
    /// Reused buffer for building cache signatures (interned class keys).
    sig_scratch: std::cell::RefCell<Vec<Sym>>,
    /// Reused memo/arena/bitmap storage for uncached parses.
    scratch: std::cell::RefCell<ParseScratch>,
    /// Wall-clock deadline of the record being parsed: once it passes,
    /// the region search bails out with [`ParseFailure::Cancelled`] at its
    /// next fuel check.
    deadline: std::cell::Cell<Option<Instant>>,
}

/// Why a parse produced no linkage.
///
/// Failure is a value, not a panic: batch drivers count these per record
/// (see `cmr-core`'s `ParseFailureCounts`) and fall through to cheaper
/// association tiers instead of dropping the sentence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParseFailure {
    /// No words remained after stripping sentence-final punctuation.
    Empty,
    /// The sentence exceeds the parser's hard word limit.
    TooLong {
        /// Words in the sentence, including the left wall.
        words: usize,
        /// The limit the parser enforces (`MAX_WORDS`).
        max: usize,
    },
    /// Some word has no surviving disjuncts (stray punctuation, symbols the
    /// dictionary cannot link): detected before the O(n³) search starts.
    NoDisjuncts,
    /// The region parser exhausted the search space without finding a
    /// linkage — the classic fragment case (`"Blood pressure: 144/90"`).
    NoLinkage,
    /// The record's deadline (see [`LinkParser::set_deadline`]) passed
    /// mid-search; the parse was abandoned, not exhausted.
    Cancelled,
}

impl std::fmt::Display for ParseFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseFailure::Empty => write!(f, "empty sentence"),
            ParseFailure::TooLong { words, max } => {
                write!(f, "sentence too long ({words} words, limit {max})")
            }
            ParseFailure::NoDisjuncts => write!(f, "a word has no usable disjuncts"),
            ParseFailure::NoLinkage => write!(f, "no linkage found"),
            ParseFailure::Cancelled => write!(f, "parse cancelled"),
        }
    }
}

impl std::error::Error for ParseFailure {}

/// One cached outcome: sentence shape (interned word-class sequence) →
/// parse structure or typed failure. Failures are cached too, so a shape
/// that cannot parse is rejected once, not once per sighting.
type ShapeEntry = Result<CachedParse, ParseFailure>;

/// A bounded shape → parse map with two-generation (second-chance)
/// eviction. New and re-touched entries live in the *hot* generation; when
/// it fills, the previous (*cold*) generation is discarded and hot becomes
/// cold. An entry is therefore only evicted after a full generation passes
/// without it being touched — a steady-state working set smaller than half
/// the capacity is never evicted, unlike the old wholesale `clear()` which
/// dropped the working set along with the strays that filled the map.
#[derive(Debug, Clone)]
struct ShapeCache {
    hot: HashMap<Arc<[Sym]>, ShapeEntry, FxBuild>,
    cold: HashMap<Arc<[Sym]>, ShapeEntry, FxBuild>,
    /// Per-generation capacity: half the configured total.
    gen_cap: usize,
    /// Entries discarded by generation rotation since construction.
    evictions: u64,
}

impl Default for ShapeCache {
    fn default() -> Self {
        ShapeCache::with_limit(PARSE_CACHE_CAP)
    }
}

impl ShapeCache {
    fn with_limit(cap: usize) -> ShapeCache {
        ShapeCache {
            hot: HashMap::default(),
            cold: HashMap::default(),
            gen_cap: (cap / 2).max(1),
            evictions: 0,
        }
    }

    fn len(&self) -> usize {
        self.hot.len() + self.cold.len()
    }

    /// Looks up a shape, promoting a cold hit into the hot generation (the
    /// second chance). Returns a clone: entries are an `Arc` + `f64`, or a
    /// `Copy` failure, so this is cheap.
    fn get(&mut self, sig: &[Sym]) -> Option<ShapeEntry> {
        if let Some(entry) = self.hot.get(sig) {
            return Some(entry.clone());
        }
        let (key, entry) = self.cold.remove_entry(sig)?;
        self.store(key, entry.clone());
        Some(entry)
    }

    fn insert(&mut self, sig: Arc<[Sym]>, entry: ShapeEntry) {
        // Drop any cold duplicate so rotation cannot resurrect a shadowed
        // entry and `len` stays honest.
        self.cold.remove(&sig);
        self.store(sig, entry);
    }

    fn store(&mut self, sig: Arc<[Sym]>, entry: ShapeEntry) {
        if self.hot.len() >= self.gen_cap && !self.hot.contains_key(&sig) {
            self.evictions += self.cold.len() as u64;
            self.cold = std::mem::take(&mut self.hot);
        }
        self.hot.insert(sig, entry);
    }

    fn clear(&mut self) {
        self.hot.clear();
        self.cold.clear();
    }
}

/// Default number of lock stripes in a [`SharedParseCache`] (a power of
/// two). Eight stripes keep the worst case at jobs=8 near one worker per
/// lock while costing only a few empty maps when the pool is small.
const SHARED_CACHE_SHARDS: usize = 8;

/// A parse-structure cache shared between parser instances across threads,
/// lock-striped by signature hash. Cloning the handle shares the shards;
/// each shard is bounded by the same two-generation eviction scheme as
/// each parser's local cache.
///
/// The stripe for a shape is a pure function of its signature, so workers
/// racing on *one* cold shape still serialize on one stripe — preserving
/// the no-double-parse property — while lookups of distinct shapes usually
/// land on distinct stripes and proceed in parallel.
#[derive(Debug, Clone)]
pub struct SharedParseCache {
    inner: Arc<SharedShards>,
}

#[derive(Debug)]
struct SharedShards {
    shards: Box<[Mutex<ShapeCache>]>,
    /// `shards.len() - 1`; the stripe count is always a power of two.
    mask: u64,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Counter snapshot of a [`SharedParseCache`] (see
/// [`SharedParseCache::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharedCacheStats {
    /// Number of lock stripes.
    pub shards: usize,
    /// Cached sentence shapes, summed over stripes.
    pub entries: usize,
    /// Entries discarded by generation rotation, summed over stripes.
    pub evictions: u64,
    /// Lookups answered from the shared map.
    pub hits: u64,
    /// Lookups that fell through to the O(n³) parser.
    pub misses: u64,
}

impl Default for SharedParseCache {
    fn default() -> Self {
        SharedParseCache::with_capacity(PARSE_CACHE_CAP)
    }
}

impl SharedParseCache {
    /// An empty shared cache with the default capacity and stripe count.
    pub fn new() -> SharedParseCache {
        SharedParseCache::default()
    }

    /// An empty shared cache bounded to roughly `cap` cached shapes,
    /// striped across [`SHARED_CACHE_SHARDS`] locks.
    pub fn with_capacity(cap: usize) -> SharedParseCache {
        SharedParseCache::with_shards(cap, SHARED_CACHE_SHARDS)
    }

    /// An empty shared cache with an explicit stripe count, rounded up to
    /// a power of two. `shards == 1` reproduces the old single-lock cache
    /// exactly — the sharded-vs-single-lock equivalence proptest pins the
    /// two configurations to identical parse results.
    pub fn with_shards(cap: usize, shards: usize) -> SharedParseCache {
        let n = shards.max(1).next_power_of_two();
        let per_shard = cap.div_ceil(n).max(2);
        SharedParseCache {
            inner: Arc::new(SharedShards {
                shards: (0..n)
                    .map(|_| Mutex::new(ShapeCache::with_limit(per_shard)))
                    .collect(),
                mask: (n - 1) as u64,
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
            }),
        }
    }

    /// The stripe responsible for `sig`. Shard bits come from the middle
    /// of the signature hash: hashbrown derives bucket indexes from the
    /// low bits and its control tag from the top seven, so neither loses
    /// distribution inside a shard's map.
    fn shard_for(&self, sig: &[Sym]) -> &Mutex<ShapeCache> {
        use std::hash::BuildHasher;
        let h = FxBuild::default().hash_one(sig);
        &self.inner.shards[((h >> 32) & self.inner.mask) as usize]
    }

    /// Locks one stripe. A poisoned stripe is recovered, not propagated:
    /// the map holds plain data, valid at every unlock point, so a worker
    /// that panicked mid-extraction cannot invalidate the cache for the
    /// rest of the pool.
    fn lock_shard<'a>(&'a self, shard: &'a Mutex<ShapeCache>) -> MutexGuard<'a, ShapeCache> {
        shard.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of lock stripes.
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    /// Entries discarded by the shared cache's generation rotation.
    pub fn evictions(&self) -> u64 {
        self.inner
            .shards
            .iter()
            .map(|s| self.lock_shard(s).evictions)
            .sum()
    }

    /// Number of cached sentence shapes across all stripes.
    pub fn len(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| self.lock_shard(s).len())
            .sum()
    }

    /// True when no shapes are cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot: stripe count, entries, evictions and pool-wide
    /// hit/miss totals.
    pub fn stats(&self) -> SharedCacheStats {
        SharedCacheStats {
            shards: self.shard_count(),
            entries: self.len(),
            evictions: self.evictions(),
            hits: self.inner.hits.load(Ordering::Relaxed),
            misses: self.inner.misses.load(Ordering::Relaxed),
        }
    }
}

/// Structure-cache and timing counters for one parser instance, cumulative
/// since construction (or the last [`LinkParser::reset_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParserStats {
    /// Parses answered from the structure cache.
    pub cache_hits: u64,
    /// The subset of `cache_hits` answered by the pool-wide shared cache
    /// (a locally-unseen shape another worker had already parsed).
    pub shared_hits: u64,
    /// Parses that ran the O(n³) region parser.
    pub cache_misses: u64,
    /// Wall time spent in uncached parses, in nanoseconds.
    pub parse_nanos: u64,
    /// Entries discarded from the local structure cache by generation
    /// rotation (see the cap on the cache).
    pub evictions: u64,
}

#[derive(Debug, Clone)]
struct CachedParse {
    links: Arc<Vec<Link>>,
    cost: f64,
}

/// The built-in clinical-English dictionary, compiled on first use and
/// shared by every parser in the process.
fn clinical_english() -> &'static Dictionary {
    static DICT: OnceLock<Dictionary> = OnceLock::new();
    DICT.get_or_init(Dictionary::clinical_english)
}

impl Default for LinkParser {
    fn default() -> LinkParser {
        LinkParser::new()
    }
}

impl LinkParser {
    /// Creates a parser over the built-in clinical-English dictionary.
    /// The first parser in a process compiles it; the rest share it.
    pub fn new() -> LinkParser {
        LinkParser {
            dict: clinical_english(),
            cache: std::cell::RefCell::new(ShapeCache::default()),
            shared: None,
            stats: std::cell::Cell::new(ParserStats::default()),
            sig_scratch: std::cell::RefCell::new(Vec::new()),
            scratch: std::cell::RefCell::new(ParseScratch::default()),
            deadline: std::cell::Cell::new(None),
        }
    }

    /// Sets the wall-clock deadline for the parses that follow (`None`
    /// clears it). Once it passes, uncached searches abandon work and
    /// return [`ParseFailure::Cancelled`]; cancelled outcomes are never
    /// cached, so a later parse without a deadline behaves as if none had
    /// been set.
    pub fn set_deadline(&self, deadline: Option<Instant>) {
        self.deadline.set(deadline);
    }

    /// Rebounds the local structure cache to roughly `cap` shapes,
    /// discarding current entries (tests, memory tuning).
    pub fn set_cache_capacity(&mut self, cap: usize) {
        *self.cache.borrow_mut() = ShapeCache::with_limit(cap);
    }

    /// Attaches a pool-wide structure cache, consulted (and fed) on
    /// local-cache misses. A shared-cache hit counts as a cache hit in
    /// [`ParserStats`].
    pub fn set_shared_cache(&mut self, cache: SharedParseCache) {
        self.shared = Some(cache);
    }

    /// Parses raw sentence text (tokenizing and tagging internally).
    /// Returns `None` when no linkage exists — e.g. for fragments like
    /// `"blood pressure: 144/90"`, matching the original parser's behaviour
    /// that motivates the paper's pattern fallback.
    pub fn parse_sentence(&self, text: &str) -> Option<Linkage> {
        let tokens = tokenize(text);
        let tagged = PosTagger::new().tag(&tokens);
        self.parse(&tagged)
    }

    /// Parses a tagged token sequence. `None` folds away the failure
    /// reason; use [`LinkParser::try_parse`] to observe it.
    pub fn parse(&self, tagged: &[TaggedToken]) -> Option<Linkage> {
        self.try_parse(tagged).ok()
    }

    /// Parses a tagged token sequence, reporting *why* when no linkage
    /// exists. Failure reasons are cached alongside successful structures,
    /// so a repeated unparseable shape replays its reason from the cache.
    pub fn try_parse(&self, tagged: &[TaggedToken]) -> Result<Linkage, ParseFailure> {
        // Strip sentence-final punctuation (it carries no connectors).
        let mut end = tagged.len();
        while end > 0 && tagged[end - 1].tag == cmr_postag::Tag::PUNCT {
            end -= 1;
        }
        let tagged = &tagged[..end];
        if tagged.is_empty() {
            return Err(ParseFailure::Empty);
        }
        if tagged.len() + 1 > MAX_WORDS {
            return Err(ParseFailure::TooLong {
                words: tagged.len() + 1,
                max: MAX_WORDS,
            });
        }

        // Structure cache: identical class-key sequences share a linkage.
        // The signature is a sequence of interned symbols built in a reused
        // buffer, so the probe hashes `u32`s and allocates nothing.
        let mut sig = self.sig_scratch.borrow_mut();
        sig.clear();
        sig.extend(tagged.iter().map(|t| self.dict.class_key_sym(t)));
        if let Some(cached) = self.cache.borrow_mut().get(&sig) {
            drop(sig);
            self.count_hit();
            return match cached {
                Ok(c) => Ok(self.rebuild(tagged, &c)),
                Err(f) => Err(f),
            };
        }
        // A miss materializes the signature exactly once; the shared and
        // local inserts below share it by cloning the cheap `Arc`.
        let signature: Arc<[Sym]> = Arc::from(&sig[..]);
        drop(sig);
        // Local miss: another parser in the pool may have seen this shape.
        // The shape's stripe lock is held ACROSS the fallback parse on a
        // shared miss, deliberately: when a pool starts cold, every worker
        // hits the same few shapes at once, and lookup-then-parse-then-
        // insert would let all of them run the O(n³) parser on the same
        // shape concurrently (duplicating exactly the work the cache
        // exists to avoid). Racers on one shape hash to one stripe, so
        // cold parses of a shape serialize; distinct shapes take distinct
        // stripes and parse in parallel. Steady state is absorbed by the
        // lock-free local cache above.
        if let Some(shared) = &self.shared {
            let shard = shared.shard_for(&signature);
            let mut map = shared.lock_shard(shard);
            if let Some(cached) = map.get(&signature[..]) {
                drop(map);
                shared.inner.hits.fetch_add(1, Ordering::Relaxed);
                self.count_shared_hit();
                let result = match &cached {
                    Ok(c) => Ok(self.rebuild(tagged, c)),
                    Err(f) => Err(*f),
                };
                self.cache.borrow_mut().insert(signature, cached);
                return result;
            }
            shared.inner.misses.fetch_add(1, Ordering::Relaxed);
            let result = self.parse_and_count(tagged);
            // A cancelled search is an artifact of the deadline, not a
            // property of the shape: caching it would make one timed-out
            // record poison every later sighting of the same shape.
            if matches!(result, Err(ParseFailure::Cancelled)) {
                return result;
            }
            let entry = cache_entry(&result);
            map.insert(Arc::clone(&signature), entry.clone());
            drop(map);
            self.cache.borrow_mut().insert(signature, entry);
            return result;
        }
        let result = self.parse_and_count(tagged);
        if matches!(result, Err(ParseFailure::Cancelled)) {
            return result;
        }
        self.cache
            .borrow_mut()
            .insert(signature, cache_entry(&result));
        result
    }

    /// Charges one cache hit to the stats counters.
    fn count_hit(&self) {
        let mut stats = self.stats.get();
        stats.cache_hits += 1;
        self.stats.set(stats);
    }

    /// Charges one hit served by the pool-wide shared cache (counted both
    /// as a plain hit and in the shared-hit subset).
    fn count_shared_hit(&self) {
        let mut stats = self.stats.get();
        stats.cache_hits += 1;
        stats.shared_hits += 1;
        self.stats.set(stats);
    }

    /// Runs the uncached parser, charging the miss and wall time to stats.
    fn parse_and_count(&self, tagged: &[TaggedToken]) -> Result<Linkage, ParseFailure> {
        let started = std::time::Instant::now();
        let result = self.parse_uncached(tagged);
        let mut stats = self.stats.get();
        stats.cache_misses += 1;
        stats.parse_nanos += started.elapsed().as_nanos() as u64;
        self.stats.set(stats);
        result
    }

    /// Reconstructs a linkage for `tagged` from a cached structure. The
    /// links are shared with the cache entry (`Arc`), not deep-copied.
    fn rebuild(&self, tagged: &[TaggedToken], cached: &CachedParse) -> Linkage {
        let mut words = vec!["LEFT-WALL".to_string()];
        words.extend(tagged.iter().map(|t| t.token.text.clone()));
        let token_map: Vec<Option<usize>> = std::iter::once(None)
            .chain((0..tagged.len()).map(Some))
            .collect();
        Linkage {
            words,
            token_map,
            links: Arc::clone(&cached.links),
            cost: cached.cost,
        }
    }

    fn parse_uncached(&self, tagged: &[TaggedToken]) -> Result<Linkage, ParseFailure> {
        // A deadline already past cancels before any search work; the
        // in-search fuel checks below only catch one passing mid-parse.
        let deadline = self.deadline.get();
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(ParseFailure::Cancelled);
        }
        let shapes = shapes_of(self.dict, tagged)?;
        let n = shapes.len();
        let table = self.dict.connectors();
        let mut scratch = self.scratch.borrow_mut();
        let ParseScratch {
            memo,
            arena,
            live,
            masks,
        } = &mut *scratch;
        if !prune(table, &shapes, live, masks) {
            return Err(ParseFailure::NoDisjuncts);
        }
        memo.clear();
        arena.clear();
        let mut ctx = Ctx {
            table,
            shapes: &shapes,
            live: &*live,
            memo,
            arena,
            deadline,
            fuel: CANCEL_FUEL,
            cancelled: false,
        };
        // Top level: the wall's right connectors must cover the sentence;
        // the virtual right boundary at index n has no connectors.
        let mut best: Option<Sol> = None;
        for (di, d) in shapes[0].disjuncts.iter().enumerate() {
            if !ctx.live[0][di] || !d.left.is_empty() {
                continue;
            }
            if let Some(sol) = ctx.best(0, n as u16, d.right_list, EMPTY_LIST) {
                let cost = sol.cost + d.cost;
                if better(&best, cost) {
                    best = Some(Sol {
                        cost,
                        links: sol.links,
                    });
                }
            }
        }
        if ctx.cancelled {
            return Err(ParseFailure::Cancelled);
        }
        let sol = best.ok_or(ParseFailure::NoLinkage)?;
        let mut links: Vec<Link> = Vec::new();
        flatten(ctx.arena, table, sol.links, &mut links);
        links.sort_by_key(|l| (l.left, l.right));
        let mut words = vec!["LEFT-WALL".to_string()];
        words.extend(tagged.iter().map(|t| t.token.text.clone()));
        let token_map: Vec<Option<usize>> = std::iter::once(None)
            .chain((0..tagged.len()).map(Some))
            .collect();
        Ok(Linkage {
            words,
            token_map,
            links: Arc::new(links),
            cost: sol.cost,
        })
    }

    /// Access the dictionary (diagnostics, tests).
    pub fn dictionary(&self) -> &Dictionary {
        self.dict
    }

    /// Drops all cached parse structures (benchmarking, memory pressure).
    pub fn clear_cache(&self) {
        self.cache.borrow_mut().clear();
    }

    /// Number of cached parse structures.
    pub fn cache_len(&self) -> usize {
        self.cache.borrow().len()
    }

    /// Cache and timing counters since construction or the last reset.
    pub fn stats(&self) -> ParserStats {
        let mut stats = self.stats.get();
        stats.evictions = self.cache.borrow().evictions;
        stats
    }

    /// Zeroes the [`ParserStats`] counters (the cache itself is kept).
    pub fn reset_stats(&self) {
        self.stats.set(ParserStats::default());
        self.cache.borrow_mut().evictions = 0;
    }
}

/// The parse-ready shapes of the LEFT-WALL (word 0) and of each token
/// (words 1..=n). Shapes (sorted, deduped, interned, head-indexed disjunct
/// tables) are compiled once per dictionary; the only per-parse disjunct
/// state is the live bitmap maintained by `prune`. A word with no
/// disjuncts can never link, so it fails the parse before any search.
fn shapes_of<'d>(
    dict: &'d Dictionary,
    tagged: &[TaggedToken],
) -> Result<Vec<&'d WordShape>, ParseFailure> {
    std::iter::once(Some(dict.wall_shape()))
        .chain(
            tagged
                .iter()
                .map(|t| dict.shape_of(t).filter(|s| !s.disjuncts.is_empty())),
        )
        .collect::<Option<Vec<_>>>()
        .ok_or(ParseFailure::NoDisjuncts)
}

/// The shareable cache entry for one parse outcome; failures keep their
/// reason so replays report the same [`ParseFailure`].
fn cache_entry(result: &Result<Linkage, ParseFailure>) -> ShapeEntry {
    match result {
        Ok(l) => Ok(CachedParse {
            links: Arc::clone(&l.links),
            cost: l.cost,
        }),
        Err(f) => Err(*f),
    }
}

/// First-found-wins tie break: a candidate replaces the best only when
/// strictly cheaper (matching the original parser's `consider`).
fn better(best: &Option<Sol>, cost: f64) -> bool {
    best.as_ref().map(|b| cost < b.cost).unwrap_or(true)
}

/// Capacity + iterative pruning over the precompiled shapes, recorded in a
/// reusable live-disjunct bitmap (the shapes themselves are shared and
/// never copied). Capacity first: a word at position i has only i words to
/// its left and (n-1-i) to its right; disjuncts demanding more can never
/// complete. Then to fixpoint: kill any disjunct with a connector that no
/// live disjunct on the proper side could ever match. Returns `false` when
/// some word has no live disjunct left.
///
/// Each round first snapshots, for every word i, two connector bitsets in
/// `masks`: the OR of the match rows of every right-pointing connector of
/// the live disjuncts before i (the left-pointing ids something on the
/// left can link with), and the mirror image from the words after i. A
/// disjunct survives iff each of its connector ids is set in the mask for
/// its side: one bit test per connector.
fn prune(
    table: &ConnectorTable,
    shapes: &[&WordShape],
    live: &mut Vec<Vec<bool>>,
    masks: &mut Vec<u64>,
) -> bool {
    let n = shapes.len();
    if live.len() < n {
        live.resize_with(n, Vec::new);
    }
    for (i, shape) in shapes.iter().enumerate() {
        let row = &mut live[i];
        row.clear();
        row.extend(
            shape
                .disjuncts
                .iter()
                .map(|d| d.left.len() <= i && d.right.len() <= n - 1 - i),
        );
    }
    let w = table.mask_words();
    masks.clear();
    masks.resize(2 * n * w, 0);
    let (from_left, from_right) = masks.split_at_mut(n * w);
    loop {
        // from_left[i] = from_left[i-1] | rows of word i-1's right
        // connectors; from_right[i] = from_right[i+1] | rows of word
        // i+1's left connectors. The ends stay empty.
        for i in 1..n {
            let (before, at) = from_left.split_at_mut(i * w);
            let mask = &mut at[..w];
            mask.copy_from_slice(&before[(i - 1) * w..]);
            let ids = live_disjuncts(shapes[i - 1], &live[i - 1]).flat_map(|d| d.right.iter());
            or_rows(table, ids, mask);
        }
        for i in (0..n - 1).rev() {
            let (at, after) = from_right.split_at_mut((i + 1) * w);
            let mask = &mut at[i * w..];
            mask.copy_from_slice(&after[..w]);
            let ids = live_disjuncts(shapes[i + 1], &live[i + 1]).flat_map(|d| d.left.iter());
            or_rows(table, ids, mask);
        }
        let mut changed = false;
        for (i, shape) in shapes.iter().enumerate() {
            let left_ok = &from_left[i * w..(i + 1) * w];
            let right_ok = &from_right[i * w..(i + 1) * w];
            for (di, d) in shape.disjuncts.iter().enumerate() {
                if live[i][di]
                    && !(d.left.iter().all(|&c| has(left_ok, c))
                        && d.right.iter().all(|&c| has(right_ok, c)))
                {
                    live[i][di] = false;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    live[..n].iter().all(|row| row.iter().any(|&b| b))
}

/// The disjuncts of `shape` still marked live.
fn live_disjuncts<'a>(
    shape: &'a WordShape,
    live: &'a [bool],
) -> impl Iterator<Item = &'a ShapeDisjunct> {
    shape
        .disjuncts
        .iter()
        .zip(live)
        .filter(|(_, &l)| l)
        .map(|(d, _)| d)
}

/// ORs the match row of every connector in `ids` into `mask`.
fn or_rows<'a>(table: &ConnectorTable, ids: impl Iterator<Item = &'a ConnId>, mask: &mut [u64]) {
    for &c in ids {
        for (m, r) in mask.iter_mut().zip(table.row(c)) {
            *m |= r;
        }
    }
}

/// Sentinel for "no links" in the arena (the empty leaf region).
const NIL: u32 = u32::MAX;

/// Cost-and-links solution for a region. Links are a node index into the
/// per-parse arena, so combining sub-solutions is an arena push and a `Sol`
/// is `Copy` — the memo stores and returns plain values.
#[derive(Debug, Clone, Copy)]
struct Sol {
    cost: f64,
    links: u32,
}

/// Arena node for the link set of a partial solution. A `Leaf` records the
/// two connector lists whose heads matched; the label string is resolved
/// from them at flatten time, only for the winning solution — candidate
/// links that lose the cost race never allocate a label.
#[derive(Debug, Clone, Copy)]
enum ANode {
    Leaf {
        left: u16,
        right: u16,
        /// Right-pointing list on the left word; its head names the link.
        a: ListId,
        /// Left-pointing list on the right word.
        b: ListId,
    },
    Cat(u32, u32),
}

fn flatten(arena: &[ANode], table: &ConnectorTable, idx: u32, out: &mut Vec<Link>) {
    if idx == NIL {
        return;
    }
    match arena[idx as usize] {
        ANode::Leaf { left, right, a, b } => {
            let ca = table.connector(table.head(a));
            let cb = table.connector(table.head(b));
            out.push(Link {
                left: left as usize,
                right: right as usize,
                label: ca.link_label(cb),
            });
        }
        ANode::Cat(x, y) => {
            flatten(arena, table, x, out);
            flatten(arena, table, y, out);
        }
    }
}

/// A minimal Fx-style hasher for the memo: the keys are already
/// well-mixed packed integers, and SipHash dominates the profile otherwise.
#[derive(Default)]
struct FxHasher(u64);

impl std::hash::Hasher for FxHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, v: u64) {
        const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(K);
    }

    fn write_u8(&mut self, v: u8) {
        self.write_u64(v as u64);
    }

    fn write_u16(&mut self, v: u16) {
        self.write_u64(v as u64);
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

type FxBuild = std::hash::BuildHasherDefault<FxHasher>;

/// A region `(L, R, l, r)`, keyed by the content of its two lists: a
/// region's best solution depends only on which connectors remain, not on
/// which disjuncts they came from.
type Region = (u16, u16, ListId, ListId);

/// Reusable per-parser storage for uncached parses: the region memo, the
/// link arena, the live-disjunct bitmap and `prune`'s connector masks.
/// Cleared (capacity kept) at the start of each parse, so steady-state
/// parsing stops allocating.
#[derive(Debug, Clone, Default)]
struct ParseScratch {
    memo: HashMap<Region, Option<Sol>, FxBuild>,
    arena: Vec<ANode>,
    live: Vec<Vec<bool>>,
    masks: Vec<u64>,
}

struct Ctx<'a> {
    table: &'a ConnectorTable,
    shapes: &'a [&'a WordShape],
    live: &'a [Vec<bool>],
    memo: &'a mut HashMap<Region, Option<Sol>, FxBuild>,
    arena: &'a mut Vec<ANode>,
    /// The record's deadline, compared against the clock every
    /// `CANCEL_FUEL` region calls.
    deadline: Option<Instant>,
    /// Countdown to the next clock read (reading the clock in the inner
    /// recursion would cost more than the search step itself).
    fuel: u32,
    /// Latched once the deadline is seen to have passed: the search
    /// unwinds returning `None` everywhere, and the caller maps that to
    /// `Cancelled`.
    cancelled: bool,
}

/// Region-search calls between deadline checks.
const CANCEL_FUEL: u32 = 1024;

impl<'a> Ctx<'a> {
    fn node(&mut self, node: ANode) -> u32 {
        self.arena.push(node);
        (self.arena.len() - 1) as u32
    }

    fn leaf(&mut self, left: u16, right: u16, a: ListId, b: ListId) -> u32 {
        self.node(ANode::Leaf { left, right, a, b })
    }

    fn cat(&mut self, x: u32, y: u32) -> u32 {
        self.node(ANode::Cat(x, y))
    }

    fn cat3(&mut self, a: u32, b: u32, c: u32) -> u32 {
        let bc = self.cat(b, c);
        self.cat(a, bc)
    }

    fn cat4(&mut self, a: u32, b: u32, c: u32, d: u32) -> u32 {
        let ab = self.cat(a, b);
        let cd = self.cat(c, d);
        self.cat(ab, cd)
    }

    /// True when the heads of two lists can link (both lists non-empty).
    fn linkable(&self, a: ListId, b: ListId) -> bool {
        a != EMPTY_LIST
            && b != EMPTY_LIST
            && self.table.links(self.table.head(a), self.table.head(b))
    }

    /// Successor options after the head matched once: always the rest of
    /// the list; additionally the unchanged list when the head is a
    /// multi-connector (it may match again, necessarily nearer).
    fn successors(&self, r: ListId) -> [Option<ListId>; 2] {
        let multi = self.table.connector(self.table.head(r)).multi;
        [Some(self.table.rest(r)), if multi { Some(r) } else { None }]
    }

    /// Minimum-cost solution for the region `(L, R, l, r)`, or `None` if no
    /// linkage completes it.
    fn best(&mut self, left: u16, right: u16, l: ListId, r: ListId) -> Option<Sol> {
        if self.cancelled {
            return None;
        }
        if let Some(deadline) = self.deadline {
            self.fuel -= 1;
            if self.fuel == 0 {
                self.fuel = CANCEL_FUEL;
                if Instant::now() >= deadline {
                    self.cancelled = true;
                    return None;
                }
            }
        }
        if left + 1 == right {
            return if l == EMPTY_LIST && r == EMPTY_LIST {
                Some(Sol {
                    cost: 0.0,
                    links: NIL,
                })
            } else {
                None
            };
        }
        if l == EMPTY_LIST && r == EMPTY_LIST {
            // Words remain inside but nothing connects them to L or R.
            return None;
        }
        let key = (left, right, l, r);
        if let Some(cached) = self.memo.get(&key) {
            return *cached;
        }
        // Reserve the slot to guard against accidental re-entry (the
        // recursion strictly shrinks regions, so true cycles are impossible).
        self.memo.insert(key, None);

        let mut best: Option<Sol> = None;
        let shapes = self.shapes;
        let live = self.live;
        if l != EMPTY_LIST {
            let head = self.table.head(l) as usize;
            for w in (left + 1)..right {
                for &di in shapes[w as usize].left_linking[head].iter() {
                    if live[w as usize][di as usize] {
                        self.try_left_anchored(left, right, l, r, w, di as usize, &mut best);
                    }
                }
            }
        } else {
            let head = self.table.head(r) as usize;
            for w in (left + 1)..right {
                for &di in shapes[w as usize].right_linking[head].iter() {
                    if live[w as usize][di as usize] {
                        self.try_right_anchored(left, right, r, w, di as usize, &mut best);
                    }
                }
            }
        }
        self.memo.insert(key, best);
        best
    }

    /// Case: `l` non-empty. `W` is the word `l`'s head links to; the link
    /// uses `W`'s farthest-left connector (the candidate index guarantees
    /// the two match). `W` may additionally link to `R`.
    #[allow(clippy::too_many_arguments)]
    fn try_left_anchored(
        &mut self,
        left: u16,
        right: u16,
        l: ListId,
        r: ListId,
        w: u16,
        di: usize,
        best: &mut Option<Sol>,
    ) {
        let d = &self.shapes[w as usize].disjuncts[di];
        let (dl, dr, d_cost) = (d.left_list, d.right_list, d.cost);
        let link_lw_cost = (w - left) as f64 * LENGTH_PENALTY;

        for l_next in self.successors(l).into_iter().flatten() {
            for dl_next in self.successors(dl).into_iter().flatten() {
                let Some(inner_left) = self.best(left, w, l_next, dl_next) else {
                    continue;
                };
                // Sub-case A: W does not link directly to R.
                if let Some(inner_right) = self.best(w, right, dr, r) {
                    let cost = d_cost + link_lw_cost + inner_left.cost + inner_right.cost;
                    if better(best, cost) {
                        let lw = self.leaf(left, w, l, dl);
                        let links = self.cat3(lw, inner_left.links, inner_right.links);
                        *best = Some(Sol { cost, links });
                    }
                }
                // Sub-case B: W also links to R.
                if !self.linkable(dr, r) {
                    continue;
                }
                let link_wr_cost = (right - w) as f64 * LENGTH_PENALTY;
                for dr_next in self.successors(dr).into_iter().flatten() {
                    for r_next in self.successors(r).into_iter().flatten() {
                        let Some(inner_right) = self.best(w, right, dr_next, r_next) else {
                            continue;
                        };
                        let cost = d_cost
                            + link_lw_cost
                            + link_wr_cost
                            + inner_left.cost
                            + inner_right.cost;
                        if better(best, cost) {
                            let lw = self.leaf(left, w, l, dl);
                            let wr = self.leaf(w, right, dr, r);
                            let links = self.cat4(lw, wr, inner_left.links, inner_right.links);
                            *best = Some(Sol { cost, links });
                        }
                    }
                }
            }
        }
    }

    /// Case: `l` empty, `r` non-empty. `W` is the word `r`'s head links to,
    /// via `W`'s farthest-right connector (matched by the candidate index);
    /// `W` cannot link to `L`.
    fn try_right_anchored(
        &mut self,
        left: u16,
        right: u16,
        r: ListId,
        w: u16,
        di: usize,
        best: &mut Option<Sol>,
    ) {
        let d = &self.shapes[w as usize].disjuncts[di];
        let (dl, dr, d_cost) = (d.left_list, d.right_list, d.cost);
        let link_wr_cost = (right - w) as f64 * LENGTH_PENALTY;

        for dr_next in self.successors(dr).into_iter().flatten() {
            for r_next in self.successors(r).into_iter().flatten() {
                let Some(inner_right) = self.best(w, right, dr_next, r_next) else {
                    continue;
                };
                let Some(inner_left) = self.best(left, w, EMPTY_LIST, dl) else {
                    continue;
                };
                let cost = d_cost + link_wr_cost + inner_left.cost + inner_right.cost;
                if better(best, cost) {
                    let wr = self.leaf(w, right, dr, r);
                    let links = self.cat3(wr, inner_left.links, inner_right.links);
                    *best = Some(Sol { cost, links });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connector::Connector;

    fn parse(text: &str) -> Option<Linkage> {
        LinkParser::new().parse_sentence(text)
    }

    fn try_parse_text(parser: &LinkParser, text: &str) -> Result<Linkage, ParseFailure> {
        let tokens = tokenize(text);
        let tagged = PosTagger::new().tag(&tokens);
        parser.try_parse(&tagged)
    }

    #[test]
    fn failure_reasons_are_typed() {
        let parser = LinkParser::new();
        assert_eq!(try_parse_text(&parser, "").err(), Some(ParseFailure::Empty));
        assert_eq!(
            try_parse_text(&parser, "...").err(),
            Some(ParseFailure::Empty),
            "punctuation-only sentences strip to empty"
        );
        let long = "pulse and ".repeat(30);
        assert!(matches!(
            try_parse_text(&parser, &long),
            Err(ParseFailure::TooLong { words, max })
                if words > max && max == MAX_WORDS
        ));
        // A colon has no disjuncts: the fragment case of the paper.
        assert_eq!(
            try_parse_text(&parser, "Blood pressure: 144/90").err(),
            Some(ParseFailure::NoDisjuncts)
        );
    }

    /// A deadline already in the past, as a record that ran out of time
    /// leaves it.
    fn passed() -> Option<Instant> {
        Some(Instant::now() - std::time::Duration::from_millis(1))
    }

    #[test]
    fn passed_deadline_aborts_parse_and_skips_caches() {
        let parser = LinkParser::new();
        parser.set_deadline(passed());
        let text = "The patient is a smoker.";
        assert_eq!(
            try_parse_text(&parser, text).err(),
            Some(ParseFailure::Cancelled)
        );
        assert_eq!(
            parser.cache_len(),
            0,
            "cancelled outcomes must not be cached"
        );
        // Clearing the deadline restores normal behaviour for the same shape.
        parser.set_deadline(None);
        assert!(try_parse_text(&parser, text).is_ok());
        assert_eq!(parser.cache_len(), 1);
    }

    #[test]
    fn deadline_passing_mid_search_cancels_the_parse() {
        // A long coordination chain near the word limit: ~6 ms of region
        // search uncancelled (release build). Both parsers are built before
        // the clock starts, so `full` times the parse alone, not the
        // dictionary compile.
        let text = "pulse of 84 and pressure of 90 and temperature of 98 \
                    and weight of 150 and rate of 20 and pulse of 84 and weight of 150 \
                    and pulse of 84 and weight of 150.";
        let (uncancelled, parser) = (LinkParser::new(), LinkParser::new());
        let full = std::time::Instant::now();
        assert!(try_parse_text(&uncancelled, text).is_ok());
        let full = full.elapsed();

        let started = Instant::now();
        parser.set_deadline(Some(started + full / 10));
        assert_eq!(
            try_parse_text(&parser, text).err(),
            Some(ParseFailure::Cancelled)
        );
        let cancelled = started.elapsed();
        assert!(
            cancelled < full / 2,
            "the search ran {cancelled:?} of an uncancelled {full:?}"
        );
        assert_eq!(parser.cache_len(), 0);
    }

    #[test]
    fn cancelled_never_enters_the_shared_cache() {
        let shared = SharedParseCache::new();
        let mut parser = LinkParser::new();
        parser.set_shared_cache(shared.clone());
        parser.set_deadline(passed());
        let text = "The patient is a smoker.";
        assert_eq!(
            try_parse_text(&parser, text).err(),
            Some(ParseFailure::Cancelled)
        );
        // A second worker sharing the cache must parse fresh, not replay
        // the cancellation.
        let mut peer = LinkParser::new();
        peer.set_shared_cache(shared);
        assert!(try_parse_text(&peer, text).is_ok());
    }

    #[test]
    fn failure_reason_survives_the_caches() {
        let parser = LinkParser::new();
        let shared = SharedParseCache::new();
        let mut warm = LinkParser::new();
        warm.set_shared_cache(shared.clone());

        for p in [&parser, &warm] {
            let first = try_parse_text(p, "Blood pressure: 144/90").err();
            let replay = try_parse_text(p, "Blood pressure: 150/95").err();
            assert_eq!(first, Some(ParseFailure::NoDisjuncts));
            assert_eq!(replay, first, "cached replay keeps the reason");
        }
        // The second parser's negative entry reached the shared map too.
        assert!(!shared.is_empty());
    }

    /// Reference pruning fixpoint: each word's availability is a list of
    /// connectors, checked with `Connector::matches` over their subscript
    /// strings, from one snapshot of the live bitmap per round. `prune`
    /// must leave exactly this bitmap.
    fn naive_prune(table: &ConnectorTable, shapes: &[&WordShape]) -> (bool, Vec<Vec<bool>>) {
        let n = shapes.len();
        let mut live: Vec<Vec<bool>> = shapes
            .iter()
            .enumerate()
            .map(|(i, s)| {
                s.disjuncts
                    .iter()
                    .map(|d| d.left.len() <= i && d.right.len() <= n - 1 - i)
                    .collect()
            })
            .collect();
        loop {
            let side = |j: usize, right: bool| -> Vec<&Connector> {
                live_disjuncts(shapes[j], &live[j])
                    .flat_map(|d| if right { &d.right } else { &d.left }.iter())
                    .map(|&c| table.connector(c))
                    .collect()
            };
            let right_avail: Vec<Vec<&Connector>> = (0..n)
                .map(|i| (0..i).flat_map(|j| side(j, true)).collect())
                .collect();
            let left_avail: Vec<Vec<&Connector>> = (0..n)
                .map(|i| (i + 1..n).flat_map(|j| side(j, false)).collect())
                .collect();
            let mut changed = false;
            for (i, shape) in shapes.iter().enumerate() {
                for (di, d) in shape.disjuncts.iter().enumerate() {
                    let ok = d.left.iter().all(|&c| {
                        right_avail[i]
                            .iter()
                            .any(|rc| rc.matches(table.connector(c)))
                    }) && d.right.iter().all(|&c| {
                        left_avail[i]
                            .iter()
                            .any(|lc| table.connector(c).matches(lc))
                    });
                    if live[i][di] && !ok {
                        live[i][di] = false;
                        changed = true;
                    }
                }
            }
            if !changed {
                return (live.iter().all(|row| row.iter().any(|&b| b)), live);
            }
        }
    }

    /// `prune` against [`naive_prune`] on one sentence.
    fn check_prune(dict: &Dictionary, text: &str) -> Result<(), proptest::prelude::TestCaseError> {
        let mut tagged = PosTagger::new().tag(&tokenize(text));
        while tagged
            .last()
            .is_some_and(|t| t.tag == cmr_postag::Tag::PUNCT)
        {
            tagged.pop();
        }
        let Ok(shapes) = shapes_of(dict, &tagged) else {
            return Ok(());
        };
        let (mut live, mut masks) = (Vec::new(), Vec::new());
        let ok = prune(dict.connectors(), &shapes, &mut live, &mut masks);
        let (want_ok, want) = naive_prune(dict.connectors(), &shapes);
        proptest::prop_assert_eq!(ok, want_ok, "{}", text);
        for (w, (got, want)) in live.iter().zip(&want).enumerate() {
            let first = got.iter().zip(want).position(|(g, w)| g != w);
            proptest::prop_assert!(
                first.is_none(),
                "{text}: word {w} disjunct {first:?} differs from the reference"
            );
        }
        Ok(())
    }

    #[test]
    fn bitset_prune_equals_the_naive_reference_on_long_sentences() {
        let dict = Dictionary::clinical_english();
        for text in [
            "Blood pressure is 144/90, pulse of 84, temperature of 98.3, and weight of 154 pounds.",
            "Blood pressure is 139/61, pulse of 99,, temperature 0f 98.8, and weight of 1B2 pounds.",
            "Menarche at age 10, gravida 4,, para 4,, 1ast menstrual period about a year ago.",
            "pulse of 84 and pressure of 90 and temperature of 98 and weight of 150 and rate of 20.",
        ] {
            check_prune(&dict, text).expect("prunes like the reference");
        }
    }

    /// The sentence generator of `tests/invariants.rs`: clinical dictation
    /// templates with random lexical fill.
    fn sentences() -> impl proptest::strategy::Strategy<Value = String> {
        use proptest::prelude::*;
        let subj = prop::sample::select(vec!["She", "He", "The patient", "Ms. Smith"]);
        let verb = prop::sample::select(vec!["denies", "reports", "has", "takes", "reveals"]);
        let obj = prop::sample::select(vec![
            "alcohol use",
            "a mass",
            "diabetes",
            "chest pain",
            "the medication",
            "hypertension and diabetes",
        ]);
        let tail = prop::sample::select(vec![
            "",
            " today",
            " without difficulty",
            " in the left breast",
            " five years ago",
        ]);
        (subj, verb, obj, tail).prop_map(|(s, v, o, t)| format!("{s} {v} {o}{t}."))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn bitset_prune_equals_the_naive_reference(text in sentences()) {
            check_prune(&Dictionary::clinical_english(), &text)?;
        }
    }

    fn labels(linkage: &Linkage) -> Vec<String> {
        linkage.links.iter().map(|l| base_label(&l.label)).collect()
    }

    fn base_label(label: &str) -> String {
        label
            .chars()
            .take_while(|c| c.is_ascii_uppercase())
            .collect()
    }

    /// Every linkage must be planar, connected, and cover every word.
    fn check_invariants(linkage: &Linkage) {
        let n = linkage.words.len();
        // Planarity: no two links cross.
        for (i, a) in linkage.links.iter().enumerate() {
            for b in &linkage.links[i + 1..] {
                let crossing = a.left < b.left && b.left < a.right && a.right < b.right
                    || b.left < a.left && a.left < b.right && b.right < a.right;
                assert!(!crossing, "crossing links {a:?} {b:?}");
            }
        }
        // Connectivity over all words.
        let mut adj = vec![Vec::new(); n];
        for l in linkage.links.iter() {
            assert!(l.left < l.right && l.right < n, "link bounds {l:?}");
            adj[l.left].push(l.right);
            adj[l.right].push(l.left);
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(x) = stack.pop() {
            for &y in &adj[x] {
                if !seen[y] {
                    seen[y] = true;
                    stack.push(y);
                }
            }
        }
        assert!(
            seen.iter().all(|&s| s),
            "disconnected words in {:?}",
            linkage.words
        );
    }

    #[test]
    fn figure1_sentence_parses() {
        // The paper's Figure 1 example (first clause).
        let linkage = parse("Blood pressure is 144/90.").expect("parses");
        check_invariants(&linkage);
        let lbl = labels(&linkage);
        assert!(lbl.contains(&"S".to_string()), "subject link in {lbl:?}");
        assert!(lbl.contains(&"O".to_string()), "object link in {lbl:?}");
        assert!(lbl.contains(&"AN".to_string()), "compound link in {lbl:?}");
        // Wall + AN + S + O = 4 links, as the paper counts.
        assert_eq!(linkage.links.len(), 4);
    }

    #[test]
    fn full_vitals_sentence_parses() {
        let linkage = parse(
            "Blood pressure is 144/90, pulse of 84, temperature of 98.3, and weight of 154 pounds.",
        )
        .expect("parses");
        check_invariants(&linkage);
    }

    #[test]
    fn quit_smoking_parses() {
        let linkage = parse("She quit smoking five years ago.").expect("parses");
        check_invariants(&linkage);
        let lbl = labels(&linkage);
        assert!(lbl.contains(&"S".to_string()));
    }

    #[test]
    fn never_smoked_parses() {
        let linkage = parse("She has never smoked.").expect("parses");
        check_invariants(&linkage);
        let lbl = labels(&linkage);
        assert!(
            lbl.contains(&"T".to_string()),
            "have-participle link in {lbl:?}"
        );
    }

    #[test]
    fn currently_a_smoker_parses() {
        let linkage = parse("She is currently a smoker.").expect("parses");
        check_invariants(&linkage);
    }

    #[test]
    fn fragment_with_colon_fails() {
        // The paper's canonical fallback trigger.
        assert!(parse("Blood pressure: 144/90.").is_none());
    }

    #[test]
    fn nominal_fragment_parses_via_wn() {
        let linkage = parse("Menarche at age 10.").expect("parses");
        check_invariants(&linkage);
        let full: Vec<&str> = linkage.links.iter().map(|l| l.label.as_str()).collect();
        assert!(full.contains(&"Wn"), "{full:?}");
    }

    #[test]
    fn empty_input_fails() {
        assert!(parse("").is_none());
        assert!(parse(".").is_none());
    }

    #[test]
    fn word_salad_fails() {
        assert!(parse("of of of the the.").is_none());
    }

    #[test]
    fn relative_clause_parses() {
        let linkage = parse("She is a woman who underwent a mammogram.").expect("parses");
        check_invariants(&linkage);
    }

    #[test]
    fn coordination_parses() {
        let linkage = parse("She has diabetes and hypertension.").expect("parses");
        check_invariants(&linkage);
        let lbl = labels(&linkage);
        assert!(lbl.contains(&"MX".to_string()), "{lbl:?}");
    }

    #[test]
    fn linkage_words_include_wall() {
        let linkage = parse("She smokes.").expect("parses");
        assert_eq!(linkage.words[0], "LEFT-WALL");
        assert_eq!(linkage.token_map[0], None);
        assert_eq!(linkage.token_map[1], Some(0));
    }

    #[test]
    fn costs_prefer_declarative_over_fragment() {
        let l = parse("She smokes.").expect("parses");
        let full: Vec<&str> = l.links.iter().map(|x| x.label.as_str()).collect();
        assert!(full.contains(&"Wd"), "{full:?}");
    }

    #[test]
    fn shared_cache_spares_the_second_parser_the_parse() {
        let shared = SharedParseCache::new();
        let mut a = LinkParser::new();
        a.set_shared_cache(shared.clone());
        let mut b = LinkParser::new();
        b.set_shared_cache(shared.clone());

        let first = a
            .parse_sentence("Blood pressure is 144/90.")
            .expect("parses");
        assert_eq!(a.stats().cache_misses, 1);
        assert_eq!(shared.len(), 1);

        // Same shape, different values: the second parser answers from the
        // shared map without running the region parser.
        let second = b
            .parse_sentence("Blood pressure is 120/80.")
            .expect("parses");
        assert_eq!(b.stats().cache_misses, 0);
        assert_eq!(b.stats().cache_hits, 1);
        assert_eq!(first.links, second.links);

        // The shared hit seeded b's local cache: the next lookup stays local.
        b.parse_sentence("Blood pressure is 118/76.")
            .expect("parses");
        assert_eq!(b.stats().cache_hits, 2);
        assert_eq!(b.cache_len(), 1);

        // Failed parses are shared too (same shape, different values).
        assert!(a.parse_sentence("Blood pressure: 144/90.").is_none());
        assert!(b.parse_sentence("Blood pressure: 99/60.").is_none());
        assert_eq!(b.stats().cache_misses, 0, "negative entry shared");
    }

    #[test]
    fn shared_cache_is_send_and_sync() {
        const fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SharedParseCache>();
    }

    #[test]
    fn panic_while_holding_a_shard_leaves_the_cache_usable() {
        // A worker unwinding mid-extraction with a stripe guard in hand
        // poisons that stripe's mutex. `lock_shard` recovers (the map is
        // plain data, valid at every unlock point), so the surviving
        // workers keep reading and writing the same stripe.
        let shared = SharedParseCache::with_shards(64, 1); // one stripe: the poisoned one
        let sig: Arc<[Sym]> = Arc::from(vec![cmr_text::intern("\u{1}poison-test")].as_slice());

        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = shared.lock_shard(shared.shard_for(&sig));
            panic!("worker died mid-extraction");
        }));
        assert!(unwound.is_err());

        // Writes still land…
        shared
            .lock_shard(shared.shard_for(&sig))
            .insert(Arc::clone(&sig), Err(ParseFailure::NoLinkage));
        // …and later lookups (and a full parse through the poisoned
        // stripe) still answer.
        assert!(shared
            .lock_shard(shared.shard_for(&sig))
            .get(&sig[..])
            .is_some());
        let mut parser = LinkParser::new();
        parser.set_shared_cache(shared.clone());
        assert!(parser.parse_sentence("Blood pressure is 144/90.").is_some());
    }

    #[test]
    fn shape_cache_second_chance_eviction() {
        fn key(n: usize) -> Sym {
            cmr_text::intern(&format!("\u{1}shape-cache-test-{n}"))
        }
        fn sig(n: usize) -> Arc<[Sym]> {
            Arc::from(vec![key(n)].as_slice())
        }
        let entry: ShapeEntry = Err(ParseFailure::NoLinkage);
        let mut cache = ShapeCache::with_limit(4); // gen_cap = 2
        cache.insert(sig(0), entry.clone());
        cache.insert(sig(1), entry.clone());
        // Hot is full; the next insert rotates (empty cold, no evictions).
        cache.insert(sig(2), entry.clone());
        assert_eq!(cache.evictions, 0);
        // A cold hit gets its second chance: promoted back into hot.
        assert!(cache.get(&[key(0)]).is_some());
        // Hot is full again ({s2, s0}); this rotation discards the cold
        // leftover s1, which was never re-touched.
        cache.insert(sig(3), entry);
        assert_eq!(cache.evictions, 1);
        assert!(cache.get(&[key(1)]).is_none(), "s1 evicted");
        assert!(
            cache.get(&[key(0)]).is_some(),
            "promoted entry survives the rotation"
        );
        assert!(cache.len() <= 4);
    }

    /// Acceptance gate: a steady-state working set that fits in half the
    /// cache keeps hitting (>90%) while a stream of one-off shapes churns
    /// past — the old wholesale `clear()` dropped the working set whenever
    /// the strays filled the map.
    #[test]
    fn eviction_keeps_steady_state_working_set() {
        let tagger = PosTagger::new();
        let mut parser = LinkParser::new();
        parser.set_cache_capacity(16); // gen_cap = 8
        let hot: Vec<Vec<TaggedToken>> = (1..=6)
            .map(|k| tagger.tag(&tokenize(&"of ".repeat(k))))
            .collect();
        for shape in &hot {
            let _ = parser.try_parse(shape); // warm the working set
        }
        let mut hot_lookups = 0u64;
        let mut hot_hits = 0u64;
        for round in 0..30usize {
            // One never-repeated shape per round churns the cache.
            let cold = tagger.tag(&tokenize(&"the ".repeat(round + 1)));
            let _ = parser.try_parse(&cold);
            let before = parser.stats().cache_hits;
            for shape in &hot {
                let _ = parser.try_parse(shape);
            }
            hot_lookups += hot.len() as u64;
            hot_hits += parser.stats().cache_hits - before;
        }
        let rate = hot_hits as f64 / hot_lookups as f64;
        assert!(rate > 0.9, "hot working-set hit rate {rate} <= 0.9");
        assert!(parser.stats().evictions > 0, "churn must evict strays");
        assert!(parser.cache_len() <= 16, "cache bounded by its capacity");
    }
}

/// Concurrency model for the shared parse cache, built only under
/// `RUSTFLAGS="--cfg loom"` (the CI loom job). Three properties of the
/// engine's pool-wide lock-striped cache are modeled:
///
/// 1. **No double parse**: the shape's stripe lock is held across the
///    fallback parse on a shared miss (see `try_parse`), and a shape's
///    stripe is a pure function of its signature — so N workers racing
///    on a cold shape run the O(n³) parser exactly once.
/// 2. **No lost publication across shards**: an insert on any stripe is
///    visible to every later lookup from any worker, regardless of which
///    shards the two workers touched in between.
/// 3. **Bounded, lossless accounting**: under concurrent inserts each
///    two-generation shard never exceeds its capacity, and every entry is
///    either still cached or counted by the eviction counter — rotation
///    cannot silently lose an insert.
#[cfg(all(test, loom))]
mod loom_model {
    use super::*;
    use loom::sync::atomic::{AtomicUsize, Ordering};
    use loom::thread;

    fn sig(test: &str, n: usize) -> Arc<[Sym]> {
        // The \u{1} prefix keeps model keys out of any real class symbol.
        let sym = cmr_text::intern(&format!("\u{1}loom-{test}-{n}"));
        Arc::from(vec![sym].as_slice())
    }

    /// The engine's shared-miss path, reduced to its locking skeleton:
    /// pick the shape's stripe, then look up and (on a miss) parse +
    /// insert under one stripe-lock acquisition.
    fn lookup_or_parse(shared: &SharedParseCache, sig: Arc<[Sym]>, parses: &AtomicUsize) {
        let shard = shared.shard_for(&sig);
        let mut map = shared.lock_shard(shard);
        if map.get(&sig[..]).is_some() {
            shared.inner.hits.fetch_add(1, Ordering::Relaxed);
            return;
        }
        parses.fetch_add(1, Ordering::SeqCst); // "the O(n³) parse"
        map.insert(sig, Err(ParseFailure::NoLinkage));
    }

    #[test]
    fn cold_start_parses_each_shape_exactly_once() {
        loom::model(|| {
            const SHAPES: usize = 3;
            let shared = SharedParseCache::with_capacity(1024);
            let parses: Arc<[AtomicUsize]> =
                Arc::from((0..SHAPES).map(|_| AtomicUsize::new(0)).collect::<Vec<_>>());
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    let shared = shared.clone();
                    let parses = Arc::clone(&parses);
                    thread::spawn(move || {
                        for n in 0..SHAPES {
                            lookup_or_parse(&shared, sig("once", n), &parses[n]);
                        }
                    })
                })
                .collect();
            for w in workers {
                w.join().expect("model worker");
            }
            for (n, count) in parses.iter().enumerate() {
                assert_eq!(count.load(Ordering::SeqCst), 1, "shape {n} parsed twice");
            }
            assert_eq!(shared.len(), SHAPES);
        });
    }

    #[test]
    fn no_lost_publication_across_shards() {
        loom::model(|| {
            // Enough distinct shapes to land on several of the stripes.
            const SHAPES: usize = 5;
            let shared = SharedParseCache::with_capacity(1024);
            let parses: Arc<[AtomicUsize]> =
                Arc::from((0..SHAPES).map(|_| AtomicUsize::new(0)).collect::<Vec<_>>());
            // Worker A publishes shapes in ascending order, worker B in
            // descending order, so the two cross on different shards in
            // every interleaving. Every publication must be observed:
            // exactly-once parsing plus a full final map means no insert
            // was lost between stripes.
            let workers: Vec<_> = [false, true]
                .into_iter()
                .map(|reverse| {
                    let shared = shared.clone();
                    let parses = Arc::clone(&parses);
                    thread::spawn(move || {
                        for i in 0..SHAPES {
                            let n = if reverse { SHAPES - 1 - i } else { i };
                            lookup_or_parse(&shared, sig("publish", n), &parses[n]);
                        }
                    })
                })
                .collect();
            for w in workers {
                w.join().expect("model worker");
            }
            for (n, count) in parses.iter().enumerate() {
                assert_eq!(count.load(Ordering::SeqCst), 1, "shape {n} parsed twice");
            }
            assert_eq!(shared.len(), SHAPES, "a publication was lost");
        });
    }

    #[test]
    fn concurrent_inserts_stay_bounded_and_accounted() {
        loom::model(|| {
            const PER_WORKER: usize = 8;
            // One stripe: the bound under test is the two-generation
            // shard map itself, so pin all keys onto a single shard.
            let shared = SharedParseCache::with_shards(4, 1); // gen_cap = 2
            let workers: Vec<_> = (0..2)
                .map(|w| {
                    let shared = shared.clone();
                    thread::spawn(move || {
                        for n in 0..PER_WORKER {
                            let key = sig("bound", w * PER_WORKER + n);
                            lookup_or_parse(&shared, Arc::clone(&key), &AtomicUsize::new(0));
                            // Re-touching promotes; must never panic or lose.
                            let shard = shared.shard_for(&key);
                            let _ = shared.lock_shard(shard).get(&key[..]);
                        }
                    })
                })
                .collect();
            for w in workers {
                w.join().expect("model worker");
            }
            let len = shared.len() as u64;
            assert!(len <= 4, "two-generation map exceeded its capacity: {len}");
            // Every distinct insert is cached or counted as evicted.
            assert_eq!(
                shared.evictions() + len,
                (2 * PER_WORKER) as u64,
                "rotation lost an insert"
            );
        });
    }
}
