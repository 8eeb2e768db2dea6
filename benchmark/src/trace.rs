//! The traced run: per-layer self time, measured from outside the
//! program by calling each layer's long-lived public entry point.
//!
//! For each note, the parent span `pipeline` is `Pipeline::extract`; the
//! spans `ndjson.decode` before it and `serialize` (`serde_json::to_string`
//! of the record) after it are its siblings. The pipeline's children are
//! timed on a second, identically warmed set of components fed exactly
//! what the pipeline feeds them: `text.record_parse`, one `core.numeric`
//! span per routed sentence (children `text.tokenize`,
//! `text.annotate_numbers`, `postag.tag` and, where the extractor's parser
//! counters show a lookup, `linkgram.parse`), and one `core.terms` span
//! per term section (children `text.tokenize`, `postag.tag`).
//!
//! A span's self time is its duration minus its children's. The
//! `pipeline` span's own self time is `unattributed`: `pipeline` minus
//! `record_parse + numeric + terms`. It is never clamped or folded into
//! another row, so the layer rows always add up to the traced pipeline
//! time.
//!
//! Spans are kept in memory; those of the first [`KEEP_NOTES`] notes are
//! written as Chrome trace-event JSON at the end. Durations are measured;
//! positions inside `pipeline` are not (the children ran on the replay),
//! so children are drawn back to back from their parent's start.

use cmr_core::{FeatureSpec, MedicalTermExtractor, NumericExtractor, Pipeline, Schema};
use cmr_linkgram::{LinkParser, ParserStats};
use cmr_ontology::{Ontology, ValueSet};
use cmr_postag::PosTagger;
use cmr_serve::ndjson::note_text_from_ndjson;
use cmr_text::{annotate_numbers, tokenize, Record};
use serde::Value;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Notes whose spans are written to the trace file.
const KEEP_NOTES: usize = 500;

pub const DECODE: &str = "ndjson.decode";
pub const PIPELINE: &str = "pipeline";
pub const SERIALIZE: &str = "serialize";
pub const RECORD_PARSE: &str = "text.record_parse";
pub const NUMERIC: &str = "core.numeric";
pub const TERMS: &str = "core.terms";
pub const TOKENIZE: &str = "text.tokenize";
pub const ANNOTATE: &str = "text.annotate_numbers";
pub const TAG: &str = "postag.tag";
pub const PARSE: &str = "linkgram.parse";
pub const UNATTRIBUTED: &str = "core.unattributed";

/// The layer table's rows, in print order; `pipeline`'s own self time is
/// printed as [`UNATTRIBUTED`].
const LAYERS: [&str; 8] = [
    RECORD_PARSE,
    TOKENIZE,
    ANNOTATE,
    TAG,
    PARSE,
    NUMERIC,
    TERMS,
    PIPELINE,
];

/// One recorded span; times are nanoseconds since the traced run began.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Note index: every span of one note shares it.
    pub note: usize,
    pub start: u64,
    pub end: u64,
    /// Index of the parent span in the same list.
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// Self time of every span: its duration minus its direct children's.
/// Not clamped, so a replay that ran longer than the pipeline shows as a
/// negative `unattributed` instead of vanishing.
fn self_times(spans: &[Span]) -> Vec<i64> {
    let mut own: Vec<i64> = spans.iter().map(|s| s.dur() as i64).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.dur() as i64;
        }
    }
    own
}

/// Counters taken at the same boundaries as the spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub notes: u64,
    pub tokens: u64,
    pub parse_calls: u64,
    pub parse_failures: u64,
    pub parse_hits: u64,
    pub parse_misses: u64,
    /// `ParserStats::parse_nanos` growth: time in uncached parses.
    pub parse_cold_ns: u64,
    pub term_hits: u64,
    pub serialize_bytes: u64,
}

/// Result of a traced run.
pub struct Traced {
    pub spans: Vec<Span>,
    pub counts: Counts,
    /// Untraced `decode + extract + serialize` over the same notes.
    pub untraced_ns: u64,
    /// Median traced `decode + pipeline + serialize` of one note.
    pub p50_note_ns: f64,
}

impl Traced {
    /// Summed duration of the spans named `name`.
    pub fn total(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur)
            .sum()
    }

    /// Summed self time per layer, in table order, the last row being
    /// `unattributed`. The rows add up to `total(PIPELINE)` exactly.
    pub fn layer_rows(&self) -> Vec<(&'static str, i64)> {
        let own = self_times(&self.spans);
        LAYERS
            .iter()
            .map(|&layer| {
                let sum = self
                    .spans
                    .iter()
                    .zip(&own)
                    .filter(|(s, _)| s.name == layer)
                    .map(|(_, o)| o)
                    .sum();
                (
                    if layer == PIPELINE {
                        UNATTRIBUTED
                    } else {
                        layer
                    },
                    sum,
                )
            })
            .collect()
    }
}

/// Appends one note's spans, packing children from their parent's start.
struct Recorder<'a> {
    spans: &'a mut Vec<Span>,
    note: usize,
}

impl Recorder<'_> {
    /// Records a span of `dur` ns at `start`; returns its index.
    fn span(&mut self, name: &'static str, start: u64, dur: u64, parent: Option<usize>) -> usize {
        self.spans.push(Span {
            name,
            note: self.note,
            start,
            end: start + dur,
            parent,
        });
        self.spans.len() - 1
    }

    /// Records a child right after its previous sibling (`at` advances).
    fn child(&mut self, name: &'static str, at: &mut u64, dur: u64, parent: usize) {
        self.span(name, *at, dur, Some(parent));
        *at += dur;
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Runs `f`, returning its result and the elapsed nanoseconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t = Instant::now();
    let r = black_box(f());
    (r, nanos(t.elapsed()))
}

/// The replay's own components, warmed by the same notes as the
/// pipeline's.
struct Replay {
    schema: Schema,
    numeric: NumericExtractor,
    terms: MedicalTermExtractor,
    tagger: PosTagger,
    parser: LinkParser,
    medical: ValueSet,
    surgical: ValueSet,
}

fn lookups(s: &ParserStats) -> u64 {
    s.cache_hits + s.cache_misses
}

impl Replay {
    fn new() -> Replay {
        Replay {
            schema: Schema::paper(),
            numeric: NumericExtractor::new(),
            terms: MedicalTermExtractor::new(Ontology::full()),
            tagger: PosTagger::new(),
            parser: LinkParser::new(),
            medical: ValueSet::predefined_medical_history(),
            surgical: ValueSet::predefined_surgical_history(),
        }
    }

    /// Replays one note's pipeline work layer by layer under the
    /// `pipeline` span `parent`.
    fn note(&self, text: &str, c: &mut Counts, rec: &mut Recorder, parent: usize) {
        let mut cursor = rec.spans[parent].start;
        let (record, d) = timed(|| Record::parse(text));
        rec.child(RECORD_PARSE, &mut cursor, d, parent);

        // Numeric: the pipeline's section routing, sentence by sentence.
        let mut failures = Default::default();
        for section in &record.sections {
            let key = section.key();
            let routed: Vec<&FeatureSpec> = self
                .schema
                .numeric
                .iter()
                .filter(|s| {
                    s.sections.is_empty() || s.sections.iter().any(|x| x.to_lowercase() == key)
                })
                .collect();
            if routed.is_empty() {
                continue;
            }
            for sentence in section.sentences() {
                let s = sentence.text(&section.body);
                let before = lookups(&self.numeric.parser_stats());
                let (_, d) = timed(|| {
                    self.numeric
                        .extract_sentence_counted(s, &routed, &mut failures)
                });
                let looked_up = lookups(&self.numeric.parser_stats()) > before;
                let span = rec.span(NUMERIC, cursor, d, Some(parent));
                let mut at = cursor;
                cursor += d;

                let (tokens, d) = timed(|| tokenize(s));
                c.tokens += tokens.len() as u64;
                rec.child(TOKENIZE, &mut at, d, span);
                if tokens.is_empty() {
                    continue;
                }
                let (_, d) = timed(|| annotate_numbers(&tokens));
                rec.child(ANNOTATE, &mut at, d, span);
                let (tagged, d) = timed(|| self.tagger.tag_owned(tokens));
                rec.child(TAG, &mut at, d, span);
                if looked_up {
                    let before = self.parser.stats();
                    let (result, d) = timed(|| self.parser.try_parse(&tagged));
                    let after = self.parser.stats();
                    c.parse_calls += 1;
                    c.parse_failures += u64::from(result.is_err());
                    c.parse_hits += after.cache_hits - before.cache_hits;
                    c.parse_misses += after.cache_misses - before.cache_misses;
                    c.parse_cold_ns += after.parse_nanos - before.parse_nanos;
                    rec.child(PARSE, &mut at, d, span);
                }
            }
        }

        // Terms: each term field's sections, in the pipeline's order.
        for field in &self.schema.terms {
            let set = match field.name.as_str() {
                "past_medical_history" => &self.medical,
                "past_surgical_history" => &self.surgical,
                _ => continue,
            };
            for name in &field.sections {
                let Some(section) = record.section(name) else {
                    continue;
                };
                let ((pre, other), d) =
                    timed(|| self.terms.extract_partitioned(&section.body, set));
                c.term_hits += (pre.len() + other.len()) as u64;
                let span = rec.span(TERMS, cursor, d, Some(parent));
                let mut at = cursor;
                cursor += d;
                let (tokens, d) = timed(|| tokenize(&section.body));
                c.tokens += tokens.len() as u64;
                rec.child(TOKENIZE, &mut at, d, span);
                let (_, d) = timed(|| self.tagger.tag(&tokens));
                rec.child(TAG, &mut at, d, span);
            }
        }
    }
}

/// Traces `lines` (NDJSON notes, in order) until `budget` is spent. Each
/// note also goes once through an untraced pipeline, alternating which
/// goes first so neither side runs on the warmer caches; the two totals
/// give the instrumentation's overhead.
pub fn run(lines: &[String], budget: Duration) -> Traced {
    let plain = Pipeline::with_default_schema();
    let pipeline = Pipeline::with_default_schema();
    let replay = Replay::new();
    let mut counts = Counts::default();
    let mut spans = Vec::new();
    let mut per_note = Vec::new();
    let mut untraced_ns = 0;
    let t0 = Instant::now();
    let since = |i: Instant| nanos(i.duration_since(t0));
    for (note, line) in lines.iter().enumerate() {
        if note > 0 && t0.elapsed() > budget {
            break;
        }
        let untraced = || {
            timed(|| {
                let record = plain.extract(&note_text_from_ndjson(line));
                serde_json::to_string(&record).expect("records serialize")
            })
            .1
        };
        if note % 2 == 0 {
            untraced_ns += untraced();
        }
        let mut rec = Recorder {
            spans: &mut spans,
            note,
        };
        let at = Instant::now();
        let (text, decode) = timed(|| note_text_from_ndjson(line));
        rec.span(DECODE, since(at), decode, None);
        let at = Instant::now();
        let (record, extract) = timed(|| pipeline.extract(&text));
        let pipe = rec.span(PIPELINE, since(at), extract, None);
        let at = Instant::now();
        let (json, serialize) =
            timed(|| serde_json::to_string(&record).expect("records serialize"));
        rec.span(SERIALIZE, since(at), serialize, None);
        counts.notes += 1;
        counts.serialize_bytes += json.len() as u64;
        per_note.push((decode + extract + serialize) as f64);
        replay.note(&text, &mut counts, &mut rec, pipe);
        if note % 2 == 1 {
            untraced_ns += untraced();
        }
    }
    Traced {
        spans,
        counts,
        untraced_ns,
        p50_note_ns: crate::stats::median(&per_note),
    }
}

/// Writes the spans of the first [`KEEP_NOTES`] notes as Chrome
/// trace-event JSON (open in Perfetto or chrome://tracing): one complete
/// event per span, the note index as its id, the parent's name in args.
pub fn write_chrome(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let events: Vec<Value> = spans
        .iter()
        .filter(|s| s.note < KEEP_NOTES)
        .map(|s| {
            let parent = s.parent.map_or("", |p| spans[p].name);
            Value::Object(vec![
                ("name".into(), Value::String(s.name.into())),
                ("cat".into(), Value::String("layer".into())),
                ("ph".into(), Value::String("X".into())),
                ("ts".into(), Value::Float(s.start as f64 / 1e3)),
                ("dur".into(), Value::Float(s.dur() as f64 / 1e3)),
                ("pid".into(), Value::Int(1)),
                ("tid".into(), Value::Int(1)),
                ("id".into(), Value::Int(s.note as i64)),
                (
                    "args".into(),
                    Value::Object(vec![
                        ("note".into(), Value::Int(s.note as i64)),
                        ("parent".into(), Value::String(parent.into())),
                    ]),
                ),
            ])
        })
        .collect();
    let doc = Value::Object(vec![("traceEvents".into(), Value::Array(events))]);
    let json = serde_json::to_string(&doc).map_err(std::io::Error::other)?;
    std::fs::write(path, json)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            note: 0,
            start,
            end,
            parent,
        }
    }

    /// pipeline [0,100) ⊃ record_parse [0,5), numeric [5,65) ⊃ {tokenize
    /// [5,15), parse [15,45)}, terms [65,95) ⊃ tag [65,80).
    fn nested() -> Vec<Span> {
        vec![
            span(PIPELINE, 0, 100, None),
            span(RECORD_PARSE, 0, 5, Some(0)),
            span(NUMERIC, 5, 65, Some(0)),
            span(TOKENIZE, 5, 15, Some(2)),
            span(PARSE, 15, 45, Some(2)),
            span(TERMS, 65, 95, Some(0)),
            span(TAG, 65, 80, Some(5)),
            span(SERIALIZE, 100, 120, None),
        ]
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        assert_eq!(self_times(&nested()), vec![5, 5, 20, 10, 30, 15, 15, 20]);
    }

    #[test]
    fn layer_rows_add_up_to_the_pipeline_with_unattributed() {
        let t = Traced {
            spans: nested(),
            counts: Counts::default(),
            untraced_ns: 0,
            p50_note_ns: 0.0,
        };
        let rows = t.layer_rows();
        assert_eq!(rows.last(), Some(&(UNATTRIBUTED, 5)));
        assert!(rows.contains(&(NUMERIC, 20)));
        assert!(rows.contains(&(TERMS, 15)));
        assert_eq!(
            rows.iter().map(|(_, v)| v).sum::<i64>(),
            t.total(PIPELINE) as i64
        );
        // `serialize` is a sibling of the pipeline, not a layer inside it.
        assert_eq!(t.total(SERIALIZE), 20);
    }

    #[test]
    fn unattributed_goes_negative_rather_than_hiding() {
        // The replayed children took longer than the pipeline span.
        let spans = vec![
            span(PIPELINE, 0, 100, None),
            span(NUMERIC, 0, 80, Some(0)),
            span(TERMS, 80, 110, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], -10);
    }
}
