//! Numeric field extraction (§3.1).
//!
//! Pipeline per sentence: identify feature keyword mentions (name +
//! synonyms + inflected variants), identify numbers (digits and number
//! words), then **associate** each feature with a number:
//!
//! * primary: parse with the link grammar parser and take, for each
//!   feature, the number at the smallest weighted shortest-path distance in
//!   the linkage graph (§3.1's novel approach);
//! * fallback: when the parser fails (fragments like
//!   `"Blood pressure: 144/90"`), linguistic patterns
//!   `CONCEPT is NUMBER` / `CONCEPT of NUMBER` / `CONCEPT, NUMBER` /
//!   `CONCEPT: NUMBER`;
//! * a token-proximity baseline is provided for the ablation harness.

use crate::spec::FeatureSpec;
use cmr_linkgram::{LinkParser, LinkWeights};
use cmr_postag::{PosTagger, TaggedToken};
use cmr_text::{annotate_numbers, intern, tokenize, NumberAnnotation, NumberValue, Record, Sym};
use serde::{Deserialize, Serialize};

/// How feature–number association is performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AssociationMethod {
    /// Link-grammar shortest distance, with the pattern fallback when the
    /// parse fails — the paper's configuration.
    #[default]
    LinkWithFallback,
    /// Link-grammar only (no fallback); fragments yield nothing.
    LinkOnly,
    /// Patterns only (the paper's "shallow approach").
    PatternOnly,
    /// Raw token-index proximity (ablation baseline).
    Proximity,
}

/// Which mechanism produced a hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MethodUsed {
    /// Link-grammar graph distance.
    LinkGrammar,
    /// Linguistic pattern fallback.
    Pattern,
    /// The `{N}-year-old` dictation pattern.
    YearOld,
    /// Token proximity (ablation only).
    Proximity,
    /// Tier-3 raw-text salvage scan (see [`crate::ExtractedRecord::methods`]);
    /// never produced by the extractor itself, only by the
    /// [`crate::Pipeline`] salvage stage.
    Salvage,
}

/// One extracted numeric value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NumericHit {
    /// Attribute name from the spec.
    pub field: String,
    /// The associated value.
    pub value: NumberValue,
    /// Mechanism that made the association.
    pub method: MethodUsed,
}

/// Filler tokens a pattern may skip between a feature keyword and its
/// number: copulas, prepositions and list punctuation — generalizing the
/// paper's four patterns (`is` / `of` / `,` / `:`).
const PATTERN_FILLERS: &[&str] = &[
    "is",
    "was",
    "are",
    "were",
    "of",
    "at",
    "about",
    "approximately",
    "around",
    "a",
    "an",
    "age",
    ",",
    ":",
    "to",
];
/// Maximum fillers to skip before giving up on a pattern match.
const MAX_FILLERS: usize = 3;

/// The filler vocabulary of the pattern fallback, exposed for static
/// analysis (each entry must survive tokenization as a single token or it
/// can never fire).
pub fn pattern_fillers() -> &'static [&'static str] {
    PATTERN_FILLERS
}

/// The numeric extractor.
pub struct NumericExtractor {
    parser: LinkParser,
    tagger: PosTagger,
    weights: LinkWeights,
    method: AssociationMethod,
    /// [`PATTERN_FILLERS`], interned.
    fillers: Vec<Sym>,
    /// `"old"`, interned (the `{N} years old` pattern).
    old: Sym,
}

impl Default for NumericExtractor {
    fn default() -> Self {
        NumericExtractor::new()
    }
}

impl NumericExtractor {
    /// Paper configuration: link grammar with pattern fallback, default
    /// link weights.
    pub fn new() -> NumericExtractor {
        NumericExtractor::with_method(AssociationMethod::LinkWithFallback)
    }

    /// Configures the association method (for ablations).
    pub fn with_method(method: AssociationMethod) -> NumericExtractor {
        NumericExtractor {
            parser: LinkParser::new(),
            tagger: PosTagger::new(),
            weights: LinkWeights::default(),
            method,
            fillers: PATTERN_FILLERS.iter().map(|f| intern(f)).collect(),
            old: intern("old"),
        }
    }

    /// Overrides the link weights.
    pub fn with_weights(mut self, weights: LinkWeights) -> NumericExtractor {
        self.weights = weights;
        self
    }

    /// Attaches a pool-wide parse-structure cache (see
    /// [`cmr_linkgram::SharedParseCache`]); each worker of a batch engine
    /// shares one so a sentence shape is link-parsed once per pool.
    pub fn set_shared_parse_cache(&mut self, cache: cmr_linkgram::SharedParseCache) {
        self.parser.set_shared_cache(cache);
    }

    /// Link-parser cache and timing counters (see
    /// [`cmr_linkgram::ParserStats`]).
    pub fn parser_stats(&self) -> cmr_linkgram::ParserStats {
        self.parser.stats()
    }

    /// Extracts all numeric attributes of `specs` from a full record.
    /// Sections route specs; the first hit per attribute wins.
    pub fn extract_record(&self, text: &str, specs: &[FeatureSpec]) -> Vec<NumericHit> {
        self.extract_parsed(&Record::parse(text), specs)
    }

    /// Like [`NumericExtractor::extract_record`], but over an
    /// already-parsed [`Record`] — callers that also need the section
    /// structure (e.g. [`crate::Pipeline`]) parse once and share it.
    pub fn extract_parsed(&self, record: &Record, specs: &[FeatureSpec]) -> Vec<NumericHit> {
        self.extract_budgeted(record, specs, &crate::ExtractBudget::NONE)
            .expect("unlimited budget never trips")
    }

    /// Like [`NumericExtractor::extract_parsed`], but bails with
    /// [`crate::BudgetExceeded`] once the budget runs out. The budget is
    /// checked before each sentence (each sentence is at most one link
    /// parse, the dominant cost), and the link parser abandons a search
    /// that runs past the deadline; hits gathered so far are discarded —
    /// batch drivers treat a tripped budget as a per-record failure.
    pub fn extract_budgeted(
        &self,
        record: &Record,
        specs: &[FeatureSpec],
        budget: &crate::ExtractBudget,
    ) -> Result<Vec<NumericHit>, crate::BudgetExceeded> {
        self.extract_counted(record, specs, budget)
            .map(|(hits, _)| hits)
    }

    /// Like [`NumericExtractor::extract_budgeted`], but additionally
    /// reports link-parse failures by reason. Only sentences that carried
    /// an extraction opportunity (a feature mention with an unfilled spec)
    /// are counted — see [`crate::ParseFailureCounts`].
    pub fn extract_counted(
        &self,
        record: &Record,
        specs: &[FeatureSpec],
        budget: &crate::ExtractBudget,
    ) -> Result<(Vec<NumericHit>, crate::ParseFailureCounts), crate::BudgetExceeded> {
        self.parser.set_deadline(budget.deadline);
        let result = self.extract_within(record, specs, budget);
        self.parser.set_deadline(None);
        result
    }

    /// The body of [`NumericExtractor::extract_counted`], run while the
    /// parser holds the record's deadline.
    fn extract_within(
        &self,
        record: &Record,
        specs: &[FeatureSpec],
        budget: &crate::ExtractBudget,
    ) -> Result<(Vec<NumericHit>, crate::ParseFailureCounts), crate::BudgetExceeded> {
        let mut hits: Vec<NumericHit> = Vec::new();
        let mut failures = crate::ParseFailureCounts::default();
        let mut sentences_done = 0usize;
        for section in &record.sections {
            let key = section.key();
            let routed: Vec<&FeatureSpec> = specs.iter().filter(|s| s.routes_to(&key)).collect();
            if routed.is_empty() {
                continue;
            }
            for sentence in section.sentences() {
                budget.check(sentences_done)?;
                let found = self.extract_sentence_counted(
                    sentence.text(&section.body),
                    &routed,
                    &mut failures,
                );
                sentences_done += 1;
                // A parse the deadline cancelled fell back to the patterns
                // mid-search, so this sentence's hits depend on when the
                // deadline landed: end the record here instead.
                budget.check_deadline(sentences_done)?;
                for hit in found {
                    if !hits.iter().any(|h| h.field == hit.field) {
                        hits.push(hit);
                    }
                }
            }
        }
        Ok((hits, failures))
    }

    /// Extracts from a single sentence against the given specs.
    pub fn extract_sentence(&self, sentence: &str, specs: &[&FeatureSpec]) -> Vec<NumericHit> {
        self.extract_sentence_counted(sentence, specs, &mut crate::ParseFailureCounts::default())
    }

    /// Like [`NumericExtractor::extract_sentence`], recording any
    /// link-parse failure into `failures` when the sentence had an
    /// extraction opportunity.
    pub fn extract_sentence_counted(
        &self,
        sentence: &str,
        specs: &[&FeatureSpec],
        failures: &mut crate::ParseFailureCounts,
    ) -> Vec<NumericHit> {
        let tokens = tokenize(sentence);
        if tokens.is_empty() {
            return Vec::new();
        }
        let numbers = annotate_numbers(&tokens);
        let tagged = self.tagger.tag_owned(tokens);
        let mut hits: Vec<NumericHit> = Vec::new();
        let mut used_numbers: Vec<usize> = Vec::new(); // first_token of consumed numbers
        let mut done_specs: Vec<usize> = Vec::new();

        // The {N}-year-old pattern runs first: it is unambiguous.
        for (si, spec) in specs.iter().enumerate() {
            if !spec.year_old_pattern {
                continue;
            }
            if let Some(num) = year_old_number(&tagged, &numbers, self.old) {
                if spec.accepts(&num.value) {
                    hits.push(NumericHit {
                        field: spec.name.clone(),
                        value: num.value,
                        method: MethodUsed::YearOld,
                    });
                    used_numbers.push(num.first_token);
                    done_specs.push(si);
                }
            }
        }

        let mentions = find_mentions(&tagged, specs);
        let open_specs: Vec<usize> = (0..specs.len())
            .filter(|i| !done_specs.contains(i))
            .collect();
        if mentions.is_empty() || open_specs.is_empty() {
            return hits;
        }

        let assoc = match self.method {
            AssociationMethod::LinkWithFallback => {
                match self.associate_link(&tagged, &mentions, &numbers, specs, &used_numbers) {
                    Ok(a) => a,
                    Err(failure) => {
                        failures.record(failure.into());
                        associate_pattern(
                            &tagged,
                            &mentions,
                            &numbers,
                            specs,
                            &used_numbers,
                            &self.fillers,
                        )
                    }
                }
            }
            AssociationMethod::LinkOnly => self
                .associate_link(&tagged, &mentions, &numbers, specs, &used_numbers)
                .unwrap_or_else(|failure| {
                    failures.record(failure.into());
                    Vec::new()
                }),
            AssociationMethod::PatternOnly => associate_pattern(
                &tagged,
                &mentions,
                &numbers,
                specs,
                &used_numbers,
                &self.fillers,
            ),
            AssociationMethod::Proximity => {
                associate_proximity(&mentions, &numbers, specs, &used_numbers)
            }
        };
        for (si, value, method) in assoc {
            if done_specs.contains(&si) || hits.iter().any(|h| h.field == specs[si].name) {
                continue;
            }
            hits.push(NumericHit {
                field: specs[si].name.clone(),
                value,
                method,
            });
        }
        hits
    }

    /// Link-grammar association; the error carries *why* the sentence did
    /// not parse (see [`cmr_linkgram::ParseFailure`]).
    fn associate_link(
        &self,
        tagged: &[TaggedToken],
        mentions: &[Mention],
        numbers: &[NumberAnnotation],
        specs: &[&FeatureSpec],
        used_numbers: &[usize],
    ) -> Result<Vec<(usize, NumberValue, MethodUsed)>, cmr_linkgram::ParseFailure> {
        let linkage = self.parser.try_parse(tagged)?;
        // Candidate (mention, number, distance) triples.
        let mut cands: Vec<(usize, usize, f64)> = Vec::new();
        for (mi, m) in mentions.iter().enumerate() {
            let Some(mw) = linkage.word_of_token(m.head_token) else {
                continue;
            };
            let dist = linkage.distances_from(mw, &self.weights);
            for (ni, n) in numbers.iter().enumerate() {
                if used_numbers.contains(&n.first_token) || !specs[m.spec].accepts(&n.value) {
                    continue;
                }
                let Some(nw) = linkage.word_of_token(n.first_token) else {
                    continue;
                };
                if dist[nw].is_finite() {
                    cands.push((mi, ni, dist[nw]));
                }
            }
        }
        // Greedy closest-first assignment; one number per spec, one spec per
        // number.
        cands.sort_by(|a, b| a.2.total_cmp(&b.2));
        let mut out: Vec<(usize, NumberValue, MethodUsed)> = Vec::new();
        let mut spec_done: Vec<usize> = Vec::new();
        let mut num_done: Vec<usize> = Vec::new();
        for (mi, ni, _) in cands {
            let si = mentions[mi].spec;
            if spec_done.contains(&si) || num_done.contains(&ni) {
                continue;
            }
            spec_done.push(si);
            num_done.push(ni);
            out.push((si, numbers[ni].value, MethodUsed::LinkGrammar));
        }
        Ok(out)
    }
}

/// A feature-keyword mention in a token stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mention {
    /// Index of the mentioned feature in the spec slice searched.
    pub spec: usize,
    /// Head (= last) token of the phrase, used as the graph node.
    pub head_token: usize,
}

/// Finds the feature-keyword mentions of `specs` in a tagged sentence, left
/// to right: a token matches a phrase word by its lower-cased form or its
/// lemma, and the longest phrase wins at each position (the earlier spec on
/// a tie). The phrases are each spec's compiled
/// [`FeatureSpec::matching_phrases`].
pub fn find_mentions(tagged: &[TaggedToken], specs: &[&FeatureSpec]) -> Vec<Mention> {
    let mut mentions = Vec::new();
    let mut i = 0;
    while i < tagged.len() {
        let mut best: Option<(usize, usize)> = None; // (spec, len)
        for (si, spec) in specs.iter().enumerate() {
            for words in spec.phrase_words() {
                if words.is_empty() || i + words.len() > tagged.len() {
                    continue;
                }
                let all_match = words.iter().enumerate().all(|(k, &w)| {
                    let t = &tagged[i + k];
                    t.token.kind.is_word() && (t.lower == w || t.lemma == w)
                });
                if all_match && best.map(|(_, l)| words.len() > l).unwrap_or(true) {
                    best = Some((si, words.len()));
                }
            }
        }
        if let Some((si, len)) = best {
            mentions.push(Mention {
                spec: si,
                head_token: i + len - 1,
            });
            i += len;
        } else {
            i += 1;
        }
    }
    mentions
}

/// `{N}-year-old` / `{N} year old` / `{N} years old`.
fn year_old_number<'a>(
    tagged: &[TaggedToken],
    numbers: &'a [NumberAnnotation],
    old: Sym,
) -> Option<&'a NumberAnnotation> {
    for n in numbers {
        let after = n.last_token + 1;
        // "50-year-old": tokenizer yields [50]['-']['year-old'].
        if tagged.len() > after + 1
            && tagged[after].token.text == "-"
            && tagged[after + 1].lower().starts_with("year")
        {
            return Some(n);
        }
        // "50 years old".
        if tagged.len() > after + 1
            && tagged[after + 1].lower == old
            && tagged[after].lower().starts_with("year")
        {
            return Some(n);
        }
    }
    None
}

/// Pattern fallback: the paper's `CONCEPT is/of/,/: NUMBER` shapes, with a
/// small filler vocabulary (`filler_words`, the interned [`PATTERN_FILLERS`])
/// and bounded skip.
fn associate_pattern(
    tagged: &[TaggedToken],
    mentions: &[Mention],
    numbers: &[NumberAnnotation],
    specs: &[&FeatureSpec],
    used_numbers: &[usize],
    filler_words: &[Sym],
) -> Vec<(usize, NumberValue, MethodUsed)> {
    let mut out: Vec<(usize, NumberValue, MethodUsed)> = Vec::new();
    let mut num_done: Vec<usize> = used_numbers.to_vec();
    for m in mentions {
        if out.iter().any(|(si, _, _)| *si == m.spec) {
            continue;
        }
        let mut pos = m.head_token + 1;
        let mut fillers = 0;
        while pos < tagged.len() && fillers <= MAX_FILLERS {
            if let Some(n) = numbers
                .iter()
                .find(|n| n.first_token == pos && !num_done.contains(&n.first_token))
            {
                if specs[m.spec].accepts(&n.value) {
                    num_done.push(n.first_token);
                    out.push((m.spec, n.value, MethodUsed::Pattern));
                }
                break;
            }
            if filler_words.contains(&tagged[pos].lower) {
                fillers += 1;
                pos += 1;
            } else {
                break;
            }
        }
    }
    out
}

/// Ablation baseline: nearest number by raw token distance.
fn associate_proximity(
    mentions: &[Mention],
    numbers: &[NumberAnnotation],
    specs: &[&FeatureSpec],
    used_numbers: &[usize],
) -> Vec<(usize, NumberValue, MethodUsed)> {
    let mut cands: Vec<(usize, usize, usize)> = Vec::new();
    for (mi, m) in mentions.iter().enumerate() {
        for (ni, n) in numbers.iter().enumerate() {
            if used_numbers.contains(&n.first_token) || !specs[m.spec].accepts(&n.value) {
                continue;
            }
            let d = n.first_token.abs_diff(m.head_token);
            cands.push((mi, ni, d));
        }
    }
    cands.sort_by_key(|c| c.2);
    let mut out = Vec::new();
    let mut spec_done: Vec<usize> = Vec::new();
    let mut num_done: Vec<usize> = Vec::new();
    for (mi, ni, _) in cands {
        let si = mentions[mi].spec;
        if spec_done.contains(&si) || num_done.contains(&ni) {
            continue;
        }
        spec_done.push(si);
        num_done.push(ni);
        out.push((si, numbers[ni].value, MethodUsed::Proximity));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn extract(sentence: &str) -> Vec<NumericHit> {
        let schema = Schema::paper();
        let specs: Vec<&FeatureSpec> = schema.numeric.iter().collect();
        NumericExtractor::new().extract_sentence(sentence, &specs)
    }

    fn value_of<'a>(hits: &'a [NumericHit], field: &str) -> Option<&'a NumericHit> {
        hits.iter().find(|h| h.field == field)
    }

    #[test]
    fn paper_example_sentence() {
        let hits = extract(
            "Blood pressure is 144/90, pulse of 84, temperature of 98.3, and weight of 154 pounds.",
        );
        assert_eq!(
            value_of(&hits, "blood_pressure")
                .expect("field extracted")
                .value,
            NumberValue::Ratio(144, 90)
        );
        assert_eq!(
            value_of(&hits, "pulse").expect("field extracted").value,
            NumberValue::Int(84)
        );
        assert_eq!(
            value_of(&hits, "temperature")
                .expect("field extracted")
                .value,
            NumberValue::Float(98.3)
        );
        assert_eq!(
            value_of(&hits, "weight").expect("field extracted").value,
            NumberValue::Int(154)
        );
        assert!(
            hits.iter().all(|h| h.method == MethodUsed::LinkGrammar),
            "{hits:?}"
        );
    }

    #[test]
    fn fragment_uses_pattern_fallback() {
        let hits = extract("Blood pressure: 144/90.");
        let bp = value_of(&hits, "blood_pressure").expect("field extracted");
        assert_eq!(bp.value, NumberValue::Ratio(144, 90));
        assert_eq!(bp.method, MethodUsed::Pattern);
    }

    #[test]
    fn gyn_fragment() {
        let hits = extract(
            "Menarche at age 10, gravida 4, para 3, last menstrual period about a year ago.",
        );
        assert_eq!(
            value_of(&hits, "menarche_age")
                .expect("field extracted")
                .value,
            NumberValue::Int(10)
        );
        assert_eq!(
            value_of(&hits, "gravida").expect("field extracted").value,
            NumberValue::Int(4)
        );
        assert_eq!(
            value_of(&hits, "para").expect("field extracted").value,
            NumberValue::Int(3)
        );
    }

    #[test]
    fn first_live_birth() {
        let hits = extract("First live birth at age 18.");
        assert_eq!(
            value_of(&hits, "first_birth_age")
                .expect("field extracted")
                .value,
            NumberValue::Int(18)
        );
    }

    #[test]
    fn year_old_age() {
        let hits = extract("Ms. 2 is a 50-year-old woman who underwent a screening mammogram.");
        let age = value_of(&hits, "age").expect("field extracted");
        assert_eq!(age.value, NumberValue::Int(50));
        assert_eq!(age.method, MethodUsed::YearOld);
    }

    #[test]
    fn kind_filtering_prevents_ratio_theft() {
        // The pulse spec must not take the blood-pressure ratio.
        let hits = extract("Blood pressure is 144/90 and pulse is 84.");
        assert_eq!(
            value_of(&hits, "pulse").expect("field extracted").value,
            NumberValue::Int(84)
        );
        assert_eq!(
            value_of(&hits, "blood_pressure")
                .expect("field extracted")
                .value,
            NumberValue::Ratio(144, 90)
        );
    }

    #[test]
    fn number_words_extracted() {
        let hits = extract("Menarche at age seventeen.");
        assert_eq!(
            value_of(&hits, "menarche_age")
                .expect("field extracted")
                .value,
            NumberValue::Int(17)
        );
    }

    #[test]
    fn no_numbers_no_hits() {
        assert!(extract("Blood pressure was not recorded.").is_empty());
    }

    #[test]
    fn no_features_no_hits() {
        assert!(extract("She was seen in clinic on day 3.").is_empty());
    }

    #[test]
    fn record_level_routing() {
        let schema = Schema::paper();
        let ex = NumericExtractor::new();
        let text = "GYN History:  Menarche at age 12, gravida 2, para 1.\n\
                    Vitals:  Blood pressure is 130/80, pulse of 72, temperature of 98.6, and weight of 150 pounds.\n";
        let hits = ex.extract_record(text, &schema.numeric);
        assert_eq!(
            hits.iter()
                .find(|h| h.field == "menarche_age")
                .expect("field extracted")
                .value,
            NumberValue::Int(12)
        );
        assert_eq!(
            hits.iter()
                .find(|h| h.field == "pulse")
                .expect("field extracted")
                .value,
            NumberValue::Int(72)
        );
        // Age spec routed to HPI only: absent here.
        assert!(hits.iter().all(|h| h.field != "age"));
    }

    #[test]
    fn link_only_fails_on_fragments() {
        let schema = Schema::paper();
        let specs: Vec<&FeatureSpec> = schema.numeric.iter().collect();
        let ex = NumericExtractor::with_method(AssociationMethod::LinkOnly);
        let hits = ex.extract_sentence("Blood pressure: 144/90.", &specs);
        assert!(hits.is_empty());
    }

    #[test]
    fn proximity_method_works_on_simple_cases() {
        let schema = Schema::paper();
        let specs: Vec<&FeatureSpec> = schema.numeric.iter().collect();
        let ex = NumericExtractor::with_method(AssociationMethod::Proximity);
        let hits = ex.extract_sentence("pulse of 84", &specs);
        assert_eq!(hits[0].value, NumberValue::Int(84));
        assert_eq!(hits[0].method, MethodUsed::Proximity);
    }

    #[test]
    fn hard_attachment_favors_link_grammar() {
        // "elevated" breaks the pattern filler chain; the linkage still
        // connects pressure → is → at → 142/78.
        let hits = extract("Blood pressure is elevated at 142/78.");
        let bp = value_of(&hits, "blood_pressure").expect("field extracted");
        assert_eq!(bp.value, NumberValue::Ratio(142, 78));
        assert_eq!(bp.method, MethodUsed::LinkGrammar);
    }
}
