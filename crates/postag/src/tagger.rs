//! The tagger: lexicon analysis + contextual disambiguation.
//!
//! A two-pass design in the spirit of Brill's tagger: pass one proposes
//! candidate tags per token from the closed-class table, the morphology
//! engine and suffix heuristics; pass two walks left-to-right resolving
//! ambiguity from the already-chosen left context and a one-token lookahead.

use crate::closed::closed_class;
use crate::tag::Tag;
use cmr_lexicon::{
    is_known_adjective, is_known_adverb, is_known_noun, is_known_verb, Lemmatizer, WordClass,
};
use cmr_text::{intern, intern_lower, word_value, Sym, Token, TokenKind};
use std::cell::RefCell;
use std::collections::HashMap;

/// A token with its resolved tag and lemma.
///
/// `lower` and `lemma` are interned [`Sym`]s: downstream stages (dictionary
/// lookup, parse-cache signatures, phrase matching) compare and hash them as
/// `u32`s instead of allocating lowercase `String`s per token per stage.
/// Number tokens get the [`num_sentinel`] symbol for both — their spellings
/// are unbounded and must never grow the interner.
#[derive(Debug, Clone, PartialEq)]
pub struct TaggedToken {
    /// The underlying token.
    pub token: Token,
    /// Resolved part-of-speech tag.
    pub tag: Tag,
    /// Lemma under the resolved tag's word class (interned).
    pub lemma: Sym,
    /// Lower-cased surface form (interned; sentinel for number tokens).
    pub lower: Sym,
}

impl TaggedToken {
    /// Lower-cased surface form. For number tokens this is the interner
    /// sentinel, not the digits — numeric consumers read
    /// `token.text`/`token.kind` instead.
    pub fn lower(&self) -> &'static str {
        self.lower.as_str()
    }
}

/// The reserved symbol standing in for every number token's lower/lemma.
/// Contains a control character, so no tokenizer output can ever collide
/// with it.
pub fn num_sentinel() -> Sym {
    intern("\u{1}NUM")
}

/// Candidate analyses for one token before contextual resolution.
#[derive(Debug, Clone, Copy)]
struct Candidates {
    /// Fixed tag that context cannot change (numbers, punctuation).
    fixed: Option<Tag>,
    closed: Option<&'static [Tag]>,
    noun: Option<Tag>,
    verb: Option<Tag>,
    adj: Option<Tag>,
    adv: bool,
    /// Fallback when nothing else matched.
    default: Tag,
}

impl Default for Candidates {
    fn default() -> Self {
        Candidates {
            fixed: None,
            closed: None,
            noun: None,
            verb: None,
            adj: None,
            adv: false,
            default: Tag::NN,
        }
    }
}

/// The part-of-speech tagger.
///
/// Tagging a word's candidates and lemmas is a fixed function of its
/// lower-cased form (plus, for unknown words, whether it is capitalized
/// mid-sentence), so the tagger memoizes both per word. The memo is per
/// instance (`RefCell`, so a tagger is `!Sync`: each worker owns one) and
/// only ever grows: it holds at most two analyses and three lemmas per
/// distinct word the tagger has seen, so like the interner it is bounded by
/// the vocabulary, not the corpus.
///
/// ```
/// use cmr_postag::PosTagger;
/// use cmr_text::tokenize;
///
/// let tagger = PosTagger::new();
/// let tagged = tagger.tag(&tokenize("She denies alcohol use."));
/// let tags: Vec<&str> = tagged.iter().map(|t| t.tag.as_str()).collect();
/// assert_eq!(tags, ["PRP", "VBZ", "NN", "NN", "PUNCT"]);
/// ```
#[derive(Debug, Default)]
pub struct PosTagger {
    memo: RefCell<Memo>,
}

/// Per-word analysis memo (see [`PosTagger`]).
#[derive(Debug, Default)]
struct Memo {
    /// Pass-one candidates of word tokens by (lower-cased form, proper),
    /// where proper = capitalized and not sentence-initial.
    candidates: HashMap<(Sym, bool), Candidates>,
    /// Lemma by (lower-cased form, word class of the resolved tag).
    lemmas: HashMap<(Sym, WordClass), Sym>,
}

impl PosTagger {
    /// Creates a tagger with an empty memo (cheap: nothing is analyzed
    /// until a word is first tagged).
    pub fn new() -> Self {
        PosTagger::default()
    }

    /// Tags a token sequence (typically one sentence), cloning the tokens.
    /// Callers that own their tokens should prefer
    /// [`PosTagger::tag_owned`], which moves them instead.
    pub fn tag(&self, tokens: &[Token]) -> Vec<TaggedToken> {
        self.tag_owned(tokens.to_vec())
    }

    /// Tags a token sequence, consuming it — the hot path: no per-token
    /// `Token` clone, one interner lookup per token instead of a lowercase
    /// `String` per stage, and O(1) left-context tracking instead of a
    /// backward scan per token.
    pub fn tag_owned(&self, tokens: Vec<Token>) -> Vec<TaggedToken> {
        let lem = Lemmatizer::new();
        let mut memo = self.memo.borrow_mut();
        let num = num_sentinel();
        let lowers: Vec<Sym> = tokens
            .iter()
            .map(|t| match t.kind {
                TokenKind::Number(_) => num,
                _ => intern_lower(&t.text),
            })
            .collect();
        let candidates: Vec<Candidates> = tokens
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let proper = !is_boundary(&tokens, i) && t.text.starts_with(char::is_uppercase);
                match fixed_tag(t.kind) {
                    Some(tag) => Candidates {
                        fixed: Some(tag),
                        ..Candidates::default()
                    },
                    None => *memo
                        .candidates
                        .entry((lowers[i], proper))
                        .or_insert_with(|| analyze(lowers[i], proper, &lem)),
                }
            })
            .collect();

        let mut out: Vec<TaggedToken> = Vec::with_capacity(tokens.len());
        // Effective left context skips adverbs so "has never smoked" still
        // sees the auxiliary.
        let mut prev: Option<(Tag, Sym)> = None;
        for (i, tok) in tokens.into_iter().enumerate() {
            let cand = &candidates[i];
            let next_is_nounish = candidates.get(i + 1).map(looks_nounish).unwrap_or(false);
            let tag = resolve(cand, prev, next_is_nounish);
            let lemma = lemma_for(lowers[i], tag, &lem, &mut memo.lemmas);
            if !tag.is_adverb() {
                prev = Some((tag, lowers[i]));
            }
            out.push(TaggedToken {
                token: tok,
                tag,
                lemma,
                lower: lowers[i],
            });
        }
        out
    }
}

fn is_boundary(tokens: &[Token], i: usize) -> bool {
    i == 0
        || matches!(tokens.get(i - 1), Some(t) if t.kind == TokenKind::Punct
            && matches!(t.text.as_str(), "." | ":" | ";" | "!" | "?"))
}

fn looks_nounish(c: &Candidates) -> bool {
    if let Some(f) = c.fixed {
        return f.is_noun() || f == Tag::CD;
    }
    if let Some(tags) = c.closed {
        return tags.first().map(|t| t.is_noun()).unwrap_or(false);
    }
    c.noun.is_some() || c.adj.is_some() || c.default.is_noun()
}

/// The tag of a non-word token, which context cannot change.
fn fixed_tag(kind: TokenKind) -> Option<Tag> {
    match kind {
        TokenKind::Number(_) => Some(Tag::CD),
        TokenKind::Punct => Some(Tag::PUNCT),
        TokenKind::Symbol => Some(Tag::SYM),
        TokenKind::Word => None,
    }
}

/// Pass one: propose candidates for a word token. `lower_sym` is its
/// interned lowercase form (resolved once here; every lexicon probe below
/// shares the `&'static str`); `proper` is whether it is capitalized and
/// not sentence-initial. The result depends on nothing else, which is what
/// lets [`PosTagger`] memoize it.
fn analyze(lower_sym: Sym, proper: bool, lem: &Lemmatizer) -> Candidates {
    let mut c = Candidates::default();
    let lower = lower_sym.as_str();
    if let Some(tags) = closed_class(lower) {
        c.closed = Some(tags);
        return c;
    }
    if word_value(lower).is_some() {
        c.fixed = Some(Tag::CD);
        return c;
    }

    // Adverbs.
    if is_known_adverb(lower) || (lower.ends_with("ly") && lower.len() > 4) {
        c.adv = true;
    }
    // Verb readings.
    if is_known_verb(lower) {
        // Zero-derived pasts ("quit", "put", "set") prefer the past reading;
        // context can still demand VB after to/modals.
        c.verb = Some(if cmr_lexicon::verb_past(lower) == lower {
            Tag::VBD
        } else {
            Tag::VBP
        });
    } else {
        let vlemma = lem.lemma(lower, WordClass::Verb);
        if vlemma != lower && is_known_verb(&vlemma) {
            c.verb = Some(verb_form_tag(lower, &vlemma));
        }
    }
    // Adjective readings.
    if is_known_adjective(lower) {
        c.adj = Some(Tag::JJ);
    } else {
        let alemma = lem.lemma(lower, WordClass::Adjective);
        if alemma != lower && is_known_adjective(&alemma) {
            c.adj = Some(if lower.ends_with("est") {
                Tag::JJS
            } else {
                Tag::JJR
            });
        }
    }
    // Noun readings.
    if is_known_noun(lower) {
        c.noun = Some(Tag::NN);
    } else {
        let nlemma = lem.lemma(lower, WordClass::Noun);
        if nlemma != lower && is_known_noun(&nlemma) {
            c.noun = Some(Tag::NNS);
        }
    }

    // Unknown word: suffix heuristics, then capitalization.
    if c.noun.is_none() && c.verb.is_none() && c.adj.is_none() && !c.adv {
        c.default = guess_unknown(lower, proper);
    }
    c
}

/// Tag for an inflected form of a known verb lemma.
fn verb_form_tag(surface: &str, lemma: &str) -> Tag {
    if surface.ends_with("ing") {
        return Tag::VBG;
    }
    // 3sg: surface is lemma+s-ish and ends in s.
    if surface.ends_with('s') && !surface.ends_with("ss") {
        return Tag::VBZ;
    }
    if surface.ends_with("ed") {
        return Tag::VBD; // VBD/VBN resolved contextually
    }
    // Irregular past or participle (e.g. "underwent", "undergone").
    if cmr_lexicon::verb_past_participle(lemma) == surface
        && cmr_lexicon::verb_past(lemma) != surface
    {
        return Tag::VBN;
    }
    Tag::VBD
}

/// Suffix + capitalization heuristics for out-of-lexicon words (mostly
/// medical vocabulary, which is noun-heavy). `proper`: capitalized and not
/// sentence-initial.
fn guess_unknown(lower: &str, proper: bool) -> Tag {
    const NOUN_SUFFIXES: &[&str] = &[
        "tion", "sion", "ment", "ness", "ity", "ance", "ence", "ism", "itis", "osis", "oma",
        "ectomy", "otomy", "ostomy", "plasty", "scopy", "gram", "graphy", "pathy", "emia", "uria",
        "algia", "ology", "age", "ist", "er", "or",
    ];
    const ADJ_SUFFIXES: &[&str] = &[
        "ous", "ive", "al", "ic", "ary", "able", "ible", "ful", "less", "oid", "atic",
    ];
    const VERB_SUFFIXES: &[&str] = &["ize", "ise", "ate", "ify"];

    // Mid-sentence capitalization marks a proper noun (drug and brand names
    // like "Lipitor") regardless of suffix shape.
    if proper {
        return Tag::NNP;
    }
    if lower.ends_with("ly") && lower.len() > 4 {
        return Tag::RB;
    }
    for s in NOUN_SUFFIXES {
        if lower.ends_with(s) && lower.len() > s.len() + 2 {
            return Tag::NN;
        }
    }
    for s in ADJ_SUFFIXES {
        if lower.ends_with(s) && lower.len() > s.len() + 2 {
            return Tag::JJ;
        }
    }
    for s in VERB_SUFFIXES {
        if lower.ends_with(s) && lower.len() > s.len() + 2 {
            return Tag::VB;
        }
    }
    if lower.ends_with("ing") && lower.len() > 5 {
        return Tag::VBG;
    }
    if lower.ends_with("ed") && lower.len() > 4 {
        return Tag::VBN;
    }
    if lower.ends_with('s')
        && !lower.ends_with("ss")
        && !lower.ends_with("us")
        && !lower.ends_with("is")
        && lower.len() > 3
    {
        return Tag::NNS;
    }
    Tag::NN
}

fn is_have(word: &str) -> bool {
    matches!(word, "have" | "has" | "had" | "having")
}

fn is_be(word: &str) -> bool {
    matches!(
        word,
        "be" | "am" | "is" | "are" | "was" | "were" | "been" | "being"
    )
}

fn is_do(word: &str) -> bool {
    matches!(word, "do" | "does" | "did")
}

/// Pass two: choose the final tag given left context and lookahead.
fn resolve(c: &Candidates, prev: Option<(Tag, Sym)>, next_is_nounish: bool) -> Tag {
    if let Some(tag) = c.fixed {
        return tag;
    }
    if let Some(tags) = c.closed {
        return resolve_closed(tags, prev, next_is_nounish);
    }
    let prev_tag = prev.map(|(t, _)| t);
    let prev_word = prev.map(|(_, w)| w.as_str()).unwrap_or("");

    // Nominal left context forces a nominal/adjectival reading.
    let nominal_left = matches!(
        prev_tag,
        Some(Tag::DT | Tag::PRPS | Tag::JJ | Tag::JJR | Tag::JJS | Tag::CD)
    );
    // Verbal left context prefers a verb reading.
    let after_to_or_md = matches!(prev_tag, Some(Tag::TO | Tag::MD));

    if after_to_or_md && c.verb.is_some() {
        return Tag::VB;
    }
    // Do-support: "does not smoke" takes the base form.
    if is_do(prev_word) && c.verb.is_some() {
        return Tag::VB;
    }
    if is_have(prev_word) {
        if let Some(v) = c.verb {
            // "has had", "had undergone": participial reading.
            return match v {
                Tag::VBD | Tag::VBN => Tag::VBN,
                other => other,
            };
        }
    }
    if is_be(prev_word) {
        if let Some(v) = c.verb {
            if v == Tag::VBG {
                return Tag::VBG;
            }
            if matches!(v, Tag::VBD | Tag::VBN) {
                // "was diagnosed": passive participle...
                if c.adj.is_some() && next_is_nounish {
                    return Tag::JJ;
                }
                return Tag::VBN;
            }
        }
        // "is negative", "is significant": predicative adjective.
        if let Some(a) = c.adj {
            return a;
        }
    }
    if nominal_left {
        // Adjective before a noun, otherwise noun.
        if let Some(a) = c.adj {
            if next_is_nounish || c.noun.is_none() {
                return a;
            }
        }
        if let Some(n) = c.noun {
            return n;
        }
        if let Some(a) = c.adj {
            return a;
        }
        if c.adv {
            return Tag::RB;
        }
        // A verb candidate after a determiner is a nominalization ("the use").
        if c.verb.is_some() {
            return Tag::NN;
        }
    }
    // Subject to the left: prefer a finite verb whose agreement fits.
    // A bare VBP after a singular noun ("alcohol use") is a noun-noun
    // compound, not a clause verb, so only pronouns/plurals license VBP.
    if let Some(v) = c.verb {
        let licensed = matches!(
            (prev_tag, v),
            (Some(Tag::PRP | Tag::EX), Tag::VBZ | Tag::VBD | Tag::VBP)
                | (Some(Tag::NN | Tag::NNP), Tag::VBZ | Tag::VBD)
                | (Some(Tag::NNS), Tag::VBP | Tag::VBD)
        );
        if licensed {
            return v;
        }
        // A gerund right after a verb is its complement ("quit smoking",
        // "denies drinking").
        if v == Tag::VBG && prev_tag.map(|t| t.is_verb()).unwrap_or(false) {
            return Tag::VBG;
        }
    }
    // Adverb context: adverbs mostly precede verbs/adjectives or follow them.
    if c.adv && c.noun.is_none() && c.verb.is_none() && c.adj.is_none() {
        return Tag::RB;
    }
    // A word with both adverb and adjective readings ("daily") is an
    // adverb unless it sits before a nominal.
    if c.adv && c.adj.is_some() && !next_is_nounish {
        return Tag::RB;
    }
    // Attributive adjective.
    if let Some(a) = c.adj {
        if next_is_nounish || c.noun.is_none() && c.verb.is_none() {
            return a;
        }
    }
    if let Some(n) = c.noun {
        return n;
    }
    if let Some(v) = c.verb {
        return v;
    }
    if let Some(a) = c.adj {
        return a;
    }
    if c.adv {
        return Tag::RB;
    }
    c.default
}

fn resolve_closed(tags: &'static [Tag], prev: Option<(Tag, Sym)>, next_is_nounish: bool) -> Tag {
    let first = tags[0];
    if tags.len() == 1 {
        return first;
    }
    // "her": possessive before a nominal, object pronoun otherwise.
    if tags.contains(&Tag::PRPS) && tags.contains(&Tag::PRP) {
        return if next_is_nounish { Tag::PRPS } else { Tag::PRP };
    }
    // "that": complementizer after a verb, determiner before a nominal.
    if first == Tag::DT && tags.contains(&Tag::IN) {
        if let Some((t, _)) = prev {
            if t.is_verb() {
                return Tag::IN;
            }
        }
        return Tag::DT;
    }
    // "there": existential at clause start, adverb otherwise.
    if first == Tag::EX {
        return if prev.is_none() { Tag::EX } else { Tag::RB };
    }
    first
}

/// Lemma under the chosen tag's class, memoized in `memo`. Identity lemmas
/// (the common case) reuse the already-interned lowercase symbol without
/// touching the interner.
fn lemma_for(
    lower: Sym,
    tag: Tag,
    lem: &Lemmatizer,
    memo: &mut HashMap<(Sym, WordClass), Sym>,
) -> Sym {
    let class = if tag.is_verb() {
        WordClass::Verb
    } else if tag.is_noun() {
        WordClass::Noun
    } else if tag.is_adjective() {
        WordClass::Adjective
    } else {
        return lower;
    };
    *memo.entry((lower, class)).or_insert_with(|| {
        let s = lower.as_str();
        let l = lem.lemma(s, class);
        if l == s {
            lower
        } else {
            intern(&l)
        }
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use cmr_text::tokenize;

    fn tags(s: &str) -> Vec<String> {
        PosTagger::new()
            .tag(&tokenize(s))
            .iter()
            .map(|t| t.tag.to_string())
            .collect()
    }

    #[test]
    fn she_denies_alcohol_use() {
        assert_eq!(
            tags("She denies alcohol use."),
            vec!["PRP", "VBZ", "NN", "NN", "PUNCT"]
        );
    }

    #[test]
    fn vitals_sentence() {
        let t = tags("Blood pressure is 144/90, pulse of 84.");
        assert_eq!(
            t,
            vec!["NN", "NN", "VBZ", "CD", "PUNCT", "NN", "IN", "CD", "PUNCT"]
        );
    }

    #[test]
    fn past_medical_history_phrase() {
        // The paper's example: "a postoperative CVA after undergoing a
        // cholecystectomy and a midline hernia closure"
        let t = tags(
            "a postoperative CVA after undergoing a cholecystectomy and a midline hernia closure",
        );
        assert_eq!(
            t,
            vec!["DT", "JJ", "NNP", "IN", "VBG", "DT", "NN", "CC", "DT", "JJ", "NN", "NN"]
        );
    }

    #[test]
    fn quit_smoking_years_ago() {
        let t = tags("She quit smoking five years ago");
        assert_eq!(t, vec!["PRP", "VBD", "VBG", "CD", "NNS", "RB"]);
    }

    #[test]
    fn never_smoked() {
        assert_eq!(
            tags("She has never smoked"),
            vec!["PRP", "VBZ", "RB", "VBN"]
        );
    }

    #[test]
    fn currently_a_smoker() {
        assert_eq!(
            tags("She is currently a smoker"),
            vec!["PRP", "VBZ", "RB", "DT", "NN"]
        );
    }

    #[test]
    fn number_words_are_cd() {
        let t = tags("gravida four para three");
        assert_eq!(t[1], "CD");
        assert_eq!(t[3], "CD");
    }

    #[test]
    fn determiner_blocks_verb_reading() {
        // "use" after "alcohol"(NN)… and after a determiner.
        assert_eq!(tags("the use"), vec!["DT", "NN"]);
    }

    #[test]
    fn possessive_her_vs_object_her() {
        assert_eq!(tags("her breast history"), vec!["PRP$", "NN", "NN"]);
        let t = tags("We examined her");
        assert_eq!(*t.last().unwrap(), "PRP");
    }

    #[test]
    fn unknown_medical_nouns_default_nn() {
        let t = tags("significant for hydrochlorothiazide");
        assert_eq!(t, vec!["JJ", "IN", "NN"]);
    }

    #[test]
    fn capitalized_drug_is_nnp() {
        let t = tags("She takes Lipitor daily");
        assert_eq!(t[2], "NNP");
    }

    #[test]
    fn suffix_guesses() {
        assert_eq!(tags("lumpectomy")[0], "NN");
        assert_eq!(tags("mammographic findings")[0], "JJ");
        assert_eq!(tags("palpation shows nothing")[0], "NN");
    }

    #[test]
    fn was_diagnosed_participle() {
        let t = tags("She was diagnosed with cancer");
        assert_eq!(t, vec!["PRP", "VBD", "VBN", "IN", "NN"]);
    }

    #[test]
    fn modal_forces_base_verb() {
        let t = tags("She will quit");
        assert_eq!(t, vec!["PRP", "MD", "VB"]);
    }

    #[test]
    fn lemmas_follow_tags() {
        let tagged = PosTagger::new().tag(&tokenize("She denies pregnancies"));
        assert_eq!(tagged[1].lemma, "deny");
        assert_eq!(tagged[2].lemma, "pregnancy");
    }

    #[test]
    fn empty_input() {
        assert!(PosTagger::new().tag(&[]).is_empty());
    }
}
