//! The link grammar dictionary for clinical dictation English.
//!
//! Words are assigned *classes*; each class has one expression. Assignment
//! is two-staged, which is how the parser stays open-vocabulary without a
//! 60k-word dictionary:
//!
//! 1. an explicit word table covers the closed class (determiners,
//!    prepositions, auxiliaries, conjunctions, …);
//! 2. any other word falls back to a generic class chosen by its POS tag
//!    (the same role the UNKNOWN-WORD device plays in the original parser).
//!
//! Connector inventory (a pragmatic subset of Sleator & Temperley's):
//!
//! | link | meaning                                   |
//! |------|-------------------------------------------|
//! | `Wd` | wall → head of a declarative sentence     |
//! | `Wn` | wall → head of a nominal fragment         |
//! | `S`  | subject noun → finite verb (`Ss`/`Sp`)    |
//! | `O`  | verb → object noun                        |
//! | `D`  | determiner → noun                         |
//! | `A`  | attributive adjective → noun              |
//! | `AN` | noun modifier → head noun (compounds)     |
//! | `NM` | head noun → trailing number ("age 10")    |
//! | `M`  | noun → postnominal modifier (preposition) |
//! | `MV` | verb → post-verbal modifier               |
//! | `J`  | preposition → its object                  |
//! | `JT` | time noun → "ago"                         |
//! | `P`  | be → predicative adjective                |
//! | `Pv` | be → passive participle                   |
//! | `Pg` | verb → gerund complement                  |
//! | `T`  | have → past participle                    |
//! | `I`  | modal/to → infinitive                     |
//! | `TO` | verb → infinitival "to"                   |
//! | `E`  | pre-verbal adverb → verb                  |
//! | `EB` | be → post-copular adverb                  |
//! | `EA` | adverb → adjective                        |
//! | `R`  | noun → relative pronoun                   |
//! | `MX` | head → coordinator ("and", ",")           |
//! | `N`  | "not" after auxiliary                     |

use crate::connector::{Connector, Dir};
use crate::expr::{expand, parse_expr, Disjunct, Expr};
use cmr_postag::{Tag, TaggedToken};
use cmr_text::{intern, Sym};
use std::collections::HashMap;

/// Maximum disjuncts one class expression may expand to.
const EXPANSION_CAP: usize = 100_000;

/// Generic class expressions, selected by POS tag for words not in the word
/// table.
const CLASS_DEFS: &[(&str, &str)] = &[
    // The wall starts every parse: declarative sentence head, or (at a cost)
    // the head noun of a nominal fragment.
    ("LEFT-WALL", "Wd+ or [Wn+]"),
    // Nouns. Role alternatives: subject (with optional wall), fragment head,
    // object, prepositional object, time-phrase head, compound modifier.
    // Coordination (MX) may sit closer or farther than the role connector.
    (
        "noun-sg",
        "{@AN-} & {@A-} & {D-} & {NM+} & {R+} & {@M+} & {@MX+} & \
         (({Wd-} & Ss+) or [Wn-] or O- or J- or [JT+] or AN+) & {@MX+}",
    ),
    (
        "noun-pl",
        "{@AN-} & {@A-} & {D-} & {NM+} & {R+} & {@M+} & {@MX+} & \
         (({Wd-} & Sp+) or [Wn-] or O- or J- or [JT+] or AN+) & {@MX+}",
    ),
    // Numbers: determiner of a unit noun, trailing numeric modifier, or a
    // full nominal (object/prepositional object/fragment head).
    (
        "number",
        "(D+ or NM- or ({NM+} & {@MX+} & (O- or J- or [Wn-] or ({Wd-} & Ss+)) & {@MX+}))",
    ),
    // Finite verbs.
    ("verb-z", "{@E-} & Ss- & {O+ or Pg+ or TO+} & {@MV+}"),
    ("verb-p", "{@E-} & Sp- & {O+ or Pg+ or TO+} & {@MV+}"),
    ("verb-d", "{@E-} & S- & {O+ or Pg+ or TO+} & {@MV+}"),
    // Base verb after modal/to.
    ("verb-base", "{@E-} & I- & {O+ or Pg+ or TO+} & {@MV+}"),
    // Gerund: complement of a verb, or nominal subject/object; takes its own
    // object and modifiers.
    // The bare-object reading ([O-]) is costed so that a gerund after a
    // verb prefers the Pg complement analysis ("quit smoking").
    (
        "verb-g",
        "{@E-} & (Pg- or ({Wd-} & Ss+) or [Wn-] or [O-] or J- or [A+]) & {O+} & {@MV+}",
    ),
    // Past participle: after have (T), passive after be (Pv), or (costly)
    // prenominal adjective reading.
    (
        "verb-n",
        "({@E-} & (T- or Pv-) & {O+ or Pg+ or TO+} & {@MV+}) or [A+]",
    ),
    // Adjectives: attributive, or predicative after be/feel.
    (
        "adj",
        "{@EA-} & (A+ or (P- & {@MV+} & {TO+}) or ([Wn-] & {@MV+}))",
    ),
    // Adverbs.
    ("adv", "E+ or MV- or EB- or EA+ or [Wn-]"),
    // Prepositions.
    ("prep", "(M- or MV- or [Wn-]) & J+"),
    // Determiners & possessives.
    ("det", "D+"),
    // Pronouns (subject/object).
    ("pron", "({Wd-} & (Ss+ or Sp+)) or O- or J-"),
    // Coordinators: attach leftward to the first conjunct head, take the
    // next conjunct as object. A comma may instead glue onto a following
    // "and" (the Oxford comma in ", and weight of 154 pounds").
    ("coord", "({XC-} & MX- & (J+ or [MV+])) or XC+"),
    // Relative pronouns: modify a noun, act as subject of the relative verb.
    ("rel", "R- & (Ss+ or Sp+)"),
    // Modals.
    ("modal", "{@E-} & S- & I+ & {@MV+}"),
    // Infinitival "to".
    ("to", "(TO- or MV- or M-) & I+"),
    // "not"/"never" directly after an auxiliary are handled as E+ adverbs by
    // the adv class; "n't" sticks to the auxiliary (N).
    ("neg", "N- or E+ or EB-"),
    // "ago": takes the time noun phrase on its left, optionally modifying a
    // verb (in fragments there is none to modify).
    ("ago", "JT- & {MV- or [Wn-]}"),
    // be/have/do get dedicated classes.
    (
        "be-z",
        "{@E-} & Ss- & {EB+} & (O+ or P+ or Pv+ or Pg+ or MV+ or TO+) & {@MV+} & {N+}",
    ),
    (
        "be-p",
        "{@E-} & Sp- & {EB+} & (O+ or P+ or Pv+ or Pg+ or MV+ or TO+) & {@MV+} & {N+}",
    ),
    (
        "be-d",
        "{@E-} & S- & {EB+} & (O+ or P+ or Pv+ or Pg+ or MV+ or TO+) & {@MV+} & {N+}",
    ),
    // "be" after modal: "will be".
    ("be-base", "I- & {EB+} & (O+ or P+ or Pv+ or Pg+) & {@MV+}"),
    // been/being.
    ("be-n", "T- & {EB+} & (O+ or P+ or Pv+ or Pg+) & {@MV+}"),
    ("be-g", "Pg- & {EB+} & (O+ or P+ or Pv+) & {@MV+}"),
    ("have-z", "{@E-} & Ss- & (T+ or O+ or TO+) & {@MV+} & {N+}"),
    ("have-p", "{@E-} & Sp- & (T+ or O+ or TO+) & {@MV+} & {N+}"),
    ("have-d", "{@E-} & S- & (T+ or O+ or TO+) & {@MV+} & {N+}"),
    ("do-z", "{@E-} & Ss- & {N+} & {I+ or O+} & {@MV+}"),
    ("do-p", "{@E-} & Sp- & {N+} & {I+ or O+} & {@MV+}"),
    ("do-d", "{@E-} & S- & {N+} & {I+ or O+} & {@MV+}"),
];

/// Explicit word table: word → class name.
const WORD_CLASSES: &[(&str, &str)] = &[
    ("the", "det"),
    ("a", "det"),
    ("an", "det"),
    ("this", "det"),
    ("that", "det"),
    ("these", "det"),
    ("those", "det"),
    ("no", "det"),
    ("any", "det"),
    ("some", "det"),
    ("each", "det"),
    ("every", "det"),
    ("all", "det"),
    ("both", "det"),
    ("another", "det"),
    ("her", "det"),
    ("his", "det"),
    ("their", "det"),
    ("its", "det"),
    ("my", "det"),
    ("our", "det"),
    ("your", "det"),
    ("she", "pron"),
    ("he", "pron"),
    ("it", "pron"),
    ("they", "pron"),
    ("we", "pron"),
    ("i", "pron"),
    ("you", "pron"),
    ("him", "pron"),
    ("them", "pron"),
    ("none", "pron"),
    ("who", "rel"),
    ("which", "rel"),
    ("and", "coord"),
    ("or", "coord"),
    ("but", "coord"),
    (",", "coord"),
    ("of", "prep"),
    ("in", "prep"),
    ("on", "prep"),
    ("at", "prep"),
    ("by", "prep"),
    ("for", "prep"),
    ("with", "prep"),
    ("without", "prep"),
    ("from", "prep"),
    ("into", "prep"),
    ("during", "prep"),
    ("after", "prep"),
    ("before", "prep"),
    ("since", "prep"),
    ("until", "prep"),
    ("about", "prep"),
    ("per", "prep"),
    ("between", "prep"),
    ("over", "prep"),
    ("under", "prep"),
    ("within", "prep"),
    ("through", "prep"),
    ("to", "to"),
    ("not", "neg"),
    ("never", "adv"),
    ("ago", "ago"),
    ("is", "be-z"),
    ("was", "be-d"),
    ("are", "be-p"),
    ("were", "be-d"),
    ("am", "be-p"),
    ("be", "be-base"),
    ("been", "be-n"),
    ("being", "be-g"),
    ("has", "have-z"),
    ("have", "have-p"),
    ("had", "have-d"),
    ("does", "do-z"),
    ("do", "do-p"),
    ("did", "do-d"),
    ("will", "modal"),
    ("would", "modal"),
    ("can", "modal"),
    ("could", "modal"),
    ("may", "modal"),
    ("might", "modal"),
    ("should", "modal"),
    ("must", "modal"),
    ("shall", "modal"),
];

/// POS-tag fallback table: tag → class name. `tag_class` and the interned
/// `tag_ids` index are both derived from this one table so they cannot
/// diverge.
const TAG_CLASSES: &[(Tag, &str)] = &[
    (Tag::NN, "noun-sg"),
    (Tag::NNP, "noun-sg"),
    (Tag::NNS, "noun-pl"),
    (Tag::CD, "number"),
    (Tag::JJ, "adj"),
    (Tag::JJR, "adj"),
    (Tag::JJS, "adj"),
    (Tag::VBZ, "verb-z"),
    (Tag::VBP, "verb-p"),
    (Tag::VB, "verb-base"),
    (Tag::VBD, "verb-d"),
    (Tag::VBG, "verb-g"),
    (Tag::VBN, "verb-n"),
    (Tag::RB, "adv"),
    (Tag::RBR, "adv"),
    (Tag::RBS, "adv"),
    (Tag::IN, "prep"),
    (Tag::DT, "det"),
    (Tag::PRPS, "det"),
    (Tag::PRP, "pron"),
    (Tag::EX, "pron"),
    (Tag::CC, "coord"),
    (Tag::MD, "modal"),
    (Tag::TO, "to"),
    (Tag::WP, "rel"),
    (Tag::WDT, "rel"),
];

/// A defect in a dictionary definition, found while compiling it.
#[derive(Debug, Clone, PartialEq)]
pub enum DictError {
    /// A class expression failed to parse.
    BadClass {
        /// The class whose expression is malformed.
        class: &'static str,
        /// The underlying expression parse error.
        error: crate::expr::ParseError,
    },
    /// The dictionary defines no `LEFT-WALL` class (or it compiles to no
    /// disjuncts), so nothing could ever anchor a linkage.
    MissingWall,
}

impl std::fmt::Display for DictError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DictError::BadClass { class, error } => {
                write!(f, "dictionary class {class}: {error}")
            }
            DictError::MissingWall => write!(f, "dictionary has no usable LEFT-WALL class"),
        }
    }
}

impl std::error::Error for DictError {}

/// Dense id of a connector in the dictionary's [`ConnectorTable`].
pub(crate) type ConnId = u16;

/// Content id of an interned farthest-first connector list: two lists
/// with the same connectors in the same order have the same id, whichever
/// disjuncts they come from.
pub(crate) type ListId = u32;

/// The id of the empty connector list.
pub(crate) const EMPTY_LIST: ListId = 0;

/// Every connector of the dictionary, interned once at compile time.
///
/// * Each distinct connector (base, subscript, direction, multi flag) has
///   a dense [`ConnId`].
/// * The match relation is one bitset row per id: bit `b` of row `a` is
///   set when `a` and `b` point toward each other and
///   [`Connector::matches`] links them. That method stays the only
///   definition of unification; the rows are its precomputed table.
/// * Every suffix of every disjunct's farthest-first connector list is
///   interned to a [`ListId`] as a (head, rest) pair, so a list is walked
///   by id and two lists with equal content share one id.
#[derive(Debug, Clone)]
pub(crate) struct ConnectorTable {
    /// Every distinct connector, sorted: a connector's id is its index.
    connectors: Vec<Connector>,
    /// Connector → id, for compiling disjuncts to id lists.
    ids: HashMap<Connector, ConnId>,
    /// `u64` words per match row.
    words: usize,
    /// Match rows, `words` per connector id.
    rows: Vec<u64>,
    /// Interned lists as (head, rest); entry [`EMPTY_LIST`] is a
    /// placeholder for the empty list.
    lists: Vec<(ConnId, ListId)>,
    list_ids: HashMap<(ConnId, ListId), ListId>,
}

impl ConnectorTable {
    /// Interns every connector of `exprs` and builds the match rows. Ids
    /// follow `Connector`'s order, so comparing id lists compares the
    /// connector lists they stand for.
    fn build<'a>(exprs: impl Iterator<Item = &'a Expr>) -> ConnectorTable {
        fn collect<'a>(e: &'a Expr, out: &mut Vec<&'a Connector>) {
            match e {
                Expr::Conn(c) => out.push(c),
                Expr::And(parts) | Expr::Or(parts) => parts.iter().for_each(|p| collect(p, out)),
                Expr::Opt(inner) | Expr::Cost(inner) => collect(inner, out),
                Expr::Empty => {}
            }
        }
        let mut found = Vec::new();
        exprs.for_each(|e| collect(e, &mut found));
        found.sort_unstable();
        found.dedup();
        debug_assert!(found.len() <= ConnId::MAX as usize, "connector ids are u16");
        let connectors: Vec<Connector> = found.into_iter().cloned().collect();
        let ids = connectors.iter().cloned().zip(0..).collect();
        let words = connectors.len().div_ceil(64).max(1);
        let mut rows = vec![0u64; connectors.len() * words];
        for (a, ca) in connectors.iter().enumerate() {
            for (b, cb) in connectors.iter().enumerate() {
                if ca.dir == Dir::Right && cb.dir == Dir::Left && ca.matches(cb) {
                    rows[a * words + b / 64] |= 1 << (b % 64);
                    rows[b * words + a / 64] |= 1 << (a % 64);
                }
            }
        }
        ConnectorTable {
            connectors,
            ids,
            words,
            rows,
            lists: vec![(0, EMPTY_LIST)],
            list_ids: HashMap::new(),
        }
    }

    /// Interns a farthest-first list of connector ids.
    fn intern_list(&mut self, ids: &[ConnId]) -> ListId {
        ids.iter().rev().fold(EMPTY_LIST, |rest, &head| {
            *self.list_ids.entry((head, rest)).or_insert_with(|| {
                self.lists.push((head, rest));
                (self.lists.len() - 1) as ListId
            })
        })
    }

    /// Number of interned connectors.
    pub(crate) fn len(&self) -> usize {
        self.connectors.len()
    }

    /// The connector an id names.
    pub(crate) fn connector(&self, id: ConnId) -> &Connector {
        &self.connectors[id as usize]
    }

    /// `u64` words in one connector bitset.
    pub(crate) fn mask_words(&self) -> usize {
        self.words
    }

    /// The ids `id` links with, as a bitset of [`Self::mask_words`] words.
    pub(crate) fn row(&self, id: ConnId) -> &[u64] {
        let at = id as usize * self.words;
        &self.rows[at..at + self.words]
    }

    /// True when connectors `a` and `b` can form a link (either order).
    pub(crate) fn links(&self, a: ConnId, b: ConnId) -> bool {
        has(self.row(a), b)
    }

    /// Head connector of a non-empty list.
    pub(crate) fn head(&self, list: ListId) -> ConnId {
        debug_assert_ne!(list, EMPTY_LIST);
        self.lists[list as usize].0
    }

    /// A non-empty list without its head.
    pub(crate) fn rest(&self, list: ListId) -> ListId {
        debug_assert_ne!(list, EMPTY_LIST);
        self.lists[list as usize].1
    }
}

/// True when bit `id` is set in `mask`.
pub(crate) fn has(mask: &[u64], id: ConnId) -> bool {
    mask[id as usize / 64] >> (id % 64) & 1 == 1
}

/// The ids set in `mask`, ascending.
pub(crate) fn ones(mask: &[u64]) -> impl Iterator<Item = ConnId> + '_ {
    mask.iter().enumerate().flat_map(|(w, &bits)| {
        (0..64)
            .filter(move |b| bits >> b & 1 == 1)
            .map(move |b| (w * 64 + b) as ConnId)
    })
}

/// One disjunct in parse-ready form: connector ids farthest first, and
/// the interned ids of the two whole lists.
#[derive(Debug, Clone)]
pub(crate) struct ShapeDisjunct {
    pub(crate) left: Box<[ConnId]>,
    pub(crate) right: Box<[ConnId]>,
    pub(crate) left_list: ListId,
    pub(crate) right_list: ListId,
    pub(crate) cost: f64,
}

/// A class's disjuncts in ready-to-parse form, computed once per
/// dictionary instead of once per parse:
///
/// * connector lists reversed to the parser's farthest-first order and
///   interned (see [`ConnectorTable`]),
/// * sorted by (left, right) shape then cost, duplicates collapsed to the
///   cheapest,
/// * indexed, for every connector id, by the disjuncts whose farthest
///   (head) connector on each side links with it, in ascending order, so
///   the region split's candidate scan is one slice lookup.
#[derive(Debug, Clone)]
pub(crate) struct WordShape {
    pub(crate) disjuncts: Vec<ShapeDisjunct>,
    /// By connector id: the disjuncts whose left head links with it.
    pub(crate) left_linking: Vec<Box<[u16]>>,
    /// By connector id: the disjuncts whose right head links with it.
    pub(crate) right_linking: Vec<Box<[u16]>>,
}

impl WordShape {
    fn build(raw: &[Disjunct], table: &mut ConnectorTable) -> WordShape {
        let farthest_first = |list: &[Connector]| -> Box<[ConnId]> {
            list.iter().rev().map(|c| table.ids[c]).collect()
        };
        let mut disjuncts: Vec<ShapeDisjunct> = raw
            .iter()
            .map(|d| ShapeDisjunct {
                left: farthest_first(&d.left),
                right: farthest_first(&d.right),
                left_list: EMPTY_LIST,
                right_list: EMPTY_LIST,
                cost: d.cost,
            })
            .collect();
        disjuncts.sort_by(|a, b| {
            (&a.left, &a.right)
                .cmp(&(&b.left, &b.right))
                .then(a.cost.total_cmp(&b.cost))
        });
        disjuncts.dedup_by(|b, a| a.left == b.left && a.right == b.right);
        debug_assert!(disjuncts.len() <= u16::MAX as usize, "shape index is u16");
        for d in &mut disjuncts {
            d.left_list = table.intern_list(&d.left);
            d.right_list = table.intern_list(&d.right);
        }
        let mut left_linking = vec![Vec::new(); table.len()];
        let mut right_linking = vec![Vec::new(); table.len()];
        for (i, d) in disjuncts.iter().enumerate() {
            for (head, index) in [
                (d.left.first(), &mut left_linking),
                (d.right.first(), &mut right_linking),
            ] {
                let Some(&head) = head else { continue };
                for c in ones(table.row(head)) {
                    index[c as usize].push(i as u16);
                }
            }
        }
        WordShape {
            disjuncts,
            left_linking: left_linking
                .into_iter()
                .map(Vec::into_boxed_slice)
                .collect(),
            right_linking: right_linking
                .into_iter()
                .map(Vec::into_boxed_slice)
                .collect(),
        }
    }
}

/// The compiled dictionary.
#[derive(Debug, Clone)]
pub struct Dictionary {
    classes: HashMap<&'static str, Vec<Disjunct>>,
    words: HashMap<&'static str, &'static str>,
    /// LEFT-WALL disjuncts, validated at construction so [`Dictionary::wall`]
    /// is infallible.
    wall: Vec<Disjunct>,
    /// Every connector of every class, interned.
    connectors: ConnectorTable,
    /// Parse-ready shapes, one per class, indexed by the ids below.
    shapes: Vec<WordShape>,
    /// Word-table lookup keyed on the interned lowercase form: value is the
    /// interned class key (the word itself) and the shape index.
    word_ids: HashMap<Sym, (Sym, u16)>,
    /// POS-tag fallback: value is the interned class name and shape index.
    tag_ids: HashMap<Tag, (Sym, u16)>,
    /// Shape index of LEFT-WALL.
    wall_id: u16,
    /// Class key for tokens no rule covers (`"-"`).
    unknown: Sym,
}

impl Default for Dictionary {
    fn default() -> Self {
        Self::clinical_english()
    }
}

impl Dictionary {
    /// Builds the built-in clinical English dictionary.
    ///
    /// The built-in definitions are static and covered by tests, so a
    /// compile failure here is a bug in this crate, not a runtime
    /// condition; the `expect` documents that invariant. Callers that want
    /// the failure as a value use [`Dictionary::try_clinical_english`].
    pub fn clinical_english() -> Dictionary {
        Self::try_clinical_english().expect("built-in clinical dictionary compiles")
    }

    /// Builds the built-in clinical English dictionary, reporting any
    /// definition defect as a [`DictError`] instead of panicking.
    pub fn try_clinical_english() -> Result<Dictionary, DictError> {
        let mut compiled = Vec::with_capacity(CLASS_DEFS.len());
        for (name, text) in CLASS_DEFS {
            let expr =
                parse_expr(text).map_err(|error| DictError::BadClass { class: name, error })?;
            compiled.push((*name, expand(&expr, EXPANSION_CAP), expr));
        }
        let mut connectors = ConnectorTable::build(compiled.iter().map(|(_, _, e)| e));
        let mut shapes = Vec::with_capacity(compiled.len());
        let mut shape_ids: HashMap<&'static str, u16> = HashMap::new();
        for (name, expanded, _) in &compiled {
            shape_ids.insert(name, shapes.len() as u16);
            shapes.push(WordShape::build(expanded, &mut connectors));
        }
        let classes: HashMap<&'static str, Vec<Disjunct>> =
            compiled.into_iter().map(|(name, d, _)| (name, d)).collect();
        let words: HashMap<&'static str, &'static str> = WORD_CLASSES.iter().copied().collect();
        let wall = classes
            .get("LEFT-WALL")
            .filter(|w| !w.is_empty())
            .cloned()
            .ok_or(DictError::MissingWall)?;
        let wall_id = *shape_ids.get("LEFT-WALL").ok_or(DictError::MissingWall)?;
        // The static tables are internally consistent (each word/tag class
        // names a defined class); tests cover it, the expect documents it.
        let id_of = |class: &str| -> u16 {
            *shape_ids
                .get(class)
                .expect("word/tag tables reference defined classes")
        };
        let mut word_ids = HashMap::with_capacity(WORD_CLASSES.len());
        for (word, class) in WORD_CLASSES {
            let sym = intern(word);
            word_ids.insert(sym, (sym, id_of(class)));
        }
        let mut tag_ids = HashMap::with_capacity(TAG_CLASSES.len());
        for (tag, class) in TAG_CLASSES {
            tag_ids.insert(*tag, (intern(class), id_of(class)));
        }
        Ok(Dictionary {
            classes,
            words,
            wall,
            connectors,
            shapes,
            word_ids,
            tag_ids,
            wall_id,
            unknown: intern("-"),
        })
    }

    /// Disjuncts of the left wall (validated non-empty at construction).
    pub fn wall(&self) -> &[Disjunct] {
        &self.wall
    }

    /// The class key a token resolves to: the word itself when it is in the
    /// explicit word table, otherwise the generic class of its POS tag.
    /// Two token sequences with equal key sequences get identical disjunct
    /// tables — which is what makes parse results cacheable across, e.g.,
    /// the same vitals template with different numbers.
    pub fn class_key(&self, tok: &TaggedToken) -> &'static str {
        let lower = tok.lower();
        if let Some((word, _)) = self.words.get_key_value(lower) {
            return word;
        }
        self.tag_class(tok.tag).unwrap_or("-")
    }

    /// Interned equivalent of [`Dictionary::class_key`]: the parser builds
    /// cache signatures from these, so a signature probe hashes `u32`s
    /// instead of a vector of string pointers.
    pub fn class_key_sym(&self, tok: &TaggedToken) -> Sym {
        if let Some(&(key, _)) = self.word_ids.get(&tok.lower) {
            return key;
        }
        match self.tag_ids.get(&tok.tag) {
            Some(&(key, _)) => key,
            None => self.unknown,
        }
    }

    /// The parse-ready shape a token resolves to, or `None` when no rule
    /// covers it (stray punctuation), which fails the parse as before.
    pub(crate) fn shape_of(&self, tok: &TaggedToken) -> Option<&WordShape> {
        let id = if let Some(&(_, id)) = self.word_ids.get(&tok.lower) {
            id
        } else {
            self.tag_ids.get(&tok.tag).map(|&(_, id)| id)?
        };
        self.shapes.get(id as usize)
    }

    /// The interned connectors and connector lists the shapes refer to.
    pub(crate) fn connectors(&self) -> &ConnectorTable {
        &self.connectors
    }

    /// Parse-ready LEFT-WALL shape.
    pub(crate) fn wall_shape(&self) -> &WordShape {
        &self.shapes[self.wall_id as usize]
    }

    fn tag_class(&self, tag: Tag) -> Option<&'static str> {
        TAG_CLASSES
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, class)| *class)
    }

    /// Disjuncts for a word given its tagged form. Returns an empty slice
    /// for words that cannot take part in a linkage (stray punctuation),
    /// which makes the whole parse fail — the pattern fallback then runs, as
    /// in the paper.
    pub fn disjuncts(&self, tok: &TaggedToken) -> &[Disjunct] {
        let lower = tok.lower();
        if let Some(class) = self.words.get(lower) {
            return self.class(class);
        }
        match self.tag_class(tok.tag) {
            Some(class) => self.class(class),
            None => &[],
        }
    }

    fn class(&self, name: &str) -> &[Disjunct] {
        self.classes.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of classes (for diagnostics).
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Total compiled disjuncts across classes (for diagnostics).
    pub fn disjunct_count(&self) -> usize {
        self.classes.values().map(Vec::len).sum()
    }

    /// Class names in deterministic (sorted) order, for asset analyzers
    /// that iterate the whole dictionary.
    pub fn class_names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = self.classes.keys().copied().collect();
        names.sort_unstable();
        names
    }

    /// Compiled disjuncts of a class by name, or `None` for an unknown
    /// class.
    pub fn class_disjuncts(&self, name: &str) -> Option<&[Disjunct]> {
        self.classes.get(name).map(Vec::as_slice)
    }
}

/// The raw `(class, connector expression)` definition table the built-in
/// dictionary compiles from, exposed for static analysis.
pub fn class_defs() -> &'static [(&'static str, &'static str)] {
    CLASS_DEFS
}

/// The raw `(word, class)` table, in source order (later entries shadow
/// earlier ones at build time), exposed for static analysis.
pub fn word_classes() -> &'static [(&'static str, &'static str)] {
    WORD_CLASSES
}

/// The raw `(POS tag, class)` fallback table, exposed for static analysis.
pub fn tag_classes() -> &'static [(Tag, &'static str)] {
    TAG_CLASSES
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmr_postag::PosTagger;
    use cmr_text::tokenize;

    #[test]
    fn builds_without_panicking() {
        let d = Dictionary::clinical_english();
        assert!(d.class_count() > 20);
        assert!(d.disjunct_count() > 100);
    }

    #[test]
    fn fallible_constructor_succeeds_on_builtin_grammar() {
        // This is the invariant that lets clinical_english() use expect().
        let d = Dictionary::try_clinical_english().expect("built-in grammar compiles");
        assert!(!d.wall().is_empty());
    }

    #[test]
    fn wall_has_disjuncts() {
        let d = Dictionary::clinical_english();
        assert!(!d.wall().is_empty());
    }

    #[test]
    fn word_table_beats_pos_fallback() {
        let d = Dictionary::clinical_english();
        let tagged = PosTagger::new().tag(&tokenize("of"));
        let dis = d.disjuncts(&tagged[0]);
        // prep: (M- or MV- or [Wn-]) & J+ → 3 disjuncts
        assert_eq!(dis.len(), 3);
        assert!(dis.iter().all(|x| x.right.iter().any(|c| c.base == "J")));
    }

    #[test]
    fn unknown_nouns_get_generic_class() {
        let d = Dictionary::clinical_english();
        let tagged = PosTagger::new().tag(&tokenize("hydrochlorothiazide"));
        assert!(!d.disjuncts(&tagged[0]).is_empty());
    }

    #[test]
    fn stray_punctuation_has_no_disjuncts() {
        let d = Dictionary::clinical_english();
        let tagged = PosTagger::new().tag(&tokenize(":"));
        assert!(d.disjuncts(&tagged[0]).is_empty());
    }

    #[test]
    fn comma_is_a_coordinator() {
        let d = Dictionary::clinical_english();
        let tagged = PosTagger::new().tag(&tokenize(","));
        assert!(!d.disjuncts(&tagged[0]).is_empty());
    }

    #[test]
    fn match_table_agrees_with_connector_matches() {
        let d = Dictionary::clinical_english();
        let t = d.connectors();
        assert!(t.len() > 20, "{} connectors", t.len());
        let mut links = 0;
        for a in 0..t.len() as ConnId {
            for b in 0..t.len() as ConnId {
                let (ca, cb) = (t.connector(a), t.connector(b));
                let expected = match (ca.dir, cb.dir) {
                    (Dir::Right, Dir::Left) => ca.matches(cb),
                    (Dir::Left, Dir::Right) => cb.matches(ca),
                    _ => false,
                };
                assert_eq!(t.links(a, b), expected, "{ca} with {cb}");
                links += usize::from(expected);
            }
        }
        assert!(links > 0);
    }

    #[test]
    fn connector_ids_follow_connector_order() {
        // Shapes sort disjuncts by id lists; that is the parser's candidate
        // order only because ids are assigned in `Connector` order.
        let d = Dictionary::clinical_english();
        let t = d.connectors();
        for a in 1..t.len() as ConnId {
            assert!(t.connector(a - 1) < t.connector(a));
        }
    }

    #[test]
    fn interned_lists_spell_their_disjuncts() {
        let d = Dictionary::clinical_english();
        let t = d.connectors();
        let walk = |mut list: ListId| {
            let mut ids = Vec::new();
            while list != EMPTY_LIST {
                ids.push(t.head(list));
                list = t.rest(list);
            }
            ids
        };
        for shape in &d.shapes {
            for dj in &shape.disjuncts {
                assert_eq!(walk(dj.left_list), &dj.left[..]);
                assert_eq!(walk(dj.right_list), &dj.right[..]);
            }
            for (c, linking) in shape.left_linking.iter().enumerate() {
                for &i in linking.iter() {
                    assert!(t.links(c as ConnId, shape.disjuncts[i as usize].left[0]));
                }
            }
        }
    }

    #[test]
    fn expansion_sizes_are_sane() {
        let d = Dictionary::clinical_english();
        // No class should exceed a few thousand disjuncts.
        assert!(d.disjunct_count() < 20_000, "total {}", d.disjunct_count());
    }
}
