//! Independent oracle for the link parser. For sentences of at most
//! [`MAX_WORDS`] words plus the LEFT-WALL, the oracle enumerates every
//! non-crossing simple graph on the positions (25,216 for seven points)
//! and keeps the connected ones. For each graph it then searches every
//! assignment of one disjunct per word whose connector lists, read
//! nearest-first, take that word's links in order: each connector takes
//! exactly one link, or one or more when it is an `@` multi-connector,
//! and the two connectors of every link must match. A linkage costs its
//! disjunct costs plus 0.01 per unit of link length.
//!
//! `LinkParser::try_parse` must find no linkage exactly when the oracle
//! finds none, and otherwise return the oracle's minimum cost and one of
//! the oracle's minimum-cost labelled link sets (the parser breaks
//! equal-cost ties first-found-wins, the oracle keeps them all).
//! Disjuncts come from the public `Dictionary::disjuncts`, not from the
//! parser's compiled tables.

use cmr::linkgram::{Connector, Dictionary, Disjunct, LinkParser, ParseFailure};
use cmr::postag::{PosTagger, Tag, TaggedToken};
use cmr::text::tokenize;
use proptest::prelude::*;
use std::collections::HashMap;

/// Longest sentence the oracle enumerates, in words (the wall excluded).
const MAX_WORDS: usize = 6;

/// The parser's per-link length penalty.
const LENGTH_PENALTY: f64 = 0.01;

/// Costs closer than this are equal (sums are taken in different orders).
const EPS: f64 = 1e-9;

/// A labelled link set, sorted by (left, right).
type Links = Vec<(usize, usize, String)>;

/// What the oracle found: the minimum cost and every labelled link set
/// that reaches it, or `None` when no linkage exists.
type Optimum = Option<(f64, Vec<Links>)>;

/// One way a word can take its links: a disjunct's cost and, for each
/// incident link nearest-first on each side, the connector that takes it.
struct Use<'a> {
    cost: f64,
    left: Vec<&'a Connector>,
    right: Vec<&'a Connector>,
}

/// Every way `conns` (nearest-first) can take `links` links in order:
/// each connector takes one link, a multi-connector one or more.
fn spread(conns: &[Connector], links: usize) -> Vec<Vec<&Connector>> {
    let Some((first, rest)) = conns.split_first() else {
        return if links == 0 {
            vec![Vec::new()]
        } else {
            Vec::new()
        };
    };
    let most = if first.multi { links } else { links.min(1) };
    let mut out = Vec::new();
    for took in 1..=most {
        for tail in spread(rest, links - took) {
            let mut v = vec![first; took];
            v.extend(tail);
            out.push(v);
        }
    }
    out
}

/// Every use of `disjuncts` with `lc` left links and `rc` right links.
fn uses(disjuncts: &[Disjunct], lc: usize, rc: usize) -> Vec<Use<'_>> {
    let mut out = Vec::new();
    for d in disjuncts {
        let rights = spread(&d.right, rc);
        if rights.is_empty() {
            continue;
        }
        for left in spread(&d.left, lc) {
            for right in &rights {
                out.push(Use {
                    cost: d.cost,
                    left: left.clone(),
                    right: right.clone(),
                });
            }
        }
    }
    out
}

/// Calls `visit` with every non-crossing simple graph on `points`
/// positions, as an edge list.
fn non_crossing_graphs(points: usize, visit: &mut impl FnMut(&[(usize, usize)])) {
    let pairs: Vec<(usize, usize)> = (0..points)
        .flat_map(|i| (i + 1..points).map(move |j| (i, j)))
        .collect();
    fn go(
        pairs: &[(usize, usize)],
        next: usize,
        chosen: &mut Vec<(usize, usize)>,
        visit: &mut impl FnMut(&[(usize, usize)]),
    ) {
        if next == pairs.len() {
            visit(chosen);
            return;
        }
        go(pairs, next + 1, chosen, visit);
        let (a, b) = pairs[next];
        let crosses = chosen
            .iter()
            .any(|&(c, d)| (a < c && c < b && b < d) || (c < a && a < d && d < b));
        if !crosses {
            chosen.push((a, b));
            go(pairs, next + 1, chosen, visit);
            chosen.pop();
        }
    }
    go(&pairs, 0, &mut Vec::new(), visit);
}

fn connected(points: usize, edges: &[(usize, usize)]) -> bool {
    let mut seen = vec![false; points];
    let mut stack = vec![0];
    seen[0] = true;
    while let Some(x) = stack.pop() {
        for &(a, b) in edges {
            let y = if a == x {
                b
            } else if b == x {
                a
            } else {
                continue;
            };
            if !seen[y] {
                seen[y] = true;
                stack.push(y);
            }
        }
    }
    seen.into_iter().all(|s| s)
}

/// The oracle's answer for a word sequence given as per-position
/// disjunct lists (position 0 is the wall).
fn enumerate(words: &[&[Disjunct]]) -> Optimum {
    let points = words.len();
    let mut uses_cache: HashMap<(usize, usize, usize), Vec<Use<'_>>> = HashMap::new();
    let mut best: Optimum = None;
    non_crossing_graphs(points, &mut |edges| {
        if !connected(points, edges) {
            return;
        }
        // Each word's neighbours, nearest first on each side.
        let mut lefts = vec![Vec::new(); points];
        let mut rights = vec![Vec::new(); points];
        for &(a, b) in edges {
            rights[a].push(b);
            lefts[b].push(a);
        }
        for w in 0..points {
            lefts[w].sort_unstable_by(|x, y| y.cmp(x));
            rights[w].sort_unstable();
        }
        for w in 0..points {
            uses_cache
                .entry((w, lefts[w].len(), rights[w].len()))
                .or_insert_with(|| uses(words[w], lefts[w].len(), rights[w].len()));
        }
        let options: Vec<&[Use<'_>]> = (0..points)
            .map(|w| uses_cache[&(w, lefts[w].len(), rights[w].len())].as_slice())
            .collect();
        if options.iter().any(|o| o.is_empty()) {
            return;
        }
        let length: usize = edges.iter().map(|&(a, b)| b - a).sum();
        let mut chosen: Vec<usize> = Vec::with_capacity(points);
        assign(
            &options,
            &lefts,
            &rights,
            &mut chosen,
            length as f64 * LENGTH_PENALTY,
            &mut best,
        );
    });
    best
}

/// Depth-first choice of one use per word, checking every link to an
/// earlier word as soon as its right end is chosen.
fn assign(
    options: &[&[Use<'_>]],
    lefts: &[Vec<usize>],
    rights: &[Vec<usize>],
    chosen: &mut Vec<usize>,
    cost: f64,
    best: &mut Optimum,
) {
    let w = chosen.len();
    if w == options.len() {
        let mut links: Links = Vec::new();
        for (b, ls) in lefts.iter().enumerate() {
            for (k, &a) in ls.iter().enumerate() {
                let slot = rights[a].iter().position(|&x| x == b).expect("edge");
                let ca = options[a][chosen[a]].right[slot];
                let cb = options[b][chosen[b]].left[k];
                links.push((a, b, ca.link_label(cb)));
            }
        }
        links.sort();
        match best {
            Some((c, sets)) if (cost - *c).abs() <= EPS => {
                if !sets.contains(&links) {
                    sets.push(links);
                }
            }
            Some((c, _)) if cost > *c => {}
            _ => *best = Some((cost, vec![links])),
        }
        return;
    }
    for (i, u) in options[w].iter().enumerate() {
        let total = cost + u.cost;
        if matches!(best, Some((c, _)) if total > *c + EPS) {
            continue;
        }
        let fits = lefts[w].iter().enumerate().all(|(k, &a)| {
            let slot = rights[a].iter().position(|&x| x == w).expect("edge");
            options[a][chosen[a]].right[slot].matches(u.left[k])
        });
        if fits {
            chosen.push(i);
            assign(options, lefts, rights, chosen, total, best);
            chosen.pop();
        }
    }
}

/// The tagged words the parser sees: trailing punctuation is stripped,
/// as `try_parse` does.
fn words_of(text: &str) -> Vec<TaggedToken> {
    let mut tagged = PosTagger::new().tag(&tokenize(text));
    while tagged.last().is_some_and(|t| t.tag == Tag::PUNCT) {
        tagged.pop();
    }
    tagged
}

/// Checks the parser against the oracle on `text`; `Ok(false)` when the
/// sentence is empty or too long to enumerate.
fn check(dict: &Dictionary, text: &str) -> Result<bool, TestCaseError> {
    let tagged = words_of(text);
    if tagged.is_empty() || tagged.len() > MAX_WORDS {
        return Ok(false);
    }
    let mut words: Vec<&[Disjunct]> = vec![dict.wall()];
    words.extend(tagged.iter().map(|t| dict.disjuncts(t)));
    let oracle = enumerate(&words);
    let parsed = LinkParser::new().try_parse(&tagged);
    match (oracle, parsed) {
        (None, Err(ParseFailure::NoLinkage | ParseFailure::NoDisjuncts)) => {}
        (None, other) => {
            prop_assert!(
                false,
                "oracle finds no linkage for {text:?}, parser: {other:?}"
            );
        }
        (Some((cost, sets)), Ok(linkage)) => {
            prop_assert!(
                (linkage.cost - cost).abs() <= EPS,
                "{text:?}: parser cost {} against the oracle's {cost}",
                linkage.cost
            );
            let mut links: Links = linkage
                .links
                .iter()
                .map(|l| (l.left, l.right, l.label.clone()))
                .collect();
            links.sort();
            prop_assert!(
                sets.contains(&links),
                "{text:?}: parser links {links:?} are not among the oracle's optima {sets:?}"
            );
        }
        (Some((cost, sets)), Err(f)) => {
            prop_assert!(
                false,
                "{text:?}: parser fails with {f:?}, oracle finds cost {cost}: {:?}",
                sets[0]
            );
        }
    }
    Ok(true)
}

/// Short dictated sentences of every shape the grammar covers; most parse.
const TEMPLATES: &[&str] = &[
    "She smokes.",
    "She has never smoked.",
    "Blood pressure is 144/90.",
    "Pulse of 84.",
    "She quit smoking five years ago.",
    "She is currently a smoker.",
    "Menarche at age 10.",
    "She denies alcohol use.",
    "The patient is well.",
    "She drinks alcohol daily.",
    "He was a smoker.",
    "Weight of 154 pounds.",
    "She has diabetes and hypertension.",
    "She will take the medication.",
    "She is a woman who smokes.",
    "Temperature of 98.6, pulse 84.",
    "He does not smoke.",
    "Blood pressure: 144/90.",
    "of of of the the.",
    "She had a mammogram in 2003.",
    "He smokes daily at home.",
    "Diabetes, hypertension and asthma.",
    "The old left breast mass.",
    "High blood pressure is 144/90.",
    "She drinks alcohol and smokes daily.",
];

/// Words of many dictionary classes, for random sequences (most fail).
const VOCABULARY: &[&str] = &[
    "she",
    "he",
    "the",
    "a",
    "patient",
    "pulse",
    "pressure",
    "blood",
    "is",
    "was",
    "has",
    "had",
    "of",
    "and",
    ",",
    "84",
    "98.6",
    "smokes",
    "smoked",
    "never",
    "not",
    "quit",
    "smoking",
    "years",
    "ago",
    "who",
    "to",
    "take",
    "will",
    "be",
    "denies",
    "alcohol",
    "in",
    "left",
    "breast",
    "currently",
    "well",
    "been",
    "five",
    "weight",
    "pounds",
    "age",
    "at",
    "daily",
    "mass",
    "or",
    "it",
    "taking",
];

#[test]
fn oracle_counts_every_non_crossing_graph() {
    // OEIS A054726 (all graphs) and A007297 (connected ones).
    for (points, all, connected_count) in [(3, 8, 4), (5, 352, 156), (7, 25_216, 9_192)] {
        let (mut n, mut c) = (0, 0);
        non_crossing_graphs(points, &mut |edges| {
            n += 1;
            c += usize::from(connected(points, edges));
        });
        assert_eq!((n, c), (all, connected_count), "{points} points");
    }
}

#[test]
fn templates_agree_with_the_enumerator() {
    let dict = Dictionary::clinical_english();
    let mut parsed = 0;
    for text in TEMPLATES {
        assert!(check(&dict, text).expect("agrees"), "{text} enumerated");
        parsed += usize::from(LinkParser::new().parse_sentence(text).is_some());
    }
    assert!(parsed >= 15, "only {parsed} templates parse");
}

/// A template or a random word sequence, with even odds.
fn sentences() -> impl Strategy<Value = String> {
    (
        prop::bool::ANY,
        prop::sample::select(TEMPLATES),
        prop::collection::vec(prop::sample::select(VOCABULARY), 1..=MAX_WORDS),
    )
        .prop_map(|(template, t, words)| {
            if template {
                t.to_string()
            } else {
                words.join(" ")
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn parser_equals_the_brute_force_enumerator(text in sentences()) {
        check(&Dictionary::clinical_english(), &text)?;
    }
}
