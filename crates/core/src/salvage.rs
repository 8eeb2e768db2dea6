//! Tier-3 salvage extraction: a raw-text keyword-and-number scanner.
//!
//! When the link grammar (tier 1) and the linguistic patterns (tier 2)
//! both come up empty for a field — typically because OCR noise broke
//! tokenization, a garbled header dropped the field's section, or
//! whitespace collapse merged sentences past the parser's window — this
//! scanner makes a last, structure-free attempt: find a feature keyword
//! under an OCR-confusion-tolerant folding, then take the first plausible
//! number within a short raw-character window after it.
//!
//! It is deliberately dumb. It has no notion of negation, coordination or
//! attachment, which is why the pipeline only consults it for fields the
//! real extractors missed, and why its hits carry tier `Salvage` with the
//! lowest confidence.

use crate::spec::FeatureSpec;
use cmr_text::NumberValue;

/// Raw characters scanned for a number after a keyword match.
const NUMBER_WINDOW: usize = 48;
/// Raw characters allowed between a digit run and a `year` word for the
/// `{N}-year-old` salvage (covers `-year`, ` years`, `- year`).
const YEAR_GAP: usize = 6;

/// One text prepared for salvage scans: its characters (the windows above
/// count characters, not bytes) and the places a keyword can start. The
/// missed fields whose sections are all gone scan the whole record, so
/// the pipeline prepares that text once per record.
pub(crate) struct SalvageText {
    raw: Vec<char>,
    /// Raw indices at the start or after a non-alphanumeric character,
    /// ascending: the word starts of the folded text (see
    /// [`SalvageText::occurrences`]).
    word_starts: Vec<usize>,
}

impl SalvageText {
    pub(crate) fn new(text: &str) -> SalvageText {
        let mut raw = Vec::with_capacity(text.len());
        let mut word_starts = Vec::new();
        let mut bounded = true;
        for c in text.chars() {
            if bounded {
                word_starts.push(raw.len());
            }
            bounded = !c.is_ascii_alphanumeric();
            raw.push(c);
        }
        SalvageText { raw, word_starts }
    }

    /// Attempts to salvage a value for `spec`. Returns the first
    /// keyword-adjacent number the spec accepts, or `None`.
    pub(crate) fn salvage(&self, spec: &FeatureSpec) -> Option<NumberValue> {
        if spec.year_old_pattern {
            // Ages are dictated as "{N}-year-old", not "age N"; scanning for
            // the keyword "age" here would happily steal "Menarche at age
            // 10", so the year-old shape is the only salvage this spec gets.
            return salvage_year_old(&self.raw, spec);
        }
        spec.salvage_needles()
            .iter()
            .flat_map(|needle| self.occurrences(needle))
            .find_map(|end| scan_number(&self.raw, end, spec))
    }

    /// Raw indices just past each word-bounded occurrence of `needle` in
    /// the folded text, left to right. The text is folded only where a
    /// match can start: a folded character is non-alphanumeric exactly
    /// when it folds one non-alphanumeric raw character, so the folded
    /// word starts sit at the raw `word_starts`, folding from any of them
    /// continues the whole text's folding, and the character after a match
    /// folds to an alphanumeric exactly when the raw one is alphanumeric.
    fn occurrences<'a>(&'a self, needle: &'a [char]) -> impl Iterator<Item = usize> + 'a {
        self.word_starts.iter().filter_map(move |&start| {
            let mut folded = fold(&self.raw[start..]);
            let mut end = start;
            for &want in needle {
                let f = folded.next().filter(|f| f.ch == want)?;
                end = start + f.raw_end;
            }
            let right_ok = self.raw.get(end).is_none_or(|c| !c.is_ascii_alphanumeric());
            right_ok.then_some(end)
        })
    }
}

/// One folded character and the raw index *after* its source characters
/// (a digraph fold consumes two raw characters).
#[derive(Debug, Clone, Copy)]
struct Folded {
    ch: char,
    raw_end: usize,
}

/// OCR-confusion-tolerant folding for keyword matching: lowercase, common
/// digit-for-letter confusions mapped back to letters, the `rn` digraph
/// fused to `m`, everything else non-alphanumeric to a space. Applied to
/// both the text and the keyword phrases, so clean and noisy renderings of
/// a keyword fold to the same string.
fn fold(raw: &[char]) -> impl Iterator<Item = Folded> + '_ {
    let mut i = 0;
    std::iter::from_fn(move || {
        let c = *raw.get(i)?;
        if (c == 'r' || c == 'R') && matches!(raw.get(i + 1), Some('n') | Some('N')) {
            i += 2;
            return Some(Folded {
                ch: 'm',
                raw_end: i,
            });
        }
        let ch = match c {
            '1' => 'l',
            '0' => 'o',
            '5' => 's',
            '8' => 'b',
            c if c.is_ascii_alphanumeric() => c.to_ascii_lowercase(),
            _ => ' ',
        };
        i += 1;
        Some(Folded { ch, raw_end: i })
    })
}

/// Folds a clean phrase with the same rules (index information discarded).
pub(crate) fn fold_str(phrase: &str) -> Vec<char> {
    let raw: Vec<char> = phrase.chars().collect();
    fold(&raw).map(|f| f.ch).collect()
}

/// The OCR-confusion folding applied to keyword phrases, exposed for
/// static analysis: two fields whose phrases fold identically collide in
/// the tier-3 salvage scan.
pub fn salvage_fold(phrase: &str) -> String {
    fold_str(phrase).into_iter().collect()
}

/// Scans raw characters after a keyword match for the first number the
/// spec accepts; stops at a newline or after [`NUMBER_WINDOW`] characters.
fn scan_number(raw: &[char], from: usize, spec: &FeatureSpec) -> Option<NumberValue> {
    let stop = raw
        .iter()
        .skip(from)
        .position(|&c| c == '\n')
        .map(|p| from + p)
        .unwrap_or(raw.len())
        .min(from + NUMBER_WINDOW);
    runs(raw, from, stop)
        .filter_map(|(_, run)| parse_run(run))
        .find(|value| spec.accepts(value))
}

/// The `{N}-year-old` shape under OCR folding: a digit run followed within
/// [`YEAR_GAP`] characters by a word folding to `year…`.
fn salvage_year_old(raw: &[char], spec: &FeatureSpec) -> Option<NumberValue> {
    let mut all = runs(raw, 0, raw.len()).peekable();
    while let Some((start, run)) = all.next() {
        let Some(value) = parse_run(run) else {
            continue;
        };
        if !matches!(value, NumberValue::Int(_)) || !spec.accepts(&value) {
            continue;
        }
        let Some(&(next_start, next_run)) = all.peek() else {
            continue;
        };
        if next_start > start + run.len() + YEAR_GAP {
            continue;
        }
        if fold(next_run).map(|f| f.ch).take(4).eq("year".chars()) {
            return Some(value);
        }
    }
    None
}

/// Maximal runs of number-ish characters (`[0-9A-Za-z./]`) in
/// `raw[from..stop]`, each with its start index, left to right.
fn runs(raw: &[char], from: usize, stop: usize) -> impl Iterator<Item = (usize, &[char])> {
    let mut i = from;
    std::iter::from_fn(move || {
        while i < stop && !is_run_char(raw[i]) {
            i += 1;
        }
        let start = i;
        while i < stop && is_run_char(raw[i]) {
            i += 1;
        }
        (i > start).then(|| (start, &raw[start..i]))
    })
}

fn is_run_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '.' || c == '/'
}

/// Parses a digit-bearing run as ratio, float or int, after folding the
/// OCR letter-for-digit confusions (`l`/`I`→1, `O`/`o`→0, `S`→5, `B`→8)
/// and trimming stray leading/trailing punctuation. Runs without a real
/// digit are rejected before folding — folding letters inside a digit-free
/// word (`"SOB"` → `508`) would hallucinate numbers out of prose.
fn parse_run(run: &[char]) -> Option<NumberValue> {
    if !run.iter().any(char::is_ascii_digit) {
        return None;
    }
    let folded: String = run
        .iter()
        .map(|&c| match c {
            'l' | 'I' => '1',
            'O' | 'o' => '0',
            'S' => '5',
            'B' => '8',
            other => other,
        })
        .collect();
    let trimmed = folded.trim_matches(|c: char| c == '.' || c == '/');
    if trimmed.is_empty()
        || !trimmed
            .chars()
            .all(|c| c.is_ascii_digit() || c == '.' || c == '/')
    {
        return None;
    }
    if let Some((a, b)) = trimmed.split_once('/') {
        let a: i64 = a.parse().ok()?;
        let b: i64 = b.parse().ok()?;
        return Some(NumberValue::Ratio(a, b));
    }
    if trimmed.contains('.') {
        return trimmed.parse::<f64>().ok().map(NumberValue::Float);
    }
    trimmed.parse::<i64>().ok().map(NumberValue::Int)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ValueKind;

    fn salvage_numeric(text: &str, spec: &FeatureSpec) -> Option<NumberValue> {
        SalvageText::new(text).salvage(spec)
    }

    fn bp() -> FeatureSpec {
        FeatureSpec::new(
            "blood_pressure",
            &["blood pressure", "bp"],
            &["Vitals"],
            ValueKind::Ratio,
        )
    }

    fn pulse() -> FeatureSpec {
        FeatureSpec::new("pulse", &["pulse"], &["Vitals"], ValueKind::Int).range(20.0, 250.0)
    }

    fn temperature() -> FeatureSpec {
        FeatureSpec::new(
            "temperature",
            &["temperature", "temp"],
            &[],
            ValueKind::Float,
        )
        .range(90.0, 110.0)
    }

    fn age() -> FeatureSpec {
        FeatureSpec::new("age", &["age"], &[], ValueKind::Int)
            .range(18.0, 110.0)
            .year_old()
    }

    #[test]
    fn clean_text_salvages() {
        assert_eq!(
            salvage_numeric("blood pressure is 144/90", &bp()),
            Some(NumberValue::Ratio(144, 90))
        );
        assert_eq!(
            salvage_numeric("pulse of 84", &pulse()),
            Some(NumberValue::Int(84))
        );
    }

    #[test]
    fn ocr_noise_in_keyword_and_number() {
        // "Blood" → "B1ood", "pressure" → "pre55ure", "144/90" → "l44/9O".
        assert_eq!(
            salvage_numeric("B1ood pre55ure is l44/9O, pulse 84.", &bp()),
            Some(NumberValue::Ratio(144, 90))
        );
        // "temperature" with the rn→m confusion reversed: "ternperature".
        assert_eq!(
            salvage_numeric("ternperature of 98.3", &temperature()),
            Some(NumberValue::Float(98.3))
        );
    }

    #[test]
    fn range_gate_skips_implausible_runs() {
        // 999 is out of range; the scan continues to 84.
        assert_eq!(
            salvage_numeric("pulse code 999 rate 84", &pulse()),
            Some(NumberValue::Int(84))
        );
    }

    #[test]
    fn kind_gate_skips_wrong_shapes() {
        // The ratio is not an int; salvage must not take 144 or 90 for pulse.
        assert_eq!(
            salvage_numeric("pulse near bp 144/90", &pulse()),
            None,
            "ratio must not be split into ints"
        );
    }

    #[test]
    fn window_stops_at_newline() {
        assert_eq!(salvage_numeric("pulse was taken\n84 later", &pulse()), None);
    }

    #[test]
    fn year_old_shape_only_for_age() {
        assert_eq!(
            salvage_numeric("a 5O-year-old woman", &age()),
            Some(NumberValue::Int(50))
        );
        // "age 10" in GYN history must NOT be salvaged as the patient age.
        assert_eq!(salvage_numeric("Menarche at age 10.", &age()), None);
    }

    #[test]
    fn number_window_counts_characters_not_bytes() {
        // 40 two-byte characters: "84" starts 42 characters but 82 bytes
        // after "pulse", inside the 48-character window.
        let pad = "é".repeat(40);
        assert_eq!(
            salvage_numeric(&format!("pulse {pad} 84"), &pulse()),
            Some(NumberValue::Int(84))
        );
        // Seven more characters put it past the window.
        let pad = "é".repeat(47);
        assert_eq!(salvage_numeric(&format!("pulse {pad} 84"), &pulse()), None);
        // A run straddling the window's end is cut at the 48th character.
        let pad = "é".repeat(44);
        assert_eq!(
            salvage_numeric(&format!("pulse {pad} 845"), &pulse()),
            Some(NumberValue::Int(84))
        );
    }

    #[test]
    fn year_gap_counts_characters_not_bytes() {
        // Six characters (ten bytes) between "50" and "year".
        assert_eq!(
            salvage_numeric("a 50-éééé-year-old woman", &age()),
            Some(NumberValue::Int(50))
        );
        assert_eq!(
            salvage_numeric("a 50 \u{2014}\u{2014} years old", &age()),
            Some(NumberValue::Int(50))
        );
        // Seven characters are past the gap.
        assert_eq!(salvage_numeric("a 50-ééééé-year-old woman", &age()), None);
    }

    /// The scan before texts were prepared once: each call collects the
    /// characters, folds the whole text, compares every needle at every
    /// position, and collects every character run.
    fn salvage_per_call(text: &str, spec: &FeatureSpec) -> Option<NumberValue> {
        let raw: Vec<char> = text.chars().collect();
        let runs_of = |from: usize, stop: usize| -> Vec<(usize, Vec<char>)> {
            let mut out = Vec::new();
            let mut i = from;
            while i < stop {
                if is_run_char(raw[i]) {
                    let start = i;
                    while i < stop && is_run_char(raw[i]) {
                        i += 1;
                    }
                    out.push((start, raw[start..i].to_vec()));
                } else {
                    i += 1;
                }
            }
            out
        };
        if spec.year_old_pattern {
            let all = runs_of(0, raw.len());
            for (idx, (start, run)) in all.iter().enumerate() {
                let Some(value) = parse_run(run) else {
                    continue;
                };
                if !matches!(value, NumberValue::Int(_)) || !spec.accepts(&value) {
                    continue;
                }
                let Some((next_start, next_run)) = all.get(idx + 1) else {
                    continue;
                };
                let word: String = fold_str(&next_run.iter().collect::<String>())
                    .into_iter()
                    .collect();
                if *next_start <= start + run.len() + YEAR_GAP && word.starts_with("year") {
                    return Some(value);
                }
            }
            return None;
        }
        let folded: Vec<Folded> = fold(&raw).collect();
        for phrase in spec.matching_phrases() {
            let needle = fold_str(&phrase);
            if needle.is_empty() || needle.len() > folded.len() {
                continue;
            }
            for start in 0..=folded.len() - needle.len() {
                let right = start + needle.len();
                let hit = folded[start..right]
                    .iter()
                    .zip(&needle)
                    .all(|(f, n)| f.ch == *n)
                    && (start == 0 || !folded[start - 1].ch.is_ascii_alphanumeric())
                    && (right == folded.len() || !folded[right].ch.is_ascii_alphanumeric());
                if !hit {
                    continue;
                }
                let from = folded[right - 1].raw_end;
                let stop = raw[from..]
                    .iter()
                    .position(|&c| c == '\n')
                    .map_or(raw.len(), |p| from + p)
                    .min(from + NUMBER_WINDOW);
                for (_, run) in runs_of(from, stop) {
                    if let Some(value) = parse_run(&run).filter(|v| spec.accepts(v)) {
                        return Some(value);
                    }
                }
            }
        }
        None
    }

    #[test]
    fn compiled_needles_salvage_like_per_call_folding() {
        let schema = crate::Schema::paper();
        let noise = cmr_corpus::NoiseInjector::from_level(0.3, 3);
        // Every phrase of every spec next to a value of each kind, the
        // lines of corrupted notes, and their whole multi-section texts
        // (raw, and as the pipeline joins their section bodies).
        let mut texts: Vec<String> = Vec::new();
        for spec in &schema.numeric {
            for phrase in spec.matching_phrases() {
                for value in ["84", "98.6", "144/90"] {
                    let text = format!("{phrase} is {value}");
                    texts.push(noise.corrupt(&text));
                    texts.push(text);
                }
            }
        }
        let corpus = cmr_corpus::CorpusBuilder::new()
            .records(20)
            .seed(3)
            .style_variation(1.0)
            .build();
        for rec in &corpus.records {
            let noisy = noise.corrupt(&rec.text);
            texts.extend(noisy.lines().map(str::to_string));
            let sections = cmr_text::Record::parse(&noisy).sections;
            let bodies: Vec<&str> = sections.iter().map(|s| s.body.as_str()).collect();
            texts.push(bodies.join("\n"));
            texts.push(noisy);
        }
        // One prepared text serves every spec in turn, as in the pipeline.
        for text in &texts {
            let prepared = SalvageText::new(text);
            for spec in &schema.numeric {
                assert_eq!(
                    prepared.salvage(spec),
                    salvage_per_call(text, spec),
                    "{} in {text:?}",
                    spec.name
                );
            }
        }
    }

    #[test]
    fn no_keyword_no_hit() {
        assert_eq!(salvage_numeric("Respirations were 18.", &pulse()), None);
        assert_eq!(salvage_numeric("", &pulse()), None);
    }
}
