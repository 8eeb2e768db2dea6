//! Term normalization, exactly as the paper specifies (§3.2):
//!
//! > "Normalization usually includes two steps: (1) getting the uninfected
//! > form of the surface word, (2) sorting multiple words in alphabetic
//! > order. For example, the term 'high blood pressures' after
//! > normalization becomes 'blood high pressure'."

use cmr_lexicon::Lemmatizer;

/// Normalizes a term: lowercase, lemmatize each word, sort words
/// alphabetically, join with single spaces. Hyphens count as word breaks so
/// `c-section` and `c section` normalize identically.
pub fn normalize(term: &str) -> String {
    let mut words = normalized_words(term);
    words.sort_unstable();
    words.join(" ")
}

/// Step (1) of [`normalize`] alone: the lower-cased, lemmatized words of
/// `term` in surface order. Splitting happens only at whitespace and
/// hyphens, so the normalization of a phrase is the sorted, space-joined
/// concatenation of its whitespace-separated words' `normalized_words`;
/// a caller normalizing many overlapping word windows can lemmatize each
/// word once.
pub fn normalized_words(term: &str) -> Vec<String> {
    let lem = Lemmatizer::new();
    term.to_lowercase()
        .split(|c: char| c.is_whitespace() || c == '-')
        .filter(|w| !w.is_empty())
        .map(|w| lem.lemma_any(w))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example() {
        assert_eq!(normalize("high blood pressures"), "blood high pressure");
    }

    #[test]
    fn single_word() {
        assert_eq!(normalize("Cholecystectomy"), "cholecystectomy");
        assert_eq!(normalize("biopsies"), "biopsy");
    }

    #[test]
    fn sorting_is_alphabetic() {
        assert_eq!(normalize("past medical history"), "history medical past");
    }

    #[test]
    fn hyphens_split() {
        assert_eq!(normalize("c-section"), normalize("c section"));
    }

    #[test]
    fn idempotent() {
        for t in [
            "high blood pressures",
            "midline hernia closure",
            "postoperative CVA",
        ] {
            let once = normalize(t);
            assert_eq!(normalize(&once), once, "{t}");
        }
    }

    #[test]
    fn phrase_is_the_sorted_join_of_its_words() {
        for t in [
            "high blood pressures",
            "C-section scars",
            "Midline  hernia closures",
        ] {
            let mut words: Vec<String> = t.split_whitespace().flat_map(normalized_words).collect();
            words.sort_unstable();
            assert_eq!(words.join(" "), normalize(t), "{t}");
        }
    }

    #[test]
    fn empty() {
        assert_eq!(normalize(""), "");
        assert_eq!(normalize("  - "), "");
    }
}
