//! Connectors: the typed half-links of link grammar.
//!
//! A connector has a *name* (uppercase base plus optional lowercase
//! subscript), a *direction* (`+` right, `-` left) and an optional *multi*
//! flag (`@`, may form several links). Two connectors match when they point
//! toward each other and their names unify: bases equal, subscripts equal
//! position-wise with `*` (or exhaustion) as a wildcard — exactly the rule of
//! Sleator & Temperley's parser.

use std::fmt;

/// Link direction of a connector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Dir {
    /// `-`: connects to a word on the left.
    Left,
    /// `+`: connects to a word on the right.
    Right,
}

/// A connector, e.g. `@MV+` or `Ss-`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Connector {
    /// Uppercase base, e.g. `MV`.
    pub base: String,
    /// Lowercase subscript, e.g. `s` in `Ss`.
    pub subscript: String,
    /// Direction.
    pub dir: Dir,
    /// Multi-connector (`@` prefix): may form one *or more* links.
    pub multi: bool,
}

impl Connector {
    /// Parses a connector from text like `@MV+`, `Ss-`, `O+`.
    ///
    /// Returns `None` when the text is not a well-formed connector.
    pub fn parse(text: &str) -> Option<Connector> {
        let mut s = text.trim();
        let multi = if let Some(rest) = s.strip_prefix('@') {
            s = rest;
            true
        } else {
            false
        };
        let dir = if let Some(rest) = s.strip_suffix('+') {
            s = rest;
            Dir::Right
        } else if let Some(rest) = s.strip_suffix('-') {
            s = rest;
            Dir::Left
        } else {
            return None;
        };
        if s.is_empty() {
            return None;
        }
        let split = s
            .find(|c: char| c.is_ascii_lowercase() || c == '*')
            .unwrap_or(s.len());
        let (base, subscript) = s.split_at(split);
        if base.is_empty() || !base.chars().all(|c| c.is_ascii_uppercase()) {
            return None;
        }
        if !subscript
            .chars()
            .all(|c| c.is_ascii_lowercase() || c == '*')
        {
            return None;
        }
        Some(Connector {
            base: base.to_string(),
            subscript: subscript.to_string(),
            dir,
            multi,
        })
    }

    /// True when `self` (a right-pointing connector on an earlier word) can
    /// link with `other` (a left-pointing connector on a later word).
    pub fn matches(&self, other: &Connector) -> bool {
        debug_assert_eq!(
            self.dir,
            Dir::Right,
            "matches() expects self to point right"
        );
        debug_assert_eq!(
            other.dir,
            Dir::Left,
            "matches() expects other to point left"
        );
        self.base == other.base && subscripts_unify(&self.subscript, &other.subscript)
    }

    /// The label a link formed from this connector pair carries: the base
    /// plus the more specific of the two subscripts.
    pub fn link_label(&self, other: &Connector) -> String {
        let sub = if self.subscript.len() >= other.subscript.len() {
            &self.subscript
        } else {
            &other.subscript
        };
        format!("{}{}", self.base, sub)
    }
}

/// Position-wise subscript unification with `*` wildcards; a missing
/// position unifies with anything.
fn subscripts_unify(a: &str, b: &str) -> bool {
    a.chars()
        .zip(b.chars())
        .all(|(x, y)| x == y || x == '*' || y == '*')
}

impl fmt::Display for Connector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.multi {
            write!(f, "@")?;
        }
        write!(f, "{}{}", self.base, self.subscript)?;
        match self.dir {
            Dir::Left => write!(f, "-"),
            Dir::Right => write!(f, "+"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(s: &str) -> Connector {
        Connector::parse(s).expect("test literals are valid connectors")
    }

    #[test]
    fn parse_forms() {
        assert_eq!(c("O+").base, "O");
        assert_eq!(c("O+").dir, Dir::Right);
        assert_eq!(c("Ss-").subscript, "s");
        assert!(c("@MV+").multi);
        assert!(!c("MV+").multi);
        assert_eq!(c("S*b-").subscript, "*b");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Connector::parse("").is_none());
        assert!(Connector::parse("O").is_none());
        assert!(Connector::parse("+").is_none());
        assert!(Connector::parse("lower+").is_none());
        assert!(Connector::parse("O!+").is_none());
    }

    #[test]
    fn matching_bases() {
        assert!(c("O+").matches(&c("O-")));
        assert!(!c("O+").matches(&c("S-")));
    }

    #[test]
    fn subscript_wildcards() {
        assert!(
            c("S+").matches(&c("Ss-")),
            "missing subscript is a wildcard"
        );
        assert!(c("Ss+").matches(&c("S-")));
        assert!(c("Ss+").matches(&c("Ss-")));
        assert!(!c("Ss+").matches(&c("Sp-")));
        assert!(c("S*b+").matches(&c("Ssb-")));
        assert!(!c("S*b+").matches(&c("Ssa-")));
    }

    #[test]
    fn labels_take_specific_subscript() {
        assert_eq!(c("S+").link_label(&c("Ss-")), "Ss");
        assert_eq!(c("Sp+").link_label(&c("S-")), "Sp");
        assert_eq!(c("O+").link_label(&c("O-")), "O");
    }

    #[test]
    fn display_roundtrip() {
        for s in ["O+", "Ss-", "@MV+", "S*b-"] {
            assert_eq!(c(s).to_string(), s);
        }
    }
}
