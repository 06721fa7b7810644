//! Keyword → relation match index.
//!
//! A keyword in a search "may match a table either based on its name, or
//! based on an inverted index of its content" (Figure 1's caption). This
//! module is that inverted index: the workload generators register which
//! terms occur in which relations, with a similarity score and — for content
//! matches — the selection predicate that retrieves the matching tuples.

use qsys_types::{RelId, Value};
use std::collections::HashMap;

/// How a keyword matched a relation.
#[derive(Clone, Debug, PartialEq)]
pub enum MatchKind {
    /// The keyword matched relation metadata (table or column name):
    /// the relation participates with no extra predicate.
    Metadata,
    /// The keyword matched tuple content: the relation participates under a
    /// selection `column = value` (e.g., `σ_{name='plasma membrane'}(Term)`).
    Content {
        /// Column the predicate applies to.
        column: usize,
        /// Matched value.
        value: Value,
    },
}

/// One keyword-to-relation match.
#[derive(Clone, Debug, PartialEq)]
pub struct KeywordMatch {
    /// The matched relation.
    pub rel: RelId,
    /// IR-style similarity score of the match in `(0, 1]`.
    pub similarity: f64,
    /// How the match was established.
    pub kind: MatchKind,
    /// Estimated fraction of the relation's tuples satisfying the content
    /// predicate (1.0 for metadata matches).
    pub selectivity: f64,
}

/// Inverted index from lower-cased keyword to matches, best-first.
#[derive(Clone, Debug, Default)]
pub struct KeywordIndex {
    entries: HashMap<String, Vec<KeywordMatch>>,
}

impl KeywordIndex {
    /// Empty index.
    pub fn new() -> KeywordIndex {
        KeywordIndex::default()
    }

    /// Register a match for `keyword` (case-insensitive, and with each run
    /// of whitespace read as one space, as [`KeywordIndex::tokenize`]
    /// reads a phrase).
    pub fn insert(&mut self, keyword: &str, m: KeywordMatch) {
        let key = keyword.split_whitespace().collect::<Vec<_>>().join(" ");
        let list = self.entries.entry(key.to_lowercase()).or_default();
        list.push(m);
        list.sort_by(|a, b| b.similarity.total_cmp(&a.similarity));
    }

    /// Matches for one keyword, best-first. A multi-word phrase in quotes is
    /// treated as a single keyword, matching the paper's queries like
    /// `"plasma membrane"`.
    pub fn lookup(&self, keyword: &str) -> &[KeywordMatch] {
        self.entries
            .get(&keyword.to_lowercase())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Split a keyword query into keywords, honoring single and double
    /// quotes for phrases: `protein 'plasma membrane' gene` →
    /// `["protein", "plasma membrane", "gene"]`. A phrase is trimmed and
    /// each whitespace run inside it read as one space, so
    /// `' plasma  membrane'` is the same keyword; a blank phrase is none.
    pub fn tokenize(query: &str) -> Vec<String> {
        let mut out = Vec::new();
        let mut current = String::new();
        // Ends the keyword in progress, dropping a phrase's trailing space.
        let flush = |out: &mut Vec<String>, current: &mut String| {
            if current.ends_with(' ') {
                current.pop();
            }
            if !current.is_empty() {
                out.push(std::mem::take(current));
            }
        };
        let mut quote: Option<char> = None;
        for ch in query.chars() {
            match quote {
                Some(q) if ch == q => {
                    flush(&mut out, &mut current);
                    quote = None;
                }
                Some(_) if ch.is_whitespace() => {
                    if !current.is_empty() && !current.ends_with(' ') {
                        current.push(' ');
                    }
                }
                Some(_) => current.push(ch),
                None if ch == '\'' || ch == '"' => {
                    flush(&mut out, &mut current);
                    quote = Some(ch);
                }
                None if ch.is_whitespace() => flush(&mut out, &mut current),
                None => current.push(ch),
            }
        }
        flush(&mut out, &mut current);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rel: u32, sim: f64) -> KeywordMatch {
        KeywordMatch {
            rel: RelId::new(rel),
            similarity: sim,
            kind: MatchKind::Metadata,
            selectivity: 1.0,
        }
    }

    #[test]
    fn lookup_is_case_insensitive_and_sorted() {
        let mut idx = KeywordIndex::new();
        idx.insert("Protein", m(1, 0.4));
        idx.insert("protein", m(2, 0.9));
        idx.insert("PROTEIN", m(3, 0.6));
        let hits = idx.lookup("pRoTeIn");
        assert_eq!(hits.len(), 3);
        assert_eq!(hits[0].rel, RelId::new(2));
        assert_eq!(hits[2].rel, RelId::new(1));
    }

    #[test]
    fn missing_keyword_is_empty() {
        let idx = KeywordIndex::new();
        assert!(idx.lookup("nothing").is_empty());
    }

    #[test]
    fn content_match_carries_predicate() {
        let mut idx = KeywordIndex::new();
        idx.insert(
            "plasma membrane",
            KeywordMatch {
                rel: RelId::new(4),
                similarity: 0.8,
                kind: MatchKind::Content {
                    column: 1,
                    value: Value::str("plasma membrane"),
                },
                selectivity: 0.01,
            },
        );
        let hit = &idx.lookup("plasma membrane")[0];
        match &hit.kind {
            MatchKind::Content { column, value } => {
                assert_eq!(*column, 1);
                assert_eq!(value.as_str(), Some("plasma membrane"));
            }
            _ => panic!("expected content match"),
        }
    }

    #[test]
    fn tokenize_handles_phrases() {
        let toks = KeywordIndex::tokenize("protein 'plasma membrane' gene");
        assert_eq!(toks, vec!["protein", "plasma membrane", "gene"]);
        let toks = KeywordIndex::tokenize("  metabolism   ");
        assert_eq!(toks, vec!["metabolism"]);
        let toks = KeywordIndex::tokenize(r#"a "b c" d"#);
        assert_eq!(toks, vec!["a", "b c", "d"]);
        assert!(KeywordIndex::tokenize("").is_empty());
    }

    #[test]
    fn tokenize_reads_phrase_whitespace_as_one_space() {
        for query in [
            "'plasma membrane' metabolism",
            "'plasma  membrane' metabolism",
            "' plasma membrane' metabolism",
            "'plasma\tmembrane ' metabolism",
            "\"  plasma \n membrane  \" metabolism",
        ] {
            let toks = KeywordIndex::tokenize(query);
            assert_eq!(toks, vec!["plasma membrane", "metabolism"], "{query:?}");
        }
        // A blank phrase adds no token, closed or not.
        assert_eq!(KeywordIndex::tokenize("a ' ' b"), vec!["a", "b"]);
        assert_eq!(KeywordIndex::tokenize("a '  "), vec!["a"]);
        // Inserting under a spaced key finds the single-spaced token.
        let mut idx = KeywordIndex::new();
        idx.insert(" Plasma   Membrane ", m(4, 0.8));
        assert_eq!(idx.lookup("plasma membrane")[0].rel, RelId::new(4));
    }
}
