//! AST 4-gram features (paper §III-B).
//!
//! "Moving a window of length four over the list of syntactic units"
//! (the pre-order [`NodeKind`] stream) "retains information about the code
//! original syntactic structure." [`TreeStats`](crate::TreeStats) collects
//! each script's windows in its one walk. A vocabulary is fitted on the
//! training corpus (most frequent 4-grams by document frequency); each
//! script is then represented by the relative frequencies of the
//! vocabulary grams.

use jsdetect_ast::NodeKind;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One 4-gram of node-kind ids.
pub type Gram = [u8; 4];

/// Counts 4-gram windows, each packed big-endian into a `u32`, as
/// `(gram, count)` pairs sorted by gram: big-endian packing orders the
/// `u32`s as the byte arrays, so one sort and one run-length pass do it.
pub(crate) fn count_windows(mut windows: Vec<u32>) -> Vec<(Gram, u32)> {
    windows.sort_unstable();
    let mut pairs: Vec<(Gram, u32)> = Vec::new();
    for w in windows {
        let gram = w.to_be_bytes();
        match pairs.last_mut() {
            Some((last, n)) if *last == gram => *n += 1,
            _ => pairs.push((gram, 1)),
        }
    }
    pairs
}

/// A fitted 4-gram vocabulary mapping grams to vector dimensions.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NgramVocab {
    grams: Vec<Gram>,
    #[serde(skip)]
    index: HashMap<Gram, usize>,
}

impl NgramVocab {
    /// Builds a vocabulary from per-document gram counts, keeping the
    /// `max_size` grams with the highest document frequency (ties broken
    /// lexicographically for determinism).
    pub fn build<'a, I>(documents: I, max_size: usize) -> Self
    where
        I: IntoIterator<Item = &'a [(Gram, u32)]>,
    {
        let mut doc_freq: HashMap<Gram, u32> = HashMap::new();
        for doc in documents {
            for (gram, _) in doc {
                *doc_freq.entry(*gram).or_insert(0) += 1;
            }
        }
        let mut grams: Vec<(Gram, u32)> = doc_freq.into_iter().collect();
        grams.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        grams.truncate(max_size);
        let grams: Vec<Gram> = grams.into_iter().map(|(g, _)| g).collect();
        let index = grams.iter().enumerate().map(|(i, g)| (*g, i)).collect();
        NgramVocab { grams, index }
    }

    /// Rebuilds the lookup index (needed after deserialization).
    pub fn rebuild_index(&mut self) {
        self.index = self.grams.iter().enumerate().map(|(i, g)| (*g, i)).collect();
    }

    /// Number of vector dimensions.
    pub fn dim(&self) -> usize {
        self.grams.len()
    }

    /// Vectorizes `(gram, count)` pairs as relative frequencies over the
    /// vocabulary dimensions. The total is an exact integer sum, so the
    /// result does not depend on the order of the pairs.
    pub fn vectorize(&self, pairs: &[(Gram, u32)]) -> Vec<f32> {
        let total: u32 = pairs.iter().map(|(_, c)| *c).sum();
        let mut v = vec![0f32; self.grams.len()];
        if total == 0 {
            return v;
        }
        for (gram, c) in pairs {
            if let Some(&i) = self.index.get(gram) {
                v[i] = *c as f32 / total as f32;
            }
        }
        v
    }

    /// Human-readable name of dimension `i`.
    pub fn gram_name(&self, i: usize) -> String {
        let g = self.grams[i];
        g.iter()
            .map(|&id| {
                NodeKind::ALL.iter().find(|k| k.id() == id).map(|k| k.as_str()).unwrap_or("?")
            })
            .collect::<Vec<_>>()
            .join(">")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsdetect_parser::parse;

    fn counts(src: &str) -> Vec<(Gram, u32)> {
        crate::TreeStats::of(&parse(src).unwrap()).grams
    }

    #[test]
    fn windows_count_in_gram_order() {
        let w = |g: Gram| u32::from_be_bytes(g);
        let windows = vec![w([2, 0, 0, 1]), w([1, 9, 9, 9]), w([2, 0, 0, 1]), w([1, 255, 0, 0])];
        assert_eq!(
            count_windows(windows),
            vec![([1, 9, 9, 9], 1), ([1, 255, 0, 0], 1), ([2, 0, 0, 1], 2)]
        );
        assert!(count_windows(Vec::new()).is_empty());
    }

    #[test]
    fn short_stream_has_no_grams() {
        // Program + ExpressionStatement + Identifier = 3 units < 4.
        assert!(counts("x;").is_empty());
    }

    #[test]
    fn gram_count_matches_window_count() {
        let src = "var a = 1; var b = 2;";
        let stream_len = jsdetect_ast::kind_stream(&parse(src).unwrap()).len();
        let total: u32 = counts(src).iter().map(|(_, c)| c).sum();
        assert_eq!(total as usize, stream_len - 3);
    }

    #[test]
    fn identical_structure_same_grams() {
        // Renaming identifiers must not change structural grams.
        assert_eq!(counts("var x = f(1);"), counts("var renamed = g(2);"));
    }

    #[test]
    fn different_structure_different_grams() {
        assert_ne!(counts("if (a) { b(); }"), counts("while (a) { b(); }"));
    }

    #[test]
    fn vocab_keeps_most_frequent() {
        let a = counts("var x = 1; var y = 2;");
        let b = counts("var z = 3;");
        let c = counts("if (q) r();");
        let vocab = NgramVocab::build([&a[..], &b[..], &c[..]], 5);
        assert_eq!(vocab.dim(), 5);
        // Grams appearing in both var-programs must be present.
        let va = vocab.vectorize(&a);
        assert!(va.iter().any(|&v| v > 0.0));
    }

    #[test]
    fn vectorize_is_relative_frequency() {
        let a = counts("var x = 1; var y = 2; var z = 3;");
        let vocab = NgramVocab::build([&a[..]], 1000);
        let v = vocab.vectorize(&a);
        let sum: f32 = v.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5, "sum={}", sum);
    }

    #[test]
    fn unknown_grams_ignored() {
        let a = counts("var x = 1; var y = 2;");
        let vocab = NgramVocab::build([&a[..]], 1000);
        let other = counts("class Q { m() { return 1; } }");
        let v = vocab.vectorize(&other);
        // Vector well-formed even when most grams are out-of-vocabulary.
        assert_eq!(v.len(), vocab.dim());
    }

    #[test]
    fn deterministic_vocab_order() {
        let a = counts("var x = 1; f(x); g(x, 2);");
        let v1 = NgramVocab::build([&a[..]], 10);
        let v2 = NgramVocab::build([&a[..]], 10);
        assert_eq!(v1.vectorize(&a), v2.vectorize(&a));
    }

    #[test]
    fn serde_roundtrip_with_index_rebuild() {
        let a = counts("var x = 1; var y = 2;");
        let vocab = NgramVocab::build([&a[..]], 50);
        let json = serde_json::to_string(&vocab).unwrap();
        let mut back: NgramVocab = serde_json::from_str(&json).unwrap();
        back.rebuild_index();
        assert_eq!(back.vectorize(&a), vocab.vectorize(&a));
    }

    #[test]
    fn gram_names_are_readable() {
        let a = counts("var x = 1; var y = 2;");
        let vocab = NgramVocab::build([&a[..]], 3);
        let name = vocab.gram_name(0);
        assert!(name.contains('>'));
        assert!(name.contains("Var") || name.contains("Program") || name.contains("Ident"));
    }
}
