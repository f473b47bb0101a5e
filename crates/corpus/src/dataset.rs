//! Ground-truth dataset construction (paper §III-D2, §III-E).
//!
//! Regular scripts come from the [`crate::generator`]; transformed
//! variants are produced with the `jsdetect-transform` passes. Labels
//! follow the paper's conventions: a sample carries every technique that
//! was applied, plus implied labels (a tool that must emit compact output,
//! like self-defending, also leaves the *minification simple* trace).

use crate::generator::regular_corpus;
use jsdetect_obs::names;
use jsdetect_transform::{apply, Technique};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One labeled script.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LabeledSample {
    /// Source text.
    pub src: String,
    /// Ground-truth techniques (empty = regular).
    pub techniques: Vec<Technique>,
}

impl LabeledSample {
    /// A regular (untransformed) sample.
    pub fn regular(src: String) -> Self {
        LabeledSample { src, techniques: Vec::new() }
    }

    /// Whether any minification technique applies.
    pub fn is_minified(&self) -> bool {
        self.techniques.iter().any(|t| t.is_minification())
    }

    /// Whether any obfuscation technique applies.
    pub fn is_obfuscated(&self) -> bool {
        self.techniques.iter().any(|t| !t.is_minification())
    }

    /// Whether the sample is transformed at all.
    pub fn is_transformed(&self) -> bool {
        !self.techniques.is_empty()
    }

    /// Label vector over the ten techniques.
    pub fn label_vector(&self) -> Vec<bool> {
        let mut v = vec![false; Technique::ALL.len()];
        for t in &self.techniques {
            v[t.index()] = true;
        }
        v
    }
}

/// Expands a technique set with implied labels: self-defending forces
/// compact output, so its samples also carry the *minification simple*
/// whitespace trace (the paper notes single-configuration samples can have
/// up to three labels for this reason).
pub fn implied_labels(techniques: &[Technique]) -> Vec<Technique> {
    let mut out: Vec<Technique> = techniques.to_vec();
    // Self-defending requires compact output, leaving the simple-
    // minification whitespace trace.
    if out.contains(&Technique::SelfDefending) {
        out.push(Technique::MinificationSimple);
    }
    // Advanced minification (Closure-style) performs everything basic
    // minification does — whitespace removal, identifier shortening,
    // dead-code deletion — plus the advanced optimizations; its samples
    // therefore carry both labels (cf. the paper's observation that
    // single-configuration samples can have up to three labels, and
    // Figure 2, where both minification flavours score high together).
    if out.contains(&Technique::MinificationAdvanced) {
        out.push(Technique::MinificationSimple);
    }
    out.sort();
    out.dedup();
    out
}

/// Transforms one script with one technique (single-configuration sample).
///
/// Returns `None` when the transformation fails *or is a no-op* (e.g.
/// control-flow flattening finds no eligible statement list) — a sample
/// whose code did not change must not carry a transformation label.
pub fn transform_sample(src: &str, techniques: &[Technique], seed: u64) -> Option<LabeledSample> {
    variant_of(src, &untouched(src)?, techniques, seed)
}

/// `src` printed with no technique applied: what a variant must differ
/// from. No pass runs, so nothing draws from the seed and any seed prints
/// the same text.
fn untouched(src: &str) -> Option<String> {
    apply(src, &[], 0).ok()
}

/// [`transform_sample`] against the script's [`untouched`] print, which
/// the caller computes once for all the variants of one script.
fn variant_of(
    src: &str,
    untouched: &str,
    techniques: &[Technique],
    seed: u64,
) -> Option<LabeledSample> {
    let out = apply(src, techniques, seed).ok()?;
    (out != untouched).then(|| LabeledSample { src: out, techniques: implied_labels(techniques) })
}

/// A complete ground-truth corpus: regular scripts plus, per technique,
/// a transformed variant of each.
#[derive(Debug)]
pub struct GroundTruth {
    /// The regular scripts.
    pub regular: Vec<LabeledSample>,
    /// `pools[t]` holds the variants transformed with technique `t`.
    pub pools: Vec<Vec<LabeledSample>>,
}

impl GroundTruth {
    /// Generates `n` regular scripts and transforms each with each of the
    /// ten techniques (the paper transforms its 21,000 scripts 10 times
    /// and stores the variants separately).
    ///
    /// The `corpus_generate` span times the regular scripts' draw alone.
    /// Each script's untouched print, then the `n × 10` transforms, run as
    /// jobs on the work-stealing pool, in index order; each variant
    /// depends only on its script, technique and seed, so the pools come
    /// out as a serial run builds them.
    pub fn generate(n: usize, seed: u64) -> Self {
        let regular_srcs = {
            let _t = jsdetect_obs::span(names::SPAN_CORPUS_GENERATE);
            regular_corpus(n, seed)
        };
        let untouched = jsdetect_obs::run_stealing(n, |_| 0, |i| untouched(&regular_srcs[i]));
        let n_techniques = Technique::ALL.len();
        let variants = jsdetect_obs::run_stealing(
            n * n_techniques,
            |_| 0,
            |k| {
                let (i, t_idx) = (k / n_techniques, k % n_techniques);
                let sample_seed = seed ^ ((i as u64) << 8) ^ (t_idx as u64);
                let technique = [Technique::ALL[t_idx]];
                variant_of(&regular_srcs[i], untouched[i].as_deref()?, &technique, sample_seed)
            },
        );
        let mut pools: Vec<Vec<LabeledSample>> = vec![Vec::new(); n_techniques];
        for (k, variant) in variants.into_iter().enumerate() {
            pools[k % n_techniques].extend(variant);
        }
        let regular = regular_srcs.into_iter().map(LabeledSample::regular).collect();
        GroundTruth { regular, pools }
    }

    /// The pool for one technique.
    pub fn pool(&self, t: Technique) -> &[LabeledSample] {
        &self.pools[t.index()]
    }
}

/// Draws a random multi-technique combination for the mixed test set
/// (§III-E2: between 1 and 7 labels).
pub fn random_combo(rng: &mut StdRng) -> Vec<Technique> {
    use Technique::*;
    // JSFuck hides every other trace, so it only combines with simple
    // minification (which it consumes as its input layout).
    if rng.gen_bool(0.06) {
        return if rng.gen_bool(0.5) {
            vec![NoAlphanumeric]
        } else {
            vec![MinificationSimple, NoAlphanumeric]
        };
    }
    let obfuscations = [
        IdentifierObfuscation,
        StringObfuscation,
        GlobalArray,
        DeadCodeInjection,
        ControlFlowFlattening,
        SelfDefending,
        DebugProtection,
    ];
    let n_obf = rng.gen_range(0..=4usize);
    let mut picked: Vec<Technique> = obfuscations.choose_multiple(rng, n_obf).copied().collect();
    // Optionally add one minification flavour.
    match rng.gen_range(0..3u8) {
        0 => picked.push(MinificationSimple),
        1 => picked.push(MinificationAdvanced),
        _ => {}
    }
    if picked.is_empty() {
        picked.push(IdentifierObfuscation);
    }
    picked.sort();
    picked.dedup();
    picked
}

/// Builds a partially transformed sample: a minified "library" followed
/// by regular page code (paper §III-C: "a first part regular and a second
/// part transformed (e.g., when a minified jQuery version is added to a
/// regular sample)"). Such samples are both regular and minified.
pub fn partial_sample(seed: u64) -> Option<LabeledSample> {
    use crate::generator::{GenOptions, RegularJsGenerator};
    let lib = RegularJsGenerator::with_options(
        seed ^ 0x11b,
        GenOptions { min_bytes: 2048, max_bytes: 6 * 1024 },
    )
    .generate();
    let page = RegularJsGenerator::with_options(
        seed ^ 0x9a6e,
        GenOptions { min_bytes: 512, max_bytes: 1024 },
    )
    .generate();
    let technique = if seed.is_multiple_of(2) {
        Technique::MinificationSimple
    } else {
        Technique::MinificationAdvanced
    };
    let minified_lib = apply(&lib, &[technique], seed).ok()?;
    Some(LabeledSample {
        src: format!("{}\n{}", minified_lib, page),
        techniques: implied_labels(&[technique]),
    })
}

/// Builds a mixed-technique sample set of size `n` (paper's Test Set 2).
pub fn mixed_set(n: usize, seed: u64) -> Vec<LabeledSample> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n);
    let mut i = 0u64;
    while out.len() < n {
        i += 1;
        let src = crate::generator::RegularJsGenerator::new(seed.wrapping_add(i * 131)).generate();
        let combo = random_combo(&mut rng);
        if let Some(s) = transform_sample(&src, &combo, seed.wrapping_add(i)) {
            out.push(s);
        }
    }
    out
}

/// Builds packer samples (the held-out Daft Logic / Dean Edwards tool,
/// paper §III-E3). Ground truth per the paper: minification (simple and
/// advanced flavours), identifier obfuscation, and string obfuscation.
pub fn packer_set(n: usize, seed: u64) -> Vec<LabeledSample> {
    let mut out = Vec::with_capacity(n);
    let mut i = 0u64;
    while out.len() < n {
        i += 1;
        let src = crate::generator::RegularJsGenerator::new(seed.wrapping_add(i * 977)).generate();
        if let Ok(packed) = jsdetect_transform::apply_packer(&src, seed.wrapping_add(i)) {
            out.push(LabeledSample {
                src: packed,
                techniques: vec![
                    Technique::IdentifierObfuscation,
                    Technique::StringObfuscation,
                    Technique::MinificationSimple,
                    Technique::MinificationAdvanced,
                ],
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ground_truth_pools_full() {
        let gt = GroundTruth::generate(4, 42);
        assert_eq!(gt.regular.len(), 4);
        for t in Technique::ALL {
            assert!(
                gt.pool(t).len() >= 3,
                "technique {} produced too few samples: {}",
                t,
                gt.pool(t).len()
            );
            for s in gt.pool(t) {
                assert!(s.techniques.contains(&t));
                assert!(jsdetect_parser::parse(&s.src).is_ok(), "{}", t);
            }
        }
    }

    #[test]
    fn implied_labels_rules() {
        let labels = implied_labels(&[Technique::SelfDefending]);
        assert!(labels.contains(&Technique::MinificationSimple));
        assert_eq!(labels.len(), 2);
        let labels = implied_labels(&[Technique::MinificationAdvanced]);
        assert!(labels.contains(&Technique::MinificationSimple));
        assert_eq!(labels.len(), 2);
        let labels = implied_labels(&[Technique::GlobalArray]);
        assert_eq!(labels.len(), 1);
        // Deduplication when everything is already present.
        let labels = implied_labels(&[
            Technique::SelfDefending,
            Technique::MinificationAdvanced,
            Technique::MinificationSimple,
        ]);
        assert_eq!(labels.len(), 3);
    }

    #[test]
    fn label_vector_shape() {
        let s = LabeledSample {
            src: String::new(),
            techniques: vec![Technique::GlobalArray, Technique::MinificationSimple],
        };
        let v = s.label_vector();
        assert_eq!(v.len(), 10);
        assert!(v[Technique::GlobalArray.index()]);
        assert!(v[Technique::MinificationSimple.index()]);
        assert_eq!(v.iter().filter(|b| **b).count(), 2);
        assert!(s.is_minified() && s.is_obfuscated() && s.is_transformed());
    }

    #[test]
    fn partial_samples_mix_minified_and_regular() {
        let s = partial_sample(4).unwrap();
        assert!(s.is_minified());
        assert!(jsdetect_parser::parse(&s.src).is_ok());
        // One long minified line plus pretty page lines.
        let first = s.src.lines().next().unwrap().len();
        assert!(first > 400, "first line {}", first);
        assert!(s.src.lines().count() > 5);
    }

    #[test]
    fn mixed_set_has_varied_label_counts() {
        let set = mixed_set(30, 7);
        assert_eq!(set.len(), 30);
        let max_labels = set.iter().map(|s| s.techniques.len()).max().unwrap();
        let min_labels = set.iter().map(|s| s.techniques.len()).min().unwrap();
        assert!(max_labels >= 3, "expected combos, max={}", max_labels);
        assert!(min_labels >= 1);
        for s in &set {
            assert!(jsdetect_parser::parse(&s.src).is_ok());
        }
    }

    #[test]
    fn packer_set_parses_and_is_labeled() {
        let set = packer_set(3, 11);
        assert_eq!(set.len(), 3);
        for s in &set {
            assert!(s.src.starts_with("eval(function(p,a,c,k,e,d)"));
            assert_eq!(s.techniques.len(), 4);
        }
    }

    #[test]
    fn random_combo_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let combo = random_combo(&mut rng);
            assert!(!combo.is_empty());
            assert!(combo.len() <= 7);
            if combo.contains(&Technique::NoAlphanumeric) {
                assert!(combo.len() <= 2);
            }
        }
    }
}
