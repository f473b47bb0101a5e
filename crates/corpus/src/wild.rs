//! Wild-population simulators (paper §IV).
//!
//! The paper's large-scale study measures Alexa Top-10k websites, npm
//! Top-10k packages, three malware feeds (DNC / Hynek / BSI), and monthly
//! longitudinal crawls. Those corpora cannot be redistributed, so the
//! experiments here run the *same measurement instrument* (the trained
//! detectors) over synthetic populations whose generating process is
//! calibrated to the paper's reported ground truth: per-source
//! transformation rates, technique mixtures, rank effects, and temporal
//! trends. Each population is a stream of [`WildScript`]s carrying its
//! generation-time truth, so experiments can report both the detector's
//! measurements and the generating rates.

use crate::generator::RegularJsGenerator;
use jsdetect_transform::{apply, Technique};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Months in the longitudinal window (2015-05 .. 2020-09 inclusive).
pub const N_MONTHS: usize = 65;

/// One script drawn from a simulated population.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WildScript {
    /// Source text.
    pub src: String,
    /// Container id (site rank for Alexa, package rank for npm, wave id
    /// for malware).
    pub container: usize,
    /// Techniques applied when the script was generated (empty = regular).
    pub truth: Vec<Technique>,
}

impl WildScript {
    /// Whether the generating process transformed this script.
    pub fn is_transformed(&self) -> bool {
        !self.truth.is_empty()
    }
}

/// Inclusion weights over the ten techniques plus a transform rate.
#[derive(Debug, Clone)]
pub struct PopulationModel {
    /// Probability that a script is transformed at all.
    pub transform_rate: f64,
    /// Per-technique inclusion weights (normalized for the primary pick).
    pub weights: [f64; 10],
    /// Probability of adding each *additional* technique after the primary.
    pub extra_rate: f64,
}

impl PopulationModel {
    /// Draws a technique set (non-empty) from the mixture.
    pub fn sample_techniques(&self, rng: &mut StdRng) -> Vec<Technique> {
        let total: f64 = self.weights.iter().sum();
        let mut roll = rng.gen_range(0.0..total);
        let mut primary = Technique::MinificationSimple;
        for (i, w) in self.weights.iter().enumerate() {
            if roll < *w {
                primary = Technique::ALL[i];
                break;
            }
            roll -= w;
        }
        let mut set = vec![primary];
        for (i, w) in self.weights.iter().enumerate() {
            let t = Technique::ALL[i];
            if t == primary || t == Technique::NoAlphanumeric {
                continue;
            }
            // Additional techniques join proportionally to their weight.
            if rng.gen_bool((self.extra_rate * w / total).clamp(0.0, 1.0)) {
                set.push(t);
            }
        }
        // Simple and advanced minification never co-occur as generated
        // configurations (a file is minified by one tool).
        if set.contains(&Technique::MinificationSimple)
            && set.contains(&Technique::MinificationAdvanced)
        {
            set.retain(|t| *t != Technique::MinificationAdvanced);
        }
        set.sort();
        set.dedup();
        set
    }
}

/// Weight vector helper indexed by [`Technique::index`].
fn weights(entries: &[(Technique, f64)]) -> [f64; 10] {
    let mut w = [0.0; 10];
    for (t, v) in entries {
        w[t.index()] = *v;
    }
    w
}

// ---- Alexa -------------------------------------------------------------------

/// The Alexa client-side population at a given month (0 = 2015-05,
/// 64 = 2020-09) and rank (0-based site rank).
pub fn alexa_model(month: usize, rank: usize) -> PopulationModel {
    let m = month.min(N_MONTHS - 1) as f64 / (N_MONTHS - 1) as f64;
    // Fig. 6: transformed proportion rises steadily over time.
    let base_rate = 0.55 + 0.14 * m;
    // §IV-B1: popularity correlates with transformation (80% top-1k,
    // ~64.7% around rank 100k). Within 10k, interpolate by rank bucket.
    let rank_factor = 1.0 + 0.16 * (1.0 - (rank as f64 / 10_000.0).min(1.0)) - 0.08;
    let transform_rate = (base_rate * rank_factor).clamp(0.05, 0.95);
    // Fig. 7: minification simple rises 38.74→47.02%, advanced decays
    // 43.77→40%, identifier obfuscation decays 8.23→6.21%.
    let w = weights(&[
        (Technique::MinificationSimple, 0.3874 + (0.4702 - 0.3874) * m),
        (Technique::MinificationAdvanced, 0.4377 + (0.40 - 0.4377) * m),
        (Technique::IdentifierObfuscation, 0.020 + (0.015 - 0.020) * m),
        (Technique::StringObfuscation, 0.004),
        (Technique::GlobalArray, 0.003),
        (Technique::DeadCodeInjection, 0.002),
        (Technique::ControlFlowFlattening, 0.002),
        (Technique::SelfDefending, 0.002),
        (Technique::DebugProtection, 0.001),
    ]);
    PopulationModel { transform_rate, weights: w, extra_rate: 0.10 }
}

/// Generates the scripts of `n_sites` Alexa sites starting at `rank_start`.
pub fn alexa_population(
    month: usize,
    n_sites: usize,
    rank_start: usize,
    seed: u64,
) -> Vec<WildScript> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xa1e8a);
    let mut out = Vec::new();
    for site in 0..n_sites {
        let rank = rank_start + site;
        let mut model = alexa_model(month, rank);
        // Transformation clusters per site (§IV-B1: 89.4% of sites carry a
        // transformed script while 68.6% of scripts are transformed): a
        // minority of sites ship no transformed code at all, the rest are
        // proportionally more transformed.
        if rng.gen_bool(0.11) {
            model.transform_rate = 0.02;
        } else {
            model.transform_rate = (model.transform_rate / 0.89).min(0.97);
        }
        let n_scripts = rng.gen_range(3..7usize);
        for s in 0..n_scripts {
            let sseed = seed
                .wrapping_add((rank as u64) << 20)
                .wrapping_add(s as u64)
                .wrapping_add(month as u64 * 0x1000);
            // §IV-B1: some Alexa files mix regular code with a minified
            // library (11/100 manually-reviewed minified samples also
            // included regular code); such files are both regular and
            // minified.
            if rng.gen_bool(0.07) {
                out.push(make_partial_script(rank, sseed, &mut rng));
            } else {
                out.push(make_script(&model, rank, sseed, &mut rng));
            }
        }
    }
    out
}

/// A partially transformed script: a minified "library" prepended to
/// regular page code (the jQuery-plus-page-code pattern of §IV-B1). The
/// truth records the minification; level 1 may legitimately also flag it
/// regular.
fn make_partial_script(container: usize, sseed: u64, rng: &mut StdRng) -> WildScript {
    // The minified library dominates the file (a minified jQuery dwarfs the
    // page glue appended after it), so level 1 still reads the file as
    // minified — matching the paper's manual review of such samples.
    let lib = RegularJsGenerator::with_options(
        sseed ^ 0x11b,
        crate::generator::GenOptions { min_bytes: 2048, max_bytes: 6 * 1024 },
    )
    .generate();
    let page = RegularJsGenerator::with_options(
        sseed ^ 0x9a6e,
        crate::generator::GenOptions { min_bytes: 512, max_bytes: 900 },
    )
    .generate();
    let technique = if rng.gen_bool(0.5) {
        Technique::MinificationSimple
    } else {
        Technique::MinificationAdvanced
    };
    match apply(&lib, &[technique], sseed) {
        Ok(minified_lib) => WildScript {
            src: format!("{}\n{}", minified_lib, page),
            container,
            truth: vec![technique],
        },
        Err(_) => WildScript { src: page, container, truth: Vec::new() },
    }
}

// ---- npm ---------------------------------------------------------------------

/// The npm package population. Fig. 6 shows three phases: noisy ~7.4%
/// (2015-05..2016-04), stable ~17.95% (2016-05..2019-05), and ~15.17%
/// (2019-06..2020-09). Top-1k packages are 2.4–4.4× less transformed.
pub fn npm_model(month: usize, rank: usize, rng: &mut StdRng) -> PopulationModel {
    let base_rate: f64 = if month < 12 {
        // High relative standard deviation (~24%): ephemeral popularity.
        0.074 * (1.0 + rng.gen_range(-0.35..0.35))
    } else if month < 49 {
        0.1795 * (1.0 + rng.gen_range(-0.06..0.06))
    } else {
        0.1517 * (1.0 + rng.gen_range(-0.08..0.08))
    };
    // Rank profile reconciling the paper's two npm measurements: the
    // monthly Top-2k crawls average the phase rates above, while the
    // Top-10k snapshot sits at 8.7% with the top-1k packages 2.4-4.4x
    // less transformed than the rest (§IV-B2).
    let rank_factor = if rank < 1_000 {
        0.16
    } else if rank < 2_000 {
        1.84
    } else {
        0.47
    };
    let transform_rate = (base_rate * rank_factor).clamp(0.002, 0.9);
    // Fig. 8: simple ≈58.62%, advanced ≈34.28%; for the top-1k packages
    // basic and advanced are nearly even (§IV-B2).
    let (simple_w, adv_w) = if rank < 1_000 { (0.49, 0.47) } else { (0.586, 0.343) };
    let w = weights(&[
        (Technique::MinificationSimple, simple_w),
        (Technique::MinificationAdvanced, adv_w),
        (Technique::IdentifierObfuscation, 0.022),
        (Technique::StringObfuscation, 0.004),
        (Technique::GlobalArray, 0.003),
        (Technique::DeadCodeInjection, 0.002),
        (Technique::ControlFlowFlattening, 0.002),
        (Technique::SelfDefending, 0.002),
        (Technique::DebugProtection, 0.001),
    ]);
    PopulationModel { transform_rate, weights: w, extra_rate: 0.08 }
}

/// Generates the scripts of `n_packages` npm packages.
pub fn npm_population(
    month: usize,
    n_packages: usize,
    rank_start: usize,
    seed: u64,
) -> Vec<WildScript> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x09b19);
    let mut out = Vec::new();
    // Transformed npm scripts cluster in a few packages (§IV-B2: 15.14% of
    // Top-10k packages carry a transformed script while only 8.7% of
    // scripts are transformed; transformed packages tend to be completely
    // transformed).
    const INNER_RATE: f64 = 0.55;
    for pkg in 0..n_packages {
        let rank = rank_start + pkg;
        let mut model = npm_model(month, rank, &mut rng);
        let p_transformer = (model.transform_rate / INNER_RATE).min(1.0);
        model.transform_rate = if rng.gen_bool(p_transformer) { INNER_RATE } else { 0.004 };
        let n_scripts = rng.gen_range(2..6usize);
        for s in 0..n_scripts {
            let sseed = seed
                .wrapping_add((rank as u64) << 18)
                .wrapping_add(s as u64)
                .wrapping_add(month as u64 * 0x2000);
            out.push(make_script(&model, rank, sseed, &mut rng));
        }
    }
    out
}

// ---- malware ------------------------------------------------------------------

/// The three malware feeds of §IV-C.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MalwareSource {
    /// Kafeine DNC exploit kits (2015–2017).
    Dnc,
    /// Hynek Petrak collection (2015–2017).
    Hynek,
    /// BSI JScript-loaders (2017).
    Bsi,
}

impl MalwareSource {
    /// Display name.
    pub fn as_str(self) -> &'static str {
        match self {
            MalwareSource::Dnc => "DNC",
            MalwareSource::Hynek => "Hynek",
            MalwareSource::Bsi => "BSI",
        }
    }
}

/// Per-source malicious population model (paper §IV-C: identifier
/// obfuscation dominates at 25–37%, string obfuscation and aggressive
/// minification at 17–21%, DCI/CFF/global-array at 5–10%).
pub fn malware_model(source: MalwareSource, month: usize, rng: &mut StdRng) -> PopulationModel {
    // Waves make monthly rates jumpy.
    let jitter = 1.0 + rng.gen_range(-0.18..0.18);
    let (rate, min_simple_w): (f64, f64) = match source {
        MalwareSource::Dnc => (0.6594, 0.30),
        MalwareSource::Hynek => (0.7307, 0.12),
        MalwareSource::Bsi => (0.2893, 0.10),
    };
    let _ = month;
    let w = weights(&[
        (Technique::IdentifierObfuscation, 0.48),
        (Technique::StringObfuscation, 0.28),
        (Technique::MinificationAdvanced, 0.26),
        (Technique::MinificationSimple, min_simple_w),
        (Technique::DeadCodeInjection, 0.10),
        (Technique::ControlFlowFlattening, 0.09),
        (Technique::GlobalArray, 0.11),
        (Technique::DebugProtection, 0.035),
        (Technique::SelfDefending, 0.03),
    ]);
    PopulationModel {
        transform_rate: (rate * jitter).clamp(0.05, 0.95),
        weights: w,
        extra_rate: 0.6,
    }
}

/// Generates `n` malicious samples for one source and month. Samples come
/// in waves: syntactically identical payloads re-randomized per victim via
/// identifier obfuscation (§IV-C2).
pub fn malware_population(
    source: MalwareSource,
    month: usize,
    n: usize,
    seed: u64,
) -> Vec<WildScript> {
    let mut rng =
        StdRng::seed_from_u64(seed ^ 0x3a1 ^ ((source as u64) << 32) ^ ((month as u64) << 16));
    let model = malware_model(source, month, &mut rng);
    let mut out = Vec::new();
    let mut wave = 0usize;
    while out.len() < n {
        wave += 1;
        let wave_size = rng.gen_range(1..6usize).min(n - out.len());
        let base_seed = seed.wrapping_add((wave as u64) << 24).wrapping_add(month as u64);
        let base = RegularJsGenerator::new(base_seed).generate();
        let transformed = rng.gen_bool(model.transform_rate);
        let techniques = if transformed { model.sample_techniques(&mut rng) } else { Vec::new() };
        // §IV-C1: most malware the paper's manual analysis found to be
        // "regular-looking" still randomizes its variable names — but with
        // word-shaped names, so the syntactic structure stays regular.
        let slight_rename = !transformed && rng.gen_bool(0.57);
        // The wave broadcasts variants: same code, fresh identifier seeds.
        for v in 0..wave_size {
            let vseed = base_seed.wrapping_add(v as u64 * 7 + 1);
            if transformed {
                if let Ok(src) = apply(&base, &techniques, vseed) {
                    let mut truth = techniques.clone();
                    truth.sort();
                    out.push(WildScript { src, container: wave, truth });
                    continue;
                }
            } else if slight_rename {
                if let Some(src) = lightly_randomize_names(&base, vseed) {
                    out.push(WildScript { src, container: wave, truth: Vec::new() });
                    continue;
                }
            } else if rng.gen_bool(0.25) {
                // §IV-C1: a small, heavily obfuscated payload hidden inside
                // a much larger regular file — correctly classified regular
                // by the majority of its content.
                let payload_src = "var k = 'cmd'; var h = 'host'; run(h, k);";
                if let Ok(payload) = apply(
                    payload_src,
                    &[Technique::IdentifierObfuscation, Technique::StringObfuscation],
                    vseed,
                ) {
                    out.push(WildScript {
                        src: format!("{}\n{}", base, payload),
                        container: wave,
                        truth: Vec::new(),
                    });
                    continue;
                }
            }
            out.push(WildScript { src: base.clone(), container: wave, truth: Vec::new() });
        }
    }
    out.truncate(n);
    out
}

/// Renames local bindings to random word-shaped identifiers (the "SHA-1
/// unique per victim" wave trick of §IV-C1): unlike `_0x` hex names, these
/// keep the script's syntax looking regular.
fn lightly_randomize_names(src: &str, seed: u64) -> Option<String> {
    const SYLLABLES: &[&str] = &[
        "ba", "co", "da", "fe", "gi", "ho", "ja", "ke", "lu", "ma", "ne", "or", "pa", "qu", "ra",
        "se", "ti", "ul", "va", "we",
    ];
    let mut prog = jsdetect_parser::parse(src).ok()?;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1164f);
    let mut used = std::collections::HashSet::new();
    jsdetect_transform::rename::rename_bindings(&mut prog, &mut || loop {
        let n = rng.gen_range(2..4usize);
        let name: String = (0..n).map(|_| SYLLABLES[rng.gen_range(0..SYLLABLES.len())]).collect();
        if used.insert(name.clone()) {
            break name;
        }
    });
    Some(jsdetect_codegen::to_source(&prog))
}

// ---- modules ------------------------------------------------------------------

/// A module-flavoured wild population: modern ES-module bundles of the kind
/// CDNs ship as `<script type="module">` / `.mjs`. Kept out of the
/// calibrated populations above so their RNG streams stay byte-identical;
/// this population backs the syntax-conformance gate (the guarded pipeline
/// must analyze module-bearing scripts with a degraded rate of zero).
pub fn module_population(n: usize, seed: u64) -> Vec<WildScript> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xe50d);
    let mut out = Vec::new();
    for i in 0..n {
        let sseed = seed.wrapping_add((i as u64) << 16).wrapping_add(1);
        let base = RegularJsGenerator::new(sseed).generate_module();
        // Module bundles ship minified like any other wild script; the
        // import/export surface survives minification.
        if rng.gen_bool(0.35) {
            let technique = if rng.gen_bool(0.5) {
                Technique::MinificationSimple
            } else {
                Technique::MinificationAdvanced
            };
            if let Ok(src) = apply(&base, &[technique], sseed ^ 0x5eed) {
                out.push(WildScript { src, container: i, truth: vec![technique] });
                continue;
            }
        }
        out.push(WildScript { src: base, container: i, truth: Vec::new() });
    }
    out
}

// ---- shared -------------------------------------------------------------------

fn make_script(
    model: &PopulationModel,
    container: usize,
    sseed: u64,
    rng: &mut StdRng,
) -> WildScript {
    let base = RegularJsGenerator::new(sseed).generate();
    if rng.gen_bool(model.transform_rate) {
        let techniques = model.sample_techniques(rng);
        if let Ok(src) = apply(&base, &techniques, sseed ^ 0x5eed) {
            return WildScript { src, container, truth: techniques };
        }
    }
    WildScript { src: base, container, truth: Vec::new() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alexa_population_rates_roughly_match() {
        let pop = alexa_population(64, 60, 0, 1);
        let rate = pop.iter().filter(|s| s.is_transformed()).count() as f64 / pop.len() as f64;
        assert!((0.5..0.95).contains(&rate), "rate={}", rate);
        // Mostly minified.
        let minified =
            pop.iter().filter(|s| s.truth.iter().any(|t| t.is_minification())).count() as f64;
        let transformed = pop.iter().filter(|s| s.is_transformed()).count().max(1) as f64;
        assert!(minified / transformed > 0.75, "{}", minified / transformed);
    }

    #[test]
    fn alexa_rate_rises_over_time() {
        let early: f64 = (0..5)
            .map(|i| {
                let pop = alexa_population(0, 30, 0, i);
                pop.iter().filter(|s| s.is_transformed()).count() as f64 / pop.len() as f64
            })
            .sum::<f64>()
            / 5.0;
        let late: f64 = (0..5)
            .map(|i| {
                let pop = alexa_population(64, 30, 0, i);
                pop.iter().filter(|s| s.is_transformed()).count() as f64 / pop.len() as f64
            })
            .sum::<f64>()
            / 5.0;
        assert!(late > early, "early={} late={}", early, late);
    }

    #[test]
    fn npm_rate_much_lower_than_alexa() {
        let npm = npm_population(64, 80, 1_000, 3);
        let npm_rate = npm.iter().filter(|s| s.is_transformed()).count() as f64 / npm.len() as f64;
        assert!(npm_rate < 0.35, "npm rate={}", npm_rate);
    }

    #[test]
    fn npm_top_ranked_less_transformed() {
        let mut top = 0usize;
        let mut top_n = 0usize;
        let mut rest = 0usize;
        let mut rest_n = 0usize;
        for seed in 0..6 {
            let a = npm_population(40, 60, 0, seed);
            top += a.iter().filter(|s| s.is_transformed()).count();
            top_n += a.len();
            let b = npm_population(40, 60, 5_000, seed);
            rest += b.iter().filter(|s| s.is_transformed()).count();
            rest_n += b.len();
        }
        let top_rate = top as f64 / top_n as f64;
        let rest_rate = rest as f64 / rest_n as f64;
        assert!(rest_rate > top_rate * 1.5, "top={} rest={}", top_rate, rest_rate);
    }

    #[test]
    fn malware_sources_have_expected_ordering() {
        let rate = |src| {
            let mut t = 0usize;
            let mut n = 0usize;
            for month in [0usize, 10, 20] {
                let pop = malware_population(src, month, 40, 5);
                t += pop.iter().filter(|s| s.is_transformed()).count();
                n += pop.len();
            }
            t as f64 / n as f64
        };
        let dnc = rate(MalwareSource::Dnc);
        let hynek = rate(MalwareSource::Hynek);
        let bsi = rate(MalwareSource::Bsi);
        assert!(bsi < dnc, "bsi={} dnc={}", bsi, dnc);
        assert!(bsi < hynek, "bsi={} hynek={}", bsi, hynek);
    }

    #[test]
    fn malware_mix_dominated_by_identifier_obfuscation() {
        // Techniques are drawn per wave, so aggregate several populations
        // to average out wave clustering.
        let mut with_ident = 0usize;
        let mut with_string = 0usize;
        let mut transformed = 0usize;
        for month in 0..8 {
            let pop = malware_population(MalwareSource::Hynek, month, 60, 9 + month as u64);
            for s in pop.iter().filter(|s| s.is_transformed()) {
                transformed += 1;
                if s.truth.contains(&Technique::IdentifierObfuscation) {
                    with_ident += 1;
                }
                if s.truth.contains(&Technique::StringObfuscation) {
                    with_string += 1;
                }
            }
        }
        let ident_rate = with_ident as f64 / transformed.max(1) as f64;
        let string_rate = with_string as f64 / transformed.max(1) as f64;
        assert!(ident_rate > 0.3, "ident rate {} ({}/{})", ident_rate, with_ident, transformed);
        assert!(ident_rate > string_rate, "ident {} vs string {}", ident_rate, string_rate);
    }

    #[test]
    fn populations_parse() {
        for s in alexa_population(64, 10, 0, 2)
            .iter()
            .chain(npm_population(30, 10, 0, 2).iter())
            .chain(malware_population(MalwareSource::Dnc, 3, 10, 2).iter())
        {
            assert!(jsdetect_parser::parse(&s.src).is_ok());
        }
    }

    #[test]
    fn module_population_parses_as_modules() {
        // (60, 42) is `jsdetect-cli module-corpus`'s default population,
        // the one CI's syntax gate scans.
        for (n, seed) in [(20, 11), (60, 42)] {
            let pop = module_population(n, seed);
            assert_eq!(pop.len(), n);
            let mut minified = 0usize;
            for s in &pop {
                let prog = jsdetect_parser::parse(&s.src)
                    .unwrap_or_else(|e| panic!("unparseable module script ({:?}):\n{}", e, s.src));
                assert!(prog.module_goal(), "script lost its module goal:\n{}", s.src);
                if s.is_transformed() {
                    minified += 1;
                }
            }
            assert!(minified >= 2, "expected some minified module bundles, got {}", minified);
        }
    }

    #[test]
    fn module_population_deterministic() {
        let a = module_population(8, 77);
        let b = module_population(8, 77);
        assert!(a.iter().zip(&b).all(|(x, y)| x.src == y.src && x.truth == y.truth));
    }

    #[test]
    fn deterministic() {
        let a = alexa_population(10, 5, 0, 77);
        let b = alexa_population(10, 5, 0, 77);
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(&b).all(|(x, y)| x.src == y.src && x.truth == y.truth));
    }
}
