//! JavaScript code-transformation toolbox for the `jsdetect` suite.
//!
//! Implements, from scratch, the ten transformation techniques the paper
//! monitors (§II-C) plus the held-out Dean Edwards packer (§III-E3). The
//! techniques compose: [`apply`] takes a set of techniques and runs the
//! corresponding passes in a canonical order, mirroring how the paper
//! drives obfuscator.io / JSFuck / gnirts / custom-encoding /
//! javascript-minifier / Google Closure with specific configurations.
//!
//! # Examples
//!
//! ```
//! use jsdetect_transform::{apply, Technique};
//!
//! let src = "function greet(name) { return 'hello ' + name; } greet('world');";
//! let out = apply(src, &[Technique::IdentifierObfuscation], 42).unwrap();
//! assert!(out.contains("_0x"));
//! assert!(!out.contains("greet"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dead_code;
pub mod flatten;
pub mod global_array;
pub mod jsfuck;
pub mod minify;
pub mod namegen;
pub mod packer;
pub mod presets;
pub mod protection;
pub mod rename;
pub mod string_obf;

use jsdetect_codegen::{to_minified, to_source};
use jsdetect_obs::names;
use jsdetect_parser::{parse, ParseError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// The ten transformation techniques the paper monitors (§II-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Technique {
    /// Randomized variable/function names (`_0x3fa2`).
    IdentifierObfuscation,
    /// String splitting / reversing / encoding.
    StringObfuscation,
    /// Literals pooled into a global (rotated) array.
    GlobalArray,
    /// JSFuck-style `[]()!+` rewriting.
    NoAlphanumeric,
    /// Injected unreachable/unused code.
    DeadCodeInjection,
    /// `while(true)+switch` dispatch loops.
    ControlFlowFlattening,
    /// Anti-reformatting guard.
    SelfDefending,
    /// Anti-devtools `debugger` loops.
    DebugProtection,
    /// Whitespace removal + identifier shortening + dead-code removal.
    MinificationSimple,
    /// Closure-style folding, branch pruning, and compression shortcuts.
    MinificationAdvanced,
}

impl Technique {
    /// All techniques in canonical (label-index) order.
    pub const ALL: [Technique; 10] = [
        Technique::IdentifierObfuscation,
        Technique::StringObfuscation,
        Technique::GlobalArray,
        Technique::NoAlphanumeric,
        Technique::DeadCodeInjection,
        Technique::ControlFlowFlattening,
        Technique::SelfDefending,
        Technique::DebugProtection,
        Technique::MinificationSimple,
        Technique::MinificationAdvanced,
    ];

    /// Stable label index (0..10).
    pub fn index(self) -> usize {
        Technique::ALL.iter().position(|t| *t == self).unwrap()
    }

    /// Short machine-readable name.
    pub fn as_str(self) -> &'static str {
        match self {
            Technique::IdentifierObfuscation => "identifier_obfuscation",
            Technique::StringObfuscation => "string_obfuscation",
            Technique::GlobalArray => "global_array",
            Technique::NoAlphanumeric => "no_alphanumeric",
            Technique::DeadCodeInjection => "dead_code_injection",
            Technique::ControlFlowFlattening => "control_flow_flattening",
            Technique::SelfDefending => "self_defending",
            Technique::DebugProtection => "debug_protection",
            Technique::MinificationSimple => "minification_simple",
            Technique::MinificationAdvanced => "minification_advanced",
        }
    }

    /// Whether the technique is a minification technique (level-1 class
    /// *minified*); the rest are obfuscation techniques.
    pub fn is_minification(self) -> bool {
        matches!(self, Technique::MinificationSimple | Technique::MinificationAdvanced)
    }
}

impl std::fmt::Display for Technique {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Errors from the transformation pipeline.
#[derive(Debug)]
pub enum TransformError {
    /// The input (or an intermediate stage) failed to parse.
    Parse(ParseError),
    /// The no-alphanumeric encoder refused the input.
    Jsfuck(jsfuck::JsfuckError),
}

impl std::fmt::Display for TransformError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransformError::Parse(e) => write!(f, "transform parse error: {}", e),
            TransformError::Jsfuck(e) => write!(f, "transform jsfuck error: {}", e),
        }
    }
}

impl std::error::Error for TransformError {}

impl From<ParseError> for TransformError {
    fn from(e: ParseError) -> Self {
        TransformError::Parse(e)
    }
}

impl From<jsfuck::JsfuckError> for TransformError {
    fn from(e: jsfuck::JsfuckError) -> Self {
        TransformError::Jsfuck(e)
    }
}

/// Applies a set of techniques to `src` with a deterministic seed.
///
/// Passes run in a canonical order (injection → restructuring → data
/// obfuscation → renaming → guards → minification → layout → jsfuck) so
/// any combination composes sensibly; the order matches how the paper's
/// tools chain their own internal passes.
pub fn apply(src: &str, techniques: &[Technique], seed: u64) -> Result<String, TransformError> {
    let _t = jsdetect_obs::span(names::SPAN_TRANSFORM_APPLY);
    apply_passes(src, techniques, seed)
        .inspect_err(|_| jsdetect_obs::counter_add(names::CTR_TRANSFORM_FAILURES, 1))
}

fn apply_passes(src: &str, techniques: &[Technique], seed: u64) -> Result<String, TransformError> {
    use Technique::*;
    let has = |t: Technique| techniques.contains(&t);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut prog = parse(src)?;

    if has(DeadCodeInjection) {
        dead_code::inject_dead_code(&mut prog, &mut rng);
    }
    if has(ControlFlowFlattening) {
        flatten::flatten_control_flow(&mut prog, &mut rng);
    }
    if has(GlobalArray) {
        global_array::global_array(&mut prog, &mut rng);
    }
    if has(StringObfuscation) {
        string_obf::obfuscate_strings(
            &mut prog,
            &mut rng,
            &string_obf::StringObfOptions::default(),
        );
    }
    if has(MinificationAdvanced) {
        minify::minify_advanced(&mut prog);
    } else if has(MinificationSimple) {
        minify::minify_simple(&mut prog);
    }
    if has(IdentifierObfuscation) {
        let mut gen = namegen::HexNameGen::new(StdRng::seed_from_u64(seed ^ 0x1dea));
        rename::rename_bindings(&mut prog, &mut || gen.next_name());
    } else if has(MinificationSimple) || has(MinificationAdvanced) {
        let mut gen = namegen::ShortNameGen::new();
        rename::rename_bindings(&mut prog, &mut || gen.next_name());
    }
    if has(SelfDefending) {
        protection::inject_self_defending(&mut prog, &mut rng);
    }
    if has(DebugProtection) {
        protection::inject_debug_protection(&mut prog, &mut rng);
    }

    let compact = has(MinificationSimple)
        || has(MinificationAdvanced)
        || has(SelfDefending)
        || has(NoAlphanumeric);

    if has(NoAlphanumeric) {
        // JSFuck expands input several hundredfold, and real-world usage
        // encodes small payloads (droppers/loaders), not whole libraries.
        // Keep a statement prefix that fits the payload budget.
        shrink_to_budget(&mut prog, jsfuck::PAYLOAD_BUDGET);
        let out = to_minified(&prog);
        return Ok(jsfuck::JsfuckEncoder::default().encode_program(&out)?);
    }
    let out = if compact { to_minified(&prog) } else { to_source(&prog) };
    Ok(out)
}

/// Truncates a program to the leading statements whose compact printout
/// fits within `budget` bytes (at least one statement is kept).
fn shrink_to_budget(prog: &mut jsdetect_ast::Program, budget: usize) {
    while prog.body.len() > 1 && to_minified(prog).len() > budget {
        // Drop from the end; keep at least one statement.
        let keep = (prog.body.len() / 2).max(1);
        prog.body.truncate(keep);
    }
}

/// Applies the held-out Dean Edwards packer (minify + shorten + pack).
pub fn apply_packer(src: &str, seed: u64) -> Result<String, TransformError> {
    let minified = apply(src, &[Technique::MinificationSimple], seed)?;
    Ok(packer::pack(&minified))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
        function fibonacci(limit) {
            var sequence = [0, 1];
            for (var i = 2; i < limit; i++) {
                sequence.push(sequence[i - 1] + sequence[i - 2]);
            }
            return sequence;
        }
        var result = fibonacci(10);
        console.log('result: ' + result.join(', '));
    "#;

    #[test]
    fn every_single_technique_produces_parseable_output() {
        for t in Technique::ALL {
            let out = apply(SRC, &[t], 7).unwrap_or_else(|e| panic!("{}: {}", t, e));
            assert!(
                jsdetect_parser::parse(&out).is_ok(),
                "{} output does not reparse:\n{}",
                t,
                out
            );
        }
    }

    #[test]
    fn identifier_obfuscation_uses_hex_names() {
        let out = apply(SRC, &[Technique::IdentifierObfuscation], 1).unwrap();
        assert!(out.contains("_0x"));
        assert!(!out.contains("fibonacci"));
        assert!(out.contains("console"), "globals must stay");
    }

    #[test]
    fn minification_simple_shortens_and_compacts() {
        let out = apply(SRC, &[Technique::MinificationSimple], 1).unwrap();
        assert!(out.len() < SRC.len());
        assert!(!out.contains("fibonacci"));
        assert!(!out.contains('\n'));
    }

    #[test]
    fn minification_advanced_is_smaller_than_simple() {
        let src = "if (true) { a(); } else { b(); } var x = 1 + 2; var y = 2 * 3; c(); d();";
        let simple = apply(src, &[Technique::MinificationSimple], 1).unwrap();
        let adv = apply(src, &[Technique::MinificationAdvanced], 1).unwrap();
        assert!(adv.len() <= simple.len(), "simple: {} adv: {}", simple, adv);
    }

    #[test]
    fn no_alphanumeric_is_pure() {
        let out = apply("f(1);", &[Technique::NoAlphanumeric], 1).unwrap();
        assert!(out.chars().all(|c| jsfuck::ALPHABET.contains(&c)));
    }

    #[test]
    fn combined_techniques_compose() {
        let combos: &[&[Technique]] = &[
            &[Technique::IdentifierObfuscation, Technique::StringObfuscation],
            &[Technique::GlobalArray, Technique::MinificationSimple],
            &[Technique::DeadCodeInjection, Technique::ControlFlowFlattening],
            &[
                Technique::StringObfuscation,
                Technique::IdentifierObfuscation,
                Technique::MinificationAdvanced,
            ],
            &[Technique::SelfDefending, Technique::DebugProtection],
            &[Technique::MinificationSimple, Technique::NoAlphanumeric],
        ];
        for combo in combos {
            let out = apply(SRC, combo, 3).unwrap_or_else(|e| panic!("{:?}: {}", combo, e));
            assert!(
                jsdetect_parser::parse(&out).is_ok(),
                "combo {:?} does not reparse:\n{}",
                combo,
                out
            );
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let a = apply(SRC, &[Technique::StringObfuscation], 5).unwrap();
        let b = apply(SRC, &[Technique::StringObfuscation], 5).unwrap();
        let c = apply(SRC, &[Technique::StringObfuscation], 6).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn packer_wraps_with_eval() {
        let out = apply_packer(SRC, 1).unwrap();
        assert!(out.starts_with("eval(function(p,a,c,k,e,d)"));
        assert!(jsdetect_parser::parse(&out).is_ok());
    }

    #[test]
    fn technique_indices_are_stable() {
        for (i, t) in Technique::ALL.iter().enumerate() {
            assert_eq!(t.index(), i);
        }
    }

    #[test]
    fn error_display_formats() {
        let e = TransformError::Parse(jsdetect_parser::parse("var ;").unwrap_err());
        assert!(e.to_string().contains("parse error"));
        let e = TransformError::Jsfuck(jsfuck::JsfuckError::TooLarge { len: 9, limit: 4 });
        assert!(e.to_string().contains("9 bytes"));
        assert!(e.to_string().contains("4 byte"));
    }

    #[test]
    fn unparseable_input_is_an_error_not_a_panic() {
        for t in Technique::ALL {
            assert!(apply("var ;;; broken(", &[t], 1).is_err());
        }
        assert!(apply_packer("var ;;; broken(", 1).is_err());
    }

    #[test]
    fn minification_flags() {
        assert!(Technique::MinificationSimple.is_minification());
        assert!(Technique::MinificationAdvanced.is_minification());
        assert!(!Technique::GlobalArray.is_minification());
    }
}
