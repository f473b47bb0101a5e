//! Tool presets (paper §II-B).
//!
//! The paper builds its ground truth with six configurable tools; each
//! preset below reproduces one tool's behaviour as a technique set plus
//! options. The paper detects *techniques*, not tools — presets exist so
//! corpora can be generated "as tool X would have".

use crate::string_obf::{StringObfMode, StringObfOptions};
use crate::{apply, Technique, TransformError};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The transformation tools of paper §II-B.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tool {
    /// obfuscator.io with string-array + rotation + identifier renaming
    /// (its default-ish configuration; always emits compact output).
    ObfuscatorIo,
    /// obfuscator.io with control-flow flattening and dead-code injection
    /// enabled on top.
    ObfuscatorIoAggressive,
    /// JSFuck: the whole program in `[]()!+`.
    JsFuck,
    /// gnirts: string obfuscation without encoding escapes (splitting,
    /// reversing, `fromCharCode`).
    Gnirts,
    /// The paper's own custom-encoding string obfuscator (hex-encoded
    /// strings plus an injected decoder).
    CustomEncoding,
    /// javascript-minifier.com: basic minification.
    JavascriptMinifier,
    /// Google Closure: advanced optimizations.
    ClosureCompiler,
}

impl Tool {
    /// All presets.
    pub const ALL: [Tool; 7] = [
        Tool::ObfuscatorIo,
        Tool::ObfuscatorIoAggressive,
        Tool::JsFuck,
        Tool::Gnirts,
        Tool::CustomEncoding,
        Tool::JavascriptMinifier,
        Tool::ClosureCompiler,
    ];

    /// Display name.
    pub fn as_str(self) -> &'static str {
        match self {
            Tool::ObfuscatorIo => "obfuscator.io",
            Tool::ObfuscatorIoAggressive => "obfuscator.io (aggressive)",
            Tool::JsFuck => "jsfuck",
            Tool::Gnirts => "gnirts",
            Tool::CustomEncoding => "custom-encoding",
            Tool::JavascriptMinifier => "javascript-minifier",
            Tool::ClosureCompiler => "closure-compiler",
        }
    }

    /// The technique labels a sample produced by this tool carries
    /// (paper §II-C: the tool→technique mapping, including implied
    /// combinations).
    pub fn techniques(self) -> Vec<Technique> {
        use Technique::*;
        match self {
            Tool::ObfuscatorIo => {
                vec![GlobalArray, IdentifierObfuscation, MinificationSimple]
            }
            Tool::ObfuscatorIoAggressive => vec![
                GlobalArray,
                IdentifierObfuscation,
                ControlFlowFlattening,
                DeadCodeInjection,
                SelfDefending,
                MinificationSimple,
            ],
            Tool::JsFuck => vec![NoAlphanumeric],
            Tool::Gnirts => vec![StringObfuscation],
            Tool::CustomEncoding => vec![StringObfuscation],
            Tool::JavascriptMinifier => vec![MinificationSimple],
            Tool::ClosureCompiler => vec![MinificationAdvanced, MinificationSimple],
        }
    }

    /// Applies the preset to `src`.
    pub fn apply(self, src: &str, seed: u64) -> Result<String, TransformError> {
        match self {
            Tool::Gnirts => {
                // gnirts never encodes — it splits/reverses/charCodes.
                let mut prog = jsdetect_parser::parse(src)?;
                let mut rng = StdRng::seed_from_u64(seed);
                let opts = StringObfOptions {
                    modes: vec![
                        StringObfMode::Split,
                        StringObfMode::Reverse,
                        StringObfMode::FromCharCode,
                    ],
                    ..Default::default()
                };
                crate::string_obf::obfuscate_strings(&mut prog, &mut rng, &opts);
                Ok(jsdetect_codegen::to_source(&prog))
            }
            Tool::CustomEncoding => {
                let mut prog = jsdetect_parser::parse(src)?;
                let mut rng = StdRng::seed_from_u64(seed);
                let opts = StringObfOptions {
                    modes: vec![StringObfMode::EncodedCall],
                    ..Default::default()
                };
                crate::string_obf::obfuscate_strings(&mut prog, &mut rng, &opts);
                Ok(jsdetect_codegen::to_source(&prog))
            }
            _ => {
                let mut techniques = self.techniques();
                // `apply` treats MinificationSimple as the layout pass; the
                // label-only implication (advanced ⊃ simple) is redundant
                // there.
                if self == Tool::ClosureCompiler {
                    techniques.retain(|t| *t != Technique::MinificationSimple);
                }
                apply(src, &techniques, seed)
            }
        }
    }
}

/// An extra technique the paper *mentions but does not monitor*
/// (§II-A, §II-C: "obfuscated field reference"): every dot-notation
/// member access is rewritten to bracket notation
/// (`a.b` → `a['b']`). The level-1 detector is expected to flag such
/// samples as transformed even though level 2 has no label for them.
pub fn obfuscate_field_references(src: &str) -> Result<String, TransformError> {
    use jsdetect_ast::visit_mut::{walk_expr_mut, MutVisitor};
    use jsdetect_ast::{Expr, Lit, MemberProp};

    struct FieldRefs;
    impl MutVisitor for FieldRefs {
        fn visit_expr_mut(&mut self, e: &mut Expr) {
            walk_expr_mut(self, e);
            if let Expr::Member { property, .. } = e {
                if let MemberProp::Ident(id) = property {
                    let name = id.name;
                    *property = MemberProp::Computed(Box::new(Expr::Lit(Lit::str(name))));
                }
            }
        }
    }

    let mut prog = jsdetect_parser::parse(src)?;
    FieldRefs.visit_program_mut(&mut prog);
    Ok(jsdetect_codegen::to_source(&prog))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
        function renderBadge(user) {
            var label = 'member: ' + user.name;
            var badge = document.createElement('span');
            badge.textContent = label;
            return badge;
        }
        renderBadge({name: 'ada'});
    "#;

    #[test]
    fn all_presets_produce_parseable_output() {
        for tool in Tool::ALL {
            let out = tool.apply(SRC, 5).unwrap_or_else(|e| panic!("{}: {}", tool.as_str(), e));
            assert!(
                jsdetect_parser::parse(&out).is_ok(),
                "{} output does not reparse",
                tool.as_str()
            );
            assert_ne!(out.trim(), SRC.trim(), "{} was a no-op", tool.as_str());
        }
    }

    #[test]
    fn obfuscator_io_shape() {
        let out = Tool::ObfuscatorIo.apply(SRC, 5).unwrap();
        assert!(out.contains("_0x"), "{}", out);
        assert!(out.contains("parseInt"), "accessor missing: {}", out);
        assert!(!out.contains('\n'), "obfuscator.io output must be compact");
    }

    #[test]
    fn gnirts_never_injects_decoder() {
        let out = Tool::Gnirts.apply(SRC, 5).unwrap();
        assert!(!out.contains("substr"), "gnirts must not use the hex decoder: {}", out);
    }

    #[test]
    fn custom_encoding_injects_decoder() {
        let out = Tool::CustomEncoding.apply(SRC, 5).unwrap();
        assert!(out.contains("parseInt"), "{}", out);
        assert!(out.contains("fromCharCode"), "{}", out);
    }

    #[test]
    fn jsfuck_preset_pure() {
        let out = Tool::JsFuck.apply(SRC, 5).unwrap();
        assert!(out.chars().all(|c| "[]()!+".contains(c)));
    }

    #[test]
    fn closure_is_advanced_minification() {
        let out = Tool::ClosureCompiler.apply(SRC, 5).unwrap();
        assert!(out.len() < SRC.len());
        assert!(out.contains("!0") || out.contains("void 0") || !out.contains('\n'));
    }

    #[test]
    fn field_reference_rewrites_dots() {
        let out = obfuscate_field_references("a.b.c(d.e);").unwrap();
        assert_eq!(out.trim(), "a['b']['c'](d['e']);");
    }

    #[test]
    fn field_reference_leaves_keys_alone() {
        let out = obfuscate_field_references("var o = {key: 1}; o.key;").unwrap();
        assert!(out.contains("{key: 1}"), "{}", out);
        assert!(out.contains("o['key']"), "{}", out);
    }

    #[test]
    fn tool_technique_labels_match_monitored_set() {
        for tool in Tool::ALL {
            for t in tool.techniques() {
                assert!(Technique::ALL.contains(&t));
            }
        }
    }
}
