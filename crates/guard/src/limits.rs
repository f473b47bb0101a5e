//! Resource budget configuration with per-corpus presets.

use serde::{Deserialize, Serialize};

/// Caps on every resource axis one hostile script can burn.
///
/// All caps are *cooperative*: the analysis layers charge a shared
/// [`crate::Budget`] at their loop heads and bail with a typed
/// [`crate::AnalysisError`] when a cap is hit. A cap of `usize::MAX` /
/// `u64::MAX` / `u32::MAX` disables that axis; `deadline_ms == 0` disables
/// the wall-clock deadline.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Limits {
    /// Maximum input size in bytes, checked before any work runs.
    pub max_input_bytes: usize,
    /// Maximum number of tokens the lexer may produce (charged per token,
    /// including the parser's regex and template rescans).
    pub max_tokens: u64,
    /// Maximum parser recursion depth (the stack-overflow guard).
    pub max_ast_depth: u32,
    /// Maximum AST node count, checked after parse from tree metrics.
    pub max_ast_nodes: u64,
    /// Maximum control-flow edge count, checked after flow construction.
    pub max_cfg_edges: u64,
    /// Wall-clock deadline in milliseconds (fuel-metered, checked roughly
    /// every few thousand budget charges). `0` disables the deadline.
    pub deadline_ms: u64,
}

/// The parser's historical recursion cap; `trusted()` keeps it so legacy
/// entry points behave byte-for-byte as before the sandbox existed.
pub const LEGACY_MAX_DEPTH: u32 = 150;

impl Limits {
    /// Preset for wild-corpus scanning (Alexa/npm/malware scale): generous
    /// enough for any legitimate script, tight enough that one hostile file
    /// costs bounded time and memory.
    pub fn wild() -> Limits {
        Limits {
            max_input_bytes: 10 * 1024 * 1024,
            max_tokens: 2_000_000,
            max_ast_depth: LEGACY_MAX_DEPTH,
            max_ast_nodes: 4_000_000,
            max_cfg_edges: 1_000_000,
            deadline_ms: 10_000,
        }
    }

    /// Preset for trusted inputs (training corpora, fixtures): only the
    /// stack-overflow depth guard stays on, and results are deterministic
    /// (no wall-clock coupling). Training and the detectors' `predict*`
    /// methods analyze under it.
    pub fn trusted() -> Limits {
        Limits {
            max_input_bytes: usize::MAX,
            max_tokens: u64::MAX,
            max_ast_depth: LEGACY_MAX_DEPTH,
            max_ast_nodes: u64::MAX,
            max_cfg_edges: u64::MAX,
            deadline_ms: 0,
        }
    }

    /// Preset for interactive / latency-sensitive use (editor integrations,
    /// spot checks): small inputs, short deadline.
    pub fn interactive() -> Limits {
        Limits {
            max_input_bytes: 1024 * 1024,
            max_tokens: 300_000,
            max_ast_depth: 120,
            max_ast_nodes: 1_000_000,
            max_cfg_edges: 250_000,
            deadline_ms: 2_000,
        }
    }

    /// Every axis disabled, including the depth guard. Internal plumbing
    /// only — never feed untrusted input through unbounded limits.
    pub fn unbounded() -> Limits {
        Limits {
            max_input_bytes: usize::MAX,
            max_tokens: u64::MAX,
            max_ast_depth: u32::MAX,
            max_ast_nodes: u64::MAX,
            max_cfg_edges: u64::MAX,
            deadline_ms: 0,
        }
    }

    /// Looks a preset up by CLI name.
    pub fn from_name(name: &str) -> Option<Limits> {
        match name {
            "wild" => Some(Limits::wild()),
            "trusted" => Some(Limits::trusted()),
            "interactive" => Some(Limits::interactive()),
            _ => None,
        }
    }
}

impl Default for Limits {
    /// Defaults to [`Limits::wild`]: the safe choice when provenance is
    /// unknown.
    fn default() -> Limits {
        Limits::wild()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_resolve_by_name() {
        assert_eq!(Limits::from_name("wild"), Some(Limits::wild()));
        assert_eq!(Limits::from_name("trusted"), Some(Limits::trusted()));
        assert_eq!(Limits::from_name("interactive"), Some(Limits::interactive()));
        assert_eq!(Limits::from_name("nope"), None);
        assert_eq!(Limits::default(), Limits::wild());
    }

    #[test]
    fn trusted_keeps_only_the_depth_guard() {
        let t = Limits::trusted();
        assert_eq!(t.max_ast_depth, LEGACY_MAX_DEPTH);
        assert_eq!(t.max_tokens, u64::MAX);
        assert_eq!(t.deadline_ms, 0);
    }
}
