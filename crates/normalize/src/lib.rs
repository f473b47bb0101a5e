//! `jsdetect-normalize`: a static deobfuscation pass suite over the shared
//! AST.
//!
//! The detector reads features off source *as shipped*; this crate attacks
//! the same corpus from the inverse direction (compiler-style
//! simplification, cf. "Optimizing Away JavaScript Obfuscation") and undoes
//! the mechanical layers our own `transform` crate models: constant
//! folding with single-assignment propagation, string-concat collapsing,
//! global-string-array inlining, dead-branch elimination, and comma
//! sequence unflattening.
//!
//! Passes are driven to a fixpoint: each round runs every enabled pass
//! once, and rounds repeat until no pass rewrites anything or a bound
//! trips. Three bounds keep hostile input from looping the normalizer:
//!
//! - a **round cap** ([`NormalizeOptions::max_rounds`]),
//! - a **rewrite fuel** shared by all passes
//!   ([`NormalizeOptions::max_rewrites`]), and
//! - the usual [`jsdetect_guard::Budget`] wall-clock deadline from
//!   [`NormalizeOptions::limits`].
//!
//! A run borrows the input and rewrites a single working copy, the only
//! clone it makes. Every pass runs inside [`jsdetect_guard::isolate`], so
//! a panic in one pass degrades the outcome instead of tearing down the
//! caller: the half-rewritten copy is dropped and the result is a fresh
//! copy of the input. A panic thus rolls back to the input, not to the
//! last good round, which is what lets a run skip a snapshot per round.
//! Rewrites preserve the spans of the nodes they replace, so downstream
//! diagnostics still point into the original source.
//!
//! Many scripts need no rewrite at all (37% of the benchmark's seed-7
//! `cold_scan` crawl, two thirds of its regular scripts). A caller can
//! tell from an `Ok` outcome with zero [`NormalizeReport::total_rewrites`]
//! that the result equals the input, without comparing trees.
//!
//! # Examples
//!
//! ```
//! use jsdetect_normalize::{normalize_program, NormalizeOptions};
//! # use jsdetect_ast::*;
//! # fn parse_fixture() -> Program { Program { body: vec![], span: Span::DUMMY } }
//!
//! let input = parse_fixture();
//! let (normalized, report) = normalize_program(&input, &NormalizeOptions::default());
//! assert_eq!(report.outcome, jsdetect_guard::OutcomeKind::Ok);
//! assert_eq!(normalized, input);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod array_inline;
mod concat;
mod constants;
mod dead_branch;
mod eval;
mod sequence;

use jsdetect_ast::Program;
use jsdetect_guard::{isolate, AnalysisError, Budget, Limits, OutcomeKind};
use jsdetect_obs::names;
use std::cell::{Cell, RefCell};

/// The individual passes, in their canonical execution order.
///
/// Order matters within a round: propagation and folding
/// ([`PassKind::Constants`]) expose literals that concat collapsing and
/// dead-branch elimination consume, and array inlining produces string
/// literals the next round's constant pass can propagate further.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PassKind {
    /// Constant folding plus single-assignment constant propagation.
    Constants,
    /// String concatenation / decoder-chain collapsing.
    StringConcat,
    /// Global string array inlining (undoes `transform::global_array`).
    ArrayInline,
    /// Dead-branch elimination on constant conditions.
    DeadBranch,
    /// Comma-sequence unflattening in statement position.
    Sequence,
}

impl PassKind {
    /// All passes in canonical order.
    pub const ALL: [PassKind; 5] = [
        PassKind::Constants,
        PassKind::StringConcat,
        PassKind::ArrayInline,
        PassKind::DeadBranch,
        PassKind::Sequence,
    ];

    /// Stable machine name (used by `--passes` on the CLI).
    pub fn as_str(self) -> &'static str {
        match self {
            PassKind::Constants => "constants",
            PassKind::StringConcat => "string-concat",
            PassKind::ArrayInline => "array-inline",
            PassKind::DeadBranch => "dead-branch",
            PassKind::Sequence => "sequence",
        }
    }

    /// Parses a machine name back into a pass kind.
    pub fn from_name(name: &str) -> Option<PassKind> {
        PassKind::ALL.into_iter().find(|p| p.as_str() == name)
    }

    /// The shared static pass instance.
    pub fn pass(self) -> &'static dyn Pass {
        match self {
            PassKind::Constants => &constants::ConstantsPass,
            PassKind::StringConcat => &concat::StringConcatPass,
            PassKind::ArrayInline => &array_inline::ArrayInlinePass,
            PassKind::DeadBranch => &dead_branch::DeadBranchPass,
            PassKind::Sequence => &sequence::SequencePass,
        }
    }
}

/// One rewrite pass over the program.
///
/// A pass mutates the program in place and returns how many rewrites it
/// performed. Passes must be *reducing*: a rewrite may enable another pass
/// but must never reintroduce the shape it removed, so the fixpoint loop
/// terminates. Each rewrite is paid for through [`PassCx::spend`], which
/// enforces the shared rewrite fuel.
pub trait Pass: Sync {
    /// Short stable name (also the `isolate` stage label).
    fn name(&self) -> &'static str;
    /// Telemetry counter receiving this pass's rewrite count.
    fn counter(&self) -> &'static str;
    /// Runs the pass once; returns the number of rewrites performed.
    fn run(&self, program: &mut Program, cx: &PassCx) -> u64;
}

/// Shared per-run context threaded through every pass: the guard budget
/// (deadline) and the rewrite fuel.
pub struct PassCx<'a> {
    budget: &'a Budget,
    fuel: Cell<u64>,
    fuel_exhausted: Cell<bool>,
    error: RefCell<Option<AnalysisError>>,
}

impl PassCx<'_> {
    /// Pays for one rewrite. Returns `false` once the fuel is exhausted or
    /// a budget violation occurred; passes must then stop rewriting (they
    /// may keep traversing — traversal itself is bounded by the AST).
    pub fn spend(&self) -> bool {
        if self.error.borrow().is_some() {
            return false;
        }
        let fuel = self.fuel.get();
        if fuel == 0 {
            self.fuel_exhausted.set(true);
            return false;
        }
        self.fuel.set(fuel - 1);
        true
    }

    /// Ticks the guard deadline clock; call at traversal loop heads. The
    /// violation (if any) is latched and surfaces in the report.
    pub fn tick(&self, cost: u64) {
        if let Err(e) = self.budget.tick(cost) {
            let mut slot = self.error.borrow_mut();
            if slot.is_none() {
                *slot = Some(e);
            }
        }
    }

    /// Whether the run is still healthy (no fuel exhaustion, no violation).
    pub fn healthy(&self) -> bool {
        !self.fuel_exhausted.get() && self.error.borrow().is_none()
    }
}

/// Options controlling a normalization run.
#[derive(Debug, Clone)]
pub struct NormalizeOptions {
    /// Passes to run, in order, each round.
    pub passes: Vec<PassKind>,
    /// Maximum fixpoint rounds before giving up (not a degradation: the
    /// program is simply normalized as far as the cap allows).
    pub max_rounds: u32,
    /// Total rewrite fuel shared by all passes across all rounds; running
    /// out degrades the outcome.
    pub max_rewrites: u64,
    /// Guard limits; only the deadline axis is charged by the normalizer
    /// itself (structural axes were already enforced at parse time).
    pub limits: Limits,
}

impl Default for NormalizeOptions {
    fn default() -> Self {
        NormalizeOptions {
            passes: PassKind::ALL.to_vec(),
            max_rounds: 8,
            max_rewrites: 100_000,
            limits: Limits::trusted(),
        }
    }
}

impl NormalizeOptions {
    /// Options for untrusted input: wild guard limits, same pass suite.
    pub fn wild() -> Self {
        NormalizeOptions { limits: Limits::wild(), ..NormalizeOptions::default() }
    }
}

/// What a normalization run did.
#[derive(Debug, Clone, PartialEq)]
pub struct NormalizeReport {
    /// Fixpoint rounds executed (the last round performed zero rewrites
    /// unless a bound tripped first).
    pub rounds: u32,
    /// Per-pass rewrite totals, in pass order.
    pub rewrites: Vec<(&'static str, u64)>,
    /// Whether the shared rewrite fuel ran out.
    pub fuel_exhausted: bool,
    /// `Ok` for a clean fixpoint (or round-cap) run, `Degraded` when fuel,
    /// deadline, or a pass panic cut the run short. Never `Rejected`: the
    /// input program was already accepted by the parser.
    pub outcome: OutcomeKind,
    /// The violation or panic that degraded the run, if any.
    pub error: Option<AnalysisError>,
}

impl NormalizeReport {
    /// Total rewrites across all passes.
    pub fn total_rewrites(&self) -> u64 {
        self.rewrites.iter().map(|(_, n)| n).sum()
    }

    /// Rewrites performed by one pass (0 if the pass did not run).
    pub fn rewrites_for(&self, pass: PassKind) -> u64 {
        self.rewrites.iter().find(|(name, _)| *name == pass.as_str()).map(|(_, n)| *n).unwrap_or(0)
    }

    /// Whether a pass panicked, so the returned program is a copy of the
    /// input and every rewrite was discarded.
    pub fn rolled_back(&self) -> bool {
        matches!(self.error, Some(AnalysisError::StagePanicked { .. }))
    }
}

/// Drives the enabled passes to a fixpoint over a copy of `input` and
/// returns the normalized copy with the report.
///
/// `input` is cloned exactly once. When the report shows zero rewrites and
/// an `Ok` outcome, the returned program equals `input`. On a degraded
/// outcome the returned program is still a *valid* AST: a fuel or deadline
/// cut keeps the partial rewrite (every individual rewrite is atomic),
/// while a pass panic discards the working copy and returns a fresh copy
/// of the input ([`NormalizeReport::rolled_back`]).
pub fn normalize_program(input: &Program, opts: &NormalizeOptions) -> (Program, NormalizeReport) {
    let passes: Vec<&dyn Pass> = opts.passes.iter().map(|kind| kind.pass()).collect();
    run_passes(input, &passes, opts)
}

/// The fixpoint loop behind [`normalize_program`], over explicit pass
/// instances (`opts.passes` is ignored).
fn run_passes(
    input: &Program,
    passes: &[&dyn Pass],
    opts: &NormalizeOptions,
) -> (Program, NormalizeReport) {
    let _span = jsdetect_obs::span(names::SPAN_NORMALIZE);
    let budget = Budget::new(&opts.limits);
    let cx = PassCx {
        budget: &budget,
        fuel: Cell::new(opts.max_rewrites),
        fuel_exhausted: Cell::new(false),
        error: RefCell::new(None),
    };
    let mut report = NormalizeReport {
        rounds: 0,
        rewrites: passes.iter().map(|p| (p.name(), 0u64)).collect(),
        fuel_exhausted: false,
        outcome: OutcomeKind::Ok,
        error: None,
    };
    let mut program = input.clone();

    'rounds: for _ in 0..opts.max_rounds {
        report.rounds += 1;
        let mut round_rewrites = 0u64;
        for (i, pass) in passes.iter().enumerate() {
            match isolate(pass.name(), || pass.run(&mut program, &cx)) {
                Ok(n) => {
                    jsdetect_obs::counter_add(pass.counter(), n);
                    report.rewrites[i].1 += n;
                    round_rewrites += n;
                }
                Err(e) => {
                    // A panicking pass may have left the copy half
                    // rewritten; start over from the input.
                    program = input.clone();
                    report.outcome = OutcomeKind::Degraded;
                    report.error = Some(e);
                    break 'rounds;
                }
            }
            if !cx.healthy() {
                break 'rounds;
            }
        }
        if round_rewrites == 0 {
            break;
        }
    }

    report.fuel_exhausted = cx.fuel_exhausted.get();
    if report.fuel_exhausted {
        jsdetect_obs::counter_add(names::CTR_NORMALIZE_FUEL_EXHAUSTED, 1);
        report.outcome = OutcomeKind::Degraded;
    }
    if let Some(e) = cx.error.borrow_mut().take() {
        report.outcome = OutcomeKind::Degraded;
        report.error.get_or_insert(e);
    }
    jsdetect_obs::counter_add(names::CTR_NORMALIZE_FIXPOINT_ROUNDS, u64::from(report.rounds));
    (program, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsdetect_codegen::to_minified;
    use jsdetect_parser::parse;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn norm(src: &str) -> (String, NormalizeReport) {
        let (p, report) = normalize_program(&parse(src).unwrap(), &NormalizeOptions::default());
        (to_minified(&p), report)
    }

    /// Does nothing in round 1; in round 2 it mangles the copy, then
    /// panics.
    struct PanicsInRoundTwo(AtomicU32);

    impl Pass for PanicsInRoundTwo {
        fn name(&self) -> &'static str {
            "panicking"
        }
        fn counter(&self) -> &'static str {
            "normalize/panicking"
        }
        fn run(&self, program: &mut Program, _cx: &PassCx) -> u64 {
            if self.0.fetch_add(1, Ordering::Relaxed) == 0 {
                return 0;
            }
            program.body.clear();
            panic!("pass bug");
        }
    }

    #[test]
    fn pass_names_roundtrip() {
        for p in PassKind::ALL {
            assert_eq!(PassKind::from_name(p.as_str()), Some(p));
            assert_eq!(p.pass().name(), p.as_str());
            assert!(p.pass().counter().starts_with("normalize/"));
        }
        assert_eq!(PassKind::from_name("nope"), None);
    }

    #[test]
    fn trivial_program_reaches_fixpoint_in_one_round() {
        let (out, report) = norm("var x = f(1);");
        assert_eq!(out, "var x=f(1);");
        assert_eq!(report.rounds, 1);
        assert_eq!(report.total_rewrites(), 0);
        assert_eq!(report.outcome, OutcomeKind::Ok);
    }

    #[test]
    fn passes_cascade_across_rounds() {
        // Propagation feeds folding feeds dead-branch elimination.
        let src = "var k = 'a'; if (k === 'b') { evil(); } else { good(); }";
        let (out, report) = norm(src);
        assert!(!out.contains("evil"), "{}", out);
        assert!(out.contains("good()"), "{}", out);
        assert_eq!(report.outcome, OutcomeKind::Ok);
        assert!(report.rounds >= 2, "cascade requires at least two rounds");
    }

    #[test]
    fn fuel_exhaustion_degrades_instead_of_looping() {
        let src = "var a = 1 + 2; var b = 3 + 4; var c = 5 + 6; var d = 'x' + 'y';";
        let opts = NormalizeOptions { max_rewrites: 2, ..NormalizeOptions::default() };
        let (p, report) = normalize_program(&parse(src).unwrap(), &opts);
        assert!(report.fuel_exhausted);
        assert_eq!(report.outcome, OutcomeKind::Degraded);
        assert!(report.total_rewrites() <= 2);
        // The partially rewritten program still prints and reparses.
        let printed = to_minified(&p);
        assert!(parse(&printed).is_ok(), "{}", printed);
    }

    #[test]
    fn report_counts_match_selected_passes() {
        let src = "x = (1, 2, f());";
        let opts =
            NormalizeOptions { passes: vec![PassKind::Sequence], ..NormalizeOptions::default() };
        let (_, report) = normalize_program(&parse(src).unwrap(), &opts);
        assert_eq!(report.rewrites.len(), 1);
        assert_eq!(report.rewrites_for(PassKind::Constants), 0);
    }

    #[test]
    fn zero_rewrites_return_the_input_unchanged() {
        let input = parse("function f(a) { return a.b(c, 'd'); } f(x);").unwrap();
        let (out, report) = normalize_program(&input, &NormalizeOptions::default());
        assert_eq!(report.total_rewrites(), 0);
        assert_eq!(report.outcome, OutcomeKind::Ok);
        assert_eq!(out, input);
    }

    #[test]
    fn a_panicking_pass_rolls_back_to_the_input() {
        // Round 1 folds `1 + 2`, so the last good round's tree differs
        // from the input; the panic in round 2 must still return the input.
        let input = parse("var k = 1 + 2; use(k);").unwrap();
        let panicking = PanicsInRoundTwo(AtomicU32::new(0));
        let passes: [&dyn Pass; 2] = [PassKind::Constants.pass(), &panicking];
        let (out, report) = run_passes(&input, &passes, &NormalizeOptions::default());
        assert_eq!(report.rounds, 2);
        assert_eq!(report.outcome, OutcomeKind::Degraded);
        assert!(report.rolled_back());
        assert!(report.rewrites_for(PassKind::Constants) > 0);
        assert!(matches!(
            report.error,
            Some(AnalysisError::StagePanicked { stage: "panicking", .. })
        ));
        assert_eq!(out, input);
    }

    #[test]
    fn fuel_cuts_are_not_rollbacks() {
        let src = "var a = 1 + 2; var b = 3 + 4;";
        let opts = NormalizeOptions { max_rewrites: 1, ..NormalizeOptions::default() };
        let (_, report) = normalize_program(&parse(src).unwrap(), &opts);
        assert_eq!(report.outcome, OutcomeKind::Degraded);
        assert!(!report.rolled_back());
    }
}
