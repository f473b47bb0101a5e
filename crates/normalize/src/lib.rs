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
//! trips. A pass that ran with no rewrite is skipped until some pass
//! rewrites the tree again: a pass that finds nothing on a tree finds
//! nothing on it a second time (`tests/normalize.rs` pins this for every
//! pass), so a skip changes no output and no report. Three bounds keep
//! hostile input from looping the normalizer:
//!
//! - a **round cap** ([`NormalizeOptions::max_rounds`]),
//! - a **rewrite fuel** of 100 000 rewrites shared by all passes, and
//! - the wall-clock deadline of the caller's [`jsdetect_guard::Budget`],
//!   the same budget the rest of the script's analysis charges.
//!
//! A run takes the parsed tree by value and rewrites it in place; it
//! makes no copy. Every pass runs inside [`jsdetect_guard::isolate`], so
//! a panic in one pass degrades the outcome instead of tearing down the
//! caller: the half-rewritten tree is dropped and no tree is returned.
//! Callers that must fall back to the input keep its source text, which
//! is what they print or re-analyse anyway. Rewrites preserve the spans
//! of the nodes they replace, so downstream diagnostics still point into
//! the original source.
//!
//! Many scripts need no rewrite at all (37% of the benchmark's seed-7
//! `cold_scan` crawl, two thirds of its regular scripts). A caller can
//! tell from an `Ok` outcome with zero [`NormalizeReport::total_rewrites`]
//! that the returned tree is the input unchanged, without comparing trees.
//!
//! A run holds at most one scope tree of the program, valid until the
//! next rewrite. The caller may seed it with the input's tree (the
//! analysis front end has built one already); the constant and
//! array-inline passes build one only when the run holds none. The run
//! hands it back with the normalized program ([`Normalized::scopes`]),
//! so the caller's own analysis of the result need not build it again.
//!
//! # Examples
//!
//! ```
//! use jsdetect_flow::analyze_scopes;
//! use jsdetect_guard::{Budget, Limits};
//! use jsdetect_normalize::{normalize_program, NormalizeOptions};
//! # use jsdetect_ast::*;
//! # fn parse_fixture() -> Program { Program { body: vec![], span: Span::DUMMY } }
//!
//! let budget = Budget::new(&Limits::trusted());
//! let program = parse_fixture();
//! let scopes = analyze_scopes(&program);
//! let (normalized, report) =
//!     normalize_program(program, Some(&scopes), &NormalizeOptions::default(), &budget);
//! assert_eq!(report.outcome, jsdetect_guard::OutcomeKind::Ok);
//! assert_eq!(report.total_rewrites(), 0);
//! let normalized = normalized.unwrap();
//! assert_eq!(normalized.program, parse_fixture());
//! // Nothing was rewritten, so the seeded tree is still the program's.
//! assert!(normalized.scopes.is_some());
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
use jsdetect_flow::{analyze_scopes, ScopeTree};
use jsdetect_guard::{isolate, AnalysisError, Budget, OutcomeKind};
use jsdetect_obs::names;
use std::borrow::Cow;
use std::cell::{Cell, Ref, RefCell};

/// Total rewrite fuel shared by all passes across all rounds; running out
/// degrades the outcome.
const MAX_REWRITES: u64 = 100_000;

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
/// terminates. A run that returns 0 must leave the program as it was, and
/// a second run over that program must return 0 again: the driver skips a
/// pass that found nothing until another pass rewrites. Each rewrite is
/// paid for through [`PassCx::spend`], which enforces the shared rewrite
/// fuel.
pub trait Pass: Sync {
    /// Short stable name (also the `isolate` stage label).
    fn name(&self) -> &'static str;
    /// Telemetry counter receiving this pass's rewrite count.
    fn counter(&self) -> &'static str;
    /// Runs the pass once; returns the number of rewrites performed.
    fn run(&self, program: &mut Program, cx: &PassCx) -> u64;
}

/// Shared per-run context threaded through every pass: the guard budget
/// (deadline), the rewrite fuel and the program's scope tree.
pub struct PassCx<'a> {
    budget: &'a Budget,
    fuel: Cell<u64>,
    fuel_exhausted: Cell<bool>,
    error: RefCell<Option<AnalysisError>>,
    /// The program's scope tree, if the run holds one; the driver empties
    /// it whenever a pass rewrites the program.
    scopes: RefCell<Option<Cow<'a, ScopeTree>>>,
}

impl PassCx<'_> {
    /// The scope tree of `program`, which must be the program under
    /// rewrite: the one the run holds, else a new one, held until the
    /// next rewrite.
    pub(crate) fn scopes(&self, program: &Program) -> Ref<'_, ScopeTree> {
        if self.scopes.borrow().is_none() {
            jsdetect_obs::counter_add(names::CTR_NORMALIZE_SCOPE_ANALYSES, 1);
            self.scopes.replace(Some(Cow::Owned(analyze_scopes(program))));
        }
        Ref::map(self.scopes.borrow(), |s| s.as_deref().expect("filled above"))
    }

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
}

impl Default for NormalizeOptions {
    fn default() -> Self {
        NormalizeOptions { passes: PassKind::ALL.to_vec(), max_rounds: 8 }
    }
}

/// What a normalization run did.
#[derive(Debug, Clone, PartialEq)]
pub struct NormalizeReport {
    /// Fixpoint rounds executed (the last round performed zero rewrites
    /// unless a bound tripped first). A round counts whether its passes
    /// ran or were skipped as clean: a skipped pass counts as a pass that
    /// ran and rewrote nothing.
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
}

/// A normalized program and, when the run still holds one, its scope
/// tree.
#[derive(Debug)]
pub struct Normalized<'a> {
    /// The program, rewritten in place.
    pub program: Program,
    /// [`analyze_scopes`] of `program`, if the run holds it: the seed
    /// when nothing was rewritten, else a tree a pass built after the
    /// last rewrite.
    pub scopes: Option<Cow<'a, ScopeTree>>,
}

/// Drives the enabled passes to a fixpoint over `program`, rewriting it
/// in place, and returns it with the report.
///
/// `scopes`, when given, must be [`analyze_scopes`] of `program`; the run
/// then builds no scope tree until a pass rewrites the program.
///
/// The passes tick `budget`'s deadline clock; only that axis is charged
/// here (the structural axes were enforced at parse time). A deadline hit
/// degrades the run and stays recorded in `budget`.
///
/// When the report shows zero rewrites and an `Ok` outcome, the returned
/// program is `program` unchanged. A fuel or deadline cut degrades the
/// run but still returns a *valid* AST holding the partial rewrite (every
/// individual rewrite is atomic). A pass panic returns `None`: the
/// half-rewritten tree is dropped, and the report's error is
/// [`AnalysisError::StagePanicked`].
pub fn normalize_program<'s>(
    program: Program,
    scopes: Option<&'s ScopeTree>,
    opts: &NormalizeOptions,
    budget: &Budget,
) -> (Option<Normalized<'s>>, NormalizeReport) {
    let passes: Vec<&dyn Pass> = opts.passes.iter().map(|kind| kind.pass()).collect();
    run_passes(program, scopes, &passes, opts.max_rounds, budget)
}

/// The fixpoint loop behind [`normalize_program`], over explicit pass
/// instances.
fn run_passes<'s>(
    mut program: Program,
    seed: Option<&'s ScopeTree>,
    passes: &[&dyn Pass],
    max_rounds: u32,
    budget: &Budget,
) -> (Option<Normalized<'s>>, NormalizeReport) {
    let _span = jsdetect_obs::span(names::SPAN_NORMALIZE);
    let cx = PassCx {
        budget,
        fuel: Cell::new(MAX_REWRITES),
        fuel_exhausted: Cell::new(false),
        error: RefCell::new(None),
        scopes: RefCell::new(seed.map(Cow::Borrowed)),
    };
    let mut report = NormalizeReport {
        rounds: 0,
        rewrites: passes.iter().map(|p| (p.name(), 0u64)).collect(),
        fuel_exhausted: false,
        outcome: OutcomeKind::Ok,
        error: None,
    };

    // Whether each pass ran with no rewrite since the last rewrite.
    let mut clean = vec![false; passes.len()];
    let mut pass_runs = 0u64;
    'rounds: for _ in 0..max_rounds {
        report.rounds += 1;
        let mut round_rewrites = 0u64;
        for (i, pass) in passes.iter().enumerate() {
            if clean[i] {
                continue;
            }
            pass_runs += 1;
            match isolate(pass.name(), || pass.run(&mut program, &cx)) {
                Ok(n) => {
                    jsdetect_obs::counter_add(pass.counter(), n);
                    report.rewrites[i].1 += n;
                    round_rewrites += n;
                    if n == 0 {
                        clean[i] = true;
                    } else {
                        clean.fill(false);
                        cx.scopes.replace(None);
                    }
                }
                Err(e) => {
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
    jsdetect_obs::counter_add(names::CTR_NORMALIZE_PASS_RUNS, pass_runs);
    // A panicking pass may have left the tree half rewritten.
    let panicked = matches!(report.error, Some(AnalysisError::StagePanicked { .. }));
    // The one tree the slot ever borrows is the seed; it is handed back
    // with the caller's lifetime rather than the run's.
    let scopes = match cx.scopes.into_inner() {
        Some(Cow::Owned(tree)) => Some(Cow::Owned(tree)),
        Some(Cow::Borrowed(_)) => seed.map(Cow::Borrowed),
        None => None,
    };
    let normalized = (!panicked).then_some(Normalized { program, scopes });
    (normalized, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsdetect_codegen::to_minified;
    use jsdetect_guard::Limits;
    use jsdetect_parser::parse;
    use std::sync::atomic::{AtomicU32, Ordering};

    /// Normalizes `program` under trusted limits; no pass may panic.
    pub(crate) fn normalize(
        program: Program,
        opts: &NormalizeOptions,
    ) -> (Program, NormalizeReport) {
        let (p, report) = normalize_program(program, None, opts, &Budget::new(&Limits::trusted()));
        (p.expect("no pass panicked").program, report)
    }

    fn norm(src: &str) -> (String, NormalizeReport) {
        let (p, report) = normalize(parse(src).unwrap(), &NormalizeOptions::default());
        (to_minified(&p), report)
    }

    /// Statements that each fold ten `+`s: 10 010 rewrites per 1 001
    /// statements, so `MAX_REWRITES / 10 + 1` of them run out of fuel.
    fn fold_chain(statements: usize) -> String {
        "x = 1 + 2 + 3 + 4 + 5 + 6 + 7 + 8 + 9 + 10 + 11;\n".repeat(statements)
    }

    /// Does nothing in round 1; in round 2 it mangles the tree, then
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
        let at_cap = fold_chain(MAX_REWRITES as usize / 10);
        let (_, report) = normalize(parse(&at_cap).unwrap(), &NormalizeOptions::default());
        assert!(!report.fuel_exhausted);
        assert_eq!(report.outcome, OutcomeKind::Ok);
        assert_eq!(report.total_rewrites(), MAX_REWRITES);

        let src = fold_chain(MAX_REWRITES as usize / 10 + 1);
        let (_, report) = normalize(parse(&src).unwrap(), &NormalizeOptions::default());
        assert!(report.fuel_exhausted);
        assert_eq!(report.outcome, OutcomeKind::Degraded);
        assert_eq!(report.total_rewrites(), MAX_REWRITES);
    }

    #[test]
    fn report_counts_match_selected_passes() {
        let src = "x = (1, 2, f());";
        let opts =
            NormalizeOptions { passes: vec![PassKind::Sequence], ..NormalizeOptions::default() };
        let (_, report) = normalize(parse(src).unwrap(), &opts);
        assert_eq!(report.rewrites.len(), 1);
        assert_eq!(report.rewrites_for(PassKind::Constants), 0);
    }

    #[test]
    fn zero_rewrites_return_the_input_unchanged() {
        let parsed = parse("function f(a) { return a.b(c, 'd'); } f(x);").unwrap();
        let (out, report) = normalize(parsed.clone(), &NormalizeOptions::default());
        assert_eq!(report.total_rewrites(), 0);
        assert_eq!(report.outcome, OutcomeKind::Ok);
        assert_eq!(out, parsed);
    }

    #[test]
    fn a_panicking_pass_returns_no_tree() {
        // Round 1 folds `1 + 2`; the panic in round 2 leaves a mangled
        // tree, which must not escape.
        let input = parse("var k = 1 + 2; use(k);").unwrap();
        let panicking = PanicsInRoundTwo(AtomicU32::new(0));
        let passes: [&dyn Pass; 2] = [PassKind::Constants.pass(), &panicking];
        let budget = Budget::new(&Limits::trusted());
        let (out, report) = run_passes(input, None, &passes, 8, &budget);
        assert_eq!(report.rounds, 2);
        assert_eq!(report.outcome, OutcomeKind::Degraded);
        assert!(report.rewrites_for(PassKind::Constants) > 0);
        assert!(matches!(
            report.error,
            Some(AnalysisError::StagePanicked { stage: "panicking", .. })
        ));
        assert!(out.is_none());
    }

    #[test]
    fn fuel_cuts_are_not_rollbacks() {
        let parsed = parse(&fold_chain(MAX_REWRITES as usize / 10 + 1)).unwrap();
        let (p, report) = normalize(parsed.clone(), &NormalizeOptions::default());
        assert_eq!(report.outcome, OutcomeKind::Degraded);
        // The partial rewrite is kept, and it still prints and reparses.
        assert_ne!(p, parsed);
        let printed = to_minified(&p);
        assert!(parse(&printed).is_ok(), "{}", printed);
    }
}
