//! The shared cooperative budget one analysis charges as it runs.

use crate::{AnalysisError, Limits};
use std::cell::{Cell, RefCell};
use std::time::Instant;

/// How many budget charges elapse between wall-clock reads. `Instant::now`
/// costs ~20ns; amortized over a quantum it vanishes, while still bounding
/// deadline overshoot to a few thousand tokens of work.
const FUEL_QUANTUM: u64 = 4096;

/// Mutable budget state for one script analysis.
///
/// One `Budget` is created per script and threaded by shared reference
/// through lexer, parser, and the feature front-end; interior mutability
/// (`Cell`/`RefCell`) keeps the pipeline signatures `&Budget` without
/// borrow gymnastics. Deliberately **not** `Sync` — each worker thread
/// owns the budget of the script it is analyzing.
///
/// Every failed check both returns the typed error and records it as the
/// budget's *violation* (first violation wins). Layers that must keep a
/// legacy error type (the parser returns `ParseError`) downgrade the typed
/// error at the boundary; callers recover the precise cause afterwards via
/// [`Budget::take_violation`].
#[derive(Debug)]
pub struct Budget {
    limits: Limits,
    tokens: Cell<u64>,
    nodes: Cell<u64>,
    fuel: Cell<u64>,
    started: Instant,
    violation: RefCell<Option<AnalysisError>>,
}

impl Budget {
    /// Starts a fresh budget; the deadline clock begins now.
    pub fn new(limits: &Limits) -> Budget {
        Budget {
            limits: limits.clone(),
            tokens: Cell::new(0),
            nodes: Cell::new(0),
            fuel: Cell::new(FUEL_QUANTUM),
            started: Instant::now(),
            violation: RefCell::new(None),
        }
    }

    /// The limits this budget enforces.
    pub fn limits(&self) -> &Limits {
        &self.limits
    }

    /// Tokens charged so far: one running total over every token any lexer
    /// produced under this budget, parser-backtracking re-lexes and the
    /// degraded fallback's scan included.
    pub fn tokens_used(&self) -> u64 {
        self.tokens.get()
    }

    /// Rejects inputs over the byte cap before any work runs.
    pub fn check_input(&self, bytes: usize) -> Result<(), AnalysisError> {
        if bytes > self.limits.max_input_bytes {
            return Err(self.record(AnalysisError::InputTooLarge {
                bytes,
                limit: self.limits.max_input_bytes,
            }));
        }
        Ok(())
    }

    /// Charges `n` produced tokens and ticks the deadline clock.
    pub fn charge_tokens(&self, n: u64) -> Result<(), AnalysisError> {
        let total = self.tokens.get().saturating_add(n);
        self.tokens.set(total);
        if total > self.limits.max_tokens {
            return Err(
                self.record(AnalysisError::TokenBudgetExceeded { limit: self.limits.max_tokens })
            );
        }
        self.tick(n)
    }

    /// Checks a recursion depth against the AST depth cap.
    pub fn check_depth(&self, depth: u32) -> Result<(), AnalysisError> {
        if depth > self.limits.max_ast_depth {
            return Err(
                self.record(AnalysisError::AstDepthExceeded { limit: self.limits.max_ast_depth })
            );
        }
        Ok(())
    }

    /// Charges `n` AST nodes and ticks the deadline clock.
    pub fn charge_nodes(&self, n: u64) -> Result<(), AnalysisError> {
        let total = self.nodes.get().saturating_add(n);
        self.nodes.set(total);
        if total > self.limits.max_ast_nodes {
            return Err(self.record(AnalysisError::AstNodeBudgetExceeded {
                limit: self.limits.max_ast_nodes,
            }));
        }
        self.tick(n)
    }

    /// Checks a control-flow edge count against the CFG cap.
    pub fn check_cfg_edges(&self, edges: u64) -> Result<(), AnalysisError> {
        if edges > self.limits.max_cfg_edges {
            return Err(self.record(AnalysisError::CfgEdgeBudgetExceeded {
                limit: self.limits.max_cfg_edges,
            }));
        }
        Ok(())
    }

    /// Burns `cost` fuel; reads the wall clock once per exhausted quantum
    /// and fails when the deadline has passed. Call at loop heads whose
    /// per-iteration work is not already charged through another axis.
    pub fn tick(&self, cost: u64) -> Result<(), AnalysisError> {
        if self.limits.deadline_ms == 0 {
            return Ok(());
        }
        let fuel = self.fuel.get();
        if fuel > cost {
            self.fuel.set(fuel - cost);
            return Ok(());
        }
        self.fuel.set(FUEL_QUANTUM);
        if self.started.elapsed().as_millis() as u64 > self.limits.deadline_ms {
            return Err(
                self.record(AnalysisError::DeadlineExceeded { ms: self.limits.deadline_ms })
            );
        }
        Ok(())
    }

    /// Reads the wall clock immediately (no fuel amortization) and fails if
    /// the deadline has passed. Call between pipeline stages, where one
    /// forced clock read is cheap relative to the stage itself.
    pub fn check_deadline(&self) -> Result<(), AnalysisError> {
        if self.limits.deadline_ms == 0 {
            return Ok(());
        }
        if self.started.elapsed().as_millis() as u64 > self.limits.deadline_ms {
            return Err(
                self.record(AnalysisError::DeadlineExceeded { ms: self.limits.deadline_ms })
            );
        }
        Ok(())
    }

    /// Removes and returns the first recorded violation, if any. Used by
    /// callers to reclassify a downgraded legacy error (the parser's
    /// stringly `ParseError`) back to its precise typed cause.
    pub fn take_violation(&self) -> Option<AnalysisError> {
        self.violation.borrow_mut().take()
    }

    fn record(&self, e: AnalysisError) -> AnalysisError {
        let mut slot = self.violation.borrow_mut();
        if slot.is_none() {
            *slot = Some(e.clone());
        }
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_budget_boundary_is_exact() {
        let limits = Limits { max_tokens: 3, ..Limits::unbounded() };
        let b = Budget::new(&limits);
        assert!(b.charge_tokens(3).is_ok());
        assert_eq!(b.charge_tokens(1), Err(AnalysisError::TokenBudgetExceeded { limit: 3 }));
        // First violation sticks even after later failures.
        let _ = b.charge_tokens(1);
        assert_eq!(b.take_violation(), Some(AnalysisError::TokenBudgetExceeded { limit: 3 }));
        assert_eq!(b.take_violation(), None);
    }

    #[test]
    fn check_deadline_reads_clock_immediately() {
        let b = Budget::new(&Limits::unbounded());
        assert!(b.check_deadline().is_ok()); // disabled deadline never fires
        let limits = Limits { deadline_ms: 1, ..Limits::unbounded() };
        let b = Budget::new(&limits);
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert_eq!(b.check_deadline(), Err(AnalysisError::DeadlineExceeded { ms: 1 }));
    }

    #[test]
    fn depth_boundary_is_exact() {
        let limits = Limits { max_ast_depth: 5, ..Limits::unbounded() };
        let b = Budget::new(&limits);
        assert!(b.check_depth(5).is_ok());
        assert_eq!(b.check_depth(6), Err(AnalysisError::AstDepthExceeded { limit: 5 }));
    }

    #[test]
    fn node_and_edge_budgets_enforce() {
        let limits = Limits { max_ast_nodes: 10, max_cfg_edges: 2, ..Limits::unbounded() };
        let b = Budget::new(&limits);
        assert!(b.charge_nodes(10).is_ok());
        assert!(b.charge_nodes(1).is_err());
        let b2 = Budget::new(&limits);
        assert!(b2.check_cfg_edges(2).is_ok());
        assert_eq!(b2.check_cfg_edges(3), Err(AnalysisError::CfgEdgeBudgetExceeded { limit: 2 }));
    }

    #[test]
    fn zero_deadline_never_expires() {
        let b = Budget::new(&Limits::unbounded());
        for _ in 0..10 {
            assert!(b.tick(FUEL_QUANTUM).is_ok());
        }
    }

    #[test]
    fn elapsed_deadline_fails_within_one_quantum() {
        let limits = Limits { deadline_ms: 0, ..Limits::unbounded() };
        // deadline_ms == 0 disables; use 1ms and sleep past it instead.
        let limits = Limits { deadline_ms: 1, ..limits };
        let b = Budget::new(&limits);
        std::thread::sleep(std::time::Duration::from_millis(5));
        let mut failed = false;
        for _ in 0..3 {
            if b.tick(FUEL_QUANTUM).is_err() {
                failed = true;
                break;
            }
        }
        assert!(failed, "deadline should fire within one quantum after expiry");
        assert_eq!(b.take_violation(), Some(AnalysisError::DeadlineExceeded { ms: 1 }));
    }
}
