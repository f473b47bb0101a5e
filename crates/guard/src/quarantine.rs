//! Per-file outcome accounting and the quarantine JSONL export.

use crate::AnalysisError;

/// The three-way verdict every scanned file receives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutcomeKind {
    /// Full analysis succeeded; the feature vector is the real thing.
    Ok,
    /// Parse (or a later stage) failed but the lexer-only fallback vector
    /// was emitted, flagged by the feature payload's `degraded` bit.
    Degraded,
    /// A resource budget was blown or a stage panicked; nothing usable was
    /// produced beyond the error record itself.
    Rejected,
}

impl OutcomeKind {
    /// Stable lowercase tag used in JSONL records and CLI summaries.
    pub fn as_str(self) -> &'static str {
        match self {
            OutcomeKind::Ok => "ok",
            OutcomeKind::Degraded => "degraded",
            OutcomeKind::Rejected => "rejected",
        }
    }
}

/// One file's verdict for the quarantine report.
#[derive(Debug, Clone)]
pub struct QuarantineRecord {
    /// File path (or synthetic label) the outcome belongs to.
    pub file: String,
    /// Three-way verdict.
    pub outcome: OutcomeKind,
    /// Machine-readable error kind (absent for `Ok`). Owned rather than
    /// `&'static` so replayed verdicts (e.g. from the analysis cache) can
    /// carry kinds that were deserialized, not freshly matched.
    pub error_kind: Option<String>,
    /// Human-readable error rendering (absent for `Ok`).
    pub error: Option<String>,
}

/// Accumulates per-file outcomes across a batch and exports them as JSONL.
#[derive(Debug, Default, Clone)]
pub struct QuarantineReport {
    records: Vec<QuarantineRecord>,
}

impl QuarantineReport {
    /// An empty report.
    pub fn new() -> QuarantineReport {
        QuarantineReport::default()
    }

    /// Records one file's outcome.
    pub fn push(
        &mut self,
        file: impl Into<String>,
        outcome: OutcomeKind,
        error: Option<&AnalysisError>,
    ) {
        self.records.push(QuarantineRecord {
            file: file.into(),
            outcome,
            error_kind: error.map(|e| e.kind().to_string()),
            error: error.map(|e| e.to_string()),
        });
    }

    /// Records one file's outcome from already-rendered error fields, as
    /// batch verdicts and cache records carry them (the kind tag and the
    /// message, not the structured [`AnalysisError`]). Empty strings mean
    /// "no error". Renders the same JSONL as [`QuarantineReport::push`]
    /// with the structured error.
    pub fn push_replayed(
        &mut self,
        file: impl Into<String>,
        outcome: OutcomeKind,
        error_kind: &str,
        error: &str,
    ) {
        self.records.push(QuarantineRecord {
            file: file.into(),
            outcome,
            error_kind: (!error_kind.is_empty()).then(|| error_kind.to_string()),
            error: (!error.is_empty()).then(|| error.to_string()),
        });
    }

    /// All records, in push order.
    pub fn records(&self) -> &[QuarantineRecord] {
        &self.records
    }

    /// `(ok, degraded, rejected)` counts.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for r in &self.records {
            match r.outcome {
                OutcomeKind::Ok => c.0 += 1,
                OutcomeKind::Degraded => c.1 += 1,
                OutcomeKind::Rejected => c.2 += 1,
            }
        }
        c
    }

    /// Per-error-kind counts (sorted by kind), for summary tables.
    pub fn error_kind_counts(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = Vec::new();
        for r in &self.records {
            let Some(kind) = &r.error_kind else { continue };
            match out.iter_mut().find(|(k, _)| k == kind) {
                Some((_, n)) => *n += 1,
                None => out.push((kind.clone(), 1)),
            }
        }
        out.sort();
        out
    }

    /// Renders the report as JSONL, one object per file:
    /// `{"file":…,"outcome":"ok"|"degraded"|"rejected","error_kind":…,"error":…}`.
    /// `error_kind`/`error` are `null` for `Ok` outcomes. Escaping is
    /// hand-rolled so the guard crate stays dependency-free beyond serde.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str("{\"file\":\"");
            escape_json_into(&r.file, &mut out);
            out.push_str("\",\"outcome\":\"");
            out.push_str(r.outcome.as_str());
            out.push_str("\",\"error_kind\":");
            match &r.error_kind {
                Some(k) => {
                    out.push('"');
                    escape_json_into(k, &mut out);
                    out.push('"');
                }
                None => out.push_str("null"),
            }
            out.push_str(",\"error\":");
            match &r.error {
                Some(e) => {
                    out.push('"');
                    escape_json_into(e, &mut out);
                    out.push('"');
                }
                None => out.push_str("null"),
            }
            out.push_str("}\n");
        }
        out
    }
}

fn escape_json_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_kinds_aggregate() {
        let mut q = QuarantineReport::new();
        q.push("a.js", OutcomeKind::Ok, None);
        q.push(
            "b.js",
            OutcomeKind::Degraded,
            Some(&AnalysisError::Parse { msg: "bad".into(), pos: 3 }),
        );
        q.push(
            "c.js",
            OutcomeKind::Rejected,
            Some(&AnalysisError::AstDepthExceeded { limit: 150 }),
        );
        q.push(
            "d.js",
            OutcomeKind::Rejected,
            Some(&AnalysisError::AstDepthExceeded { limit: 150 }),
        );
        assert_eq!(q.counts(), (1, 1, 2));
        assert_eq!(
            q.error_kind_counts(),
            vec![("ast_depth_exceeded".to_string(), 2), ("parse_error".to_string(), 1)]
        );
    }

    #[test]
    fn jsonl_escapes_and_nulls() {
        let mut q = QuarantineReport::new();
        q.push("we\"ird\npath.js", OutcomeKind::Ok, None);
        q.push(
            "b.js",
            OutcomeKind::Rejected,
            Some(&AnalysisError::StagePanicked { stage: "flow", detail: "tab\there".into() }),
        );
        let jsonl = q.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"file\":\"we\\\"ird\\npath.js\",\"outcome\":\"ok\",\"error_kind\":null,\"error\":null}"
        );
        assert!(lines[1].contains("\"error_kind\":\"stage_panicked\""));
        assert!(lines[1].contains("tab\\there"));
    }

    #[test]
    fn rendered_and_structured_errors_export_identically() {
        let e = AnalysisError::Parse { msg: "unexpected \"=\"".into(), pos: 7 };
        let (mut structured, mut rendered) = (QuarantineReport::new(), QuarantineReport::new());
        structured.push("a.js", OutcomeKind::Ok, None);
        rendered.push_replayed("a.js", OutcomeKind::Ok, "", "");
        structured.push("b.js", OutcomeKind::Degraded, Some(&e));
        rendered.push_replayed("b.js", OutcomeKind::Degraded, e.kind(), &e.to_string());
        assert_eq!(structured.to_jsonl(), rendered.to_jsonl());
    }
}
