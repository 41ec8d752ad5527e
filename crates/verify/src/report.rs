//! Diagnostics: what a verification pass reports and how a whole run is
//! summarized.

use std::fmt;

/// Which analyzer produced a diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pass {
    /// Scoping, procedure resolution, arity agreement (pass 1).
    WellFormed,
    /// The closure-shape abstract interpretation (pass 2).
    ClosureShape,
    /// The language-preservation certificate over concrete syntax
    /// (pass 3).
    Preservation,
    /// Heuristic residual-quality lints (pass 4).
    Lint,
    /// The Unmix binding-time congruence audit (pass 5).
    BtaCongruence,
    /// The arm lint: dispatch arms pe-flow's label analysis decides,
    /// which the flow optimizer folds (pass 6).
    Flow,
    /// The termination audit: dynamic widenings checked against the
    /// size-change termination verdicts (pass 7).
    Termination,
}

impl Pass {
    /// Stable kebab-case name used in rendered diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            Pass::WellFormed => "well-formed",
            Pass::ClosureShape => "closure-shape",
            Pass::Preservation => "preservation",
            Pass::Lint => "lint",
            Pass::BtaCongruence => "bta-congruence",
            Pass::Flow => "flow",
            Pass::Termination => "termination",
        }
    }
}

impl fmt::Display for Pass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory: the program is correct but suboptimal or suspicious.
    Warning,
    /// The checked property is violated; back ends must not trust the
    /// program.
    Error,
}

/// One finding of one pass, attributed to a procedure when possible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The pass that produced the finding.
    pub pass: Pass,
    /// Error or warning.
    pub severity: Severity,
    /// The offending procedure, if the finding is attributable.
    pub proc_name: Option<String>,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    /// Builds an error diagnostic.
    pub fn error(pass: Pass, proc_name: Option<&str>, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            pass,
            severity: Severity::Error,
            proc_name: proc_name.map(str::to_string),
            message: message.into(),
        }
    }

    /// Builds a warning diagnostic.
    pub fn warning(pass: Pass, proc_name: Option<&str>, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            pass,
            severity: Severity::Warning,
            proc_name: proc_name.map(str::to_string),
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        match &self.proc_name {
            Some(p) => write!(f, "{kind}[{}] {p}: {}", self.pass, self.message),
            None => write!(f, "{kind}[{}] {}", self.pass, self.message),
        }
    }
}

/// The result of a verification run: every diagnostic of every pass.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// All findings, in pass order.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Wraps a list of diagnostics.
    pub fn new(diagnostics: Vec<Diagnostic>) -> Report {
        Report { diagnostics }
    }

    /// True if no *error*-severity diagnostic was produced (warnings are
    /// allowed).
    pub fn is_clean(&self) -> bool {
        !self.has_errors()
    }

    /// True if any error-severity diagnostic was produced.
    pub fn has_errors(&self) -> bool {
        self.diagnostics.iter().any(|d| d.severity == Severity::Error)
    }

    /// The error-severity diagnostics.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Error)
    }

    /// The warning-severity diagnostics.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Warning)
    }

    /// Number of errors.
    pub fn error_count(&self) -> usize {
        self.errors().count()
    }

    /// Number of warnings.
    pub fn warning_count(&self) -> usize {
        self.warnings().count()
    }

    /// Renders the errors as plain strings (for error types that predate
    /// this crate, e.g. `PipelineError::IllFormed`).
    pub fn error_messages(&self) -> Vec<String> {
        self.errors().map(ToString::to_string).collect()
    }

    /// Appends another report's findings.
    pub fn merge(&mut self, other: Report) {
        self.diagnostics.extend(other.diagnostics);
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.diagnostics.is_empty() {
            return f.write_str("ok: no diagnostics");
        }
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                f.write_str("\n")?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_counts_and_rendering() {
        let r = Report::new(vec![
            Diagnostic::error(Pass::WellFormed, Some("main"), "unbound variable x"),
            Diagnostic::warning(Pass::Lint, None, "nothing to do"),
        ]);
        assert!(r.has_errors());
        assert!(!r.is_clean());
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.warning_count(), 1);
        let text = r.to_string();
        assert!(text.contains("error[well-formed] main: unbound variable x"), "{text}");
        assert!(text.contains("warning[lint] nothing to do"), "{text}");
        assert_eq!(Report::default().to_string(), "ok: no diagnostics");
    }
}
