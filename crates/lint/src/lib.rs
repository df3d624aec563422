//! Static analysis for BLASYS circuits: a lint pass framework over
//! parsed BLIF documents and built netlists, plus an IR invariant
//! verifier for flow stage boundaries.
//!
//! # Two surfaces
//!
//! A built [`Netlist`] cannot contain a combinational cycle, an
//! undriven net, or a multiply-driven signal — topological storage and
//! structural hashing make those states unrepresentable. Lints for
//! those defect classes therefore run on the *structural* form of a
//! BLIF model ([`BlifDoc`], produced by
//! [`parse_blif_doc`](blasys_logic::blif::parse_blif_doc)) before any
//! netlist is built, where the defects are still visible and carry
//! source lines. The redundancy lint (functionally duplicate cones)
//! runs on the built [`Netlist`].
//!
//! # Example
//!
//! ```
//! use blasys_lint::{run_lints, LintConfig, LintTarget, Severity};
//! use blasys_logic::blif::parse_blif_doc;
//!
//! let doc = parse_blif_doc(
//!     ".model m\n.inputs a\n.outputs f\n.names f f\n1 1\n.end\n",
//! )
//! .unwrap();
//! let report = run_lints(
//!     &LintTarget::new().with_doc(&doc),
//!     &LintConfig::default(),
//! );
//! assert!(report.has_errors());
//! assert_eq!(report.errors().next().unwrap().lint, "L0001-combinational-cycle");
//! ```

#![warn(missing_docs)]

use std::fmt;

use blasys_logic::blif::BlifDoc;
use blasys_logic::Netlist;

pub mod passes;
pub mod verify;

pub use verify::{verify_interface, verify_netlist, verify_partition};

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: worth knowing, never blocks anything.
    Info,
    /// Suspicious but drivable; blocks only under `--deny warnings`.
    Warn,
    /// The circuit cannot (or must not) be driven through the flow.
    Error,
}

impl Severity {
    /// Lowercase name (`"info"` / `"warn"` / `"error"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding of a lint pass or the IR verifier.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable lint id, e.g. `"L0001-combinational-cycle"`.
    pub lint: &'static str,
    /// Severity of the finding.
    pub severity: Severity,
    /// Human-readable description of the finding.
    pub message: String,
    /// Signal names involved (e.g. the full cycle path, in order).
    pub signals: Vec<String>,
    /// Netlist node indices involved (empty for document-level lints).
    pub nodes: Vec<usize>,
    /// 1-based line in the source BLIF, when known.
    pub line: Option<usize>,
}

impl Diagnostic {
    /// A new diagnostic with no location or subject details.
    pub fn new(lint: &'static str, severity: Severity, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            lint,
            severity,
            message: message.into(),
            signals: Vec::new(),
            nodes: Vec::new(),
            line: None,
        }
    }

    /// Attach a source line.
    pub fn at_line(mut self, line: usize) -> Diagnostic {
        self.line = Some(line);
        self
    }

    /// Attach the involved signal names.
    pub fn with_signals(mut self, signals: Vec<String>) -> Diagnostic {
        self.signals = signals;
        self
    }

    /// Attach the involved node indices.
    pub fn with_nodes(mut self, nodes: Vec<usize>) -> Diagnostic {
        self.nodes = nodes;
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity, self.lint)?;
        if let Some(line) = self.line {
            write!(f, " line {line}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// Configuration of a lint run: the warnings-as-errors switch.
#[derive(Debug, Clone, Copy, Default)]
pub struct LintConfig {
    /// Treat any warning as run-failing ([`LintReport::denied`]).
    pub deny_warnings: bool,
}

impl LintConfig {
    /// The default configuration: warnings do not fail the run.
    pub fn new() -> LintConfig {
        LintConfig::default()
    }

    /// Set the warnings-as-errors switch.
    pub fn deny_warnings(mut self, deny: bool) -> LintConfig {
        self.deny_warnings = deny;
        self
    }
}

/// What a lint run analyzes. Each surface is optional; a lint that
/// needs an absent surface is a silent no-op, so one `run_lints` call
/// covers a bare parsed document, a built netlist, or both.
#[derive(Debug, Clone, Copy, Default)]
pub struct LintTarget<'a> {
    /// The structural BLIF document (cycle / driver / liveness lints).
    pub doc: Option<&'a BlifDoc>,
    /// The built netlist (redundancy lints; liveness when no doc).
    pub netlist: Option<&'a Netlist>,
}

impl<'a> LintTarget<'a> {
    /// An empty target; attach surfaces with the `with_*` builders.
    pub fn new() -> LintTarget<'a> {
        LintTarget::default()
    }

    /// Attach a parsed BLIF document.
    pub fn with_doc(mut self, doc: &'a BlifDoc) -> LintTarget<'a> {
        self.doc = Some(doc);
        self
    }

    /// Attach a built netlist.
    pub fn with_netlist(mut self, nl: &'a Netlist) -> LintTarget<'a> {
        self.netlist = Some(nl);
        self
    }
}

/// A lint pass: a stable id, a default severity, and the analysis
/// itself.
pub trait Lint {
    /// Stable id, `L<nnnn>-<kebab-name>` (e.g.
    /// `"L0001-combinational-cycle"`). Never reused or renumbered.
    fn id(&self) -> &'static str;

    /// Severity every finding of this lint reports at.
    fn default_severity(&self) -> Severity;

    /// Run the analysis, pushing findings at `severity`.
    fn run(&self, target: &LintTarget<'_>, severity: Severity, out: &mut Vec<Diagnostic>);
}

/// All lints, in id order.
pub fn registry() -> Vec<Box<dyn Lint>> {
    passes::all()
}

/// The findings of one lint run.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// Every finding, in registry order (then source order per lint).
    pub diagnostics: Vec<Diagnostic>,
    /// Whether the producing config had `deny_warnings` set.
    pub deny_warnings: bool,
}

impl LintReport {
    /// Findings of exactly `severity`.
    pub fn at(&self, severity: Severity) -> impl Iterator<Item = &Diagnostic> + '_ {
        self.diagnostics
            .iter()
            .filter(move |d| d.severity == severity)
    }

    /// Error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> + '_ {
        self.at(Severity::Error)
    }

    /// Warn-severity findings.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> + '_ {
        self.at(Severity::Warn)
    }

    /// Whether any error-severity finding exists.
    pub fn has_errors(&self) -> bool {
        self.errors().next().is_some()
    }

    /// Whether the run fails under `deny_warnings`: no errors, but at
    /// least one warning while the config denies warnings.
    pub fn denied(&self) -> bool {
        self.deny_warnings && !self.has_errors() && self.warnings().next().is_some()
    }

    /// Count per severity as `(errors, warnings, infos)`.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for d in &self.diagnostics {
            match d.severity {
                Severity::Error => c.0 += 1,
                Severity::Warn => c.1 += 1,
                Severity::Info => c.2 += 1,
            }
        }
        c
    }
}

/// Run every registered lint over `target` under `config`.
pub fn run_lints(target: &LintTarget<'_>, config: &LintConfig) -> LintReport {
    let mut diagnostics = Vec::new();
    for lint in registry() {
        lint.run(target, lint.default_severity(), &mut diagnostics);
    }
    LintReport {
        diagnostics,
        deny_warnings: config.deny_warnings,
    }
}

/// Run only the lints whose severity is [`Severity::Error`] — the
/// admission-control subset a flow front-end needs before spending
/// cycles on BMF.
pub fn run_error_lints(target: &LintTarget<'_>) -> Vec<Diagnostic> {
    let mut diagnostics = Vec::new();
    for lint in registry() {
        if lint.default_severity() == Severity::Error {
            lint.run(target, Severity::Error, &mut diagnostics);
        }
    }
    diagnostics
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_sorted_and_stable() {
        let lints = registry();
        let ids: Vec<&str> = lints.iter().map(|l| l.id()).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(ids, sorted, "registry must be in unique id order");
        for id in &ids {
            assert!(id.starts_with('L'), "{id}");
            assert!(id.len() > 6 && id.as_bytes()[5] == b'-', "{id}");
            assert!(!lints.is_empty());
        }
    }

    #[test]
    fn severity_orders_info_warn_error() {
        assert!(Severity::Info < Severity::Warn);
        assert!(Severity::Warn < Severity::Error);
    }

    #[test]
    fn deny_warnings_denies_only_without_errors() {
        let doc = blasys_logic::blif::parse_blif_doc(
            ".model m\n.inputs a b\n.outputs f\n.names a f\n1 1\n.end\n",
        )
        .unwrap();
        let target = LintTarget::new().with_doc(&doc);
        let clean = run_lints(&target, &LintConfig::new());
        assert!(!clean.denied());
        let denied = run_lints(&target, &LintConfig::new().deny_warnings(true));
        assert!(denied.denied());
        assert!(!denied.has_errors());
    }

    #[test]
    fn diagnostic_display_names_lint_and_line() {
        let d = Diagnostic::new("L0001-combinational-cycle", Severity::Error, "cycle a -> b")
            .at_line(7);
        assert_eq!(
            d.to_string(),
            "error[L0001-combinational-cycle] line 7: cycle a -> b"
        );
    }
}
