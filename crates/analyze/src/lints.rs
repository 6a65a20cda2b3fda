//! The lint catalogue and the diagnostic/report types.

use serde_json::{json, Value};

/// Severity of a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: reported, never fails a run.
    Allow,
    /// Suspicious: fails only under `--deny warnings`.
    Warn,
    /// A defect: always fails the run.
    Error,
}

impl Severity {
    /// Lowercase name used in text and JSON output.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Allow => "allow",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

/// One entry of the lint catalogue.
#[derive(Debug, Clone, Copy)]
pub struct LintDef {
    /// Stable lint name (kebab-case, used with `--deny`/reports).
    pub name: &'static str,
    /// Default severity.
    pub severity: Severity,
    /// One-line rationale.
    pub rationale: &'static str,
}

/// `dead-activity`: an input arc demands more tokens than the place can
/// ever hold.
pub const DEAD_ACTIVITY: LintDef = LintDef {
    name: "dead-activity",
    severity: Severity::Error,
    rationale: "an input arc demands more tokens than any reachable marking supplies \
                (bound from a non-negative P-semiflow), so the activity can never fire",
};
/// `nonconserving-gate`: a firing violated a declared conservation law.
pub const NONCONSERVING_GATE: LintDef = LintDef {
    name: "nonconserving-gate",
    severity: Severity::Error,
    rationale: "a firing (arc or gate function) violated a declared conservation \
                invariant of the model",
};
/// `confused-instantaneous`: same-priority instantaneous firings that do
/// not commute.
pub const CONFUSED_INSTANTANEOUS: LintDef = LintDef {
    name: "confused-instantaneous",
    severity: Severity::Allow,
    rationale: "two equal-priority instantaneous activities were concurrently enabled \
                and their firing orders do not commute; the engine resolves the race \
                deterministically (declaration order), so byte-identity holds, but the \
                model's outcome depends on that tie-break",
};
/// `never-enabled`: no explored marking enabled the activity.
pub const NEVER_ENABLED: LintDef = LintDef {
    name: "never-enabled",
    severity: Severity::Allow,
    rationale: "bounded exploration never enabled the activity — possibly dead modeling, \
                possibly policy-induced starvation the experiment measures on purpose \
                (e.g. SCS with fewer PCPUs than a VM's width), so informative only; \
                provable deadness is the separate `dead-activity` error",
};
/// `unreachable-case`: a probabilistic case never selected.
pub const UNREACHABLE_CASE: LintDef = LintDef {
    name: "unreachable-case",
    severity: Severity::Allow,
    rationale: "a probabilistic case of a fired activity was never selected during \
                exploration (zero dynamic weight or sampling shortfall)",
};
/// `invalid-case-weights`: dynamic weights with a non-positive total.
pub const INVALID_CASE_WEIGHTS: LintDef = LintDef {
    name: "invalid-case-weights",
    severity: Severity::Error,
    rationale: "a dynamic case-weight function returned a non-positive or non-finite \
                total (or the wrong arity) — the simulator would panic here",
};
/// `policy-halt`: the embedded policy halted the model during probing.
pub const POLICY_HALT: LintDef = LintDef {
    name: "policy-halt",
    severity: Severity::Error,
    rationale: "the scheduling gate recorded a policy violation and halted the model \
                during exploration",
};
/// `invalid-policy-params`: policy parameters outside their static range.
pub const INVALID_POLICY_PARAMS: LintDef = LintDef {
    name: "invalid-policy-params",
    severity: Severity::Error,
    rationale: "a policy parameter is outside its validated range (the constructor \
                would panic or misbehave at runtime)",
};
/// `undeclared-field-read`: a policy reads outside its snapshot view.
pub const UNDECLARED_FIELD_READ: LintDef = LintDef {
    name: "undeclared-field-read",
    severity: Severity::Error,
    rationale: "sensitivity probing shows the policy's decisions depend on a VcpuView \
                field it does not declare in its snapshot view",
};
/// `invalid-decision`: a decision failed the decision invariants.
pub const INVALID_DECISION: LintDef = LintDef {
    name: "invalid-decision",
    severity: Severity::Error,
    rationale: "the policy produced a decision that fails validate_decision on the \
                deterministic probe suite",
};
/// `stale-read-set`: a declared read-set misses a place the closure
/// actually reads.
pub const STALE_READ_SET: LintDef = LintDef {
    name: "stale-read-set",
    severity: Severity::Error,
    rationale: "perturbation probing shows an enablement closure (guard, input gate, or \
                rate multiplier) depends on a place outside its declared read-set — the \
                incremental reevaluation core would skip a reevaluation the closure \
                needs, silently diverging from full-rescan semantics",
};
/// `stale-write-set`: a declared write-set misses a place the gate
/// actually writes.
pub const STALE_WRITE_SET: LintDef = LintDef {
    name: "stale-write-set",
    severity: Severity::Error,
    rationale: "an observed incidence column touches a place outside the gate's declared \
                write-set — the declaration no longer describes what the gate writes",
};
/// `stale-bound`: exhaustive verification contradicts a structural or
/// bounded-walk claim.
pub const STALE_BOUND: LintDef = LintDef {
    name: "stale-bound",
    severity: Severity::Error,
    rationale: "exhaustive reachability contradicts a structural or bounded-walk claim — \
                a semiflow place bound below an exactly reached token count, or a \
                never-enabled verdict on an activity the exact search enabled — so any \
                conclusion built on the stale claim (such as dead-activity) is \
                unsound",
};
/// `inert-policy`: the policy never assigns.
pub const INERT_POLICY: LintDef = LintDef {
    name: "inert-policy",
    severity: Severity::Warn,
    rationale: "the policy produced no assignment anywhere in the probe suite — \
                schedulable VCPUs and idle PCPUs were available every tick",
};

/// The full catalogue, in report order.
pub const CATALOGUE: &[LintDef] = &[
    DEAD_ACTIVITY,
    NONCONSERVING_GATE,
    CONFUSED_INSTANTANEOUS,
    NEVER_ENABLED,
    UNREACHABLE_CASE,
    INVALID_CASE_WEIGHTS,
    POLICY_HALT,
    INVALID_POLICY_PARAMS,
    UNDECLARED_FIELD_READ,
    INVALID_DECISION,
    STALE_READ_SET,
    STALE_WRITE_SET,
    STALE_BOUND,
    INERT_POLICY,
];

/// One finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Lint name from the catalogue.
    pub lint: &'static str,
    /// Severity (the lint's default).
    pub severity: Severity,
    /// What the finding is about (activity, gate, place, or policy name).
    pub subject: String,
    /// Human-readable detail.
    pub message: String,
}

impl Diagnostic {
    /// Builds a diagnostic for a catalogue lint.
    #[must_use]
    pub fn new(def: LintDef, subject: impl Into<String>, message: impl Into<String>) -> Self {
        Diagnostic {
            lint: def.name,
            severity: def.severity,
            subject: subject.into(),
            message: message.into(),
        }
    }
}

/// One named conservation certificate (declared invariant) and its verdict.
#[derive(Debug, Clone)]
pub struct Certificate {
    /// Certificate name (from the model's declaration).
    pub name: String,
    /// The law being certified.
    pub description: String,
    /// Whether every check passed.
    pub passed: bool,
    /// On failure: what broke and where. Empty when passed.
    pub detail: String,
}

/// The result of linting one target.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// Target name (config path, model name, or fixture name).
    pub target: String,
    /// Number of places.
    pub places: usize,
    /// Number of activities.
    pub activities: usize,
    /// Incidence columns known exactly from arcs alone.
    pub linear_columns: usize,
    /// Distinct marking deltas observed from gated activities.
    pub probed_columns: usize,
    /// Dimension of the P-invariant basis over all columns.
    pub p_invariant_dim: usize,
    /// Dimension of the T-invariant basis over the linear columns.
    pub t_invariant_dim: usize,
    /// Rendered conservation laws (small P-invariant basis vectors).
    pub conservation_laws: Vec<String>,
    /// Named certificates, in declaration order.
    pub certificates: Vec<Certificate>,
    /// Findings, in detection order.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Number of Error-severity findings (counting failed certificates'
    /// diagnostics once — every failed certificate also emits one).
    #[must_use]
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of Warn-severity findings.
    #[must_use]
    pub fn warn_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warn)
            .count()
    }

    /// Whether the run fails: any Error, any failed certificate, or (with
    /// `deny_warnings`) any Warn.
    #[must_use]
    pub fn denied(&self, deny_warnings: bool) -> bool {
        self.error_count() > 0
            || self.certificates.iter().any(|c| !c.passed)
            || (deny_warnings && self.warn_count() > 0)
    }

    /// The report as a JSON value with stable field order.
    #[must_use]
    pub fn to_json(&self) -> Value {
        json!({
            "target": self.target.clone(),
            "places": self.places,
            "activities": self.activities,
            "linear_columns": self.linear_columns,
            "probed_columns": self.probed_columns,
            "p_invariant_dim": self.p_invariant_dim,
            "t_invariant_dim": self.t_invariant_dim,
            "conservation_laws": self.conservation_laws.clone(),
            "certificates": Value::Seq(
                self.certificates
                    .iter()
                    .map(|c| {
                        json!({
                            "name": c.name.clone(),
                            "description": c.description.clone(),
                            "passed": c.passed,
                            "detail": c.detail.clone(),
                        })
                    })
                    .collect()
            ),
            "diagnostics": Value::Seq(
                self.diagnostics
                    .iter()
                    .map(|d| {
                        json!({
                            "lint": d.lint,
                            "severity": d.severity.as_str(),
                            "subject": d.subject.clone(),
                            "message": d.message.clone(),
                        })
                    })
                    .collect()
            ),
            "errors": self.error_count(),
            "warnings": self.warn_count(),
        })
    }

    /// Multi-line human-readable rendering.
    #[must_use]
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "lint {}: {} places, {} activities ({} linear + {} probed columns), \
             P-invariant dim {}, T-invariant dim {}",
            self.target,
            self.places,
            self.activities,
            self.linear_columns,
            self.probed_columns,
            self.p_invariant_dim,
            self.t_invariant_dim,
        );
        for law in &self.conservation_laws {
            let _ = writeln!(out, "  law: {law}");
        }
        for c in &self.certificates {
            let verdict = if c.passed { "PASS" } else { "FAIL" };
            let _ = writeln!(
                out,
                "  certificate {} [{verdict}]: {}",
                c.name, c.description
            );
            if !c.passed {
                let _ = writeln!(out, "    {}", c.detail);
            }
        }
        for d in &self.diagnostics {
            let _ = writeln!(
                out,
                "  {}[{}] {}: {}",
                d.severity.as_str(),
                d.lint,
                d.subject,
                d.message
            );
        }
        let _ = writeln!(
            out,
            "  summary: {} errors, {} warnings, {} certificates ({} passed)",
            self.error_count(),
            self.warn_count(),
            self.certificates.len(),
            self.certificates.iter().filter(|c| c.passed).count(),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_kebab_case() {
        let mut seen = std::collections::HashSet::new();
        for def in CATALOGUE {
            assert!(seen.insert(def.name), "duplicate lint {}", def.name);
            assert!(def.name.chars().all(|c| c.is_ascii_lowercase() || c == '-'));
            assert!(!def.rationale.is_empty());
        }
    }

    #[test]
    fn deny_semantics() {
        let mut report = LintReport {
            target: "t".into(),
            ..LintReport::default()
        };
        assert!(!report.denied(true));
        report
            .diagnostics
            .push(Diagnostic::new(INERT_POLICY, "a", "m"));
        assert!(!report.denied(false), "warn passes by default");
        assert!(report.denied(true), "warn denied under --deny warnings");
        report
            .diagnostics
            .push(Diagnostic::new(DEAD_ACTIVITY, "a", "m"));
        assert!(report.denied(false), "errors always deny");
    }

    #[test]
    fn failed_certificate_denies() {
        let report = LintReport {
            target: "t".into(),
            certificates: vec![Certificate {
                name: "c".into(),
                description: "d".into(),
                passed: false,
                detail: "broke".into(),
            }],
            ..LintReport::default()
        };
        assert!(report.denied(false));
    }

    #[test]
    fn json_shape() {
        let report = LintReport {
            target: "t".into(),
            diagnostics: vec![Diagnostic::new(DEAD_ACTIVITY, "act", "why")],
            ..LintReport::default()
        };
        let v = serde_json::to_string(&report.to_json()).unwrap();
        assert!(v.contains("\"dead-activity\""));
        assert!(
            v.contains("\"errors\":1") || v.contains("\"errors\": 1"),
            "{v}"
        );
    }
}
