//! `vsched-analyze`: static structural analysis and lints for vsched SAN
//! models and scheduling policies.
//!
//! The runtime checkers (`vsched-check`) catch defects *while a model
//! executes*; this crate catches a complementary class **before** a single
//! tick runs, from the model's structure:
//!
//! * **Incidence extraction** — exact columns from arcs, observed columns
//!   from bounded concrete exploration of gated activities
//!   ([`incidence`]);
//! * **Invariant math** — P-/T-invariant bases by exact rational
//!   elimination and non-negative P-semiflows by Farkas' algorithm
//!   ([`matrix`], [`ratio`]), reported as conservation laws and used for
//!   structural dead-activity detection;
//! * **Certificates** — the paper model's declared invariants
//!   ([`vsched_core::san_model::expected_invariants`]) checked as named
//!   PASS/FAIL entries of every report;
//! * **Model lints** — `dead-activity`, `nonconserving-gate`,
//!   `confused-instantaneous`, `never-enabled`, `unreachable-case`,
//!   `invalid-case-weights`, `policy-halt` ([`model_pass`]);
//! * **Policy lints** — `invalid-policy-params`, `invalid-decision`,
//!   `undeclared-field-read`, `inert-policy`, checked against the static
//!   contract surface of [`vsched_core::sched`] ([`policy_pass`]);
//! * **Exhaustive verification** — explicit-state reachability with
//!   VM-rotation symmetry reduction, proving invariant catalogues,
//!   deadlock-freedom, exact place bounds and exact activity liveness
//!   with concretely replayable counterexamples ([`verify_pass`]);
//!   its exact results are cross-checked against the structural pass
//!   (`stale-bound`).
//!
//! The catalogue with per-lint rationale lives in [`lints::CATALOGUE`];
//! `vsched lint` is the CLI frontend and DESIGN.md §12 the narrative
//! documentation.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod fixtures;
pub mod incidence;
pub mod lints;
pub mod matrix;
pub mod model_pass;
pub mod policy_pass;
pub mod ratio;
pub mod verify_pass;

pub use lints::{Certificate, Diagnostic, LintDef, LintReport, Severity, CATALOGUE};
pub use model_pass::{analyze_model, semiflow_bounds};
pub use policy_pass::lint_policy;
pub use verify_pass::{
    cross_check, replay_trace, verify_model, Counterexample, StateRotation, TraceStep, VerifyHooks,
    VerifyOpts, VerifyOutcome, VerifyReport,
};

use vsched_core::san_model::{build_analysis_model, expected_invariants};
use vsched_core::{CoreError, PolicyKind, SystemConfig};

use lints::INVALID_POLICY_PARAMS;

/// Exploration and probing budget of one lint run.
#[derive(Debug, Clone)]
pub struct AnalyzeOpts {
    /// Independent random walks from the initial marking.
    pub walks: usize,
    /// Maximum firings per walk.
    pub steps: usize,
    /// Seed for every walk and probe (reports are deterministic per seed).
    pub seed: u64,
    /// Total instantaneous commutation probes across all walks.
    pub commutation_probes: usize,
    /// Visited markings at which declared read-sets are cross-checked by
    /// perturbation (`stale-read-set`): every place outside an activity's
    /// declared enablement read-set is nudged ±1 and the activity's
    /// `enabled()` / rate multiplier must not move.
    pub read_set_probes: usize,
    /// Whether to run the full budget and emit coverage lints
    /// (`never-enabled`) that are meaningless under a small budget.
    pub thorough: bool,
}

impl Default for AnalyzeOpts {
    fn default() -> Self {
        AnalyzeOpts {
            walks: 8,
            steps: 400,
            seed: 0x5EED,
            commutation_probes: 64,
            read_set_probes: 16,
            thorough: true,
        }
    }
}

impl AnalyzeOpts {
    /// The small budget used as a pre-simulation gate inside fuzz loops:
    /// a fraction of the default walk budget and no coverage lints.
    #[must_use]
    pub fn quick() -> Self {
        AnalyzeOpts {
            walks: 2,
            steps: 120,
            commutation_probes: 8,
            read_set_probes: 2,
            thorough: false,
            ..AnalyzeOpts::default()
        }
    }
}

/// Lints one `(config, policy)` pair: parameter validation, the structural
/// model pass over the compiled paper model (with its declared invariants
/// as certificates), and the policy contract pass.
///
/// Invalid policy parameters short-circuit — the report carries an
/// `invalid-policy-params` finding and no model pass runs, because the
/// policy constructor is allowed to panic on them.
///
/// # Errors
///
/// [`CoreError::San`] if the model itself cannot be built.
pub fn lint_config(
    target: &str,
    config: &SystemConfig,
    kind: &PolicyKind,
    opts: &AnalyzeOpts,
) -> Result<LintReport, CoreError> {
    if let Err(e) = kind.validate() {
        let mut report = LintReport {
            target: target.to_string(),
            ..LintReport::default()
        };
        report.diagnostics.push(Diagnostic::new(
            INVALID_POLICY_PARAMS,
            kind.label(),
            e.to_string(),
        ));
        return Ok(report);
    }
    let mut analysis = build_analysis_model(config, kind.create())?;
    let expected = expected_invariants(config, &analysis.layout);
    let probe = analysis.error_probe();
    let hook = move || probe().map(|e| e.to_string());
    let mut report = analyze_model(target, &mut analysis.model, &expected, Some(&hook), opts);
    report.diagnostics.extend(lint_policy(kind));
    Ok(report)
}

/// Lints the deliberately broken fixture ([`fixtures::broken_model`]) —
/// the target behind `vsched lint --fixture broken` and the golden
/// diagnostics test.
#[must_use]
pub fn lint_broken_fixture(opts: &AnalyzeOpts) -> LintReport {
    let (mut model, expected) = fixtures::broken_model();
    analyze_model("fixture:broken", &mut model, &expected, None, opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_config() -> SystemConfig {
        SystemConfig::builder()
            .pcpus(4)
            .vm(2)
            .vm(4)
            .build()
            .expect("valid paper config")
    }

    /// The acceptance gate of the whole crate: the paper model's expected
    /// conservation invariants all PASS and the report carries zero
    /// Error-severity findings, for each of the paper's three policies.
    #[test]
    fn paper_model_certificates_pass_with_zero_errors() {
        for kind in PolicyKind::paper_trio() {
            let report = lint_config("paper", &paper_config(), &kind, &AnalyzeOpts::default())
                .expect("paper model builds");
            assert!(
                report.certificates.iter().all(|c| c.passed),
                "{kind}: failed certificates: {:?}",
                report
                    .certificates
                    .iter()
                    .filter(|c| !c.passed)
                    .map(|c| format!("{}: {}", c.name, c.detail))
                    .collect::<Vec<_>>()
            );
            assert_eq!(
                report.error_count(),
                0,
                "{kind}: {:?}",
                report
                    .diagnostics
                    .iter()
                    .filter(|d| d.severity == Severity::Error)
                    .map(|d| format!("{}[{}]: {}", d.lint, d.subject, d.message))
                    .collect::<Vec<_>>()
            );
            // Every certificate the issue names is present.
            for name in ["total-vcpus", "total-pcpus", "tick-tokens"] {
                assert!(
                    report.certificates.iter().any(|c| c.name == name),
                    "{kind}: missing certificate {name}"
                );
            }
            assert!(report
                .certificates
                .iter()
                .any(|c| c.name.starts_with("vm0-")));
        }
    }

    /// The full exploration budget reaches every activity of the paper
    /// model, so `never-enabled` stays quiet on a sound model.
    #[test]
    fn paper_model_has_no_never_enabled_warnings() {
        let report = lint_config(
            "paper",
            &paper_config(),
            &PolicyKind::RoundRobin,
            &AnalyzeOpts::default(),
        )
        .expect("paper model builds");
        assert!(
            !report.diagnostics.iter().any(|d| d.lint == "never-enabled"),
            "{:?}",
            report
                .diagnostics
                .iter()
                .map(|d| format!("{}[{}]", d.lint, d.subject))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn broken_fixture_produces_pinned_diagnostics() {
        let report = lint_broken_fixture(&AnalyzeOpts::default());
        let lints: Vec<&str> = report.diagnostics.iter().map(|d| d.lint).collect();
        assert!(lints.contains(&"dead-activity"), "{lints:?}");
        assert!(lints.contains(&"nonconserving-gate"), "{lints:?}");
        assert!(report.denied(false));
        let cert = &report.certificates[0];
        assert_eq!(cert.name, "token-conservation");
        assert!(!cert.passed);
    }

    /// The planted stale declaration is caught at the very first probed
    /// marking (the initial one), and the finding is deny-worthy.
    #[test]
    fn stale_read_set_is_flagged() {
        let mut model = fixtures::stale_read_set_model();
        let report = analyze_model(
            "fixture:stale",
            &mut model,
            &[],
            None,
            &AnalyzeOpts::default(),
        );
        let finding = report
            .diagnostics
            .iter()
            .find(|d| d.lint == "stale-read-set")
            .expect("stale read-set detected");
        assert_eq!(finding.severity, Severity::Error);
        assert_eq!(finding.subject, "burn");
        assert!(finding.message.contains("lever"), "{}", finding.message);
        assert!(report.denied(false));
    }

    /// The planted write-set lie (see
    /// [`fixtures::stale_write_set_model`]) is rejected: the walk observes
    /// `liar` changing `acc_a`, which its declaration omits.
    #[test]
    fn stale_write_set_is_flagged() {
        let mut model = fixtures::stale_write_set_model();
        let report = analyze_model(
            "fixture:stale-write",
            &mut model,
            &[],
            None,
            &AnalyzeOpts::default(),
        );
        let finding = report
            .diagnostics
            .iter()
            .find(|d| d.lint == "stale-write-set")
            .expect("stale write-set detected");
        assert_eq!(finding.severity, Severity::Error);
        assert_eq!(finding.subject, "liar");
        assert!(finding.message.contains("acc_a"), "{}", finding.message);
        assert!(report.denied(false));
    }

    /// With the probe budget zeroed, the stale declaration goes unseen —
    /// pins that the check is what finds it (and what `quick()` pays for).
    #[test]
    fn zero_probe_budget_skips_the_read_set_check() {
        let mut model = fixtures::stale_read_set_model();
        let opts = AnalyzeOpts {
            read_set_probes: 0,
            ..AnalyzeOpts::default()
        };
        let report = analyze_model("fixture:stale", &mut model, &[], None, &opts);
        assert!(!report
            .diagnostics
            .iter()
            .any(|d| d.lint == "stale-read-set"));
    }

    #[test]
    fn invalid_policy_params_short_circuit() {
        let kind = PolicyKind::RelaxedCo {
            skew_threshold: 0,
            skew_resume: 0,
        };
        let report = lint_config("bad", &paper_config(), &kind, &AnalyzeOpts::quick())
            .expect("returns a report, not an error");
        assert_eq!(report.diagnostics.len(), 1);
        assert_eq!(report.diagnostics[0].lint, "invalid-policy-params");
        assert!(report.denied(false));
    }

    #[test]
    fn reports_are_deterministic_per_seed() {
        let a = lint_broken_fixture(&AnalyzeOpts::default());
        let b = lint_broken_fixture(&AnalyzeOpts::default());
        assert_eq!(
            serde_json::to_string(&a.to_json()).unwrap(),
            serde_json::to_string(&b.to_json()).unwrap()
        );
    }
}
