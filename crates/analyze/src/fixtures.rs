//! Deliberately broken models used to pin the analyzer's diagnostics.

use vsched_core::san_model::{InvariantKind, ModelInvariant};
use vsched_san::{Model, ModelBuilder};

/// A four-place net with two planted defects:
///
/// * `leak` consumes a `buf` token through an output gate that restores
///   nothing — its observed column breaks the declared `token-conservation`
///   sum (`nonconserving-gate`);
/// * `dead` demands 2 tokens from `trap`, but the only non-negative
///   P-semiflow touching `trap` bounds it to its initial single token
///   (`dead-activity`) — and its exact column also breaks the declared sum.
///
/// `move` is an honest token move so the walks have something sound to do.
#[must_use]
pub fn broken_model() -> (Model, Vec<ModelInvariant>) {
    let mut mb = ModelBuilder::new();
    let token = mb.place("token", 2).expect("fresh builder");
    let buf = mb.place("buf", 0).expect("fresh builder");
    let sink = mb.place("sink", 0).expect("fresh builder");
    let trap = mb.place("trap", 1).expect("fresh builder");

    mb.activity("move")
        .expect("fresh name")
        .instantaneous(0)
        .input_arc(token, 1)
        .output_arc(buf, 1)
        .done()
        .expect("valid activity");
    mb.activity("leak")
        .expect("fresh name")
        .instantaneous(0)
        .input_arc(buf, 1)
        .output_gate("leak_gate", |_m, _rng| {
            // Deliberately loses the consumed token.
        })
        .done()
        .expect("valid activity");
    mb.activity("dead")
        .expect("fresh name")
        .instantaneous(0)
        .input_arc(trap, 2)
        .output_arc(sink, 1)
        .done()
        .expect("valid activity");

    let model = mb.build().expect("valid model");
    let expected = vec![ModelInvariant {
        name: "token-conservation".to_string(),
        description: "token + buf + sink is constant: tokens move but are never \
                      created or destroyed"
            .to_string(),
        kind: InvariantKind::Linear(vec![(token, 1), (buf, 1), (sink, 1)]),
    }];
    (model, expected)
}

/// A two-place net with one planted defect: `burn`'s guard reads `lever`
/// but its declared read-set names only `fuel`, so perturbing `lever`
/// flips `enabled()` outside the declared set (`stale-read-set`).
#[must_use]
pub fn stale_read_set_model() -> Model {
    let mut mb = ModelBuilder::new();
    let fuel = mb.place("fuel", 3).expect("fresh builder");
    let lever = mb.place("lever", 1).expect("fresh builder");
    mb.activity("burn")
        .expect("fresh name")
        .instantaneous(0)
        .input_arc(fuel, 1)
        .guard("lever_up", move |m| m.tokens(lever) > 0)
        .reads([fuel]) // stale: omits `lever`, which the guard reads
        .done()
        .expect("valid activity");
    mb.build().expect("valid model")
}

/// A planted write-set lie: `honest` and `liar` both bump `acc_a`, but
/// `liar` declares its write-set as `{acc_b}`. Nothing at build or run
/// time checks what a declaration claims, so the lie must be caught by
/// this analyzer as `stale-write-set` (observed column escapes the
/// declaration).
#[must_use]
pub fn stale_write_set_model() -> Model {
    let mut mb = ModelBuilder::new();
    let src_a = mb.place("src_a", 3).expect("fresh builder");
    let acc_a = mb.place("acc_a", 0).expect("fresh builder");
    let src_b = mb.place("src_b", 3).expect("fresh builder");
    let acc_b = mb.place("acc_b", 0).expect("fresh builder");
    mb.activity("honest")
        .expect("fresh name")
        .instantaneous(0)
        .input_arc(src_a, 1)
        .output_gate("bump_a", move |m, _| m.add(acc_a, 1))
        .reads([])
        .writes([acc_a])
        .done()
        .expect("valid activity");
    mb.activity("liar")
        .expect("fresh name")
        .instantaneous(0)
        .input_arc(src_b, 1)
        .output_gate("bump_b", move |m, _| m.add(acc_a, 1)) // writes acc_a...
        .reads([])
        .writes([acc_b]) // ...but declares acc_b
        .done()
        .expect("valid activity");
    mb.build().expect("valid model")
}

/// A planted disagreement between exact reachability and a (simulated)
/// stale structural analysis, for the `stale-bound` cross-check:
///
/// * `pump` feeds `acc` two tokens per layer, so exhaustive exploration
///   reaches `acc = 4` by layer 2 — but the returned structural claim
///   caps `acc` at 1 (stale bound);
/// * `spike` only enables once `acc >= 4`, so exhaustive exploration
///   proves it live — but the returned walk-coverage claim says it was
///   never enabled (stale liveness verdict).
///
/// Returns `(model, claimed structural bounds, claimed walk enablement)`.
/// Verifying with a horizon of at least 2 and cross-checking must raise
/// `stale-bound` for both claims.
#[must_use]
pub fn stale_bound_model() -> (Model, Vec<Option<i64>>, Vec<bool>) {
    let mut mb = ModelBuilder::new();
    let src = mb.place("src", 1).expect("fresh builder");
    let acc = mb.place("acc", 0).expect("fresh builder");
    mb.activity("pump")
        .expect("fresh name")
        .timed(vsched_des::Dist::Deterministic { value: 1.0 })
        .input_arc(src, 1)
        .output_arc(src, 1)
        .output_arc(acc, 2)
        .done()
        .expect("valid activity");
    mb.activity("spike")
        .expect("fresh name")
        .instantaneous(0)
        .input_arc(acc, 4)
        .done()
        .expect("valid activity");
    let model = mb.build().expect("valid model");
    // The claims a stale analysis would make: `src` correctly bounded at
    // 1, `acc` wrongly bounded at 1; `pump` seen enabled, `spike` not.
    (model, vec![Some(1), Some(1)], vec![true, false])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_shape() {
        let (model, expected) = broken_model();
        assert_eq!(model.num_places(), 4);
        assert_eq!(model.num_activities(), 3);
        assert_eq!(expected.len(), 1);
    }

    #[test]
    fn stale_fixture_shape() {
        let model = stale_read_set_model();
        assert_eq!(model.num_places(), 2);
        assert_eq!(model.num_activities(), 1);
    }

    #[test]
    fn stale_bound_fixture_trips_both_cross_checks() {
        use crate::verify_pass::{cross_check, verify_model, VerifyHooks, VerifyOpts};
        let (model, claimed_bounds, claimed_walk) = stale_bound_model();
        let report = verify_model(
            "fixture:stale-bound",
            &model,
            &VerifyHooks::default(),
            &[],
            &VerifyOpts {
                horizon: 3,
                ..VerifyOpts::default()
            },
        );
        assert_eq!(report.place_bounds[1], 4, "acc provably reaches 4");
        let diags = cross_check(&model, &report, &claimed_bounds, &claimed_walk);
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags
            .iter()
            .any(|d| d.lint == "stale-bound" && d.subject == "acc"));
        assert!(diags
            .iter()
            .any(|d| d.lint == "stale-bound" && d.subject == "spike"));
    }
}
