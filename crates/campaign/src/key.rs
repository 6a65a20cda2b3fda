//! Content-addressed cell keys.
//!
//! A cell's key is a 64-bit FNV-1a hash over the engine version string and
//! the cell's canonical JSON (the serialized [`CellConfig`], which fixes
//! field order and materializes defaults — see [`crate::spec`]). The key
//! therefore changes exactly when something that can change the simulation
//! *result* changes:
//!
//! * any resolved config field (policy, topology, workload, horizon, seed, …),
//! * the engine version constant, bumped when simulation semantics change.
//!
//! Two spellings of the same cell — in different experiments, or relying on
//! defaults vs. writing them out — collapse to one key, so a campaign runs
//! each distinct simulation once no matter how many figures consume it.

use vsched_core::Fnv;

use crate::spec::CellConfig;

/// Version tag of the simulation semantics baked into every cell key.
///
/// Bump this whenever a change to the kernel, the engines, the policies,
/// or replication seeding could alter simulation output: every existing
/// store entry then misses and is recomputed, rather than silently serving
/// stale numbers.
pub const ENGINE_VERSION: &str = "vsched-engine/1";

/// The canonical serialized form of a cell — what [`cell_key`] hashes.
#[must_use]
pub fn canonical_json(config: &CellConfig) -> String {
    serde_json::to_string(config).expect("CellConfig serialization is infallible")
}

/// Computes the content-addressed key of a cell, as 16 lower-case hex
/// digits.
#[must_use]
pub fn cell_key(config: &CellConfig) -> String {
    let mut h = Fnv::new();
    h.write(ENGINE_VERSION.as_bytes());
    h.write(b"\0");
    h.write(canonical_json(config).as_bytes());
    format!("{:016x}", h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(json: &str) -> CellConfig {
        serde_json::from_str(json).unwrap()
    }

    #[test]
    fn fnv1a_known_vectors() {
        // Standard FNV-1a 64-bit test vectors, through the hasher keys use.
        let fnv1a = |bytes: &[u8]| {
            let mut h = Fnv::new();
            h.write(bytes);
            h.finish()
        };
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn key_is_stable_and_spelling_insensitive() {
        // Omitted defaults and written-out defaults hash identically.
        let implicit = cell(r#"{ "pcpus": 4, "vms": [2, 4] }"#);
        let explicit = cell(
            r#"{ "pcpus": 4, "vms": [2, 4], "sync_ratio": [1, 5], "timeslice": 30,
                 "engine": "san", "warmup": 1000, "horizon": 20000, "seed": 24301 }"#,
        );
        assert_eq!(canonical_json(&implicit), canonical_json(&explicit));
        assert_eq!(cell_key(&implicit), cell_key(&explicit));
        assert_eq!(cell_key(&implicit).len(), 16);
    }

    #[test]
    fn key_changes_with_any_axis() {
        let base = cell(r#"{ "pcpus": 4, "vms": [2, 4] }"#);
        let variants = [
            r#"{ "pcpus": 3, "vms": [2, 4] }"#,
            r#"{ "pcpus": 4, "vms": [2, 3] }"#,
            r#"{ "pcpus": 4, "vms": [2, 4], "sync_ratio": [1, 2] }"#,
            r#"{ "pcpus": 4, "vms": [2, 4], "timeslice": 10 }"#,
            r#"{ "pcpus": 4, "vms": [2, 4], "policy": "scs" }"#,
            r#"{ "pcpus": 4, "vms": [2, 4], "engine": "direct" }"#,
            r#"{ "pcpus": 4, "vms": [2, 4], "seed": 1 }"#,
            r#"{ "pcpus": 4, "vms": [2, 4], "replications": 5 }"#,
        ];
        let base_key = cell_key(&base);
        for v in variants {
            assert_ne!(cell_key(&cell(v)), base_key, "variant {v} must rekey");
        }
    }
}
