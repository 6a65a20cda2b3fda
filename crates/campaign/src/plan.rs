//! Grid expansion: from a [`SweepSpec`] to fully-resolved cells.
//!
//! Each experiment's `base` object is merged, at the JSON level, with one
//! point from every axis (cartesian product, row-major with the first axis
//! slowest) and then with each `extra` point on its own. Every merged
//! object is parsed into a [`CellConfig`] — which applies defaults, fixes
//! the canonical field order, and rejects unknown fields — and keyed.

use serde::Deserialize as _;
use serde_json::Value;

use crate::error::CampaignError;
use crate::key::cell_key;
use crate::spec::{CellConfig, ExperimentSpec, PointSpec, SweepSpec};

/// One fully-resolved cell of an experiment grid.
#[derive(Debug, Clone)]
pub struct PlannedCell {
    /// Content-addressed key (see [`crate::key`]).
    pub key: String,
    /// The resolved configuration.
    pub config: CellConfig,
    /// Display labels, one per axis (for grid cells) or a single label
    /// (for `extra` cells). Defaults to the compact JSON of the override.
    pub labels: Vec<String>,
}

/// One experiment, expanded.
#[derive(Debug, Clone)]
pub struct PlannedExperiment {
    /// Experiment name (also the output file stem).
    pub name: String,
    /// Renderer id.
    pub report: String,
    /// Axis names, in declaration order.
    pub axis_names: Vec<String>,
    /// Axis lengths, in declaration order.
    pub axis_lens: Vec<usize>,
    /// Number of grid cells (`axis_lens` product); `cells[..grid_cells]`
    /// is the grid, the remainder the `extra` cells. An experiment with no
    /// axes but some extras has no grid at all (`0`, not the empty
    /// product's `1`); with neither, the base is the single grid cell.
    pub grid_cells: usize,
    /// All cells: the grid row-major (first axis slowest), then extras.
    pub cells: Vec<PlannedCell>,
}

impl PlannedExperiment {
    /// The grid cell at the given per-axis coordinates.
    ///
    /// # Panics
    ///
    /// Panics if `coords` does not match the axis count or is out of range.
    #[must_use]
    pub fn cell_at(&self, coords: &[usize]) -> &PlannedCell {
        assert_eq!(coords.len(), self.axis_lens.len(), "coordinate arity");
        let mut idx = 0;
        for (c, len) in coords.iter().zip(&self.axis_lens) {
            assert!(c < len, "coordinate out of range");
            idx = idx * len + c;
        }
        &self.cells[idx]
    }
}

/// A fully-expanded campaign.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The experiments, in spec order.
    pub experiments: Vec<PlannedExperiment>,
}

impl Plan {
    /// Total number of cells across all experiments (with duplicates).
    #[must_use]
    pub fn total_cells(&self) -> usize {
        self.experiments.iter().map(|e| e.cells.len()).sum()
    }
}

/// Merges `overlay` (a JSON object) into `base` (a JSON object), replacing
/// existing keys and appending new ones.
fn merge_objects(base: &Value, overlay: &Value, context: &str) -> Result<Value, CampaignError> {
    let base_map = base
        .as_map()
        .ok_or_else(|| CampaignError::spec(format!("{context}: base must be a JSON object")))?;
    let overlay_map = overlay
        .as_map()
        .ok_or_else(|| CampaignError::spec(format!("{context}: override must be a JSON object")))?;
    let mut merged: Vec<(String, Value)> = base_map.to_vec();
    for (k, v) in overlay_map {
        match merged.iter_mut().find(|(mk, _)| mk == k) {
            Some((_, mv)) => *mv = v.clone(),
            None => merged.push((k.clone(), v.clone())),
        }
    }
    Ok(Value::Map(merged))
}

fn resolve_cell(merged: &Value, context: &str) -> Result<PlannedCell, CampaignError> {
    let config = CellConfig::deserialize_content(merged)
        .map_err(|e| CampaignError::spec(format!("{context}: {e}")))?;
    // Out-of-range parameters (zero timeslice, empty replication budget,
    // bad policy params) fail at plan time, before anything is hashed into
    // the store or simulated.
    config
        .validate()
        .map_err(|e| CampaignError::spec(format!("{context}: {e}")))?;
    // Round-trip sanity: the canonical form must itself parse (guards the
    // store against un-reloadable entries).
    let key = cell_key(&config);
    Ok(PlannedCell {
        key,
        config,
        labels: Vec::new(),
    })
}

fn point_label(point: &PointSpec) -> String {
    point
        .label
        .clone()
        .unwrap_or_else(|| point.set.to_json_string())
}

fn expand_experiment(exp: &ExperimentSpec) -> Result<PlannedExperiment, CampaignError> {
    let axis_names: Vec<String> = exp.axes.iter().map(|a| a.name.clone()).collect();
    let axis_lens: Vec<usize> = exp.axes.iter().map(|a| a.points.len()).collect();
    for axis in &exp.axes {
        if axis.points.is_empty() {
            return Err(CampaignError::spec(format!(
                "experiment `{}`: axis `{}` has no points",
                exp.name, axis.name
            )));
        }
    }
    // No axes means no grid — the experiment is the `extra` enumeration
    // alone. Without extras either, the base itself is the single cell
    // (the empty product).
    let grid_cells: usize = if exp.axes.is_empty() && !exp.extra.is_empty() {
        0
    } else {
        axis_lens.iter().product()
    };
    let mut cells = Vec::with_capacity(grid_cells + exp.extra.len());
    for idx in 0..grid_cells {
        // Row-major decomposition: first axis slowest.
        let mut rem = idx;
        let mut coords = vec![0usize; axis_lens.len()];
        for (i, len) in axis_lens.iter().enumerate().rev() {
            coords[i] = rem % len;
            rem /= len;
        }
        let mut merged = exp.base.clone();
        let mut labels = Vec::with_capacity(coords.len());
        for (axis, &c) in exp.axes.iter().zip(&coords) {
            let point = &axis.points[c];
            let context = format!("experiment `{}`, axis `{}`, point {c}", exp.name, axis.name);
            merged = merge_objects(&merged, &point.set, &context)?;
            labels.push(point_label(point));
        }
        let context = format!("experiment `{}`, grid cell {idx}", exp.name);
        let mut cell = resolve_cell(&merged, &context)?;
        cell.labels = labels;
        cells.push(cell);
    }
    for (i, point) in exp.extra.iter().enumerate() {
        let context = format!("experiment `{}`, extra cell {i}", exp.name);
        let merged = merge_objects(&exp.base, &point.set, &context)?;
        let mut cell = resolve_cell(&merged, &context)?;
        cell.labels = vec![point_label(point)];
        cells.push(cell);
    }
    Ok(PlannedExperiment {
        name: exp.name.clone(),
        report: exp.report.clone(),
        axis_names,
        axis_lens,
        grid_cells,
        cells,
    })
}

/// Expands every experiment of a spec into its grid of keyed cells.
///
/// # Errors
///
/// [`CampaignError::Spec`] when a base or override is not a JSON object,
/// an axis is empty, or a merged cell fails to parse as a [`CellConfig`]
/// (including unknown-field typos).
pub fn plan(spec: &SweepSpec) -> Result<Plan, CampaignError> {
    let experiments = spec
        .experiments
        .iter()
        .map(expand_experiment)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Plan { experiments })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{EngineSpec, PolicySpec};

    fn spec(json: &str) -> SweepSpec {
        SweepSpec::from_json(json).unwrap()
    }

    const GRID: &str = r#"{
        "experiments": [ {
            "name": "demo",
            "base": { "pcpus": 4, "vms": [2, 4] },
            "axes": [
                { "name": "sync", "points": [
                    { "set": { "sync_ratio": [1, 5] } },
                    { "set": { "sync_ratio": [1, 2] } } ] },
                { "name": "policy", "points": [
                    { "set": { "policy": "rrs" } },
                    { "set": { "policy": "scs" } },
                    { "set": { "policy": "rcs" } } ] }
            ],
            "extra": [ { "label": "direct check",
                         "set": { "engine": "direct" } } ]
        } ]
    }"#;

    #[test]
    fn grid_expands_row_major() {
        let p = plan(&spec(GRID)).unwrap();
        let exp = &p.experiments[0];
        assert_eq!(exp.grid_cells, 6);
        assert_eq!(exp.cells.len(), 7);
        assert_eq!(exp.axis_lens, vec![2, 3]);
        // First axis slowest: cells 0-2 are sync 1:5 with rrs/scs/rcs.
        assert_eq!(exp.cells[0].config.sync_ratio, (1, 5));
        assert_eq!(exp.cells[3].config.sync_ratio, (1, 2));
        assert_eq!(exp.cells[1].config.policy, PolicySpec::Label("scs".into()));
        // cell_at agrees with the flat layout.
        assert_eq!(exp.cell_at(&[1, 2]).key, exp.cells[5].key);
        // The extra cell carries its label and the engine override.
        let extra = &exp.cells[6];
        assert_eq!(extra.labels, vec!["direct check".to_string()]);
        assert_eq!(extra.config.engine, EngineSpec::Direct);
    }

    #[test]
    fn default_labels_are_override_json() {
        let p = plan(&spec(GRID)).unwrap();
        assert_eq!(
            p.experiments[0].cells[0].labels[0],
            r#"{"sync_ratio":[1,5]}"#
        );
    }

    #[test]
    fn identical_cells_share_keys_across_experiments() {
        let two = spec(
            r#"{ "experiments": [
                { "name": "a", "base": { "pcpus": 4, "vms": [2, 4] } },
                { "name": "b",
                  "base": { "pcpus": 4, "vms": [2, 4], "sync_ratio": [1, 5] } } ] }"#,
        );
        let p = plan(&two).unwrap();
        assert_eq!(
            p.experiments[0].cells[0].key, p.experiments[1].cells[0].key,
            "default-vs-explicit spelling must dedup"
        );
        assert_eq!(p.total_cells(), 2);
    }

    #[test]
    fn axisless_experiment_with_extras_has_no_grid_cell() {
        let p = plan(&spec(
            r#"{ "experiments": [ {
                "name": "enumerated",
                "base": { "pcpus": 4, "vms": [2, 4] },
                "extra": [
                    { "set": { "policy": "rrs" } },
                    { "set": { "policy": "scs" } } ] } ] }"#,
        ))
        .unwrap();
        let exp = &p.experiments[0];
        assert_eq!(exp.grid_cells, 0, "no axes + extras means no base cell");
        assert_eq!(exp.cells.len(), 2);
        // Without extras the base is still the single (empty-product) cell.
        let p = plan(&spec(
            r#"{ "experiments": [ {
                "name": "single",
                "base": { "pcpus": 4, "vms": [2, 4] } } ] }"#,
        ))
        .unwrap();
        assert_eq!(p.experiments[0].grid_cells, 1);
        assert_eq!(p.experiments[0].cells.len(), 1);
    }

    #[test]
    fn bad_specs_are_rejected() {
        // Typo inside an axis override.
        let bad = spec(
            r#"{ "experiments": [ {
                "name": "demo",
                "base": { "pcpus": 4, "vms": [2] },
                "axes": [ { "name": "ts", "points": [
                    { "set": { "timeslise": 10 } } ] } ] } ] }"#,
        );
        let err = plan(&bad).unwrap_err();
        assert!(err.to_string().contains("timeslise"), "{err}");
        // Non-object override.
        let bad = spec(
            r#"{ "experiments": [ {
                "name": "demo",
                "base": { "pcpus": 4, "vms": [2] },
                "axes": [ { "name": "ts", "points": [ { "set": 10 } ] } ] } ] }"#,
        );
        assert!(plan(&bad).is_err());
        // Empty axis.
        let bad = spec(
            r#"{ "experiments": [ {
                "name": "demo",
                "base": { "pcpus": 4, "vms": [2] },
                "axes": [ { "name": "ts", "points": [] } ] } ] }"#,
        );
        assert!(plan(&bad).is_err());
        // A field the cell format no longer has is an unknown field like
        // any other.
        let bad = spec(
            r#"{ "experiments": [ {
                "name": "legacy",
                "base": { "pcpus": 4, "vms": [2], "shards": 4 } } ] }"#,
        );
        let err = plan(&bad).unwrap_err().to_string();
        assert!(err.contains("experiment `legacy`"), "{err}");
        assert!(err.contains("unknown field `shards`"), "{err}");
    }
}
