//! Figure renderers: from stored cell results to the tables and JSON
//! documents of the paper's figures (`bench_results/*.json`).
//!
//! A renderer is selected by the experiment's `report` id and consumes the
//! experiment's cells *in planned order* (grid row-major, then extras), so
//! each renderer just re-applies its figure's nesting structure. Because
//! renderers always read from the store — never from in-memory results of
//! the current run — a warm re-render is byte-for-byte identical to the
//! cold run that populated the store.

use serde_json::json;

use crate::error::CampaignError;
use crate::plan::PlannedExperiment;
use crate::spec::{CellConfig, PolicySpec};
use crate::store::StoredCell;
use crate::table::{ci_cell, Table};

/// A rendered figure: console text plus the JSON document.
#[derive(Debug, Clone)]
pub struct RenderedFigure {
    /// The experiment name (and output file stem).
    pub name: String,
    /// The console output: aligned table plus commentary.
    pub text: String,
    /// The JSON document written to `<name>.json`.
    pub json: serde_json::Value,
}

/// Renders an experiment from its stored cells (aligned with
/// `exp.cells`).
///
/// # Errors
///
/// [`CampaignError::Spec`] for an unknown report id or a cell/report
/// shape mismatch.
pub fn render(
    exp: &PlannedExperiment,
    cells: &[StoredCell],
) -> Result<RenderedFigure, CampaignError> {
    if cells.len() != exp.cells.len() {
        return Err(CampaignError::spec(format!(
            "experiment `{}`: {} stored cells for {} planned",
            exp.name,
            cells.len(),
            exp.cells.len()
        )));
    }
    let (text, json) = match exp.report.as_str() {
        "fig8" => fig8(exp, cells)?,
        "fig9" => fig9(exp, cells)?,
        "fig10" => fig10(exp, cells)?,
        "abl_timeslice" => abl_timeslice(exp, cells)?,
        "abl_skew" => abl_skew(exp, cells)?,
        "abl_workload" => abl_workload(exp, cells)?,
        "abl_syncpattern" => abl_syncpattern(exp, cells)?,
        "ext_spinlock" => ext_spinlock(exp, cells)?,
        "ext_policy_roundup" => ext_policy_roundup(exp, cells)?,
        "val_engines" => val_engines(exp, cells)?,
        "summary" => summary(exp, cells)?,
        other => {
            return Err(CampaignError::spec(format!(
                "experiment `{}`: unknown report `{other}`",
                exp.name
            )))
        }
    };
    Ok(RenderedFigure {
        name: exp.name.clone(),
        text,
        json,
    })
}

type Rendered = Result<(String, serde_json::Value), CampaignError>;

fn text_of(table: &Table, epilogue: &[String]) -> String {
    let mut text = table.render();
    text.push('\n');
    for line in epilogue {
        text.push_str(line);
        text.push('\n');
    }
    text
}

fn lines(strs: &[&str]) -> Vec<String> {
    strs.iter().map(|s| (*s).to_string()).collect()
}

fn policy_label(config: &CellConfig) -> Result<&'static str, CampaignError> {
    Ok(config.policy.to_kind()?.label())
}

fn vms_joined(config: &CellConfig) -> String {
    config
        .vms
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join("+")
}

fn sync_label(config: &CellConfig) -> String {
    format!("{}:{}", config.sync_ratio.0, config.sync_ratio.1)
}

fn expect_grid(
    exp: &PlannedExperiment,
    lens: &[usize],
    extras: usize,
) -> Result<(), CampaignError> {
    if exp.axis_lens != lens || exp.cells.len() != exp.grid_cells + extras {
        return Err(CampaignError::spec(format!(
            "experiment `{}`: report `{}` needs axes {lens:?} plus {extras} extra cells, \
             got axes {:?} plus {} extras",
            exp.name,
            exp.report,
            exp.axis_lens,
            exp.cells.len() - exp.grid_cells
        )));
    }
    Ok(())
}

fn spread(xs: &[f64]) -> f64 {
    let max = xs.iter().copied().fold(f64::MIN, f64::max);
    let min = xs.iter().copied().fold(f64::MAX, f64::min);
    max - min
}

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

fn fig8(exp: &PlannedExperiment, cells: &[StoredCell]) -> Rendered {
    expect_grid(exp, &[4, 3], 0)?;
    let mut table = Table::new(
        "Figure 8: VCPU availability, VMs {2,1,1}, sync 1:5 (95% CI)",
        &[
            "PCPUs", "policy", "reps", "VCPU1.1", "VCPU1.2", "VCPU2.1", "VCPU3.1",
        ],
    );
    let mut json_rows = Vec::new();
    for cell in cells {
        let report = &cell.report;
        let row_cells: Vec<String> = report.vcpu_availability.iter().map(ci_cell).collect();
        table.row(
            [
                cell.config.pcpus.to_string(),
                policy_label(&cell.config)?.to_string(),
                report.replications.to_string(),
            ]
            .into_iter()
            .chain(row_cells)
            .collect(),
        );
        json_rows.push(json!({
            "pcpus": cell.config.pcpus,
            "policy": policy_label(&cell.config)?,
            "replications": report.replications,
            "availability_mean": report.vcpu_availability_means(),
            "availability_half_width": report
                .vcpu_availability
                .iter()
                .map(|ci| ci.half_width)
                .collect::<Vec<_>>(),
        }));
    }
    let epilogue = lines(&[
        "",
        "paper shape checks:",
        "  - RRS rows are uniform across all four VCPUs at every PCPU count",
        "  - SCS at 1 PCPU starves VCPU1.1/VCPU1.2 (strict co-start impossible)",
        "  - RCS at 1 PCPU serves VCPU1.1/VCPU1.2, but below the 1-VCPU VMs",
        "  - all policies converge toward full availability at 4 PCPUs",
    ]);
    Ok((text_of(&table, &epilogue), json!({ "rows": json_rows })))
}

fn fig9(exp: &PlannedExperiment, cells: &[StoredCell]) -> Rendered {
    expect_grid(exp, &[3, 3], 0)?;
    let mut table = Table::new(
        "Figure 9: average PCPU utilization, 4 PCPUs, sync 1:5 (95% CI)",
        &["VM set", "VCPUs", "policy", "reps", "avg PCPU util", "±"],
    );
    let mut json_rows = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        let set_idx = i / exp.axis_lens[1];
        let report = &cell.report;
        let mean = report.avg_pcpu_utilization();
        // Conservative aggregate half-width: the max across PCPUs.
        let hw = report
            .pcpu_utilization
            .iter()
            .map(|ci| ci.half_width)
            .fold(0.0, f64::max);
        table.row(vec![
            format!("set {}", set_idx + 1),
            vms_joined(&cell.config),
            policy_label(&cell.config)?.to_string(),
            report.replications.to_string(),
            format!("{mean:.3}"),
            format!("{hw:.3}"),
        ]);
        json_rows.push(json!({
            "set": set_idx + 1,
            "vms": cell.config.vms,
            "policy": policy_label(&cell.config)?,
            "replications": report.replications,
            "avg_pcpu_utilization": mean,
            "per_pcpu_mean": report.pcpu_utilization_means(),
        }));
    }
    let epilogue = lines(&[
        "",
        "paper shape checks:",
        "  - set 1 (4 VCPUs = 4 PCPUs): every policy saturates the PCPUs",
        "  - sets 2-3 (VCPUs > PCPUs): SCS loses PCPU time to fragmentation",
        "  - RCS stays above 90% PCPU utilization in every set",
    ]);
    Ok((text_of(&table, &epilogue), json!({ "rows": json_rows })))
}

fn fig10(exp: &PlannedExperiment, cells: &[StoredCell]) -> Rendered {
    expect_grid(exp, &[3, 4, 3], 0)?;
    let policies = exp.axis_lens[2];
    let mut table = Table::new(
        "Figure 10: average VCPU utilization, 4 PCPUs (95% CI)",
        &["VM set", "VCPUs", "sync", "RRS", "SCS", "RCS"],
    );
    let mut json_rows = Vec::new();
    for (chunk_idx, chunk) in cells.chunks(policies).enumerate() {
        let set_idx = chunk_idx / exp.axis_lens[1];
        let first = &chunk[0];
        let mut row_cells = Vec::new();
        let mut cell_json = serde_json::Map::new();
        for cell in chunk {
            let mean = cell.report.avg_vcpu_utilization();
            row_cells.push(format!("{mean:.3}"));
            cell_json.insert(policy_label(&cell.config)?.to_string(), json!(mean));
        }
        table.row(
            [
                format!("set {}", set_idx + 1),
                vms_joined(&first.config),
                sync_label(&first.config),
            ]
            .into_iter()
            .chain(row_cells)
            .collect(),
        );
        json_rows.push(json!({
            "set": set_idx + 1,
            "vms": first.config.vms,
            "sync": sync_label(&first.config),
            "utilization": cell_json,
        }));
    }
    let epilogue = lines(&[
        "",
        "paper shape checks:",
        "  - set 1 (VCPUs = PCPUs): utilization high, no difference between policies",
        "  - sets 2-3 (VCPUs > PCPUs): SCS highest, RCS slightly lower, RRS last",
        "  - RRS degrades sharply as the sync rate rises 1:5 -> 1:2",
    ]);
    Ok((text_of(&table, &epilogue), json!({ "rows": json_rows })))
}

fn abl_timeslice(exp: &PlannedExperiment, cells: &[StoredCell]) -> Rendered {
    expect_grid(exp, &[6, 3], 0)?;
    let mut table = Table::new(
        "ABL1: avg VCPU utilization vs timeslice, VMs {2,4}, 4 PCPUs, sync 1:5",
        &["timeslice", "RRS", "SCS", "RCS", "SCS-RRS gap"],
    );
    let mut rows = Vec::new();
    for chunk in cells.chunks(exp.axis_lens[1]) {
        let utils: Vec<f64> = chunk
            .iter()
            .map(|c| c.report.avg_vcpu_utilization())
            .collect();
        let timeslice = chunk[0].config.timeslice;
        table.row(vec![
            timeslice.to_string(),
            format!("{:.3}", utils[0]),
            format!("{:.3}", utils[1]),
            format!("{:.3}", utils[2]),
            format!("{:+.3}", utils[1] - utils[0]),
        ]);
        rows.push(json!({
            "timeslice": timeslice,
            "rrs": utils[0],
            "scs": utils[1],
            "rcs": utils[2],
        }));
    }
    let epilogue = lines(&[
        "",
        "expected: the SCS-RRS gap grows with the timeslice; SCS is flat.",
    ]);
    Ok((text_of(&table, &epilogue), json!({ "rows": rows })))
}

fn rcs_threshold(config: &CellConfig) -> Result<u64, CampaignError> {
    match &config.policy {
        PolicySpec::Rcs { rcs } => Ok(rcs.skew_threshold),
        other => Err(CampaignError::spec(format!(
            "abl_skew grid cell must use a parameterized rcs policy, got {other:?}"
        ))),
    }
}

fn abl_skew(exp: &PlannedExperiment, cells: &[StoredCell]) -> Rendered {
    expect_grid(exp, &[6, 2], 2)?;
    let mut table = Table::new(
        "ABL2: RCS skew threshold sweep (resume = threshold/2)",
        &[
            "threshold",
            "util {2,4}@4P",
            "pcpu util",
            "avail spread {2,1,1}@1P",
            "SMP VM avail",
        ],
    );
    let mut rows = Vec::new();
    for pair in cells[..exp.grid_cells].chunks(2) {
        let (eff, fair) = (&pair[0].report, &pair[1].report);
        let threshold = rcs_threshold(&pair[0].config)?;
        let smp_avail =
            (fair.vcpu_availability_means()[0] + fair.vcpu_availability_means()[1]) / 2.0;
        table.row(vec![
            threshold.to_string(),
            format!("{:.3}", eff.avg_vcpu_utilization()),
            format!("{:.3}", eff.avg_pcpu_utilization()),
            format!("{:.3}", spread(&fair.vcpu_availability_means())),
            format!("{smp_avail:.3}"),
        ]);
        rows.push(json!({
            "threshold": threshold,
            "vcpu_utilization": eff.avg_vcpu_utilization(),
            "pcpu_utilization": eff.avg_pcpu_utilization(),
            "availability_spread": spread(&fair.vcpu_availability_means()),
            "smp_vm_availability": smp_avail,
        }));
    }
    // Anchors for comparison (the two extra cells: RRS then SCS).
    let rrs = &cells[exp.grid_cells].report;
    let scs = &cells[exp.grid_cells + 1].report;
    let mut epilogue = lines(&[""]);
    epilogue.push(format!(
        "anchors on the efficiency axis: RRS = {:.3}, SCS = {:.3}",
        rrs.avg_vcpu_utilization(),
        scs.avg_vcpu_utilization()
    ));
    epilogue.push(
        "expected: tight thresholds approach SCS efficiency; loose ones approach RRS.".into(),
    );
    Ok((text_of(&table, &epilogue), json!({ "rows": rows })))
}

fn abl_workload(exp: &PlannedExperiment, cells: &[StoredCell]) -> Rendered {
    expect_grid(exp, &[8, 3], 0)?;
    let mut table = Table::new(
        "ABL3: avg VCPU utilization by load distribution, VMs {2,4}, 4 PCPUs, sync 1:5",
        &["load", "RRS", "SCS", "RCS", "SCS-RRS gap"],
    );
    let mut rows = Vec::new();
    for (chunk_idx, chunk) in cells.chunks(exp.axis_lens[1]).enumerate() {
        let name = &exp.cells[chunk_idx * exp.axis_lens[1]].labels[0];
        let utils: Vec<f64> = chunk
            .iter()
            .map(|c| c.report.avg_vcpu_utilization())
            .collect();
        table.row(vec![
            name.clone(),
            format!("{:.3}", utils[0]),
            format!("{:.3}", utils[1]),
            format!("{:.3}", utils[2]),
            format!("{:+.3}", utils[1] - utils[0]),
        ]);
        rows.push(json!({
            "load": name,
            "rrs": utils[0],
            "scs": utils[1],
            "rcs": utils[2],
        }));
    }
    let epilogue = lines(&[
        "",
        "expected: positive SCS-RRS gap for low-variance loads;",
        "          ~zero gap for resonant deterministic loads;",
        "          shrinking/negative gap for heavy-tailed loads.",
    ]);
    Ok((text_of(&table, &epilogue), json!({ "rows": rows })))
}

fn abl_syncpattern(exp: &PlannedExperiment, cells: &[StoredCell]) -> Rendered {
    expect_grid(exp, &[], 18)?;
    let mut table = Table::new(
        "ABL4: Bernoulli vs every-k-th sync points, VMs {2,4}, 4 PCPUs (avg VCPU util)",
        &["sync", "policy", "Bernoulli", "every k-th", "|Δ|"],
    );
    let mut rows = Vec::new();
    for pair in cells.chunks(2) {
        let bern_cell = &pair[0];
        let every_cell = &pair[1];
        if every_cell.config.sync_every.is_none() || bern_cell.config.sync_every.is_some() {
            return Err(CampaignError::spec(
                "abl_syncpattern extras must alternate Bernoulli / every-k-th",
            ));
        }
        let bernoulli = bern_cell.report.avg_vcpu_utilization();
        let every_kth = every_cell.report.avg_vcpu_utilization();
        table.row(vec![
            sync_label(&bern_cell.config),
            policy_label(&bern_cell.config)?.to_string(),
            format!("{bernoulli:.3}"),
            format!("{every_kth:.3}"),
            format!("{:.3}", (bernoulli - every_kth).abs()),
        ]);
        rows.push(json!({
            "sync": sync_label(&bern_cell.config),
            "policy": policy_label(&bern_cell.config)?,
            "bernoulli": bernoulli,
            "every_kth": every_kth,
        }));
    }
    let epilogue = lines(&[
        "",
        "expected: small |Δ| everywhere — the figures do not hinge on how the",
        "paper's ratio sentence is read.",
    ]);
    Ok((text_of(&table, &epilogue), json!({ "rows": rows })))
}

fn ext_spinlock(exp: &PlannedExperiment, cells: &[StoredCell]) -> Rendered {
    expect_grid(exp, &[2, 2, 3], 0)?;
    let mut table = Table::new(
        "EXT1: spinlock critical sections, 4 PCPUs (useful util / spin waste)",
        &["VM set", "sync", "policy", "useful", "spin", "avail"],
    );
    let mut rows = Vec::new();
    for cell in cells {
        let report = &cell.report;
        table.row(vec![
            vms_joined(&cell.config),
            sync_label(&cell.config),
            policy_label(&cell.config)?.to_string(),
            format!("{:.3}", report.avg_vcpu_utilization()),
            format!("{:.3}", report.avg_vcpu_spin()),
            format!("{:.3}", report.avg_vcpu_availability()),
        ]);
        rows.push(json!({
            "vms": cell.config.vms,
            "sync": sync_label(&cell.config),
            "policy": policy_label(&cell.config)?,
            "useful_utilization": report.avg_vcpu_utilization(),
            "spin_fraction": report.avg_vcpu_spin(),
            "availability": report.avg_vcpu_availability(),
        }));
    }
    let epilogue = lines(&[
        "",
        "expected: co-scheduling converts RRS's holder-preemption spin into useful",
        "work; the residual spin under SCS is the intrinsic contention of",
        "concurrent critical sections.",
    ]);
    Ok((text_of(&table, &epilogue), json!({ "rows": rows })))
}

fn ext_policy_roundup(exp: &PlannedExperiment, cells: &[StoredCell]) -> Rendered {
    expect_grid(exp, &[8, 2], 0)?;
    let mut table = Table::new(
        "EXT2: all eight schedulers on the paper's two regimes",
        &[
            "policy",
            "fair spread {2,1,1}@2P",
            "min avail",
            "util {2,4}@4P",
            "pcpu util",
        ],
    );
    let mut rows = Vec::new();
    for pair in cells.chunks(2) {
        let (fair, over) = (&pair[0].report, &pair[1].report);
        let label = policy_label(&pair[0].config)?;
        let avail = fair.vcpu_availability_means();
        let min_avail = avail.iter().copied().fold(f64::MAX, f64::min);
        table.row(vec![
            label.to_string(),
            format!("{:.3}", spread(&avail)),
            format!("{min_avail:.3}"),
            format!("{:.3}", over.avg_vcpu_utilization()),
            format!("{:.3}", over.avg_pcpu_utilization()),
        ]);
        rows.push(json!({
            "policy": label,
            "fairness_spread": spread(&avail),
            "min_availability": min_avail,
            "vcpu_utilization": over.avg_vcpu_utilization(),
            "pcpu_utilization": over.avg_pcpu_utilization(),
        }));
    }
    let epilogue = lines(&[
        "",
        "reading guide: a good general-purpose scheduler has a small fairness",
        "spread, non-zero min availability (no starvation), high VCPU",
        "utilization (low sync latency) and high PCPU utilization (no",
        "fragmentation) — the four axes the paper's three figures trade off.",
        "",
        "note: CRD and SEDF show a large *per-VCPU* spread by design — they are",
        "VM-entitlement-fair: on {2,1,1} VMs each VM earns an equal share, so a",
        "2-VCPU VM's VCPUs each receive half of what a lone VCPU does.",
    ]);
    Ok((text_of(&table, &epilogue), json!({ "rows": rows })))
}

fn val_engines(exp: &PlannedExperiment, cells: &[StoredCell]) -> Rendered {
    expect_grid(exp, &[4, 3, 2], 0)?;
    let mut table = Table::new(
        "VAL1: SAN vs direct engine, max |Δ| per metric",
        &["config", "policy", "Δ avail", "Δ vcpu util", "Δ pcpu util"],
    );
    let mut rows = Vec::new();
    let mut worst: f64 = 0.0;
    for (pair_idx, pair) in cells.chunks(2).enumerate() {
        let name = &exp.cells[pair_idx * 2].labels[0];
        let (san, direct) = (&pair[0].report, &pair[1].report);
        let d_avail = max_abs_diff(
            &san.vcpu_availability_means(),
            &direct.vcpu_availability_means(),
        );
        let d_util = max_abs_diff(
            &san.vcpu_utilization_means(),
            &direct.vcpu_utilization_means(),
        );
        let d_pcpu = max_abs_diff(
            &san.pcpu_utilization_means(),
            &direct.pcpu_utilization_means(),
        );
        worst = worst.max(d_avail).max(d_util).max(d_pcpu);
        table.row(vec![
            name.clone(),
            policy_label(&pair[0].config)?.to_string(),
            format!("{d_avail:.4}"),
            format!("{d_util:.4}"),
            format!("{d_pcpu:.4}"),
        ]);
        rows.push(json!({
            "config": name,
            "policy": policy_label(&pair[0].config)?,
            "delta_availability": d_avail,
            "delta_vcpu_utilization": d_util,
            "delta_pcpu_utilization": d_pcpu,
        }));
    }
    let mut epilogue = lines(&[""]);
    epilogue.push(format!("worst disagreement across all cells: {worst:.4}"));
    epilogue.push("(the paper's reporting criterion is a CI width of 0.1, i.e. ±0.05)".into());
    Ok((
        text_of(&table, &epilogue),
        json!({ "rows": rows, "worst": worst }),
    ))
}

fn summary(exp: &PlannedExperiment, cells: &[StoredCell]) -> Rendered {
    let mut table = Table::new(
        format!("{}: campaign summary", exp.name),
        &[
            "cell",
            "policy",
            "engine",
            "reps",
            "avail",
            "vcpu util",
            "pcpu util",
        ],
    );
    let mut rows = Vec::new();
    for (planned, cell) in exp.cells.iter().zip(cells) {
        let report = &cell.report;
        let label = if planned.labels.is_empty() {
            cell.config.summary()?
        } else {
            planned.labels.join(" / ")
        };
        table.row(vec![
            label.clone(),
            policy_label(&cell.config)?.to_string(),
            cell.config.engine.label().to_string(),
            report.replications.to_string(),
            format!("{:.3}", report.avg_vcpu_availability()),
            format!("{:.3}", report.avg_vcpu_utilization()),
            format!("{:.3}", report.avg_pcpu_utilization()),
        ]);
        rows.push(json!({
            "cell": label,
            "key": cell.key,
            "policy": policy_label(&cell.config)?,
            "engine": cell.config.engine.label(),
            "replications": report.replications,
            "avg_availability": report.avg_vcpu_availability(),
            "avg_vcpu_utilization": report.avg_vcpu_utilization(),
            "avg_pcpu_utilization": report.avg_pcpu_utilization(),
        }));
    }
    Ok((text_of(&table, &[]), json!({ "rows": rows })))
}
