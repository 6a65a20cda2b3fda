//! The campaign front door: load a spec, plan it, run it, render it.
//!
//! [`run_sweep`] is what the `vsched sweep` CLI subcommand calls. One
//! invocation:
//!
//! 1. loads and validates the spec,
//! 2. expands every experiment into keyed cells ([`mod@crate::plan`]),
//! 3. dedupes cells *across* experiments and simulates whatever the store
//!    is missing ([`crate::orchestrator`]),
//! 4. re-loads every cell from the store and renders the figures
//!    ([`mod@crate::render`]), writing each `<name>.json` atomically.
//!
//! Step 4 always reads from the store, never from in-memory results, so a
//! warm invocation (everything cached, zero simulations) produces
//! byte-identical output to the cold one.

use std::path::{Path, PathBuf};

use crate::console::STDOUT;
use crate::error::CampaignError;
use crate::fsio::write_atomic;
use crate::orchestrator::{dedup_cells, ensure_cells};
use crate::plan::{plan, PlannedCell, PlannedExperiment};
use crate::render::{render, RenderedFigure};
use crate::spec::SweepSpec;
use crate::store::{ResultStore, StoredCell};

/// Knobs for one [`run_sweep`] invocation.
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Result-store directory; overrides the spec's `store` field.
    pub store_dir: Option<PathBuf>,
    /// Figure output directory; overrides the spec's `output` field.
    pub out_dir: Option<PathBuf>,
    /// Worker threads for cell simulation; `None` for one per core.
    pub jobs: Option<usize>,
    /// Run only the experiment with this name.
    pub only: Option<String>,
    /// Simulate at most this many missing cells, then stop without
    /// rendering incomplete experiments (the kill-mid-campaign test hook).
    pub max_cells: Option<usize>,
    /// Plan and report, but simulate and render nothing.
    pub dry_run: bool,
    /// Suppress all stdout (tables, progress, summary).
    pub quiet: bool,
}

/// What a sweep did.
#[derive(Debug)]
pub struct SweepOutcome {
    /// The rendered figures, in experiment order.
    pub figures: Vec<RenderedFigure>,
    /// Total planned cells across the selected experiments (with
    /// cross-experiment duplicates).
    pub planned_cells: usize,
    /// Distinct cells after key dedup.
    pub unique_cells: usize,
    /// Distinct cells served from the store.
    pub cached: usize,
    /// Distinct cells simulated by this invocation.
    pub simulated: usize,
    /// Experiments left unrendered because cells are still missing (only
    /// possible under `max_cells` or `dry_run`).
    pub skipped_experiments: Vec<String>,
}

fn resolve_dir(
    spec_dir: &Path,
    explicit: Option<&Path>,
    from_spec: Option<&str>,
    default: &str,
) -> PathBuf {
    match explicit {
        Some(p) => p.to_path_buf(),
        None => spec_dir.join(from_spec.unwrap_or(default)),
    }
}

fn collect_stored(
    store: &ResultStore,
    exp: &PlannedExperiment,
) -> Result<Option<Vec<StoredCell>>, CampaignError> {
    let mut out = Vec::with_capacity(exp.cells.len());
    for cell in &exp.cells {
        match store.load(&cell.key)? {
            Some(stored) => out.push(stored),
            None => return Ok(None),
        }
    }
    Ok(Some(out))
}

/// Runs a campaign end to end. See the module docs for the phases.
///
/// # Errors
///
/// Any [`CampaignError`]: unreadable or invalid spec, simulation failure,
/// store I/O failure, or a renderer/cell shape mismatch.
pub fn run_sweep(spec_path: &Path, opts: &SweepOptions) -> Result<SweepOutcome, CampaignError> {
    let spec = SweepSpec::load(spec_path)?;
    let spec_dir = spec_path.parent().unwrap_or_else(|| Path::new("."));
    let store_dir = resolve_dir(
        spec_dir,
        opts.store_dir.as_deref(),
        spec.store.as_deref(),
        ".campaign-store",
    );
    let out_dir = resolve_dir(
        spec_dir,
        opts.out_dir.as_deref(),
        spec.output.as_deref(),
        "results",
    );
    let full_plan = plan(&spec)?;
    let selected: Vec<&PlannedExperiment> = match &opts.only {
        Some(name) => {
            let exp = full_plan
                .experiments
                .iter()
                .find(|e| &e.name == name)
                .ok_or_else(|| {
                    CampaignError::spec(format!("no experiment named `{name}` in the spec"))
                })?;
            vec![exp]
        }
        None => full_plan.experiments.iter().collect(),
    };

    let store = ResultStore::open(&store_dir)?;
    let all_cells: Vec<&PlannedCell> = selected.iter().flat_map(|e| e.cells.iter()).collect();
    let planned_cells = all_cells.len();
    let unique = dedup_cells(all_cells.iter().copied());

    if !opts.quiet {
        STDOUT.println(format_args!(
            "campaign: {} experiment(s), {} planned cell(s), {} unique",
            selected.len(),
            planned_cells,
            unique.len()
        ));
    }

    if opts.dry_run {
        let cached = unique.iter().filter(|c| store.contains(&c.key)).count();
        if !opts.quiet {
            for exp in &selected {
                STDOUT.println(format_args!(
                    "  {}: {} cell(s) -> report `{}`",
                    exp.name,
                    exp.cells.len(),
                    exp.report
                ));
            }
            STDOUT.println(format_args!(
                "sweep: {} unique cells, {cached} cached, 0 simulated (dry run)",
                unique.len()
            ));
        }
        return Ok(SweepOutcome {
            figures: Vec::new(),
            planned_cells,
            unique_cells: unique.len(),
            cached,
            simulated: 0,
            skipped_experiments: selected.iter().map(|e| e.name.clone()).collect(),
        });
    }

    let jobs = vsched_exec::resolve_jobs(opts.jobs);
    let quiet = opts.quiet;
    let stats = ensure_cells(
        &store,
        &all_cells,
        jobs,
        opts.max_cells,
        &|done, total, cell| {
            if !quiet {
                let what = cell.config.summary().unwrap_or_else(|_| cell.key.clone());
                STDOUT.println(format_args!("  [{done}/{total}] {} ({what})", cell.key));
            }
        },
    )?;

    std::fs::create_dir_all(&out_dir).map_err(|e| CampaignError::io(&out_dir, e))?;
    let mut figures = Vec::new();
    let mut skipped = Vec::new();
    for exp in &selected {
        match collect_stored(&store, exp)? {
            Some(stored) => {
                let figure = render(exp, &stored)?;
                let body = serde_json::to_string_pretty(&figure.json)
                    .map_err(|e| CampaignError::spec(format!("serialize {}: {e}", exp.name)))?;
                let path = out_dir.join(format!("{}.json", figure.name));
                write_atomic(&path, &body).map_err(|e| CampaignError::io(&path, e))?;
                if !opts.quiet {
                    STDOUT.print(format_args!("{}", figure.text));
                    STDOUT.println(format_args!("[wrote {}]", path.display()));
                    STDOUT.println(format_args!(""));
                }
                figures.push(figure);
            }
            None => skipped.push(exp.name.clone()),
        }
    }
    if !opts.quiet {
        if !skipped.is_empty() {
            STDOUT.println(format_args!(
                "incomplete (cells still missing, re-run to finish): {}",
                skipped.join(", ")
            ));
        }
        STDOUT.println(format_args!(
            "sweep: {} unique cells, {} cached, {} simulated",
            stats.unique, stats.cached, stats.simulated
        ));
    }
    Ok(SweepOutcome {
        figures,
        planned_cells,
        unique_cells: stats.unique,
        cached: stats.cached,
        simulated: stats.simulated,
        skipped_experiments: skipped,
    })
}
