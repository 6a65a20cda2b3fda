//! The campaign workload: a cold campaign with a fresh store and output
//! directory for every unit.
//!
//! An untraced unit runs it through the front door, `run_sweep`. A traced
//! unit decomposes it into its public calls — `SweepSpec::load` → `plan`
//! → `dedup_cells` → `vsched_exec::run_indexed` over
//! `CellConfig::run_report` + `ResultStore::put` → `ResultStore::load` +
//! `render` — so that each can be timed.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use vsched_campaign::fsio::write_atomic;
use vsched_campaign::orchestrator::dedup_cells;
use vsched_campaign::{
    plan, render, run_sweep, EngineSpec, Plan, PlannedCell, ResultStore, SweepOptions, SweepSpec,
};

use crate::calibrate::Probe;
use crate::harness::{Tally, Unit, Workload};
use crate::ledger::{count, span, Tracer};

/// Writes a spec holding the `names` experiments of `source`, each with
/// base seed `seed`, and no store or output directory of its own.
///
/// # Errors
///
/// Unreadable or invalid source spec, unknown experiment names, or a
/// failed write.
pub fn write_spec(source: &Path, names: &[&str], seed: u64, dest: &Path) -> Result<(), String> {
    let mut spec = SweepSpec::load(source).map_err(|e| e.to_string())?;
    spec.store = None;
    spec.output = None;
    spec.experiments
        .retain(|e| names.contains(&e.name.as_str()));
    if spec.experiments.len() != names.len() {
        return Err(format!("{}: missing one of {names:?}", source.display()));
    }
    for exp in &mut spec.experiments {
        let serde_json::Value::Map(fields) = &mut exp.base else {
            return Err(format!("experiment `{}`: base is not an object", exp.name));
        };
        fields.retain(|(k, _)| k != "seed");
        fields.push(("seed".to_string(), serde_json::Value::U64(seed)));
    }
    let body = serde_json::to_string_pretty(&spec).map_err(|e| e.to_string())?;
    std::fs::write(dest, body).map_err(|e| format!("{}: {e}", dest.display()))
}

/// Rendered figures, as `(experiment name, file bytes)`.
pub type Figures = Vec<(String, Vec<u8>)>;

fn read_figures(dir: &Path, names: &[String]) -> Result<Figures, String> {
    names
        .iter()
        .map(|n| {
            let path = dir.join(format!("{n}.json"));
            std::fs::read(&path)
                .map(|b| (n.clone(), b))
                .map_err(|e| format!("{}: {e}", path.display()))
        })
        .collect()
}

/// Runs the spec through the front door, `run_sweep`, with a fresh store
/// and output directory under `dir`, and returns the figures it wrote.
///
/// # Errors
///
/// Any campaign error.
pub fn front_door(spec: &Path, dir: &Path, jobs: usize) -> Result<(Figures, usize), String> {
    let out = dir.join("out");
    let opts = SweepOptions {
        store_dir: Some(dir.join("store")),
        out_dir: Some(out.clone()),
        jobs: Some(jobs),
        quiet: true,
        ..SweepOptions::default()
    };
    let outcome = run_sweep(spec, &opts).map_err(|e| e.to_string())?;
    let names: Vec<String> = outcome.figures.iter().map(|f| f.name.clone()).collect();
    Ok((read_figures(&out, &names)?, outcome.simulated))
}

/// The campaign workload.
pub struct Campaign {
    spec: PathBuf,
    dir: PathBuf,
    jobs: usize,
    reference: Figures,
    /// Planned cells of each figure, by experiment name.
    figure_cells: BTreeMap<String, u64>,
    cells: u64,
    /// Replication-ticks the campaign simulates.
    ticks: u64,
    next: usize,
    /// Operations and failures of the front-door reference run.
    pub reference_tally: Tally,
}

/// Set-up output: the plan, its distinct cells and an empty store.
pub struct CampaignReady {
    plan: Plan,
    unique: Vec<PlannedCell>,
    store: ResultStore,
    out: PathBuf,
}

impl Campaign {
    /// Runs `spec` through the front door for the reference figures and,
    /// when `recorded` names a directory, checks them against the files
    /// of the same names there. Units work under `dir`, which must not
    /// exist yet.
    ///
    /// # Errors
    ///
    /// Any campaign or I/O error of the reference run.
    pub fn new(
        spec: &Path,
        dir: &Path,
        jobs: usize,
        recorded: Option<&Path>,
    ) -> Result<Self, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let reference_dir = dir.join("reference");
        let (reference, cells) = front_door(spec, &reference_dir, jobs)?;
        let planned =
            plan(&SweepSpec::load(spec).map_err(|e| e.to_string())?).map_err(|e| e.to_string())?;
        // Replication-ticks of the campaign, read back from the reference
        // run's store: an untraced unit's timed phase is `run_sweep` alone.
        let store = ResultStore::open(reference_dir.join("store")).map_err(|e| e.to_string())?;
        let mut ticks = 0;
        for cell in dedup_cells(planned.experiments.iter().flat_map(|e| &e.cells)) {
            let stored = store
                .load(&cell.key)
                .map_err(|e| e.to_string())?
                .ok_or_else(|| format!("cell {} missing from the reference store", cell.key))?;
            ticks += stored.report.replications as u64 * (cell.config.warmup + cell.config.horizon);
        }
        let _ = std::fs::remove_dir_all(&reference_dir);
        let mut failed = 0;
        if let Some(recorded) = recorded {
            let names: Vec<String> = reference.iter().map(|(n, _)| n.clone()).collect();
            for ((name, got), (_, want)) in reference.iter().zip(read_figures(recorded, &names)?) {
                if *got != want {
                    eprintln!("mismatch: {name} differs from {}", recorded.display());
                    failed += 1;
                }
            }
        }
        let figure_cells = planned
            .experiments
            .iter()
            .map(|e| (e.name.clone(), e.cells.len() as u64))
            .collect();
        Ok(Campaign {
            spec: spec.to_path_buf(),
            dir: dir.to_path_buf(),
            jobs,
            reference,
            figure_cells,
            cells: cells as u64,
            ticks,
            next: 0,
            reference_tally: Tally {
                attempted: cells as u64,
                failed: if failed > 0 { cells as u64 } else { 0 },
            },
        })
    }

    fn unit_dir(&self) -> PathBuf {
        self.dir.join(format!("u{}", self.next))
    }

    /// Failed cells: all of an experiment's when its figure differs from
    /// the reference's.
    fn check(&self, figures: &Figures, what: &str) -> u64 {
        let mut failed = 0;
        for (name, want) in &self.reference {
            let cells = self.figure_cells.get(name.as_str()).copied().unwrap_or(0);
            match figures.iter().find(|(n, _)| n == name) {
                Some((_, got)) if got == want => {}
                _ => {
                    eprintln!("mismatch: {what} {name} differs from the reference run's");
                    failed += cells;
                }
            }
        }
        failed.min(self.cells)
    }
}

impl Workload for Campaign {
    type Ready = CampaignReady;
    type Front = PathBuf;

    fn setup(&mut self, tr: Option<Tracer<'_>>) -> Result<CampaignReady, String> {
        let dir = self.unit_dir();
        let (plan, unique) = span(tr, "campaign.plan", |_| {
            let spec = SweepSpec::load(&self.spec).map_err(|e| e.to_string())?;
            let plan = plan(&spec).map_err(|e| e.to_string())?;
            let unique: Vec<PlannedCell> =
                dedup_cells(plan.experiments.iter().flat_map(|e| &e.cells))
                    .into_iter()
                    .cloned()
                    .collect();
            Ok::<_, String>((plan, unique))
        })?;
        let store = span(tr, "store.open", |_| ResultStore::open(dir.join("store")))
            .map_err(|e| e.to_string())?;
        Ok(CampaignReady {
            plan,
            unique,
            store,
            out: dir.join("out"),
        })
    }

    fn prepare(&mut self) -> Result<PathBuf, String> {
        Ok(self.unit_dir())
    }

    fn run(&mut self, dir: PathBuf) -> Result<Unit, String> {
        let (figures, simulated) = front_door(&self.spec, &dir, self.jobs)?;
        if simulated as u64 != self.cells {
            return Err(format!(
                "{simulated} of {} cells simulated: the store was not cold",
                self.cells
            ));
        }
        Ok(Unit {
            failed: self.check(&figures, "front-door"),
            ticks: self.ticks,
        })
    }

    fn run_traced(&mut self, ready: CampaignReady, tr: Tracer<'_>) -> Result<Unit, String> {
        let tr = Some(tr);
        let CampaignReady {
            plan,
            unique,
            store,
            out,
        } = ready;
        count(tr, "exec.workers", self.jobs.min(unique.len()) as f64);
        let replications = span(tr, "exec.run", |tr| {
            vsched_exec::run_indexed(self.jobs, 0, unique.len(), |i| {
                span(tr, "exec.task", |tr| {
                    let cell = &unique[usize::try_from(i).expect("cell index fits usize")];
                    let layer = match cell.config.engine {
                        EngineSpec::San => "san.run",
                        EngineSpec::Direct => "direct.run",
                    };
                    let report =
                        span(tr, layer, |_| cell.config.run_report()).map_err(|e| e.to_string())?;
                    let ticks =
                        report.replications as u64 * (cell.config.warmup + cell.config.horizon);
                    let replications = report.replications as u64;
                    let entry = ResultStore::entry(cell.key.clone(), cell.config.clone(), report);
                    span(tr, "store.put", |_| store.put(&entry)).map_err(|e| e.to_string())?;
                    Ok::<_, String>((replications, ticks))
                })
            })
        })?;
        let reps: u64 = replications.iter().map(|r| r.0).sum();
        count(tr, "stats.replications", reps as f64);

        std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
        let mut figures = Figures::new();
        for exp in &plan.experiments {
            let stored = exp
                .cells
                .iter()
                .map(|c| {
                    span(tr, "store.load", |_| store.load(&c.key))
                        .map_err(|e| e.to_string())?
                        .ok_or_else(|| format!("cell {} missing from the store", c.key))
                })
                .collect::<Result<Vec<_>, String>>()?;
            let figure = span(tr, "campaign.render", |_| {
                let figure = render(exp, &stored).map_err(|e| e.to_string())?;
                let body = serde_json::to_string_pretty(&figure.json).map_err(|e| e.to_string())?;
                let path = out.join(format!("{}.json", figure.name));
                write_atomic(&path, &body).map_err(|e| format!("{}: {e}", path.display()))?;
                Ok::<_, String>((figure.name, body.into_bytes()))
            })?;
            figures.push(figure);
        }
        Ok(Unit {
            failed: self.check(&figures, "decomposed"),
            ticks: replications.iter().map(|r| r.1).sum(),
        })
    }

    fn ops_per_unit(&self) -> u64 {
        self.cells
    }

    fn min_setups(&self) -> usize {
        301
    }

    fn probe(&self) -> Probe {
        Probe::Compute(self.jobs)
    }

    fn cleanup(&mut self) {
        let _ = std::fs::remove_dir_all(self.unit_dir());
        self.next += 1;
    }
}
