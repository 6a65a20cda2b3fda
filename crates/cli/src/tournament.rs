//! The `vsched tournament` subcommand: a round-robin of scheduling
//! policies across a scenario corpus.
//!
//! Contestants are every policy in the [`PolicyKind::all`] registry
//! (optionally filtered with `--policies`) plus any external agents
//! given with `--agent <cmd>`, which join over the `vsched-env`
//! JSON-lines protocol. The corpus is the lint-clean run configs under
//! `configs/` (sweep specs are skipped) plus a batch of fuzz-generated
//! scenarios from the same [`CaseGen`] the oracle uses, all normalized
//! to the tournament's warmup/horizon/replication settings.
//!
//! Built-in contestants run as campaign cells on the shared
//! `vsched-exec` pool through the content-addressed result store, so a
//! warm re-run simulates **zero** cells and re-ranks from cache alone.
//! External agents cannot be cached (their decision logic lives outside
//! the process); they play one `vsched-env` episode per replication.
//! An agent fault — protocol garbage, timeout, illegal action — forfeits
//! that scenario (last rank) and is reported, but never aborts the
//! tournament.
//!
//! Ranking: per scenario, contestants are ranked on each of the paper's
//! three metrics (average VCPU utilization, VCPU availability, PCPU
//! utilization; higher is better, ties share the best rank). The
//! overall standing is the mean rank across all scenario × metric
//! cells — lower is better.

use std::path::PathBuf;
use std::time::Duration;

use vsched_analyze::AnalyzeOpts;
use vsched_campaign::fsio::read_file;
use vsched_campaign::orchestrator::ensure_cells;
use vsched_campaign::{
    cell_key, CellConfig, PlannedCell, PolicySpec, ReplicationSpec, ResultStore, STDOUT,
};
use vsched_check::gen::CaseGen;
use vsched_core::{Engine, MetricsReport, PolicyKind};
use vsched_env::{run_remote_episode, Env, EpisodeError, RemotePolicy};

use crate::config::{env_scenario, is_sweep_spec, ExperimentConfig};

/// The three ranked metrics, in report order.
pub const METRICS: [&str; 3] = ["vcpu_utilization", "vcpu_availability", "pcpu_utilization"];

/// Knobs of one tournament run.
#[derive(Debug, Clone)]
pub struct TournamentOpts {
    /// Directory scanned for run-config scenarios (default `configs`).
    pub config_dir: PathBuf,
    /// Content-addressed result store for built-in contestants.
    pub store_dir: PathBuf,
    /// Number of fuzz-generated scenarios appended to the corpus.
    pub fuzz_scenarios: u64,
    /// Master seed of the fuzz scenario generator.
    pub fuzz_seed: u64,
    /// Restrict built-in contestants to these labels (`rrs`, `credit`, …).
    pub policies: Option<Vec<String>>,
    /// External agent commands, each spawned per scenario episode.
    pub agents: Vec<String>,
    /// Worker threads for cell simulation (`None` = one per core).
    pub jobs: Option<usize>,
    /// Warm-up ticks, applied to every scenario.
    pub warmup: u64,
    /// Measured ticks, applied to every scenario.
    pub horizon: u64,
    /// Replications per contestant per scenario (at least 2 — the
    /// campaign layer insists on confidence intervals).
    pub replications: usize,
    /// Base RNG seed; replication `r` uses `seed + r` on both sides.
    pub seed: u64,
    /// Per-message timeout for external agents.
    pub timeout: Duration,
    /// Suppress progress output.
    pub quiet: bool,
}

impl Default for TournamentOpts {
    fn default() -> Self {
        TournamentOpts {
            config_dir: PathBuf::from("configs"),
            store_dir: PathBuf::from(".tournament-store"),
            fuzz_scenarios: 2,
            fuzz_seed: 42,
            policies: None,
            agents: Vec::new(),
            jobs: None,
            warmup: 500,
            horizon: 4_000,
            replications: 2,
            seed: 0x5eed,
            timeout: Duration::from_secs(10),
            quiet: false,
        }
    }
}

/// One corpus entry: a named system scenario whose `policy` field is a
/// placeholder, replaced per contestant.
#[derive(Debug, Clone)]
pub struct TournamentScenario {
    /// Display name (config file stem or `fuzz-<i>`).
    pub name: String,
    /// The scenario as a campaign cell.
    pub cell: CellConfig,
}

/// One contestant's result on one scenario.
#[derive(Debug, Clone)]
pub struct ScenarioScore {
    /// Metric means in [`METRICS`] order, `None` on forfeit.
    pub values: Option<[f64; 3]>,
    /// The fault that caused a forfeit, if any.
    pub fault: Option<String>,
}

/// One contestant's final standing.
#[derive(Debug, Clone)]
pub struct Standing {
    /// Display name (policy label, or `agent:<name>`).
    pub name: String,
    /// Whether this is a registry policy (cached) or an external agent.
    pub builtin: bool,
    /// Mean rank across all scenario × metric cells (lower is better).
    pub overall: f64,
    /// Mean rank per metric, [`METRICS`] order.
    pub metric_ranks: [f64; 3],
    /// Scenarios forfeited to a fault.
    pub faults: usize,
    /// Per-scenario results, in corpus order.
    pub scores: Vec<ScenarioScore>,
}

/// The full tournament outcome.
#[derive(Debug, Clone)]
pub struct TournamentReport {
    /// Scenario names, in corpus order.
    pub scenarios: Vec<String>,
    /// Scenarios dropped by the lint gate, with the reason.
    pub skipped: Vec<String>,
    /// Standings, best overall rank first.
    pub standings: Vec<Standing>,
    /// Distinct built-in cells requested.
    pub cells: usize,
    /// Cells answered from the store.
    pub cached: usize,
    /// Cells simulated by this run.
    pub simulated: usize,
}

impl TournamentReport {
    /// The one-line cache summary the CLI prints (and CI greps).
    #[must_use]
    pub fn cache_summary(&self) -> String {
        format!(
            "tournament: {} cells, {} cached, {} simulated",
            self.cells, self.cached, self.simulated
        )
    }

    /// Renders the standings table.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "tournament: {} scenarios x {} contestants\n",
            self.scenarios.len(),
            self.standings.len()
        ));
        for skip in &self.skipped {
            out.push_str(&format!("  skipped {skip}\n"));
        }
        out.push_str(&format!(
            "{:>3}  {:<18} {:>7}  {:>5} {:>5} {:>5}  {:>6}\n",
            "#", "contestant", "overall", "util", "avail", "pcpu", "faults"
        ));
        for (i, s) in self.standings.iter().enumerate() {
            out.push_str(&format!(
                "{:>3}  {:<18} {:>7.2}  {:>5.2} {:>5.2} {:>5.2}  {:>6}\n",
                i + 1,
                s.name,
                s.overall,
                s.metric_ranks[0],
                s.metric_ranks[1],
                s.metric_ranks[2],
                s.faults
            ));
        }
        for s in &self.standings {
            for (score, scenario) in s.scores.iter().zip(&self.scenarios) {
                if let Some(fault) = &score.fault {
                    out.push_str(&format!("forfeit: {} on {scenario}: {fault}\n", s.name));
                }
            }
        }
        out.push_str(&self.cache_summary());
        out.push('\n');
        out
    }

    /// Machine-readable report. Byte-stable across warm re-runs: the
    /// standings derive from stored (lossless-round-trip) cell results.
    #[must_use]
    pub fn to_json(&self) -> serde_json::Value {
        let standings: Vec<serde_json::Value> = self
            .standings
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let results: Vec<serde_json::Value> = s
                    .scores
                    .iter()
                    .zip(&self.scenarios)
                    .map(|(score, scenario)| match (&score.values, &score.fault) {
                        (Some(v), _) => serde_json::json!({
                            "scenario": scenario,
                            "vcpu_utilization": v[0],
                            "vcpu_availability": v[1],
                            "pcpu_utilization": v[2],
                        }),
                        (None, fault) => serde_json::json!({
                            "scenario": scenario,
                            "fault": fault.clone().unwrap_or_default(),
                        }),
                    })
                    .collect();
                serde_json::json!({
                    "rank": i + 1,
                    "name": s.name,
                    "builtin": s.builtin,
                    "overall": s.overall,
                    "metric_ranks": serde_json::json!({
                        "vcpu_utilization": s.metric_ranks[0],
                        "vcpu_availability": s.metric_ranks[1],
                        "pcpu_utilization": s.metric_ranks[2],
                    }),
                    "faults": s.faults,
                    "results": results,
                })
            })
            .collect();
        serde_json::json!({
            "scenarios": self.scenarios.clone(),
            "skipped": self.skipped.clone(),
            "standings": standings,
            "cells": serde_json::json!({
                "unique": self.cells,
                "cached": self.cached,
                "simulated": self.simulated,
            }),
        })
    }
}

/// The canonical lower-case label of a registry policy (its config-file
/// spelling: `rrs`, `credit`, …).
fn spec_label(kind: &PolicyKind) -> String {
    match PolicySpec::from_kind(kind) {
        PolicySpec::Label(label) => label,
        // Registry entries are all defaults, which collapse to labels.
        _ => kind.label().to_ascii_lowercase(),
    }
}

/// Builds the scenario corpus: run configs from the config directory
/// (sweep specs skipped, sorted by file name), then fuzz scenarios.
/// Scenarios that fail the static lint gate are dropped with a note.
pub fn build_corpus(
    opts: &TournamentOpts,
) -> Result<(Vec<TournamentScenario>, Vec<String>), Box<dyn std::error::Error>> {
    let mut scenarios = Vec::new();
    let mut paths: Vec<PathBuf> = Vec::new();
    if opts.config_dir.is_dir() {
        for entry in std::fs::read_dir(&opts.config_dir)
            .map_err(|e| format!("cannot read {}: {e}", opts.config_dir.display()))?
        {
            let path = entry
                .map_err(|e| format!("cannot read {}: {e}", opts.config_dir.display()))?
                .path();
            if path.extension().is_some_and(|e| e == "json") {
                paths.push(path);
            }
        }
    }
    paths.sort();
    for path in paths {
        let text = read_file(&path)?;
        if is_sweep_spec(&text) {
            continue;
        }
        let cell = ExperimentConfig::from_json(&text)
            .and_then(|config| config.cells())
            .map_err(|e| format!("{}: {e}", path.display()))?
            .swap_remove(0);
        let name = path.file_stem().map_or_else(
            || path.display().to_string(),
            |s| s.to_string_lossy().into(),
        );
        // Trace-driven configs describe a churning VM population; the
        // tournament normalizes every contestant onto static scenarios
        // (episodes included), so they are out of scope here.
        if cell.trace.is_some() {
            continue;
        }
        scenarios.push(TournamentScenario { name, cell });
    }
    // Fuzz scenarios alternate engines by case index, so both
    // implementations stay in the corpus.
    let generator = CaseGen::new(opts.fuzz_seed);
    for i in 0..opts.fuzz_scenarios {
        let case = generator.case(i);
        let engine = if case.case_index.is_multiple_of(2) {
            Engine::San
        } else {
            Engine::Direct
        };
        scenarios.push(TournamentScenario {
            name: format!("fuzz-{i}"),
            cell: CellConfig {
                engine,
                ..case.cell()
            },
        });
    }
    // Each scenario's own policies, run lengths and seed give way to the
    // tournament's, so ranks are comparable; the policy is a placeholder,
    // replaced per contestant.
    for scenario in &mut scenarios {
        scenario.cell = CellConfig {
            policy: PolicySpec::Label("rrs".into()),
            warmup: opts.warmup,
            horizon: opts.horizon,
            replications: ReplicationSpec::Exact(opts.replications),
            seed: opts.seed,
            ..scenario.cell.clone()
        };
    }

    // The lint gate: a scenario whose SAN model has structural errors
    // (dead activities, broken conservation) would rank policies on a
    // broken playing field — drop it loudly instead.
    let mut skipped = Vec::new();
    let mut clean = Vec::new();
    for scenario in scenarios {
        let system = scenario
            .cell
            .system()
            .map_err(|e| format!("{}: {e}", scenario.name))?;
        let report = vsched_analyze::lint_config(
            &format!("tournament:{}", scenario.name),
            &system,
            &PolicyKind::RoundRobin,
            &AnalyzeOpts::default(),
        )?;
        if report.denied(false) {
            skipped.push(format!("{} (lint errors)", scenario.name));
        } else {
            clean.push(scenario);
        }
    }
    Ok((clean, skipped))
}

/// The built-in contestants after the `--policies` filter.
///
/// # Errors
///
/// A message naming any filter label that matches no registry entry.
pub fn select_builtins(filter: Option<&[String]>) -> Result<Vec<PolicyKind>, String> {
    let all = PolicyKind::all();
    let Some(filter) = filter else {
        return Ok(all);
    };
    for want in filter {
        if !all.iter().any(|k| {
            want.eq_ignore_ascii_case(k.label()) || want.eq_ignore_ascii_case(&spec_label(k))
        }) {
            let labels: Vec<String> = all.iter().map(spec_label).collect();
            return Err(format!(
                "unknown policy `{want}` (registered: {})",
                labels.join(", ")
            ));
        }
    }
    Ok(all
        .into_iter()
        .filter(|k| {
            filter.iter().any(|want| {
                want.eq_ignore_ascii_case(k.label()) || want.eq_ignore_ascii_case(&spec_label(k))
            })
        })
        .collect())
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

fn report_values(report: &MetricsReport) -> [f64; 3] {
    [
        mean(report.vcpu_utilization.iter().map(|ci| ci.mean)),
        mean(report.vcpu_availability.iter().map(|ci| ci.mean)),
        mean(report.pcpu_utilization.iter().map(|ci| ci.mean)),
    ]
}

/// Runs the full tournament.
///
/// # Errors
///
/// Unreadable corpus or store, invalid scenarios, or environment-side
/// failures. Agent faults are *not* errors — they forfeit scenarios and
/// appear in the report.
pub fn run_tournament(
    opts: &TournamentOpts,
) -> Result<TournamentReport, Box<dyn std::error::Error>> {
    let (scenarios, skipped) = build_corpus(opts)?;
    if scenarios.is_empty() {
        return Err("tournament corpus is empty (no run configs, no fuzz scenarios)".into());
    }
    let builtins = select_builtins(opts.policies.as_deref())?;
    if builtins.is_empty() && opts.agents.is_empty() {
        return Err("no contestants (empty --policies filter and no --agent)".into());
    }

    // Built-in contestants: one campaign cell per (scenario, policy),
    // content-addressed so warm re-runs simulate nothing.
    let mut planned = Vec::with_capacity(scenarios.len() * builtins.len());
    for scenario in &scenarios {
        for kind in &builtins {
            let mut cell = scenario.cell.clone();
            cell.policy = PolicySpec::from_kind(kind);
            planned.push(PlannedCell {
                key: cell_key(&cell),
                config: cell,
                labels: vec![scenario.name.clone(), kind.label().to_string()],
            });
        }
    }
    let store = ResultStore::open(&opts.store_dir)?;
    let refs: Vec<&PlannedCell> = planned.iter().collect();
    let jobs = vsched_exec::resolve_jobs(opts.jobs);
    let quiet = opts.quiet;
    let stats = ensure_cells(&store, &refs, jobs, None, &move |done, total, cell| {
        if !quiet {
            STDOUT.println(format_args!(
                "  sim [{done}/{total}] {}",
                cell.labels.join(" / ")
            ));
        }
    })?;

    struct Raw {
        name: String,
        builtin: bool,
        scores: Vec<ScenarioScore>,
    }
    let mut raw: Vec<Raw> = Vec::new();

    for (b, kind) in builtins.iter().enumerate() {
        let mut scores = Vec::with_capacity(scenarios.len());
        for (s, _) in scenarios.iter().enumerate() {
            let cell = &planned[s * builtins.len() + b];
            let stored = store
                .load(&cell.key)?
                .ok_or_else(|| format!("store lost cell {}", cell.key))?;
            scores.push(ScenarioScore {
                values: Some(report_values(&stored.report)),
                fault: None,
            });
        }
        raw.push(Raw {
            name: spec_label(kind),
            builtin: true,
            scores,
        });
    }

    // External agents: one env episode per replication, fresh process
    // each (an episode ends the agent's stdin/stdout conversation).
    for (a, command) in opts.agents.iter().enumerate() {
        let mut display: Option<String> = None;
        let mut scores = Vec::with_capacity(scenarios.len());
        for scenario in &scenarios {
            let mut sums = [0.0f64; 3];
            let mut fault: Option<String> = None;
            for rep in 0..opts.replications {
                let seed = scenario.cell.seed.wrapping_add(rep as u64);
                let mut agent = match RemotePolicy::spawn(command, &scenario.name, opts.timeout) {
                    Ok(agent) => agent,
                    Err(f) => {
                        fault = Some(f.to_string());
                        break;
                    }
                };
                if display.is_none() {
                    display = Some(format!("agent:{}", agent.name()));
                }
                let mut env = Env::new(env_scenario(&scenario.cell)?)
                    .fields(agent.fields())
                    .agent_name(agent.name());
                match run_remote_episode(&mut env, &mut agent, seed) {
                    Ok(run) => {
                        sums[0] += run.end.metrics.avg_vcpu_utilization();
                        sums[1] += run.end.metrics.avg_vcpu_availability();
                        sums[2] += run.end.metrics.avg_pcpu_utilization();
                    }
                    Err(EpisodeError::Fault(f)) => {
                        fault = Some(f.to_string());
                        break;
                    }
                    Err(EpisodeError::Env(e)) => return Err(Box::new(e)),
                }
            }
            scores.push(match fault {
                Some(fault) => ScenarioScore {
                    values: None,
                    fault: Some(fault),
                },
                None => ScenarioScore {
                    values: Some(sums.map(|v| v / opts.replications as f64)),
                    fault: None,
                },
            });
            if !opts.quiet {
                let name = display.as_deref().unwrap_or(command);
                match &scores.last().unwrap().fault {
                    Some(f) => STDOUT.println(format_args!(
                        "  agent [{name}] {}: forfeit ({f})",
                        scenario.name
                    )),
                    None => STDOUT.println(format_args!("  agent [{name}] {}: ok", scenario.name)),
                }
            }
        }
        let mut name = display.unwrap_or_else(|| format!("agent:{command}"));
        if raw.iter().any(|r| r.name == name) {
            name = format!("{name}#{}", a + 1);
        }
        raw.push(Raw {
            name,
            builtin: false,
            scores,
        });
    }

    // Competition ranking per scenario × metric: ties share the best
    // rank, forfeits rank last.
    let n = raw.len();
    let mut rank_sums = vec![[0.0f64; 3]; n];
    for s in 0..scenarios.len() {
        for m in 0..3 {
            let vals: Vec<Option<f64>> = raw
                .iter()
                .map(|r| r.scores[s].values.map(|v| v[m]))
                .collect();
            for (c, val) in vals.iter().enumerate() {
                let rank = match val {
                    None => n,
                    Some(v) => {
                        1 + vals
                            .iter()
                            .filter(|o| matches!(o, Some(w) if w > v))
                            .count()
                    }
                };
                rank_sums[c][m] += rank as f64;
            }
        }
    }

    let num_scenarios = scenarios.len() as f64;
    let mut standings: Vec<Standing> = raw
        .into_iter()
        .zip(rank_sums)
        .map(|(r, sums)| {
            let metric_ranks = sums.map(|x| x / num_scenarios);
            Standing {
                overall: metric_ranks.iter().sum::<f64>() / 3.0,
                metric_ranks,
                faults: r.scores.iter().filter(|s| s.fault.is_some()).count(),
                name: r.name,
                builtin: r.builtin,
                scores: r.scores,
            }
        })
        .collect();
    standings.sort_by(|a, b| {
        a.overall
            .partial_cmp(&b.overall)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.name.cmp(&b.name))
    });

    Ok(TournamentReport {
        scenarios: scenarios.into_iter().map(|s| s.name).collect(),
        skipped,
        standings,
        cells: stats.unique,
        cached: stats.cached,
        simulated: stats.simulated,
    })
}

/// Renders the `vsched policies` registry listing: every policy the
/// fuzz generator, the linter, and the tournament draw from, with its
/// config-file label and declared snapshot-view fields.
#[must_use]
pub fn render_policy_registry() -> String {
    let mut out = String::new();
    let all = PolicyKind::all();
    out.push_str(&format!(
        "{} registered policies (label = config-file spelling):\n",
        all.len()
    ));
    for kind in &all {
        let policy = kind.create();
        let fields = policy.snapshot_view();
        let declared = fields.declared();
        let fields_text = if declared.is_empty() {
            "(none)".to_string()
        } else {
            declared.join(", ")
        };
        out.push_str(&format!(
            "  {:<8} {:<5} {}\n           reads: {fields_text}\n",
            spec_label(kind),
            kind.label(),
            kind.describe()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;
    use vsched_campaign::SyncMechanismSpec;
    use vsched_core::SyncMechanism;

    fn quick_opts(dir: &Path) -> TournamentOpts {
        TournamentOpts {
            config_dir: PathBuf::from("/nonexistent"),
            store_dir: dir.join("store"),
            fuzz_scenarios: 2,
            warmup: 50,
            horizon: 300,
            quiet: true,
            ..TournamentOpts::default()
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vsched-tourney-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn corpus_converts_configs_and_fuzz_cases() {
        let dir = temp_dir("corpus");
        std::fs::write(
            dir.join("hetero.json"),
            r#"{ "pcpus": 2,
                 "vms": [
                   { "vcpus": 1, "weight": 3,
                     "workload": { "sync_ratio": [1, 3], "sync_mechanism": "spinlock" } },
                   { "vcpus": 2 } ],
                 "engine": "direct", "timeslice": 12 }"#,
        )
        .unwrap();
        // Sweep specs are skipped, not errors.
        std::fs::write(
            dir.join("sweep.json"),
            r#"{ "experiments": [ { "name": "x", "base": { "pcpus": 1, "vms": [1] } } ] }"#,
        )
        .unwrap();
        let opts = TournamentOpts {
            config_dir: dir.clone(),
            fuzz_scenarios: 2,
            ..quick_opts(&dir)
        };
        let (scenarios, skipped) = build_corpus(&opts).unwrap();
        assert!(skipped.is_empty(), "{skipped:?}");
        assert_eq!(scenarios.len(), 3);
        assert_eq!(scenarios[0].name, "hetero");
        let cell = &scenarios[0].cell;
        assert_eq!(cell.weights, Some(vec![3, 1]));
        assert_eq!(cell.engine, Engine::Direct);
        assert_eq!(cell.timeslice, 12);
        assert_eq!(cell.warmup, opts.warmup);
        assert_eq!(cell.horizon, opts.horizon);
        let overrides = cell.vm_workloads.as_ref().unwrap();
        assert_eq!(
            overrides[0].sync_mechanism,
            Some(SyncMechanismSpec::Spinlock)
        );
        assert!(overrides[1].is_noop());
        // The cell builds the same system the run config describes.
        let system = cell.system().unwrap();
        assert_eq!(system.vms()[0].weight, 3);
        assert_eq!(
            system.vms()[0].workload.sync_mechanism,
            SyncMechanism::SpinLock
        );
        // Fuzz scenarios are named and normalized.
        assert_eq!(scenarios[1].name, "fuzz-0");
        assert_eq!(scenarios[1].cell.warmup, opts.warmup);
        assert_eq!(scenarios[1].cell.replications, ReplicationSpec::Exact(2));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn policy_filter_selects_and_rejects() {
        assert_eq!(select_builtins(None).unwrap(), PolicyKind::all());
        let picked = select_builtins(Some(&["rrs".to_string(), "CREDIT".to_string()])).unwrap();
        assert_eq!(picked.len(), 2);
        assert_eq!(picked[0], PolicyKind::RoundRobin);
        assert_eq!(picked[1], PolicyKind::credit_default());
        let err = select_builtins(Some(&["quantum".to_string()])).unwrap_err();
        assert!(err.contains("quantum") && err.contains("rrs"), "{err}");
    }

    #[test]
    fn tournament_ranks_builtins_and_warm_rerun_simulates_nothing() {
        let dir = temp_dir("rank");
        let opts = TournamentOpts {
            policies: Some(vec!["rrs".into(), "scs".into()]),
            ..quick_opts(&dir)
        };
        let cold = run_tournament(&opts).unwrap();
        assert_eq!(cold.scenarios, vec!["fuzz-0", "fuzz-1"]);
        assert_eq!(cold.standings.len(), 2);
        assert_eq!(cold.cells, 4);
        assert_eq!(cold.simulated, 4);
        assert!(cold.standings[0].overall <= cold.standings[1].overall);
        for s in &cold.standings {
            assert_eq!(s.faults, 0);
            assert!(s.builtin);
            assert!((1.0..=2.0).contains(&s.overall), "{}", s.overall);
        }
        // Warm re-run: same ranking, zero simulations, identical JSON.
        let warm = run_tournament(&opts).unwrap();
        assert_eq!(warm.simulated, 0);
        assert_eq!(warm.cached, 4);
        assert!(warm.cache_summary().contains("0 simulated"));
        // Identical ranking JSON modulo the trailing cache-stats object.
        let strip = |report: &TournamentReport| {
            let text = serde_json::to_string(&report.to_json()).unwrap();
            text.split("\"cells\"").next().unwrap().to_string()
        };
        assert_eq!(strip(&cold), strip(&warm));
        let text = warm.render_text();
        assert!(text.contains("2 scenarios x 2 contestants"), "{text}");
        assert!(
            text.contains("tournament: 4 cells, 4 cached, 0 simulated"),
            "{text}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn registry_listing_names_every_policy() {
        let text = render_policy_registry();
        for kind in PolicyKind::all() {
            assert!(text.contains(&spec_label(&kind)), "{text}");
        }
        assert!(text.contains("reads:"), "{text}");
    }
}
