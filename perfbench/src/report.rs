//! Metric tables and the result line.
//!
//! These tables are the benchmark's contract with `BENCHMARK.json`; a
//! test checks that the two agree.

/// End-to-end metrics, reported with tracing off: `(name, unit)`. Times
/// are seconds at reference host speed (see [`crate::calibrate`]).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ticks_per_s", "ticks/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by the traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("campaign.plan_s", "s"),
    ("campaign.cells", "count"),
    ("campaign.cell_s_p50", "s"),
    ("campaign.cell_s_tail", "s"),
    ("campaign.cell_s_tail_pct", "pct"),
    ("campaign.cell_s_tail_n", "count"),
    ("campaign.render_s", "s"),
    ("store.open_s", "s"),
    ("store.put_s", "s"),
    ("store.puts", "count"),
    ("store.load_s", "s"),
    ("store.loads", "count"),
    ("exec.busy_share", "ratio"),
    ("exec.idle_s", "s"),
    ("stats.replications", "count"),
    ("san.build_s", "s"),
    ("san.run_s", "s"),
    ("san.self_s", "s"),
    ("san.completions", "count"),
    ("san.aborts", "count"),
    ("san.completions_per_tick", "1/tick"),
    ("san.abort_ratio", "ratio"),
    ("san.completions_per_s", "1/s"),
    ("direct.build_s", "s"),
    ("direct.run_s", "s"),
    ("direct.self_s", "s"),
    ("sched.calls", "count"),
    ("sched.busy_s", "s"),
    ("sched.share", "ratio"),
    ("sched.call_us_p50", "us"),
    ("sched.call_us_tail", "us"),
    ("sched.call_us_tail_pct", "pct"),
    ("sched.call_us_tail_n", "count"),
    ("trace.load_s", "s"),
    ("trace.events", "count"),
    ("trace.segments", "count"),
    ("trace.apply_s", "s"),
    ("env.episodes", "count"),
    ("env.steps", "count"),
    ("env.reset_s", "s"),
    ("env.step_s", "s"),
    ("env.step_us_p50", "us"),
    ("env.step_us_tail", "us"),
    ("env.step_us_tail_pct", "pct"),
    ("env.step_us_tail_n", "count"),
    ("env.engine_s", "s"),
    ("env.handoff_us", "us"),
    ("ledger.coverage", "ratio"),
    ("tracing.overhead", "ratio"),
    ("proc.cpu_s", "s"),
    ("host.speed", "ratio"),
    ("host.wall_s", "s"),
];

/// The result line: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
/// Values print in full (shortest round-trip form); a non-finite value
/// prints as 0 so that the line stays JSON.
#[must_use]
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(r#""{name}":{{"value":{value},"unit":"{unit}"}}"#)
        })
        .collect();
    format!(
        r#"{{"correct":{correct},"attempted":{attempted},"failed":{failed},"metrics":{{{}}}}}"#,
        body.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(true, 3, 0, &[("wall_s", 1.25, "s"), ("x", f64::NAN, "s")]);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"wall_s":{"value":1.25,"unit":"s"},"x":{"value":0,"unit":"s"}}}"#
        );
    }
}
