//! Dataset readers: the native JSON-lines trace format and an
//! Azure-style CSV lifetime table.
//!
//! The **standard format** is JSON lines: the first significant line is a
//! `{"meta": {...}}` header, every following line one [`RawEvent`].
//! Blank lines and `#` comments are ignored, so fixtures can be
//! annotated. [`write_standard`] emits exactly what [`read_standard_str`]
//! parses — the round trip is byte-stable.
//!
//! The **Azure CSV** reader ingests the common public-dataset shape of
//! one row per VM lifetime — `vm_id,vcpus,start_time,end_time[,weight]`
//! with a header row, empty `end_time` meaning the VM never departs —
//! and lowers it to the same event stream. Rows are sorted by
//! `(time, kind, row)` with departures before arrivals at the same
//! instant, so capacity frees before new VMs land.

use std::fs;
use std::path::Path;

use vsched_core::CoreError;

use crate::error::TraceError;
use crate::event::{RawEvent, TraceMeta, VmShape};
use crate::schedule::TraceSchedule;

#[derive(serde::Deserialize)]
#[serde(deny_unknown_fields)]
struct MetaLine {
    meta: TraceMeta,
}

fn significant(line: &str) -> Option<&str> {
    let t = line.trim();
    (!t.is_empty() && !t.starts_with('#')).then_some(t)
}

/// Parses standard-format trace text. `path` labels errors.
///
/// Returns the header and the `(line, event)` stream in file order.
///
/// # Errors
///
/// [`TraceError::Parse`] for bad JSON or a missing header;
/// [`TraceError::BadRecord`] via later compilation is *not* checked here.
pub fn read_standard_str(
    text: &str,
    path: &str,
) -> Result<(TraceMeta, Vec<(usize, RawEvent)>), TraceError> {
    let mut meta: Option<TraceMeta> = None;
    let mut events = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let Some(t) = significant(raw) else { continue };
        if meta.is_none() {
            let header: MetaLine = serde_json::from_str(t).map_err(|e| TraceError::Parse {
                path: path.into(),
                line,
                message: format!("expected a {{\"meta\": ...}} header: {e}"),
            })?;
            meta = Some(header.meta);
            continue;
        }
        let event: RawEvent = serde_json::from_str(t).map_err(|e| TraceError::Parse {
            path: path.into(),
            line,
            message: e.to_string(),
        })?;
        events.push((line, event));
    }
    let Some(meta) = meta else {
        return Err(TraceError::Parse {
            path: path.into(),
            line: 1,
            message: "trace has no {\"meta\": ...} header line".into(),
        });
    };
    Ok((meta, events))
}

/// Reads a standard-format trace file.
///
/// # Errors
///
/// [`TraceError::Io`] and everything [`read_standard_str`] raises.
pub fn read_standard(path: &Path) -> Result<(TraceMeta, Vec<(usize, RawEvent)>), TraceError> {
    let label = path.display().to_string();
    let text = fs::read_to_string(path).map_err(|source| TraceError::Io {
        path: label.clone(),
        source,
    })?;
    read_standard_str(&text, &label)
}

/// Serializes a trace in the standard format; the output re-parses to
/// the same header and events.
///
/// # Panics
///
/// Never — the record types serialize infallibly.
#[must_use]
pub fn write_standard(meta: &TraceMeta, events: &[RawEvent]) -> String {
    let mut out = String::new();
    out.push_str(&serde_json::to_string(&serde_json::json!({ "meta": meta })).unwrap());
    out.push('\n');
    for e in events {
        out.push_str(&serde_json::to_string(e).unwrap());
        out.push('\n');
    }
    out
}

/// Reads and compiles a standard-format trace file in one step.
///
/// # Errors
///
/// Everything [`read_standard`] and [`TraceSchedule::compile`] raise.
pub fn load_standard(path: &Path) -> Result<TraceSchedule, TraceError> {
    let label = path.display().to_string();
    let (meta, events) = read_standard(path)?;
    TraceSchedule::compile(&meta, &events, &label)
}

/// Parses Azure-style CSV text into an event stream. `path` labels
/// errors; the platform (`meta`) is supplied by the caller since the
/// dataset carries no PCPU count.
///
/// # Errors
///
/// [`TraceError::Parse`] for a missing/invalid header or unparseable
/// fields; [`TraceError::BadRecord`] for a non-positive lifetime.
pub fn read_azure_csv_str(text: &str, path: &str) -> Result<Vec<(usize, RawEvent)>, TraceError> {
    let mut rows = Vec::new();
    let mut saw_header = false;
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let Some(t) = significant(raw) else { continue };
        let fields: Vec<&str> = t.split(',').map(str::trim).collect();
        if !saw_header {
            if fields.len() < 4 || !fields[0].eq_ignore_ascii_case("vm_id") {
                return Err(TraceError::Parse {
                    path: path.into(),
                    line,
                    message: format!(
                        "expected header `vm_id,vcpus,start_time,end_time[,weight]`, got `{t}`"
                    ),
                });
            }
            saw_header = true;
            continue;
        }
        if fields.len() < 4 || fields.len() > 5 {
            return Err(TraceError::Parse {
                path: path.into(),
                line,
                message: format!("expected 4-5 fields, got {}", fields.len()),
            });
        }
        let parse_num = |what: &str, s: &str| -> Result<u64, TraceError> {
            s.parse::<u64>().map_err(|_| TraceError::Parse {
                path: path.into(),
                line,
                message: format!("bad {what} `{s}`"),
            })
        };
        let vm_id = fields[0].to_string();
        if vm_id.is_empty() {
            return Err(TraceError::Parse {
                path: path.into(),
                line,
                message: "empty vm_id".into(),
            });
        }
        let vcpus = parse_num("vcpus", fields[1])? as usize;
        let start = parse_num("start_time", fields[2])?;
        let end = if fields[3].is_empty() {
            None
        } else {
            Some(parse_num("end_time", fields[3])?)
        };
        if let Some(end) = end {
            if end <= start {
                return Err(TraceError::BadRecord {
                    path: path.into(),
                    line,
                    reason: format!("non-positive lifetime: start {start}, end {end}"),
                });
            }
        }
        let weight = match fields.get(4) {
            Some(w) if !w.is_empty() => u32::try_from(parse_num("weight", w)?).unwrap_or(u32::MAX),
            _ => 1,
        };
        let mut shape = VmShape::new(vcpus);
        shape.weight = weight;
        rows.push((line, RawEvent::arrive(start, vm_id.clone(), shape)));
        if let Some(end) = end {
            rows.push((line, RawEvent::depart(end, vm_id)));
        }
    }
    if !saw_header {
        return Err(TraceError::Parse {
            path: path.into(),
            line: 1,
            message: "CSV has no header row".into(),
        });
    }
    // Sort to a valid event stream: by time, departures before arrivals
    // at the same instant (frees capacity first), stable in row order.
    rows.sort_by_key(|(line, e)| (e.time, u8::from(e.arrive.is_some()) * 2, *line));
    Ok(rows)
}

/// Reads an Azure-style CSV file into an event stream.
///
/// # Errors
///
/// [`TraceError::Io`] and everything [`read_azure_csv_str`] raises.
pub fn read_azure_csv(path: &Path) -> Result<Vec<(usize, RawEvent)>, TraceError> {
    let label = path.display().to_string();
    let text = fs::read_to_string(path).map_err(|source| TraceError::Io {
        path: label.clone(),
        source,
    })?;
    read_azure_csv_str(&text, &label)
}

/// Whether `path` names an Azure-style CSV dataset (by its extension)
/// rather than a standard trace.
#[must_use]
pub fn is_csv(path: &Path) -> bool {
    path.extension()
        .is_some_and(|e| e.eq_ignore_ascii_case("csv"))
}

/// The platform rule of every trace front door (cells, run configs and
/// the `vsched trace` verbs): a CSV dataset carries no platform, so
/// `pcpus` must be set; a standard trace carries its own, so `pcpus` must
/// be omitted (`0`).
///
/// # Errors
///
/// [`CoreError::InvalidConfig`] naming the trace and the fix.
pub fn check_platform(path: &Path, pcpus: usize) -> Result<(), CoreError> {
    let (csv, path) = (is_csv(path), path.display());
    let reason = match (csv, pcpus) {
        (true, 0) => format!("CSV trace `{path}` carries no platform: set `pcpus` (`--pcpus`)"),
        (false, 1..) => {
            format!("trace `{path}` carries its own platform: omit `pcpus` (`--pcpus`)")
        }
        _ => return Ok(()),
    };
    Err(CoreError::InvalidConfig { reason })
}

/// Loads a trace file by extension — `.csv` as Azure CSV (with the
/// supplied `meta`), anything else as the standard format (whose header
/// overrides `meta` entirely).
///
/// # Errors
///
/// Reader and compiler errors as above.
pub fn load_trace(path: &Path, csv_meta: &TraceMeta) -> Result<TraceSchedule, TraceError> {
    let label = path.display().to_string();
    if is_csv(path) {
        let events = read_azure_csv(path)?;
        TraceSchedule::compile(csv_meta, &events, &label)
    } else {
        load_standard(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STANDARD: &str = r#"
# A tiny annotated fixture.
{"meta":{"pcpus":2}}

{"time":0,"vm":"a","arrive":{"vcpus":2,"weight":1}}
{"time":10,"vm":"a","set_load":500}
{"time":50,"vm":"a","depart":true}
"#;

    #[test]
    fn standard_round_trip_is_byte_stable() {
        let (meta, events) = read_standard_str(STANDARD, "t.jsonl").unwrap();
        assert_eq!(meta.pcpus, 2);
        assert_eq!(meta.timeslice, 30);
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].0, 5, "line numbers skip comments and blanks");

        let raw: Vec<RawEvent> = events.iter().map(|(_, e)| e.clone()).collect();
        let text = write_standard(&meta, &raw);
        let (meta2, events2) = read_standard_str(&text, "t.jsonl").unwrap();
        assert_eq!(meta2, meta);
        let raw2: Vec<RawEvent> = events2.into_iter().map(|(_, e)| e).collect();
        assert_eq!(raw2, raw);
        assert_eq!(write_standard(&meta2, &raw2), text, "idempotent");
    }

    #[test]
    fn standard_rejects_missing_header_and_bad_json() {
        let err = read_standard_str(r#"{"time":0,"vm":"a","depart":true}"#, "t.jsonl").unwrap_err();
        assert!(err.to_string().contains("header"), "{err}");

        let err = read_standard_str("{\"meta\":{\"pcpus\":1}}\nnot json\n", "t.jsonl").unwrap_err();
        assert!(matches!(err, TraceError::Parse { line: 2, .. }), "{err}");

        let err = read_standard_str("", "t.jsonl").unwrap_err();
        assert!(matches!(err, TraceError::Parse { .. }), "{err}");

        // Unknown fields are rejected, with the line number.
        let err = read_standard_str(
            "{\"meta\":{\"pcpus\":1}}\n{\"time\":0,\"vm\":\"a\",\"arive\":{\"vcpus\":1}}\n",
            "t.jsonl",
        )
        .unwrap_err();
        assert!(matches!(err, TraceError::Parse { line: 2, .. }), "{err}");
    }

    const AZURE: &str = "\
vm_id,vcpus,start_time,end_time,weight
web-1,2,0,,1
batch-7,4,100,400,2
cache-2,1,100,,1
";

    #[test]
    fn azure_rows_lower_to_sorted_events() {
        let events = read_azure_csv_str(AZURE, "t.csv").unwrap();
        let kinds: Vec<(u64, bool)> = events
            .iter()
            .map(|(_, e)| (e.time, e.arrive.is_some()))
            .collect();
        assert_eq!(kinds, [(0, true), (100, true), (100, true), (400, false)]);
        assert_eq!(events[0].1.vm, "web-1");
        assert_eq!(events[1].1.vm, "batch-7");
        assert_eq!(
            events[1].1.arrive.as_ref().unwrap().weight,
            2,
            "weight column respected"
        );
    }

    #[test]
    fn azure_compiles_against_supplied_meta() {
        let events = read_azure_csv_str(AZURE, "t.csv").unwrap();
        let s = TraceSchedule::compile(&TraceMeta::new(4), &events, "t.csv").unwrap();
        assert_eq!(s.vm_names(), ["web-1", "batch-7", "cache-2"]);
        assert_eq!(s.initially_present(), [true, false, false]);
        assert_eq!(s.end_time(), 400);
    }

    #[test]
    fn azure_departures_sort_before_arrivals() {
        let csv = "\
vm_id,vcpus,start_time,end_time
old,1,0,100
new,1,100,
";
        let events = read_azure_csv_str(csv, "t.csv").unwrap();
        assert!(events[1].1.depart.is_some(), "depart first at tick 100");
        assert!(events[2].1.arrive.is_some());
        // And the compiled schedule accepts it on a 1-PCPU box.
        TraceSchedule::compile(&TraceMeta::new(1), &events, "t.csv").unwrap();
    }

    #[test]
    fn azure_rejects_malformed_rows() {
        let err = read_azure_csv_str("nope\n", "t.csv").unwrap_err();
        assert!(err.to_string().contains("header"), "{err}");

        let err =
            read_azure_csv_str("vm_id,vcpus,start_time,end_time\nv,x,0,\n", "t.csv").unwrap_err();
        assert!(matches!(err, TraceError::Parse { line: 2, .. }), "{err}");

        let err = read_azure_csv_str("vm_id,vcpus,start_time,end_time\nv,1,50,50\n", "t.csv")
            .unwrap_err();
        assert!(
            matches!(err, TraceError::BadRecord { line: 2, .. }),
            "{err}"
        );

        let err = read_azure_csv_str("", "t.csv").unwrap_err();
        assert!(matches!(err, TraceError::Parse { .. }), "{err}");
    }
}
