//! Host-speed calibration.
//!
//! The benchmark runs on shared virtual CPUs whose speed changes by up
//! to 2× for seconds or minutes at a time, as other tenants load the
//! machine. Every end-to-end time is therefore scaled to a reference
//! speed: a fixed probe, this module's own code, is timed just before
//! and just after each untraced timed phase, and the phase's host
//! seconds are multiplied by the median of those speed readings.
//!
//! Two probes match the two ways the workloads spend their time:
//!
//! - [`Probe::Compute`] parses and re-serialises a generated JSON-lines
//!   document with a small recursive-descent parser: branchy code with
//!   many small allocations. Its slowdowns track those of the small
//!   models the campaign runs, and most of those of the churn models; a
//!   tight arithmetic loop barely slows at all.
//! - [`Probe::Handoff`] bounces a message between two threads over
//!   `std::sync::mpsc` channels, the hand-off an env step makes twice.

use std::hint::black_box;
use std::sync::mpsc;
use std::time::Instant;

/// The compute probe's seconds at reference speed: about its fastest
/// time on a quiet core of the reference host (Intel Xeon, 2-vCPU KVM
/// guest).
const COMPUTE_REF_S: f64 = 0.01;
/// Records in the compute probe's document.
const COMPUTE_RECORDS: usize = 5_000;
/// The hand-off probe's seconds at reference speed, as above.
const HANDOFF_REF_S: f64 = 0.0035;
/// Round trips in one hand-off probe.
const HANDOFF_ROUND_TRIPS: usize = 200;

/// What a workload's timed phase mostly waits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// Computation on this many threads at once; the probe runs on as
    /// many threads at once, so that it samples each CPU they run on.
    Compute(usize),
    /// Blocking hand-offs between two threads.
    Handoff,
}

/// Reads the host's current speed with one kind of probe.
#[derive(Debug)]
pub struct Calibrator {
    probe: Probe,
    doc: String,
}

impl Calibrator {
    /// A calibrator for `probe`; builds the compute probe's document.
    #[must_use]
    pub fn new(probe: Probe) -> Self {
        let doc = match probe {
            Probe::Compute(_) => document(COMPUTE_RECORDS),
            Probe::Handoff => String::new(),
        };
        Calibrator { probe, doc }
    }

    /// The host's speed now, relative to the reference: 1 at reference
    /// speed, 0.5 when the probe takes twice as long. With several
    /// compute threads, their mean speed.
    #[must_use]
    pub fn speed(&self) -> f64 {
        match self.probe {
            // Always on spawned threads, even for one: read on the
            // calling thread, the probe tracked `churn_san` worse (see
            // `README.md`, Host-speed scaling).
            Probe::Compute(threads) => {
                let doc = self.doc.as_str();
                let secs: Vec<f64> = std::thread::scope(|s| {
                    let handles: Vec<_> = (0..threads.max(1))
                        .map(|_| s.spawn(move || time_compute(doc)))
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("the compute probe does not panic"))
                        .collect()
                });
                secs.iter().map(|s| COMPUTE_REF_S / s).sum::<f64>() / secs.len() as f64
            }
            Probe::Handoff => HANDOFF_REF_S / time_handoff(),
        }
    }
}

fn time_compute(doc: &str) -> f64 {
    let t = Instant::now();
    black_box(reserialise(black_box(doc)));
    t.elapsed().as_secs_f64()
}

fn time_handoff() -> f64 {
    let (to_echo, echo_in) = mpsc::channel::<u64>();
    let (echo_out, from_echo) = mpsc::channel::<u64>();
    std::thread::scope(|s| {
        s.spawn(move || {
            while let Ok(x) = echo_in.recv() {
                if echo_out.send(x + 1).is_err() {
                    break;
                }
            }
        });
        // One untimed round trip, so that the echo thread is running.
        to_echo.send(0).expect("the echo thread is alive");
        let mut x = from_echo.recv().expect("the echo thread is alive");
        let t = Instant::now();
        for _ in 0..HANDOFF_ROUND_TRIPS {
            to_echo.send(x).expect("the echo thread is alive");
            x = from_echo.recv().expect("the echo thread is alive");
        }
        let secs = t.elapsed().as_secs_f64();
        black_box(x);
        drop(to_echo);
        secs
    })
}

/// A JSON value, as the probe's parser builds it.
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_space(&mut self) {
        while self
            .bytes
            .get(self.at)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.at += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Option<()> {
        self.skip_space();
        (self.bytes.get(self.at) == Some(&byte)).then(|| self.at += 1)
    }

    fn string(&mut self) -> Option<String> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            match *self.bytes.get(self.at)? {
                b'"' => {
                    self.at += 1;
                    return Some(s);
                }
                b'\\' => {
                    s.push(char::from(*self.bytes.get(self.at + 1)?));
                    self.at += 2;
                }
                b => {
                    s.push(char::from(b));
                    self.at += 1;
                }
            }
        }
    }

    fn word(&mut self, word: &str, value: Json) -> Option<Json> {
        let end = self.at + word.len();
        (self.bytes.get(self.at..end)? == word.as_bytes()).then(|| {
            self.at = end;
            value
        })
    }

    fn value(&mut self) -> Option<Json> {
        self.skip_space();
        match *self.bytes.get(self.at)? {
            b'n' => self.word("null", Json::Null),
            b't' => self.word("true", Json::Bool(true)),
            b'f' => self.word("false", Json::Bool(false)),
            b'"' => self.string().map(Json::Str),
            b'[' => {
                self.at += 1;
                let mut items = Vec::new();
                if self.eat(b']').is_none() {
                    loop {
                        items.push(self.value()?);
                        if self.eat(b',').is_none() {
                            self.eat(b']')?;
                            break;
                        }
                    }
                }
                Some(Json::Arr(items))
            }
            b'{' => {
                self.at += 1;
                let mut fields = Vec::new();
                if self.eat(b'}').is_none() {
                    loop {
                        let key = self.string()?;
                        self.eat(b':')?;
                        fields.push((key, self.value()?));
                        if self.eat(b',').is_none() {
                            self.eat(b'}')?;
                            break;
                        }
                    }
                }
                Some(Json::Obj(fields))
            }
            _ => {
                let start = self.at;
                while self
                    .bytes
                    .get(self.at)
                    .is_some_and(|b| matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
                {
                    self.at += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.at]).ok()?;
                text.parse().ok().map(Json::Num)
            }
        }
    }
}

fn write(value: &Json, out: &mut String) {
    use std::fmt::Write as _;
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(x) => {
            let _ = write!(out, "{x}");
        }
        Json::Str(s) => {
            out.push('"');
            out.push_str(s);
            out.push('"');
        }
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write(item, out);
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (key, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                out.push_str(key);
                out.push_str("\":");
                write(item, out);
            }
            out.push('}');
        }
    }
}

/// A fixed JSON-lines document of `records` trace-like records.
#[must_use]
pub fn document(records: usize) -> String {
    use std::fmt::Write as _;
    let mut x = 0x5eed_u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let kinds = ["arrive", "depart", "set_load"];
    let mut doc = String::new();
    for i in 0..records as u64 {
        let r = next();
        let _ = writeln!(
            doc,
            r#"{{"t": {}, "vm": {}, "kind": "{}", "shape": {{"vcpus": {}, "sync": [1, {}], "weight": {:.3}}}, "levels": [{}, {}, {}], "tag": null, "live": {}}}"#,
            3 * i + r % 3,
            r % 1000,
            kinds[(r >> 8) as usize % 3],
            1 + (r >> 12) % 4,
            1 + (r >> 16) % 9,
            (r >> 20) as f64 / (1u64 << 44) as f64,
            (r >> 24) % 100,
            (r >> 32) % 100,
            (r >> 40) % 100,
            (r >> 48) % 2 == 0,
        );
    }
    doc
}

/// Parses every line of `doc` and writes it back; returns the bytes
/// written.
///
/// # Panics
///
/// On a line that does not parse, which [`document`] never writes.
#[must_use]
pub fn reserialise(doc: &str) -> usize {
    let mut out = String::new();
    let mut written = 0;
    for line in doc.lines() {
        let value = Parser {
            bytes: line.as_bytes(),
            at: 0,
        }
        .value()
        .expect("the probe document is valid JSON");
        out.clear();
        write(&value, &mut out);
        written += out.len();
    }
    written
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserialise_writes_compact_json() {
        let line = r#"{"a": [1, true, null, "x\"y"], "b": {"c": -2.5}, "d": []}"#;
        assert_eq!(
            reserialise(line),
            r#"{"a":[1,true,null,"x"y"],"b":{"c":-2.5},"d":[]}"#.len()
        );
        let doc = document(50);
        assert_eq!(doc.lines().count(), 50);
        assert!(reserialise(&doc) > 50 * 60);
    }

    #[test]
    fn speeds_are_positive() {
        for probe in [Probe::Compute(1), Probe::Compute(2), Probe::Handoff] {
            let speed = Calibrator::new(probe).speed();
            assert!(speed.is_finite() && speed > 0.0, "{probe:?}: {speed}");
        }
    }
}
