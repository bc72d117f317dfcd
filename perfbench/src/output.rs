//! Printing a measurement: a human-readable table, a result record
//! with provenance and spread, and the one-line JSON result.

use crate::endtoend::Outcome;
use crate::metrics;
use crate::workload::{DEFAULT_SEED, HELD_OUT_SEED};
use serde_json::{Map, Value};
use std::path::Path;

fn object(pairs: Vec<(&str, Value)>) -> Value {
    let mut map = Map::new();
    for (k, v) in pairs {
        map.insert(k, v);
    }
    Value::Object(map)
}

fn number(x: f64) -> Value {
    if x.is_finite() {
        Value::Number(x)
    } else {
        Value::Null
    }
}

/// Whether the measurement is usable: no failed operation, and every
/// metric has at least one sample.
pub fn correct(outcome: &Outcome) -> bool {
    outcome.tally.failed == 0 && outcome.samples.iter().all(|(_, v)| !v.is_empty())
}

/// One `name = median unit [q1 .. q3] (n runs)` line per metric.
pub fn table(outcome: &Outcome) -> String {
    let mut out = String::new();
    for (name, s) in outcome.spreads() {
        let unit = metrics::def(name).map_or("", |d| d.unit);
        out.push_str(&format!(
            "{name:<34} {:>16.6} {unit:<6} [{:.6} .. {:.6}] (n={})\n",
            s.median, s.q1, s.q3, s.n
        ));
    }
    let t = outcome.tally;
    out.push_str(&format!(
        "{:<34} {:>16.6} ratio  ({} of {} ops)\n",
        "failed_frac",
        t.failed as f64 / t.attempted.max(1) as f64,
        t.failed,
        t.attempted
    ));
    for (name, value) in &outcome.extra {
        let unit = metrics::def(name).map_or("", |d| d.unit);
        out.push_str(&format!(
            "{name:<34} {value:>16.6} {unit:<6} (simulated, per seed)\n"
        ));
    }
    for note in &outcome.notes {
        out.push_str(&format!("note: {note}\n"));
    }
    out
}

/// The last line of standard output:
/// `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
pub fn result_line(outcome: &Outcome) -> String {
    let mut metrics_map = Map::new();
    for (name, s) in outcome.spreads() {
        let unit = metrics::def(name).map_or("", |d| d.unit);
        metrics_map.insert(
            name,
            object(vec![
                ("value", number(s.median)),
                ("unit", Value::from(unit)),
            ]),
        );
    }
    serde_json::to_string(&object(vec![
        ("correct", Value::Bool(correct(outcome))),
        ("attempted", Value::Number(outcome.tally.attempted as f64)),
        ("failed", Value::Number(outcome.tally.failed as f64)),
        ("metrics", Value::Object(metrics_map)),
    ]))
}

/// The commit of the checkout at `root`, when it is a git work tree.
pub fn commit(root: &Path) -> String {
    let parent = root.parent().unwrap_or(root);
    std::process::Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", parent)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Host CPU time stolen by the hypervisor and total CPU time, in clock
/// ticks since boot (`None` where `/proc/stat` is unavailable). Steal
/// is time this machine's CPUs were runnable but served other guests:
/// the main cause of run-to-run drift on a shared virtual host.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Stolen share of CPU time between two [`cpu_ticks`] readings, in
/// percent.
pub fn steal_pct(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (before?, after?);
    (t1 > t0).then(|| (s1 - s0) as f64 / (t1 - t0) as f64 * 100.0)
}

/// Provenance of one measurement.
pub struct Provenance<'a> {
    /// Workload name.
    pub workload: &'a str,
    /// Workload seed.
    pub seed: u64,
    /// `--trace` value.
    pub trace: bool,
    /// Measurement length, seconds.
    pub seconds: f64,
    /// Commit of the checkout.
    pub commit: String,
    /// Fingerprint of the sequential reference report.
    pub reference: u64,
    /// Share of host CPU time stolen while measuring, percent.
    pub steal_pct: Option<f64>,
}

/// The result record: provenance, core count, and median and quartiles
/// of every metric.
pub fn record(p: &Provenance<'_>, outcome: &Outcome) -> Value {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut per_metric = Map::new();
    for (name, s) in outcome.spreads() {
        let def = metrics::def(name);
        let mut pairs = vec![
            ("unit", Value::from(def.map_or("", |d| d.unit))),
            ("median", number(s.median)),
            ("q1", number(s.q1)),
            ("q3", number(s.q3)),
            ("n", Value::Number(s.n as f64)),
        ];
        if let Some(d) = def.filter(|d| !d.moves.is_empty()) {
            pairs.push(("moves", Value::from(d.moves)));
        }
        per_metric.insert(name, object(pairs));
    }
    for (name, value) in &outcome.extra {
        per_metric.insert(*name, object(vec![("value", number(*value))]));
    }
    object(vec![
        ("workload", Value::from(p.workload)),
        ("seed", Value::Number(p.seed as f64)),
        ("default_seed", Value::Number(DEFAULT_SEED as f64)),
        ("held_out_seed", Value::Number(HELD_OUT_SEED as f64)),
        ("trace", Value::Bool(p.trace)),
        ("seconds", Value::Number(p.seconds)),
        ("available_cores", Value::Number(cores as f64)),
        ("commit", Value::from(p.commit.as_str())),
        ("steal_pct", p.steal_pct.map_or(Value::Null, number)),
        (
            "reference_digest",
            Value::from(format!("{:016x}", p.reference).as_str()),
        ),
        ("attempted", Value::Number(outcome.tally.attempted as f64)),
        ("failed", Value::Number(outcome.tally.failed as f64)),
        (
            "notes",
            Value::Array(
                outcome
                    .notes
                    .iter()
                    .map(|n| Value::from(n.as_str()))
                    .collect(),
            ),
        ),
        ("metrics", Value::Object(per_metric)),
    ])
}
