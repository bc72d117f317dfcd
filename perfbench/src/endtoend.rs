//! The end-to-end measurement (`--trace 0`): repeated spec → report
//! runs with telemetry off, each in a fresh process, every report
//! checked against the sequential reference.

use crate::check::{SimSummary, Tally};
use crate::measure::{rss, Bench};
use crate::stats::{spread, Spread};
use crate::trace::Stamps;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use ww_telemetry::Level;

/// The samples behind each metric, and what was attempted.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// `(metric name, per-run samples)`, in [`crate::metrics::END_TO_END`]
    /// or [`crate::metrics::PER_LAYER`] order.
    pub samples: Vec<(&'static str, Vec<f64>)>,
    /// Attempted and failed operations.
    pub tally: Tally,
    /// Deterministic simulated values, printed and recorded beside the
    /// metrics but not part of the result line.
    pub extra: Vec<(&'static str, f64)>,
    /// Caveats to print next to the figures.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Median and quartiles of every metric.
    pub fn spreads(&self) -> Vec<(&'static str, Spread)> {
        self.samples.iter().map(|(n, v)| (*n, spread(v))).collect()
    }
}

/// How long a measurement runs.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Keep starting runs until this much time has passed...
    pub seconds: Duration,
    /// ...and at least this many runs have finished.
    pub min_runs: usize,
}

impl Budget {
    /// Whether another run should start.
    pub fn more(&self, started: Instant, runs: usize) -> bool {
        runs < self.min_runs || started.elapsed() < self.seconds
    }
}

/// One end-to-end run, as a child process reports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Spec text → report, seconds.
    pub wall_s: f64,
    /// The run's set-up, seconds (see [`crate::measure::Run::setup`]).
    pub setup_s: f64,
    /// Peak resident set of the run, MiB.
    pub peak_rss_mb: f64,
    /// The simulated outcome.
    pub sim: SimSummary,
    /// Attempted and failed operations.
    pub tally: Tally,
}

impl Sample {
    fn to_line(self) -> String {
        let s = &self.sim;
        let fields = [
            self.wall_s,
            self.setup_s,
            self.peak_rss_mb,
            s.served_requests,
            s.final_distance,
            s.max_load,
            s.mean_hops,
            s.control_msgs_per_request,
            s.copy_pushes,
            s.tunnel_fetches,
            self.tally.attempted as f64,
            self.tally.failed as f64,
        ];
        let text: Vec<String> = fields.iter().map(|v| format!("{v:?}")).collect();
        format!("sample {}", text.join(" "))
    }

    fn from_line(line: &str) -> Option<Sample> {
        let rest = line.strip_prefix("sample ")?;
        let v: Vec<f64> = rest
            .split(' ')
            .map(str::parse)
            .collect::<Result<_, _>>()
            .ok()?;
        let [wall_s, setup_s, peak_rss_mb, served, dist, max, hops, ctl, pushes, tunnels, att, failed] =
            v[..]
        else {
            return None;
        };
        Some(Sample {
            wall_s,
            setup_s,
            peak_rss_mb,
            sim: SimSummary {
                served_requests: served,
                final_distance: dist,
                max_load: max,
                mean_hops: hops,
                control_msgs_per_request: ctl,
                copy_pushes: pushes,
                tunnel_fetches: tunnels,
            },
            tally: Tally {
                attempted: att as u64,
                failed: failed as u64,
            },
        })
    }
}

/// The child side: one run, spec text → report (`from_json` +
/// `Runner::run_with`) with telemetry off, in a fresh process, so its
/// peak resident set is its own. Prints one `sample` line.
///
/// # Errors
///
/// A message when the run fails.
pub fn child(bench: &Bench) -> Result<(), String> {
    rss::reset_peak();
    let mut stamps = Stamps::default();
    let run = bench.run(Level::Off, &mut stamps)?;
    let sample = Sample {
        wall_s: run.wall.as_secs_f64(),
        setup_s: run.setup(&stamps).map_or(f64::NAN, |d| d.as_secs_f64()),
        peak_rss_mb: rss::peak_mb().unwrap_or(f64::NAN),
        sim: SimSummary::of(&run.report.rows[0].outcome),
        tally: run.tally,
    };
    println!("{}", sample.to_line());
    Ok(())
}

/// Starts one child run of `exe` and waits for it.
fn spawn(exe: &Path, bench: &Bench) -> Result<Sample, String> {
    let out = Command::new(exe)
        .args(["--workload", bench.workload.name()])
        .args(["--seed", &bench.seed.to_string()])
        .args(["--child", &format!("{:016x}", bench.reference())])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    if !out.status.success() {
        return Err(format!("child run exited with {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .find_map(Sample::from_line)
        .ok_or_else(|| "child run printed no sample".to_string())
}

/// Runs the end-to-end loop: each iteration is one run in a fresh
/// child process of `exe` (this benchmark's own executable), until the
/// budget is spent.
pub fn measure(bench: &Bench, exe: &Path, budget: Budget) -> Outcome {
    let mut wall = Vec::new();
    let mut rps = Vec::new();
    let mut setup = Vec::new();
    let mut peak = Vec::new();
    let mut tally = Tally::default();
    let mut sim = None;
    let started = Instant::now();
    let mut runs = 0;
    while budget.more(started, runs) {
        runs += 1;
        match spawn(exe, bench) {
            Ok(s) => {
                tally.add(s.tally);
                wall.push(s.wall_s);
                rps.push(s.sim.served_requests / s.wall_s);
                setup.push(s.setup_s);
                peak.push(s.peak_rss_mb);
                sim = Some(s.sim);
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                tally.add(Tally::errored());
            }
        }
    }
    let finite = |v: Vec<f64>| v.into_iter().filter(|x| x.is_finite()).collect();
    Outcome {
        samples: vec![
            ("wall_s", wall),
            ("requests_per_s", rps),
            ("setup_s", finite(setup)),
            ("peak_rss_mb", finite(peak)),
        ],
        tally,
        extra: sim.map_or(Vec::new(), |s| s.named()),
        notes: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_round_trip_through_their_line() {
        let s = Sample {
            wall_s: 2.503_125_1,
            setup_s: 0.1 + 0.2,
            peak_rss_mb: 235.79296875,
            sim: SimSummary {
                served_requests: 254_000.0,
                final_distance: 1_503.201_997_794_424_2,
                max_load: 1046.0859375,
                mean_hops: 0.963_574_055_177_990_4,
                control_msgs_per_request: 5.446_102_308_388_363_5,
                copy_pushes: 12.0,
                tunnel_fetches: 0.0,
            },
            tally: Tally {
                attempted: 59,
                failed: 1,
            },
        };
        assert_eq!(Sample::from_line(&s.to_line()), Some(s));
        assert_eq!(Sample::from_line("sample 1 2"), None);
    }
}
