//! The correctness gate: every run's report must reproduce the
//! sequential reference bit for bit.

use ww_scenario::{EngineReport, ScenarioReport};

/// The canonical, raw-bits rendering of a report: every named metric,
/// the convergence trace and the per-node load, as the golden tests
/// compare them. Telemetry is not part of it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Digest(Vec<u8>);

impl Digest {
    /// Digests the single row of an unswept report.
    pub fn of(report: &ScenarioReport) -> Digest {
        let mut bytes = Vec::new();
        for row in &report.rows {
            let out = &row.outcome;
            for (name, value) in &out.metrics {
                bytes.extend_from_slice(name.as_bytes());
                bytes.push(0);
                bytes.extend_from_slice(&value.to_bits().to_le_bytes());
            }
            bytes.push(1);
            for v in out.trace.iter().flatten() {
                bytes.extend_from_slice(&v.to_bits().to_le_bytes());
            }
            bytes.push(2);
            for v in out.load.iter().flat_map(|l| l.as_slice()) {
                bytes.extend_from_slice(&v.to_bits().to_le_bytes());
            }
            bytes.push(3);
        }
        Digest(bytes)
    }

    /// A 64-bit FNV-1a fingerprint, for printing.
    pub fn fingerprint(&self) -> u64 {
        self.0.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }
}

/// What one run attempted and how much of it failed: the run itself,
/// plus every scheduled dynamics event.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Runs plus fired events.
    pub attempted: u64,
    /// Mismatched or errored runs plus rejected events.
    pub failed: u64,
}

impl Tally {
    /// Tallies one finished run against the reference.
    pub fn of_run(report: &ScenarioReport, reference: u64) -> Tally {
        let events = report.rows.iter().flat_map(|r| &r.events);
        let fired = events.clone().count() as u64;
        let rejected = events.filter(|m| !m.accepted()).count() as u64;
        let mismatch = u64::from(Digest::of(report).fingerprint() != reference);
        Tally {
            attempted: 1 + fired,
            failed: mismatch + rejected,
        }
    }

    /// A run that returned an error.
    pub fn errored() -> Tally {
        Tally {
            attempted: 1,
            failed: 1,
        }
    }

    /// Adds another tally.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// The simulated, deterministic summary of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimSummary {
    /// Requests served over the run.
    pub served_requests: f64,
    /// Distance to the TLB oracle at the end of the run, req/s.
    pub final_distance: f64,
    /// Largest per-server load at the end of the run, req/s.
    pub max_load: f64,
    /// Hops per served request.
    pub mean_hops: f64,
    /// Protocol control messages per served request.
    pub control_msgs_per_request: f64,
    /// Copies pushed to neighbours.
    pub copy_pushes: f64,
    /// Tunnelling fetches.
    pub tunnel_fetches: f64,
}

impl SimSummary {
    /// Reads the summary off the engine report.
    pub fn of(out: &EngineReport) -> SimSummary {
        let m = |name: &str| out.metric(name).unwrap_or(f64::NAN);
        SimSummary {
            served_requests: m("served_requests"),
            final_distance: m("final_distance"),
            max_load: out.load.as_ref().map_or(f64::NAN, |l| l.max()),
            mean_hops: m("mean_hops"),
            control_msgs_per_request: m("control_msgs_per_request"),
            copy_pushes: m("copy_pushes"),
            tunnel_fetches: m("tunnel_fetches"),
        }
    }

    /// The `sim.*` metrics: the paper's load-balance target and the
    /// protocol's cost, as simulated.
    pub fn named(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("sim.final_distance", self.final_distance),
            ("sim.max_load", self.max_load),
            ("sim.mean_hops", self.mean_hops),
            (
                "sim.control_msgs_per_request",
                self.control_msgs_per_request,
            ),
        ]
    }
}
