//! Every metric the benchmark reports: name, unit, direction, and —
//! for layer metrics — the end-to-end metric it should move, on which
//! workloads. `BENCHMARK.json` at the repository root lists the same
//! names; a test keeps the two in step.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Dotted name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// For a layer metric: the end-to-end metric it should move and the
    /// workloads on which it should move it. Empty for end-to-end
    /// metrics.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

/// End-to-end host metrics, measured with telemetry off (`--trace 0`).
pub const END_TO_END: &[MetricDef] = &[
    m("wall_s", "s", Lower, ""),
    m("requests_per_s", "req/s", Higher, ""),
    m("setup_s", "s", Lower, ""),
    m("peak_rss_mb", "MB", Lower, ""),
];

const SETUP_ALL: &str = "setup_s on every workload";
const WALL_ALL: &str = "wall_s on every workload";
const WALL_CHURN: &str = "wall_s on churn_seq and churn_dist; near zero on cdn_steady";
const WALL_CDN: &str = "wall_s and requests_per_s on cdn_steady";
const SIM_OUT: &str =
    "simulated outcome, deterministic per seed; a host-side speed-up must leave it bit-identical";
const SIM_ALL: &str = "the sim.* metrics on every workload; must repeat exactly";

/// Per-layer metrics, from the traced run (`--trace 1`). A layer a
/// workload does not exercise reads zero.
pub const PER_LAYER: &[MetricDef] = &[
    m("scenario.parse_s", "s", Lower, SETUP_ALL),
    m("scenario.resolve_s", "s", Lower, SETUP_ALL),
    m("topology.build_s", "s", Lower, SETUP_ALL),
    m("workload.mix_s", "s", Lower, SETUP_ALL),
    m("core.webfold_s", "s", Lower, SETUP_ALL),
    m("pdes.partition_s", "s", Lower, SETUP_ALL),
    m("dist.handshake_s", "s", Lower, "setup_s on churn_dist"),
    m("scenario.round_ms.p50", "ms", Lower, WALL_ALL),
    m("scenario.round_ms.max", "ms", Lower, WALL_ALL),
    m("scenario.runner_self_s", "s", Lower, WALL_ALL),
    m("scenario.event_apply_ms.p50", "ms", Lower, WALL_CHURN),
    m("scenario.event_apply_ms.max", "ms", Lower, WALL_CHURN),
    m("core.phase.arrival_rebuild_s", "s", Lower, WALL_CHURN),
    m("core.phase.oracle_refresh_s", "s", Lower, WALL_CHURN),
    m("core.surgery.sweeps", "count", Lower, WALL_CHURN),
    m("core.surgery.removed", "count", Lower, WALL_CHURN),
    m("core.oracle.refolds", "count", Lower, WALL_CHURN),
    m("core.oracle.full_sweeps", "count", Lower, WALL_CHURN),
    m("pdes.events.popped", "count", Lower, WALL_CDN),
    m("pdes.events_per_s", "1/s", Higher, WALL_CDN),
    m("pdes.phase.epoch_compute_s", "s", Lower, WALL_CDN),
    m("pdes.phase.barrier_wait_s", "s", Lower, WALL_CDN),
    m("pdes.imbalance.max_over_mean", "ratio", Lower, WALL_CDN),
    m(
        "pdes.merge.stalls",
        "count",
        Lower,
        "wall_s on cdn_steady; varies with thread timing, not a gate",
    ),
    m(
        "pdes.promises.sent",
        "count",
        Lower,
        "wall_s on cdn_steady; varies with thread timing, not a gate",
    ),
    m("pdes.overflow.parks", "count", Lower, WALL_CDN),
    m(
        "pdes.speedup_vs_seq",
        "ratio",
        Higher,
        "wall_s on cdn_steady",
    ),
    m(
        "pdes.queue.depth.high_water",
        "count",
        Lower,
        "peak_rss_mb on cdn_steady",
    ),
    m(
        "pdes.ring.occupancy.high_water",
        "count",
        Lower,
        "peak_rss_mb on cdn_steady",
    ),
    m(
        "dist.epoch_rtt_ms.mean",
        "ms",
        Lower,
        "wall_s on churn_dist",
    ),
    m("dist.epoch_rtt_ms.max", "ms", Lower, "wall_s on churn_dist"),
    m(
        "dist.apply_rtt_ms.mean",
        "ms",
        Lower,
        "wall_s on churn_dist",
    ),
    m("dist.apply_rtt_ms.max", "ms", Lower, "wall_s on churn_dist"),
    m("dist.bytes_sent", "B", Lower, "wall_s on churn_dist"),
    m("dist.bytes_received", "B", Lower, "wall_s on churn_dist"),
    m("core.packet.served_requests", "count", Higher, SIM_ALL),
    m("core.packet.copy_pushes", "count", Lower, SIM_ALL),
    m("core.packet.tunnel_fetches", "count", Lower, SIM_ALL),
    m("sim.final_distance", "req/s", Lower, SIM_OUT),
    m("sim.max_load", "req/s", Lower, SIM_OUT),
    m("sim.mean_hops", "hops", Lower, SIM_OUT),
    m("sim.control_msgs_per_request", "msgs", Lower, SIM_OUT),
    m(
        "telemetry.full_overhead_pct",
        "%",
        Lower,
        "none: end-to-end runs use telemetry off",
    ),
];

/// Looks a metric up in either table.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}
