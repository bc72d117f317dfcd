//! The traced measurement (`--trace 1`): runs at telemetry `full`
//! interleaved with untraced runs, benchmark-side spans around every
//! call into a layer, and the engine's own `full` snapshot.

use crate::check::{SimSummary, Tally};
use crate::endtoend::{Budget, Outcome};
use crate::measure::{Bench, Run};
use crate::stats::median;
use crate::trace::{Mark, SpanId, Spans, Stamps};
use crate::workload::WORKERS;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use ww_telemetry::{Level, Snapshot};

/// How often each layer probe repeats.
const PROBE_REPS: usize = 5;

/// The traced measurement's outcome and its span log.
pub struct Traced {
    /// Per-layer samples: one per traced run, or one per repetition for
    /// the layer probes.
    pub outcome: Outcome,
    /// Every benchmark-side span.
    pub spans: Spans,
    /// The root span of each traced run.
    pub traced_roots: Vec<SpanId>,
}

/// Times the layer entry points the runner calls during resolution, on
/// the workload's own tree and demand.
fn probe_layers(bench: &Bench, spans: &mut Spans) -> BTreeMap<&'static str, Vec<f64>> {
    let shape = bench.workload.shape();
    let mut times: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut keep = |name: &'static str, d: Duration| {
        times.entry(name).or_default().push(d.as_secs_f64());
    };
    spans.time("bench.probes", None, |spans, root| {
        for _ in 0..PROBE_REPS {
            let (tree, d) = spans.time("topology.build", Some(root), |_, _| {
                ww_topology::two_level(shape.regions, shape.leaves)
            });
            keep("topology.build_s", d);
            let (mix, d) = spans.time("workload.mix", Some(root), |_, _| {
                let rates = ww_workload::leaf_only(&tree, shape.leaf_rate);
                let mix = ww_workload::shared_zipf_mix(&tree, &rates, shape.docs, shape.theta);
                (rates, mix)
            });
            keep("workload.mix_s", d);
            let (fold, d) = spans.time("core.webfold", Some(root), |_, _| {
                ww_core::webfold(&tree, &mix.0)
            });
            keep("core.webfold_s", d);
            let (part, d) = spans.time("pdes.partition", Some(root), |_, _| {
                ww_pdes::partition_subtrees(&tree, WORKERS)
            });
            keep("pdes.partition_s", d);
            std::hint::black_box((fold, part, mix));
        }
    });
    times
}

/// Records the runner's callback intervals of one run as spans under a
/// `scenario.run_with` span: the in-run resolution, every round and
/// every applied event. What is left of `run_with` is the runner's own
/// time (report assembly and teardown). Returns round and event
/// durations in milliseconds.
fn record_run(
    spans: &mut Spans,
    parent: SpanId,
    run: &Run,
    stamps: &Stamps,
) -> (SpanId, Vec<f64>, Vec<f64>) {
    spans.record(
        "scenario.parse",
        run.start,
        run.run_with_start,
        Some(parent),
    );
    let run_with = spans.record(
        "scenario.run_with",
        run.run_with_start,
        run.end,
        Some(parent),
    );
    let mut rounds = Vec::new();
    let mut events = Vec::new();
    let mut prev = run.run_with_start;
    for (mark, at) in stamps.marks() {
        let name = match mark {
            Mark::DriveStart => "scenario.run_resolve",
            Mark::Round => "scenario.round",
            Mark::Event => "scenario.event",
        };
        spans.record(name, prev, at, Some(run_with));
        let ms = (at - prev).as_secs_f64() * 1e3;
        match mark {
            Mark::Round => rounds.push(ms),
            Mark::Event => events.push(ms),
            Mark::DriveStart => {}
        }
        prev = at;
    }
    (run_with, rounds, events)
}

fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(0.0, f64::max)
}

fn or_zero(v: f64) -> f64 {
    if v.is_nan() {
        0.0
    } else {
        v
    }
}

/// The `full` snapshot's values under the layer metric names. Layers
/// the workload does not exercise read zero.
fn snapshot_metrics(snap: &Snapshot, wall: f64, out: &mut BTreeMap<&'static str, f64>) {
    let counter = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    let phase_s = |name: &str| snap.phase(name).map_or(0.0, |p| p.ns as f64 / 1e9);
    let hist = |name: &str| {
        snap.hists
            .iter()
            .find(|(n, _)| n == name)
            .map_or((0.0, 0.0), |(_, h)| {
                let mean = if h.count == 0 {
                    0.0
                } else {
                    h.sum_ns as f64 / h.count as f64 / 1e6
                };
                (mean, h.max_ns as f64 / 1e6)
            })
    };
    let popped = counter("pdes.events.popped");
    let (epoch_mean, epoch_max) = hist("dist.epoch_rtt");
    let (apply_mean, apply_max) = hist("dist.apply_rtt");
    for (name, value) in [
        ("dist.handshake_s", counter("dist.handshake_ns") / 1e9),
        (
            "core.phase.arrival_rebuild_s",
            phase_s("core.phase.arrival_rebuild"),
        ),
        (
            "core.phase.oracle_refresh_s",
            phase_s("core.phase.oracle_refresh"),
        ),
        ("core.surgery.sweeps", counter("core.surgery.sweeps")),
        ("core.surgery.removed", counter("core.surgery.removed")),
        ("core.oracle.refolds", counter("core.oracle.refolds")),
        (
            "core.oracle.full_sweeps",
            counter("core.oracle.full_sweeps"),
        ),
        ("pdes.events.popped", popped),
        ("pdes.events_per_s", popped / wall),
        (
            "pdes.phase.epoch_compute_s",
            phase_s("pdes.phase.epoch_compute"),
        ),
        (
            "pdes.phase.barrier_wait_s",
            phase_s("pdes.phase.barrier_wait"),
        ),
        (
            "pdes.imbalance.max_over_mean",
            counter("pdes.imbalance.max_over_mean") / 1000.0,
        ),
        ("pdes.merge.stalls", counter("pdes.merge.stalls")),
        ("pdes.promises.sent", counter("pdes.promises.sent")),
        ("pdes.overflow.parks", counter("pdes.overflow.parks")),
        (
            "pdes.queue.depth.high_water",
            counter("pdes.queue.depth.high_water"),
        ),
        (
            "pdes.ring.occupancy.high_water",
            counter("pdes.ring.occupancy.high_water"),
        ),
        ("dist.epoch_rtt_ms.mean", epoch_mean),
        ("dist.epoch_rtt_ms.max", epoch_max),
        ("dist.apply_rtt_ms.mean", apply_mean),
        ("dist.apply_rtt_ms.max", apply_max),
        ("dist.bytes_sent", counter("dist.bytes.sent")),
        ("dist.bytes_received", counter("dist.bytes.received")),
    ] {
        out.insert(name, value);
    }
}

/// Runs the traced measurement: the layer probes once, then untraced
/// and traced runs in alternation until the budget is spent. Each
/// traced run is preceded by a traced set-up (`from_json` +
/// `Runner::resolve`).
pub fn measure(bench: &Bench, budget: Budget) -> Traced {
    let mut spans = Spans::new();
    let probes = probe_layers(bench, &mut spans);
    let mut tally = Tally::default();
    let mut untraced_wall = Vec::new();
    let mut per_run: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut traced_roots = Vec::new();
    let started = Instant::now();
    let mut runs = 0;
    while budget.more(started, runs) {
        runs += 1;
        if let Some(run) = bench.run_plain(&mut tally) {
            spans.record("bench.untraced_run", run.start, run.end, None);
            untraced_wall.push(run.wall.as_secs_f64());
        }
        let mut values = BTreeMap::new();
        let (ok, _) = spans.time("bench.traced", None, |spans, root| {
            traced_roots.push(root);
            let setup = match bench.setup(Level::Full) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    return false;
                }
            };
            let setup_span = spans.record("bench.setup", setup.start, setup.dropped, Some(root));
            spans.record(
                "scenario.parse",
                setup.start,
                setup.resolve_start,
                Some(setup_span),
            );
            spans.record(
                "scenario.resolve",
                setup.resolve_start,
                setup.end,
                Some(setup_span),
            );
            spans.record("engine.drop", setup.end, setup.dropped, Some(setup_span));
            values.insert(
                "scenario.parse_s",
                (setup.resolve_start - setup.start).as_secs_f64(),
            );
            values.insert(
                "scenario.resolve_s",
                (setup.end - setup.resolve_start).as_secs_f64(),
            );

            let mut stamps = Stamps::default();
            let run = match bench.run(Level::Full, &mut stamps) {
                Ok(run) => run,
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    return false;
                }
            };
            tally.add(run.tally);
            let run_span = spans.record("bench.run", run.start, run.end, Some(root));
            let (run_with, rounds, events) = record_run(spans, run_span, &run, &stamps);
            let self_times = spans.self_times();
            let wall = run.wall.as_secs_f64();
            values.insert("scenario.round_ms.p50", or_zero(median(&rounds)));
            values.insert("scenario.round_ms.max", max(&rounds));
            values.insert("scenario.runner_self_s", self_times[run_with].as_secs_f64());
            values.insert("scenario.event_apply_ms.p50", or_zero(median(&events)));
            values.insert("scenario.event_apply_ms.max", max(&events));
            let out = &run.report.rows[0].outcome;
            snapshot_metrics(
                out.telemetry.as_ref().unwrap_or(&Snapshot::new()),
                wall,
                &mut values,
            );
            values.insert(
                "pdes.speedup_vs_seq",
                bench.reference_wall.as_secs_f64() / wall,
            );
            let sim = SimSummary::of(out);
            values.insert("core.packet.served_requests", sim.served_requests);
            values.insert("core.packet.copy_pushes", sim.copy_pushes);
            values.insert("core.packet.tunnel_fetches", sim.tunnel_fetches);
            values.extend(sim.named());
            values.insert("bench.traced_wall_s", wall);
            true
        });
        if ok {
            per_run.push(values);
        } else {
            tally.add(Tally::errored());
        }
    }
    let untraced = median(&untraced_wall);
    for values in &mut per_run {
        let traced = values.remove("bench.traced_wall_s").unwrap_or(f64::NAN);
        values.insert(
            "telemetry.full_overhead_pct",
            (traced / untraced - 1.0) * 100.0,
        );
    }
    let mut notes = Vec::new();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < WORKERS {
        notes.push(format!(
            "pdes.speedup_vs_seq: not meaningful, {cores} core(s) available for {WORKERS} workers"
        ));
    }
    let samples = crate::metrics::PER_LAYER
        .iter()
        .map(|d| {
            let v = probes.get(d.name).cloned().unwrap_or_else(|| {
                per_run
                    .iter()
                    .filter_map(|m| m.get(d.name).copied())
                    .collect()
            });
            (d.name, v)
        })
        .collect();
    Traced {
        outcome: Outcome {
            samples,
            tally,
            extra: Vec::new(),
            notes,
        },
        spans,
        traced_roots,
    }
}
