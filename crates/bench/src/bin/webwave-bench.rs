//! `webwave-bench` — the recorded perf trajectory of the dense-state
//! engines.
//!
//! Measures `RateWave::run` and `DocSim::run` against the naive
//! hash-table / clone-per-round reference engines
//! (`ww_core::reference`) on 1k+ node trees, verifies that dense and
//! naive produce **bit-identical convergence traces**, times `webfold`
//! itself across scales, measures the unified `Runner` dispatch
//! overhead against calling the engines directly (budget: ≤ 1%), and
//! writes everything to `BENCH_webfold_scaling.json` (or the path given
//! as the first CLI argument).
//!
//! Run with: `cargo run --release -p ww-bench --bin webwave-bench`

use std::fmt::Write as _;
use ww_bench::{scaling_mix, scaling_scenario, time_min};
use ww_core::barrier::BarrierOps;
use ww_core::docsim::{DocSim, DocSimConfig};
use ww_core::fold::{webfold, IncrementalFold};
use ww_core::packetsim::{PacketSim, PacketSimConfig};
use ww_core::reference::{NaiveDocSim, NaiveRateWave};
use ww_core::wave::{RateWave, WaveConfig};
use ww_dist::{DistMode, DistOptions, DistPacketSim};
use ww_model::RateVector;
use ww_pdes::{ParPacketSim, RebalanceConfig};
use ww_scenario::{
    drive, DocMixSpec, EngineSpec, NullObserver, RatesSpec, Runner, ScenarioSpec, TelemetrySpec,
    Termination, TopologySpec, WorkloadSpec,
};
use ww_telemetry::Level;

const SAMPLES: usize = 5;

struct Comparison {
    engine: &'static str,
    nodes: usize,
    docs: usize,
    rounds: usize,
    staleness: usize,
    dense_ns_per_round: f64,
    naive_ns_per_round: f64,
    speedup: f64,
    traces_identical: bool,
}

fn traces_equal(a: &ww_stats::ConvergenceTrace, b: &ww_stats::ConvergenceTrace) -> bool {
    a.len() == b.len()
        && a.distances()
            .iter()
            .zip(b.distances())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

fn bench_rate_wave(nodes: usize, rounds: usize, staleness: usize) -> Comparison {
    let (tree, rates) = scaling_scenario(nodes, 12, nodes as u64);
    let config = WaveConfig {
        alpha: None,
        staleness,
    };

    // Trace equivalence on a short prefix (cheap, exact).
    let mut dense_probe = RateWave::new(&tree, &rates, config);
    let mut naive_probe = NaiveRateWave::new(&tree, &rates, config);
    dense_probe.run(rounds.min(50));
    naive_probe.run(rounds.min(50));
    let traces_identical = traces_equal(dense_probe.trace(), naive_probe.trace());

    let dense = time_min(
        SAMPLES,
        || RateWave::new(&tree, &rates, config),
        |w| w.run(rounds),
    );
    let naive = time_min(
        SAMPLES,
        || NaiveRateWave::new(&tree, &rates, config),
        |w| w.run(rounds),
    );
    Comparison {
        engine: "RateWave::run",
        nodes,
        docs: 0,
        rounds,
        staleness,
        dense_ns_per_round: dense.as_nanos() as f64 / rounds as f64,
        naive_ns_per_round: naive.as_nanos() as f64 / rounds as f64,
        speedup: naive.as_secs_f64() / dense.as_secs_f64(),
        traces_identical,
    }
}

fn bench_docsim(nodes: usize, docs: usize, rounds: usize) -> Comparison {
    let (tree, rates) = scaling_scenario(nodes, 12, nodes as u64 ^ 0xD0C);
    let mix = scaling_mix(&tree, &rates, docs);
    let config = DocSimConfig::default();

    let mut dense_probe = DocSim::new(&tree, &mix, config);
    let mut naive_probe = NaiveDocSim::new(&tree, &mix, config);
    dense_probe.run(rounds.min(10));
    naive_probe.run(rounds.min(10));
    let traces_identical = traces_equal(dense_probe.trace(), naive_probe.trace())
        && dense_probe.stats() == naive_probe.stats();

    let dense = time_min(
        SAMPLES,
        || DocSim::new(&tree, &mix, config),
        |s| s.run(rounds),
    );
    let naive = time_min(
        SAMPLES.min(3),
        || NaiveDocSim::new(&tree, &mix, config),
        |s| s.run(rounds),
    );
    Comparison {
        engine: "DocSim::run",
        nodes,
        docs,
        rounds,
        staleness: 0,
        dense_ns_per_round: dense.as_nanos() as f64 / rounds as f64,
        naive_ns_per_round: naive.as_nanos() as f64 / rounds as f64,
        speedup: naive.as_secs_f64() / dense.as_secs_f64(),
        traces_identical,
    }
}

const OVERHEAD_SAMPLES: usize = 9;

/// Interleaved min-of-N timing for A/B comparisons: alternating the two
/// measurements within each iteration cancels slow drift (thermal,
/// scheduler) that plain back-to-back `time_min` calls absorb into one
/// side — essential when the effect under test is ~1%.
fn time_interleaved_min(
    samples: usize,
    mut measure_a: impl FnMut() -> std::time::Duration,
    mut measure_b: impl FnMut() -> std::time::Duration,
) -> (std::time::Duration, std::time::Duration) {
    let mut best_a = std::time::Duration::MAX;
    let mut best_b = std::time::Duration::MAX;
    for _ in 0..samples.max(1) {
        best_a = best_a.min(measure_a());
        best_b = best_b.min(measure_b());
    }
    (best_a, best_b)
}

/// Runner-dispatch overhead: the same engine, driven directly vs.
/// resolved from a spec and stepped through `Box<dyn Engine>` by the
/// unified drive loop. `overhead_pct` is the drive-phase cost the
/// abstraction adds; the budget is 1%.
struct RunnerOverhead {
    engine: &'static str,
    nodes: usize,
    rounds: usize,
    direct_ns_per_round: f64,
    runner_ns_per_round: f64,
    overhead_pct: f64,
    traces_identical: bool,
}

/// The spec equivalent of [`scaling_scenario`]: same seed, same
/// generator stream (tree, then rates), so direct and spec-driven runs
/// are bit-identical.
fn scaling_spec(nodes: usize, seed: u64, rounds: usize) -> ScenarioSpec {
    ScenarioSpec {
        name: "bench-runner-overhead".to_string(),
        topology: TopologySpec::RandomDepth { nodes, depth: 12 },
        workload: WorkloadSpec {
            rates: RatesSpec::RandomUniform { lo: 0.0, hi: 100.0 },
            doc_mix: None,
        },
        engine: EngineSpec::RateWave {
            alpha: None,
            staleness: 0,
        },
        termination: Termination::Rounds { max: rounds },
        seed,
        sweep: None,
        events: None,
        telemetry: TelemetrySpec::default(),
        rebalance: None,
    }
}

fn bench_runner_overhead_rate(nodes: usize, rounds: usize) -> RunnerOverhead {
    let seed = nodes as u64;
    let (tree, rates) = scaling_scenario(nodes, 12, seed);
    let config = WaveConfig {
        alpha: None,
        staleness: 0,
    };
    let spec = scaling_spec(nodes, seed, rounds);
    let runner = Runner::new();

    // Equivalence probe: the spec-driven engine must replay the direct
    // engine bit for bit.
    let mut via_probe = runner.resolve(&spec).expect("spec resolves");
    let mut probe_spec = spec.clone();
    probe_spec.termination = Termination::Rounds {
        max: rounds.min(50),
    };
    drive(via_probe.as_mut(), &probe_spec, &mut NullObserver).expect("probe drives");
    let mut direct_probe = RateWave::new(&tree, &rates, config);
    direct_probe.run(rounds.min(50));
    let traces_identical = via_probe.trace().is_some_and(|t| {
        t.len() == direct_probe.trace().len()
            && t.iter()
                .zip(direct_probe.trace().distances())
                .all(|(a, b)| a.to_bits() == b.to_bits())
    });

    let (direct, via_runner) = time_interleaved_min(
        OVERHEAD_SAMPLES,
        || {
            let mut w = RateWave::new(&tree, &rates, config);
            let start = std::time::Instant::now();
            w.run(rounds);
            start.elapsed()
        },
        || {
            let mut engine = runner.resolve(&spec).expect("spec resolves");
            let start = std::time::Instant::now();
            drive(engine.as_mut(), &spec, &mut NullObserver).expect("spec drives");
            start.elapsed()
        },
    );
    RunnerOverhead {
        engine: "rate_wave",
        nodes,
        rounds,
        direct_ns_per_round: direct.as_nanos() as f64 / rounds as f64,
        runner_ns_per_round: via_runner.as_nanos() as f64 / rounds as f64,
        overhead_pct: 100.0 * (via_runner.as_secs_f64() / direct.as_secs_f64() - 1.0),
        traces_identical,
    }
}

fn bench_runner_overhead_doc(nodes: usize, docs: usize, rounds: usize) -> RunnerOverhead {
    let seed = nodes as u64 ^ 0xD0C;
    let (tree, rates) = scaling_scenario(nodes, 12, seed);
    let mix = scaling_mix(&tree, &rates, docs);
    let config = DocSimConfig::default();
    let mut spec = scaling_spec(nodes, seed, rounds);
    spec.workload.doc_mix = Some(DocMixSpec::SharedZipf { docs, theta: 1.0 });
    spec.engine = EngineSpec::DocSim {
        alpha: None,
        tunneling: true,
        barrier_patience: 2,
    };
    let runner = Runner::new();

    let mut via_probe = runner.resolve(&spec).expect("spec resolves");
    let mut probe_spec = spec.clone();
    probe_spec.termination = Termination::Rounds {
        max: rounds.min(10),
    };
    drive(via_probe.as_mut(), &probe_spec, &mut NullObserver).expect("probe drives");
    let mut direct_probe = DocSim::new(&tree, &mix, config);
    direct_probe.run(rounds.min(10));
    let traces_identical = via_probe.trace().is_some_and(|t| {
        t.len() == direct_probe.trace().len()
            && t.iter()
                .zip(direct_probe.trace().distances())
                .all(|(a, b)| a.to_bits() == b.to_bits())
    });

    let (direct, via_runner) = time_interleaved_min(
        OVERHEAD_SAMPLES,
        || {
            let mut s = DocSim::new(&tree, &mix, config);
            let start = std::time::Instant::now();
            s.run(rounds);
            start.elapsed()
        },
        || {
            let mut engine = runner.resolve(&spec).expect("spec resolves");
            let start = std::time::Instant::now();
            drive(engine.as_mut(), &spec, &mut NullObserver).expect("spec drives");
            start.elapsed()
        },
    );
    RunnerOverhead {
        engine: "doc_sim",
        nodes,
        rounds,
        direct_ns_per_round: direct.as_nanos() as f64 / rounds as f64,
        runner_ns_per_round: via_runner.as_nanos() as f64 / rounds as f64,
        overhead_pct: 100.0 * (via_runner.as_secs_f64() / direct.as_secs_f64() - 1.0),
        traces_identical,
    }
}

/// One worker count of the parallel packet-engine scaling study. The
/// legacy hot path (`BinaryHeap` queue + per-event MPMC channel sends)
/// is retired; its last measured comparison stays on record in the
/// `old_*` fields of the committed `BENCH_webfold_scaling.json`.
struct ScalingRow {
    workers: usize,
    ms: f64,
    speedup: f64,
    events_per_sec: f64,
}

/// The parallel packet-engine scaling study: the sequential `PacketSim`
/// against `ParPacketSim` at several worker counts, on a large
/// two-level CDN topology, with the bit-identity of the runs (including
/// processed-event counts) re-verified as part of the measurement.
struct ParallelScaling {
    nodes: usize,
    docs: usize,
    epochs: usize,
    available_cores: usize,
    seq_ms: f64,
    processed_events: u64,
    seq_events_per_sec: f64,
    rows: Vec<ScalingRow>,
    /// Conservative-sync overhead of a single-shard parallel run over
    /// the sequential engine, in percent.
    sync_overhead_w1_pct: f64,
    traces_identical: bool,
}

fn bench_parallel_scaling(
    regions: usize,
    leaves: usize,
    docs: usize,
    epochs: usize,
) -> ParallelScaling {
    let tree = ww_topology::two_level(regions, leaves);
    let rates = ww_workload::leaf_only(&tree, 1.0);
    let mix = scaling_mix(&tree, &rates, docs);
    let config = PacketSimConfig::default();
    let horizon = epochs as f64;

    // Equivalence probe: the parallel engine must replay the sequential
    // run bit for bit — trace, loads, ledger, counters, event count —
    // before its timings mean anything.
    let seq_report = PacketSim::new(&tree, &mix, config).run(horizon);
    let par_report = ParPacketSim::new(&tree, &mix, config, 4).run(horizon);
    let traces_identical = seq_report.first_difference(&par_report).is_none();
    let processed_events = seq_report.processed_events;

    let seq = time_min(
        3,
        || PacketSim::new(&tree, &mix, config),
        |s| {
            s.run(horizon);
        },
    );
    let events_per_sec = |wall: std::time::Duration| processed_events as f64 / wall.as_secs_f64();
    let mut rows = Vec::new();
    for workers in [1, 2, 4, 8] {
        let par = time_min(
            3,
            || ParPacketSim::new(&tree, &mix, config, workers),
            |s| {
                s.run(horizon);
            },
        );
        rows.push(ScalingRow {
            workers,
            ms: par.as_secs_f64() * 1e3,
            speedup: seq.as_secs_f64() / par.as_secs_f64(),
            events_per_sec: events_per_sec(par),
        });
    }
    // Single-shard sync overhead: only the parallel machinery is in the
    // difference to the sequential twin.
    let sync_overhead_w1_pct = 100.0 * (rows[0].ms / (seq.as_secs_f64() * 1e3) - 1.0);
    ParallelScaling {
        nodes: tree.len(),
        docs,
        epochs,
        available_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        seq_ms: seq.as_secs_f64() * 1e3,
        processed_events,
        seq_events_per_sec: events_per_sec(seq),
        rows,
        sync_overhead_w1_pct,
        traces_identical,
    }
}

/// Barrier-pipeline cost at scale: a churn + shift storm applied at an
/// epoch barrier of a ~100k-node packet run, sequential vs parallel —
/// the operations the epoch-barrier pipeline made possible (joins,
/// leaves, workload shifts re-resolve every arrival stream and
/// recompute the oracle), timed separately from plain epoch advance.
/// Bit-identity of the two engines is re-verified on the same run.
struct DynamicsAtScale {
    nodes: usize,
    docs: usize,
    workers: usize,
    available_cores: usize,
    seq_barrier_ms: f64,
    par_barrier_ms: f64,
    seq_epoch_ms: f64,
    par_epoch_ms: f64,
    /// Events processed during the timed post-churn epoch.
    epoch_events: u64,
    seq_epoch_events_per_sec: f64,
    par_epoch_events_per_sec: f64,
    traces_identical: bool,
}

fn bench_dynamics_at_scale(
    regions: usize,
    leaves: usize,
    docs: usize,
    workers: usize,
) -> DynamicsAtScale {
    use ww_model::NodeId;
    let tree = ww_topology::two_level(regions, leaves);
    let rates = ww_workload::leaf_only(&tree, 0.05);
    let mix = scaling_mix(&tree, &rates, docs);
    let config = PacketSimConfig::default();
    let shifted = |t: &ww_model::Tree| {
        let r = ww_workload::leaf_only(t, 0.05);
        ww_workload::shared_zipf_mix(t, &r, docs + 2, 0.6)
    };

    // Sequential: one epoch, then the churn storm at the barrier, then
    // a second epoch.
    let mut seq = PacketSim::new(&tree, &mix, config);
    let seq_pre_events = seq.run(1.0).processed_events;
    let t = std::time::Instant::now();
    seq.add_leaf(NodeId::new(1), 50.0).expect("join applies");
    let joined = NodeId::new(seq.tree().len() - 1);
    seq.remove_leaf(joined).expect("leave applies");
    let m2 = shifted(seq.tree());
    seq.set_mix(&m2).expect("shift applies");
    let seq_barrier = t.elapsed();
    let t = std::time::Instant::now();
    let seq_report = seq.run(2.0);
    let seq_epoch = t.elapsed();

    // Parallel: the identical script.
    let mut par = ParPacketSim::new(&tree, &mix, config, workers);
    let par_pre_events = par.run(1.0).processed_events;
    let t = std::time::Instant::now();
    par.add_leaf(NodeId::new(1), 50.0).expect("join applies");
    let joined = NodeId::new(par.tree().len() - 1);
    par.remove_leaf(joined).expect("leave applies");
    let m2 = shifted(par.tree());
    par.set_mix(&m2).expect("shift applies");
    let par_barrier = t.elapsed();
    let t = std::time::Instant::now();
    let par_report = par.run(2.0);
    let par_epoch = t.elapsed();

    let traces_identical = seq_report.first_difference(&par_report).is_none();

    let epoch_events = seq_report.processed_events - seq_pre_events;
    debug_assert_eq!(
        par_report.processed_events - par_pre_events,
        epoch_events,
        "per-epoch event counts agree"
    );
    DynamicsAtScale {
        nodes: tree.len(),
        docs,
        workers,
        available_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        seq_barrier_ms: seq_barrier.as_secs_f64() * 1e3,
        par_barrier_ms: par_barrier.as_secs_f64() * 1e3,
        seq_epoch_ms: seq_epoch.as_secs_f64() * 1e3,
        par_epoch_ms: par_epoch.as_secs_f64() * 1e3,
        epoch_events,
        seq_epoch_events_per_sec: epoch_events as f64 / seq_epoch.as_secs_f64(),
        par_epoch_events_per_sec: epoch_events as f64 / par_epoch.as_secs_f64(),
        traces_identical,
    }
}

/// The socket transport against the in-process SPSC transport: the
/// same scenario driven by `DistPacketSim` in thread mode (the full
/// codec and loopback-TCP path, no worker binary needed) and by
/// `ParPacketSim`, with the per-epoch barrier round-trip separated out
/// and the wire overflow counters recorded.
struct DistLoopback {
    nodes: usize,
    docs: usize,
    workers: usize,
    available_cores: usize,
    /// Epoch barriers crossed during the run (= sampled trace points).
    epochs: usize,
    processed_events: u64,
    spsc_ms: f64,
    dist_ms: f64,
    spsc_events_per_sec: f64,
    dist_events_per_sec: f64,
    /// Mean wall-clock per epoch, barrier handshake included.
    spsc_epoch_ms: f64,
    dist_epoch_ms: f64,
    /// What the socket hop adds per `RunEpoch` → `EpochDone` handshake.
    handshake_overhead_ms: f64,
    dist_overflow_parks: u64,
    dist_overflow_peak_parked: u64,
    spsc_overflow_parks: u64,
    spsc_overflow_peak_parked: u64,
    traces_identical: bool,
}

fn bench_dist_loopback(regions: usize, leaves: usize, docs: usize, workers: usize) -> DistLoopback {
    let tree = ww_topology::two_level(regions, leaves);
    let rates = ww_workload::leaf_only(&tree, 1.0);
    let mix = scaling_mix(&tree, &rates, docs);
    let config = PacketSimConfig::default();
    let epochs = 3usize;
    let horizon = epochs as f64;
    let threads = || DistOptions {
        mode: DistMode::Threads,
        ..DistOptions::default()
    };

    // Equivalence probe: the socket run must replay the in-process run
    // bit for bit before the timings mean anything.
    let spsc_report = ParPacketSim::new(&tree, &mix, config, workers).run(horizon);
    let dist_report = DistPacketSim::launch(&tree, &mix, config, workers, threads())
        .expect("loopback launch")
        .run(horizon)
        .expect("loopback run");
    let traces_identical = spsc_report.first_difference(&dist_report).is_none();
    let barriers = dist_report.trace.len().max(1);

    let spsc = time_min(
        3,
        || ParPacketSim::new(&tree, &mix, config, workers),
        |s| {
            s.run(horizon);
        },
    );
    let dist = time_min(
        3,
        || DistPacketSim::launch(&tree, &mix, config, workers, threads()).expect("loopback launch"),
        |s| {
            s.run(horizon).expect("loopback run");
        },
    );
    let events = dist_report.processed_events;
    let spsc_epoch_ms = spsc.as_secs_f64() * 1e3 / barriers as f64;
    let dist_epoch_ms = dist.as_secs_f64() * 1e3 / barriers as f64;
    DistLoopback {
        nodes: tree.len(),
        docs,
        workers,
        available_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        epochs: barriers,
        processed_events: events,
        spsc_ms: spsc.as_secs_f64() * 1e3,
        dist_ms: dist.as_secs_f64() * 1e3,
        spsc_events_per_sec: events as f64 / spsc.as_secs_f64(),
        dist_events_per_sec: events as f64 / dist.as_secs_f64(),
        spsc_epoch_ms,
        dist_epoch_ms,
        handshake_overhead_ms: dist_epoch_ms - spsc_epoch_ms,
        dist_overflow_parks: dist_report.overflow_parks,
        dist_overflow_peak_parked: dist_report.overflow_peak_parked,
        spsc_overflow_parks: spsc_report.overflow_parks,
        spsc_overflow_peak_parked: spsc_report.overflow_peak_parked,
        traces_identical,
    }
}

/// The instrumentation tax: the parallel packet engine on the 100k-node
/// PDES scenario at telemetry off / counters-only / full spans.
/// Budget: counters-only ≤ 3% over off. Bit-identity of the three runs
/// is re-verified on the same workload — telemetry must be observation
/// only.
struct TelemetryOverhead {
    nodes: usize,
    docs: usize,
    workers: usize,
    epochs: usize,
    available_cores: usize,
    processed_events: u64,
    off_ms: f64,
    counters_ms: f64,
    full_ms: f64,
    off_events_per_sec: f64,
    counters_events_per_sec: f64,
    full_events_per_sec: f64,
    counters_overhead_pct: f64,
    full_overhead_pct: f64,
    traces_identical: bool,
}

fn bench_telemetry_overhead(
    regions: usize,
    leaves: usize,
    docs: usize,
    workers: usize,
    epochs: usize,
) -> TelemetryOverhead {
    let tree = ww_topology::two_level(regions, leaves);
    let rates = ww_workload::leaf_only(&tree, 1.0);
    let mix = scaling_mix(&tree, &rates, docs);
    let config = PacketSimConfig::default();
    let horizon = epochs as f64;

    // Equivalence probe across levels before the timings mean anything.
    let run_at = |level: Level| {
        let mut sim = ParPacketSim::new(&tree, &mix, config, workers);
        sim.set_telemetry(level);
        sim.run(horizon)
    };
    let off_report = run_at(Level::Off);
    let full_report = run_at(Level::Full);
    let traces_identical = off_report.first_difference(&full_report).is_none();
    let processed_events = off_report.processed_events;

    let time_level = |level: Level| {
        time_min(
            3,
            || {
                let mut sim = ParPacketSim::new(&tree, &mix, config, workers);
                sim.set_telemetry(level);
                sim
            },
            |sim| {
                sim.run(horizon);
            },
        )
    };
    let off = time_level(Level::Off);
    let counters = time_level(Level::Counters);
    let full = time_level(Level::Full);
    let events_per_sec = |wall: std::time::Duration| processed_events as f64 / wall.as_secs_f64();
    TelemetryOverhead {
        nodes: tree.len(),
        docs,
        workers,
        epochs,
        available_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        processed_events,
        off_ms: off.as_secs_f64() * 1e3,
        counters_ms: counters.as_secs_f64() * 1e3,
        full_ms: full.as_secs_f64() * 1e3,
        off_events_per_sec: events_per_sec(off),
        counters_events_per_sec: events_per_sec(counters),
        full_events_per_sec: events_per_sec(full),
        counters_overhead_pct: 100.0 * (counters.as_secs_f64() / off.as_secs_f64() - 1.0),
        full_overhead_pct: 100.0 * (full.as_secs_f64() / off.as_secs_f64() - 1.0),
        traces_identical,
    }
}

/// Adaptive shard re-balancing on a flash-crowd workload: a ~130k-node
/// binary tree where nearly all demand lands on one quarter-of-the-tree
/// subtree — the static node-count packing hands that whole subtree to a
/// single shard, which then processes almost every event. The static
/// partition against the adaptive re-pack (a `rebalance` block armed),
/// with the per-shard event imbalance (max/mean) measured on a
/// post-warmup window of epochs so the adaptive run is judged on its
/// steady state, not its starting partition. Bit-identity static vs
/// adaptive is re-verified on the same runs — rebalancing only changes
/// which thread executes which node — and a balanced control records
/// the price of arming the controller when it has nothing to do.
/// Throughput caveat: splitting the hot subtree turns its hottest
/// edges into inter-shard wires, so the adaptive run trades node-local
/// work for wire traffic. That trade only pays when shards run on real
/// cores — on a box where `available_cores < workers` the skewed
/// adaptive events/sec is all cost and no payoff, which is why
/// `available_cores` is recorded next to it.
struct ShardRebalance {
    nodes: usize,
    docs: usize,
    workers: usize,
    warmup_epochs: usize,
    measure_epochs: usize,
    available_cores: usize,
    processed_events: u64,
    trigger_imbalance: f64,
    min_epoch_gap: u64,
    rebalances_applied: u64,
    nodes_migrated: u64,
    /// Max/mean of the per-shard event counts over the measurement
    /// window (epochs after `warmup_epochs`), static partition.
    static_window_imbalance: f64,
    adaptive_window_imbalance: f64,
    /// `static_window_imbalance / adaptive_window_imbalance`.
    imbalance_reduction: f64,
    static_ms: f64,
    adaptive_ms: f64,
    static_events_per_sec: f64,
    adaptive_events_per_sec: f64,
    /// Balanced control: the same engine under uniform demand on a
    /// binary tree, where the trigger has nothing to chase.
    balanced_nodes: usize,
    balanced_off_ms: f64,
    balanced_armed_ms: f64,
    balanced_overhead_pct: f64,
    balanced_rebalances_applied: u64,
    traces_identical: bool,
}

fn window_imbalance(window: &[u64]) -> f64 {
    let total: u64 = window.iter().sum();
    if window.is_empty() || total == 0 {
        return 1.0;
    }
    let mean = total as f64 / window.len() as f64;
    window.iter().copied().max().unwrap_or(0) as f64 / mean
}

fn bench_shard_rebalance(
    depth: usize,
    docs: usize,
    workers: usize,
    warmup_epochs: usize,
    measure_epochs: usize,
) -> ShardRebalance {
    use ww_model::{NodeId, Tree};
    // Flash crowd: the subtree under node 3 (a quarter of a full binary
    // tree) carries 50x the per-node demand of everywhere else. The
    // node-count packing keeps that subtree whole on one shard; the
    // weighted re-pack splits it at its root across several shards.
    let tree = ww_topology::k_ary(2, depth);
    let hot_root = NodeId::new(3);
    let in_hot = |tree: &Tree, mut u: NodeId| loop {
        if u == hot_root {
            return true;
        }
        match tree.parent(u) {
            Some(p) => u = p,
            None => return false,
        }
    };
    let rates = RateVector::from(
        (0..tree.len())
            .map(|i| {
                if in_hot(&tree, NodeId::new(i)) {
                    2.5
                } else {
                    0.05
                }
            })
            .collect::<Vec<f64>>(),
    );
    let mix = ww_workload::shared_zipf_mix(&tree, &rates, docs, 1.0);
    let config = PacketSimConfig::default();
    let rebalance = RebalanceConfig {
        trigger_imbalance: 1.2,
        min_epoch_gap: 1,
    };
    let warmup = warmup_epochs as f64;
    let horizon = (warmup_epochs + measure_epochs) as f64;

    // Probe runs: split at the warmup boundary so the cumulative
    // per-shard `processed()` counts delta into the measurement window.
    // Telemetry is observation-only, so the adaptive probe can carry
    // counters without perturbing the identity check.
    let split = |rebalance: Option<RebalanceConfig>, level: Level| {
        let mut sim = ParPacketSim::new(&tree, &mix, config, workers);
        sim.set_telemetry(level);
        sim.set_rebalance(rebalance);
        let warm = sim.run(warmup);
        let full = sim.run(horizon);
        let window: Vec<u64> = full
            .shard_event_counts
            .iter()
            .zip(&warm.shard_event_counts)
            .map(|(f, w)| f - w)
            .collect();
        (full, window, sim.telemetry_snapshot())
    };
    let (static_report, static_window, _) = split(None, Level::Off);
    let (adaptive_report, adaptive_window, snap) = split(Some(rebalance), Level::Counters);
    let mut traces_identical = static_report.first_difference(&adaptive_report).is_none();
    let rebalances_applied = snap.counter("pdes.rebalance.applied").unwrap_or(0);
    let nodes_migrated = snap.counter("pdes.rebalance.nodes_migrated").unwrap_or(0);
    let processed_events = static_report.processed_events;

    let static_window_imbalance = window_imbalance(&static_window);
    let adaptive_window_imbalance = window_imbalance(&adaptive_window);

    let time_rebalance = |rebalance: Option<RebalanceConfig>| {
        time_min(
            3,
            || {
                let mut sim = ParPacketSim::new(&tree, &mix, config, workers);
                sim.set_rebalance(rebalance);
                sim
            },
            |sim| {
                sim.run(horizon);
            },
        )
    };
    let static_wall = time_rebalance(None);
    let adaptive_wall = time_rebalance(Some(rebalance));
    let events_per_sec = |wall: std::time::Duration| processed_events as f64 / wall.as_secs_f64();

    // Balanced control: uniform demand everywhere on a binary tree, so
    // per-shard load sits near 1.0x mean and the trigger never fires.
    // Arming the controller then costs only the per-event window
    // accounting plus one O(shards) check per epoch.
    let bal_tree = ww_topology::k_ary(2, 14);
    let bal_rates = RateVector::from(vec![0.2; bal_tree.len()]);
    let bal_mix = scaling_mix(&bal_tree, &bal_rates, 8);
    let bal_horizon = 3.0;
    let bal_run = |rebalance: Option<RebalanceConfig>, level: Level| {
        let mut sim = ParPacketSim::new(&bal_tree, &bal_mix, config, workers);
        sim.set_telemetry(level);
        sim.set_rebalance(rebalance);
        let report = sim.run(bal_horizon);
        (report, sim.telemetry_snapshot())
    };
    let (bal_off_report, _) = bal_run(None, Level::Off);
    let (bal_armed_report, bal_snap) = bal_run(Some(rebalance), Level::Counters);
    traces_identical =
        traces_identical && bal_off_report.first_difference(&bal_armed_report).is_none();
    let balanced_rebalances_applied = bal_snap.counter("pdes.rebalance.applied").unwrap_or(0);
    let time_balanced = |rebalance: Option<RebalanceConfig>| {
        time_min(
            3,
            || {
                let mut sim = ParPacketSim::new(&bal_tree, &bal_mix, config, workers);
                sim.set_rebalance(rebalance);
                sim
            },
            |sim| {
                sim.run(bal_horizon);
            },
        )
    };
    let bal_off = time_balanced(None);
    let bal_armed = time_balanced(Some(rebalance));

    ShardRebalance {
        nodes: tree.len(),
        docs,
        workers,
        warmup_epochs,
        measure_epochs,
        available_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        processed_events,
        trigger_imbalance: rebalance.trigger_imbalance,
        min_epoch_gap: rebalance.min_epoch_gap,
        rebalances_applied,
        nodes_migrated,
        static_window_imbalance,
        adaptive_window_imbalance,
        imbalance_reduction: static_window_imbalance / adaptive_window_imbalance,
        static_ms: static_wall.as_secs_f64() * 1e3,
        adaptive_ms: adaptive_wall.as_secs_f64() * 1e3,
        static_events_per_sec: events_per_sec(static_wall),
        adaptive_events_per_sec: events_per_sec(adaptive_wall),
        balanced_nodes: bal_tree.len(),
        balanced_off_ms: bal_off.as_secs_f64() * 1e3,
        balanced_armed_ms: bal_armed.as_secs_f64() * 1e3,
        balanced_overhead_pct: 100.0 * (bal_armed.as_secs_f64() / bal_off.as_secs_f64() - 1.0),
        balanced_rebalances_applied,
        traces_identical,
    }
}

/// `webfold` sweep cost next to the incremental oracle refresh: the
/// same tree, a single leaf join, one `IncrementalFold::refold_path`
/// against one from-scratch `webfold`. The refresh only re-folds the
/// joined leaf's root path, so the gap is the price churn barriers
/// stopped paying.
struct FoldTiming {
    nodes: usize,
    sweep_ns: f64,
    refold_ns: f64,
    speedup: f64,
    /// Refold load bit-identical to the scratch sweep on the grown tree.
    identical: bool,
}

fn bench_webfold(nodes: usize) -> FoldTiming {
    let (tree, rates) = scaling_scenario(nodes, 12, nodes as u64);
    let sweep = time_min(
        SAMPLES,
        || (),
        |()| {
            std::hint::black_box(webfold(&tree, &rates));
        },
    );

    // Steady state: a clean summary cache, then one leaf joins under the
    // deepest node and only the timed refresh pays for it.
    let parent = ww_model::NodeId::new(tree.len() - 1);
    let grown_rates: RateVector = {
        let mut r = rates.clone().into_inner();
        r.push(50.0);
        RateVector::from(r)
    };
    let refold = time_min(
        SAMPLES,
        || {
            let mut grown = tree.clone();
            let mut fold = IncrementalFold::new(&grown, &rates);
            let id = grown.add_leaf(parent).expect("bench join applies");
            fold.on_join(&grown, id);
            (grown, fold)
        },
        |(grown, fold)| {
            std::hint::black_box(fold.refold_path(grown, &grown_rates));
        },
    );

    let identical = {
        let mut grown = tree.clone();
        let mut fold = IncrementalFold::new(&grown, &rates);
        let id = grown.add_leaf(parent).expect("bench join applies");
        fold.on_join(&grown, id);
        let inc = fold.refold_path(&grown, &grown_rates);
        let scratch = webfold(&grown, &grown_rates);
        inc.load()
            .as_slice()
            .iter()
            .zip(scratch.load().as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits())
    };

    let sweep_ns = sweep.as_nanos() as f64;
    let refold_ns = refold.as_nanos() as f64;
    FoldTiming {
        nodes,
        sweep_ns,
        refold_ns,
        speedup: sweep_ns / refold_ns,
        identical,
    }
}

/// The K-event same-barrier churn storm on the packet engine: one
/// oracle refresh plus one queue-surgery pass (`apply_all`) against the
/// one-at-a-time loop paying both per op. Bit-identity of the post-storm
/// runs is re-verified on the same scenario.
struct StormTiming {
    nodes: usize,
    ops: usize,
    unbatched_ms: f64,
    batched_ms: f64,
    speedup: f64,
    identical: bool,
}

fn bench_barrier_storm(regions: usize, leaves: usize, docs: usize) -> StormTiming {
    use ww_core::packet::BarrierOp;
    use ww_model::{DocId, NodeId};
    let tree = ww_topology::two_level(regions, leaves);
    let rates = ww_workload::leaf_only(&tree, 0.05);
    let mix = scaling_mix(&tree, &rates, docs);
    let config = PacketSimConfig::default();
    let ops = vec![
        BarrierOp::AddLeaf {
            parent: NodeId::new(1),
            rate: 50.0,
        },
        BarrierOp::AddLeaf {
            parent: NodeId::new(2),
            rate: 30.0,
        },
        BarrierOp::RemoveLeaf {
            node: NodeId::new(tree.len()),
        },
        BarrierOp::PublishDoc {
            doc: DocId::new(docs as u64 + 1),
            origin: NodeId::new(3),
            rate: 20.0,
        },
        BarrierOp::FailLink {
            node: NodeId::new(5),
        },
        BarrierOp::Invalidate { doc: DocId::new(1) },
        BarrierOp::HealLink {
            node: NodeId::new(5),
        },
    ];
    let setup = || {
        let mut sim = PacketSim::new(&tree, &mix, config);
        sim.run(0.25);
        sim
    };
    let unbatched = time_min(SAMPLES, setup, |sim| {
        for op in &ops {
            sim.apply_op(op).expect("storm op applies");
        }
    });
    let batched = time_min(SAMPLES, setup, |sim| {
        for r in sim.apply_all(&ops).expect("batch opens") {
            r.expect("storm op applies");
        }
    });

    let mut a = setup();
    for op in &ops {
        a.apply_op(op).expect("storm op applies");
    }
    let ra = a.run(1.0);
    let mut b = setup();
    for r in b.apply_all(&ops).expect("batch opens") {
        r.expect("storm op applies");
    }
    let rb = b.run(1.0);
    let identical = traces_equal(&ra.trace, &rb.trace)
        && ra.served_requests == rb.served_requests
        && ra.processed_events == rb.processed_events
        && ra
            .served_rates
            .as_slice()
            .iter()
            .zip(rb.served_rates.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits());

    let unbatched_ms = unbatched.as_secs_f64() * 1e3;
    let batched_ms = batched.as_secs_f64() * 1e3;
    StormTiming {
        nodes: tree.len(),
        ops: ops.len(),
        unbatched_ms,
        batched_ms,
        speedup: unbatched_ms / batched_ms,
        identical,
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_webfold_scaling.json".to_string());

    eprintln!("webwave-bench: dense vs naive engines ({SAMPLES} samples, min)");
    let comparisons = vec![
        bench_rate_wave(1_000, 300, 0),
        bench_rate_wave(10_000, 100, 0),
        bench_rate_wave(100_000, 30, 0),
        bench_rate_wave(10_000, 100, 3),
        bench_docsim(1_000, 64, 30),
        bench_docsim(4_000, 64, 15),
    ];
    for c in &comparisons {
        eprintln!(
            "  {} nodes={} docs={} rounds={} staleness={}: dense {:.0} ns/round, naive {:.0} ns/round, speedup {:.2}x, traces_identical={}",
            c.engine,
            c.nodes,
            c.docs,
            c.rounds,
            c.staleness,
            c.dense_ns_per_round,
            c.naive_ns_per_round,
            c.speedup,
            c.traces_identical
        );
    }

    eprintln!("webwave-bench: webfold scaling (full sweep vs single-join incremental refold)");
    let folds: Vec<FoldTiming> = [1_000, 10_000, 100_000]
        .into_iter()
        .map(bench_webfold)
        .collect();
    for f in &folds {
        eprintln!(
            "  webfold nodes={}: sweep {:.3} ms, refold {:.3} ms, speedup {:.2}x, identical={}",
            f.nodes,
            f.sweep_ns / 1e6,
            f.refold_ns / 1e6,
            f.speedup,
            f.identical
        );
    }

    eprintln!("webwave-bench: same-barrier churn storm (batched apply_all vs one-at-a-time)");
    let storm = bench_barrier_storm(316, 316, 8);
    eprintln!(
        "  packet_sim nodes={} ops={}: unbatched {:.2} ms, batched {:.2} ms, speedup {:.2}x, identical={}",
        storm.nodes,
        storm.ops,
        storm.unbatched_ms,
        storm.batched_ms,
        storm.speedup,
        storm.identical
    );

    eprintln!("webwave-bench: parallel packet engine scaling (PacketSim vs ww-pdes)");
    let parallel = bench_parallel_scaling(180, 180, 8, 3);
    eprintln!(
        "  two_level nodes={} docs={} epochs={} cores={}: sequential {:.0} ms ({:.2} Mev/s over {} events), traces_identical={}",
        parallel.nodes,
        parallel.docs,
        parallel.epochs,
        parallel.available_cores,
        parallel.seq_ms,
        parallel.seq_events_per_sec / 1e6,
        parallel.processed_events,
        parallel.traces_identical
    );
    for r in &parallel.rows {
        eprintln!(
            "    workers={}: {:.0} ms / {:.2} Mev/s, speedup {:.2}x",
            r.workers,
            r.ms,
            r.events_per_sec / 1e6,
            r.speedup
        );
    }
    eprintln!(
        "    sync overhead at workers=1: {:+.2}%",
        parallel.sync_overhead_w1_pct
    );
    if parallel.available_cores < 2 {
        eprintln!(
            "  note: {} core available — conservative-sync overhead only; run on a multi-core host for real scaling numbers",
            parallel.available_cores
        );
    }

    eprintln!("webwave-bench: dynamics at scale (barrier-pipeline churn on ~100k nodes)");
    let dynamics = bench_dynamics_at_scale(316, 316, 4, 4);
    eprintln!(
        "  two_level nodes={} docs={} workers={} cores={}: barrier ops seq {:.0} ms / par {:.0} ms, epoch advance seq {:.0} ms / par {:.0} ms ({} events, {:.2} / {:.2} Mev/s), traces_identical={}",
        dynamics.nodes,
        dynamics.docs,
        dynamics.workers,
        dynamics.available_cores,
        dynamics.seq_barrier_ms,
        dynamics.par_barrier_ms,
        dynamics.seq_epoch_ms,
        dynamics.par_epoch_ms,
        dynamics.epoch_events,
        dynamics.seq_epoch_events_per_sec / 1e6,
        dynamics.par_epoch_events_per_sec / 1e6,
        dynamics.traces_identical
    );
    if dynamics.available_cores < 2 {
        eprintln!(
            "  note: {} core available — parallel numbers show conservative-sync overhead only",
            dynamics.available_cores
        );
    }

    eprintln!("webwave-bench: distributed loopback (socket transport vs in-process SPSC)");
    let dist = bench_dist_loopback(64, 64, 8, 2);
    eprintln!(
        "  two_level nodes={} docs={} workers={} cores={}: spsc {:.0} ms ({:.2} Mev/s), sockets {:.0} ms ({:.2} Mev/s), per-epoch {:.2} ms vs {:.2} ms (handshake {:+.2} ms), parks sockets {} (peak {}) / spsc {} (peak {}), traces_identical={}",
        dist.nodes,
        dist.docs,
        dist.workers,
        dist.available_cores,
        dist.spsc_ms,
        dist.spsc_events_per_sec / 1e6,
        dist.dist_ms,
        dist.dist_events_per_sec / 1e6,
        dist.spsc_epoch_ms,
        dist.dist_epoch_ms,
        dist.handshake_overhead_ms,
        dist.dist_overflow_parks,
        dist.dist_overflow_peak_parked,
        dist.spsc_overflow_parks,
        dist.spsc_overflow_peak_parked,
        dist.traces_identical
    );
    if dist.available_cores < 2 {
        eprintln!(
            "  note: {} core available — socket numbers show transport overhead only, not scaling",
            dist.available_cores
        );
    }

    eprintln!("webwave-bench: telemetry overhead (packet_sim_par on ~100k nodes, budget 3% counters-only)");
    let telemetry = bench_telemetry_overhead(316, 316, 4, 4, 2);
    eprintln!(
        "  two_level nodes={} docs={} workers={} epochs={} cores={}: off {:.0} ms ({:.2} Mev/s over {} events), counters {:.0} ms ({:+.2}%), full {:.0} ms ({:+.2}%), traces_identical={}",
        telemetry.nodes,
        telemetry.docs,
        telemetry.workers,
        telemetry.epochs,
        telemetry.available_cores,
        telemetry.off_ms,
        telemetry.off_events_per_sec / 1e6,
        telemetry.processed_events,
        telemetry.counters_ms,
        telemetry.counters_overhead_pct,
        telemetry.full_ms,
        telemetry.full_overhead_pct,
        telemetry.traces_identical
    );
    if telemetry.counters_overhead_pct > 3.0 {
        eprintln!(
            "webwave-bench: WARNING — counters-only telemetry overhead {:.2}% exceeds the 3% budget",
            telemetry.counters_overhead_pct
        );
    }

    eprintln!("webwave-bench: adaptive shard re-balancing (flash-crowd skew, static vs adaptive)");
    let rebalance = bench_shard_rebalance(16, 12, 4, 3, 3);
    eprintln!(
        "  k_ary(2) nodes={} docs={} workers={} cores={} (trigger {:.2}, gap {}): window imbalance static {:.3} vs adaptive {:.3} ({:.2}x reduction), re-packs {} / {} nodes migrated, static {:.0} ms ({:.2} Mev/s over {} events) vs adaptive {:.0} ms ({:.2} Mev/s), traces_identical={}",
        rebalance.nodes,
        rebalance.docs,
        rebalance.workers,
        rebalance.available_cores,
        rebalance.trigger_imbalance,
        rebalance.min_epoch_gap,
        rebalance.static_window_imbalance,
        rebalance.adaptive_window_imbalance,
        rebalance.imbalance_reduction,
        rebalance.rebalances_applied,
        rebalance.nodes_migrated,
        rebalance.static_ms,
        rebalance.static_events_per_sec / 1e6,
        rebalance.processed_events,
        rebalance.adaptive_ms,
        rebalance.adaptive_events_per_sec / 1e6,
        rebalance.traces_identical
    );
    eprintln!(
        "    balanced control nodes={}: off {:.0} ms, armed {:.0} ms ({:+.2}%), re-packs {}",
        rebalance.balanced_nodes,
        rebalance.balanced_off_ms,
        rebalance.balanced_armed_ms,
        rebalance.balanced_overhead_pct,
        rebalance.balanced_rebalances_applied
    );
    if rebalance.imbalance_reduction < 2.0 {
        eprintln!(
            "webwave-bench: WARNING — adaptive re-pack only cut window imbalance {:.2}x (budget 2x)",
            rebalance.imbalance_reduction
        );
    }

    eprintln!("webwave-bench: Runner dispatch overhead vs direct engines (budget 1%)");
    let overheads = vec![
        bench_runner_overhead_rate(10_000, 100),
        bench_runner_overhead_doc(1_000, 64, 30),
    ];
    for o in &overheads {
        eprintln!(
            "  {} nodes={} rounds={}: direct {:.0} ns/round, via Runner {:.0} ns/round, overhead {:+.3}%, traces_identical={}",
            o.engine,
            o.nodes,
            o.rounds,
            o.direct_ns_per_round,
            o.runner_ns_per_round,
            o.overhead_pct,
            o.traces_identical
        );
        if o.overhead_pct > 1.0 {
            eprintln!(
                "webwave-bench: WARNING — {} Runner overhead {:.3}% exceeds the 1% budget",
                o.engine, o.overhead_pct
            );
        }
    }

    // Hand-built JSON (the vendored serde stub does not serialize).
    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"webfold_scaling\",\n");
    json.push_str("  \"generated_by\": \"webwave-bench\",\n");
    json.push_str("  \"samples\": ");
    let _ = write!(json, "{SAMPLES}");
    json.push_str(",\n  \"engine_comparisons\": [\n");
    for (i, c) in comparisons.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"engine\": \"{}\", \"nodes\": {}, \"docs\": {}, \"rounds\": {}, \"staleness\": {}, \"dense_ns_per_round\": {:.0}, \"naive_ns_per_round\": {:.0}, \"speedup\": {:.3}, \"traces_identical\": {}}}{}",
            c.engine,
            c.nodes,
            c.docs,
            c.rounds,
            c.staleness,
            c.dense_ns_per_round,
            c.naive_ns_per_round,
            c.speedup,
            c.traces_identical,
            if i + 1 < comparisons.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n  \"webfold_ns\": [\n");
    for (i, f) in folds.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"nodes\": {}, \"ns\": {:.0}, \"refold_ns\": {:.0}}}{}",
            f.nodes,
            f.sweep_ns,
            f.refold_ns,
            if i + 1 < folds.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n  \"incremental_webfold\": {\n    \"refold\": [\n");
    for (i, f) in folds.iter().enumerate() {
        let _ = writeln!(
            json,
            "      {{\"nodes\": {}, \"sweep_ns\": {:.0}, \"refold_ns\": {:.0}, \"speedup\": {:.2}, \"identical\": {}}}{}",
            f.nodes,
            f.sweep_ns,
            f.refold_ns,
            f.speedup,
            f.identical,
            if i + 1 < folds.len() { "," } else { "" }
        );
    }
    json.push_str("    ],\n    \"storm\": ");
    let _ = writeln!(
        json,
        "{{\"engine\": \"packet_sim\", \"nodes\": {}, \"ops\": {}, \"unbatched_ms\": {:.3}, \"batched_ms\": {:.3}, \"speedup\": {:.2}, \"identical\": {}}}",
        storm.nodes,
        storm.ops,
        storm.unbatched_ms,
        storm.batched_ms,
        storm.speedup,
        storm.identical
    );
    json.push_str("  },\n  \"parallel_scaling\": {\n");
    let _ = writeln!(
        json,
        "    \"engine\": \"packet_sim_par\", \"nodes\": {}, \"docs\": {}, \"epochs\": {}, \"available_cores\": {}, \"seq_ms\": {:.1}, \"processed_events\": {}, \"seq_events_per_sec\": {:.0}, \"traces_identical\": {},",
        parallel.nodes,
        parallel.docs,
        parallel.epochs,
        parallel.available_cores,
        parallel.seq_ms,
        parallel.processed_events,
        parallel.seq_events_per_sec,
        parallel.traces_identical
    );
    let _ = writeln!(
        json,
        "    \"sync_overhead_w1_pct\": {:.2},",
        parallel.sync_overhead_w1_pct
    );
    json.push_str("    \"workers\": [\n");
    for (i, r) in parallel.rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "      {{\"workers\": {}, \"ms\": {:.1}, \"speedup\": {:.3}, \"events_per_sec\": {:.0}}}{}",
            r.workers,
            r.ms,
            r.speedup,
            r.events_per_sec,
            if i + 1 < parallel.rows.len() { "," } else { "" }
        );
    }
    json.push_str("    ]\n  },\n  \"dynamics_at_scale\": {\n");
    let _ = writeln!(
        json,
        "    \"engine\": \"packet_sim + packet_sim_par\", \"nodes\": {}, \"docs\": {}, \"workers\": {}, \"available_cores\": {},",
        dynamics.nodes, dynamics.docs, dynamics.workers, dynamics.available_cores
    );
    let _ = writeln!(
        json,
        "    \"seq_barrier_ms\": {:.1}, \"par_barrier_ms\": {:.1}, \"seq_epoch_ms\": {:.1}, \"par_epoch_ms\": {:.1}, \"epoch_events\": {}, \"seq_epoch_events_per_sec\": {:.0}, \"par_epoch_events_per_sec\": {:.0}, \"traces_identical\": {}",
        dynamics.seq_barrier_ms,
        dynamics.par_barrier_ms,
        dynamics.seq_epoch_ms,
        dynamics.par_epoch_ms,
        dynamics.epoch_events,
        dynamics.seq_epoch_events_per_sec,
        dynamics.par_epoch_events_per_sec,
        dynamics.traces_identical
    );
    json.push_str("  },\n  \"dist_loopback\": {\n");
    let _ = writeln!(
        json,
        "    \"engine\": \"packet_sim_dist (threads over loopback TCP) vs packet_sim_par (spsc)\", \"nodes\": {}, \"docs\": {}, \"workers\": {}, \"available_cores\": {}, \"epochs\": {}, \"processed_events\": {},",
        dist.nodes, dist.docs, dist.workers, dist.available_cores, dist.epochs, dist.processed_events
    );
    let _ = writeln!(
        json,
        "    \"spsc_ms\": {:.1}, \"dist_ms\": {:.1}, \"spsc_events_per_sec\": {:.0}, \"dist_events_per_sec\": {:.0},",
        dist.spsc_ms, dist.dist_ms, dist.spsc_events_per_sec, dist.dist_events_per_sec
    );
    let _ = writeln!(
        json,
        "    \"spsc_epoch_ms\": {:.3}, \"dist_epoch_ms\": {:.3}, \"handshake_overhead_ms\": {:.3},",
        dist.spsc_epoch_ms, dist.dist_epoch_ms, dist.handshake_overhead_ms
    );
    let _ = writeln!(
        json,
        "    \"dist_overflow_parks\": {}, \"dist_overflow_peak_parked\": {}, \"spsc_overflow_parks\": {}, \"spsc_overflow_peak_parked\": {}, \"traces_identical\": {}",
        dist.dist_overflow_parks,
        dist.dist_overflow_peak_parked,
        dist.spsc_overflow_parks,
        dist.spsc_overflow_peak_parked,
        dist.traces_identical
    );
    json.push_str("  },\n  \"telemetry_overhead\": {\n");
    let _ = writeln!(
        json,
        "    \"engine\": \"packet_sim_par\", \"nodes\": {}, \"docs\": {}, \"workers\": {}, \"epochs\": {}, \"available_cores\": {}, \"processed_events\": {},",
        telemetry.nodes,
        telemetry.docs,
        telemetry.workers,
        telemetry.epochs,
        telemetry.available_cores,
        telemetry.processed_events
    );
    let _ = writeln!(
        json,
        "    \"off_ms\": {:.1}, \"counters_ms\": {:.1}, \"full_ms\": {:.1},",
        telemetry.off_ms, telemetry.counters_ms, telemetry.full_ms
    );
    let _ = writeln!(
        json,
        "    \"off_events_per_sec\": {:.0}, \"counters_events_per_sec\": {:.0}, \"full_events_per_sec\": {:.0},",
        telemetry.off_events_per_sec,
        telemetry.counters_events_per_sec,
        telemetry.full_events_per_sec
    );
    let _ = writeln!(
        json,
        "    \"counters_overhead_pct\": {:.2}, \"full_overhead_pct\": {:.2}, \"counters_budget_pct\": 3.0, \"traces_identical\": {}",
        telemetry.counters_overhead_pct, telemetry.full_overhead_pct, telemetry.traces_identical
    );
    json.push_str("  },\n  \"shard_rebalance\": {\n");
    let _ = writeln!(
        json,
        "    \"engine\": \"packet_sim_par\", \"scenario\": \"flash crowd on one quarter-subtree of a binary tree\", \"nodes\": {}, \"docs\": {}, \"workers\": {}, \"warmup_epochs\": {}, \"measure_epochs\": {}, \"available_cores\": {}, \"processed_events\": {},",
        rebalance.nodes,
        rebalance.docs,
        rebalance.workers,
        rebalance.warmup_epochs,
        rebalance.measure_epochs,
        rebalance.available_cores,
        rebalance.processed_events
    );
    let _ = writeln!(
        json,
        "    \"trigger_imbalance\": {:.2}, \"min_epoch_gap\": {}, \"rebalances_applied\": {}, \"nodes_migrated\": {},",
        rebalance.trigger_imbalance,
        rebalance.min_epoch_gap,
        rebalance.rebalances_applied,
        rebalance.nodes_migrated
    );
    let _ = writeln!(
        json,
        "    \"static_window_imbalance\": {:.3}, \"adaptive_window_imbalance\": {:.3}, \"imbalance_reduction\": {:.2}, \"imbalance_reduction_budget\": 2.0,",
        rebalance.static_window_imbalance,
        rebalance.adaptive_window_imbalance,
        rebalance.imbalance_reduction
    );
    let _ = writeln!(
        json,
        "    \"static_ms\": {:.1}, \"adaptive_ms\": {:.1}, \"static_events_per_sec\": {:.0}, \"adaptive_events_per_sec\": {:.0},",
        rebalance.static_ms,
        rebalance.adaptive_ms,
        rebalance.static_events_per_sec,
        rebalance.adaptive_events_per_sec
    );
    let _ = writeln!(
        json,
        "    \"balanced_nodes\": {}, \"balanced_off_ms\": {:.1}, \"balanced_armed_ms\": {:.1}, \"balanced_overhead_pct\": {:.2}, \"balanced_rebalances_applied\": {}, \"traces_identical\": {}",
        rebalance.balanced_nodes,
        rebalance.balanced_off_ms,
        rebalance.balanced_armed_ms,
        rebalance.balanced_overhead_pct,
        rebalance.balanced_rebalances_applied,
        rebalance.traces_identical
    );
    json.push_str("  },\n  \"runner_overhead\": [\n");
    for (i, o) in overheads.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"engine\": \"{}\", \"nodes\": {}, \"rounds\": {}, \"direct_ns_per_round\": {:.0}, \"runner_ns_per_round\": {:.0}, \"overhead_pct\": {:.3}, \"traces_identical\": {}}}{}",
            o.engine,
            o.nodes,
            o.rounds,
            o.direct_ns_per_round,
            o.runner_ns_per_round,
            o.overhead_pct,
            o.traces_identical,
            if i + 1 < overheads.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, &json).expect("write bench output");
    eprintln!("webwave-bench: wrote {out_path}");

    let worst = comparisons
        .iter()
        .map(|c| c.speedup)
        .fold(f64::INFINITY, f64::min);
    let all_identical = comparisons.iter().all(|c| c.traces_identical)
        && overheads.iter().all(|o| o.traces_identical)
        && folds.iter().all(|f| f.identical)
        && storm.identical
        && parallel.traces_identical
        && dynamics.traces_identical
        && telemetry.traces_identical
        && rebalance.traces_identical;
    eprintln!("webwave-bench: worst speedup {worst:.2}x, traces identical: {all_identical}");
    if !all_identical {
        eprintln!("webwave-bench: WARNING — dense/naive traces diverge");
        std::process::exit(1);
    }
}
