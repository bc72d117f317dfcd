//! Packet-level, event-driven WebWave — the sequential driver.
//!
//! The other engines exchange *rates*; this one exchanges *packets*. Each
//! node runs a router with a packet-filter membership set, a cache of
//! copies with token-bucket serve allocations, per-child per-document flow
//! meters, and two timers — the **gossip period** and the **diffusion
//! period** the paper says a realistic WebWave server would have
//! (Section 5). Client requests are Poisson streams; gossip messages
//! travel with link delay and can be lost (failure injection); copies are
//! pushed as messages; tunneling probes climb to the nearest upstream
//! holder and the granted copy descends back, paying the round trip hop
//! by hop.
//!
//! The node-level protocol itself lives in [`crate::packet`], shared with
//! the sharded parallel driver in the `ww-pdes` crate: every handler is
//! node-local, every random draw is content-keyed, and every cross-node
//! effect is a timestamped message. This sequential driver is simply one
//! event loop over the whole tree; the parallel driver runs one loop per
//! shard and produces bit-identical results. Barrier mutations (churn,
//! publishes, shifts, link failures) are [`crate::barrier`]'s, shared
//! with the parallel and distributed drivers.
//!
//! # Performance
//!
//! Two hot-path structures are dense:
//!
//! * All per-document state is addressed through the simulation's
//!   [`DocTable`](ww_model::DocTable): token buckets live in flat
//!   per-node slabs, copy/filter membership in
//!   [`DocSet`](ww_model::DocSet) bitsets, and the three flow meters are
//!   [`DenseFlowTable`](ww_cache::DenseFlowTable) grids — no hashing on
//!   the per-packet path.
//! * The two strictly periodic timer streams live in
//!   [`TimerRing`](ww_sim::TimerRing)s outside the event heap. Ring
//!   fires carry sequence numbers from the queue's global counter, so the
//!   merged `(time, seq)` order is exactly what one combined heap would
//!   produce.
//!
//! The convergence trace is sampled once per diffusion epoch (at
//! `k * diffusion_period`), an `O(n)` pass per period — the previous
//! per-fire observer cost `O(n²)` per period, which dominated large
//! topologies.

use crate::barrier::{BarrierOps, Partition, ShardState, SimCore};
use crate::packet::{
    self, BarrierOp, BarrierOutcome, DriverSource, NodeCtx, NodeState, PacketWorld,
};
use ww_model::{ModelError, NodeId, RateVector, Tree};
use ww_net::{TrafficLedger, ALL_TRAFFIC_CLASSES};
use ww_sim::{SimQueue, SimTime};
use ww_stats::ConvergenceTrace;
use ww_telemetry::{Counters, Level, PhaseStat, Phases, Snapshot};
use ww_workload::DocMix;

pub use crate::barrier::{CORE_KEYS, CORE_PHASES};
pub use crate::packet::PacketSimConfig;

/// Outcome of a finished packet-level run.
#[derive(Debug, Clone)]
pub struct PacketSimReport {
    /// Measured served rate per node over the final measurement window.
    pub served_rates: RateVector,
    /// The WebFold oracle for the offered demand.
    pub oracle: RateVector,
    /// Euclidean distance of the final measured rates to the oracle.
    pub final_distance: f64,
    /// Distance to the oracle sampled at every diffusion epoch boundary.
    pub trace: ConvergenceTrace,
    /// Message/byte ledger.
    pub ledger: TrafficLedger,
    /// Mean upward hops per served request.
    pub mean_hops: f64,
    /// Copies pushed parent-to-child.
    pub copy_pushes: u64,
    /// Tunneling fetches performed.
    pub tunnel_fetches: u64,
    /// Total requests served.
    pub served_requests: u64,
    /// Total simulation events processed (arrivals, packets, timer
    /// fires). The parallel driver reports the same count — events are
    /// partitioned across shards, never duplicated — which the golden
    /// tests pin; dividing by wall-clock time gives the engines'
    /// events/sec throughput metric.
    pub processed_events: u64,
    /// Cross-shard wire messages that found their bounded ring (or
    /// socket buffer) full and parked in the sender's unbounded overflow
    /// queue. Back-pressure bookkeeping, not a simulation quantity:
    /// always `0` for the sequential driver, and excluded from the
    /// bit-identity the golden tests pin (it depends on transport and
    /// thread timing, the numbers the simulation reports do not).
    pub overflow_parks: u64,
    /// Peak depth any single overflow queue reached — how far behind the
    /// slowest wire fell. `0` when no message ever parked.
    pub overflow_peak_parked: u64,
    /// Events processed per shard, indexed by shard id (one entry — the
    /// whole run — for the sequential driver). Deterministic for a given
    /// worker count, but *partition-dependent*: the vector's length and
    /// split vary with the worker count and with adaptive rebalancing,
    /// so the cross-worker golden comparisons exclude it (its **sum** is
    /// `processed_events`, which they do pin).
    pub shard_event_counts: Vec<u64>,
    /// Max/mean ratio of `shard_event_counts` — the whole-run load
    /// imbalance across shards, `1.0` meaning perfectly balanced (and
    /// trivially `1.0` for the sequential driver). Partition-dependent
    /// like `shard_event_counts`, and likewise excluded from the
    /// cross-worker bit-identity the golden tests pin.
    pub imbalance: f64,
}

impl PacketSimReport {
    /// The first simulated quantity on which `self` and `other` differ,
    /// compared bit for bit: convergence trace, served rates, final
    /// distance, served requests, processed events, copy pushes, tunnel
    /// fetches, mean hops, every traffic class's message count and bytes,
    /// and the link-level transmissions. `None` when all agree — the equality every golden test of
    /// the packet engines pins. The partition-dependent fields (per-shard
    /// event counts, imbalance, overflow parks) are not compared.
    pub fn first_difference(&self, other: &PacketSimReport) -> Option<String> {
        fn fingerprint(r: &PacketSimReport) -> Vec<(String, Vec<u64>)> {
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect();
            let mut f = vec![
                ("trace".to_string(), bits(r.trace.distances())),
                ("served rates".to_string(), bits(r.served_rates.as_slice())),
                (
                    "final distance".to_string(),
                    vec![r.final_distance.to_bits()],
                ),
                ("served requests".to_string(), vec![r.served_requests]),
                ("processed events".to_string(), vec![r.processed_events]),
                ("copy pushes".to_string(), vec![r.copy_pushes]),
                ("tunnel fetches".to_string(), vec![r.tunnel_fetches]),
                ("mean hops".to_string(), vec![r.mean_hops.to_bits()]),
            ];
            for class in ALL_TRAFFIC_CLASSES {
                let traffic = vec![r.ledger.count(class), r.ledger.bytes(class)];
                f.push((format!("{class:?} count and bytes"), traffic));
            }
            let hops = vec![r.ledger.link_transmissions()];
            f.push(("link transmissions".to_string(), hops));
            f
        }
        fingerprint(self)
            .into_iter()
            .zip(fingerprint(other))
            .find(|(a, b)| a.1 != b.1)
            .map(|((what, a), (_, b))| format!("{what} diverge: {a:?} vs {b:?}"))
    }
}

/// The sequential packet-level simulator: the one-shard case of the
/// shared barrier layout (`ww_core::barrier`), every node at the local
/// index equal to its id. Pending events live in the radix-bucketed
/// [`RadixQueue`](ww_sim::RadixQueue), O(1) amortized on the
/// simulation's near-monotone schedule.
///
/// # Example
///
/// ```
/// use ww_model::{DocId, NodeId, Tree};
/// use ww_workload::DocMix;
/// use ww_core::packetsim::{PacketSim, PacketSimConfig};
///
/// // A chain with one hot document requested at the leaf.
/// let tree = Tree::from_parents(&[None, Some(0), Some(1)]).unwrap();
/// let mut mix = DocMix::new(3);
/// mix.set(NodeId::new(2), DocId::new(1), 300.0);
/// let mut sim = PacketSim::new(&tree, &mix, PacketSimConfig::default());
/// let report = sim.run(30.0);
/// // The protocol spreads the 300 req/s across all three nodes (TLB = 100 each).
/// assert!(report.final_distance < report.trace.initial().unwrap());
/// ```
#[derive(Debug)]
pub struct PacketSim {
    /// World, identity partition, failed links, horizon, open batch.
    core: SimCore,
    /// Every node, at the local index equal to its id.
    shard: ShardState,
    trace: ConvergenceTrace,
    /// Diffusion-epoch samples taken so far (next at `(k+1) * period`).
    epochs_sampled: u64,
    /// Telemetry level requested via [`PacketSim::set_telemetry`].
    tel_level: Level,
}

impl PacketSim {
    /// Builds a simulator for `tree` under the per-node document demand
    /// `mix`.
    ///
    /// # Panics
    ///
    /// Panics if `mix` does not cover `tree` or config values are out of
    /// range.
    pub fn new(tree: &Tree, mix: &DocMix, config: PacketSimConfig) -> Self {
        let world = PacketWorld::new(tree, mix, config);
        let partition = Partition::single(world.len());
        let shard = ShardState::prime(&world, &partition.members[0]);
        PacketSim {
            core: SimCore::new(world, partition),
            shard,
            trace: ConvergenceTrace::new(),
            epochs_sampled: 0,
            tel_level: Level::Off,
        }
    }

    /// Sets the instrumentation level. Safe to call at any barrier:
    /// counters and phase timers restart from zero; the simulation state
    /// is untouched (telemetry is observation-only, pinned by the golden
    /// on-vs-off tests).
    pub fn set_telemetry(&mut self, level: Level) {
        self.tel_level = level;
        self.core.tel = Counters::new(CORE_KEYS, level);
        self.core.tel_phases = Phases::new(CORE_PHASES, level);
        self.core.world.tel.timed = level.spans_on();
    }

    /// Everything this driver recorded since
    /// [`Self::set_telemetry`]: barrier-path counters, oracle
    /// refold/sweep counts, and (at full spans) phase timings. Empty at
    /// [`Level::Off`].
    pub fn telemetry_snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::new();
        if !self.tel_level.counters_on() {
            return snap;
        }
        let world_tel = &self.core.world.tel;
        snap.push_counter("core.oracle.refolds", world_tel.refolds);
        snap.push_counter("core.oracle.full_sweeps", world_tel.full_sweeps);
        self.core.tel.snapshot_into(&mut snap);
        if self.tel_level.spans_on() {
            snap.push_phase(
                "core.phase.oracle_refresh",
                PhaseStat {
                    ns: world_tel.refresh_ns,
                    count: world_tel.refresh_count,
                },
            );
            self.core.tel_phases.snapshot_into(&mut snap);
        }
        snap
    }

    /// The earliest pending `(time, seq, source)` across the heap and the
    /// two timer rings (see [`packet::next_source`]).
    fn next_source(&self) -> Option<(SimTime, u64, DriverSource)> {
        let shard = &self.shard;
        packet::next_source(&shard.queue, &shard.gossip_ring, &shard.diffusion_ring)
    }

    /// The next pending epoch-boundary sample time.
    fn next_sample(&self) -> SimTime {
        SimTime::from_secs(
            (self.epochs_sampled + 1) as f64 * self.core.world.config.diffusion_period,
        )
    }

    /// Samples the global distance to the oracle at time `at` and pushes
    /// it onto the trace. Rolls every node's serve meter to `at` and
    /// accumulates through the exact [`ww_stats::ExactSum`] — the same
    /// fold the parallel driver's workers compute per shard and merge at
    /// the barrier; exactness is what makes the two bit-identical.
    fn sample_epoch(&mut self, at: SimTime) {
        let now = at.as_secs();
        let sum = packet::trace_partial(
            &self.core.world.oracle,
            self.shard.nodes.iter_mut().enumerate(),
            now,
        );
        self.trace.push(sum.value().sqrt());
        self.epochs_sampled += 1;
    }

    /// Runs `handler` for node `i` with a freshly assembled [`NodeCtx`],
    /// then drains the produced outbox into the queue in push order —
    /// the one event-execution shape shared by all three sources.
    fn with_node(&mut self, i: usize, handler: impl FnOnce(&mut NodeCtx<'_>, &mut NodeState)) {
        let shard = &mut self.shard;
        let mut ctx = NodeCtx {
            world: &self.core.world,
            failed_up: &self.core.failed_up,
            ledger: &mut shard.ledger,
            counters: &mut shard.counters,
            out: &mut shard.outbox,
            scratch: &mut shard.scratch,
        };
        handler(&mut ctx, &mut shard.nodes[i]);
        for (at, ev) in shard.outbox.drain(..) {
            shard.queue.schedule(at, ev);
        }
    }

    /// Runs the simulation up to `duration` simulated seconds and
    /// reports. May be called repeatedly with increasing horizons; each
    /// call processes the events in `(previous, duration]`.
    pub fn run(&mut self, duration: f64) -> PacketSimReport {
        let deadline = SimTime::from_secs(duration);
        loop {
            let next = self.next_source();
            // Epoch samples fire between events: all events at or before
            // the boundary are processed first, then the boundary is
            // observed.
            let due = next.map(|(t, _, _)| t);
            while self.next_sample() <= deadline && due.is_none_or(|t| t > self.next_sample()) {
                let at = self.next_sample();
                self.sample_epoch(at);
            }
            let Some((at, _, source)) = next else {
                break;
            };
            if at > deadline {
                break;
            }
            match source {
                DriverSource::Heap => {
                    let (t, event) = self.shard.queue.pop().expect("peeked event exists");
                    let i = event.node().index();
                    self.with_node(i, |ctx, state| packet::handle(ctx, state, t, event));
                }
                DriverSource::Gossip => {
                    let (t, member) = self.shard.gossip_ring.pop().expect("peeked fire exists");
                    self.shard.queue.advance_to(t);
                    let node = NodeId::new(member);
                    self.with_node(member, |ctx, state| {
                        packet::on_gossip_timer(ctx, state, t, node);
                    });
                    let seq = self.shard.queue.alloc_seq();
                    self.shard.gossip_ring.rearm(member, seq);
                }
                DriverSource::Diffusion => {
                    let (t, member) = self.shard.diffusion_ring.pop().expect("peeked fire exists");
                    self.shard.queue.advance_to(t);
                    let node = NodeId::new(member);
                    self.with_node(member, |ctx, state| {
                        packet::on_diffusion(ctx, state, t, node);
                    });
                    let seq = self.shard.queue.alloc_seq();
                    self.shard.diffusion_ring.rearm(member, seq);
                }
            }
        }
        // The horizon itself is the observation instant: the clock coasts
        // to it so the report is taken at `duration` exactly, matching
        // the parallel driver's barrier.
        self.shard.queue.fast_forward(deadline);
        self.core.horizon = self.shard.queue.now();
        self.report()
    }

    /// Produces the final report (also usable mid-run).
    pub fn report(&mut self) -> PacketSimReport {
        let now = self.shard.queue.now().as_secs();
        let rates: Vec<f64> = self
            .shard
            .nodes
            .iter_mut()
            .map(|state| packet::sample_served_rate(state, now.max(1e-9)))
            .collect();
        let served_rates = RateVector::from(rates);
        let final_distance = served_rates.euclidean_distance(&self.core.world.oracle);
        let counters = &self.shard.counters;
        let processed = self.shard.queue.processed();
        PacketSimReport {
            final_distance,
            served_rates,
            oracle: self.core.world.oracle.clone(),
            trace: self.trace.clone(),
            ledger: self.shard.ledger.clone(),
            mean_hops: if counters.served_requests == 0 {
                0.0
            } else {
                counters.hops_sum as f64 / counters.served_requests as f64
            },
            copy_pushes: counters.copy_pushes,
            tunnel_fetches: counters.tunnel_fetches,
            served_requests: counters.served_requests,
            processed_events: processed,
            overflow_parks: 0,
            overflow_peak_parked: 0,
            shard_event_counts: vec![processed],
            imbalance: 1.0,
        }
    }

    /// The TLB oracle for the offered demand.
    pub fn oracle(&self) -> &RateVector {
        &self.core.world.oracle
    }

    /// The dense document table of this simulation's universe.
    pub fn doc_table(&self) -> &ww_model::DocTable {
        &self.core.world.table
    }

    /// Lifetime served-request count of one node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn served_total(&self, node: NodeId) -> u64 {
        self.shard.nodes[node.index()].served_total
    }

    /// The routing tree this simulation runs on.
    pub fn tree(&self) -> &Tree {
        &self.core.world.tree
    }

    /// Whether the control link from `node` to its parent is failed.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn link_failed(&self, node: NodeId) -> bool {
        self.core.failed_up[node.index()]
    }

    /// The shared world (topology, mix, oracle, configuration) as the
    /// simulation currently sees it.
    pub fn world(&self) -> &PacketWorld {
        &self.core.world
    }
}

/// Barrier mutations apply at the current horizon (the end of the last
/// [`PacketSim::run`]).
impl BarrierOps for PacketSim {
    type Error = ModelError;

    fn apply_op(&mut self, op: &BarrierOp) -> Result<BarrierOutcome, ModelError> {
        self.core.apply(&mut self.shard, op)
    }

    fn begin_batch(&mut self) -> Result<(), ModelError> {
        self.core.begin_batch();
        Ok(())
    }

    fn commit_batch(&mut self) -> Result<(), ModelError> {
        self.core.commit_batch(&mut self.shard);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ww_model::DocId;
    use ww_net::TrafficClass;
    use ww_topology::paper;

    fn fig7_mix() -> (Tree, DocMix) {
        let b = paper::fig7();
        let mut mix = DocMix::new(b.tree.len());
        for d in &b.demands {
            mix.set(d.origin, d.doc, d.rate);
        }
        (b.tree, mix)
    }

    #[test]
    fn all_requests_served_and_accounted() {
        let (tree, mix) = fig7_mix();
        let mut sim = PacketSim::new(&tree, &mix, PacketSimConfig::default());
        let report = sim.run(10.0);
        // 360 req/s for 10 s: expect on the order of 3600 served requests.
        assert!(
            report.served_requests > 2500 && report.served_requests < 4700,
            "served {}",
            report.served_requests
        );
        assert_eq!(
            report.ledger.count(TrafficClass::Response),
            report.served_requests
        );
    }

    #[test]
    fn convergence_toward_tlb_with_tunneling() {
        let (tree, mix) = fig7_mix();
        let mut sim = PacketSim::new(&tree, &mix, PacketSimConfig::default());
        let report = sim.run(60.0);
        let initial = report.trace.initial().unwrap_or(f64::INFINITY);
        assert!(
            report.final_distance < initial * 0.35,
            "distance {} of initial {}",
            report.final_distance,
            initial
        );
        assert!(report.tunnel_fetches >= 1, "tunneling should fire");
        // Every node ends up serving a nontrivial share.
        for (node, rate) in report.served_rates.iter() {
            assert!(rate > 30.0, "node {node} serves only {rate}");
        }
    }

    #[test]
    fn tunneling_accelerates_the_starved_node() {
        // Unlike the deterministic document-level engine (where the
        // Figure 7 barrier stalls *permanently* — see `docsim`), the
        // packet engine's measurement noise eventually leaks the blocked
        // document past the barrier. The realistic claim is therefore
        // about speed: with tunneling, the starved node ramps up sooner.
        let (tree, mix) = fig7_mix();
        let n2_at = |tunneling: bool, horizon: f64| {
            let cfg = PacketSimConfig {
                tunneling,
                ..PacketSimConfig::default()
            };
            let mut sim = PacketSim::new(&tree, &mix, cfg);
            let r = sim.run(horizon);
            (r.served_rates[NodeId::new(2)], r.tunnel_fetches)
        };
        let (with_tunnel, fetches) = n2_at(true, 8.0);
        let (without_tunnel, no_fetches) = n2_at(false, 8.0);
        assert!(fetches >= 1, "tunneling should fire");
        assert_eq!(no_fetches, 0);
        assert!(
            with_tunnel > without_tunnel * 1.2,
            "tunneling ramp {with_tunnel} should beat {without_tunnel}"
        );
    }

    #[test]
    fn mean_hops_decrease_as_copies_spread() {
        let (tree, mix) = fig7_mix();
        // Short run: most requests go all the way to the root.
        let mut early = PacketSim::new(&tree, &mix, PacketSimConfig::default());
        let early_report = early.run(3.0);
        // Long run: caches absorb most requests close to the clients.
        let mut late = PacketSim::new(&tree, &mix, PacketSimConfig::default());
        let late_report = late.run(60.0);
        assert!(
            late_report.mean_hops < early_report.mean_hops,
            "late {} vs early {}",
            late_report.mean_hops,
            early_report.mean_hops
        );
    }

    #[test]
    fn gossip_overhead_is_periodic_not_per_request() {
        let (tree, mix) = fig7_mix();
        let mut sim = PacketSim::new(&tree, &mix, PacketSimConfig::default());
        let report = sim.run(20.0);
        let gossip = report.ledger.count(TrafficClass::Gossip);
        // 4 nodes x (neighbors) x (20 s / 0.5 s) is on the order of 500,
        // far below the ~7200 requests.
        assert!(gossip > 100, "gossip {gossip}");
        assert!(
            (gossip as f64) < report.served_requests as f64 * 0.5,
            "gossip {} vs served {}",
            gossip,
            report.served_requests
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let (tree, mix) = fig7_mix();
        let run = |seed: u64| {
            let cfg = PacketSimConfig {
                seed,
                ..PacketSimConfig::default()
            };
            let mut sim = PacketSim::new(&tree, &mix, cfg);
            let r = sim.run(5.0);
            (r.served_requests, r.copy_pushes)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn gossip_loss_tolerated() {
        let (tree, mix) = fig7_mix();
        let cfg = PacketSimConfig {
            gossip_loss: 0.3,
            ..PacketSimConfig::default()
        };
        let mut sim = PacketSim::new(&tree, &mix, cfg);
        let report = sim.run(60.0);
        let initial = report.trace.initial().unwrap_or(f64::INFINITY);
        assert!(
            report.final_distance < initial * 0.5,
            "distance {} of initial {}",
            report.final_distance,
            initial
        );
    }

    #[test]
    fn trace_is_reproducible_across_runs() {
        // The timer rings must merge with the heap in a deterministic
        // order: two identically seeded runs produce identical traces.
        let (tree, mix) = fig7_mix();
        let trace = |_| {
            let mut sim = PacketSim::new(&tree, &mix, PacketSimConfig::default());
            sim.run(15.0).trace.distances().to_vec()
        };
        assert_eq!(trace(0), trace(1));
    }

    #[test]
    fn trace_samples_once_per_epoch() {
        // The convergence trace is observed at epoch boundaries: a run of
        // `d` seconds with a 1 s diffusion period yields exactly `d`
        // samples, independent of the node count.
        let (tree, mix) = fig7_mix();
        let mut sim = PacketSim::new(&tree, &mix, PacketSimConfig::default());
        let report = sim.run(12.0);
        assert_eq!(report.trace.len(), 12);
    }

    #[test]
    fn incremental_runs_match_one_shot() {
        // Driving the horizon epoch by epoch (the scenario adapter's
        // stepping pattern) replays the one-shot run bit for bit.
        let (tree, mix) = fig7_mix();
        let mut stepped = PacketSim::new(&tree, &mix, PacketSimConfig::default());
        for k in 1..=10 {
            stepped.run(k as f64);
        }
        let a = stepped.report();
        let mut oneshot = PacketSim::new(&tree, &mix, PacketSimConfig::default());
        let b = oneshot.run(10.0);
        assert_eq!(a.served_requests, b.served_requests);
        assert_eq!(a.trace.distances(), b.trace.distances());
        assert_eq!(a.served_rates.as_slice(), b.served_rates.as_slice());
    }

    #[test]
    fn first_difference_names_the_diverging_quantity() {
        let (tree, mix) = fig7_mix();
        let a = PacketSim::new(&tree, &mix, PacketSimConfig::default()).run(5.0);
        assert_eq!(a.first_difference(&a.clone()), None);
        let mut b = a.clone();
        b.shard_event_counts = vec![1, 2];
        b.imbalance = 2.0;
        assert_eq!(a.first_difference(&b), None, "partition-dependent");
        b.copy_pushes += 1;
        let diff = a.first_difference(&b).expect("pushes differ");
        assert!(diff.starts_with("copy pushes"), "{diff}");
        let mut c = a.clone();
        c.ledger.record(TrafficClass::Gossip, 64, 1);
        let diff = a.first_difference(&c).expect("ledgers differ");
        assert!(diff.starts_with("Gossip"), "{diff}");
    }

    #[test]
    fn invalidation_revokes_copies() {
        let (tree, mix) = fig7_mix();
        let mut sim = PacketSim::new(&tree, &mix, PacketSimConfig::default());
        sim.run(30.0);
        // The hot documents have spread; revoke one and check the error
        // path for unknown ids.
        assert!(sim.invalidate(DocId::new(1)).is_ok());
        assert!(sim.invalidate(DocId::new(999)).is_err());
    }
}
