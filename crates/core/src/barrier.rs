//! Barrier-time mutations of a packet-level run — joins, leaves,
//! publishes, mix shifts, link failures, invalidations — written once
//! for every packet driver, generic in **which shards the caller
//! holds**.
//!
//! A run's nodes are split into shards by a [`Partition`]. The
//! sequential [`PacketSim`](crate::packetsim::PacketSim) is the
//! one-shard case: every node sits in one [`ShardState`] and its local
//! index equals its id. The sharded parallel driver of the `ww-pdes`
//! crate holds every shard; a distributed worker holds exactly one; the
//! distributed coordinator holds none (it keeps the replicated
//! bookkeeping only, to mirror mutations and serve metadata). All of
//! them apply the *same* mutation through [`SimCore::apply`] and end
//! bit-identical for the shards they do hold. That works because every
//! per-node step of every mutation touches only that node's own shard:
//! skipping nodes whose shard the caller does not hold cannot perturb
//! the shards it does. The shared bookkeeping in [`SimCore`] (world,
//! partition, failed-link map, horizon) is replicated everywhere and
//! mutated identically — a pure function of the operation's arguments.
//!
//! Every mutation runs inside a barrier batch: it applies its primary
//! state change eagerly, and a join, leave, publish or mix shift records
//! the [`SurgeryStep`] its queues need; the batch commit pays the oracle
//! refresh, one composed queue-surgery sweep and one arrival
//! re-resolution (none of the three when nothing asked for them). An op
//! applied outside an open batch runs as a batch of one. [`BarrierOps`] is the one typed surface over
//! `apply_op` that every packet driver exposes.

use crate::packet::{
    self, BarrierOp, BarrierOutcome, NodeState, PacketCounters, PacketEvent, PacketWorld, Scratch,
    SurgeryStep, UniverseGrowth,
};
use ww_model::{DocId, LeafRemoval, ModelError, NodeId, Tree};
use ww_net::{TrafficClass, TrafficLedger};
use ww_sim::{RadixQueue, SimQueue, SimTime, TimerRing};
use ww_telemetry::{Counters, Key, Level, Phases};
use ww_workload::DocMix;

/// Counter key table of the barrier path (dense slots; see
/// `docs/observability.md` for the naming scheme). The per-packet hot
/// loop records nothing here.
pub static CORE_KEYS: &[Key] = &[
    Key::sum("core.barrier.ops"),
    Key::sum("core.surgery.sweeps"),
    Key::sum("core.surgery.removed"),
];
const K_BARRIER_OPS: usize = 0;
const K_SURGERY_SWEEPS: usize = 1;
const K_SURGERY_REMOVED: usize = 2;

/// Phase-name table of the barrier path.
pub static CORE_PHASES: &[&str] = &["core.phase.arrival_rebuild"];
const P_ARRIVAL_REBUILD: usize = 0;

/// A partition of the tree's nodes into shards.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Shard of every node.
    pub shard_of: Vec<usize>,
    /// Index of every node within its shard's `members` list.
    pub local_index: Vec<u32>,
    /// Nodes of each shard. Freshly packed partitions list members in
    /// ascending node-id order; churn and migration compact by
    /// swap-remove and append at the back, so the order is merely
    /// *deterministic*, not sorted — no consumer may rely on sortedness.
    pub members: Vec<Vec<NodeId>>,
}

impl Partition {
    /// All `n` nodes in one shard, each at the local index equal to its
    /// id — the sequential driver's layout.
    pub fn single(n: usize) -> Self {
        Partition {
            shard_of: vec![0; n],
            local_index: (0..n as u32).collect(),
            members: vec![(0..n).map(NodeId::new).collect()],
        }
    }

    /// Number of shards (≥ 1; at most the requested count).
    pub fn shards(&self) -> usize {
        self.members.len()
    }

    /// `(shard, local index)` of node `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn locate(&self, j: usize) -> (usize, usize) {
        (self.shard_of[j], self.local_index[j] as usize)
    }

    /// Registers a node joining the simulated world: the newcomer takes
    /// the next global id and the last local slot of `shard` (the
    /// drivers pass its parent's shard, so the join opens no new cut
    /// pair). Returns the local index. The caller appends the matching
    /// entries to the shard's state vector and timer rings.
    pub fn add_node(&mut self, shard: usize) -> usize {
        let id = self.shard_of.len();
        let li = self.members[shard].len();
        self.shard_of.push(shard);
        self.local_index.push(li as u32);
        self.members[shard].push(NodeId::new(id));
        li
    }

    /// Registers a node leaving: global ids compact by swap-remove (the
    /// former last id renumbers into `node`, staying on its own shard —
    /// no state crosses a shard boundary), and the hosting shard's
    /// member list compacts the same way. Returns the departed node's
    /// `(shard, local index)`; the caller must apply the identical
    /// swap-remove to that shard's state vector and timer rings.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn swap_remove_node(&mut self, node: usize) -> (usize, usize) {
        let (s, li) = self.locate(node);
        self.members[s].swap_remove(li);
        if let Some(&w) = self.members[s].get(li) {
            self.local_index[w.index()] = li as u32;
        }
        self.shard_of.swap_remove(node);
        self.local_index.swap_remove(node);
        if node < self.shard_of.len() {
            // The renumbered former-last id: rewrite its member entry.
            let (ms, mli) = self.locate(node);
            self.members[ms][mli] = NodeId::new(node);
        }
        (s, li)
    }

    /// Moves `node` to shard `to`, compacting the donor's member list
    /// by swap-remove and appending to the recipient's. Returns
    /// `(donor shard, donor local index, recipient local index)`; the
    /// caller must apply the identical swap-remove/push to the two
    /// shards' state vectors and timer rings. Any node may live on any
    /// shard — lookahead holds for every cut — so a move is pure
    /// bookkeeping; the caller re-dials wires for the new cut pairs.
    ///
    /// # Panics
    ///
    /// Panics if `node` or `to` is out of range, or if `node` already
    /// lives on shard `to` (a no-op migration is a planner bug).
    pub fn move_node(&mut self, node: usize, to: usize) -> (usize, usize, usize) {
        assert!(node < self.shard_of.len(), "node out of range");
        assert!(to < self.members.len(), "shard out of range");
        let (from, li) = self.locate(node);
        assert_ne!(from, to, "no-op migration for node {node}");
        self.members[from].swap_remove(li);
        if let Some(&w) = self.members[from].get(li) {
            self.local_index[w.index()] = li as u32;
        }
        let new_li = self.members[to].len();
        self.members[to].push(NodeId::new(node));
        self.shard_of[node] = to;
        self.local_index[node] = new_li as u32;
        (from, li, new_li)
    }

    /// The ordered list of shard pairs connected by at least one tree
    /// edge, as `(child_side_shard, parent_side_shard)` — each listed
    /// once per unordered pair per direction of the underlying edges.
    pub fn cut_pairs(&self, tree: &Tree) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        for u in tree.nodes() {
            if let Some(p) = tree.parent(u) {
                let (a, b) = (self.shard_of[u.index()], self.shard_of[p.index()]);
                if a != b {
                    // Traffic crosses every cut edge in both directions
                    // (requests climb, gossip and copies descend), so both
                    // directed pairs carry a channel.
                    if !pairs.contains(&(a, b)) {
                        pairs.push((a, b));
                    }
                    if !pairs.contains(&(b, a)) {
                        pairs.push((b, a));
                    }
                }
            }
        }
        pairs.sort_unstable();
        pairs
    }
}

/// The node-local half of one shard: its nodes' protocol states, its
/// pending events and periodic timers, and what its handlers record.
#[derive(Debug)]
pub struct ShardState {
    /// Protocol state of each member node, by local index.
    pub nodes: Vec<NodeState>,
    /// Pending irregular events (arrivals, packets, messages).
    pub queue: RadixQueue<PacketEvent>,
    /// Per-member gossip timers.
    pub gossip_ring: TimerRing,
    /// Per-member diffusion timers.
    pub diffusion_ring: TimerRing,
    /// Message/byte ledger of the shard's nodes.
    pub ledger: TrafficLedger,
    /// Protocol counters of the shard's nodes.
    pub counters: PacketCounters,
    /// Reusable handler scratch buffers.
    pub scratch: Scratch,
    /// Events a handler produced, awaiting routing.
    pub outbox: Vec<(SimTime, PacketEvent)>,
}

impl ShardState {
    /// Builds the shard hosting `members` at time zero. Priming runs in
    /// member order: each node's first arrivals, then its two staggered
    /// timers — so every node's events get the same relative sequence
    /// order whichever shard primes it.
    pub fn prime(world: &PacketWorld, members: &[NodeId]) -> Self {
        let config = &world.config;
        let mut nodes: Vec<NodeState> = members
            .iter()
            .map(|&u| packet::init_state(world, u))
            .collect();
        let mut queue = RadixQueue::default();
        let mut gossip_ring = TimerRing::new(SimTime::from_secs(config.gossip_period), nodes.len());
        let mut diffusion_ring =
            TimerRing::new(SimTime::from_secs(config.diffusion_period), nodes.len());
        let mut outbox = Vec::new();
        for (local, (&u, state)) in members.iter().zip(&mut nodes).enumerate() {
            packet::initial_arrivals(world, state, u, &mut outbox);
            for (at, ev) in outbox.drain(..) {
                queue.schedule(at, ev);
            }
            let gossip_seq = queue.alloc_seq();
            gossip_ring.insert(local, world.gossip_phase(u.index()), gossip_seq);
            let diffusion_seq = queue.alloc_seq();
            diffusion_ring.insert(local, world.diffusion_phase(u.index()), diffusion_seq);
        }
        ShardState {
            nodes,
            queue,
            gossip_ring,
            diffusion_ring,
            ledger: TrafficLedger::new(),
            counters: PacketCounters::default(),
            scratch: Scratch::default(),
            outbox,
        }
    }
}

/// Shard ownership: which of the partition's shards a participant
/// holds in memory. Barrier mutations skip nodes of shards `shard_mut`
/// returns `None` for.
pub trait ShardStore {
    /// The shard with id `id`, if held.
    fn shard_mut(&mut self, id: usize) -> Option<&mut ShardState>;

    /// Visits every held shard.
    fn for_each(&mut self, f: &mut dyn FnMut(&mut ShardState));
}

/// The sequential layout: one shard, id 0.
impl ShardStore for ShardState {
    fn shard_mut(&mut self, id: usize) -> Option<&mut ShardState> {
        (id == 0).then_some(self)
    }

    fn for_each(&mut self, f: &mut dyn FnMut(&mut ShardState)) {
        f(self);
    }
}

/// Every shard held, indexed by shard id.
impl<S: AsMut<ShardState>> ShardStore for Vec<S> {
    fn shard_mut(&mut self, id: usize) -> Option<&mut ShardState> {
        self.get_mut(id).map(AsMut::as_mut)
    }

    fn for_each(&mut self, f: &mut dyn FnMut(&mut ShardState)) {
        for shard in self.iter_mut() {
            f(shard.as_mut());
        }
    }
}

/// The replicated, shard-independent half of a packet-level run: the
/// shared world, the node→shard partition, the failed-link map, the
/// barrier horizon, and the open batch. Identical on every participant
/// of a run.
#[derive(Debug)]
pub struct SimCore {
    /// The shared world (topology, mix, oracle, configuration).
    pub world: PacketWorld,
    /// Which shard hosts each node.
    pub partition: Partition,
    /// Per node: `true` when the control link to its parent is failed.
    /// Gossip, copy pushes, and diffusion decisions stop crossing the
    /// edge; request packets (the data plane) keep flowing.
    pub failed_up: Vec<bool>,
    /// Simulated time the run has reached (last barrier).
    pub horizon: SimTime,
    /// Open barrier batch: the queue-surgery steps recorded so far.
    batch: Option<Vec<SurgeryStep>>,
    /// Barrier-path counter slab over [`CORE_KEYS`].
    pub(crate) tel: Counters,
    /// Phase timers over [`CORE_PHASES`].
    pub(crate) tel_phases: Phases,
}

impl SimCore {
    /// The bookkeeping of a fresh run at time zero, telemetry off.
    pub fn new(world: PacketWorld, partition: Partition) -> Self {
        SimCore {
            failed_up: vec![false; world.len()],
            world,
            partition,
            horizon: SimTime::ZERO,
            batch: None,
            tel: Counters::off(CORE_KEYS),
            tel_phases: Phases::new(CORE_PHASES, Level::Off),
        }
    }

    /// Whether a barrier batch is open.
    pub fn batch_open(&self) -> bool {
        self.batch.is_some()
    }

    /// Opens a barrier batch: subsequent mutations apply their primary
    /// state changes eagerly but defer the oracle refresh, the
    /// queue-surgery sweep, and the arrival re-resolution to one shared
    /// pass in [`SimCore::commit_batch`]. A K-op batch ends bit-identical
    /// to K batches of one at a fraction of the cost.
    ///
    /// # Panics
    ///
    /// Panics if a batch is already open.
    pub fn begin_batch(&mut self) {
        assert!(self.batch.is_none(), "a barrier batch is already open");
        self.world.begin_batch();
        self.batch = Some(Vec::new());
    }

    /// Closes the batch: one deferred oracle refresh, the recorded
    /// surgery steps composed into one `filter_map_events` sweep over
    /// every held shard, and one arrival re-resolution in global node
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if no batch is open.
    pub fn commit_batch<S: ShardStore + ?Sized>(&mut self, store: &mut S) {
        let steps = self.batch.take().expect("no open barrier batch");
        self.world.end_batch();
        if steps.is_empty() {
            return;
        }
        let mut removed = 0;
        store.for_each(&mut |shard| {
            let before = shard.queue.len();
            shard
                .queue
                .filter_map_events(|ev| packet::apply_surgery(ev, &steps));
            removed += before - shard.queue.len();
        });
        self.tel.add(K_SURGERY_SWEEPS, 1);
        self.tel.add(K_SURGERY_REMOVED, removed as u64);
        self.reschedule_arrivals(store);
    }

    /// Applies one barrier mutation inside the open batch, or as a batch
    /// of one when none is open.
    ///
    /// # Errors
    ///
    /// As the matching [`BarrierOps`] method; a rejected op mutates
    /// nothing.
    ///
    /// # Panics
    ///
    /// [`BarrierOp::FailLink`] / [`BarrierOp::HealLink`] on the root or
    /// out of range.
    pub fn apply<S: ShardStore + ?Sized>(
        &mut self,
        store: &mut S,
        op: &BarrierOp,
    ) -> Result<BarrierOutcome, ModelError> {
        self.tel.add(K_BARRIER_OPS, 1);
        let own_batch = self.batch.is_none();
        if own_batch {
            self.begin_batch();
        }
        let outcome = match op {
            BarrierOp::AddLeaf { parent, rate } => self
                .add_leaf(store, *parent, *rate)
                .map(BarrierOutcome::Added),
            BarrierOp::RemoveLeaf { node } => {
                self.remove_leaf(store, *node).map(BarrierOutcome::Removed)
            }
            BarrierOp::PublishDoc { doc, origin, rate } => self
                .world
                .publish(*doc, *origin, *rate)
                .map(|growth| self.apply_growth(store, growth)),
            BarrierOp::SetMix { mix } => self
                .world
                .set_mix(mix)
                .map(|growth| self.apply_growth(store, growth)),
            BarrierOp::FailLink { node } => Ok(BarrierOutcome::Toggled(self.set_link(*node, true))),
            BarrierOp::HealLink { node } => {
                Ok(BarrierOutcome::Toggled(self.set_link(*node, false)))
            }
            BarrierOp::Invalidate { doc } => self.invalidate(store, *doc),
        };
        if own_batch {
            self.commit_batch(store);
        }
        outcome
    }

    /// The open batch's surgery steps.
    fn steps(&mut self) -> &mut Vec<SurgeryStep> {
        self.batch.as_mut().expect("barrier ops run inside a batch")
    }

    /// The state of node `j`, when its shard is held.
    fn state_mut<'a, S: ShardStore + ?Sized>(
        &self,
        store: &'a mut S,
        j: usize,
    ) -> Option<&'a mut NodeState> {
        let (s, li) = self.partition.locate(j);
        store.shard_mut(s).map(|shard| &mut shard.nodes[li])
    }

    /// Fails (`failed = true`) or heals the control link between `node`
    /// and its parent. Returns whether the link changed state.
    fn set_link(&mut self, node: NodeId, failed: bool) -> bool {
        assert!(
            self.world.tree.parent(node).is_some(),
            "the root has no uplink to {}",
            if failed { "fail" } else { "heal" }
        );
        std::mem::replace(&mut self.failed_up[node.index()], failed) != failed
    }

    /// Revokes every cached copy of `doc` outside the home server,
    /// charging one invalidation message per revoked copy.
    fn invalidate<S: ShardStore + ?Sized>(
        &mut self,
        store: &mut S,
        doc: DocId,
    ) -> Result<BarrierOutcome, ModelError> {
        let Some(k) = self.world.table.index_of(doc) else {
            return Err(ModelError::UnknownDocument { doc: doc.value() });
        };
        let root = self.world.tree.root();
        for j in 0..self.world.len() {
            let node = NodeId::new(j);
            if node == root {
                continue;
            }
            let (s, li) = self.partition.locate(j);
            let Some(shard) = store.shard_mut(s) else {
                continue;
            };
            if packet::invalidate_node(&mut shard.nodes[li], k) {
                shard
                    .ledger
                    .record(TrafficClass::Gossip, 64, self.world.tree.depth(node) as u32);
            }
        }
        Ok(BarrierOutcome::Done)
    }

    /// A cache server joins as a new leaf under `parent`, hosted by its
    /// parent's shard (so the join opens no new cut pair). Its timers
    /// arm phase-staggered after the barrier.
    fn add_leaf<S: ShardStore + ?Sized>(
        &mut self,
        store: &mut S,
        parent: NodeId,
        rate: f64,
    ) -> Result<NodeId, ModelError> {
        let at = self.horizon;
        let id = self.world.join(parent, rate)?;
        let i = id.index();
        let map = packet::join_slot_map(self.world.tree.children(parent).len() - 1);
        if let Some(state) = self.state_mut(store, parent.index()) {
            packet::remap_children(state, &map, at.as_secs());
        }
        let ps = self.partition.shard_of[parent.index()];
        let li = self.partition.add_node(ps);
        self.failed_up.push(false);
        self.steps().push(SurgeryStep::Rebuild(None));
        if let Some(shard) = store.shard_mut(ps) {
            debug_assert_eq!(li, shard.nodes.len());
            shard
                .nodes
                .push(packet::init_state_at(&self.world, id, at.as_secs()));
            assert_eq!(shard.gossip_ring.add_member(), li);
            assert_eq!(shard.diffusion_ring.add_member(), li);
            let gossip_seq = shard.queue.alloc_seq();
            shard
                .gossip_ring
                .insert(li, at + self.world.gossip_phase(i), gossip_seq);
            let diffusion_seq = shard.queue.alloc_seq();
            shard
                .diffusion_ring
                .insert(li, at + self.world.diffusion_phase(i), diffusion_seq);
        }
        Ok(id)
    }

    /// A leaf cache server departs. Ids compact by swap-remove; the
    /// renumbered former-last node stays on its own shard, so the
    /// compaction is a pure bookkeeping move.
    fn remove_leaf<S: ShardStore + ?Sized>(
        &mut self,
        store: &mut S,
        node: NodeId,
    ) -> Result<LeafRemoval, ModelError> {
        let at = self.horizon;
        let old_child_slot = self.world.child_slot.clone();
        let removal = self.world.leave(node)?;
        let r = removal.removed.index();
        let (s, li) = self.partition.swap_remove_node(r);
        if let Some(shard) = store.shard_mut(s) {
            shard.nodes.swap_remove(li);
            shard.gossip_ring.swap_remove_member(li);
            shard.diffusion_ring.swap_remove_member(li);
        }
        self.failed_up.swap_remove(r);
        self.steps().push(SurgeryStep::Leave {
            removed: removal.removed,
            moved: removal.moved,
        });
        for p in packet::parents_to_remap(&self.world.tree, &removal) {
            let map = packet::child_slot_map(
                &self.world.tree,
                p,
                removal.removed,
                removal.moved,
                &old_child_slot,
            );
            if let Some(state) = self.state_mut(store, p.index()) {
                packet::remap_children(state, &map, at.as_secs());
            }
        }
        Ok(removal)
    }

    /// Applies a universe growth to every held node's per-document state
    /// (the home server also receives the only copy of each new
    /// document) — the shared tail of publish and mix shift.
    fn apply_growth<S: ShardStore + ?Sized>(
        &mut self,
        store: &mut S,
        growth: Option<UniverseGrowth>,
    ) -> BarrierOutcome {
        let at = self.horizon.as_secs();
        if let Some(g) = &growth {
            let root = self.world.tree.root();
            for j in 0..self.world.len() {
                if let Some(state) = self.state_mut(store, j) {
                    packet::grow_node_state(state, g, at, NodeId::new(j) == root);
                }
            }
        }
        self.steps().push(SurgeryStep::Rebuild(growth));
        BarrierOutcome::Done
    }

    /// Schedules every held node's fresh first arrivals after the
    /// commit's surgery sweep dropped the stale ones, in global node
    /// order — so each node's events keep the relative order the
    /// sequential queue gives them.
    fn reschedule_arrivals<S: ShardStore + ?Sized>(&mut self, store: &mut S) {
        let span = self.tel_phases.begin();
        let at = self.horizon;
        for j in 0..self.world.len() {
            let (s, li) = self.partition.locate(j);
            let Some(shard) = store.shard_mut(s) else {
                continue;
            };
            packet::rebuild_node_arrivals(
                &self.world,
                &mut shard.nodes[li],
                NodeId::new(j),
                at,
                &mut shard.outbox,
            );
            for (t, ev) in shard.outbox.drain(..) {
                shard.queue.schedule(t, ev);
            }
        }
        self.tel_phases.end(P_ARRIVAL_REBUILD, span);
    }
}

/// The typed barrier-op surface every packet driver exposes, written
/// once over three required methods. Implementors route
/// [`apply_op`](BarrierOps::apply_op) to [`SimCore::apply`] (and, when
/// distributed, to every worker); the typed methods and
/// [`apply_all`](BarrierOps::apply_all) are provided.
pub trait BarrierOps {
    /// Why the driver rejects an op: the model's verdict, or — for a
    /// distributed driver — a transport failure.
    type Error;

    /// Applies one [`BarrierOp`] at the current barrier, inside the
    /// open batch or as a batch of one.
    ///
    /// # Errors
    ///
    /// The model's rejection (unknown node or document, invalid rate,
    /// interior leave, ...); a rejected op mutates nothing.
    ///
    /// # Panics
    ///
    /// [`BarrierOp::FailLink`] / [`BarrierOp::HealLink`] on the root or
    /// out of range.
    fn apply_op(&mut self, op: &BarrierOp) -> Result<BarrierOutcome, Self::Error>;

    /// Opens a barrier batch (see [`SimCore::begin_batch`]).
    ///
    /// # Errors
    ///
    /// Distributed drivers: a worker is gone.
    ///
    /// # Panics
    ///
    /// Panics if a batch is already open.
    fn begin_batch(&mut self) -> Result<(), Self::Error>;

    /// Closes the batch (see [`SimCore::commit_batch`]).
    ///
    /// # Errors
    ///
    /// Distributed drivers: a worker is gone.
    ///
    /// # Panics
    ///
    /// Panics if no batch is open.
    fn commit_batch(&mut self) -> Result<(), Self::Error>;

    /// Applies every op of a same-barrier storm as one batch. The
    /// per-op results mirror one-at-a-time application (a rejected op
    /// mutates nothing and the batch continues).
    ///
    /// # Errors
    ///
    /// Opening or closing the batch failed; per-op rejections land in
    /// the returned vector.
    ///
    /// # Panics
    ///
    /// As [`BarrierOps::apply_op`], and if a batch is already open.
    fn apply_all(
        &mut self,
        ops: &[BarrierOp],
    ) -> Result<Vec<Result<BarrierOutcome, Self::Error>>, Self::Error> {
        self.begin_batch()?;
        let results = ops.iter().map(|op| self.apply_op(op)).collect();
        self.commit_batch()?;
        Ok(results)
    }

    /// A cache server joins as a new leaf under `parent`, bringing
    /// `rate` req/s of demand split across the universe proportionally
    /// to current document popularity. The newcomer takes the next id,
    /// starts cold (no copies), and its gossip/diffusion timers arm
    /// phase-staggered after the barrier; every arrival stream is
    /// re-resolved.
    ///
    /// # Errors
    ///
    /// As [`PacketWorld::join`]: unknown parent or invalid rate.
    fn add_leaf(&mut self, parent: NodeId, rate: f64) -> Result<NodeId, Self::Error> {
        match self.apply_op(&BarrierOp::AddLeaf { parent, rate })? {
            BarrierOutcome::Added(id) => Ok(id),
            other => unreachable!("a join reported {other:?}"),
        }
    }

    /// A leaf cache server departs: its demand re-homes to its parent,
    /// ids compact by swap-remove (the returned [`LeafRemoval`] names
    /// the renumbering), in-flight events involving the departed node
    /// are dropped, and every arrival stream is re-resolved.
    ///
    /// # Errors
    ///
    /// As [`PacketWorld::leave`]: unknown id, the root, or an interior
    /// node.
    fn remove_leaf(&mut self, node: NodeId) -> Result<LeafRemoval, Self::Error> {
        match self.apply_op(&BarrierOp::RemoveLeaf { node })? {
            BarrierOutcome::Removed(removal) => Ok(removal),
            other => unreachable!("a leave reported {other:?}"),
        }
    }

    /// Publishes a document: demand for `doc` appears at `origin`, a
    /// first-time id grows the dense universe (every node's
    /// per-document state shifts columns; the home server receives the
    /// only copy), and every arrival stream is re-resolved.
    ///
    /// # Errors
    ///
    /// As [`PacketWorld::publish`]: unknown origin or invalid rate.
    fn publish_doc(&mut self, doc: DocId, origin: NodeId, rate: f64) -> Result<(), Self::Error> {
        self.apply_op(&BarrierOp::PublishDoc { doc, origin, rate })
            .map(drop)
    }

    /// Replaces the whole demand mix (hot-set rotation, Zipf re-skew).
    /// Copies and serve allocations survive; first-time document ids
    /// grow the universe; every arrival stream is re-resolved.
    ///
    /// # Errors
    ///
    /// As [`PacketWorld::set_mix`]: a mix not covering the current tree.
    fn set_mix(&mut self, mix: &DocMix) -> Result<(), Self::Error> {
        self.apply_op(&BarrierOp::SetMix { mix: mix.clone() })
            .map(drop)
    }

    /// Fails the control link between `node` and its parent: gossip
    /// stops crossing it (estimates on both sides go stale), no copies
    /// are pushed or tunneled across, and the node's diffusion step
    /// ignores its parent until [`BarrierOps::heal_link`]. Request
    /// packets — the data plane — keep flowing. Returns `false` when
    /// already failed.
    ///
    /// # Errors
    ///
    /// Distributed drivers: a worker is gone.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or is the root.
    fn fail_link(&mut self, node: NodeId) -> Result<bool, Self::Error> {
        match self.apply_op(&BarrierOp::FailLink { node })? {
            BarrierOutcome::Toggled(changed) => Ok(changed),
            other => unreachable!("a link failure reported {other:?}"),
        }
    }

    /// Restores the control link between `node` and its parent. Returns
    /// `false` when the link was not failed.
    ///
    /// # Errors
    ///
    /// Distributed drivers: a worker is gone.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or is the root.
    fn heal_link(&mut self, node: NodeId) -> Result<bool, Self::Error> {
        match self.apply_op(&BarrierOp::HealLink { node })? {
            BarrierOutcome::Toggled(changed) => Ok(changed),
            other => unreachable!("a link heal reported {other:?}"),
        }
    }

    /// Re-publishes (updates) a document: every cached copy outside the
    /// home server is invalidated — copies, filters, and serve
    /// allocations for `doc` vanish, and the stale serve-rate estimates
    /// for it are reset. One invalidation message per revoked copy is
    /// charged to the ledger (control traffic from the root, paying the
    /// node's depth in hops). Demand is unchanged; requests fall back to
    /// the home server until diffusion re-spreads the new version.
    ///
    /// # Errors
    ///
    /// [`ModelError::UnknownDocument`] when `doc` is outside the
    /// simulated universe.
    fn invalidate(&mut self, doc: DocId) -> Result<(), Self::Error> {
        self.apply_op(&BarrierOp::Invalidate { doc }).map(drop)
    }
}
