//! Shard migration: the one barrier mutation that moves state
//! *between* shards. Every other mutation (churn, publish, mix shift,
//! link failure, invalidation) touches each node on its own shard and
//! lives in `ww_core::barrier`, shared with the sequential driver;
//! [`apply_rebalance`] needs both ends of every migration, so it runs
//! only in-process, over every shard — never on a single-shard
//! distributed worker.

use crate::engine::Shard;
use ww_core::barrier::SimCore;
use ww_core::packet::PacketEvent;
use ww_sim::{SimQueue, SimTime};

/// Applies a rebalance plan at the current barrier: each migrating
/// node's state, pending queue events, and pending timer fires move
/// from its donor shard to its recipient shard, in plan order
/// (ascending node id).
///
/// Correctness rests on the barrier guarantees: wires are drained and
/// merge stages empty, so *every* in-flight event targeting a node
/// lives in its current owner's queue — extraction is complete. Within
/// the recipient, a migrant's items are re-inserted in the exact
/// `(time, key)` order the donor would have delivered them, drawing
/// fresh sequence numbers from the recipient's counter; per-node
/// relative order (the only order the node-local protocol can observe)
/// is therefore preserved bit-for-bit.
///
/// Unlike churn ops, migration moves state between two shards, so it
/// takes every shard of the partition — the distributed runtime
/// rejects the rebalance knob up front, so its single-shard workers
/// never reach this path.
///
/// # Panics
///
/// Panics if a barrier batch is open.
pub(crate) fn apply_rebalance(
    core: &mut SimCore,
    shards: &mut [Shard],
    plan: &crate::rebalance::RebalancePlan,
) {
    assert!(
        !core.batch_open(),
        "cannot rebalance inside an open barrier batch"
    );
    // A migrant's pending work, keyed for deterministic re-insertion.
    enum Pending {
        Event(PacketEvent),
        Gossip(SimTime),
        Diffusion(SimTime),
    }
    // One extraction sweep per donor shard, not per migrant:
    // `extract_events` rebuilds the whole queue, so per-move extraction
    // would cost O(moves x queue) on a large plan. The barrier
    // guarantees every in-flight event for a migrant already sits in
    // its donor's queue, so sweeping before any move is complete; the
    // per-move replay below then drains the buckets in plan order,
    // exactly as per-move extraction would have.
    let mut bucket_of = vec![u32::MAX; core.partition.shard_of.len()];
    for (i, m) in plan.moves.iter().enumerate() {
        bucket_of[m.node.index()] = i as u32;
    }
    let mut buckets: Vec<Vec<(SimTime, u64, PacketEvent)>> = Vec::new();
    buckets.resize_with(plan.moves.len(), Vec::new);
    let mut donors: Vec<usize> = plan.moves.iter().map(|m| m.from).collect();
    donors.sort_unstable();
    donors.dedup();
    for &from in &donors {
        for (t, key, ev) in shards[from]
            .local
            .queue
            .extract_events(|ev| bucket_of[ev.node().index()] != u32::MAX)
        {
            let b = bucket_of[ev.node().index()] as usize;
            debug_assert_eq!(plan.moves[b].from, from, "event outside its owner's queue");
            buckets[b].push((t, key, ev));
        }
    }
    for (i, m) in plan.moves.iter().enumerate() {
        let node = m.node.index();
        debug_assert_eq!(core.partition.shard_of[node], m.from, "stale plan");
        let old_li = core.partition.local_index[node] as usize;
        let donor = &mut shards[m.from].local;
        let mut carried: Vec<(SimTime, u64, Pending)> = buckets[i]
            .drain(..)
            .map(|(t, key, ev)| (t, key, Pending::Event(ev)))
            .collect();
        // At a barrier every member's timers are armed (handlers rearm
        // immediately after each pop).
        let (gt, gseq) = donor
            .gossip_ring
            .fire_entry(old_li)
            .expect("gossip timer armed at the barrier");
        carried.push((gt, gseq, Pending::Gossip(gt)));
        let (dt, dseq) = donor
            .diffusion_ring
            .fire_entry(old_li)
            .expect("diffusion timer armed at the barrier");
        carried.push((dt, dseq, Pending::Diffusion(dt)));
        // All keys came from one merge domain (the donor's counter plus
        // content-derived inbound keys), so they are unique and
        // (time, key) is the donor's delivery order.
        carried.sort_unstable_by_key(|&(at, key, _)| (at, key));
        let state = donor.nodes.swap_remove(old_li);
        donor.gossip_ring.swap_remove_member(old_li);
        donor.diffusion_ring.swap_remove_member(old_li);
        let (from, li, new_li) = core.partition.move_node(node, m.to);
        debug_assert_eq!((from, li), (m.from, old_li));
        let shard = &mut shards[m.to].local;
        debug_assert_eq!(new_li, shard.nodes.len());
        shard.nodes.push(state);
        assert_eq!(shard.gossip_ring.add_member(), new_li);
        assert_eq!(shard.diffusion_ring.add_member(), new_li);
        for (t, _key, item) in carried {
            match item {
                Pending::Event(ev) => shard.queue.schedule(t, ev),
                Pending::Gossip(fire) => {
                    let seq = shard.queue.alloc_seq();
                    shard.gossip_ring.insert(new_li, fire, seq);
                }
                Pending::Diffusion(fire) => {
                    let seq = shard.queue.alloc_seq();
                    shard.diffusion_ring.insert(new_li, fire, seq);
                }
            }
        }
    }
}
