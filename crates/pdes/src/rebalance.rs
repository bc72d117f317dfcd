//! Load-aware re-partitioning of the shard map at epoch barriers.
//!
//! The static partition from
//! [`partition_subtrees`](crate::partition_subtrees) balances node
//! *counts*; a flash crowd or churn skews per-shard *event* counts
//! regardless. This module computes, as a **pure function** of the
//! deterministic epoch-boundary event counters, a migration plan that
//! moves node ownership toward the mean load:
//!
//! - [`rebalance_plan`] re-packs the tree with the same packer as the
//!   static partition, weighting each node by its observed event count
//!   plus one. A hot subtree heavier than a shard's fair share splits
//!   at its root, so one flash crowd ends up spread across several
//!   shards. Shards need not be connected: every cross-shard message
//!   still crosses a tree edge, so lookahead holds for any cut.
//! - The plan is empty whenever it would not strictly improve the
//!   predicted max/mean imbalance, so steady workloads never migrate.
//!   The packing depends only on `(tree, counts)`, never on the current
//!   map, so planning again after applying a plan reproduces the
//!   applied map and moves nothing: the controller cannot thrash.
//!
//! Everything here is observation-in, plan-out: the inputs are
//! `queue.processed()`-derived counters (bit-identical at every worker
//! count), never wall-clock or telemetry, so the same spec+seed yields
//! the same migrations on every machine. Applying a plan never changes
//! the simulated trace at all — node state is shard-location-agnostic
//! and migration is pure ownership movement (see `docs/parallel.md`).

use crate::partition::{pack, Partition};
use ww_model::{NodeId, Tree};

/// Configuration of the barrier-time rebalancing controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebalanceConfig {
    /// Trigger threshold on the max/mean per-shard event ratio of the
    /// observation window; windows below it cost `O(shards)` and move
    /// nothing. Must be ≥ 1 (1 rebalances on any imbalance at all).
    pub trigger_imbalance: f64,
    /// Number of sampled epochs per observation window: the controller
    /// evaluates (and can migrate) at most once every this many epoch
    /// barriers. Must be ≥ 1.
    pub min_epoch_gap: u64,
}

/// Per-shard event-count totals, the load signal rebalancing reads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadSummary {
    /// Events attributed to each shard, indexed by shard id.
    pub shard_events: Vec<u64>,
}

impl LoadSummary {
    /// Sums `node_events` (one count per global node id) into the
    /// per-shard load of `partition`.
    ///
    /// # Panics
    ///
    /// Panics if `node_events` is shorter than the node count.
    pub fn of(partition: &Partition, node_events: &[u64]) -> Self {
        assert!(
            node_events.len() >= partition.shard_of.len(),
            "count per node"
        );
        let mut shard_events = vec![0u64; partition.shards()];
        for (u, &s) in partition.shard_of.iter().enumerate() {
            shard_events[s] += node_events[u];
        }
        LoadSummary { shard_events }
    }

    /// Total events across all shards.
    pub fn total(&self) -> u64 {
        self.shard_events.iter().sum()
    }

    /// The max/mean imbalance ratio: 1.0 is perfectly balanced. An
    /// event-free (or shard-free) summary reports 1.0 — nothing to
    /// balance.
    pub fn imbalance(&self) -> f64 {
        let total = self.total();
        if total == 0 || self.shard_events.is_empty() {
            return 1.0;
        }
        let mean = total as f64 / self.shard_events.len() as f64;
        let max = self.shard_events.iter().copied().max().unwrap_or(0);
        max as f64 / mean
    }
}

/// One node changing shards, `from` → `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Migration {
    /// The node that moves.
    pub node: NodeId,
    /// Its current shard.
    pub from: usize,
    /// Its new shard.
    pub to: usize,
}

/// A barrier-time migration plan: which nodes move where, and the
/// imbalance it was computed from / predicts.
#[derive(Debug, Clone, PartialEq)]
pub struct RebalancePlan {
    /// Nodes changing shards, in ascending node-id order. Never
    /// contains a no-op move (`from == to` is impossible).
    pub moves: Vec<Migration>,
    /// Max/mean imbalance of the observed window under the old map.
    pub imbalance_before: f64,
    /// Max/mean imbalance of the same window under the new map.
    pub predicted_imbalance: f64,
}

impl RebalancePlan {
    /// `true` when the plan migrates nothing.
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
    }

    fn noop(imbalance: f64) -> Self {
        RebalancePlan {
            moves: Vec::new(),
            imbalance_before: imbalance,
            predicted_imbalance: imbalance,
        }
    }
}

/// Computes a migration plan from observed per-node event counts — a
/// pure function of `(tree, partition, node_events)`: no randomness,
/// no clocks, deterministic tie-breaks by node id.
///
/// The plan keeps the shard *count* fixed (shards are worker threads)
/// and is empty whenever the weighted re-pack cannot strictly reduce
/// the max/mean imbalance of the supplied window, or yields fewer
/// shards than the partition has.
///
/// # Panics
///
/// Panics if `node_events` is shorter than the tree, or the partition
/// does not cover the tree.
pub fn rebalance_plan(tree: &Tree, partition: &Partition, node_events: &[u64]) -> RebalancePlan {
    let n = tree.len();
    assert!(node_events.len() >= n, "one event count per node");
    assert_eq!(partition.shard_of.len(), n, "partition covers the tree");
    let shards = partition.shards();
    let before = LoadSummary::of(partition, node_events);
    let imbalance_before = before.imbalance();
    if shards < 2 || before.total() == 0 {
        return RebalancePlan::noop(imbalance_before);
    }

    // Every node carries +1 on top of its event count, so the
    // event-free limit degenerates to node-count balancing.
    let weights: Vec<u64> = node_events[..n].iter().map(|&e| e + 1).collect();
    let packed = pack(tree, shards, &weights);
    if packed.shards() != shards {
        return RebalancePlan::noop(imbalance_before);
    }
    let moves: Vec<Migration> = (0..n)
        .filter(|&u| partition.shard_of[u] != packed.shard_of[u])
        .map(|u| Migration {
            node: NodeId::new(u),
            from: partition.shard_of[u],
            to: packed.shard_of[u],
        })
        .collect();
    let predicted = LoadSummary::of(&packed, node_events).imbalance();
    // Hysteresis against thrash: only migrate for a strict improvement.
    if moves.is_empty() || predicted >= imbalance_before {
        return RebalancePlan::noop(imbalance_before);
    }
    RebalancePlan {
        moves,
        imbalance_before,
        predicted_imbalance: predicted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::tests::family_tree;
    use crate::partition_subtrees;
    use proptest::prelude::*;

    fn apply(partition: &Partition, plan: &RebalancePlan) -> Vec<usize> {
        let mut shard_of = partition.shard_of.clone();
        for m in &plan.moves {
            assert_eq!(shard_of[m.node.index()], m.from);
            shard_of[m.node.index()] = m.to;
        }
        shard_of
    }

    /// Deterministic synthetic load: heavy on one deep subtree.
    fn skewed_load(tree: &Tree, hot: usize) -> Vec<u64> {
        let mut counts = vec![1u64; tree.len()];
        let mut stack = vec![NodeId::new(hot)];
        while let Some(v) = stack.pop() {
            counts[v.index()] = 400;
            stack.extend(tree.children(v).iter().copied());
        }
        counts
    }

    #[test]
    fn plan_is_deterministic() {
        let tree = ww_topology::k_ary(2, 8);
        let p = partition_subtrees(&tree, 4);
        let load = skewed_load(&tree, 1);
        let a = rebalance_plan(&tree, &p, &load);
        let b = rebalance_plan(&tree, &p, &load);
        assert_eq!(a, b);
    }

    #[test]
    fn skewed_load_shrinks_imbalance() {
        let tree = ww_topology::k_ary(2, 8);
        let p = partition_subtrees(&tree, 4);
        let load = skewed_load(&tree, 1);
        let plan = rebalance_plan(&tree, &p, &load);
        assert!(!plan.is_empty(), "a hot subtree must trigger migrations");
        // The hot half of the tree starts on two of four shards.
        assert!(plan.imbalance_before > 1.9, "{}", plan.imbalance_before);
        assert!(
            plan.predicted_imbalance < 1.1,
            "{} !< 1.1",
            plan.predicted_imbalance
        );
        // The prediction is honest: recompute from scratch.
        let new_shard_of = apply(&p, &plan);
        let mut after = vec![0u64; p.shards()];
        for (u, &s) in new_shard_of.iter().enumerate() {
            after[s] += load[u];
        }
        let summary = LoadSummary {
            shard_events: after,
        };
        assert!((summary.imbalance() - plan.predicted_imbalance).abs() < 1e-12);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The documented guarantees on every family under skewed
        /// demand: an applied plan predicts strictly lower imbalance,
        /// the prediction is what the migrated map realises, and
        /// planning again on the migrated map moves nothing.
        #[test]
        fn applied_plans_improve_and_are_fixed_points(
            family in 0usize..5,
            size in 2usize..150,
            seed in any::<u64>(),
            shards in 2usize..=8,
            hot_pick in any::<usize>(),
        ) {
            let tree = family_tree(family, size, seed);
            let mut p = partition_subtrees(&tree, shards);
            let load = skewed_load(&tree, hot_pick % tree.len());
            let plan = rebalance_plan(&tree, &p, &load);
            prop_assert!(plan.predicted_imbalance <= plan.imbalance_before);
            if !plan.is_empty() {
                prop_assert!(plan.predicted_imbalance < plan.imbalance_before);
                for m in &plan.moves {
                    p.move_node(m.node.index(), m.to);
                }
                let realised = LoadSummary::of(&p, &load).imbalance();
                prop_assert!((realised - plan.predicted_imbalance).abs() < 1e-12);
                let again = rebalance_plan(&tree, &p, &load);
                prop_assert!(again.is_empty(), "replanning after apply moved {} nodes", again.moves.len());
            }
        }
    }

    #[test]
    fn no_noop_migrations_ever() {
        let tree = ww_topology::two_level(6, 9);
        let p = partition_subtrees(&tree, 4);
        for seed in 0..20u64 {
            // Cheap deterministic pseudo-load (no RNG in unit tests).
            let load: Vec<u64> = (0..tree.len() as u64)
                .map(|i| (i.wrapping_mul(2654435761).wrapping_add(seed * 97)) % 50)
                .collect();
            let plan = rebalance_plan(&tree, &p, &load);
            for m in &plan.moves {
                assert_ne!(m.from, m.to, "no-op migration emitted");
                assert_eq!(p.shard_of[m.node.index()], m.from);
            }
            // Moves are sorted by node id (plan order is the apply order).
            for w in plan.moves.windows(2) {
                assert!(w[0].node.index() < w[1].node.index());
            }
        }
    }

    #[test]
    fn balanced_load_plans_nothing() {
        // Uniform load packs exactly like unit weights: the weighted
        // pack reproduces the static partition, so nothing moves.
        let tree = ww_topology::two_level(4, 7);
        let p = partition_subtrees(&tree, 4);
        let load = vec![7u64; tree.len()];
        let plan = rebalance_plan(&tree, &p, &load);
        assert!(plan.is_empty(), "uniform load must not migrate");
    }

    #[test]
    fn applied_plan_is_a_fixed_point() {
        // The packing is a pure function of (tree, load, shard count) —
        // independent of the current map — so re-planning right after
        // applying reproduces the applied map: no thrash, ever, even
        // with the most aggressive config.
        let tree = ww_topology::k_ary(2, 8);
        let mut p = partition_subtrees(&tree, 4);
        let load = skewed_load(&tree, 1);
        let plan = rebalance_plan(&tree, &p, &load);
        assert!(!plan.is_empty());
        for m in &plan.moves {
            p.move_node(m.node.index(), m.to);
        }
        let again = rebalance_plan(&tree, &p, &load);
        assert!(again.is_empty(), "replanning after apply must be empty");
        assert!((again.imbalance_before - plan.predicted_imbalance).abs() < 1e-12);
    }

    #[test]
    fn event_free_window_plans_nothing() {
        let tree = ww_topology::k_ary(2, 6);
        let p = partition_subtrees(&tree, 4);
        let plan = rebalance_plan(&tree, &p, &vec![0u64; tree.len()]);
        assert!(plan.is_empty());
        assert_eq!(plan.imbalance_before, 1.0);
    }

    #[test]
    fn single_shard_plans_nothing() {
        let tree = ww_topology::k_ary(2, 6);
        let p = partition_subtrees(&tree, 1);
        let plan = rebalance_plan(&tree, &p, &vec![9u64; tree.len()]);
        assert!(plan.is_empty());
    }

    #[test]
    fn load_summary_sums_by_shard() {
        let tree = ww_topology::path(6);
        let p = partition_subtrees(&tree, 2);
        let load: Vec<u64> = (0..6).collect();
        let summary = LoadSummary::of(&p, &load);
        assert_eq!(summary.total(), 15);
        assert_eq!(summary.shard_events.len(), 2);
        assert!(summary.imbalance() >= 1.0);
    }

    #[test]
    fn shard_count_is_preserved_or_plan_is_empty() {
        // A star-ish degenerate shape where the weighted pack may fill
        // fewer bins: the plan must come back empty rather than shrink
        // the shard count.
        let tree = ww_topology::two_level(3, 1);
        let p = partition_subtrees(&tree, 3);
        let mut load = vec![0u64; tree.len()];
        load[0] = 1_000;
        let plan = rebalance_plan(&tree, &p, &load);
        let shard_of = apply(&p, &plan);
        for s in 0..p.shards() {
            assert!(shard_of.contains(&s), "shard {s} emptied by the plan");
        }
    }
}
