//! Deterministic weighted partitioning of the routing tree.
//!
//! The parallel engine shards the tree's nodes, one shard per worker.
//! Shards need not be connected: a shard is any set of nodes, and every
//! cross-shard message still crosses at least one tree edge, which
//! pays at least one link delay — so the link latency is the
//! conservative lookahead between shards whatever the cut.
//!
//! One packer, `pack`, makes every cut: largest-first (LPT) bin
//! packing of subtrees by weight, splitting any subtree heavier than a
//! shard's fair share into its root and its child subtrees. The static
//! [`partition_subtrees`] packs with weight 1 per node; re-partitioning
//! ([`rebalance_plan`](crate::rebalance_plan)) packs with observed event
//! counts. The packer is a pure function of `(tree, shard count,
//! weights)` — no randomness, no iteration-order dependence — so every
//! run of a given scenario shards identically. The [`Partition`] map it
//! produces lives in `ww-core`, next to the barrier mutations that keep
//! it current under churn.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use ww_model::{NodeId, Tree};

pub use ww_core::barrier::Partition;

/// Splits `tree` into at most `max_shards` shards of roughly equal
/// node count: the weighted packer with weight 1 per node. Always yields at least
/// one shard; shard 0 contains the root.
///
/// # Panics
///
/// Panics if `tree` is empty or `max_shards` is zero.
pub fn partition_subtrees(tree: &Tree, max_shards: usize) -> Partition {
    pack(tree, max_shards, &vec![1; tree.len()])
}

/// The packing units of a weighted tree for `bins` shards, heaviest
/// first (ties toward the smaller root id), as `(weight, root)`. A
/// subtree of weight at most `ceil(total / bins)` is one unit; a heavier
/// subtree contributes its root as a single-node unit and is split
/// further at its children.
fn items(tree: &Tree, bins: usize, weights: &[u64]) -> Vec<(u64, usize)> {
    let mut sub = weights[..tree.len()].to_vec();
    for u in tree.bottom_up() {
        if let Some(p) = tree.parent(u) {
            sub[p.index()] += sub[u.index()];
        }
    }
    let root = tree.root();
    let cap = sub[root.index()].div_ceil(bins as u64);
    let mut items = Vec::new();
    let mut stack = vec![root];
    while let Some(u) = stack.pop() {
        let ui = u.index();
        if sub[ui] > cap {
            items.push((weights[ui], ui));
            stack.extend_from_slice(tree.children(u));
        } else {
            items.push((sub[ui], ui));
        }
    }
    items.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    items
}

/// Packs the tree into at most `max_shards` shards by weight — the one
/// cut both [`partition_subtrees`] and
/// [`rebalance_plan`](crate::rebalance_plan) use. Largest-first (LPT)
/// bin packing over the `items` decomposition: each unit goes to the
/// least-loaded bin (ties toward the lower bin index), so no shard
/// outweighs `ceil(total / shards)` by more than the heaviest unit. The
/// root's bin becomes shard 0, the other non-empty bins are numbered by
/// their lowest node id, and empty bins are dropped. A pure function of
/// `(tree, max_shards, weights)`.
///
/// # Panics
///
/// Panics if `tree` is empty, `max_shards` is zero, or `weights` is
/// shorter than the tree.
pub(crate) fn pack(tree: &Tree, max_shards: usize, weights: &[u64]) -> Partition {
    assert!(!tree.is_empty(), "cannot partition an empty tree");
    assert!(max_shards > 0, "need at least one shard");
    assert!(weights.len() >= tree.len(), "one weight per node");
    let n = tree.len();
    let bins = max_shards.min(n);

    let mut loads: BinaryHeap<Reverse<(u64, usize)>> = (0..bins).map(|b| Reverse((0, b))).collect();
    let mut bin_of = vec![usize::MAX; n];
    for (w, root) in items(tree, bins, weights) {
        let Reverse((load, b)) = loads.pop().expect("at least one bin");
        bin_of[root] = b;
        loads.push(Reverse((load + w, b)));
    }
    // Nodes inside a whole-subtree unit follow their parent; parents
    // precede children in BFS order.
    for &u in tree.bfs_order() {
        if bin_of[u.index()] == usize::MAX {
            let p = tree.parent(u).expect("the root is always a unit");
            bin_of[u.index()] = bin_of[p.index()];
        }
    }

    let mut label = vec![usize::MAX; bins];
    label[bin_of[tree.root().index()]] = 0;
    let mut shards = 1;
    for &b in &bin_of {
        if label[b] == usize::MAX {
            label[b] = shards;
            shards += 1;
        }
    }
    let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); shards];
    let mut shard_of = Vec::with_capacity(n);
    let mut local_index = Vec::with_capacity(n);
    for (i, &b) in bin_of.iter().enumerate() {
        let s = label[b];
        shard_of.push(s);
        local_index.push(members[s].len() as u32);
        members[s].push(NodeId::new(i));
    }
    Partition {
        shard_of,
        local_index,
        members,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// One tree of each family the engines shard: `path`, `star`,
    /// `two_level`, `k_ary` and `random_depth`, sized by `size`.
    pub(crate) fn family_tree(family: usize, size: usize, seed: u64) -> Tree {
        match family {
            0 => ww_topology::path(size),
            1 => ww_topology::star(size),
            2 => ww_topology::two_level(1 + size / 8, size % 9),
            3 => ww_topology::k_ary(2 + size % 3, 1 + size % 5),
            _ => {
                let mut rng = StdRng::seed_from_u64(seed);
                ww_topology::random_tree_of_depth(&mut rng, size, 1 + size % 7)
            }
        }
    }

    fn arb_case() -> impl Strategy<Value = (Tree, usize, Vec<u64>)> {
        (
            0usize..5,
            1usize..120,
            any::<u64>(),
            1usize..=8,
            any::<bool>(),
        )
            .prop_map(|(family, size, seed, shards, skewed)| {
                let tree = family_tree(family, size, seed);
                // Unit weights, or a deterministic skew: a few hot nodes.
                let weights = (0..tree.len() as u64)
                    .map(|i| {
                        let h = i.wrapping_mul(2654435761) ^ seed;
                        if skewed && h % 7 == 0 {
                            1 + h % 400
                        } else {
                            1
                        }
                    })
                    .collect();
                (tree, shards, weights)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every node is on exactly one shard, no shard is empty, the
        /// root is on shard 0 and the bookkeeping indexes agree.
        #[test]
        fn every_node_on_exactly_one_nonempty_shard((tree, shards, weights) in arb_case()) {
            let p = pack(&tree, shards, &weights);
            prop_assert!(p.shards() >= 1 && p.shards() <= shards);
            prop_assert_eq!(p.shard_of[tree.root().index()], 0);
            for (s, members) in p.members.iter().enumerate() {
                prop_assert!(!members.is_empty(), "shard {} is empty", s);
            }
            check_indexes(&p);
        }

        /// The packer is a pure function of its inputs.
        #[test]
        fn packing_is_deterministic((tree, shards, weights) in arb_case()) {
            let a = pack(&tree, shards, &weights);
            let b = pack(&tree, shards, &weights);
            prop_assert_eq!(a.shard_of, b.shard_of);
            prop_assert_eq!(a.members, b.members);
        }

        /// The LPT bound: no shard outweighs `ceil(total / k)` by more
        /// than the heaviest packing unit.
        #[test]
        fn heaviest_shard_obeys_the_lpt_bound((tree, shards, weights) in arb_case()) {
            let k = shards.min(tree.len());
            let total: u64 = weights.iter().sum();
            let heaviest_item = items(&tree, k, &weights)[0].0;
            let p = pack(&tree, shards, &weights);
            let mut load = vec![0u64; p.shards()];
            for (u, &s) in p.shard_of.iter().enumerate() {
                load[s] += weights[u];
            }
            let max = load.iter().copied().max().unwrap();
            prop_assert!(
                max <= total.div_ceil(k as u64) + heaviest_item,
                "max {} > ceil({}/{}) + {}", max, total, k, heaviest_item
            );
        }
    }

    #[test]
    fn items_cover_every_node_once() {
        let tree = ww_topology::two_level(7, 5);
        let weights = vec![1; tree.len()];
        let units = items(&tree, 3, &weights);
        assert_eq!(units.iter().map(|u| u.0).sum::<u64>(), tree.len() as u64);
        // The root (36 nodes > ceil(36/3)) splits; each region is a unit.
        assert_eq!(units.len(), 8);
        assert_eq!(units[0], (6, 1), "heaviest first, lower id on ties");
    }

    #[test]
    fn star_of_stars_balances() {
        // The CDN shape a connected cut cannot balance: one region per
        // shard would leave the root's shard with everything else.
        let tree = ww_topology::two_level(180, 180);
        let p = partition_subtrees(&tree, 2);
        let sizes: Vec<usize> = p.members.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![16_291, 16_290]);
    }

    #[test]
    fn shards_are_roughly_balanced() {
        let tree = ww_topology::k_ary(2, 9); // 1023 nodes
        let p = partition_subtrees(&tree, 4);
        assert_eq!(p.shards(), 4);
        let target = tree.len().div_ceil(4);
        for (s, members) in p.members.iter().enumerate() {
            assert!(!members.is_empty(), "shard {s} is empty");
            assert!(
                members.len() <= 2 * target,
                "shard {s} holds {}",
                members.len()
            );
        }
    }

    #[test]
    fn single_shard_and_tiny_trees() {
        let tree = ww_topology::path(3);
        let p1 = partition_subtrees(&tree, 1);
        assert_eq!(p1.shards(), 1);
        let p8 = partition_subtrees(&tree, 8);
        assert_eq!(p8.shards(), 3);
        let single = ww_topology::path(1);
        let p = partition_subtrees(&single, 4);
        assert_eq!(p.shards(), 1);
    }

    /// The bookkeeping invariant: shard_of / local_index / members agree.
    fn check_indexes(p: &Partition) {
        let n = p.shard_of.len();
        assert_eq!(p.local_index.len(), n);
        let total: usize = p.members.iter().map(Vec::len).sum();
        assert_eq!(total, n);
        for (s, members) in p.members.iter().enumerate() {
            for (li, &u) in members.iter().enumerate() {
                assert_eq!(p.shard_of[u.index()], s, "node {u} shard");
                assert_eq!(p.local_index[u.index()] as usize, li, "node {u} index");
            }
        }
    }

    #[test]
    fn add_node_joins_the_parents_shard() {
        let tree = ww_topology::k_ary(2, 4);
        let mut p = partition_subtrees(&tree, 3);
        let n = tree.len();
        let parent_shard = p.shard_of[5];
        let li = p.add_node(parent_shard);
        assert_eq!(p.shard_of.len(), n + 1);
        assert_eq!(p.shard_of[n], parent_shard);
        assert_eq!(p.members[parent_shard][li], NodeId::new(n));
        check_indexes(&p);
    }

    #[test]
    fn swap_remove_node_renumbers_both_layers() {
        let tree = ww_topology::k_ary(2, 4);
        let mut p = partition_subtrees(&tree, 3);
        let n = tree.len();
        // Remove a node from the middle of some shard: both the global
        // last id and the shard's last member must renumber.
        let victim = p.members[1][0].index();
        let (s, li) = p.swap_remove_node(victim);
        assert_eq!(s, 1);
        assert_eq!(li, 0);
        assert_eq!(p.shard_of.len(), n - 1);
        check_indexes(&p);
        // Removing the highest id is a plain truncation.
        let mut q = partition_subtrees(&tree, 3);
        q.swap_remove_node(n - 1);
        check_indexes(&q);
    }

    #[test]
    fn cut_pairs_are_symmetric_and_sorted() {
        let tree = ww_topology::k_ary(2, 6);
        let p = partition_subtrees(&tree, 3);
        let pairs = p.cut_pairs(&tree);
        for &(a, b) in &pairs {
            assert!(pairs.contains(&(b, a)), "missing reverse of ({a}, {b})");
        }
        let mut sorted = pairs.clone();
        sorted.sort_unstable();
        assert_eq!(pairs, sorted);
    }
}
