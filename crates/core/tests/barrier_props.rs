//! Property tests for barrier-time event application on the packet
//! engine's mutable world: churn round-trips, shift idempotence, and
//! universe-growth invariants, over randomized topologies and demand.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use ww_core::barrier::BarrierOps;
use ww_core::packetsim::{PacketSim, PacketSimConfig};
use ww_model::{DocId, NodeId};

/// A small random world: tree, Zipf demand, configured simulator.
fn build_sim(nodes: usize, docs: usize, seed: u64) -> PacketSim {
    let mut rng = StdRng::seed_from_u64(seed);
    let tree = ww_topology::random_tree_of_depth(&mut rng, nodes, 4.min(nodes - 1));
    let rates = ww_workload::zipf_nodes(&mut rng, &tree, 10.0 * nodes as f64, 1.0);
    let mix = ww_workload::shared_zipf_mix(&tree, &rates, docs, 1.0);
    PacketSim::new(&tree, &mix, PacketSimConfig::default())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Join-then-leave round-trips the world: removing the leaf that
    /// just joined restores the tree shape, the demand mix, and the
    /// oracle bit for bit (the arrival generation advances — streams
    /// are re-resolved — but the *world* is restored).
    #[test]
    fn join_then_leave_round_trips_the_world(
        nodes in 5usize..30,
        docs in 2usize..8,
        seed in 0u64..1000,
        parent_pick in 0usize..30,
        rate in 1.0f64..200.0,
    ) {
        let mut sim = build_sim(nodes, docs, seed);
        sim.run(2.0);
        let before_parents = sim.tree().to_parents();
        let before_mix = sim.world().mix.clone();
        let parent = NodeId::new(parent_pick % sim.tree().len());
        let id = sim.add_leaf(parent, rate).expect("join applies");
        prop_assert_eq!(id.index(), before_parents.len());
        let removal = sim.remove_leaf(id).expect("the new leaf departs");
        // The newest id is the highest, so no renumbering can occur...
        prop_assert!(removal.moved.is_none());
        // ...and the tree is exactly restored.
        prop_assert_eq!(sim.tree().to_parents(), before_parents);
        // The demand round-trips too, except that the departed node's
        // rate re-homed onto the parent: every other node's per-doc
        // demand is untouched, and the parent's total grew by `rate`.
        let after_mix = &sim.world().mix;
        for j in 0..before_mix.len() {
            let node = NodeId::new(j);
            if node == parent {
                let (b, a) = (before_mix.node_total(node), after_mix.node_total(node));
                prop_assert!((a - (b + rate)).abs() < 1e-6 * (1.0 + a),
                    "parent total {} vs {} + {}", a, b, rate);
            } else {
                prop_assert_eq!(before_mix.demands_of(node), after_mix.demands_of(node));
            }
        }
        // Total offered demand is conserved up to the re-homed rate, so
        // the oracle total follows it.
        let after_total = after_mix.spontaneous().total();
        prop_assert!(
            (sim.world().oracle.total() - after_total).abs() < 1e-6 * (1.0 + after_total)
        );
    }

    /// Applying the same mix twice leaves the world's demand, oracle,
    /// and universe exactly where one application put them (the arrival
    /// generation differs — by design, streams re-resolve each time).
    #[test]
    fn set_mix_is_idempotent_on_the_world(
        nodes in 5usize..25,
        docs in 2usize..8,
        seed in 0u64..1000,
        new_docs in 1usize..10,
        theta in 0.1f64..1.5,
    ) {
        let mut sim = build_sim(nodes, docs, seed);
        sim.run(1.0);
        let tree = sim.tree().clone();
        let rates = ww_workload::uniform(&tree, 12.0);
        let mix = ww_workload::shared_zipf_mix(&tree, &rates, new_docs, theta);
        sim.set_mix(&mix).expect("shift applies");
        let once_mix = sim.world().mix.clone();
        let once_oracle: Vec<u64> =
            sim.world().oracle.as_slice().iter().map(|x| x.to_bits()).collect();
        let once_docs = sim.doc_table().docs().to_vec();
        sim.set_mix(&mix).expect("shift re-applies");
        prop_assert_eq!(&sim.world().mix, &once_mix);
        let twice_oracle: Vec<u64> =
            sim.world().oracle.as_slice().iter().map(|x| x.to_bits()).collect();
        prop_assert_eq!(once_oracle, twice_oracle);
        prop_assert_eq!(once_docs, sim.doc_table().docs().to_vec());
    }

    /// Publishing grows the universe monotonically and preserves every
    /// existing document's identity; demand totals grow by the rate.
    #[test]
    fn publish_grows_universe_monotonically(
        nodes in 5usize..25,
        docs in 2usize..8,
        seed in 0u64..1000,
        new_doc in 100u64..200,
        origin_pick in 0usize..25,
        rate in 0.5f64..50.0,
    ) {
        let mut sim = build_sim(nodes, docs, seed);
        sim.run(1.0);
        let before_docs = sim.doc_table().docs().to_vec();
        let before_total = sim.world().mix.spontaneous().total();
        let origin = NodeId::new(origin_pick % sim.tree().len());
        sim.publish_doc(DocId::new(new_doc), origin, rate).expect("publish applies");
        let after_docs = sim.doc_table().docs();
        prop_assert_eq!(after_docs.len(), before_docs.len() + 1);
        for d in &before_docs {
            prop_assert!(after_docs.contains(d), "doc {:?} vanished", d);
        }
        prop_assert!(after_docs.contains(&DocId::new(new_doc)));
        let after_total = sim.world().mix.spontaneous().total();
        prop_assert!((after_total - (before_total + rate)).abs() < 1e-6 * (1.0 + after_total));
        // Publishing the same doc again only adds demand.
        sim.publish_doc(DocId::new(new_doc), origin, 1.0).expect("re-publish applies");
        prop_assert_eq!(sim.doc_table().docs().len(), before_docs.len() + 1);
    }

    /// Churn keeps the simulation deterministic: the same op sequence
    /// from the same seed produces bit-identical reports.
    #[test]
    fn churned_runs_are_reproducible(
        nodes in 5usize..20,
        seed in 0u64..500,
    ) {
        let run = || {
            let mut sim = build_sim(nodes, 4, seed);
            sim.run(2.0);
            sim.add_leaf(NodeId::new(0), 30.0).expect("join");
            sim.run(4.0);
            let leaf = NodeId::new(sim.tree().len() - 1);
            sim.remove_leaf(leaf).expect("leave");
            let r = sim.run(6.0);
            (
                r.served_requests,
                r.trace.distances().iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            )
        };
        prop_assert_eq!(run(), run());
    }
}

/// An out-of-range parent is reported as such even when the world
/// carries no demand (the zero-demand check must not shadow it).
#[test]
fn join_reports_unknown_parent_before_rate_problems() {
    let tree = ww_model::Tree::from_parents(&[None, Some(0)]).unwrap();
    let mix = ww_workload::DocMix::new(2); // zero demand everywhere
    let mut sim = PacketSim::new(&tree, &mix, PacketSimConfig::default());
    match sim.add_leaf(NodeId::new(99), 5.0) {
        Err(ww_model::ModelError::NodeOutOfRange { node, len }) => {
            assert_eq!((node.index(), len), (99, 2));
        }
        other => panic!("expected NodeOutOfRange, got {other:?}"),
    }
}

/// Leaves depart carrying their copies; a node that rejoins under the
/// same id starts cold (fresh RNG generation, no copies).
#[test]
fn rejoiner_starts_cold() {
    let mut sim = build_sim(12, 4, 9);
    sim.run(5.0);
    let parent = NodeId::new(0);
    let id = sim.add_leaf(parent, 25.0).expect("join");
    sim.run(8.0);
    let served_before = sim.served_total(id);
    sim.remove_leaf(id).expect("leave");
    let id2 = sim.add_leaf(parent, 25.0).expect("rejoin");
    assert_eq!(id, id2, "the vacated id is reused");
    assert_eq!(sim.served_total(id2), 0, "rejoiner starts cold");
    let _ = served_before;
    // And the simulation keeps running fine afterwards.
    let report = sim.run(12.0);
    assert!(report.served_requests > 0);
}
