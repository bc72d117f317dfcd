//! Golden equivalence: the sharded parallel packet simulator must replay
//! the sequential `PacketSim` bit for bit at every worker count, on every
//! reported number — traces, served rates, ledger, counters.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ww_core::barrier::BarrierOps;
use ww_core::packetsim::{PacketSim, PacketSimConfig, PacketSimReport};
use ww_model::{DocId, NodeId, Tree};
use ww_pdes::ParPacketSim;
use ww_topology::paper;
use ww_workload::DocMix;

fn fig7_mix() -> (Tree, DocMix) {
    let b = paper::fig7();
    let mut mix = DocMix::new(b.tree.len());
    for d in &b.demands {
        mix.set(d.origin, d.doc, d.rate);
    }
    (b.tree, mix)
}

/// A 60-node random tree with a Zipf-skewed shared document mix — the
/// flash-crowd shape, scaled for a test.
fn random_mix(seed: u64) -> (Tree, DocMix) {
    let mut rng = StdRng::seed_from_u64(seed);
    let tree = ww_topology::random_tree_of_depth(&mut rng, 60, 6);
    let rates = ww_workload::zipf_nodes(&mut rng, &tree, 1200.0, 1.0);
    let mix = ww_workload::shared_zipf_mix(&tree, &rates, 12, 1.0);
    (tree, mix)
}

fn assert_reports_identical(a: &PacketSimReport, b: &PacketSimReport, label: &str) {
    if let Some(diff) = a.first_difference(b) {
        panic!("{label}: {diff}");
    }
}

#[test]
fn fig7_matches_sequential_at_every_worker_count() {
    let (tree, mix) = fig7_mix();
    let config = PacketSimConfig::default();
    let seq = PacketSim::new(&tree, &mix, config).run(20.0);
    assert!(
        seq.served_requests > 1000,
        "run long enough to mean something"
    );
    for workers in [1, 2, 4, 8] {
        let par = ParPacketSim::new(&tree, &mix, config, workers).run(20.0);
        assert_reports_identical(&seq, &par, &format!("fig7 workers={workers}"));
    }
}

#[test]
fn random_tree_matches_sequential_at_every_worker_count() {
    let (tree, mix) = random_mix(0xC0FFEE);
    let config = PacketSimConfig {
        seed: 42,
        ..PacketSimConfig::default()
    };
    let seq = PacketSim::new(&tree, &mix, config).run(8.0);
    for workers in [1, 2, 4, 8] {
        let par = ParPacketSim::new(&tree, &mix, config, workers).run(8.0);
        assert_reports_identical(&seq, &par, &format!("random workers={workers}"));
    }
}

#[test]
fn tuning_matrix_matches_sequential() {
    // The acceptance pin for the hot path (SPSC rings, window-batched
    // publication, radix queue): every worker count replays the
    // sequential engine bit for bit — including the processed-event
    // count.
    let (tree, mix) = fig7_mix();
    let config = PacketSimConfig::default();
    let seq = PacketSim::new(&tree, &mix, config).run(12.0);
    for workers in [1, 2, 4, 8] {
        let par = ParPacketSim::new(&tree, &mix, config, workers).run(12.0);
        assert_reports_identical(&seq, &par, &format!("workers={workers}"));
    }
}

#[test]
fn gossip_loss_randomness_is_shard_independent() {
    let (tree, mix) = random_mix(7);
    let config = PacketSimConfig {
        gossip_loss: 0.25,
        ..PacketSimConfig::default()
    };
    let seq = PacketSim::new(&tree, &mix, config).run(6.0);
    for workers in [2, 5] {
        let par = ParPacketSim::new(&tree, &mix, config, workers).run(6.0);
        assert_reports_identical(&seq, &par, &format!("lossy workers={workers}"));
    }
}

#[test]
fn epoch_stepping_matches_one_shot() {
    // The scenario adapter drives epoch by epoch; the parallel engine
    // must replay its own one-shot run and the sequential stepped run.
    let (tree, mix) = fig7_mix();
    let config = PacketSimConfig::default();
    let mut stepped = ParPacketSim::new(&tree, &mix, config, 4);
    for k in 1..=10 {
        stepped.run(k as f64);
    }
    let a = stepped.report();
    let b = ParPacketSim::new(&tree, &mix, config, 4).run(10.0);
    let c = PacketSim::new(&tree, &mix, config).run(10.0);
    assert_reports_identical(&a, &b, "stepped vs one-shot");
    assert_reports_identical(&a, &c, "stepped vs sequential");
}

#[test]
fn link_failures_and_invalidation_match_sequential() {
    let (tree, mix) = fig7_mix();
    let config = PacketSimConfig::default();

    let mut seq = PacketSim::new(&tree, &mix, config);
    seq.run(6.0);
    seq.fail_link(NodeId::new(2)).expect("fail applies");
    seq.run(12.0);
    seq.heal_link(NodeId::new(2)).expect("heal applies");
    seq.invalidate(DocId::new(1)).unwrap();
    let a = seq.run(18.0);

    let mut par = ParPacketSim::new(&tree, &mix, config, 3);
    par.run(6.0);
    par.fail_link(NodeId::new(2)).expect("fail applies");
    par.run(12.0);
    par.heal_link(NodeId::new(2)).expect("heal applies");
    par.invalidate(DocId::new(1)).unwrap();
    let b = par.run(18.0);

    assert_reports_identical(&a, &b, "faulted run");
    assert_eq!(
        seq.served_total(NodeId::new(2)),
        par.served_total(NodeId::new(2))
    );
}

#[test]
fn repeated_runs_are_deterministic() {
    let (tree, mix) = random_mix(99);
    let config = PacketSimConfig::default();
    let one = ParPacketSim::new(&tree, &mix, config, 4).run(5.0);
    let two = ParPacketSim::new(&tree, &mix, config, 4).run(5.0);
    assert_reports_identical(&one, &two, "rerun");
}

#[test]
fn worker_count_is_capped_by_topology() {
    let tree = Tree::from_parents(&[None, Some(0)]).unwrap();
    let mut mix = DocMix::new(2);
    mix.set(NodeId::new(1), DocId::new(1), 50.0);
    let sim = ParPacketSim::new(&tree, &mix, PacketSimConfig::default(), 16);
    assert!(sim.shard_count() <= 2);
}

#[test]
#[should_panic(expected = "positive link delay")]
fn zero_link_delay_rejected_for_multi_shard() {
    let (tree, mix) = fig7_mix();
    let config = PacketSimConfig {
        link_delay: 0.0,
        ..PacketSimConfig::default()
    };
    let _ = ParPacketSim::new(&tree, &mix, config, 4);
}

/// The CDN shape a connected cut cannot balance: on `two_level(180,
/// 180)` at 2 workers, one hub per extra shard would leave shard 0 with
/// nearly every event. The weighted packer keeps each shard's popped
/// events within 1.1× of the mean. The short horizon keeps the debug
/// build quick; perfbench's `cdn_steady` runs the same shape for four
/// epochs.
#[test]
fn star_of_stars_shards_pop_evenly() {
    let tree = ww_topology::two_level(180, 180);
    let rates = ww_workload::leaf_only(&tree, 1.0);
    let mix = ww_workload::shared_zipf_mix(&tree, &rates, 8, 1.0);
    let report = ParPacketSim::new(&tree, &mix, PacketSimConfig::default(), 2).run(0.05);
    let counts = &report.shard_event_counts;
    assert_eq!(counts.len(), 2);
    assert!(
        report.processed_events > 30_000,
        "{}",
        report.processed_events
    );
    let mean = counts.iter().sum::<u64>() as f64 / 2.0;
    for (s, &c) in counts.iter().enumerate() {
        assert!(
            c as f64 <= 1.1 * mean,
            "shard {s} popped {c} of mean {mean}"
        );
    }
}
