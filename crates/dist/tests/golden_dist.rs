//! Golden equivalence for the distributed engine: a run spanning real
//! sockets must replay the sequential `PacketSim` **bit for bit** at
//! every worker count — traces, served rates, ledger, counters, and the
//! processed-event count.
//!
//! These tests use [`DistMode::Threads`]: every worker runs the full
//! worker code (codec, TCP loopback data mesh, control protocol) in a
//! thread of this process, so the entire socket path is exercised
//! without needing the `webwave-dist` binary on disk. Process-mode
//! golden tests live with the binary in `dist-cli`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ww_core::barrier::BarrierOps;
use ww_core::packet::BarrierOp;
use ww_core::packetsim::{PacketSim, PacketSimConfig, PacketSimReport};
use ww_dist::{DistMode, DistOptions, DistPacketSim};
use ww_model::{DocId, NodeId, Tree};
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

fn random_mix(seed: u64) -> (Tree, DocMix) {
    let mut rng = StdRng::seed_from_u64(seed);
    let tree = ww_topology::random_tree_of_depth(&mut rng, 40, 5);
    let rates = ww_workload::zipf_nodes(&mut rng, &tree, 900.0, 1.0);
    let mix = ww_workload::shared_zipf_mix(&tree, &rates, 10, 1.0);
    (tree, mix)
}

fn threads() -> DistOptions {
    DistOptions {
        mode: DistMode::Threads,
        ..DistOptions::default()
    }
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
    let seq = PacketSim::new(&tree, &mix, config).run(12.0);
    assert!(seq.served_requests > 500, "run long enough to matter");
    for workers in [1, 2, 4] {
        let mut dist = DistPacketSim::launch(&tree, &mix, config, workers, threads()).unwrap();
        let rep = dist.run(12.0).unwrap();
        assert_reports_identical(&seq, &rep, &format!("fig7 workers={workers}"));
        dist.shutdown();
    }
}

#[test]
fn random_tree_matches_sequential() {
    let (tree, mix) = random_mix(0xD157);
    let config = PacketSimConfig {
        seed: 7,
        ..PacketSimConfig::default()
    };
    let seq = PacketSim::new(&tree, &mix, config).run(6.0);
    for workers in [2, 4] {
        let mut dist = DistPacketSim::launch(&tree, &mix, config, workers, threads()).unwrap();
        let rep = dist.run(6.0).unwrap();
        assert_reports_identical(&seq, &rep, &format!("random workers={workers}"));
    }
}

#[test]
fn churn_and_failures_match_sequential() {
    // The acceptance pin for barrier mutations: link failure, healing,
    // invalidation, churn, and a publish all mid-run, replayed over
    // sockets against the sequential engine.
    let (tree, mix) = fig7_mix();
    let config = PacketSimConfig::default();

    let mut seq = PacketSim::new(&tree, &mix, config);
    seq.run(4.0);
    seq.fail_link(NodeId::new(2)).unwrap();
    seq.invalidate(DocId::new(1)).unwrap();
    seq.run(8.0);
    seq.heal_link(NodeId::new(2)).unwrap();
    let newcomer = seq.add_leaf(NodeId::new(1), 40.0).unwrap();
    seq.publish_doc(DocId::new(9), NodeId::new(0), 25.0)
        .unwrap();
    seq.run(12.0);
    seq.remove_leaf(newcomer).unwrap();
    let a = seq.run(16.0);

    for workers in [1, 2, 4] {
        let mut dist = DistPacketSim::launch(&tree, &mix, config, workers, threads()).unwrap();
        dist.run(4.0).unwrap();
        assert!(dist.fail_link(NodeId::new(2)).unwrap());
        dist.invalidate(DocId::new(1)).unwrap();
        dist.run(8.0).unwrap();
        assert!(dist.heal_link(NodeId::new(2)).unwrap());
        let got = dist.add_leaf(NodeId::new(1), 40.0).unwrap();
        assert_eq!(got, newcomer, "churn ids agree across drivers");
        dist.publish_doc(DocId::new(9), NodeId::new(0), 25.0)
            .unwrap();
        dist.run(12.0).unwrap();
        dist.remove_leaf(newcomer).unwrap();
        let b = dist.run(16.0).unwrap();
        assert_reports_identical(&a, &b, &format!("churn workers={workers}"));
    }
}

#[test]
fn same_barrier_storm_batched_matches_sequential() {
    // The K-event same-barrier storm of `golden_dynamics`, replayed over
    // sockets: `BatchBegin`/`BatchCommit` bracket the broadcast ops, so
    // every participant pays one oracle refresh and one queue-surgery
    // pass — and still lands bit-identical to the sequential engine,
    // batched or not.
    let (tree, mix) = fig7_mix();
    let config = PacketSimConfig::default();
    let ops = vec![
        BarrierOp::AddLeaf {
            parent: NodeId::new(3),
            rate: 50.0,
        },
        BarrierOp::AddLeaf {
            parent: NodeId::new(4),
            rate: 30.0,
        },
        BarrierOp::RemoveLeaf {
            node: NodeId::new(2),
        },
        BarrierOp::PublishDoc {
            doc: DocId::new(901),
            origin: NodeId::new(1),
            rate: 20.0,
        },
        BarrierOp::FailLink {
            node: NodeId::new(1),
        },
        BarrierOp::Invalidate { doc: DocId::new(1) },
        BarrierOp::HealLink {
            node: NodeId::new(1),
        },
    ];

    let mut seq = PacketSim::new(&tree, &mix, config);
    seq.run(3.0);
    for op in &ops {
        seq.apply_op(op).expect("storm op applies");
    }
    let a = seq.run(9.0);

    for workers in [1, 2, 4] {
        let mut dist = DistPacketSim::launch(&tree, &mix, config, workers, threads()).unwrap();
        dist.run(3.0).unwrap();
        for r in dist.apply_all(&ops).unwrap() {
            r.expect("storm op applies");
        }
        let b = dist.run(9.0).unwrap();
        assert_reports_identical(&a, &b, &format!("storm workers={workers}"));
        dist.shutdown();
    }
}

#[test]
fn repeated_distributed_runs_are_deterministic() {
    let (tree, mix) = random_mix(3);
    let config = PacketSimConfig::default();
    let one = DistPacketSim::launch(&tree, &mix, config, 3, threads())
        .unwrap()
        .run(4.0)
        .unwrap();
    let two = DistPacketSim::launch(&tree, &mix, config, 3, threads())
        .unwrap()
        .run(4.0)
        .unwrap();
    assert_reports_identical(&one, &two, "rerun");
}

#[test]
fn surplus_workers_are_excused() {
    // Two-node tree: at most 2 shards; the other workers must be
    // dismissed cleanly and the run still match the sequential engine.
    let tree = Tree::from_parents(&[None, Some(0)]).unwrap();
    let mut mix = DocMix::new(2);
    mix.set(NodeId::new(1), DocId::new(1), 80.0);
    let config = PacketSimConfig::default();
    let seq = PacketSim::new(&tree, &mix, config).run(5.0);
    let mut dist = DistPacketSim::launch(&tree, &mix, config, 6, threads()).unwrap();
    assert!(dist.shard_count() <= 2);
    let rep = dist.run(5.0).unwrap();
    assert_reports_identical(&seq, &rep, "surplus workers");
}

#[test]
fn rejected_mutations_keep_participants_in_agreement() {
    // A model-rejected barrier op must fail on the coordinator *before*
    // any broadcast, leaving every participant consistent: the run
    // continues and still matches the sequential engine.
    let (tree, mix) = fig7_mix();
    let config = PacketSimConfig::default();

    let mut seq = PacketSim::new(&tree, &mix, config);
    seq.run(4.0);
    assert!(seq.invalidate(DocId::new(424242)).is_err());
    let a = seq.run(8.0);

    let mut dist = DistPacketSim::launch(&tree, &mix, config, 2, threads()).unwrap();
    dist.run(4.0).unwrap();
    assert!(dist.invalidate(DocId::new(424242)).is_err());
    let b = dist.run(8.0).unwrap();
    assert_reports_identical(&a, &b, "rejected mutation");
}
