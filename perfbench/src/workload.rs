//! The benchmark's workloads and the seeded generator that turns a
//! workload name and a seed into a scenario spec (JSON text).
//!
//! The program under test only ever sees the generated spec: it is
//! parsed by `ScenarioSpec::from_json` and run by the public `Runner`,
//! exactly as a user's spec file would be.

use serde_json::{Map, Value};
use ww_model::NodeId;
use ww_telemetry::Level;

/// The seed every recorded figure uses unless stated otherwise.
pub const DEFAULT_SEED: u64 = 1997;

/// A seed kept out of tuning, for checking a later claim on inputs it
/// was not developed against.
pub const HELD_OUT_SEED: u64 = 424_242;

/// Worker count of the sharded and distributed workloads.
pub const WORKERS: usize = 2;

/// Which packet engine a workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Sequential `packet_sim`.
    Seq,
    /// Sharded `packet_sim_par` with [`WORKERS`] threads.
    Par,
    /// Distributed `packet_sim_dist` with [`WORKERS`] in-process
    /// workers over loopback TCP.
    Dist,
}

impl EngineKind {
    /// The spec spelling of the engine.
    pub fn spec_kind(self) -> &'static str {
        match self {
            EngineKind::Seq => "packet_sim",
            EngineKind::Par => "packet_sim_par",
            EngineKind::Dist => "packet_sim_dist",
        }
    }
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Read-only serving on the wide, shallow CDN shape, sharded.
    CdnSteady,
    /// Churn, failures and document updates on the sequential kernel.
    ChurnSeq,
    /// The same churn generator on the distributed engine.
    ChurnDist,
}

/// The size and engine of a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// Regional hubs under the root.
    pub regions: usize,
    /// Edge leaves per hub.
    pub leaves: usize,
    /// Spontaneous demand per leaf, req/s.
    pub leaf_rate: f64,
    /// Documents in the shared Zipf mix.
    pub docs: usize,
    /// Zipf exponent of the mix.
    pub theta: f64,
    /// Diffusion epochs (engine rounds) per run.
    pub epochs: usize,
    /// Engine the workload runs on.
    pub engine: EngineKind,
    /// Whether a churn schedule rides along.
    pub churn: bool,
    /// Whether the benchmark runs the workload on a single core (see
    /// [`crate::measure::pin_to_one_core`]).
    pub one_core: bool,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [Workload::CdnSteady, Workload::ChurnSeq, Workload::ChurnDist];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CdnSteady => "cdn_steady",
            Workload::ChurnSeq => "churn_seq",
            Workload::ChurnDist => "churn_dist",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's size and engine.
    pub fn shape(self) -> Shape {
        match self {
            Workload::CdnSteady => Shape {
                regions: 180,
                leaves: 180,
                leaf_rate: 1.0,
                docs: 8,
                theta: 1.0,
                epochs: 4,
                engine: EngineKind::Par,
                churn: false,
                one_core: false,
            },
            Workload::ChurnSeq => Shape {
                regions: 224,
                leaves: 224,
                leaf_rate: 0.5,
                docs: 8,
                theta: 1.0,
                epochs: 6,
                engine: EngineKind::Seq,
                churn: true,
                one_core: false,
            },
            Workload::ChurnDist => Shape {
                regions: 128,
                leaves: 128,
                leaf_rate: 1.0,
                docs: 8,
                theta: 1.0,
                epochs: 8,
                engine: EngineKind::Dist,
                churn: true,
                // The coordinator and its two workers take turns over
                // loopback TCP: spread over two cores, every hand-off
                // waits on the host to wake the other core, and wall
                // clock then follows the host's load rather than the
                // engine. On one core the runs take as long and vary
                // far less.
                one_core: true,
            },
        }
    }

    /// The workload's spec for `seed` as JSON text, on the workload's
    /// own engine at telemetry `level`.
    pub fn spec_json(self, seed: u64, level: Level) -> String {
        let shape = self.shape();
        spec_json(self.name(), &shape, shape.engine, seed, level)
    }

    /// The same spec on the sequential `packet_sim` engine with
    /// telemetry off: the correctness reference every run must match.
    pub fn reference_json(self, seed: u64) -> String {
        let shape = self.shape();
        spec_json(self.name(), &shape, EngineKind::Seq, seed, Level::Off)
    }
}

fn object(pairs: Vec<(&str, Value)>) -> Value {
    let mut map = Map::new();
    for (k, v) in pairs {
        map.insert(k, v);
    }
    Value::Object(map)
}

fn num(x: impl Into<f64>) -> Value {
    Value::Number(x.into())
}

fn shared_zipf(docs: usize, theta: f64) -> Value {
    object(vec![
        ("kind", Value::from("shared_zipf")),
        ("docs", num(docs as f64)),
        ("theta", num(theta)),
    ])
}

fn spec_json(name: &str, shape: &Shape, engine: EngineKind, seed: u64, level: Level) -> String {
    let mut engine_pairs = vec![("kind", Value::from(engine.spec_kind()))];
    if engine != EngineKind::Seq {
        engine_pairs.push(("workers", num(WORKERS as f64)));
    }
    let mut pairs = vec![
        ("name", Value::from(name)),
        (
            "topology",
            object(vec![
                ("kind", Value::from("two_level")),
                ("regions", num(shape.regions as f64)),
                ("leaves", num(shape.leaves as f64)),
            ]),
        ),
        (
            "workload",
            object(vec![
                (
                    "rates",
                    object(vec![
                        ("kind", Value::from("leaf_only")),
                        ("rate", num(shape.leaf_rate)),
                    ]),
                ),
                ("doc_mix", shared_zipf(shape.docs, shape.theta)),
            ]),
        ),
        ("engine", object(engine_pairs)),
        (
            "termination",
            object(vec![
                ("kind", Value::from("rounds")),
                ("max", num(shape.epochs as f64)),
            ]),
        ),
        // The spec seed is a JSON number (an f64): keep it exact.
        ("seed", num((seed % (1 << 53)) as f64)),
        (
            "telemetry",
            object(vec![("level", Value::from(level.as_str()))]),
        ),
    ];
    if shape.churn {
        pairs.push(("events", churn_events(shape, seed)));
    }
    serde_json::to_string(&object(pairs))
}

/// SplitMix64: a small, fixed generator, so the churn schedule for a
/// seed never changes with a dependency's version.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi` (`hi > lo`).
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo) as u64) as usize
    }
}

/// The churn schedule: one batched barrier after every epoch but the
/// last. Each barrier heals the previous link failure, joins two leaves
/// under random hubs, retires one random leaf, fails one random uplink
/// and re-publishes one document; every 3rd barrier publishes a new
/// document and every 4th shifts the doc mix, alternating its Zipf
/// exponent.
///
/// The generator replays every join and leave on its own copy of the
/// tree, so each node reference is valid under the swap-remove
/// renumbering in force when the event fires.
fn churn_events(shape: &Shape, seed: u64) -> Value {
    let mut rng = SplitMix(seed ^ 0x0057_4542_5741_5645);
    let mut tree = ww_topology::two_level(shape.regions, shape.leaves);
    let hubs = shape.regions;
    let mut failed: Option<usize> = None;
    let mut published = 0usize;
    let mut schedule = Vec::new();
    for round in 1..shape.epochs {
        let mut push = |kind: &str, mut pairs: Vec<(&str, Value)>| {
            let mut all = vec![("round", num(round as f64)), ("kind", Value::from(kind))];
            all.append(&mut pairs);
            schedule.push(object(all));
        };
        if let Some(node) = failed.take() {
            push("link_heal", vec![("node", num(node as f64))]);
        }
        for _ in 0..2 {
            let hub = rng.range(1, hubs + 1);
            tree.add_leaf(NodeId::new(hub)).expect("hubs are in range");
            push(
                "node_join",
                vec![("parent", num(hub as f64)), ("rate", num(shape.leaf_rate))],
            );
        }
        // Joins attach under hubs, so every id past the hubs is a leaf.
        let leaf = rng.range(hubs + 1, tree.len());
        tree.remove_leaf(NodeId::new(leaf))
            .expect("ids past the hubs are leaves");
        push("node_leave", vec![("node", num(leaf as f64))]);
        let node = rng.range(1, tree.len());
        failed = Some(node);
        push("link_fail", vec![("node", num(node as f64))]);
        let doc = rng.range(0, shape.docs);
        push("doc_update", vec![("doc", num(doc as f64))]);
        if round % 3 == 0 {
            let origin = rng.range(hubs + 1, tree.len());
            push(
                "doc_publish",
                vec![
                    ("doc", num((shape.docs + published) as f64)),
                    ("origin", num(origin as f64)),
                    ("rate", num(10.0 * shape.leaf_rate)),
                ],
            );
            published += 1;
        }
        if round % 4 == 0 {
            let theta = if (round / 4) % 2 == 1 {
                0.6
            } else {
                shape.theta
            };
            push(
                "workload_shift",
                vec![("doc_mix", shared_zipf(shape.docs, theta))],
            );
        }
    }
    object(vec![
        ("batched_barriers", Value::Bool(true)),
        ("schedule", Value::Array(schedule)),
    ])
}
