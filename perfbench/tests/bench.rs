//! Tests of the benchmark itself: the generator is deterministic, its
//! churn is valid when it fires, and every named metric is emitted.
//!
//! These run the real workloads; build them optimised:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::time::Duration;
use ww_perfbench::endtoend::{self, Budget};
use ww_perfbench::layers;
use ww_perfbench::measure::Bench;
use ww_perfbench::metrics::{MetricDef, END_TO_END, PER_LAYER};
use ww_perfbench::output;
use ww_perfbench::workload::{Workload, DEFAULT_SEED, HELD_OUT_SEED};
use ww_scenario::{Runner, ScenarioSpec};
use ww_telemetry::Level;

const ONE_RUN: Budget = Budget {
    seconds: Duration::ZERO,
    min_runs: 1,
};

#[test]
fn generator_is_deterministic_for_a_seed() {
    for w in Workload::ALL {
        for level in [Level::Off, Level::Full] {
            assert_eq!(
                w.spec_json(DEFAULT_SEED, level),
                w.spec_json(DEFAULT_SEED, level)
            );
        }
        assert_eq!(
            w.reference_json(HELD_OUT_SEED),
            w.reference_json(HELD_OUT_SEED)
        );
        assert_ne!(
            w.spec_json(DEFAULT_SEED, Level::Off),
            w.spec_json(HELD_OUT_SEED, Level::Off),
            "{}: the seed must reach the spec",
            w.name()
        );
        let spec = ScenarioSpec::from_json(&w.spec_json(DEFAULT_SEED, Level::Off))
            .expect("generated specs parse");
        assert_eq!(spec.seed, DEFAULT_SEED);
        assert_eq!(spec.engine.kind(), w.shape().engine.spec_kind());
        // The reference differs from the workload's spec only in its
        // engine.
        let reference = ScenarioSpec::from_json(&w.reference_json(DEFAULT_SEED))
            .expect("reference specs parse");
        assert_eq!(reference.engine.kind(), "packet_sim");
        assert_eq!(reference.events, spec.events);
        assert_eq!(reference.topology, spec.topology);
    }
    let schedule = |seed| {
        ScenarioSpec::from_json(&Workload::ChurnSeq.spec_json(seed, Level::Off))
            .expect("parses")
            .events
            .expect("churn workloads carry events")
            .schedule
    };
    assert_ne!(schedule(DEFAULT_SEED), schedule(HELD_OUT_SEED));
}

#[test]
fn churn_is_valid_at_fire_time() {
    for w in [Workload::ChurnSeq, Workload::ChurnDist] {
        let spec = ScenarioSpec::from_json(&w.reference_json(DEFAULT_SEED)).expect("parses");
        let scheduled = spec.events.as_ref().expect("churn").schedule.len();
        let kinds: std::collections::BTreeSet<&str> = spec
            .events
            .as_ref()
            .expect("churn")
            .schedule
            .iter()
            .map(|e| e.kind.kind())
            .collect();
        assert_eq!(kinds.len(), 7, "{}: every event kind appears", w.name());
        let report = Runner::new().run(&spec).expect("the churn run succeeds");
        let markers = &report.rows[0].events;
        assert_eq!(markers.len(), scheduled, "{}: every event fires", w.name());
        let rejected: Vec<_> = markers.iter().filter(|m| !m.accepted()).collect();
        assert!(rejected.is_empty(), "{}: rejected {rejected:?}", w.name());
    }
}

fn assert_emits(defs: &[MetricDef], outcome: &endtoend::Outcome, workload: &str) {
    let names: Vec<&str> = outcome.samples.iter().map(|(n, _)| *n).collect();
    let want: Vec<&str> = defs.iter().map(|d| d.name).collect();
    assert_eq!(names, want, "{workload}");
    for (name, values) in &outcome.samples {
        assert!(!values.is_empty(), "{workload}: {name} has no sample");
        assert!(
            values.iter().all(|v| v.is_finite()),
            "{workload}: {name} = {values:?}"
        );
    }
    assert_eq!(outcome.tally.failed, 0, "{workload}");
    assert!(output::correct(outcome), "{workload}");
    let line = output::result_line(outcome);
    for name in want {
        assert!(
            line.contains(&format!("\"{name}\":{{\"value\":")),
            "{workload}: {line}"
        );
    }
}

#[test]
fn every_named_metric_is_emitted_for_each_workload() {
    for w in Workload::ALL {
        let bench = Bench::new(w, DEFAULT_SEED).expect("reference run");
        let exe = std::path::Path::new(env!("CARGO_BIN_EXE_ww-perfbench"));
        let e2e = endtoend::measure(&bench, exe, ONE_RUN);
        assert_emits(END_TO_END, &e2e, w.name());
        for (name, values) in &e2e.samples {
            assert!(
                values.iter().all(|v| *v > 0.0),
                "{}: {name} must not be 0",
                w.name()
            );
        }

        let traced = layers::measure(&bench, ONE_RUN);
        assert_emits(PER_LAYER, &traced.outcome, w.name());
        let value = |name: &str| {
            traced
                .outcome
                .samples
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| v[0])
                .expect("emitted")
        };
        let dist_layer: Vec<f64> = PER_LAYER
            .iter()
            .filter(|d| d.name.starts_with("dist."))
            .map(|d| value(d.name))
            .collect();
        match w {
            Workload::ChurnDist => {
                assert!(value("dist.bytes_sent") > 0.0);
                assert!(value("dist.epoch_rtt_ms.mean") > 0.0);
            }
            _ => assert!(dist_layer.iter().all(|v| *v == 0.0), "{}", w.name()),
        }
        if w == Workload::CdnSteady {
            assert_eq!(value("core.surgery.removed"), 0.0);
            assert_eq!(value("scenario.event_apply_ms.max"), 0.0);
            assert!(value("pdes.events.popped") > 0.0);
        } else {
            assert!(value("scenario.event_apply_ms.max") > 0.0, "{}", w.name());
        }
        assert!(value("core.packet.served_requests") > 0.0);
        assert!(!traced.spans.all().is_empty());
    }
}

/// `BENCHMARK.json` at the repository root names exactly the metrics
/// this crate emits, with the same units and directions.
#[test]
fn benchmark_json_matches_the_metric_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json exists");
    let doc = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let doc = doc.as_object().expect("an object");
    for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed = doc.get(key).and_then(|v| v.as_array()).expect(key);
        assert_eq!(listed.len(), defs.len(), "{key}");
        for (entry, def) in listed.iter().zip(defs) {
            let entry = entry.as_object().expect("metric entries are objects");
            let field = |k: &str| entry.get(k).and_then(|v| v.as_str()).expect(k);
            assert_eq!(field("name"), def.name, "{key}");
            assert_eq!(field("unit"), def.unit, "{}", def.name);
            assert_eq!(field("better"), def.better.as_str(), "{}", def.name);
        }
    }
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(|v| v.as_array())
        .expect("workloads")
        .iter()
        .map(|w| {
            w.as_object()
                .and_then(|o| o.get("name"))
                .and_then(|n| n.as_str())
                .expect("name")
        })
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}
