//! # ww-perfbench — the repository's benchmark
//!
//! One command runs a packet-engine workload through the public
//! `ScenarioSpec::from_json` → `Runner` path, checks every report
//! against the sequential engine bit for bit, and prints the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics of a
//! traced run (`--trace 1`). See `README.md` next to this crate for
//! the workloads, the metrics and what each layer metric should move.

pub mod check;
pub mod endtoend;
pub mod layers;
pub mod measure;
pub mod metrics;
pub mod output;
pub mod stats;
pub mod trace;
pub mod workload;
