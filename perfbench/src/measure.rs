//! Running a workload through the public `ScenarioSpec::from_json` →
//! `Runner` path, and the host-side measurements around it.

use crate::check::{Digest, Tally};
use crate::trace::Stamps;
use crate::workload::Workload;
use std::time::{Duration, Instant};
use ww_dist::{DistMode, DistOptions};
use ww_scenario::{NullObserver, Observer, Runner, ScenarioReport, ScenarioSpec};
use ww_telemetry::Level;

/// A workload's generated specs, the runner that drives them, and the
/// sequential reference every run is checked against.
pub struct Bench {
    /// The workload.
    pub workload: Workload,
    /// The seed its specs were generated from.
    pub seed: u64,
    runner: Runner,
    plain: String,
    traced: String,
    reference: u64,
    /// Wall clock of the (untimed, first) sequential reference run;
    /// zero when the reference was handed in.
    pub reference_wall: Duration,
}

/// One finished run.
pub struct Run {
    /// The runner's report.
    pub report: ScenarioReport,
    /// Spec → report: `from_json` plus `Runner::run_with`.
    pub wall: Duration,
    /// When `from_json` started.
    pub start: Instant,
    /// When `Runner::run_with` started.
    pub run_with_start: Instant,
    /// When `Runner::run_with` returned.
    pub end: Instant,
    /// Attempted and failed operations of the run.
    pub tally: Tally,
}

/// The set-up half of a run, timed on its own: spec parsing, then
/// engine resolution (tree, rates, doc mix, engine build, oracle,
/// partition, worker launch and handshake).
#[derive(Debug, Clone, Copy)]
pub struct Setup {
    /// When `from_json` started.
    pub start: Instant,
    /// When `Runner::resolve` started.
    pub resolve_start: Instant,
    /// When `Runner::resolve` returned.
    pub end: Instant,
    /// When the resolved engine was dropped (workers shut down).
    pub dropped: Instant,
}

impl Run {
    /// The run's own set-up: `from_json` plus the runner's resolution
    /// of the spec, up to the drive loop's first callback (`None` when
    /// the runner never reached its drive loop).
    pub fn setup(&self, stamps: &Stamps) -> Option<Duration> {
        stamps.drive_start().map(|t| t - self.start)
    }
}

impl Bench {
    /// Generates the workload's specs for `seed` and runs the
    /// sequential reference once, untimed.
    ///
    /// # Errors
    ///
    /// A message when a generated spec does not parse or the reference
    /// run fails.
    pub fn new(workload: Workload, seed: u64) -> Result<Bench, String> {
        let spec = parse(&workload.reference_json(seed))?;
        let start = Instant::now();
        let report = Runner::new()
            .run(&spec)
            .map_err(|e| format!("reference run failed: {e}"))?;
        let reference_wall = start.elapsed();
        let mut bench = Bench::with_reference(workload, seed, Digest::of(&report).fingerprint());
        bench.reference_wall = reference_wall;
        Ok(bench)
    }

    /// The workload's specs for `seed`, checked against a reference
    /// fingerprint computed elsewhere (no reference run).
    pub fn with_reference(workload: Workload, seed: u64, reference: u64) -> Bench {
        Bench {
            workload,
            seed,
            runner: Runner::new().dist_options(DistOptions {
                mode: DistMode::Threads,
                ..DistOptions::default()
            }),
            plain: workload.spec_json(seed, Level::Off),
            traced: workload.spec_json(seed, Level::Full),
            reference,
            reference_wall: Duration::ZERO,
        }
    }

    /// Fingerprint of the sequential reference report.
    pub fn reference(&self) -> u64 {
        self.reference
    }

    fn text(&self, level: Level) -> &str {
        match level {
            Level::Off => &self.plain,
            _ => &self.traced,
        }
    }

    /// Times `from_json` + `Runner::resolve`, then drops the engine
    /// outside the timed interval.
    ///
    /// # Errors
    ///
    /// A message when parsing or resolution fails.
    pub fn setup(&self, level: Level) -> Result<Setup, String> {
        let start = Instant::now();
        let spec = parse(self.text(level))?;
        let resolve_start = Instant::now();
        let engine = self
            .runner
            .resolve(&spec)
            .map_err(|e| format!("resolve failed: {e}"))?;
        let end = Instant::now();
        drop(std::hint::black_box(engine));
        Ok(Setup {
            start,
            resolve_start,
            end,
            dropped: Instant::now(),
        })
    }

    /// Runs the spec once, spec text → report, and checks the report
    /// against the reference.
    ///
    /// # Errors
    ///
    /// A message when parsing or the run fails.
    pub fn run(&self, level: Level, observer: &mut dyn Observer) -> Result<Run, String> {
        let start = Instant::now();
        let spec = parse(self.text(level))?;
        let run_with_start = Instant::now();
        let report = self
            .runner
            .run_with(&spec, observer)
            .map_err(|e| format!("run failed: {e}"))?;
        let end = Instant::now();
        let tally = Tally::of_run(&report, self.reference);
        Ok(Run {
            report,
            wall: end - start,
            start,
            run_with_start,
            end,
            tally,
        })
    }

    /// [`Bench::run`] with no observer, counting an error as a failed
    /// run.
    pub fn run_plain(&self, tally: &mut Tally) -> Option<Run> {
        match self.run(Level::Off, &mut NullObserver) {
            Ok(run) => {
                tally.add(run.tally);
                Some(run)
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                tally.add(Tally::errored());
                None
            }
        }
    }
}

fn parse(text: &str) -> Result<ScenarioSpec, String> {
    ScenarioSpec::from_json(text).map_err(|e| format!("generated spec rejected: {e}"))
}

/// Restricts the calling thread to the lowest-numbered core it may run
/// on, and returns that core. Threads and child processes it starts
/// later inherit the restriction, so called first thing in `main` it
/// restricts the whole process tree.
///
/// # Errors
///
/// A message when the kernel refuses.
#[cfg(target_os = "linux")]
pub fn pin_to_one_core() -> Result<usize, String> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // The C library's `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of exactly `size` bytes, and
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error().to_string());
    }
    let (word, bits) = mask
        .iter()
        .enumerate()
        .find(|(_, bits)| **bits != 0)
        .ok_or("no core is allowed")?;
    let bit = bits.trailing_zeros();
    let mut one = [0u64; 16];
    one[word] = 1 << bit;
    // SAFETY: `one` is a readable buffer of exactly `size` bytes, and
    // pid 0 names the calling thread.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error().to_string());
    }
    Ok(word * 64 + bit as usize)
}

/// Restricts this process to one core: not supported off Linux.
///
/// # Errors
///
/// Always.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_core() -> Result<usize, String> {
    Err("only supported on Linux".to_string())
}

/// Peak resident set, read from `/proc/self/status`.
pub mod rss {
    /// Resets the kernel's high-water mark of this process's resident
    /// set to its current size. Best effort: where the kernel refuses,
    /// the peak covers the (short-lived) process's whole life.
    pub fn reset_peak() {
        let _ = std::fs::write("/proc/self/clear_refs", "5");
    }

    /// The high-water mark of the resident set since the last reset, in
    /// MiB (`None` where `/proc` is unavailable).
    pub fn peak_mb() -> Option<f64> {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb / 1024.0)
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    #[test]
    fn pinning_leaves_one_core_to_the_thread_and_its_children() {
        // A thread of its own, so the test runner's threads keep their cores.
        std::thread::spawn(|| {
            let core = super::pin_to_one_core().expect("the kernel allows pinning");
            let child = std::thread::spawn(|| std::thread::available_parallelism().unwrap().get());
            assert_eq!(child.join().unwrap(), 1);
            assert_eq!(super::pin_to_one_core(), Ok(core));
        })
        .join()
        .unwrap();
    }
}
