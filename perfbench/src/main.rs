//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for about `<s>` seconds and prints its metrics,
//! one per line, then the result as one JSON object on the last line.
//! `--trace 0` measures the end-to-end metrics with telemetry off;
//! `--trace 1` measures the per-layer metrics of traced runs and writes
//! their spans as JSONL under `out/` next to this crate. Exits 1 when a
//! report differs from the sequential reference or an event is
//! rejected, and 2 on bad arguments.

use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;
use ww_perfbench::endtoend::{self, Budget};
use ww_perfbench::layers;
use ww_perfbench::measure::{self, Bench};
use ww_perfbench::output::{self, Provenance};
use ww_perfbench::workload::{Workload, DEFAULT_SEED};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Child mode: one run checked against this reference fingerprint.
    child: Option<u64>,
}

const USAGE: &str = "usage: perfbench --workload <cdn_steady|churn_seq|churn_dist> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut child = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got \"{value}\"");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("expected seconds >= 0"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--child" => {
                child = Some(u64::from_str_radix(&value, 16).map_err(|_| bad("expected hex"))?)
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        child,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload.shape().one_core {
        if let Err(e) = measure::pin_to_one_core() {
            eprintln!("perfbench: cannot run on one core, timings will vary more: {e}");
        }
    }
    if let Some(reference) = args.child {
        let bench = Bench::with_reference(args.workload, args.seed, reference);
        return match endtoend::child(&bench) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let bench = match Bench::new(args.workload, args.seed) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let budget = Budget {
        seconds: Duration::from_secs_f64(args.seconds),
        min_runs: if args.trace { 2 } else { 3 },
    };
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let ticks = output::cpu_ticks();
    let outcome = if args.trace {
        let traced = layers::measure(&bench, budget);
        print_self_times(&traced);
        if let Err(e) = write_spans(&out_dir, &stem, &traced) {
            eprintln!("perfbench: cannot write spans: {e}");
        }
        traced.outcome
    } else {
        match std::env::current_exe() {
            Ok(exe) => endtoend::measure(&bench, &exe, budget),
            Err(e) => {
                eprintln!("perfbench: cannot locate this executable: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap_or(Path::new("."));
    let provenance = Provenance {
        workload: args.workload.name(),
        seed: args.seed,
        trace: args.trace,
        seconds: args.seconds,
        commit: output::commit(root),
        reference: bench.reference(),
        steal_pct: output::steal_pct(ticks, output::cpu_ticks()),
    };
    let record = output::record(&provenance, &outcome);
    let written = std::fs::create_dir_all(&out_dir).and_then(|()| {
        std::fs::write(
            out_dir.join(format!("{stem}.json")),
            serde_json::to_string_pretty(&record),
        )
    });
    if let Err(e) = written {
        eprintln!("perfbench: cannot write the result record: {e}");
    }
    println!(
        "workload {} seed {} commit {} cores {} steal {}",
        provenance.workload,
        provenance.seed,
        provenance.commit,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        provenance
            .steal_pct
            .map_or("unknown".to_string(), |p| format!("{p:.1}%"))
    );
    print!("{}", output::table(&outcome));
    println!("{}", output::result_line(&outcome));
    if output::correct(&outcome) {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: a report differed from the sequential reference or an event was rejected"
        );
        ExitCode::FAILURE
    }
}

/// Prints the benchmark-side self time per span name, summed over the
/// traced runs, next to where the `full` snapshot's values appear.
fn print_self_times(traced: &layers::Traced) {
    let mut totals = std::collections::BTreeMap::new();
    for &root in &traced.traced_roots {
        for (name, d) in traced.spans.self_time_by_name(root) {
            *totals.entry(name).or_insert(Duration::ZERO) += d;
        }
    }
    let runs = traced.traced_roots.len().max(1) as f64;
    println!("self time per traced run (benchmark-side spans):");
    for (name, d) in totals {
        println!("  {name:<28} {:>12.6} s", d.as_secs_f64() / runs);
    }
}

fn write_spans(dir: &Path, stem: &str, traced: &layers::Traced) -> std::io::Result<()> {
    use std::io::Write as _;
    std::fs::create_dir_all(dir)?;
    let file = std::fs::File::create(dir.join(format!("{stem}.spans.jsonl")))?;
    let mut w = std::io::BufWriter::new(file);
    traced.spans.write_jsonl(&mut w)?;
    w.flush()
}
