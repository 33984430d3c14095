//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload of the faultline benchmark and prints every metric
//! by name with its unit, then, as the last line, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` they are the
//! per-layer ones, and the last pass's spans are written under
//! `.perfbench_out/`. A failed correctness check prints no result and
//! exits with status 1. Run it from the repository root (see
//! `perfbench/README.md`).

use perfbench::workloads::{self, Metric, Options, Outcome, Workload};
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

/// Command-line arguments.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or(format!(
                    "unknown workload {value:?} (have {})",
                    Workload::ALL.map(Workload::name).join(", ")
                ))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!(
                        "--seconds must be a non-negative number, got {value}"
                    ));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
    })
}

/// Removes the run's scratch directory however the run ends.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
        // The shared parent goes too once no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = fs::remove_dir(parent);
        }
    }
}

fn worker_bin() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current executable: {e}"))?;
    let bin = exe.with_file_name(format!(
        "perfbench-shard-worker{}",
        std::env::consts::EXE_SUFFIX
    ));
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("shard worker not built: {}", bin.display()))
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    let scratch =
        ScratchDir(PathBuf::from(".perfbench_tmp").join(format!("run-{}", std::process::id())));
    fs::create_dir_all(&scratch.0).map_err(|e| format!("{}: {e}", scratch.0.display()))?;
    let trace_out = if args.trace {
        let dir = PathBuf::from(".perfbench_out");
        fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Some(dir.join(format!(
            "trace-{}-seed{}.tsv",
            args.workload.name(),
            args.seed
        )))
    } else {
        None
    };
    let opts = Options {
        seconds: args.seconds,
        trace: args.trace,
        scratch: scratch.0.clone(),
        worker_bin: match args.workload {
            Workload::WideCluster => worker_bin()?,
            _ => PathBuf::new(),
        },
        trace_out,
    };
    workloads::run(args.workload, &args.workload.params(args.seed), &opts)
}

fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{:?}: {{\"value\": {}, \"unit\": {:?}}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &outcome.notes {
        println!("# {note}");
    }
    for m in outcome.end_to_end.iter().chain(&outcome.per_layer) {
        println!("{:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let reported = if args.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    if reported.iter().any(|m| !m.value.is_finite()) {
        eprintln!("perfbench: a metric is not a finite number");
        return ExitCode::FAILURE;
    }
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        metrics_json(reported)
    );
    ExitCode::SUCCESS
}
