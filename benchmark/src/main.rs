//! The TBMD yardstick. See `benchmark/README.md`.
//!
//! One invocation runs one workload in one pass:
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>`; the last line
//! of standard output is the result object. `--all` runs every workload in
//! child processes of its own and merges the results; `--compare A.json
//! B.json` holds two such merged files against the bounds.

mod metrics;
mod replay;
mod serve;
mod single;
mod spans;
mod stats;
mod sweep;
mod traced;
mod twin;
mod workloads;

use metrics::{RunResult, END_TO_END, PER_LAYER, WORKLOADS};
use spans::Tracer;
use std::process::ExitCode;

/// One correctness gate of a run.
pub struct Gate {
    name: &'static str,
    pass: bool,
    detail: String,
}

impl Gate {
    pub fn check(name: &'static str, pass: bool, detail: String) -> Gate {
        Gate { name, pass, detail }
    }

    /// Print every gate; true when all hold.
    pub fn report(gates: &[Gate]) -> bool {
        for g in gates {
            let verdict = if g.pass { "ok" } else { "FAILED" };
            println!("gate: {} ... {verdict} ({})", g.name, g.detail);
        }
        gates.iter().all(|g| g.pass)
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Hardware threads of the host; reported with every thread-dependent result.
pub fn threads_available() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

const USAGE: &str = "usage:
  tbmd-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
  tbmd-benchmark --all [--seed N] [--seconds S] [--runs R] [--json FILE] [--out DIR]
  tbmd-benchmark --compare PARENT.json CHANGE.json";

enum Mode {
    One { workload: String, trace: bool },
    All { runs: usize, json: Option<String> },
    Compare { parent: String, change: String },
}

struct Args {
    mode: Mode,
    seed: u64,
    seconds: f64,
    /// Where the traced run writes its spans.
    out: String,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut trace, mut all, mut runs, mut json) = (None, false, false, 5, None);
    let mut compare = None;
    let (mut seed, mut seconds, mut out) = (42, 10.0, String::from("benchmark/out"));
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err("--seconds must lie in (0, 60]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => out = value()?,
            "--all" => all = true,
            "--runs" => {
                runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?;
                if runs == 0 {
                    return Err("--runs must be at least 1".into());
                }
            }
            "--json" => json = Some(value()?),
            "--compare" => compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    let mode = match (workload, all, compare) {
        (Some(workload), false, None) => {
            if !WORKLOADS.iter().any(|w| w.name == workload) {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                return Err(format!(
                    "--workload must be one of {names:?}, not {workload:?}"
                ));
            }
            Mode::One { workload, trace }
        }
        (None, true, None) => Mode::All { runs, json },
        (None, false, Some((parent, change))) => Mode::Compare { parent, change },
        _ => return Err(format!("give one of --workload, --all, --compare\n{USAGE}")),
    };
    Ok(Args {
        mode,
        seed,
        seconds,
        out,
    })
}

/// Run one workload in one pass; a traced run also writes its spans.
fn run_one(workload: &str, trace: bool, args: &Args) -> Result<RunResult, String> {
    let threads = threads_available();
    println!(
        "workload {workload} seed {} seconds {} trace {} ({threads} hardware threads)",
        args.seed, args.seconds, trace as u8
    );
    if threads < workloads::WIDTH {
        println!(
            "note: fewer than {} hardware threads; wall-clock readings of the width-2 workloads \
             are not comparable with the reference host, counts are",
            workloads::WIDTH
        );
    }
    let spec = workloads::single(workload);
    if !trace {
        return match spec {
            Some(spec) => single::run_untraced(spec, args.seed, args.seconds),
            None => serve::run_untraced(args.seed, args.seconds),
        };
    }
    let tracer = Tracer::new();
    let result = match spec {
        Some(spec) => traced::run_single(spec, args.seed, args.seconds, &tracer),
        None => traced::run_serve(args.seed, args.seconds, &tracer),
    };
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out))?;
    let path = format!("{}/spans-{workload}-seed{}.json", args.out, args.seed);
    std::fs::write(&path, tracer.to_json().to_compact() + "\n")
        .map_err(|e| format!("{path}: {e}"))?;
    println!("wrote {} spans to {path}", tracer.len());
    result
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("tbmd-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match &args.mode {
        Mode::One { workload, trace } => run_one(workload, *trace, &args).map(|result| {
            let defs = if *trace {
                &PER_LAYER[..]
            } else {
                &END_TO_END[..]
            };
            for def in defs {
                let value = result.values.get(def.name).unwrap_or(0.0);
                println!("{:<36} {:>16.6} {}", def.name, value, def.unit);
            }
            println!(
                "attempted {} failed {} correct {}",
                result.attempted, result.failed, result.correct
            );
            println!("{}", result.to_json(defs).to_compact());
            result.correct
        }),
        Mode::All { runs, json } => sweep::run_all(&sweep::SweepArgs {
            seed: args.seed,
            seconds: args.seconds,
            runs: *runs,
            json: json.clone(),
            out: args.out.clone(),
        }),
        Mode::Compare { parent, change } => sweep::compare(parent, change),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("tbmd-benchmark: {e}");
            ExitCode::from(1)
        }
    }
}
