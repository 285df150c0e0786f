//! `--all`: every workload, each run in a child process of its own, merged
//! into one JSON document; `--compare`: two such documents held against the
//! bounds of the end-to-end metrics.

use crate::metrics::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats;
use crate::threads_available;
use std::process::Command;
use tbmd::trace::JsonValue;

pub struct SweepArgs {
    pub seed: u64,
    pub seconds: f64,
    pub runs: usize,
    pub json: Option<String>,
    pub out: String,
}

/// Run this executable again for one workload and pass; echo what it prints
/// and return its result object (the last line of its standard output).
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: &str,
) -> Result<JsonValue, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--out", out])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    for line in stdout.lines() {
        if !line.starts_with('{') {
            println!("    {line}");
        }
    }
    let last = stdout.lines().last().unwrap_or_default();
    let result = JsonValue::parse(last).map_err(|e| {
        format!(
            "{workload}: no result line ({e}); stderr: {}",
            String::from_utf8_lossy(&output.stderr).trim()
        )
    })?;
    if !output.status.success() {
        println!("    run exited with {}", output.status);
    }
    Ok(result)
}

fn metric_value(result: &JsonValue, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Run every workload `runs` times untraced (seeds `seed`, `seed+1`, …) and
/// once traced, print every metric by name and unit, and write the merged
/// document. Returns whether every run was correct.
pub fn run_all(args: &SweepArgs) -> Result<bool, String> {
    let mut all_correct = true;
    let mut workloads = JsonValue::object();
    for w in &WORKLOADS {
        println!("== {} — {}", w.name, w.why);
        let mut correct = true;
        let mut attempted = Vec::new();
        let mut failed = Vec::new();
        let mut series: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        for run in 0..args.runs {
            println!("  untraced run {} of {}", run + 1, args.runs);
            let r = child(
                w.name,
                args.seed + run as u64,
                args.seconds,
                false,
                &args.out,
            )?;
            correct &= r.get("correct").and_then(JsonValue::as_bool) == Some(true);
            attempted.push(r.get("attempted").cloned().unwrap_or(JsonValue::Null));
            failed.push(r.get("failed").cloned().unwrap_or(JsonValue::Null));
            for (def, values) in END_TO_END.iter().zip(&mut series) {
                values.push(
                    metric_value(&r, def.name)
                        .ok_or_else(|| format!("{}: run lacks {}", w.name, def.name))?,
                );
            }
        }
        println!("  traced run");
        let traced = child(w.name, args.seed, args.seconds, true, &args.out)?;
        correct &= traced.get("correct").and_then(JsonValue::as_bool) == Some(true);
        all_correct &= correct;

        println!(
            "  {:<26} {:>14} {:<6} {:>9}  n",
            "end-to-end", "median", "unit", "iqr/med"
        );
        let mut end_to_end = JsonValue::object();
        for (def, values) in END_TO_END.iter().zip(&series) {
            println!(
                "  {:<26} {:>14.5} {:<6} {:>8.2}%  {}",
                def.name,
                stats::median(values),
                def.unit,
                stats::iqr_share(values) * 100.0,
                values.len()
            );
            let mut m = JsonValue::object();
            m.set("unit", def.unit).set(
                "values",
                values
                    .iter()
                    .map(|&v| JsonValue::from(v))
                    .collect::<Vec<_>>(),
            );
            end_to_end.set(def.name, m);
        }
        println!("  {:<36} {:>16} unit", "per-layer", "value");
        let mut per_layer = JsonValue::object();
        for def in &PER_LAYER {
            let value = metric_value(&traced, def.name)
                .ok_or_else(|| format!("{}: traced run lacks {}", w.name, def.name))?;
            println!("  {:<36} {:>16.6} {}", def.name, value, def.unit);
            let mut m = JsonValue::object();
            m.set("unit", def.unit).set("value", value);
            per_layer.set(def.name, m);
        }
        let mut entry = JsonValue::object();
        entry
            .set("correct", correct)
            .set("attempted", attempted)
            .set("failed", failed)
            .set("end_to_end", end_to_end)
            .set("per_layer", per_layer);
        workloads.set(w.name, entry);
    }
    let mut doc = JsonValue::object();
    doc.set("seed", args.seed)
        .set("seconds", args.seconds)
        .set("runs", args.runs)
        .set("threads_available", threads_available())
        .set("workloads", workloads);
    if let Some(path) = &args.json {
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, doc.to_compact() + "\n").map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(all_correct)
}

/// How one workload × end-to-end metric of the change reads against the
/// parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread is wider than the bound, so the medians settle
    /// nothing either way.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By what share of the parent's median the change's median is worse.
pub fn worsening(parent: &[f64], change: &[f64], better: Better) -> f64 {
    let (a, b) = (stats::median(parent), stats::median(change));
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// The comparison rule: a spread wider than the bound leaves the metric
/// unresolved unless every run of the change reads better than every run of
/// the parent; otherwise the change regressed if its median is worse than
/// the parent's by more than the bound.
pub fn verdict(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    let spread = stats::iqr_share(parent).max(stats::iqr_share(change));
    if spread > bound {
        let all_better = parent.iter().all(|&a| {
            change.iter().all(|&b| match better {
                Better::Lower => b < a,
                Better::Higher => b > a,
            })
        });
        if all_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        }
    } else if worsening(parent, change, better) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn series(doc: &JsonValue, workload: &str, metric: &str) -> Result<Vec<f64>, String> {
    doc.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("end_to_end"))
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("values"))
        .and_then(JsonValue::as_array)
        .map(|vs| {
            vs.iter()
                .filter_map(JsonValue::as_f64)
                .collect::<Vec<f64>>()
        })
        .filter(|vs| !vs.is_empty())
        .ok_or_else(|| format!("no values for {workload} / {metric}"))
}

/// Hold document `b` (the change) against document `a` (the parent). Returns
/// whether no metric regressed.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let load = |path: &str| -> Result<JsonValue, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        JsonValue::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (load(path_a)?, load(path_b)?);
    println!(
        "{:<20} {:<20} {:>13} {:>13} {:>8} {:>7} {:>6}  verdict",
        "workload", "metric", "parent", "change", "worse", "spread", "bound"
    );
    let mut clean = true;
    for w in &WORKLOADS {
        for def in &END_TO_END {
            let (pa, ch) = (series(&a, w.name, def.name)?, series(&b, w.name, def.name)?);
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            let v = verdict(&pa, &ch, def.better, bound);
            clean &= v != Verdict::Regressed;
            println!(
                "{:<20} {:<20} {:>13.5} {:>13.5} {:>7.2}% {:>6.2}% {:>5.0}%  {}",
                w.name,
                def.name,
                stats::median(&pa),
                stats::median(&ch),
                worsening(&pa, &ch, def.better) * 100.0,
                stats::iqr_share(&pa).max(stats::iqr_share(&ch)) * 100.0,
                bound * 100.0,
                v.as_str()
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_follows_the_comparison_rule() {
        let parent = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Within the bound either way.
        let same = [103.0, 102.0, 104.0, 103.5, 102.5];
        assert_eq!(verdict(&parent, &same, Better::Lower, 0.08), Verdict::Ok);
        // 20% slower with tight spreads: regressed, whichever the direction.
        let slow = [120.0, 121.0, 119.0, 120.5, 119.5];
        assert_eq!(
            verdict(&parent, &slow, Better::Lower, 0.08),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&slow, &parent, Better::Higher, 0.08),
            Verdict::Regressed
        );
        assert_eq!(verdict(&parent, &slow, Better::Higher, 0.08), Verdict::Ok);
        // A spread wider than the bound settles nothing…
        let noisy = [90.0, 130.0, 100.0, 140.0, 80.0];
        assert_eq!(
            verdict(&parent, &noisy, Better::Lower, 0.08),
            Verdict::Unresolved
        );
        // …unless every run of the change beats every run of the parent.
        let fast_noisy = [40.0, 70.0, 50.0, 80.0, 45.0];
        assert_eq!(
            verdict(&parent, &fast_noisy, Better::Lower, 0.08),
            Verdict::Ok
        );
        assert!((worsening(&parent, &slow, Better::Lower) - 0.2).abs() < 1e-12);
    }
}
