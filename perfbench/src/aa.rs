//! `pdx-bench aa`: the A/A check. Two interleaved sets (A B A B …) of
//! every workload from this one binary; for each (metric, workload) both
//! medians, each set's quartiles and relative spread, the difference
//! and the bound. Run `i` of either set uses seed `base + i`, so the
//! spread includes what a change of seed does — as the driver's does.
//!
//! Verdicts, the same rule for every metric: `EXCEEDS` when the medians
//! differ by more than the bound (the two sets disagree: exit code 1),
//! `unresolved` when they agree but a set's own spread is wider than the
//! bound (at this number of runs the bound cannot tell a regression from
//! noise on that pair), `ok` otherwise.

use crate::report::{END_TO_END, WORKLOADS};
use crate::stats::{quartiles, relative_spread};
use crate::Args;
use std::process::Command;

/// The value of one metric in a run's final JSON line.
fn metric_value(json: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &json[json.find(&key)? + key.len()..];
    rest[..rest.find(',')?].trim().parse().ok()
}

/// One child run; `None` when it failed or reported itself incorrect.
fn child_run(args: &Args, workload: &str, seed: u64) -> std::io::Result<Option<String>> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.args(["run", "--workload", workload])
        .args(["--seed", &seed.to_string()]);
    if args.quick {
        cmd.arg("--quick");
    }
    let output = cmd.output()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default().to_string();
    Ok((output.status.success() && last.contains("\"correct\": true")).then_some(last))
}

pub fn run(args: &Args) -> std::io::Result<bool> {
    let runs = args.runs.max(2);
    let workloads: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let (mut ok, mut unresolved) = (true, 0);
    println!(
        "{:<13} {:<22} {:>12} {:>12} {:>8} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "iqr A", "iqr B", "diff", "bound"
    );
    for workload in workloads {
        // sets[0] = A, sets[1] = B; one JSON line per run.
        let mut sets: [Vec<String>; 2] = [Vec::new(), Vec::new()];
        for i in 0..runs {
            for set in &mut sets {
                match child_run(args, workload, args.seed + i as u64)? {
                    Some(line) => set.push(line),
                    None => {
                        println!(
                            "{workload}: a run with seed {} failed",
                            args.seed + i as u64
                        );
                        ok = false;
                    }
                }
            }
        }
        if sets.iter().any(|s| s.len() < 2) {
            continue;
        }
        for (name, _, higher, bound) in END_TO_END {
            let values = |set: &[String]| -> Vec<f64> {
                set.iter().filter_map(|l| metric_value(l, name)).collect()
            };
            let (a, b) = (values(&sets[0]), values(&sets[1]));
            let (ma, mb) = (quartiles(&a)[1], quartiles(&b)[1]);
            // Positive = B is worse than A.
            let diff = if higher {
                (ma - mb) / ma
            } else {
                (mb - ma) / ma
            };
            let (sa, sb) = (relative_spread(&a), relative_spread(&b));
            let verdict = if diff.abs() > bound {
                ok = false;
                "EXCEEDS"
            } else if sa.max(sb) > bound {
                unresolved += 1;
                "unresolved"
            } else {
                "ok"
            };
            println!(
                "{workload:<13} {name:<22} {ma:>12.4} {mb:>12.4} {:>7.2}% {:>7.2}% {:>+7.2}% {:>6.1}%  {verdict}",
                sa * 100.0,
                sb * 100.0,
                diff * 100.0,
                bound * 100.0,
            );
        }
    }
    println!(
        "A/A {}; {unresolved} pair(s) unresolved",
        if ok { "within bounds" } else { "OUT OF BOUNDS" }
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_values_are_read_from_the_json_line() {
        let line = "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \"batch_qps\": {\"value\": 1500, \"unit\": \"1/s\"}}}";
        assert_eq!(metric_value(line, "setup_s"), Some(0.8127));
        assert_eq!(metric_value(line, "batch_qps"), Some(1500.0));
        assert_eq!(metric_value(line, "query_p50_us"), None);
    }
}
