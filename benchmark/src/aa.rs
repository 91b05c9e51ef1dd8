//! A/A mode: the same code measured as if it were two versions. Whole runs
//! (fresh processes, one seed per run index) alternate between the sets;
//! for every workload x end-to-end metric the table shows each set's median
//! and quartiles, and the run fails when a metric's spread or the gap
//! between two sets' medians is beyond the metric's own bound - the test a
//! benchmark must pass before its numbers may judge a change.

use std::process::Command;

use serde_json::Value as Json;

use crate::ops::Workload;
use crate::spec::{Better, END_TO_END};

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the "exclusive" method), which is what the driver uses.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let m = data.len();
    let mut out = [0.0; 3];
    if m < 2 {
        return [data.first().copied().unwrap_or(0.0); 3];
    }
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *q = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

fn one_run(workload: Workload, seed: u64, seconds: f64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload.name(), "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .output()
        .map_err(|e| format!("spawning a run: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{} seed {seed} exited with {}: {}",
            workload.name(),
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or("a run printed nothing")?;
    let doc: Json = serde_json::from_str(line).map_err(|e| format!("result line: {e}"))?;
    if doc.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!(
            "{} seed {seed} was not correct: {line}",
            workload.name()
        ));
    }
    END_TO_END
        .iter()
        .map(|m| {
            doc.get("metrics")
                .and_then(|all| all.get(m.name))
                .and_then(|one| one.get("value"))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("result line lacks {}", m.name))
        })
        .collect()
}

/// Runs `sets` x `runs` passes of every workload. `Ok(false)` on a breach.
pub fn run(sets: usize, runs: usize, seconds: f64) -> Result<bool, String> {
    let mut held = true;
    println!(
        "| workload | metric | bound | set | median | q1 | q3 | spread | gap vs set 0 | verdict |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|");
    for workload in Workload::ALL {
        // samples[set][metric][run]
        let mut samples = vec![vec![Vec::with_capacity(runs); END_TO_END.len()]; sets];
        for run in 0..runs {
            for k in 0..sets {
                // Alternate which set goes first, so drift hits both alike.
                let set = if run % 2 == 0 { k } else { sets - 1 - k };
                eprintln!("{} run {run} set {set}", workload.name());
                let values = one_run(workload, 1 + run as u64, seconds)?;
                for (metric, v) in values.into_iter().enumerate() {
                    samples[set][metric].push(v);
                }
            }
        }
        for (metric, spec) in END_TO_END.iter().enumerate() {
            let base = quartiles(&samples[0][metric])[1];
            for (set, per_metric) in samples.iter().enumerate() {
                let [q1, median, q3] = quartiles(&per_metric[metric]);
                let spread = (q3 - q1) / median;
                let worse = match spec.better {
                    Better::Lower => (median - base) / base,
                    Better::Higher => (base - median) / base,
                };
                // The set-up time's spread is not gated, only its medians.
                let spread_ok = spec.name == "setup_s" || spread <= spec.bound;
                let ok = spread_ok && worse <= spec.bound;
                held &= ok;
                println!(
                    "| {} | {} | {} | {set} | {median:.4} | {q1:.4} | {q3:.4} | {:.2}% | {:+.2}% | {} |",
                    workload.name(),
                    spec.name,
                    spec.bound,
                    spread * 100.0,
                    worse * 100.0,
                    if ok { "ok" } else { "BREACH" }
                );
            }
        }
    }
    println!(
        "{}",
        if held {
            "A/A held: every metric within its bound"
        } else {
            "A/A BREACHED"
        }
    );
    Ok(held)
}

#[cfg(test)]
mod tests {
    use super::quartiles;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }
}
