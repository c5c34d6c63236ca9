//! Every workload in one command, and the A/A comparison of two such sets.
//!
//! Each run is a child process of this same program, so `peak_rss_mb` is one
//! workload's and no run inherits another's allocator state.

use crate::metrics::{value_in, Metric, END_TO_END, EXACT, PER_LAYER};
use crate::workload::SPECS;
use std::process::Command;

/// The result line of one run, or `None` if it failed.
fn child(workload: &str, seed: u64, seconds: usize, trace: bool) -> Option<String> {
    let exe = std::env::current_exe().expect("the running program has a path");
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .output()
        .expect("start a run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for line in stdout.lines().filter(|l| l.starts_with('#')) {
        println!("{line}");
    }
    if !out.status.success() {
        println!(
            "{workload}: run FAILED\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        return None;
    }
    stdout.lines().last().map(str::to_string)
}

fn print(workload: &str, table: &[Metric], line: &str) {
    for m in table {
        let v = value_in(line, m.name).unwrap_or("missing");
        println!("{workload:<10} {:<36} {v:>22} {}", m.name, m.unit);
    }
}

/// (untraced, traced) result lines per workload.
fn one_set(seed: u64, seconds: usize) -> Option<Vec<(String, String)>> {
    let mut set = Vec::new();
    for spec in &SPECS {
        let untraced = child(spec.name, seed, seconds, false)?;
        print(spec.name, &END_TO_END, &untraced);
        let traced = child(spec.name, seed, seconds, true)?;
        print(spec.name, &PER_LAYER, &traced);
        set.push((untraced, traced));
    }
    Some(set)
}

fn number(line: &str, name: &str) -> f64 {
    value_in(line, name)
        .and_then(|v| v.parse().ok())
        .unwrap_or(f64::NAN)
}

/// How much worse `b` is than `a`, as a share of `a`.
pub fn worsening(m: &Metric, a: f64, b: f64) -> f64 {
    if m.better == "lower" {
        (b - a) / a
    } else {
        (a - b) / a
    }
}

/// Exit code: 0 when every run was correct and, with `aa`, two sets of runs
/// of this one build agree within each metric's bound.
pub fn run(seed: u64, seconds: usize, aa: bool) -> i32 {
    let Some(first) = one_set(seed, seconds) else {
        return 1;
    };
    if !aa {
        return 0;
    }
    let Some(second) = one_set(seed, seconds) else {
        return 1;
    };
    let mut code = 0;
    println!("\nA/A: two sets of runs, same build, seed {seed}");
    for (spec, (a, b)) in SPECS.iter().zip(first.iter().zip(&second)) {
        for m in &END_TO_END {
            let (x, y) = (number(&a.0, m.name), number(&b.0, m.name));
            // either order may be the worse one
            let diff = worsening(m, x, y).max(worsening(m, y, x));
            // NaN must fail
            let ok = diff <= m.bound;
            println!(
                "{:<10} {:<20} {x:>14.3} {y:>14.3}  {:>6.2}% of {:>4.0}% {}",
                spec.name,
                m.name,
                diff * 100.0,
                m.bound * 100.0,
                if ok { "ok" } else { "EXCEEDS" }
            );
            if !ok {
                code = 1;
            }
        }
        for name in EXACT {
            let (x, y) = (value_in(&a.1, name), value_in(&b.1, name));
            if x != y || x.is_none() {
                println!("{:<10} {name}: {x:?} then {y:?} DIFFERS", spec.name);
                code = 1;
            }
        }
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        let latency = &END_TO_END[2];
        let throughput = &END_TO_END[1];
        assert_eq!((latency.better, throughput.better), ("lower", "higher"));
        assert!((worsening(latency, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!(worsening(latency, 100.0, 90.0) < 0.0);
        assert!((worsening(throughput, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!(worsening(throughput, 100.0, 110.0) < 0.0);
    }
}
