//! The metric tables, the JSON a run prints, and `BENCHMARK.json` itself,
//! which is generated from these tables (`benchmark --manifest`) so that the
//! names a run emits and the names the manifest promises cannot drift apart.

use crate::workload::SPECS;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// A class of operation a workload
/// does not have (reads on `dtxn_wire`, writes on `tpch`, two-phase commits
/// on `ycsb_a` and `tpch`) reports that workload's `latency_p50_us`: a run
/// must print every metric, and none may be 0.
///
/// Every time carries the widest bound a manifest may state: identical runs
/// on the 2-core sandbox differ by 3 to 15% in their quartiles, whatever the
/// statistic, because the machine itself changes speed for tens of seconds
/// (see `stats`). Memory does not, and keeps 10%.
pub const END_TO_END: [Metric; 8] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("throughput_ops_s", "1/s", "higher", 0.25),
    e2e("latency_p50_us", "us", "lower", 0.25),
    e2e("latency_tail_us", "us", "lower", 0.25),
    e2e("read_p50_us", "us", "lower", 0.25),
    e2e("write_p50_us", "us", "lower", 0.25),
    e2e("dist_txn_p50_us", "us", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.1),
];

/// The layer is the module name. A quantity only some workloads have is a share, a rate or a count, which is
/// 0 elsewhere; every time is measured on every workload. `model_ms` is the
/// deterministic virtual clock, shown beside the wall clock, not a time.
pub const PER_LAYER: [Metric; 35] = [
    layer("sqlparse.stmts_per_op", "count", "lower"),
    layer("sqlparse.parse_ns_per_stmt", "ns", "lower"),
    layer("sqlparse.deparse_ns_per_stmt", "ns", "lower"),
    layer("planner.shape_hash_ns_per_stmt", "ns", "lower"),
    layer("planner.plan_ns_per_stmt", "ns", "lower"),
    layer("planner.cache_hit_ratio", "ratio", "higher"),
    layer("planner.tasks_per_stmt", "count", "lower"),
    layer("planner.tier_fast_path_share", "ratio", "higher"),
    layer("planner.tier_router_share", "ratio", "higher"),
    layer("planner.tier_pushdown_share", "ratio", "lower"),
    layer("planner.tier_join_order_share", "ratio", "lower"),
    layer("executor.local_exec_tasks_per_op", "count", "higher"),
    layer("executor.task_retries", "count", "lower"),
    layer("executor.fanout_speedup_t2", "ratio", "higher"),
    layer("executor.coord_self_us_per_stmt", "us", "lower"),
    layer("netsim.exchanges_per_op", "count", "lower"),
    layer("netsim.coalesced_per_op", "count", "higher"),
    layer("netsim.wire_sleep_us", "us", "lower"),
    layer("netsim.virtual_ms_per_op", "model_ms", "lower"),
    layer("netsim.virtual_net_ms_per_op", "model_ms", "lower"),
    layer("extension.twopc_share", "ratio", "lower"),
    layer("extension.twopc_commit_share", "ratio", "lower"),
    layer("extension.delegated_commit_share", "ratio", "lower"),
    layer("pgmini.exec_ns_per_task", "ns", "lower"),
    layer("pgmini.single_node_us_per_op", "us", "lower"),
    layer("core.dist_overhead_ratio", "ratio", "lower"),
    layer("pgmini.wal_records_per_op", "count", "lower"),
    layer("pgmini.vacuum_ms_per_window", "ms", "lower"),
    layer("copy.rows_per_s", "rows/s", "higher"),
    layer("insert_select.rows_per_s", "rows/s", "higher"),
    layer("rollup.reads_per_s", "1/s", "higher"),
    layer("rollup.deltas_applied_per_op", "count", "lower"),
    layer("rollup.refreshes_per_op", "count", "lower"),
    layer("trace.overhead_ratio", "ratio", "higher"),
    layer("workloads.gen_ns_per_op", "ns", "lower"),
];

/// Counts made by the program with one client and no timer: two runs of one
/// build and seed must print them byte for byte the same.
pub const EXACT: [&str; 17] = [
    "sqlparse.stmts_per_op",
    "planner.cache_hit_ratio",
    "planner.tasks_per_stmt",
    "planner.tier_fast_path_share",
    "planner.tier_router_share",
    "planner.tier_pushdown_share",
    "planner.tier_join_order_share",
    "executor.local_exec_tasks_per_op",
    "executor.task_retries",
    "netsim.exchanges_per_op",
    "netsim.coalesced_per_op",
    "netsim.virtual_ms_per_op",
    "netsim.virtual_net_ms_per_op",
    "extension.twopc_share",
    "pgmini.wal_records_per_op",
    "rollup.deltas_applied_per_op",
    "rollup.refreshes_per_op",
];

/// What one run measured, ready to print.
pub struct Report {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: &'static [Metric],
    /// One named value per metric, in the table's order.
    pub values: Vec<(&'static str, f64)>,
}

impl Report {
    /// Each metric of the table with its value; a value filed under another
    /// name, or none, is a bug in this program.
    fn rows(&self) -> impl Iterator<Item = (&Metric, f64)> {
        assert_eq!(
            self.metrics.len(),
            self.values.len(),
            "one value per metric"
        );
        self.metrics.iter().zip(&self.values).map(|(m, (name, v))| {
            assert_eq!(m.name, *name, "values are in the table's order");
            assert!(v.is_finite(), "{name} is {v}");
            (m, *v)
        })
    }

    pub fn print_table(&self) {
        for (m, v) in self.rows() {
            println!("{:<36} {:>16.4} {}", m.name, v, m.unit);
        }
    }

    /// The one-line result: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .rows()
            .map(|(m, v)| {
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The value of `name` in a line `Report::json` printed.
pub fn value_in<'a>(json: &'a str, name: &str) -> Option<&'a str> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &json[json.find(&key)? + key.len()..];
    rest.split(',').next()
}

/// Slow spells of the sandbox mostly last 2 to 6 s: a run's median over
/// windows survives one that covers under half of it.
pub const RUN_SECONDS: usize = 15;

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let workloads: Vec<String> = SPECS
        .iter()
        .map(|s| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", s.name, s.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \
         \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_manifest_in_the_repository_is_the_generated_one() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            manifest(),
            "regenerate with: benchmark --manifest > BENCHMARK.json"
        );
    }

    #[test]
    fn names_and_units_meet_the_manifest_limits() {
        let ok = |s: &str, extra: &str| {
            s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(m.name.len() <= 64 && ok(m.name, "_.-"), "{}", m.name);
            assert!(m.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(m.unit.len() <= 16 && ok(m.unit, "_/%.-"), "{}", m.unit);
            assert!(m.better == "lower" || m.better == "higher");
            assert!(seen.insert(m.name), "{} is used twice", m.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        for name in EXACT {
            assert!(
                PER_LAYER.iter().any(|m| m.name == name),
                "{name} is not a per-layer metric"
            );
        }
    }

    #[test]
    fn the_result_line_has_the_four_keys_and_every_metric() {
        let report = Report {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: &END_TO_END,
            values: END_TO_END
                .iter()
                .zip(1..)
                .map(|(m, i)| (m.name, f64::from(i) + 0.25))
                .collect(),
        };
        let line = report.json();
        assert!(line.starts_with(
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {\"setup_s\": \
             {\"value\": 1.25, \"unit\": \"s\"}, "
        ));
        assert!(line.ends_with("\"peak_rss_mb\": {\"value\": 8.25, \"unit\": \"MB\"}}}"));
        assert!(!line.contains('\n'));
        for (i, m) in END_TO_END.iter().enumerate() {
            let v: f64 = value_in(&line, m.name).unwrap().parse().unwrap();
            assert_eq!(v, i as f64 + 1.25);
        }
        assert_eq!(value_in(&line, "absent"), None);
    }

    #[test]
    #[should_panic(expected = "values are in the table's order")]
    fn a_value_filed_under_another_name_is_refused() {
        let mut values: Vec<_> = END_TO_END.iter().map(|m| (m.name, 1.0)).collect();
        values.swap(2, 3);
        Report {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: &END_TO_END,
            values,
        }
        .json();
    }
}
