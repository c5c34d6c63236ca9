//! The workload drivers must actually run — against single-node pgmini (the
//! PostgreSQL baseline) and against a citrus cluster — and where both can
//! run the same queries, produce identical answers.

use citrus::cluster::{Cluster, ClusterConfig};
use pgmini::engine::Engine;
use pgmini::types::Datum;
use std::sync::Arc;
use workloads::runner::{ClusterRunner, LocalRunner, SqlRunner};
use workloads::{gharchive, pgbench, tpcc, tpch, ycsb};

fn cluster(workers: u32, shards: u32) -> Arc<Cluster> {
    let mut cfg = ClusterConfig::default();
    cfg.shard_count = shards;
    let c = Cluster::new(cfg);
    for _ in 0..workers {
        c.add_worker().unwrap();
    }
    c
}

fn local_runner() -> LocalRunner {
    LocalRunner { session: Engine::new_default().session().unwrap() }
}

fn cluster_runner(c: &Arc<Cluster>) -> ClusterRunner {
    ClusterRunner { session: c.session().unwrap() }
}

#[test]
fn tpcc_runs_on_both_targets() {
    let cfg = tpcc::TpccConfig {
        warehouses: 4,
        items: 50,
        districts_per_warehouse: 3,
        customers_per_district: 5,
        ..Default::default()
    };
    // local baseline
    let mut local = local_runner();
    for s in tpcc::schema_statements() {
        local.run(&s).unwrap();
    }
    tpcc::load(&mut local, &cfg, 1).unwrap();
    let mut driver = tpcc::TpccDriver::new(cfg.clone(), 2);
    for _ in 0..60 {
        let kind = driver.next_kind();
        driver.run(&mut local, kind).unwrap();
    }
    assert!(driver.new_orders > 0);

    // distributed
    let c = cluster(3, 8);
    let mut dist = cluster_runner(&c);
    for s in tpcc::schema_statements() {
        dist.run(&s).unwrap();
    }
    for s in tpcc::distribution_statements() {
        dist.run(&s).unwrap();
    }
    tpcc::load(&mut dist, &cfg, 1).unwrap();
    let mut driver = tpcc::TpccDriver::new(cfg, 2);
    for _ in 0..60 {
        let kind = driver.next_kind();
        driver.run(&mut dist, kind).unwrap();
    }
    assert!(driver.new_orders > 0);
    // the two targets loaded identical data, and the drivers were seeded
    // identically: spot-check an aggregate
    let l = local.run("SELECT count(*), sum(s_ytd) FROM stock").unwrap();
    let d = dist.run("SELECT count(*), sum(s_ytd) FROM stock").unwrap();
    assert_eq!(l.rows(), d.rows());
}

#[test]
fn tpcc_cross_warehouse_fraction_near_seven_percent() {
    let cfg = tpcc::TpccConfig { warehouses: 8, ..Default::default() };
    let mut d = tpcc::TpccDriver::new(cfg.clone(), 3);
    // probe the mix without a database: count what *would* cross
    let mut rng_cross = 0u32;
    let n = 20_000;
    for _ in 0..n {
        match d.next_kind() {
            tpcc::TxnKind::NewOrder => {
                // approximate: ~10 items, each remote with p
                let p_any = 1.0 - (1.0 - cfg.remote_item_fraction).powi(10);
                if (rng_cross as f64 / n as f64) < 0.0 {
                    unreachable!()
                }
                // deterministic expectation accumulation
                rng_cross += (p_any * 1000.0) as u32;
            }
            tpcc::TxnKind::Payment => {
                rng_cross += (cfg.remote_payment_fraction * 1000.0) as u32;
            }
            _ => {}
        }
    }
    let expected_fraction = rng_cross as f64 / (n as f64 * 1000.0);
    assert!(
        (0.04..0.10).contains(&expected_fraction),
        "cross-warehouse fraction ≈ 7%: {expected_fraction}"
    );
}

#[test]
fn ycsb_workload_a_runs_distributed() {
    let c = cluster(2, 8);
    let mut dist = cluster_runner(&c);
    dist.run(&ycsb::schema_statement()).unwrap();
    dist.run(&ycsb::distribution_statement()).unwrap();
    let cfg = ycsb::YcsbConfig { record_count: 500, ..Default::default() };
    ycsb::load(&mut dist, &cfg, 5).unwrap();
    let r = dist.run("SELECT count(*) FROM usertable").unwrap();
    assert_eq!(r.rows()[0][0], Datum::Int(500));
    let mut driver = ycsb::YcsbDriver::new(cfg, 6);
    let mut reads = 0;
    for _ in 0..200 {
        if driver.run(&mut dist).unwrap() == ycsb::Op::Read {
            reads += 1;
        }
    }
    assert!(reads > 60 && reads < 140, "50/50 mix: {reads}");
}

#[test]
fn gharchive_microbenchmarks_match_local() {
    // local
    let mut local = local_runner();
    for s in gharchive::schema_statements() {
        local.run(&s).unwrap();
    }
    gharchive::load_day(&mut local, 1, 800, 9).unwrap();
    let l = local.run(&gharchive::dashboard_query()).unwrap();

    // distributed
    let c = cluster(2, 8);
    let mut dist = cluster_runner(&c);
    for s in gharchive::schema_statements() {
        dist.run(&s).unwrap();
    }
    dist.run(&gharchive::distribution_statement()).unwrap();
    gharchive::load_day(&mut dist, 1, 800, 9).unwrap();
    let d = dist.run(&gharchive::dashboard_query()).unwrap();
    assert_eq!(l.rows(), d.rows(), "dashboard query must agree");
    assert!(!d.rows().is_empty(), "some postgres mentions exist");

    // the INSERT..SELECT transformation (Figure 7c) runs co-located
    for s in gharchive::transformation_schema() {
        dist.run(&s).unwrap();
    }
    dist.run(&gharchive::transformation_distribution()).unwrap();
    let n = dist.run(&gharchive::transformation_query()).unwrap().affected();
    assert!(n > 0);
    let total = dist.run("SELECT count(*) FROM push_commits").unwrap();
    assert_eq!(total.rows()[0][0].as_i64().unwrap(), n as i64);
}

#[test]
fn pgbench_both_arms_run_and_balance() {
    let c = cluster(2, 8);
    let mut dist = cluster_runner(&c);
    for s in pgbench::schema_statements() {
        dist.run(&s).unwrap();
    }
    for s in pgbench::distribution_statements() {
        dist.run(&s).unwrap();
    }
    let cfg = pgbench::PgbenchConfig { rows_per_table: 200, same_key: true };
    pgbench::load(&mut dist, &cfg).unwrap();
    let mut same = pgbench::PgbenchDriver::new(cfg.clone(), 11);
    for _ in 0..30 {
        same.run(&mut dist).unwrap();
    }
    let mut diff = pgbench::PgbenchDriver::new(
        pgbench::PgbenchConfig { same_key: false, ..cfg },
        12,
    );
    for _ in 0..30 {
        diff.run(&mut dist).unwrap();
    }
    // invariant: the two-update transaction conserves the total
    let r = dist
        .run("SELECT (SELECT sum(v) FROM a1) + (SELECT sum(v) FROM a2)")
        .unwrap();
    assert_eq!(r.rows()[0][0].as_i64().unwrap(), 0, "transfers must balance");
    // no leftover prepared transactions
    for node in c.nodes() {
        assert!(node.engine().txns.prepared_gids().is_empty());
    }
}

#[test]
fn tpch_all_supported_queries_match_local() {
    let sf = 0.001;
    // local baseline: same schema, same data, no distribution
    let mut local = local_runner();
    for s in tpch::schema_statements() {
        local.run(&s).unwrap();
    }
    tpch::gen::load(&mut local, sf, 21).unwrap();

    let c = cluster(3, 8);
    let mut dist = cluster_runner(&c);
    for s in tpch::schema_statements() {
        dist.run(&s).unwrap();
    }
    for s in tpch::distribution_statements() {
        dist.run(&s).unwrap();
    }
    tpch::gen::load(&mut dist, sf, 21).unwrap();

    for n in tpch::queries::SUPPORTED {
        let q = tpch::queries::query(n).unwrap();
        let l = local.run(&q).unwrap_or_else(|e| panic!("q{n} local: {e}"));
        let d = dist.run(&q).unwrap_or_else(|e| panic!("q{n} distributed: {e}"));
        assert_eq!(
            rounded(l.rows()),
            rounded(d.rows()),
            "q{n} diverged between local and distributed"
        );
    }
    // the unsupported four fail cleanly
    for n in tpch::queries::UNSUPPORTED {
        assert!(tpch::queries::query(n).is_none());
    }
}

/// Counts the subplans a planning pass asks for and answers each with no rows.
struct CountSubplans(usize);

impl citrus::planner::SubplanExecutor for CountSubplans {
    fn run_distributed_subquery(
        &mut self,
        _sel: &sqlparse::ast::Select,
    ) -> pgmini::error::PgResult<Vec<pgmini::types::Row>> {
        self.0 += 1;
        Ok(Vec::new())
    }
}

/// Q4, Q18 and Q21 filter `orders` or `lineitem` by `key IN (SELECT
/// l_orderkey …)`: co-located semi-joins, planned as one pushdown whose every
/// task runs the subquery against its own bucket's `lineitem` shard. Q22's
/// `c_custkey NOT IN (SELECT o_custkey FROM orders)` filters a reference table
/// and still runs its subquery first, as a subplan.
#[test]
fn tpch_colocated_semijoins_push_down() {
    use citrus::metadata::NodeId;
    use citrus::planner::{plan_statement, rewrite, PlannerKind};
    use sqlparse::ast::{Expr, Statement};

    let c = cluster(3, 8);
    let mut dist = cluster_runner(&c);
    for s in tpch::schema_statements().into_iter().chain(tpch::distribution_statements()) {
        dist.run(&s).unwrap();
    }
    let meta = c.metadata.read();
    let lineitem = meta.table("lineitem").unwrap();
    let plan = |n: u32, subplans: &mut CountSubplans| {
        let stmt = sqlparse::parse(&tpch::queries::query(n).unwrap()).unwrap();
        plan_statement(&stmt, &meta, NodeId(0), subplans).unwrap().unwrap()
    };
    for n in [4, 18, 21] {
        let mut subplans = CountSubplans(0);
        let p = plan(n, &mut subplans);
        assert_eq!((p.kind, p.used_subplans, subplans.0), (PlannerKind::Pushdown, false, 0), "q{n}");
        assert_eq!(p.tasks.len(), 8, "q{n}");
        for task in &p.tasks {
            let (_, bucket) = task.group.unwrap();
            let shard = meta.shard(lineitem.shards[bucket]).unwrap().physical_name();
            let Statement::Select(sel) = &*task.stmt else { panic!("q{n}: {:?}", task.stmt) };
            let mut semijoins = Vec::new();
            sel.where_clause.as_ref().unwrap().walk(&mut |e| {
                if let Expr::InSubquery { subquery, .. } = e {
                    semijoins.push(rewrite::select_tables(subquery));
                }
            });
            assert!(!semijoins.is_empty(), "q{n} lost its semi-join");
            for tables in semijoins {
                assert_eq!(tables, vec![shard.clone()], "q{n} bucket {bucket}");
            }
        }
    }
    let mut subplans = CountSubplans(0);
    let p = plan(22, &mut subplans);
    assert!(p.used_subplans && subplans.0 == 1, "q22 runs its NOT IN subquery first");
}

/// The worker's `EXPLAIN` of `stmt`, one line per row.
fn explain(s: &mut pgmini::session::Session, stmt: &sqlparse::ast::Statement) -> Vec<String> {
    let explain = sqlparse::ast::Statement::Explain {
        options: Default::default(),
        inner: Box::new(stmt.clone()),
    };
    let rows = s.execute_local(&explain).unwrap_or_else(|e| panic!("EXPLAIN {stmt:?}: {e}"));
    rows.into_rows().into_iter().map(|r| r[0].as_str().unwrap().to_string()).collect()
}

/// Every FROM list of the 18 TPC-H queries is connected by its join
/// predicates, so no plan of theirs may contain a cross join: neither one
/// engine's nor a worker's for the first task of the distributed plan.
#[test]
fn tpch_join_plans_have_no_cross_join() {
    use citrus::metadata::NodeId;
    use citrus::planner::plan_statement;

    let sf = 0.002;
    let mut local = local_runner();
    for s in tpch::schema_statements() {
        local.run(&s).unwrap();
    }
    tpch::gen::load(&mut local, sf, 5).unwrap();
    let c = cluster(3, 8);
    let mut dist = cluster_runner(&c);
    for s in tpch::schema_statements().into_iter().chain(tpch::distribution_statements()) {
        dist.run(&s).unwrap();
    }
    tpch::gen::load(&mut dist, sf, 5).unwrap();

    let mut crossed = Vec::new();
    for n in tpch::queries::SUPPORTED {
        let q = sqlparse::parse(&tpch::queries::query(n).unwrap()).unwrap();
        let one_engine = explain(&mut local.session, &q);
        let plan = {
            let meta = c.metadata.read();
            plan_statement(&q, &meta, NodeId(0), &mut CountSubplans(0)).unwrap().unwrap()
        };
        let task = plan.tasks.first().unwrap_or_else(|| panic!("q{n} has no task"));
        let engine = c.node(task.node).unwrap().engine();
        let worker = explain(&mut engine.session().unwrap(), &task.stmt);
        for (side, lines) in [("one engine", one_engine), ("worker", worker)] {
            if lines.iter().any(|l| l.contains("Cross Join")) {
                crossed.push(format!("q{n} ({side}):\n  {}", lines.join("\n  ")));
            }
        }
    }
    assert!(crossed.is_empty(), "cross joins in connected FROM lists:\n{}", crossed.join("\n"));
}

/// Q19's OR and Q7's OR each restrict every table they name in every
/// branch, so each of those tables is scanned with a filter derived from the
/// OR, before any join: `part` and `lineitem` in Q19, both `nation` aliases
/// in Q7. Where a filter goes does not depend on the data, so no rows are
/// loaded.
#[test]
fn tpch_cross_table_ors_filter_each_table_scan() {
    use citrus::metadata::NodeId;
    use citrus::planner::plan_statement;

    let mut local = local_runner();
    for s in tpch::schema_statements() {
        local.run(&s).unwrap();
    }
    let c = cluster(3, 8);
    let mut dist = cluster_runner(&c);
    for s in tpch::schema_statements().into_iter().chain(tpch::distribution_statements()) {
        dist.run(&s).unwrap();
    }
    let filtered = |lines: &[String], table: &str| {
        let scan = format!("Seq Scan on {table}");
        lines.iter().filter(|l| l.contains(&scan) && l.contains("(filtered)")).count()
    };
    for (n, tables) in [(19, &[("part", 1), ("lineitem", 1)][..]), (7, &[("nation", 2)][..])] {
        let q = sqlparse::parse(&tpch::queries::query(n).unwrap()).unwrap();
        let one_engine = explain(&mut local.session, &q);
        let plan = {
            let meta = c.metadata.read();
            plan_statement(&q, &meta, NodeId(0), &mut CountSubplans(0)).unwrap().unwrap()
        };
        let task = plan.tasks.first().unwrap_or_else(|| panic!("q{n} has no task"));
        let engine = c.node(task.node).unwrap().engine();
        let worker = explain(&mut engine.session().unwrap(), &task.stmt);
        for (side, lines) in [("one engine", one_engine), ("worker", worker)] {
            for &(table, scans) in tables {
                assert_eq!(
                    filtered(&lines, table),
                    scans,
                    "q{n} ({side}) filtered scans on {table}:\n  {}",
                    lines.join("\n  ")
                );
            }
        }
    }
}

/// Round floats for comparison (aggregation order differs across shards).
fn rounded(rows: &[Vec<Datum>]) -> Vec<Vec<String>> {
    rows.iter()
        .map(|r| {
            r.iter()
                .map(|d| match d {
                    Datum::Float(f) => format!("{:.4}", f),
                    other => other.to_text(),
                })
                .collect()
        })
        .collect()
}
