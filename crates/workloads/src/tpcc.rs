//! HammerDB-style TPC-C-derived OLTP workload (§4.1).
//!
//! Models an order-processing system where warehouses are the tenants: most
//! transactions touch a single warehouse id, a small fraction (~7%, matching
//! the paper) crosses warehouses and hence — on a cluster — nodes. NOPM (new
//! orders per minute) is the headline metric.

use crate::runner::SqlRunner;
use pgmini::error::PgResult;
use pgmini::types::{Datum, Row};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Workload scale and mix configuration.
#[derive(Debug, Clone)]
pub struct TpccConfig {
    pub warehouses: u32,
    /// Items in the catalogue (TPC-C specifies 100k; scaled down here).
    pub items: u32,
    pub districts_per_warehouse: u32,
    pub customers_per_district: u32,
    /// Fraction of new-order lines supplied by a remote warehouse.
    pub remote_item_fraction: f64,
    /// Fraction of payments against a customer of a remote warehouse.
    pub remote_payment_fraction: f64,
}

impl Default for TpccConfig {
    fn default() -> Self {
        TpccConfig {
            warehouses: 10,
            items: 1000,
            districts_per_warehouse: 10,
            customers_per_district: 30,
            // tuned so ~7% of transactions span warehouses, like the paper
            remote_item_fraction: 0.005,
            remote_payment_fraction: 0.10,
        }
    }
}

/// The simulated on-disk row widths of the full-size TPC-C tables (the paper
/// runs 500 warehouses ≈ 100 GB; widths let the buffer-pool math reproduce
/// that pressure at reduced row counts).
pub const SIM_WIDTHS: &[(&str, u32)] = &[
    ("warehouse", 100),
    ("district", 110),
    ("customer", 680),
    ("orders", 36),
    ("new_order", 12),
    ("order_line", 70),
    ("stock", 310),
    ("item", 90),
    ("history", 50),
];

/// CREATE TABLE statements for the TPC-C schema subset.
pub fn schema_statements() -> Vec<String> {
    vec![
        "CREATE TABLE item (i_id bigint PRIMARY KEY, i_name text, i_price float)".into(),
        "CREATE TABLE warehouse (w_id bigint PRIMARY KEY, w_name text, w_tax float, w_ytd float)"
            .into(),
        "CREATE TABLE district (d_w_id bigint, d_id bigint, d_tax float, d_ytd float, \
         d_next_o_id bigint, PRIMARY KEY (d_w_id, d_id))"
            .into(),
        "CREATE TABLE customer (c_w_id bigint, c_d_id bigint, c_id bigint, c_name text, \
         c_balance float, c_ytd_payment float, PRIMARY KEY (c_w_id, c_d_id, c_id))"
            .into(),
        "CREATE TABLE orders (o_w_id bigint, o_d_id bigint, o_id bigint, o_c_id bigint, \
         o_entry_d timestamp, o_carrier_id bigint, o_ol_cnt bigint, \
         PRIMARY KEY (o_w_id, o_d_id, o_id))"
            .into(),
        "CREATE TABLE new_order (no_w_id bigint, no_d_id bigint, no_o_id bigint, \
         PRIMARY KEY (no_w_id, no_d_id, no_o_id))"
            .into(),
        "CREATE TABLE order_line (ol_w_id bigint, ol_d_id bigint, ol_o_id bigint, \
         ol_number bigint, ol_i_id bigint, ol_supply_w_id bigint, ol_quantity bigint, \
         ol_amount float, PRIMARY KEY (ol_w_id, ol_d_id, ol_o_id, ol_number))"
            .into(),
        "CREATE TABLE stock (s_w_id bigint, s_i_id bigint, s_quantity bigint, s_ytd bigint, \
         PRIMARY KEY (s_w_id, s_i_id))"
            .into(),
        "CREATE TABLE history (h_w_id bigint, h_d_id bigint, h_c_id bigint, h_amount float, \
         h_date timestamp)"
            .into(),
    ]
}

/// Distribution statements: item becomes a reference table, the rest
/// distribute and co-locate on the warehouse id (§4.1's setup).
pub fn distribution_statements() -> Vec<String> {
    vec![
        "SELECT create_reference_table('item')".into(),
        "SELECT create_distributed_table('warehouse', 'w_id')".into(),
        "SELECT create_distributed_table('district', 'd_w_id', 'warehouse')".into(),
        "SELECT create_distributed_table('customer', 'c_w_id', 'warehouse')".into(),
        "SELECT create_distributed_table('orders', 'o_w_id', 'warehouse')".into(),
        "SELECT create_distributed_table('new_order', 'no_w_id', 'warehouse')".into(),
        "SELECT create_distributed_table('order_line', 'ol_w_id', 'warehouse')".into(),
        "SELECT create_distributed_table('stock', 's_w_id', 'warehouse')".into(),
        "SELECT create_distributed_table('history', 'h_w_id', 'warehouse')".into(),
    ]
}

/// Populate the schema (COPY-based).
pub fn load(r: &mut dyn SqlRunner, cfg: &TpccConfig, seed: u64) -> PgResult<()> {
    let mut rng = StdRng::seed_from_u64(seed);
    let items: Vec<Row> = (1..=cfg.items as i64)
        .map(|i| {
            vec![
                Datum::Int(i),
                Datum::text(format!("item-{i}")),
                Datum::Float((rng.random_range(100..10000) as f64) / 100.0),
            ]
        })
        .collect();
    r.copy("item", &[], items)?;
    for w in 1..=cfg.warehouses as i64 {
        r.copy(
            "warehouse",
            &[],
            vec![vec![
                Datum::Int(w),
                Datum::text(format!("wh-{w}")),
                Datum::Float(rng.random_range(0..2000) as f64 / 10_000.0),
                Datum::Float(300_000.0),
            ]],
        )?;
        let districts: Vec<Row> = (1..=cfg.districts_per_warehouse as i64)
            .map(|d| {
                vec![
                    Datum::Int(w),
                    Datum::Int(d),
                    Datum::Float(rng.random_range(0..2000) as f64 / 10_000.0),
                    Datum::Float(30_000.0),
                    Datum::Int(1),
                ]
            })
            .collect();
        r.copy("district", &[], districts)?;
        let mut customers = Vec::new();
        for d in 1..=cfg.districts_per_warehouse as i64 {
            for c in 1..=cfg.customers_per_district as i64 {
                customers.push(vec![
                    Datum::Int(w),
                    Datum::Int(d),
                    Datum::Int(c),
                    Datum::text(format!("cust-{w}-{d}-{c}")),
                    Datum::Float(-10.0),
                    Datum::Float(10.0),
                ]);
            }
        }
        r.copy("customer", &[], customers)?;
        let stock: Vec<Row> = (1..=cfg.items as i64)
            .map(|i| {
                vec![
                    Datum::Int(w),
                    Datum::Int(i),
                    Datum::Int(rng.random_range(10..101)),
                    Datum::Int(0),
                ]
            })
            .collect();
        r.copy("stock", &[], stock)?;
    }
    Ok(())
}

/// Transaction kinds, with the HammerDB mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TxnKind {
    NewOrder,
    Payment,
    OrderStatus,
    Delivery,
    StockLevel,
}

/// One virtual user's transaction generator.
pub struct TpccDriver {
    pub cfg: TpccConfig,
    rng: StdRng,
    /// Statistics: total / cross-warehouse transactions issued.
    pub total_txns: u64,
    pub cross_warehouse_txns: u64,
    pub new_orders: u64,
}

impl TpccDriver {
    pub fn new(cfg: TpccConfig, seed: u64) -> Self {
        TpccDriver {
            cfg,
            rng: StdRng::seed_from_u64(seed),
            total_txns: 0,
            cross_warehouse_txns: 0,
            new_orders: 0,
        }
    }

    /// Draw the next transaction kind from the mix (NO 45, P 43, OS 4, D 4,
    /// SL 4 — the TPC-C/HammerDB proportions).
    pub fn next_kind(&mut self) -> TxnKind {
        match self.rng.random_range(0..100) {
            0..45 => TxnKind::NewOrder,
            45..88 => TxnKind::Payment,
            88..92 => TxnKind::OrderStatus,
            92..96 => TxnKind::Delivery,
            _ => TxnKind::StockLevel,
        }
    }

    fn rand_wh(&mut self) -> i64 {
        self.rng.random_range(1..=self.cfg.warehouses as i64)
    }

    fn other_wh(&mut self, not: i64) -> i64 {
        if self.cfg.warehouses == 1 {
            return not;
        }
        loop {
            let w = self.rand_wh();
            if w != not {
                return w;
            }
        }
    }

    /// Run one transaction of the given kind. Returns whether it crossed
    /// warehouses (candidate multi-node transaction).
    pub fn run(&mut self, r: &mut dyn SqlRunner, kind: TxnKind) -> PgResult<bool> {
        self.total_txns += 1;
        let crossed = match kind {
            TxnKind::NewOrder => self.new_order(r)?,
            TxnKind::Payment => self.payment(r)?,
            TxnKind::OrderStatus => self.order_status(r)?,
            TxnKind::Delivery => self.delivery(r)?,
            TxnKind::StockLevel => self.stock_level(r)?,
        };
        if crossed {
            self.cross_warehouse_txns += 1;
        }
        Ok(crossed)
    }

    fn new_order(&mut self, r: &mut dyn SqlRunner) -> PgResult<bool> {
        let w = self.rand_wh();
        let d = self.rng.random_range(1..=self.cfg.districts_per_warehouse as i64);
        let c = self.rng.random_range(1..=self.cfg.customers_per_district as i64);
        let ol_cnt = self.rng.random_range(5..=15i64);
        // pick the items (and their supplying warehouses) up front
        let mut lines = Vec::new();
        let mut crossed = false;
        for n in 1..=ol_cnt {
            let item = self.rng.random_range(1..=self.cfg.items as i64);
            let supply_w = if self.rng.random_bool(self.cfg.remote_item_fraction) {
                self.other_wh(w)
            } else {
                w
            };
            crossed |= supply_w != w;
            let qty = self.rng.random_range(1..=10i64);
            lines.push((n, item, supply_w, qty));
        }
        r.run("BEGIN")?;
        let result: PgResult<()> = (|| {
            r.run(&format!("SELECT w_tax FROM warehouse WHERE w_id = {w}"))?;
            let next = r.run(&format!(
                "SELECT d_next_o_id FROM district WHERE d_w_id = {w} AND d_id = {d} FOR UPDATE"
            ))?;
            let o_id = next
                .scalar()
                .and_then(|v| v.as_i64().ok())
                .unwrap_or(1);
            r.run(&format!(
                "UPDATE district SET d_next_o_id = {} WHERE d_w_id = {w} AND d_id = {d}",
                o_id + 1
            ))?;
            r.run(&format!(
                "INSERT INTO orders VALUES ({w}, {d}, {o_id}, {c}, '2020-06-01', NULL, {ol_cnt})"
            ))?;
            r.run(&format!("INSERT INTO new_order VALUES ({w}, {d}, {o_id})"))?;
            for (n, item, supply_w, qty) in &lines {
                let price = r.run(&format!("SELECT i_price FROM item WHERE i_id = {item}"))?;
                let price =
                    price.scalar().and_then(|v| v.as_f64().ok()).unwrap_or(1.0);
                r.run(&format!(
                    "SELECT s_quantity FROM stock WHERE s_w_id = {supply_w} AND s_i_id = {item} FOR UPDATE"
                ))?;
                r.run(&format!(
                    "UPDATE stock SET s_quantity = s_quantity - {qty}, s_ytd = s_ytd + {qty} \
                     WHERE s_w_id = {supply_w} AND s_i_id = {item}"
                ))?;
                r.run(&format!(
                    "INSERT INTO order_line VALUES ({w}, {d}, {o_id}, {n}, {item}, {supply_w}, \
                     {qty}, {})",
                    price * *qty as f64
                ))?;
            }
            Ok(())
        })();
        match result {
            Ok(()) => {
                r.run("COMMIT")?;
                self.new_orders += 1;
                Ok(crossed)
            }
            Err(e) => {
                let _ = r.run("ROLLBACK");
                Err(e)
            }
        }
    }

    fn payment(&mut self, r: &mut dyn SqlRunner) -> PgResult<bool> {
        let w = self.rand_wh();
        let d = self.rng.random_range(1..=self.cfg.districts_per_warehouse as i64);
        let (c_w, c_d) = if self.rng.random_bool(self.cfg.remote_payment_fraction) {
            (self.other_wh(w), self.rng.random_range(1..=self.cfg.districts_per_warehouse as i64))
        } else {
            (w, d)
        };
        let crossed = c_w != w;
        let c = self.rng.random_range(1..=self.cfg.customers_per_district as i64);
        let amount = self.rng.random_range(100..500000) as f64 / 100.0;
        r.run("BEGIN")?;
        let result: PgResult<()> = (|| {
            r.run(&format!(
                "UPDATE warehouse SET w_ytd = w_ytd + {amount} WHERE w_id = {w}"
            ))?;
            r.run(&format!(
                "UPDATE district SET d_ytd = d_ytd + {amount} WHERE d_w_id = {w} AND d_id = {d}"
            ))?;
            r.run(&format!(
                "UPDATE customer SET c_balance = c_balance - {amount}, \
                 c_ytd_payment = c_ytd_payment + {amount} \
                 WHERE c_w_id = {c_w} AND c_d_id = {c_d} AND c_id = {c}"
            ))?;
            r.run(&format!(
                "INSERT INTO history VALUES ({w}, {d}, {c}, {amount}, '2020-06-01')"
            ))?;
            Ok(())
        })();
        match result {
            Ok(()) => {
                r.run("COMMIT")?;
                Ok(crossed)
            }
            Err(e) => {
                let _ = r.run("ROLLBACK");
                Err(e)
            }
        }
    }

    fn order_status(&mut self, r: &mut dyn SqlRunner) -> PgResult<bool> {
        let w = self.rand_wh();
        let d = self.rng.random_range(1..=self.cfg.districts_per_warehouse as i64);
        let c = self.rng.random_range(1..=self.cfg.customers_per_district as i64);
        r.run(&format!(
            "SELECT c_balance, c_name FROM customer \
             WHERE c_w_id = {w} AND c_d_id = {d} AND c_id = {c}"
        ))?;
        r.run(&format!(
            "SELECT o_id, o_entry_d, o_carrier_id FROM orders \
             WHERE o_w_id = {w} AND o_d_id = {d} AND o_c_id = {c} \
             ORDER BY o_id DESC LIMIT 1"
        ))?;
        Ok(false)
    }

    fn delivery(&mut self, r: &mut dyn SqlRunner) -> PgResult<bool> {
        let w = self.rand_wh();
        let d = self.rng.random_range(1..=self.cfg.districts_per_warehouse as i64);
        r.run("BEGIN")?;
        let result: PgResult<()> = (|| {
            let oldest = r.run(&format!(
                "SELECT no_o_id FROM new_order WHERE no_w_id = {w} AND no_d_id = {d} \
                 ORDER BY no_o_id LIMIT 1"
            ))?;
            if let Some(o_id) = oldest.scalar().and_then(|v| v.as_i64().ok()) {
                r.run(&format!(
                    "DELETE FROM new_order WHERE no_w_id = {w} AND no_d_id = {d} AND no_o_id = {o_id}"
                ))?;
                r.run(&format!(
                    "UPDATE orders SET o_carrier_id = {} \
                     WHERE o_w_id = {w} AND o_d_id = {d} AND o_id = {o_id}",
                    self.rng.random_range(1..=10)
                ))?;
                r.run(&format!(
                    "SELECT sum(ol_amount) FROM order_line \
                     WHERE ol_w_id = {w} AND ol_d_id = {d} AND ol_o_id = {o_id}"
                ))?;
            }
            Ok(())
        })();
        match result {
            Ok(()) => {
                r.run("COMMIT")?;
                Ok(false)
            }
            Err(e) => {
                let _ = r.run("ROLLBACK");
                Err(e)
            }
        }
    }

    fn stock_level(&mut self, r: &mut dyn SqlRunner) -> PgResult<bool> {
        let w = self.rand_wh();
        let threshold = self.rng.random_range(10..=20i64);
        r.run(&format!(
            "SELECT count(*) FROM stock WHERE s_w_id = {w} AND s_quantity < {threshold}"
        ))?;
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_matches_hammerdb_proportions() {
        let mut d = TpccDriver::new(TpccConfig::default(), 42);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..20_000 {
            *counts.entry(d.next_kind()).or_insert(0u32) += 1;
        }
        let frac = |k: TxnKind| counts[&k] as f64 / 20_000.0;
        assert!((frac(TxnKind::NewOrder) - 0.45).abs() < 0.02);
        assert!((frac(TxnKind::Payment) - 0.43).abs() < 0.02);
        assert!((frac(TxnKind::OrderStatus) - 0.04).abs() < 0.01);
    }

    #[test]
    fn schema_parses() {
        for stmt in schema_statements() {
            sqlparse::parse(&stmt).unwrap();
        }
        for stmt in distribution_statements() {
            sqlparse::parse(&stmt).unwrap();
        }
    }
}

/// How the driver talks to the database: statement-at-a-time SQL, or the
/// delegated stored procedures the paper configures for Citus (§4.1) so a
/// whole transaction costs one round trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriverMode {
    InlineSql,
    Procedures,
}

/// Register the TPC-C transaction bodies as delegated procedures on every
/// node of a cluster (distribution argument: the warehouse id).
pub fn register_procedures(cluster: &std::sync::Arc<citrus::cluster::Cluster>) -> PgResult<()> {
    use pgmini::session::Session;

    fn scalar_i64(s: &mut Session, sql: &str) -> PgResult<Option<i64>> {
        Ok(s.execute(sql)?.scalar().and_then(|d| d.as_i64().ok()))
    }

    citrus::procedures::register_delegated_procedure(
        cluster,
        "tpcc_new_order",
        "warehouse",
        0,
        std::sync::Arc::new(|s, args| {
            let w = args[0].as_i64()?;
            let d = args[1].as_i64()?;
            let c = args[2].as_i64()?;
            let parsed;
            let lines: &pgmini::types::Json = match &args[3] {
                Datum::Json(j) => j,
                Datum::Text(t) => {
                    parsed = pgmini::types::Json::parse(t)?;
                    &parsed
                }
                _ => {
                    return Err(pgmini::error::PgError::new(
                        pgmini::error::ErrorCode::InvalidParameter,
                        "tpcc_new_order: lines must be json",
                    ))
                }
            };
            let pgmini::types::Json::Array(items) = lines else {
                return Err(pgmini::error::PgError::new(
                    pgmini::error::ErrorCode::InvalidParameter,
                    "tpcc_new_order: lines must be a json array",
                ));
            };
            s.execute("BEGIN")?;
            let body = (|| -> PgResult<i64> {
                s.execute(&format!("SELECT w_tax FROM warehouse WHERE w_id = {w}"))?;
                let o_id = scalar_i64(
                    s,
                    &format!(
                        "SELECT d_next_o_id FROM district \
                         WHERE d_w_id = {w} AND d_id = {d} FOR UPDATE"
                    ),
                )?
                .unwrap_or(1);
                s.execute(&format!(
                    "UPDATE district SET d_next_o_id = {} WHERE d_w_id = {w} AND d_id = {d}",
                    o_id + 1
                ))?;
                let ol_cnt = items.len();
                s.execute(&format!(
                    "INSERT INTO orders VALUES ({w}, {d}, {o_id}, {c}, '2020-06-01', NULL, {ol_cnt})"
                ))?;
                s.execute(&format!("INSERT INTO new_order VALUES ({w}, {d}, {o_id})"))?;
                for line in items {
                    let get = |i: usize| -> i64 {
                        match line.get_index(i) {
                            Some(pgmini::types::Json::Number(n)) => *n as i64,
                            _ => 0,
                        }
                    };
                    let (n, item, supply_w, qty) = (get(0), get(1), get(2), get(3));
                    let price = s
                        .execute(&format!("SELECT i_price FROM item WHERE i_id = {item}"))?
                        .scalar()
                        .and_then(|v| v.as_f64().ok())
                        .unwrap_or(1.0);
                    s.execute(&format!(
                        "SELECT s_quantity FROM stock \
                         WHERE s_w_id = {supply_w} AND s_i_id = {item} FOR UPDATE"
                    ))?;
                    s.execute(&format!(
                        "UPDATE stock SET s_quantity = s_quantity - {qty}, \
                         s_ytd = s_ytd + {qty} \
                         WHERE s_w_id = {supply_w} AND s_i_id = {item}"
                    ))?;
                    s.execute(&format!(
                        "INSERT INTO order_line VALUES ({w}, {d}, {o_id}, {n}, {item}, \
                         {supply_w}, {qty}, {})",
                        price * qty as f64
                    ))?;
                }
                Ok(o_id)
            })();
            match body {
                Ok(o_id) => {
                    s.execute("COMMIT")?;
                    Ok(Datum::Int(o_id))
                }
                Err(e) => {
                    let _ = s.execute("ROLLBACK");
                    Err(e)
                }
            }
        }),
    )?;

    citrus::procedures::register_delegated_procedure(
        cluster,
        "tpcc_payment",
        "warehouse",
        0,
        std::sync::Arc::new(|s, args| {
            let (w, d) = (args[0].as_i64()?, args[1].as_i64()?);
            let (c_w, c_d, c) = (args[2].as_i64()?, args[3].as_i64()?, args[4].as_i64()?);
            let amount = args[5].as_f64()?;
            s.execute("BEGIN")?;
            let body = (|| -> PgResult<()> {
                s.execute(&format!(
                    "UPDATE warehouse SET w_ytd = w_ytd + {amount} WHERE w_id = {w}"
                ))?;
                s.execute(&format!(
                    "UPDATE district SET d_ytd = d_ytd + {amount} \
                     WHERE d_w_id = {w} AND d_id = {d}"
                ))?;
                s.execute(&format!(
                    "UPDATE customer SET c_balance = c_balance - {amount}, \
                     c_ytd_payment = c_ytd_payment + {amount} \
                     WHERE c_w_id = {c_w} AND c_d_id = {c_d} AND c_id = {c}"
                ))?;
                s.execute(&format!(
                    "INSERT INTO history VALUES ({w}, {d}, {c}, {amount}, '2020-06-01')"
                ))?;
                Ok(())
            })();
            match body {
                Ok(()) => {
                    s.execute("COMMIT")?;
                    Ok(Datum::Null)
                }
                Err(e) => {
                    let _ = s.execute("ROLLBACK");
                    Err(e)
                }
            }
        }),
    )?;

    citrus::procedures::register_delegated_procedure(
        cluster,
        "tpcc_order_status",
        "warehouse",
        0,
        std::sync::Arc::new(|s, args| {
            let (w, d, c) = (args[0].as_i64()?, args[1].as_i64()?, args[2].as_i64()?);
            s.execute(&format!(
                "SELECT c_balance, c_name FROM customer \
                 WHERE c_w_id = {w} AND c_d_id = {d} AND c_id = {c}"
            ))?;
            s.execute(&format!(
                "SELECT o_id, o_entry_d, o_carrier_id FROM orders \
                 WHERE o_w_id = {w} AND o_d_id = {d} AND o_c_id = {c} \
                 ORDER BY o_id DESC LIMIT 1"
            ))?;
            Ok(Datum::Null)
        }),
    )?;

    citrus::procedures::register_delegated_procedure(
        cluster,
        "tpcc_delivery",
        "warehouse",
        0,
        std::sync::Arc::new(|s, args| {
            let (w, d, carrier) = (args[0].as_i64()?, args[1].as_i64()?, args[2].as_i64()?);
            s.execute("BEGIN")?;
            let body = (|| -> PgResult<()> {
                let oldest = s
                    .execute(&format!(
                        "SELECT no_o_id FROM new_order \
                         WHERE no_w_id = {w} AND no_d_id = {d} ORDER BY no_o_id LIMIT 1"
                    ))?
                    .scalar()
                    .and_then(|v| v.as_i64().ok());
                if let Some(o_id) = oldest {
                    s.execute(&format!(
                        "DELETE FROM new_order \
                         WHERE no_w_id = {w} AND no_d_id = {d} AND no_o_id = {o_id}"
                    ))?;
                    s.execute(&format!(
                        "UPDATE orders SET o_carrier_id = {carrier} \
                         WHERE o_w_id = {w} AND o_d_id = {d} AND o_id = {o_id}"
                    ))?;
                    s.execute(&format!(
                        "SELECT sum(ol_amount) FROM order_line \
                         WHERE ol_w_id = {w} AND ol_d_id = {d} AND ol_o_id = {o_id}"
                    ))?;
                }
                Ok(())
            })();
            match body {
                Ok(()) => {
                    s.execute("COMMIT")?;
                    Ok(Datum::Null)
                }
                Err(e) => {
                    let _ = s.execute("ROLLBACK");
                    Err(e)
                }
            }
        }),
    )?;

    citrus::procedures::register_delegated_procedure(
        cluster,
        "tpcc_stock_level",
        "warehouse",
        0,
        std::sync::Arc::new(|s, args| {
            let (w, threshold) = (args[0].as_i64()?, args[1].as_i64()?);
            let n = s
                .execute(&format!(
                    "SELECT count(*) FROM stock \
                     WHERE s_w_id = {w} AND s_quantity < {threshold}"
                ))?
                .scalar()
                .and_then(|v| v.as_i64().ok())
                .unwrap_or(0);
            Ok(Datum::Int(n))
        }),
    )?;
    Ok(())
}

impl TpccDriver {
    /// Run one transaction through the delegated procedures (one round trip
    /// per transaction instead of one per statement). Returns whether the
    /// transaction crossed warehouses.
    pub fn run_via_procedures(
        &mut self,
        r: &mut dyn SqlRunner,
        kind: TxnKind,
    ) -> PgResult<bool> {
        self.total_txns += 1;
        let w = self.rand_wh();
        let d = self.rng.random_range(1..=self.cfg.districts_per_warehouse as i64);
        let c = self.rng.random_range(1..=self.cfg.customers_per_district as i64);
        let crossed = match kind {
            TxnKind::NewOrder => {
                let ol_cnt = self.rng.random_range(5..=15i64);
                let mut crossed = false;
                let mut lines = Vec::new();
                for n in 1..=ol_cnt {
                    let item = self.rng.random_range(1..=self.cfg.items as i64);
                    let supply_w = if self.rng.random_bool(self.cfg.remote_item_fraction) {
                        self.other_wh(w)
                    } else {
                        w
                    };
                    crossed |= supply_w != w;
                    let qty = self.rng.random_range(1..=10i64);
                    lines.push(format!("[{n},{item},{supply_w},{qty}]"));
                }
                r.run(&format!(
                    "SELECT tpcc_new_order({w}, {d}, {c}, '[{}]')",
                    lines.join(",")
                ))?;
                self.new_orders += 1;
                crossed
            }
            TxnKind::Payment => {
                let (c_w, c_d) = if self.rng.random_bool(self.cfg.remote_payment_fraction) {
                    (
                        self.other_wh(w),
                        self.rng.random_range(1..=self.cfg.districts_per_warehouse as i64),
                    )
                } else {
                    (w, d)
                };
                let amount = self.rng.random_range(100..500000) as f64 / 100.0;
                r.run(&format!(
                    "SELECT tpcc_payment({w}, {d}, {c_w}, {c_d}, {c}, {amount})"
                ))?;
                c_w != w
            }
            TxnKind::OrderStatus => {
                r.run(&format!("SELECT tpcc_order_status({w}, {d}, {c})"))?;
                false
            }
            TxnKind::Delivery => {
                let carrier = self.rng.random_range(1..=10i64);
                r.run(&format!("SELECT tpcc_delivery({w}, {d}, {carrier})"))?;
                false
            }
            TxnKind::StockLevel => {
                let threshold = self.rng.random_range(10..=20i64);
                r.run(&format!("SELECT tpcc_stock_level({w}, {threshold})"))?;
                false
            }
        };
        if crossed {
            self.cross_warehouse_txns += 1;
        }
        Ok(crossed)
    }
}
