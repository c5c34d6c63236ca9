//! dbgen-lite: deterministic TPC-H data generation at fractional scale
//! factors, preserving the value distributions the queries' filters select
//! on (dates 1992–1998, 5 regions / 25 nations, segments, ship modes,
//! brands/types/containers).

use crate::runner::SqlRunner;
use pgmini::error::PgResult;
use pgmini::types::{Datum, Row};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

pub const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];
pub const NATIONS: [(&str, i64); 25] = [
    ("ALGERIA", 0), ("ARGENTINA", 1), ("BRAZIL", 1), ("CANADA", 1), ("EGYPT", 4),
    ("ETHIOPIA", 0), ("FRANCE", 3), ("GERMANY", 3), ("INDIA", 2), ("INDONESIA", 2),
    ("IRAN", 4), ("IRAQ", 4), ("JAPAN", 2), ("JORDAN", 4), ("KENYA", 0),
    ("MOROCCO", 0), ("MOZAMBIQUE", 0), ("PERU", 1), ("CHINA", 2), ("ROMANIA", 3),
    ("SAUDI ARABIA", 4), ("VIETNAM", 2), ("RUSSIA", 3), ("UNITED KINGDOM", 3),
    ("UNITED STATES", 1),
];
pub const SEGMENTS: [&str; 5] = ["AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"];
pub const SHIP_MODES: [&str; 7] = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];
pub const PRIORITIES: [&str; 5] =
    ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];
pub const TYPES_S1: [&str; 6] = ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"];
pub const TYPES_S2: [&str; 5] = ["ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"];
pub const TYPES_S3: [&str; 5] = ["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"];
pub const CONTAINERS: [&str; 8] = [
    "SM CASE", "SM BOX", "MED BAG", "MED BOX", "LG CASE", "LG BOX", "JUMBO PACK", "WRAP JAR",
];

/// Row counts at a given scale factor (SF1 = the spec's base cardinalities).
#[derive(Debug, Clone, Copy)]
pub struct Cardinalities {
    pub customers: u64,
    pub orders: u64,
    pub parts: u64,
    pub suppliers: u64,
}

pub fn cardinalities(sf: f64) -> Cardinalities {
    Cardinalities {
        customers: ((150_000.0 * sf) as u64).max(20),
        orders: ((1_500_000.0 * sf) as u64).max(200),
        parts: ((200_000.0 * sf) as u64).max(40),
        suppliers: ((10_000.0 * sf) as u64).max(5),
    }
}

fn date(rng: &mut StdRng, from_year: i64, to_year: i64) -> String {
    format!(
        "{}-{:02}-{:02}",
        rng.random_range(from_year..=to_year),
        rng.random_range(1..=12),
        rng.random_range(1..=28)
    )
}

/// Generate and load the full schema at scale factor `sf`. Returns the
/// number of lineitem rows loaded.
pub fn load(r: &mut dyn SqlRunner, sf: f64, seed: u64) -> PgResult<u64> {
    let card = cardinalities(sf);
    let mut rng = StdRng::seed_from_u64(seed);

    let regions: Vec<Row> = REGIONS
        .iter()
        .enumerate()
        .map(|(i, n)| vec![Datum::Int(i as i64), Datum::text(*n)])
        .collect();
    r.copy("region", &[], regions)?;

    let nations: Vec<Row> = NATIONS
        .iter()
        .enumerate()
        .map(|(i, (n, region))| {
            vec![Datum::Int(i as i64), Datum::text(*n), Datum::Int(*region)]
        })
        .collect();
    r.copy("nation", &[], nations)?;

    let suppliers: Vec<Row> = (0..card.suppliers as i64)
        .map(|s| {
            vec![
                Datum::Int(s),
                Datum::text(format!("Supplier#{s:09}")),
                Datum::text(format!("addr-{s}")),
                Datum::Int(rng.random_range(0..25)),
                Datum::text(format!("{}-555-{s:04}", rng.random_range(10..35))),
                Datum::Float(rng.random_range(-99999..999999) as f64 / 100.0),
                Datum::text(if s % 17 == 0 {
                    "Customer Complaints noted".to_string()
                } else {
                    format!("supplier comment {s}")
                }),
            ]
        })
        .collect();
    r.copy("supplier", &[], suppliers)?;

    let customers: Vec<Row> = (0..card.customers as i64)
        .map(|c| {
            vec![
                Datum::Int(c),
                Datum::text(format!("Customer#{c:09}")),
                Datum::text(format!("addr-{c}")),
                Datum::Int(rng.random_range(0..25)),
                Datum::text(format!("{}-555-{c:04}", rng.random_range(10..35))),
                Datum::Float(rng.random_range(-99999..999999) as f64 / 100.0),
                Datum::text(SEGMENTS[rng.random_range(0..SEGMENTS.len())]),
                Datum::text(format!("customer comment {c}")),
            ]
        })
        .collect();
    r.copy("customer", &[], customers)?;

    let parts: Vec<Row> = (0..card.parts as i64)
        .map(|p| {
            let ty = format!(
                "{} {} {}",
                TYPES_S1[rng.random_range(0..TYPES_S1.len())],
                TYPES_S2[rng.random_range(0..TYPES_S2.len())],
                TYPES_S3[rng.random_range(0..TYPES_S3.len())],
            );
            vec![
                Datum::Int(p),
                Datum::text(format!("part name {} {p}", TYPES_S3[(p % 5) as usize].to_lowercase())),
                Datum::text(format!("Manufacturer#{}", p % 5 + 1)),
                Datum::text(format!("Brand#{}{}", p % 5 + 1, p % 4 + 1)),
                Datum::text(ty),
                Datum::Int(rng.random_range(1..=50)),
                Datum::text(CONTAINERS[rng.random_range(0..CONTAINERS.len())]),
                Datum::Float(900.0 + (p % 1000) as f64 / 10.0),
            ]
        })
        .collect();
    r.copy("part", &[], parts)?;

    let mut partsupp: Vec<Row> = Vec::new();
    for p in 0..card.parts as i64 {
        for k in 0..4i64 {
            partsupp.push(vec![
                Datum::Int(p),
                Datum::Int((p + k * (card.suppliers as i64 / 4).max(1)) % card.suppliers as i64),
                Datum::Int(rng.random_range(1..10000)),
                Datum::Float(rng.random_range(100..100000) as f64 / 100.0),
            ]);
        }
        if partsupp.len() >= 4000 {
            r.copy("partsupp", &[], std::mem::take(&mut partsupp))?;
        }
    }
    if !partsupp.is_empty() {
        r.copy("partsupp", &[], partsupp)?;
    }

    // orders + lineitem, streamed in batches
    let mut orders: Vec<Row> = Vec::new();
    let mut lineitems: Vec<Row> = Vec::new();
    let mut lineitem_count = 0u64;
    for o in 0..card.orders as i64 {
        let orderdate = date(&mut rng, 1992, 1998);
        let line_count = rng.random_range(1..=7i64);
        let mut total = 0.0;
        for l in 1..=line_count {
            let qty = rng.random_range(1..=50i64) as f64;
            let price = rng.random_range(90000..200000) as f64 / 100.0;
            let discount = rng.random_range(0..=10i64) as f64 / 100.0;
            let tax = rng.random_range(0..=8i64) as f64 / 100.0;
            total += price * qty * (1.0 - discount);
            let shipdate = date(&mut rng, 1992, 1998);
            let commit_offset = rng.random_range(-30..60i64);
            let receipt_offset = rng.random_range(1..30i64);
            let returnflag = match rng.random_range(0..3u8) {
                0 => "R",
                1 => "A",
                _ => "N",
            };
            lineitems.push(vec![
                Datum::Int(o),
                Datum::Int(rng.random_range(0..card.parts as i64)),
                Datum::Int(rng.random_range(0..card.suppliers as i64)),
                Datum::Int(l),
                Datum::Float(qty),
                Datum::Float(price),
                Datum::Float(discount),
                Datum::Float(tax),
                Datum::text(returnflag),
                Datum::text(if rng.random_bool(0.5) { "O" } else { "F" }),
                Datum::text(shipdate.clone()),
                Datum::text(offset_date(&shipdate, commit_offset)),
                Datum::text(offset_date(&shipdate, receipt_offset)),
                Datum::text(if rng.random_bool(0.25) { "DELIVER IN PERSON" } else { "NONE" }),
                Datum::text(SHIP_MODES[rng.random_range(0..SHIP_MODES.len())]),
            ]);
            lineitem_count += 1;
        }
        orders.push(vec![
            Datum::Int(o),
            Datum::Int(rng.random_range(0..card.customers as i64)),
            Datum::text(if rng.random_bool(0.5) { "O" } else { "F" }),
            Datum::Float(total),
            Datum::text(orderdate),
            Datum::text(PRIORITIES[rng.random_range(0..PRIORITIES.len())]),
            Datum::Int(0),
        ]);
        // each COPY becomes one columnar stripe per target shard: flush in
        // large chunks so per-shard stripes fill whole execution batches
        // instead of fragmenting into kernel-dispatch-sized slivers
        if orders.len() >= 10_000 {
            r.copy("orders", &[], std::mem::take(&mut orders))?;
            r.copy("lineitem", &[], std::mem::take(&mut lineitems))?;
        }
    }
    if !orders.is_empty() {
        r.copy("orders", &[], orders)?;
        r.copy("lineitem", &[], lineitems)?;
    }
    Ok(lineitem_count)
}

/// Shift a YYYY-MM-DD date by `days` (string-level, via the engine's civil
/// math so generated dates stay valid).
fn offset_date(base: &str, days: i64) -> String {
    use pgmini::types::time;
    let micros = time::parse_timestamp(base).unwrap_or(0) + days * time::MICROS_PER_DAY;
    time::format_timestamp(micros)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cardinalities_scale() {
        let c = cardinalities(0.01);
        assert_eq!(c.customers, 1500);
        assert_eq!(c.orders, 15_000);
        let tiny = cardinalities(0.0);
        assert!(tiny.customers >= 20, "floors apply");
    }

    #[test]
    fn offset_dates_stay_valid() {
        assert_eq!(offset_date("1994-01-31", 1), "1994-02-01");
        assert_eq!(offset_date("1994-01-01", -1), "1993-12-31");
    }
}
