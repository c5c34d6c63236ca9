//! YCSB — the Yahoo! Cloud Serving Benchmark (§4.3) for high-performance
//! CRUD. Workload A (50% reads / 50% updates, the paper's Figure 10 setup)
//! plus the other standard mixes, with uniform and zipfian key choosers.

use crate::runner::SqlRunner;
use pgmini::error::PgResult;
use pgmini::types::{Datum, Row};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

pub const FIELD_COUNT: usize = 10;

/// The standard YCSB workload mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 50% read / 50% update.
    A,
    /// 95% read / 5% update.
    B,
    /// 100% read.
    C,
    /// 95% read / 5% insert (read latest).
    D,
    /// 95% scan / 5% insert.
    E,
    /// 50% read / 50% read-modify-write.
    F,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Read,
    Update,
    Insert,
    Scan,
    ReadModifyWrite,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Distribution {
    Uniform,
    Zipfian,
}

#[derive(Debug, Clone)]
pub struct YcsbConfig {
    pub record_count: u64,
    pub workload: Workload,
    pub distribution: Distribution,
    /// Zipf exponent (YCSB default 0.99).
    pub zipf_theta: f64,
}

impl Default for YcsbConfig {
    fn default() -> Self {
        YcsbConfig {
            record_count: 10_000,
            workload: Workload::A,
            distribution: Distribution::Uniform,
            zipf_theta: 0.99,
        }
    }
}

/// `usertable` schema: text key + 10 text fields, like the JDBC binding.
pub fn schema_statement() -> String {
    let fields: Vec<String> =
        (0..FIELD_COUNT).map(|i| format!("field{i} text")).collect();
    format!("CREATE TABLE usertable (ycsb_key text PRIMARY KEY, {})", fields.join(", "))
}

pub fn distribution_statement() -> String {
    "SELECT create_distributed_table('usertable', 'ycsb_key')".to_string()
}

/// The full-size benchmark has 100M × ~1 KB rows (~100 GB).
pub const SIM_ROW_WIDTH: u32 = 1100;

pub fn key_name(id: u64) -> String {
    format!("user{id:012}")
}

fn field_value(rng: &mut StdRng) -> String {
    // 100-byte fields like YCSB's default
    let len = 100;
    (0..len).map(|_| (b'a' + rng.random_range(0..26u8)) as char).collect()
}

/// Load `record_count` rows via COPY.
pub fn load(r: &mut dyn SqlRunner, cfg: &YcsbConfig, seed: u64) -> PgResult<()> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut batch: Vec<Row> = Vec::with_capacity(1000);
    for id in 0..cfg.record_count {
        let mut row = vec![Datum::text(key_name(id))];
        for _ in 0..FIELD_COUNT {
            row.push(Datum::text(field_value(&mut rng)));
        }
        batch.push(row);
        if batch.len() == 1000 {
            r.copy("usertable", &[], std::mem::take(&mut batch))?;
        }
    }
    if !batch.is_empty() {
        r.copy("usertable", &[], batch)?;
    }
    Ok(())
}

/// One client's operation generator.
pub struct YcsbDriver {
    pub cfg: YcsbConfig,
    rng: StdRng,
    insert_seq: u64,
    zipf_zeta: f64,
    pub ops: u64,
}

impl YcsbDriver {
    pub fn new(cfg: YcsbConfig, seed: u64) -> Self {
        let zipf_zeta = match cfg.distribution {
            Distribution::Zipfian => zeta(cfg.record_count, cfg.zipf_theta),
            Distribution::Uniform => 0.0,
        };
        let insert_seq = cfg.record_count;
        YcsbDriver { cfg, rng: StdRng::seed_from_u64(seed), insert_seq, zipf_zeta, ops: 0 }
    }

    pub fn next_op(&mut self) -> Op {
        let x = self.rng.random_range(0..100u32);
        match self.cfg.workload {
            Workload::A => {
                if x < 50 {
                    Op::Read
                } else {
                    Op::Update
                }
            }
            Workload::B => {
                if x < 95 {
                    Op::Read
                } else {
                    Op::Update
                }
            }
            Workload::C => Op::Read,
            Workload::D => {
                if x < 95 {
                    Op::Read
                } else {
                    Op::Insert
                }
            }
            Workload::E => {
                if x < 95 {
                    Op::Scan
                } else {
                    Op::Insert
                }
            }
            Workload::F => {
                if x < 50 {
                    Op::Read
                } else {
                    Op::ReadModifyWrite
                }
            }
        }
    }

    fn next_key(&mut self) -> u64 {
        match self.cfg.distribution {
            Distribution::Uniform => self.rng.random_range(0..self.cfg.record_count),
            Distribution::Zipfian => {
                // Gray et al. quick zipfian over [0, n)
                let n = self.cfg.record_count;
                let theta = self.cfg.zipf_theta;
                let alpha = 1.0 / (1.0 - theta);
                let zetan = self.zipf_zeta;
                let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta))
                    / (1.0 - zeta(2, theta) / zetan);
                let u: f64 = self.rng.random();
                let uz = u * zetan;
                if uz < 1.0 {
                    0
                } else if uz < 1.0 + 0.5f64.powf(theta) {
                    1
                } else {
                    ((n as f64) * (eta * u - eta + 1.0).powf(alpha)) as u64 % n
                }
            }
        }
    }

    /// Run one operation. Returns the op kind executed.
    pub fn run(&mut self, r: &mut dyn SqlRunner) -> PgResult<Op> {
        let op = self.next_op();
        self.ops += 1;
        let mut rng_field = self.rng.random_range(0..FIELD_COUNT);
        match op {
            Op::Read => {
                let k = key_name(self.next_key());
                r.run(&format!("SELECT * FROM usertable WHERE ycsb_key = '{k}'"))?;
            }
            Op::Update => {
                let k = key_name(self.next_key());
                let v = field_value(&mut self.rng);
                r.run(&format!(
                    "UPDATE usertable SET field{rng_field} = '{v}' WHERE ycsb_key = '{k}'"
                ))?;
            }
            Op::Insert => {
                self.insert_seq += 1;
                let k = key_name(self.insert_seq);
                let mut values = vec![format!("'{k}'")];
                for _ in 0..FIELD_COUNT {
                    values.push(format!("'{}'", field_value(&mut self.rng)));
                }
                r.run(&format!("INSERT INTO usertable VALUES ({})", values.join(", ")))?;
            }
            Op::Scan => {
                let k = key_name(self.next_key());
                let len = self.rng.random_range(1..=100u32);
                r.run(&format!(
                    "SELECT * FROM usertable WHERE ycsb_key >= '{k}' ORDER BY ycsb_key LIMIT {len}"
                ))?;
            }
            Op::ReadModifyWrite => {
                let k = key_name(self.next_key());
                r.run(&format!("SELECT * FROM usertable WHERE ycsb_key = '{k}'"))?;
                let v = field_value(&mut self.rng);
                rng_field = self.rng.random_range(0..FIELD_COUNT);
                r.run(&format!(
                    "UPDATE usertable SET field{rng_field} = '{v}' WHERE ycsb_key = '{k}'"
                ))?;
            }
        }
        Ok(op)
    }
}

fn zeta(n: u64, theta: f64) -> f64 {
    let cap = n.min(10_000);
    let mut sum = 0.0;
    for i in 1..=cap {
        sum += 1.0 / (i as f64).powf(theta);
    }
    // extrapolate the tail for large n (integral approximation)
    if n > cap {
        sum += ((n as f64).powf(1.0 - theta) - (cap as f64).powf(1.0 - theta)) / (1.0 - theta);
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_a_mix_is_half_half() {
        let mut d = YcsbDriver::new(YcsbConfig::default(), 7);
        let mut reads = 0;
        for _ in 0..10_000 {
            if d.next_op() == Op::Read {
                reads += 1;
            }
        }
        assert!((reads as f64 / 10_000.0 - 0.5).abs() < 0.02);
    }

    #[test]
    fn zipfian_skews_towards_low_keys() {
        let cfg = YcsbConfig {
            distribution: Distribution::Zipfian,
            record_count: 1000,
            ..Default::default()
        };
        let mut d = YcsbDriver::new(cfg, 11);
        let mut low = 0;
        for _ in 0..10_000 {
            if d.next_key() < 100 {
                low += 1;
            }
        }
        // zipf(0.99): the first 10% of keys draw far more than 10% of accesses
        assert!(low > 4_000, "zipfian skew too weak: {low}");
    }

    #[test]
    fn uniform_covers_the_space() {
        let mut d = YcsbDriver::new(YcsbConfig::default(), 13);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..5_000 {
            seen.insert(d.next_key() / 1000);
        }
        assert_eq!(seen.len(), 10, "all deciles hit");
    }

    #[test]
    fn schema_parses() {
        sqlparse::parse(&schema_statement()).unwrap();
        sqlparse::parse(&distribution_statement()).unwrap();
    }

    #[test]
    fn keys_are_fixed_width_ordered() {
        assert!(key_name(5) < key_name(10));
        assert!(key_name(99) < key_name(100));
    }
}
