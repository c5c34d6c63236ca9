//! Benchmark workload generators and drivers for the citrus reproduction —
//! the Table 3 benchmarks of the paper:
//!
//! * [`tpcc`] — HammerDB-style TPC-C-derived OLTP (multi-tenant, Figure 6);
//! * [`gharchive`] — synthetic GitHub-Archive event stream (real-time
//!   analytics, Figure 7);
//! * [`ycsb`] — Yahoo! Cloud Serving Benchmark (high-performance CRUD,
//!   Figure 10);
//! * [`tpch`] — TPC-H subset (data warehousing, Figure 8);
//! * [`pgbench`] — the two-update distributed-transaction microbenchmark
//!   (Figure 9);
//! * [`patterns`] — the Table 1 / Table 2 requirement matrices as data;
//! * [`runner`] — the driver-to-connection seam shared by all of them.

pub mod gharchive;
pub mod patterns;
pub mod pgbench;
pub mod runner;
pub mod sim;
pub mod tpcc;
pub mod tpch;
pub mod ycsb;

pub use runner::{ClusterRunner, LocalRunner, MxRunner, SqlRunner};
