//! Virtual-time cost model.
//!
//! Every figure in the paper is reported in *simulated* time: the engine
//! executes real queries on real (scaled-down) data, while this module
//! accounts what the same work would cost on the paper's hardware (16 vcpu
//! Azure VMs, 64 GB memory, 7500 IOPS network-attached disks). Wall-clock
//! time never enters a benchmark number.

/// Simulated page size, matching PostgreSQL's 8 KiB.
pub const PAGE_SIZE: u64 = 8192;

// Cost-model constants. The paper measures one machine shape, so these are
// fixed: every engine and every benchmark charges the same prices.

/// Simulated CPU cores per node (parallel task streams the node can run at
/// full speed). The paper's VMs have 16 vcpus.
pub const CORES: u32 = 16;
/// Simulated memory per node in bytes (the buffer pool's default capacity).
/// Paper: 64 GB.
pub const MEM_BYTES: u64 = 64 * 1024 * 1024 * 1024;
/// CPU time to process one tuple through one operator (ms).
pub const CPU_TUPLE_MS: f64 = 0.0005;
/// CPU time per operator/expression evaluation step on a tuple (ms).
pub const CPU_OPERATOR_MS: f64 = 0.0001;
/// CPU time for one B-tree descent (ms).
pub const INDEX_DESCEND_MS: f64 = 0.02;
/// Time to read one 8 KiB page from a 7500 IOPS network-attached disk, as
/// in the paper's setup (ms).
pub const PAGE_IO_MS: f64 = 1000.0 / 7500.0;
/// CPU time to parse + plan a trivial statement (ms); complex planners
/// add their own overhead on top.
pub const BASE_PLAN_MS: f64 = 0.05;
/// One same-datacenter network round trip between any two nodes (ms).
pub const NET_RTT_MS: f64 = 0.5;
/// Cost to establish a new backend connection: process fork + auth (ms).
pub const CONNECT_MS: f64 = 15.0;
/// Per-tuple cost of sending a row over the wire (ms).
pub const NET_TUPLE_MS: f64 = 0.0005;
/// Fixed dispatch cost of one vectorized kernel invocation over a batch
/// (ms). Charged once per kernel per batch, independent of batch fill.
pub const BATCH_KERNEL_MS: f64 = 0.004;
/// Per-value cost inside a vectorized kernel (ms). Tight loop over a
/// column vector: no per-tuple interpreter dispatch, so this sits far
/// below `CPU_TUPLE_MS`.
pub const BATCH_VALUE_MS: f64 = 0.00002;

/// Accumulated simulated resource consumption for one statement or task.
///
/// `cpu_ms` and `io_ms` are *service demands* on distinct resources; the
/// closed-loop solver in `netsim` treats them separately, which is what lets
/// the benchmarks show I/O-bound single nodes vs CPU-bound clusters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimCost {
    /// CPU service demand in milliseconds.
    pub cpu_ms: f64,
    /// Disk service demand in milliseconds.
    pub io_ms: f64,
    /// Network latency (round trips × RTT), in milliseconds. Latency, not
    /// bandwidth: it elapses but does not occupy CPU or disk.
    pub net_ms: f64,
    /// Pages read through the buffer pool (hits + misses).
    pub pages_read: u64,
    /// Pages that missed the buffer pool and hit the disk.
    pub page_misses: u64,
    /// Tuples processed by executor operators.
    pub rows_processed: u64,
    /// Column batches processed by vectorized kernels (0 where no kernel
    /// ran); surfaces in EXPLAIN ANALYZE / trace spans as `batches=N`.
    pub batches: u64,
}

impl SimCost {
    pub const ZERO: SimCost = SimCost {
        cpu_ms: 0.0,
        io_ms: 0.0,
        net_ms: 0.0,
        pages_read: 0,
        page_misses: 0,
        rows_processed: 0,
        batches: 0,
    };

    /// Total elapsed simulated time if the work ran serially.
    pub fn total_ms(&self) -> f64 {
        self.cpu_ms + self.io_ms + self.net_ms
    }

    pub fn add(&mut self, other: &SimCost) {
        self.cpu_ms += other.cpu_ms;
        self.io_ms += other.io_ms;
        self.net_ms += other.net_ms;
        self.pages_read += other.pages_read;
        self.page_misses += other.page_misses;
        self.rows_processed += other.rows_processed;
        self.batches += other.batches;
    }

    pub fn add_cpu(&mut self, ms: f64) {
        self.cpu_ms += ms;
    }

    /// Account `rows` tuples flowing through one operator.
    pub fn add_tuples(&mut self, rows: u64) {
        self.rows_processed += rows;
        self.cpu_ms += CPU_TUPLE_MS * rows as f64;
    }

    /// Account a buffer-pool access of `pages` pages, `misses` of which hit disk.
    pub fn add_pages(&mut self, pages: u64, misses: u64) {
        self.pages_read += pages;
        self.page_misses += misses;
        self.io_ms += PAGE_IO_MS * misses as f64;
    }

    /// Account `kernels` vectorized kernel invocations touching `values`
    /// vector lanes in total. Deliberately does NOT bump `rows_processed` —
    /// callers account scanned tuples once per scan, not once per kernel.
    pub fn add_kernels(&mut self, kernels: u64, values: u64) {
        self.cpu_ms += BATCH_KERNEL_MS * kernels as f64 + BATCH_VALUE_MS * values as f64;
    }
}

impl std::ops::Add for SimCost {
    type Output = SimCost;
    fn add(mut self, rhs: SimCost) -> SimCost {
        SimCost::add(&mut self, &rhs);
        self
    }
}

/// Number of simulated pages occupied by `rows` rows of `row_width` bytes.
pub fn pages_for(rows: u64, row_width: u32) -> u64 {
    let rows_per_page = (PAGE_SIZE / row_width.max(1) as u64).max(1);
    rows.div_ceil(rows_per_page)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_math() {
        assert_eq!(pages_for(0, 100), 0);
        assert_eq!(pages_for(1, 100), 1);
        // 81 rows of 100 bytes per 8 KiB page
        assert_eq!(pages_for(81, 100), 1);
        assert_eq!(pages_for(82, 100), 2);
        // degenerate widths never divide by zero
        assert_eq!(pages_for(10, 0), 1);
        assert_eq!(pages_for(10, 100_000), 10);
    }

    #[test]
    fn cost_accumulation() {
        let mut c = SimCost::ZERO;
        c.add_tuples(1000);
        c.add_pages(100, 40);
        c.net_ms += 2.0 * NET_RTT_MS;
        assert_eq!(c.rows_processed, 1000);
        assert_eq!(c.pages_read, 100);
        assert_eq!(c.page_misses, 40);
        assert!(c.cpu_ms > 0.0 && c.io_ms > 0.0 && c.net_ms > 0.0);
        let total = c.total_ms();
        assert!((total - (c.cpu_ms + c.io_ms + c.net_ms)).abs() < 1e-9);
    }

    #[test]
    fn default_io_matches_7500_iops() {
        assert!((PAGE_IO_MS - 0.1333).abs() < 0.001);
    }
}
