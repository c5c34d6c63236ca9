//! The four workload patterns of §2 with their Table 1 scale requirements
//! and Table 2 capability matrix — as data, so the `figures_bench` report
//! and the Table-2 capability tests can regenerate the paper's tables.

/// The four workload patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pattern {
    MultiTenant,
    RealTimeAnalytics,
    HighPerformanceCrud,
    DataWarehousing,
}

impl Pattern {
    pub const ALL: [Pattern; 4] = [
        Pattern::MultiTenant,
        Pattern::RealTimeAnalytics,
        Pattern::HighPerformanceCrud,
        Pattern::DataWarehousing,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Pattern::MultiTenant => "Multi-tenant",
            Pattern::RealTimeAnalytics => "Real-time analytics",
            Pattern::HighPerformanceCrud => "High-performance CRUD",
            Pattern::DataWarehousing => "Data warehousing",
        }
    }

    /// Table 3: the benchmark standing in for this pattern.
    pub fn benchmark(self) -> &'static str {
        match self {
            Pattern::MultiTenant => "HammerDB TPC-C-based",
            Pattern::RealTimeAnalytics => "Custom microbenchmarks",
            Pattern::HighPerformanceCrud => "YCSB",
            Pattern::DataWarehousing => "Queries from TPC-H",
        }
    }
}

/// Table 1: scale requirements.
#[derive(Debug, Clone, Copy)]
pub struct ScaleRequirements {
    pub typical_latency_ms: f64,
    pub typical_throughput_per_sec: f64,
    pub typical_data_bytes: u64,
}

pub fn scale_requirements(p: Pattern) -> ScaleRequirements {
    const TB: u64 = 1 << 40;
    match p {
        Pattern::MultiTenant => ScaleRequirements {
            typical_latency_ms: 10.0,
            typical_throughput_per_sec: 10_000.0,
            typical_data_bytes: TB,
        },
        Pattern::RealTimeAnalytics => ScaleRequirements {
            typical_latency_ms: 100.0,
            typical_throughput_per_sec: 1_000.0,
            typical_data_bytes: 10 * TB,
        },
        Pattern::HighPerformanceCrud => ScaleRequirements {
            typical_latency_ms: 1.0,
            typical_throughput_per_sec: 100_000.0,
            typical_data_bytes: TB,
        },
        Pattern::DataWarehousing => ScaleRequirements {
            typical_latency_ms: 10_000.0,
            typical_throughput_per_sec: 10.0,
            typical_data_bytes: 10 * TB,
        },
    }
}

/// Table 2: required distributed-database capabilities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Capability {
    DistributedTables,
    CoLocatedDistributedTables,
    ReferenceTables,
    LocalTables,
    DistributedTransactions,
    DistributedSchemaChanges,
    QueryRouting,
    ParallelDistributedSelect,
    ParallelDistributedDml,
    CoLocatedDistributedJoins,
    NonCoLocatedDistributedJoins,
    ColumnarStorage,
    ParallelBulkLoading,
    ConnectionScaling,
}

impl Capability {
    pub const ALL: [Capability; 14] = [
        Capability::DistributedTables,
        Capability::CoLocatedDistributedTables,
        Capability::ReferenceTables,
        Capability::LocalTables,
        Capability::DistributedTransactions,
        Capability::DistributedSchemaChanges,
        Capability::QueryRouting,
        Capability::ParallelDistributedSelect,
        Capability::ParallelDistributedDml,
        Capability::CoLocatedDistributedJoins,
        Capability::NonCoLocatedDistributedJoins,
        Capability::ColumnarStorage,
        Capability::ParallelBulkLoading,
        Capability::ConnectionScaling,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Capability::DistributedTables => "Distributed tables",
            Capability::CoLocatedDistributedTables => "Co-located distributed tables",
            Capability::ReferenceTables => "Reference tables",
            Capability::LocalTables => "Local tables",
            Capability::DistributedTransactions => "Distributed transactions",
            Capability::DistributedSchemaChanges => "Distributed schema changes",
            Capability::QueryRouting => "Query routing",
            Capability::ParallelDistributedSelect => "Parallel, distributed SELECT",
            Capability::ParallelDistributedDml => "Parallel, distributed DML",
            Capability::CoLocatedDistributedJoins => "Co-located distributed joins",
            Capability::NonCoLocatedDistributedJoins => "Non-co-located distributed joins",
            Capability::ColumnarStorage => "Columnar storage",
            Capability::ParallelBulkLoading => "Parallel bulk loading",
            Capability::ConnectionScaling => "Connection scaling",
        }
    }
}

/// One cell of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Need {
    Yes,
    Some,
    No,
}

impl Need {
    pub fn cell(self) -> &'static str {
        match self {
            Need::Yes => "Yes",
            Need::Some => "Some",
            Need::No => "",
        }
    }
}

/// Table 2 contents.
pub fn requires(p: Pattern, c: Capability) -> Need {
    use Capability as C;
    use Need::*;
    use Pattern as P;
    match (p, c) {
        (_, C::DistributedTables)
        | (_, C::CoLocatedDistributedTables)
        | (_, C::ReferenceTables)
        | (_, C::DistributedTransactions)
        | (_, C::DistributedSchemaChanges) => Yes,
        (P::MultiTenant | P::RealTimeAnalytics, C::LocalTables) => Some,
        (_, C::LocalTables) => No,
        (P::MultiTenant | P::RealTimeAnalytics | P::HighPerformanceCrud, C::QueryRouting) => Yes,
        (_, C::QueryRouting) => No,
        (P::RealTimeAnalytics | P::DataWarehousing, C::ParallelDistributedSelect) => Yes,
        (_, C::ParallelDistributedSelect) => No,
        (P::RealTimeAnalytics, C::ParallelDistributedDml) => Yes,
        (_, C::ParallelDistributedDml) => No,
        (P::MultiTenant | P::RealTimeAnalytics | P::DataWarehousing, C::CoLocatedDistributedJoins) => Yes,
        (_, C::CoLocatedDistributedJoins) => No,
        (P::DataWarehousing, C::NonCoLocatedDistributedJoins) => Yes,
        (_, C::NonCoLocatedDistributedJoins) => No,
        (P::RealTimeAnalytics, C::ColumnarStorage) => Some,
        (P::DataWarehousing, C::ColumnarStorage) => Yes,
        (_, C::ColumnarStorage) => No,
        (P::RealTimeAnalytics | P::DataWarehousing, C::ParallelBulkLoading) => Yes,
        (_, C::ParallelBulkLoading) => No,
        (P::HighPerformanceCrud, C::ConnectionScaling) => Yes,
        (_, C::ConnectionScaling) => No,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values_match_paper() {
        let mt = scale_requirements(Pattern::MultiTenant);
        assert_eq!(mt.typical_latency_ms, 10.0);
        assert_eq!(mt.typical_throughput_per_sec, 10_000.0);
        let hc = scale_requirements(Pattern::HighPerformanceCrud);
        assert_eq!(hc.typical_latency_ms, 1.0);
        assert_eq!(hc.typical_throughput_per_sec, 100_000.0);
    }

    #[test]
    fn table2_spot_checks() {
        use Capability as C;
        use Pattern as P;
        assert_eq!(requires(P::MultiTenant, C::QueryRouting), Need::Yes);
        assert_eq!(requires(P::DataWarehousing, C::QueryRouting), Need::No);
        assert_eq!(requires(P::DataWarehousing, C::NonCoLocatedDistributedJoins), Need::Yes);
        assert_eq!(requires(P::HighPerformanceCrud, C::ConnectionScaling), Need::Yes);
        assert_eq!(requires(P::RealTimeAnalytics, C::ColumnarStorage), Need::Some);
        assert_eq!(requires(P::MultiTenant, C::LocalTables), Need::Some);
        // every pattern needs the four table-level basics
        for p in Pattern::ALL {
            assert_eq!(requires(p, C::DistributedTables), Need::Yes);
            assert_eq!(requires(p, C::DistributedTransactions), Need::Yes);
        }
    }
}
