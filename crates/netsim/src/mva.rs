//! Exact Mean Value Analysis (MVA) for closed queueing networks.
//!
//! The paper's multi-client benchmarks (HammerDB with 250 vusers, pgbench
//! with 250 connections, YCSB with 256 threads) are closed systems: a fixed
//! client population issues a transaction, waits for it, thinks briefly, and
//! repeats. Given per-transaction *service demands* on each resource
//! (measured by running real transactions through the engine's cost model),
//! MVA computes the steady-state throughput and response time for N clients
//! — yielding the linear-then-saturating scaling curves the paper reports
//! without fabricating a single number.
//!
//! Multi-server stations (a 16-core node, a disk with high IOPS) use
//! Seidmann's transformation: a c-server station with demand D becomes a
//! queueing station with demand D/c plus a pure delay of D·(c−1)/c. Network
//! latency is a pure delay station.

/// How a station serves customers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StationKind {
    /// Contended resource: customers queue (CPU, disk).
    Queueing,
    /// Pure latency: no queueing (network round trips, client think time).
    Delay,
}

/// One resource in the closed network.
#[derive(Debug, Clone)]
pub struct Station {
    pub name: String,
    /// Total service demand per transaction at this station, in ms.
    pub demand_ms: f64,
    /// Number of parallel servers (cores, disk channels).
    pub servers: u32,
    pub kind: StationKind,
}

impl Station {
    pub fn queueing(name: &str, demand_ms: f64, servers: u32) -> Station {
        Station {
            name: name.to_string(),
            demand_ms,
            servers: servers.max(1),
            kind: StationKind::Queueing,
        }
    }

    pub fn delay(name: &str, demand_ms: f64) -> Station {
        Station { name: name.to_string(), demand_ms, servers: 1, kind: StationKind::Delay }
    }
}

/// MVA solution for one client count.
#[derive(Debug, Clone)]
pub struct MvaResult {
    pub clients: u32,
    /// Completed transactions per second.
    pub throughput_per_sec: f64,
    /// Mean response time per transaction (excluding think time), ms.
    pub response_ms: f64,
    /// Utilisation per *input* station, in input order (0..=1).
    pub utilization: Vec<f64>,
    /// Name of the saturated (highest-utilisation) station.
    pub bottleneck: String,
}

/// Solve the closed network exactly for `clients` customers with the given
/// per-transaction think time.
pub fn solve(stations: &[Station], clients: u32, think_ms: f64) -> MvaResult {
    // Seidmann transform: multi-server queueing → (queueing D/c) + delay
    struct Xformed {
        demand: f64,
        is_delay: bool,
    }
    let mut xs: Vec<Xformed> = Vec::new();
    let mut extra_delay = think_ms.max(0.0);
    for s in stations {
        match s.kind {
            StationKind::Delay => xs.push(Xformed { demand: s.demand_ms, is_delay: true }),
            StationKind::Queueing => {
                let c = s.servers as f64;
                xs.push(Xformed { demand: s.demand_ms / c, is_delay: false });
                if s.servers > 1 {
                    extra_delay += s.demand_ms * (c - 1.0) / c;
                }
            }
        }
    }

    // exact MVA recursion
    let mut queue = vec![0.0_f64; xs.len()];
    let mut throughput_ms = 0.0; // transactions per ms
    let mut response = 0.0;
    for n in 1..=clients.max(1) {
        response = 0.0;
        let mut residence = vec![0.0_f64; xs.len()];
        for (i, x) in xs.iter().enumerate() {
            residence[i] =
                if x.is_delay { x.demand } else { x.demand * (1.0 + queue[i]) };
            response += residence[i];
        }
        throughput_ms = n as f64 / (response + extra_delay);
        for i in 0..xs.len() {
            queue[i] = throughput_ms * residence[i];
        }
    }

    // utilisation per original station: X * D_i / c_i
    let mut utilization = vec![0.0_f64; stations.len()];
    for (i, s) in stations.iter().enumerate() {
        utilization[i] = match s.kind {
            StationKind::Delay => 0.0,
            StationKind::Queueing => {
                (throughput_ms * s.demand_ms / s.servers as f64).min(1.0)
            }
        };
    }
    let bottleneck = stations
        .iter()
        .zip(&utilization)
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(s, _)| s.name.clone())
        .unwrap_or_default();

    MvaResult {
        clients,
        throughput_per_sec: throughput_ms * 1000.0,
        response_ms: response,
        utilization,
        bottleneck,
    }
}

/// Sweep client counts (for scaling curves).
pub fn sweep(stations: &[Station], client_counts: &[u32], think_ms: f64) -> Vec<MvaResult> {
    client_counts.iter().map(|&n| solve(stations, n, think_ms)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_station_asymptotes_to_service_rate() {
        // one CPU, 10ms per txn → max 100 tx/s
        let st = vec![Station::queueing("cpu", 10.0, 1)];
        let low = solve(&st, 1, 0.0);
        assert!((low.throughput_per_sec - 100.0).abs() < 1e-6);
        let high = solve(&st, 100, 0.0);
        assert!((high.throughput_per_sec - 100.0).abs() < 0.5);
        assert!(high.response_ms > 900.0, "queueing delay grows: {}", high.response_ms);
        assert!(high.utilization[0] > 0.99);
    }

    #[test]
    fn think_time_caps_throughput_by_littles_law() {
        // N=10 clients, 90ms think, 10ms service → X ≤ 10/(0.1s) = 100 tx/s
        let st = vec![Station::queueing("cpu", 10.0, 4)];
        let r = solve(&st, 10, 90.0);
        assert!(r.throughput_per_sec <= 100.1);
        assert!(r.throughput_per_sec > 90.0, "uncontended: {}", r.throughput_per_sec);
    }

    #[test]
    fn multi_server_scales_capacity() {
        let one = solve(&[Station::queueing("cpu", 10.0, 1)], 64, 0.0);
        let four = solve(&[Station::queueing("cpu", 10.0, 4)], 64, 0.0);
        assert!(four.throughput_per_sec > 3.5 * one.throughput_per_sec);
    }

    #[test]
    fn bottleneck_identification() {
        let st = vec![
            Station::queueing("cpu", 2.0, 16),
            Station::queueing("disk", 8.0, 1),
            Station::delay("net", 1.0),
        ];
        let r = solve(&st, 200, 0.0);
        assert_eq!(r.bottleneck, "disk");
        assert!(r.utilization[1] > 0.99);
        assert!(r.utilization[0] < 0.5);
        // max throughput = 1/8ms = 125/s
        assert!((r.throughput_per_sec - 125.0).abs() < 1.0);
    }

    #[test]
    fn delay_stations_do_not_queue() {
        // pure delay: throughput = N / delay, linear in N
        let st = vec![Station::delay("net", 10.0)];
        let r1 = solve(&st, 1, 0.0);
        let r10 = solve(&st, 10, 0.0);
        assert!((r1.throughput_per_sec - 100.0).abs() < 1e-6);
        assert!((r10.throughput_per_sec - 1000.0).abs() < 1e-3);
    }

    #[test]
    fn adding_nodes_scales_a_balanced_workload() {
        // model: per-txn CPU demand split evenly over k worker nodes
        let total_cpu = 8.0;
        let mut last = 0.0;
        for k in [1u32, 2, 4, 8] {
            let stations: Vec<Station> = (0..k)
                .map(|i| Station::queueing(&format!("w{i}"), total_cpu / k as f64, 16))
                .collect();
            let r = solve(&stations, 250, 1.0);
            assert!(r.throughput_per_sec > last, "k={k}");
            last = r.throughput_per_sec;
        }
    }

    #[test]
    fn sweep_is_monotonic_in_clients() {
        let st = vec![Station::queueing("cpu", 5.0, 8), Station::delay("net", 2.0)];
        let rs = sweep(&st, &[1, 2, 4, 8, 16, 32, 64, 128], 0.0);
        for w in rs.windows(2) {
            assert!(w[1].throughput_per_sec >= w[0].throughput_per_sec - 1e-6);
            assert!(w[1].response_ms >= w[0].response_ms - 1e-6);
        }
    }
}
