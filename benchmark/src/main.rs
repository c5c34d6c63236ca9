//! Wall-clock benchmark of the four §4 workload patterns (and the Figure 9
//! distributed-transaction microbenchmark), with a per-layer traced run.
//!
//! `benchmark --workload W --seed N --seconds S --trace 0|1` measures one
//! workload in this process and prints one JSON object as its last line.
//! Without `--workload` it runs every workload, untraced and traced, each in
//! a child process, and prints every metric; `--aa` does that twice and
//! compares. See README.md.
//!
//! Load shape: closed loop, one client thread — the system is an in-process
//! library whose callers wait for each reply. The cluster is pinned below,
//! never derived from the machine.

mod metrics;
mod stats;
mod suite;
mod trace;
mod workload;

use citrus::cluster::{Cluster, ClusterConfig};
use citrus::planner::PlannerKind;
use metrics::{Report, END_TO_END, PER_LAYER};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{Client, NullRunner, Trace};
use workload::{Kind, OpStream, Spec};
use workloads::runner::{ClusterRunner, MxRunner, SqlRunner};

const WORKERS: usize = 4;
const EXECUTOR_THREADS: usize = 2;
/// Set-up is repeated, once per `WINDOWS_PER_SETUP` windows and at most this
/// often, and its median reported, so one slow page-fault storm does not
/// decide `setup_s`.
const MAX_SETUPS: usize = 5;
const WINDOWS_PER_SETUP: usize = 4;
/// The wire time `dtxn_wire` runs with; its measured cost is reported on
/// every workload as `netsim.wire_sleep_us`.
const WIRE_US: u64 = 200;

/// The cluster every arm runs on, but for the one field an arm varies.
pub fn pinned_config(real_rtt_us: u64, executor_threads: usize, tracing: bool) -> ClusterConfig {
    ClusterConfig {
        shard_count: 16,
        executor_threads,
        real_rtt_us,
        tracing,
        plan_cache: true,
        pipeline: true,
        local_execution: true,
        mx_fencing: true,
        snapshot_isolation: false,
        ..ClusterConfig::default()
    }
}

/// One system under test with its loaded data, client and operation stream.
struct Arm {
    cluster: Option<Arc<Cluster>>,
    client: Client,
    /// A second connection, for the VACUUM between windows.
    admin: Box<dyn SqlRunner>,
    stream: Box<dyn OpStream>,
    setup_s: f64,
}

fn fail(what: &str, e: impl std::fmt::Display) -> ! {
    eprintln!("benchmark: {what}: {e}");
    std::process::exit(1)
}

fn cluster_arm(spec: &Spec, seed: u64, executor_threads: usize, tracing: bool) -> Arm {
    let t0 = Instant::now();
    let cluster = Cluster::new(pinned_config(spec.real_rtt_us, executor_threads, tracing));
    for _ in 0..WORKERS {
        cluster
            .add_worker()
            .unwrap_or_else(|e| fail("add worker", e));
    }
    let session = || {
        cluster
            .session()
            .unwrap_or_else(|e| fail("open session", e))
    };
    let mut admin = ClusterRunner { session: session() };
    workload::setup(spec, &mut admin, true, seed).unwrap_or_else(|e| fail("set-up", e));
    let setup_s = t0.elapsed().as_secs_f64();
    let inner: Box<dyn SqlRunner> = if spec.mx {
        Box::new(MxRunner {
            session: cluster.mx_session(),
        })
    } else {
        Box::new(ClusterRunner { session: session() })
    };
    Arm {
        client: Client { inner, trace: None },
        admin: Box::new(admin),
        stream: workload::stream(spec, seed, true),
        cluster: Some(cluster),
        setup_s,
    }
}

fn single_node_arm(spec: &Spec, seed: u64) -> Arm {
    let t0 = Instant::now();
    let mut admin = workload::single_node();
    workload::setup(spec, &mut admin, false, seed).unwrap_or_else(|e| fail("set-up", e));
    let session = admin
        .session
        .engine()
        .session()
        .unwrap_or_else(|e| fail("open session", e));
    Arm {
        cluster: None,
        client: Client {
            inner: Box::new(workloads::runner::LocalRunner { session }),
            trace: None,
        },
        admin: Box::new(admin),
        stream: workload::stream(spec, seed, false),
        setup_s: t0.elapsed().as_secs_f64(),
    }
}

fn null_arm(spec: &Spec, seed: u64) -> Arm {
    Arm {
        cluster: None,
        client: Client {
            inner: Box::new(NullRunner),
            trace: None,
        },
        admin: Box::new(NullRunner),
        stream: workload::stream(spec, seed, true),
        setup_s: 0.0,
    }
}

/// What one window of `Spec::window_ops` operations measured. Latencies are
/// in microseconds.
#[derive(Default)]
struct Window {
    ops: usize,
    failed: usize,
    /// Wall time of the window, the generator and this loop included.
    wall_ns: u64,
    /// Sum of the operations' own times: what a traced arm compares, since
    /// its wall time also holds the replays.
    op_ns: u64,
    vacuum_ns: u64,
    headline: Vec<f64>,
    read: Vec<f64>,
    write: Vec<f64>,
    dist: Vec<f64>,
    copy: (u64, u64),
    insert_select: (u64, u64),
    rollup_read: (u64, u64),
}

impl Window {
    fn part(&mut self, kind: Kind, ns: u64, rows: u64) {
        let us = ns as f64 / 1e3;
        match kind {
            Kind::Read => self.read.push(us),
            Kind::Write => self.write.push(us),
            Kind::Copy => {
                self.write.push(us);
                self.copy = (self.copy.0 + rows, self.copy.1 + ns);
            }
            Kind::InsertSelect => {
                self.insert_select = (self.insert_select.0 + rows, self.insert_select.1 + ns)
            }
            Kind::RollupRead => {
                self.rollup_read = (self.rollup_read.0 + 1, self.rollup_read.1 + ns)
            }
            Kind::Other => {}
        }
    }
}

impl Arm {
    fn twopc_commits(&self) -> u64 {
        self.cluster
            .as_ref()
            .map_or(0, |c| c.metrics.twopc_commits.load(Ordering::Relaxed))
    }

    fn op(&mut self, index: u64, w: &mut Window) {
        let before = self.twopc_commits();
        if let Some(t) = &mut self.client.trace {
            t.begin_op(index);
        }
        let t0 = Instant::now();
        let out = self.stream.next(&mut self.client);
        let ns = t0.elapsed().as_nanos() as u64;
        let twopc = self.twopc_commits() > before;
        if let Some(t) = &mut self.client.trace {
            t.end_op(twopc);
        }
        w.ops += 1;
        w.failed += usize::from(out.failed);
        w.op_ns += ns;
        let us = ns as f64 / 1e3;
        if out.headline {
            w.headline.push(us);
        }
        if twopc {
            w.dist.push(us);
        }
        if out.parts.is_empty() {
            w.part(out.kind, ns, 0);
        }
        for p in &out.parts {
            w.part(p.kind, p.ns, p.rows);
        }
    }

    /// Unmeasured operations; a trace is attached only after them.
    fn warm_up(&mut self, spec: &Spec) {
        let mut unmeasured = Window::default();
        for i in 0..spec.warmup_ops {
            self.op(i as u64, &mut unmeasured);
        }
        if unmeasured.failed > 0 {
            fail(
                "warm-up",
                format!("{} operations failed", unmeasured.failed),
            );
        }
    }

    /// Up to `windows` windows; stops early once `budget` is spent, so a slow
    /// machine cannot run the whole suite out of time.
    fn run(&mut self, spec: &Spec, windows: usize, budget: Duration) -> Vec<Window> {
        let start = Instant::now();
        let mut done = Vec::with_capacity(windows);
        for n in 0..windows {
            let mut w = Window::default();
            let t0 = Instant::now();
            for i in 0..spec.window_ops {
                self.op((n * spec.window_ops + i) as u64, &mut w);
            }
            w.wall_ns = t0.elapsed().as_nanos() as u64;
            let t1 = Instant::now();
            for table in spec.vacuum {
                self.admin
                    .run(&format!("VACUUM {table}"))
                    .unwrap_or_else(|e| fail("VACUUM between windows", e));
            }
            w.vacuum_ns = t1.elapsed().as_nanos() as u64;
            done.push(w);
            if start.elapsed() > budget && n + 1 < windows {
                println!("# time budget spent after {} of {windows} windows", n + 1);
                break;
            }
        }
        done
    }
}

/// Each window's operations per second of `ns`.
fn window_rates(windows: &[Window], ns: impl Fn(&Window) -> u64) -> Vec<f64> {
    windows
        .iter()
        .map(|w| w.ops as f64 * 1e9 / ns(w).max(1) as f64)
        .collect()
}

fn ops_per_s(windows: &[Window], ns: impl Fn(&Window) -> u64) -> f64 {
    stats::median(&mut window_rates(windows, ns)).expect("at least one window ran")
}

fn headline_p50(windows: &mut [Window]) -> f64 {
    stats::over_windows(windows.iter_mut().map(|w| &mut w.headline), 0.5)
        .expect("every window has headline operations")
}

fn totals(windows: &[Window]) -> (usize, usize) {
    (
        windows.iter().map(|w| w.ops).sum(),
        windows.iter().map(|w| w.failed).sum(),
    )
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status")
        .unwrap_or_else(|e| fail("read /proc/self/status", e));
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or_else(|| fail("read /proc/self/status", "no VmHWM line"));
    kb / 1024.0
}

/// Median cost in nanoseconds of `f`, over `n` calls.
fn median_ns(n: usize, mut f: impl FnMut()) -> f64 {
    let mut costs: Vec<f64> = (0..n)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    stats::median(&mut costs).expect("n > 0")
}

fn header(spec: &Spec, seed: u64, windows: usize, traced: bool, wire_sleep_ns: f64) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if nproc < 2 {
        fail(
            "environment",
            "the pinned executor_threads = 2 needs at least 2 cores",
        );
    }
    let c = pinned_config(spec.real_rtt_us, EXECUTOR_THREADS, traced);
    println!(
        "# workload {} ({}), seed {seed}, traced run: {traced}",
        spec.name, spec.op
    );
    println!(
        "# {windows} windows x {} operations after {} warm-up operations; one closed-loop client",
        spec.window_ops, spec.warmup_ops
    );
    println!(
        "# nproc {nproc}; cluster 1 coordinator + {WORKERS} workers, shard_count {}, \
         executor_threads {}, real_rtt_us {}, plan_cache {}, pipeline {}, local_execution {}, \
         mx_fencing {}, snapshot_isolation {}, tracing {}",
        c.shard_count,
        c.executor_threads,
        c.real_rtt_us,
        c.plan_cache,
        c.pipeline,
        c.local_execution,
        c.mx_fencing,
        c.snapshot_isolation,
        c.tracing
    );
    println!(
        "# Instant::now() pair {:.0} ns; thread::sleep({WIRE_US} us) takes {:.1} us",
        median_ns(1001, || {
            std::hint::black_box(Instant::now());
        }),
        wire_sleep_ns / 1e3
    );
}

fn check(arm: &Arm, failed: usize) -> bool {
    let cluster = arm.cluster.as_ref().expect("the checked arm is a cluster");
    let checked = arm.stream.check(cluster);
    match &checked {
        Ok(()) => println!("# correctness: ok, {failed} failed operations"),
        Err(e) => println!("# correctness: FAILED: {e}"),
    }
    checked.is_ok()
}

/// The untraced run: every end-to-end metric.
fn end_to_end(spec: &Spec, seed: u64, windows: usize) -> Report {
    let repeats = (windows / WINDOWS_PER_SETUP).clamp(1, MAX_SETUPS);
    let mut setups = Vec::with_capacity(repeats);
    let mut arm = cluster_arm(spec, seed, EXECUTOR_THREADS, false);
    for _ in 1..repeats {
        setups.push(arm.setup_s);
        drop(arm);
        arm = cluster_arm(spec, seed, EXECUTOR_THREADS, false);
    }
    setups.push(arm.setup_s);
    arm.warm_up(spec);
    let mut done = arm.run(spec, windows, budget(windows));

    let (attempted, failed) = totals(&done);
    let rates: Vec<String> = window_rates(&done, |w| w.wall_ns)
        .iter()
        .map(|r| format!("{r:.0}"))
        .collect();
    println!(
        "# operations per second, window by window: {}",
        rates.join(" ")
    );
    let p50 = headline_p50(&mut done);
    let tail = stats::over_windows(done.iter_mut().map(|w| &mut w.headline), spec.tail_q);
    let class = |samples: Option<f64>| samples.unwrap_or(p50);
    let read = class(stats::over_windows(
        done.iter_mut().map(|w| &mut w.read),
        0.5,
    ));
    let write = class(stats::over_windows(
        done.iter_mut().map(|w| &mut w.write),
        0.5,
    ));
    let dist = class(stats::over_windows(
        done.iter_mut().map(|w| &mut w.dist),
        0.5,
    ));
    let samples = |f: fn(&Window) -> usize| done.iter().map(f).sum::<usize>();
    println!(
        "# samples: {} latency, {} read, {} write, {} two-phase; tail is p{:.0}",
        samples(|w| w.headline.len()),
        samples(|w| w.read.len()),
        samples(|w| w.write.len()),
        samples(|w| w.dist.len()),
        spec.tail_q * 100.0
    );
    let correct = check(&arm, failed);
    let values = vec![
        (
            "setup_s",
            stats::median(&mut setups).expect("set up at least once"),
        ),
        ("throughput_ops_s", ops_per_s(&done, |w| w.wall_ns)),
        ("latency_p50_us", p50),
        (
            "latency_tail_us",
            tail.expect("every window has headline operations"),
        ),
        ("read_p50_us", read),
        ("write_p50_us", write),
        ("dist_txn_p50_us", dist),
        ("peak_rss_mb", peak_rss_mb()),
    ];
    Report {
        correct,
        attempted,
        failed,
        metrics: &END_TO_END,
        values,
    }
}

/// A window is sized to about 0.4 s on the seed commit; a run may take 1.3
/// times its nominal length before it is cut short.
const WINDOWS_PER_SECOND: usize = 2;

fn budget(windows: usize) -> Duration {
    Duration::from_secs_f64(windows as f64 / WINDOWS_PER_SECOND as f64 * 1.3)
}

/// Always-on public counters, read from outside.
struct Counters {
    tiers: [u64; 4],
    cache_hits: u64,
    cache_misses: u64,
    local_exec_tasks: u64,
    task_retries: u64,
    exchanges: u64,
    coalesced: u64,
    wal_records: u64,
    rollup_deltas: u64,
    rollup_refreshes: u64,
}

impl Counters {
    fn read(c: &Arc<Cluster>) -> Counters {
        let m = &c.metrics;
        let load = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed);
        let cache: Vec<_> = c
            .node_ids()
            .into_iter()
            .filter_map(|id| c.extension(id).ok())
            .map(|e| e.plan_cache_stats())
            .collect();
        Counters {
            tiers: [
                PlannerKind::FastPath,
                PlannerKind::Router,
                PlannerKind::Pushdown,
                PlannerKind::JoinOrder,
            ]
            .map(|k| m.tier_count(k)),
            cache_hits: cache.iter().map(|s| s.hits).sum(),
            cache_misses: cache.iter().map(|s| s.misses).sum(),
            local_exec_tasks: load(&m.local_exec_tasks),
            task_retries: c.task_retry_count(),
            exchanges: load(&m.pipeline_exchanges),
            coalesced: load(&m.pipeline_coalesced),
            wal_records: c.nodes().iter().map(|n| n.engine().wal.lsn()).sum(),
            rollup_deltas: load(&m.rollup_deltas_applied),
            rollup_refreshes: load(&m.rollup_refreshes),
        }
    }
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// The traced run: every per-layer metric. Five arms run the same operation
/// prefix: the pinned cluster untraced (public counters, and the base of
/// every ratio), the same traced, one at `executor_threads = 1`, a bare
/// `pgmini` engine, and a null runner.
fn per_layer(spec: &Spec, seed: u64, windows: usize, wire_sleep_ns: f64) -> Report {
    let budget = budget(windows);
    let measure = |arm: &mut Arm| {
        arm.warm_up(spec);
        let done = arm.run(spec, windows, budget);
        if totals(&done).1 > 0 {
            fail("traced run", "operations failed");
        }
        done
    };

    let mut base = cluster_arm(spec, seed, EXECUTOR_THREADS, false);
    base.warm_up(spec);
    let cluster = base.cluster.clone().expect("a cluster arm");
    let before = Counters::read(&cluster);
    let mut untraced = base.run(spec, windows, budget);
    let after = Counters::read(&cluster);
    let (ops, base_failed) = totals(&untraced);
    let per_op = |a: u64, b: u64| (b - a) as f64 / ops as f64;
    let twopc_ops: usize = untraced.iter().map(|w| w.dist.len()).sum();
    let base_p50 = headline_p50(&mut untraced);
    let base_rate = ops_per_s(&untraced, |w| w.op_ns);
    let sum = |f: fn(&Window) -> (u64, u64)| {
        untraced
            .iter()
            .map(f)
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
    };
    let per_s = |(count, ns): (u64, u64)| ratio(count as f64 * 1e9, ns as f64);
    let mut vacuum_ms: Vec<f64> = untraced.iter().map(|w| w.vacuum_ns as f64 / 1e6).collect();
    drop(base);

    let mut traced = cluster_arm(spec, seed, EXECUTOR_THREADS, true);
    traced.warm_up(spec);
    let wire_ns = if spec.real_rtt_us > 0 {
        wire_sleep_ns
    } else {
        0.0
    };
    let traced_cluster = traced.cluster.clone().expect("a cluster arm");
    let every = trace::sample_every(spec.window_ops);
    traced.client.trace =
        Some(Trace::new(&traced_cluster, wire_ns, every).unwrap_or_else(|e| fail("open trace", e)));
    let traced_windows = traced.run(spec, windows, budget);
    let (traced_ops, traced_failed) = totals(&traced_windows);
    let traced_rate = ops_per_s(&traced_windows, |w| w.op_ns);
    let correct = check(&traced, traced_failed);
    let trace = traced.client.trace.take().expect("attached above");
    let spans = trace::spans_path(spec.name);
    trace
        .write_spans(&spans)
        .unwrap_or_else(|e| fail("write spans", e));
    println!(
        "# {} spans in {}; one operation in {every} replayed, {} of its statements could not be",
        trace.span_count(),
        spans.display(),
        trace.totals.replay_skipped
    );
    let t = &trace.totals;
    let traced_ops = traced_ops as f64;

    let one_thread_rate = ops_per_s(&measure(&mut cluster_arm(spec, seed, 1, false)), |w| {
        w.op_ns
    });
    let single_p50 = headline_p50(&mut measure(&mut single_node_arm(spec, seed)));
    let mut null = null_arm(spec, seed);
    let generated = null.run(spec, windows, budget);
    let gen_ns =
        generated.iter().map(|w| w.wall_ns).sum::<u64>() as f64 / totals(&generated).0 as f64;
    let gen_share = gen_ns / 1e3 / base_p50;
    println!(
        "# the generator takes {:.2}% of the median operation",
        gen_share * 100.0
    );
    let guarded = gen_share < 0.10;
    if !guarded {
        println!("# guard FAILED: the generator is more than 10% of what is measured");
    }

    let tier_total: u64 = (0..4).map(|i| after.tiers[i] - before.tiers[i]).sum();
    let tier = |i: usize| ratio((after.tiers[i] - before.tiers[i]) as f64, tier_total as f64);
    let cache_hits = (after.cache_hits - before.cache_hits) as f64;
    let cache_lookups = cache_hits + (after.cache_misses - before.cache_misses) as f64;
    let values = vec![
        ("sqlparse.stmts_per_op", t.stmts as f64 / traced_ops),
        ("sqlparse.parse_ns_per_stmt", t.parse_ns.mean()),
        ("sqlparse.deparse_ns_per_stmt", t.deparse_ns.mean()),
        ("planner.shape_hash_ns_per_stmt", t.shape_hash_ns.mean()),
        ("planner.plan_ns_per_stmt", t.plan_ns.mean()),
        ("planner.cache_hit_ratio", ratio(cache_hits, cache_lookups)),
        ("planner.tasks_per_stmt", t.tasks.mean()),
        ("planner.tier_fast_path_share", tier(0)),
        ("planner.tier_router_share", tier(1)),
        ("planner.tier_pushdown_share", tier(2)),
        ("planner.tier_join_order_share", tier(3)),
        (
            "executor.local_exec_tasks_per_op",
            per_op(before.local_exec_tasks, after.local_exec_tasks),
        ),
        (
            "executor.task_retries",
            (after.task_retries - before.task_retries) as f64,
        ),
        ("executor.fanout_speedup_t2", base_rate / one_thread_rate),
        (
            "executor.coord_self_us_per_stmt",
            t.coord_self_ns.mean() / 1e3,
        ),
        (
            "netsim.exchanges_per_op",
            per_op(before.exchanges, after.exchanges),
        ),
        (
            "netsim.coalesced_per_op",
            per_op(before.coalesced, after.coalesced),
        ),
        ("netsim.wire_sleep_us", wire_sleep_ns / 1e3),
        ("netsim.virtual_ms_per_op", t.virtual_ms / traced_ops),
        (
            "netsim.virtual_net_ms_per_op",
            t.virtual_net_ms / traced_ops,
        ),
        ("extension.twopc_share", twopc_ops as f64 / ops as f64),
        (
            "extension.twopc_commit_share",
            ratio(t.twopc_commit_ns as f64, t.twopc_txn_ns as f64),
        ),
        (
            "extension.delegated_commit_share",
            ratio(t.delegated_commit_ns as f64, t.delegated_txn_ns as f64),
        ),
        ("pgmini.exec_ns_per_task", t.exec_ns.mean()),
        ("pgmini.single_node_us_per_op", single_p50),
        ("core.dist_overhead_ratio", base_p50 / single_p50),
        (
            "pgmini.wal_records_per_op",
            per_op(before.wal_records, after.wal_records),
        ),
        (
            "pgmini.vacuum_ms_per_window",
            stats::median(&mut vacuum_ms).expect("at least one window ran"),
        ),
        ("copy.rows_per_s", per_s(sum(|w| w.copy))),
        ("insert_select.rows_per_s", per_s(sum(|w| w.insert_select))),
        ("rollup.reads_per_s", per_s(sum(|w| w.rollup_read))),
        (
            "rollup.deltas_applied_per_op",
            per_op(before.rollup_deltas, after.rollup_deltas),
        ),
        (
            "rollup.refreshes_per_op",
            per_op(before.rollup_refreshes, after.rollup_refreshes),
        ),
        ("trace.overhead_ratio", traced_rate / base_rate),
        ("workloads.gen_ns_per_op", gen_ns),
    ];
    Report {
        correct: correct && guarded,
        attempted: ops + traced_ops as usize,
        failed: base_failed + traced_failed,
        metrics: &PER_LAYER,
        values,
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: usize,
    trace: bool,
    aa: bool,
    manifest: bool,
}

fn usage(problem: &str) -> ! {
    eprintln!(
        "benchmark: {problem}\n\
         usage: benchmark [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--aa]\n\
         workloads: {}",
        workload::SPECS.map(|s| s.name).join(", ")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: None,
        seed: 42,
        seconds: metrics::RUN_SECONDS,
        trace: false,
        aa: false,
        manifest: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        let number = |v: String| {
            v.parse::<u64>()
                .unwrap_or_else(|_| usage(&format!("{v} is not a number")))
        };
        match flag.as_str() {
            "--workload" => a.workload = Some(value()),
            "--seed" => a.seed = number(value()),
            "--seconds" => a.seconds = number(value()).clamp(1, 60) as usize,
            "--trace" => a.trace = number(value()) != 0,
            "--smoke" => a.seconds = 1,
            "--aa" => a.aa = true,
            "--manifest" => a.manifest = true,
            other => usage(&format!("unknown argument {other}")),
        }
    }
    a
}

fn main() {
    let args = parse_args();
    if args.manifest {
        print!("{}", metrics::manifest());
        return;
    }
    let Some(name) = &args.workload else {
        std::process::exit(suite::run(args.seed, args.seconds, args.aa));
    };
    let spec = workload::spec(name).unwrap_or_else(|| usage(&format!("no workload named {name}")));
    let wire_sleep_ns = median_ns(51, || std::thread::sleep(Duration::from_micros(WIRE_US)));
    let windows = args.seconds * WINDOWS_PER_SECOND;
    let report = if args.trace {
        // five arms share the time one untraced run takes
        let windows = windows.div_ceil(5);
        header(spec, args.seed, windows, true, wire_sleep_ns);
        per_layer(spec, args.seed, windows, wire_sleep_ns)
    } else {
        header(spec, args.seed, windows, false, wire_sleep_ns);
        end_to_end(spec, args.seed, windows)
    };
    report.print_table();
    println!("{}", report.json());
    if !report.correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sample_counts_as_read_or_write_by_its_kind() {
        let mut w = Window::default();
        w.part(Kind::Read, 2_000, 0);
        w.part(Kind::Write, 3_000, 0);
        w.part(Kind::Copy, 4_000, 500);
        w.part(Kind::InsertSelect, 5_000, 300);
        w.part(Kind::RollupRead, 6_000, 0);
        w.part(Kind::Other, 7_000, 0);
        assert_eq!(w.read, vec![2.0]);
        assert_eq!(w.write, vec![3.0, 4.0], "a COPY batch is a write");
        assert_eq!(w.copy, (500, 4_000));
        assert_eq!(w.insert_select, (300, 5_000));
        assert_eq!(
            w.rollup_read,
            (1, 6_000),
            "rollup reads have their own per-layer metric"
        );
    }

    #[test]
    fn window_rates_take_the_median_window() {
        let window = |ops, wall_ns| Window {
            ops,
            wall_ns,
            ..Window::default()
        };
        let done = [
            window(100, 1_000_000_000),
            window(100, 500_000_000),
            window(100, 250_000_000),
        ];
        assert_eq!(ops_per_s(&done, |w| w.wall_ns), 200.0);
    }

    #[test]
    fn the_pinned_cluster_does_not_follow_the_machine() {
        let c = pinned_config(200, EXECUTOR_THREADS, false);
        assert_eq!(
            (c.shard_count, c.executor_threads, c.real_rtt_us),
            (16, 2, 200)
        );
        assert!(c.plan_cache && c.pipeline && c.local_execution && c.mx_fencing);
        assert!(!c.snapshot_isolation && !c.tracing);
    }
}
