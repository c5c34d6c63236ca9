#!/usr/bin/env sh
# Tier-1 CI gate: build, the full test suite, a warnings-as-errors pass
# over every target of the workspace and one run of the wall-clock
# benchmark. Each clock has one home: virtual-time figures are gated inside
# step 2, wall-clock numbers come from step 4's program and nowhere else.
#
#   1. release build of the whole workspace
#   2. full test suite (quiet). The root manifest's `default-members` is the
#      whole workspace, so this one command runs every suite (~590 tests):
#      fault injection (including the COPY atomicity drill,
#      `copy_fault_at_any_shard_boundary_leaves_no_rows` in
#      crates/core/tests/faults.rs: a fault on any shard batch, on two
#      workers and on 0+1, leaves no rows; and next to it the commit-record
#      sweep drill, `commit_record_outlives_an_unreachable_prepared_participant`:
#      a pass that cannot reach a prepared participant keeps the record, the
#      pass after the heal commits the gid and sweeps it), parallel-executor
#      equivalence, the pipelining /
#      wire-round wall, trace goldens + the differential oracle, the
#      co-location judgement's soundness proptest
#      (`judged_safe_statements_match_the_oracle` in
#      crates/workloads/tests/insert_select_oracle.rs: generated joins,
#      subqueries and INSERT..SELECTs are refused or equal the oracle; its
#      IN / NOT IN subqueries exercise the co-located semi-join rule, which
#      leaves `key IN (SELECT key ..)` in place on every shard, and its
#      ORDER BY .. LIMIT tails, led by a qualified column, an expression or
#      a key outside the select list, with an optional OFFSET or a
#      `SELECT *` body, must match row for row in order), the join-order
#      merge demonstrator (`join_order_merges_like_one_node` in
#      crates/core/tests/distributed.rs: seven repartition-join shapes equal
#      one engine's rows in order), the one-walk demonstrator
#      (`every_clause_plans_like_one_node` in the same file: a subquery in
#      WHERE under a function call, the select list, GROUP BY, ORDER BY,
#      LIMIT, OFFSET, UPDATE SET, INSERT VALUES or ON CONFLICT SET gives one
#      engine's rows, count or SQLSTATE, or a 0A000 refusal, never XX000 or
#      a worker's 42P01) and the shape walk's two proptests
#      (`bind_params_undoes_lift` in crates/sqlparse/tests/proptest_roundtrip.rs:
#      binding the walk's literals after `lift` gives back the statement;
#      `rewrite_preserves_parseability` in
#      crates/core/tests/proptest_distribution.rs: a subquery over a second
#      table in any of twelve clauses is collected and renamed), the
#      join-order walls (the brute-force
#      referee proptest
#      `inner_joins_match_the_brute_force_referee` in
#      crates/pgmini/tests/join_order_referee.rs: generated 3-5-table inner
#      joins in random FROM order equal a product-and-filter evaluation;
#      `tpch_join_plans_have_no_cross_join` in
#      crates/workloads/tests/workloads_run.rs: no EXPLAIN of the 18 TPC-H
#      queries, on one engine or on a worker, contains a cross join; and
#      the pinned TPC-H answer digests in tpch_answers.rs), the keyed-operator
#      referee (`keyed_operators_match_the_brute_force_referee` in
#      crates/pgmini/tests/hash_key_referee.rs: hash joins of every kind,
#      GROUP BY, count(DISTINCT), SELECT DISTINCT and a folded IN list over
#      NULL, duplicate, Int/Float, NaN and text-date/timestamp keys equal a
#      nested-loop evaluation row for row, order included), the
#      vectorized wall (crates/core/tests/executor_vectorized.rs:
#      vectorized == volcano on every input, kernel-less ones included: two
#      filters with a function call, which a vectorized engine selects row
#      by row and books no batches for, and `sum(abs(a))`, whose argument
#      sends the aggregate to the volcano path), the MX cost demonstrator
#      (`deferred_begin_reports_an_empty_cost` in
#      crates/core/tests/distributed.rs: a routed session's deferred BEGIN
#      and the end of an empty block report an empty cost record, a COPY
#      carrying the BEGIN its own), the replay wall (crates/pgmini/tests/replay.rs: a
#      shard copy plus catch-up from random cut points, and a restore, each
#      equal the source by row id and index probes), the row-write wall
#      (`copy_loads_like_insert` in crates/pgmini/tests/row_writes.rs: the
#      same rows loaded by COPY and by INSERT .. VALUES, into a heap table
#      with a primary key, a UNIQUE column, a GIN index, a partial index, a
#      DEFAULT and a NOT NULL column and into a columnar table, give equal
#      rows, index probes, WAL record kinds and cost, and a row breaking
#      each constraint the same SQLSTATE) and its two demonstrators in the
#      same file (`not_null_reads_the_same_from_every_write`: INSERT, COPY,
#      UPDATE and ON CONFLICT DO UPDATE refuse a NULL with 23502 and one
#      message; `upsert_inserts_when_its_conflict_was_deleted_meanwhile`: an
#      upsert that waited on the deleter of its conflicting row inserts once
#      the delete commits), with
#      `upsert_searches_again_when_its_conflict_changed_meanwhile` (a
#      deleter that put the key back gets its new row updated; a row an
#      UPDATE moved off the key is left alone and the upsert inserts),
#      `partial_index_key_runs_only_on_rows_it_admits` (a key
#      guarded by its partial predicate fails no write, backfill, vacuum or
#      restore) and `partial_unique_index_constrains_only_rows_it_admits`
#      beside them, rebalancer crash drills
#      (every live placement carries the shell's indexes), the
#      snapshot-isolation anomaly wall, MX fence drills, the rollup recompute
#      differential, the seeded sim chaos corpus, the memory budget
#      (crates/pgmini/tests/memory_budget.rs: a per-thread counting
#      allocator, its own binary; an update may retain at most 1.2 KB once
#      vacuumed, a point read copies no text, and the allocation lock: a hash
#      join whose residual rejects every pair makes under 3 allocations per
#      probe row, a GROUP BY under 1.2 per input row, and over rows that
#      carry text `a_summed_join_copies_no_outer_row` and
#      `a_filtered_count_copies_no_row` stay under 0.2 per row: the pipelined
#      executor copies only build sides and the rows that leave it), the
#      pipeline's edge tests in crates/pgmini/src/exec.rs (an empty first
#      join reads nothing after it, RIGHT and FULL joins over an empty outer
#      side return every inner row, a nested-loop LEFT join over an empty
#      inner side pads with NULLs, and a self-join, heap and columnar, builds
#      inside its own probe scan) and the figure gate. There is no filter to
#      skip one by. The figure gate (crates/bench/tests/figures.rs) runs the
#      `figures`, `workloads`, `columnar` and `rollup` benches at smoke scale
#      in-process and requires their reports to equal the five goldens in
#      crates/bench/tests/golden/ byte for byte (the numbers are virtual
#      time, hence exact), plus the paper's orderings that hold at smoke
#      scale, vectorized > volcano, incremental > recompute and snapshot
#      mode-on == mode-off. The fifth golden, BENCH_figures_smoke.json (the
#      paper's Tables 1-3 and Figures 6-10), re-blesses with
#      `cargo run --release -p citrus-bench --bin figures_bench -- --smoke`,
#      the others with `... --bin <name>_bench -- --smoke`. The benchmark
#      crate is a package of its own, outside the workspace, so its 17 unit
#      tests run in a second command (among them
#      `the_manifest_in_the_repository_is_the_generated_one`: BENCHMARK.json
#      is what `benchmark --manifest` prints)
#   3. the whole workspace must compile warning-free, every target included
#      (tests, examples, binaries and the Criterion files, which no other
#      step builds)
#   4. the wall-clock benchmark (benchmark/, see BENCHMARK.json) for all
#      five workloads at --seconds 1: `dtxn_wire` and `tpcc` through the
#      commit protocol, with and without real wire time; `ycsb_a`, which runs
#      almost entirely from the workers' warm plan caches; `tpch` and `rta`,
#      the two that plan pushdowns and an INSERT..SELECT (`tpch` plans one
#      subplan, Q22's NOT IN under a reference table; Q4, Q18 and Q21 are
#      co-located semi-joins and push down whole). No timing
#      is gated; the run must pass its correctness check with no failed
#      operation
#
# Usage: scripts/ci.sh [--long]
#   --long   widen the sim chaos corpus (CITRUS_SIM_SEEDS=60; default 25)
set -eu

cd "$(dirname "$0")/.."

SIM_SEEDS=25
for arg in "$@"; do
    case "$arg" in
        --long) SIM_SEEDS=60 ;;
        *) echo "unknown flag: $arg" >&2; exit 2 ;;
    esac
done

echo "==> [1/4] cargo build --release"
cargo build --release

echo "==> [2/4] cargo test -q (whole workspace; sim chaos corpus: ${SIM_SEEDS} seeds)"
CITRUS_SIM_SEEDS="$SIM_SEEDS" cargo test -q
cargo test --release --offline -q --manifest-path benchmark/Cargo.toml

echo "==> [3/4] warnings-as-errors check of every workspace target"
RUSTFLAGS="-Dwarnings" cargo check --workspace --all-targets

echo "==> [4/4] wall-clock benchmark: all five workloads, correctness only"
for workload in dtxn_wire tpcc ycsb_a tpch rta; do
    result=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        --workload "$workload" --seed 42 --seconds 1 --trace 0 | tail -n 1)
    echo "$result"
    case "$result" in
        *'"correct": true'*'"failed": 0,'*) ;;
        *) echo "benchmark $workload: wrong output or failed operations" >&2; exit 1 ;;
    esac
done

echo "==> CI green"
