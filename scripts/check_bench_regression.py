#!/usr/bin/env python3
"""Bench regression gate (ci.sh step 5).

Compares the freshly generated smoke bench artifacts against the committed
baselines. The virtual-time fields in the smoke artifacts are deterministic
(fixed seed, fixed cost model), so a change here always means the executor,
planner, routing, or cost model changed behaviour — the 10% tolerance only
exists so a deliberate, small cost-model retune does not need a lockstep
baseline update.

Checks:
  * TPC-C (multi_tenant) and YCSB (high_performance_crud) distributed
    ``units_per_vsec`` in BENCH_workloads_smoke.json must not regress more
    than 10% against the committed baseline. Both arms run MX-routed with
    the generation fence on and no DDL in flight, so this gate is also
    what pins the fence's zero steady-state cost (DESIGN.md §9): a fence
    that started charging per-statement work would show up here directly.
  * The warm plan-cache arm in BENCH_executor_smoke.json must stay cheaper
    than cold on the virtual clock (wall-clock fields are noisy in smoke
    mode and are gated by the full bench + plan_cache_regression test
    instead).
  * The worker-plan arms in BENCH_executor_smoke.json (the engine's local
    plan cache, wall-clock ns/stmt on a bare engine) must show a warm shard
    plan cheaper than a cold one for the YCSB read and update: planning is
    several microseconds of a ~10 µs statement, far above smoke-run noise.
  * The vectorized arm in BENCH_columnar_smoke.json must beat the volcano
    arm, and its ``units_per_vsec`` must not regress more than 10% against
    the committed baseline (the 3x full-run target is asserted by the full
    bench binary itself).
  * The incremental arm in BENCH_rollup_smoke.json must beat the recompute
    arm, and its ``units_per_vsec`` must not regress more than 10% against
    the committed baseline (the 3x full-run target is asserted by the full
    bench binary itself).
  * Snapshot isolation (BENCH_snapshot_smoke.json): the mode-off arm is the
    default everywhere else, so the mode-off/mode-on split gates both sides
    of the feature — mode-off ``units_per_vsec`` must not regress more than
    10% against the committed baseline (the token machinery must stay free
    when disabled), and mode-on must stay within 10% of the *fresh* mode-off
    arm (the token path adds no modelled cost; a gap here means tokens
    started charging wire or planner time).

The committed baseline is read from git HEAD so the smoke run that just
overwrote the working-tree file cannot compare against itself. If a baseline
file does not exist in HEAD yet (bootstrap), the corresponding check is
skipped with a warning.
"""

import json
import subprocess
import sys

TOLERANCE = 0.10


def committed(path):
    try:
        out = subprocess.run(
            ["git", "show", f"HEAD:{path}"],
            capture_output=True,
            check=True,
        ).stdout
        return json.loads(out)
    except (subprocess.CalledProcessError, json.JSONDecodeError):
        return None


def fresh(path):
    try:
        with open(path) as f:
            return json.loads(f.read())
    except (OSError, json.JSONDecodeError):
        return None


def main():
    failures = []
    skipped = []

    new_wl = fresh("BENCH_workloads_smoke.json")
    if new_wl is None:
        failures.append("BENCH_workloads_smoke.json missing — run scripts/bench.sh workloads --smoke first")
    base_wl = committed("BENCH_workloads_smoke.json")
    if base_wl is None:
        skipped.append("no committed BENCH_workloads_smoke.json baseline (bootstrap)")
    elif new_wl is not None:
        for section, label in [
            ("multi_tenant", "TPC-C"),
            ("high_performance_crud", "YCSB"),
        ]:
            baseline = base_wl[section]["distributed"]["units_per_vsec"]
            current = new_wl[section]["distributed"]["units_per_vsec"]
            floor = baseline * (1.0 - TOLERANCE)
            status = "ok" if current >= floor else "REGRESSED"
            print(
                f"  {label}: {current:.3f} units/vsec vs baseline {baseline:.3f} "
                f"(floor {floor:.3f}) {status}"
            )
            if current < floor:
                failures.append(
                    f"{label} distributed units_per_vsec regressed >10%: "
                    f"{current:.3f} < {floor:.3f} (baseline {baseline:.3f})"
                )

    new_ex = fresh("BENCH_executor_smoke.json")
    if new_ex is None:
        failures.append("BENCH_executor_smoke.json missing — run scripts/bench.sh executor --smoke first")
    else:
        warm = new_ex["plan_cache"]["warm_ms_per_stmt"]
        cold = new_ex["plan_cache"]["cold_ms_per_stmt"]
        status = "ok" if warm < cold else "REGRESSED"
        print(f"  plan cache: warm {warm:.5f} ms/stmt vs cold {cold:.5f} {status}")
        if not warm < cold:
            failures.append(
                f"warm plan-cache arm ({warm:.5f} ms/stmt) not cheaper than cold "
                f"({cold:.5f}) on the virtual clock"
            )

        wp = new_ex["worker_plan"]
        for kind in ("read", "update"):
            warm = wp[f"{kind}_warm_ns_per_stmt"]
            cold = wp[f"{kind}_cold_ns_per_stmt"]
            status = "ok" if warm < cold else "REGRESSED"
            print(f"  worker plan ({kind}): warm {warm:.0f} ns/stmt vs cold {cold:.0f} {status}")
            if not warm < cold:
                failures.append(
                    f"warm worker plan ({kind}: {warm:.0f} ns/stmt) not cheaper than cold "
                    f"({cold:.0f})"
                )

    new_col = fresh("BENCH_columnar_smoke.json")
    if new_col is None:
        failures.append(
            "BENCH_columnar_smoke.json missing — run scripts/bench.sh columnar --smoke first"
        )
    else:
        vec = new_col["vectorized"]["units_per_vsec"]
        vol = new_col["volcano"]["units_per_vsec"]
        status = "ok" if vec > vol else "REGRESSED"
        print(f"  columnar: vectorized {vec:.3f} units/vsec vs volcano {vol:.3f} {status}")
        if not vec > vol:
            failures.append(
                f"vectorized columnar arm ({vec:.3f} units/vsec) not faster than "
                f"volcano ({vol:.3f}) on the virtual clock"
            )
        base_col = committed("BENCH_columnar_smoke.json")
        if base_col is None:
            skipped.append("no committed BENCH_columnar_smoke.json baseline (bootstrap)")
        else:
            baseline = base_col["vectorized"]["units_per_vsec"]
            floor = baseline * (1.0 - TOLERANCE)
            status = "ok" if vec >= floor else "REGRESSED"
            print(
                f"  columnar vectorized: {vec:.3f} units/vsec vs baseline {baseline:.3f} "
                f"(floor {floor:.3f}) {status}"
            )
            if vec < floor:
                failures.append(
                    f"columnar vectorized units_per_vsec regressed >10%: "
                    f"{vec:.3f} < {floor:.3f} (baseline {baseline:.3f})"
                )

    new_ru = fresh("BENCH_rollup_smoke.json")
    if new_ru is None:
        failures.append(
            "BENCH_rollup_smoke.json missing — run scripts/bench.sh rollup --smoke first"
        )
    else:
        incr = new_ru["incremental"]["units_per_vsec"]
        rec = new_ru["recompute"]["units_per_vsec"]
        status = "ok" if incr > rec else "REGRESSED"
        print(f"  rollup: incremental {incr:.3f} units/vsec vs recompute {rec:.3f} {status}")
        if not incr > rec:
            failures.append(
                f"incremental rollup arm ({incr:.3f} units/vsec) not faster than "
                f"recompute ({rec:.3f}) on the virtual clock"
            )
        base_ru = committed("BENCH_rollup_smoke.json")
        if base_ru is None:
            skipped.append("no committed BENCH_rollup_smoke.json baseline (bootstrap)")
        else:
            baseline = base_ru["incremental"]["units_per_vsec"]
            floor = baseline * (1.0 - TOLERANCE)
            status = "ok" if incr >= floor else "REGRESSED"
            print(
                f"  rollup incremental: {incr:.3f} units/vsec vs baseline {baseline:.3f} "
                f"(floor {floor:.3f}) {status}"
            )
            if incr < floor:
                failures.append(
                    f"rollup incremental units_per_vsec regressed >10%: "
                    f"{incr:.3f} < {floor:.3f} (baseline {baseline:.3f})"
                )

    new_si = fresh("BENCH_snapshot_smoke.json")
    if new_si is None:
        failures.append(
            "BENCH_snapshot_smoke.json missing — run scripts/bench.sh workloads --smoke first"
        )
    else:
        off = new_si["mode_off"]["units_per_vsec"]
        on = new_si["mode_on"]["units_per_vsec"]
        floor = off * (1.0 - TOLERANCE)
        status = "ok" if on >= floor else "REGRESSED"
        print(
            f"  snapshot isolation: mode-on {on:.3f} units/vsec vs mode-off {off:.3f} "
            f"(floor {floor:.3f}) {status}"
        )
        if on < floor:
            failures.append(
                f"snapshot-isolation mode-on overhead exceeds 10%: "
                f"{on:.3f} < {floor:.3f} (mode-off {off:.3f})"
            )
        base_si = committed("BENCH_snapshot_smoke.json")
        if base_si is None:
            skipped.append("no committed BENCH_snapshot_smoke.json baseline (bootstrap)")
        else:
            baseline = base_si["mode_off"]["units_per_vsec"]
            floor = baseline * (1.0 - TOLERANCE)
            status = "ok" if off >= floor else "REGRESSED"
            print(
                f"  snapshot mode-off: {off:.3f} units/vsec vs baseline {baseline:.3f} "
                f"(floor {floor:.3f}) {status}"
            )
            if off < floor:
                failures.append(
                    f"mode-off units_per_vsec regressed >10% (the disabled token "
                    f"machinery must stay free): {off:.3f} < {floor:.3f} "
                    f"(baseline {baseline:.3f})"
                )

    for s in skipped:
        print(f"  skipped: {s}")
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    print("  bench regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
