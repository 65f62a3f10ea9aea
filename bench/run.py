"""tiltwall benchmark: seeded closed-loop workloads, one op at a time.

    python3 bench/run.py --workload scan|algebra|cli|all --seed N --seconds S --trace 0|1

--trace 0 prints the end-to-end metrics of the workload; --trace 1 runs the
workload's first seeded round untraced and traced in turn (tiltwall's public
functions wrapped from outside, see tracing.py) and prints the per-layer
metrics. Human-readable
lines come first; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import harness
from algebra_workload import AlgebraWorkload
from cli_workload import CliWorkload, launch
from harness import (
    HostClock,
    ProgramMissing,
    fraction_loop_ms,
    host_info,
    import_tiltwall,
    load_expected,
    op_deadline,
    peak_rss_mb,
    percentile,
    pin_environment,
)
from scan_workload import ScanWorkload, fixed_queries, query_key
from tracing import Tracer

WORKLOADS = {"scan": ScanWorkload, "algebra": AlgebraWorkload, "cli": CliWorkload}
SETUP_REPEATS = 5
PROBE_LAUNCHES = 7
MIN_ROUNDS = 3  # a run repeats its round at least this often, for the medians


def setup(name: str, seed: int, in_process: bool = False):
    """Import tiltwall, generate inputs, load the expected answers and warm up."""
    tw = import_tiltwall()
    expected = load_expected(name)
    cls = WORKLOADS[name]
    wl = cls(tw, expected, seed, in_process=True) if in_process else cls(tw, expected, seed)
    for _label, call, check in wl.warm_up_ops():
        check(call())
    return tw, wl


def run_ops(ops, latencies: dict, failures: list, on_op=None, clock=None) -> float:
    """Run ops in order, appending each op's latency to latencies[label],
    at reference host speed if a HostClock is given; returns the wall time
    spent inside them."""
    total = 0.0
    for label, call, check in ops:
        before = on_op(label, None) if on_op else None
        ok = False
        with op_deadline():
            t0 = time.perf_counter()
            try:
                result = call()
            except Exception as exc:  # a crash or timeout (OpTimeout) is a failed op
                dt = time.perf_counter() - t0
                failures.append(f"{label}: {type(exc).__name__}: {exc}")
            else:
                dt = time.perf_counter() - t0
                ok = True
        recorded = clock.scale(dt) if clock else dt
        if on_op:
            on_op(label, before)
        if ok:
            try:
                ok = check(result)
            except Exception:  # an answer of the wrong shape is a wrong answer
                ok = False
            if not ok:
                failures.append(f"{label}: wrong answer")
        latencies.setdefault(label, []).append(recorded)
        total += dt
    return total


def untraced(name: str, seed: int, seconds: float) -> tuple[dict, dict, list, int]:
    clock = HostClock()
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        _tw, wl = setup(name, seed)
        setups.append(clock.scale(time.perf_counter() - t0))
    latencies: dict[str, list[float]] = {}
    failures: list[str] = []
    busy = 0.0
    rounds = 0
    while busy < seconds or rounds < MIN_ROUNDS:
        ops = wl.round(rounds)
        busy += run_ops(ops, latencies, failures, clock=clock)
        rounds += 1
    # Every round runs the same ops, so each op has `rounds` latencies; its
    # median drops the host's short stalls, which hit one repeat, not all.
    typical = sorted(statistics.median(latencies[label]) * 1000 for label, _, _ in ops)
    n = sum(len(v) for v in latencies.values())
    p = wl.tail_percentile
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(typical) * 1000 / sum(typical),
        "p50_ms": statistics.median(typical),
        "tail_ms": percentile(typical, p),
        "ok_ratio": (n - len(failures)) / n,
        "peak_rss_mb": peak_rss_mb(children=wl.children),
    }
    info = dict(
        wl.details(),
        rounds=rounds,
        busy_s=busy,
        ops_per_s_wall=n / busy,
        host_probe_ms=statistics.median(clock.probes),
        tail_percentile=p,
        samples=n,
        fail_ratio=len(failures) / n,
        setup_runs_s=setups,
    )
    return metrics, info, failures, n


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer metrics of one traced pass; times are ms per pass."""
    cand = tr.counts["walls.candidates"]
    found = tr.counts["walls.walls_found"]
    abc = tr.calls("walls.numerical_wall")
    ineq_calls, ineq_self = tr.group("inequalities.")
    return {
        "walls.enumerate_destabilizers.calls": tr.calls("walls.enumerate_destabilizers"),
        "walls.enumerate_destabilizers.self_ms": tr.self_ms("walls.enumerate_destabilizers"),
        "walls.candidate_box.ms": tr.span_ms("walls.candidate_box"),
        "walls.us_per_candidate": tr.span_ms("walls.enumerate_destabilizers") * 1000 / cand
        if cand else 0.0,
        "walls.candidates": cand,
        "walls.numerical_wall.calls": abc,
        "walls.pass_abc_ratio": abc / cand if cand else 0.0,
        "walls.walls_found": found,
        "walls.walls_per_candidate": found / cand if cand else 0.0,
        "walls.tilt_slope_reduced.calls": tr.calls("walls.tilt_slope_reduced"),
        "chern.disc_bar_reduced.calls": tr.calls("chern.disc_bar_reduced"),
        "chern.twist.calls": tr.calls("chern.twist"),
        "chern.twist.self_ms": tr.self_ms("chern.twist"),
        "geometry.tensor_product_char.self_ms": tr.self_ms("geometry.tensor_product_char"),
        "geometry.euler_char.self_ms": tr.self_ms("geometry.euler_char"),
        "geometry.line_bundle_char.calls": tr.calls("geometry.line_bundle_char"),
        "stability.nu.self_ms": tr.self_ms("stability.nu"),
        "stability.central_charge.self_ms": tr.self_ms("stability.central_charge"),
        "inequalities.calls": ineq_calls,
        "inequalities.self_ms": ineq_self,
        "support.verify_support.calls": tr.calls("support.verify_support"),
        "support.verify_support.self_ms": tr.self_ms("support.verify_support"),
        "support.cells": tr.counts["support.cells"],
        "support.is_negative_definite_on.calls": tr.calls("support.is_negative_definite_on"),
        "support.is_negative_definite_on.self_ms": tr.self_ms("support.is_negative_definite_on"),
        "support.fixture_evals": tr.calls("support.QForm6.value_char"),
        "support.equality_case_fixtures.calls": tr.calls("support.equality_case_fixtures"),
        "support.witnesses": tr.counts["support.witnesses"],
        "exactnum.is_positive_definite.calls": tr.calls("exactnum.is_positive_definite"),
        "exactnum.is_positive_definite.self_ms": tr.self_ms("exactnum.is_positive_definite"),
        "exactnum.RatMatrix.kernel_basis.self_ms": tr.self_ms("exactnum.RatMatrix.kernel_basis"),
        "exactnum.ceil_sqrt.calls": tr.calls("exactnum.ceil_sqrt"),
        "parallel.pmap.calls": tr.calls("parallel.pmap"),
        "parallel.pmap.items": tr.counts["parallel.pmap.items"],
        "parallel.pmap.ms": tr.span_ms("parallel.pmap"),
        "selftest.run_selftest.ms": tr.span_ms("selftest.run_selftest"),
        "selftest.checks": tr.counts["selftest.checks"],
        "cli.build_parser_ms": tr.span_ms("cli.build_parser") / tr.calls("cli.build_parser")
        if tr.calls("cli.build_parser") else 0.0,
    }


FIXED_QUERY_COUNTS = ("walls.candidates", "walls.numerical_wall.calls", "walls.walls_found")


def launch_ms(args: list[str]) -> float:
    times = []
    for _ in range(PROBE_LAUNCHES):
        t0 = time.perf_counter()
        launch(args).check_returncode()
        times.append((time.perf_counter() - t0) * 1000)
    return statistics.median(times)


def traced(name: str, seed: int, seconds: float) -> tuple[dict, dict, list, int]:
    tw, wl = setup(name, seed, in_process=name == "cli")
    ops = wl.round(0)
    tracer = Tracer(tw)
    fixed = {query_key(q) for q in fixed_queries()} if name == "scan" else set()
    per_op: dict[str, dict] = {}

    def on_op(label, before):
        """Exact counts of each fixed scan query, from the first traced pass."""
        if label not in fixed:
            return None
        snap = tracer.snapshot()
        if before is None:
            return snap
        per_op[label] = {k: snap.get(k, 0) - before.get(k, 0) for k in FIXED_QUERY_COUNTS}
        return None

    # Untraced and traced passes of the same round alternate, so host drift
    # falls on both sides of the overhead estimate.
    plain_latencies: dict[str, list[float]] = {}
    traced_latencies: dict[str, list[float]] = {}
    failures: list[str] = []
    plain_s: list[float] = []
    traced_s: list[float] = []
    passes = []
    while not traced_s or sum(plain_s) + sum(traced_s) < seconds:
        plain_s.append(run_ops(ops, plain_latencies, failures))
        tracer.reset()
        tracer.install()
        try:
            traced_s.append(
                run_ops(ops, traced_latencies, failures, on_op if not passes else None)
            )
        finally:
            tracer.uninstall()
        passes.append(layer_metrics(tracer))

    counts = {k for k, unit in units("per_layer").items() if unit == "count"}
    metrics = {}
    for key in passes[0]:
        values = [p[key] for p in passes]
        metrics[key] = values[0] if key in counts else statistics.median(values)
    if name == "cli":
        interp = launch_ms([sys.executable, "-c", "pass"])
        imported = launch_ms([sys.executable, "-c", "import tiltwall.cli"])
        metrics.update({
            "cli.interp_ms": interp,
            "cli.import_ms": imported - interp,
            "cli.run_ms": statistics.median(
                x for v in plain_latencies.values() for x in v
            ) * 1000,
        })
    else:
        metrics.update({"cli.interp_ms": 0.0, "cli.import_ms": 0.0, "cli.run_ms": 0.0})
    metrics["trace.overhead_pct"] = (
        statistics.median(traced_s) / statistics.median(plain_s) - 1
    ) * 100
    info = dict(
        wl.details(),
        traced_passes=len(passes),
        untraced_pass_s=plain_s,
        traced_pass_s=traced_s,
        counts_repeat=all(
            all(p[k] == passes[0][k] for k in counts) for p in passes
        ),
        absent=tracer.absent,
    )
    if per_op:
        info["fixed_queries"] = per_op
    attempted = sum(len(v) for d in (plain_latencies, traced_latencies) for v in d.values())
    return metrics, info, failures, attempted


def units(section: str) -> dict:
    """Metric name -> unit, from a section of BENCHMARK.json."""
    with open(harness.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[section]}


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    pin_environment()
    unit_of = units("per_layer" if trace else "end_to_end")
    host_start = fraction_loop_ms()
    try:
        metrics, info, failures, attempted = (traced if trace else untraced)(name, seed, seconds)
    finally:
        harness.clean_work_dir()
    host_end = fraction_loop_ms()
    if trace:
        metrics["host.fraction_loop_ms"] = (host_start + host_end) / 2
    missing = set(unit_of) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not produced: {sorted(missing)}")
    info.update(
        workload=name, seed=seed, seconds=seconds, trace=trace,
        host=host_info(), host_fraction_loop_ms=[host_start, host_end],
    )
    print(f"# {name} seed={seed} trace={int(trace)}")
    for key in unit_of:
        print(f"{key:44s} {metrics[key]:>14.6g} {unit_of[key]}")
    for line in failures[:20]:
        print(f"FAILED {line}")
    print("info " + json.dumps(info, sort_keys=True))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": unit_of[k]} for k in unit_of},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True,
        )
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds, bool(args.trace))
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except (ProgramMissing, ImportError, OSError) as exc:
        print(f"error: cannot benchmark this checkout: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
