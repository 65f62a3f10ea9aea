"""Record the expected answers of every pool query from the current program.

    python3 bench/record.py

The benchmark compares each op against these files (bench/expected/*.json),
so re-record only from a commit whose answers are trusted, and check the
result with `python3 bench/check_bench.py`, which re-derives the small scan
answers by brute force.
"""

from __future__ import annotations

import argparse
import json
import sys

import cli_workload
import harness
import scan_workload
from algebra_workload import (
    POOL_SIZE,
    AlgebraWorkload,
    digest as algebra_digest,
    evaluate,
    query_spec,
    spec_fingerprint,
)
from tracing import box_size


def record_scan(tw) -> dict:
    pool = scan_workload.random_pool(
        lambda u_text, bound: box_size(
            tw.walls.candidate_box, tw.chern.ReducedClass(*scan_workload.parse_rats(u_text)), bound
        )
    )
    queries = []
    for q in scan_workload.fixed_queries() + pool:
        u, bound, region = scan_workload.prepare(tw, q)["args"]
        result = tw.walls.enumerate_destabilizers(u, bound, region)
        queries.append({
            "key": scan_workload.query_key(q),
            "candidates": box_size(tw.walls.candidate_box, u, bound),
            "walls": len(result),
            "digest": scan_workload.digest(result),
        })
    return {"pool": pool, "queries": queries}


def record_algebra(tw) -> dict:
    wl = AlgebraWorkload(tw, {"queries": []}, seed=0)
    return {"queries": [
        {
            "spec": spec_fingerprint(query_spec(j)),
            "digest": algebra_digest(tw, evaluate(tw, wl.queries[j])),
        }
        for j in range(POOL_SIZE)
    ]}


def record_cli(_tw) -> dict:
    cmds = cli_workload.pool()
    cli_workload.prepare_files(cmds)
    out = []
    for cmd in cmds:
        for rel in cli_workload.outputs(cmd):
            (harness.ROOT / rel).unlink(missing_ok=True)
        done = cli_workload.launch(cli_workload.LAUNCHER + cli_workload.argv(cmd))
        if done.returncode == 2:
            raise SystemExit(f"pool command fails as malformed input: {cmd}\n{done.stderr}")
        seen = cli_workload.observe(cmd, done.returncode, done.stdout)
        out.append(dict(key=cli_workload.command_key(cmd), **seen))
    return {"commands": out}


RECORDERS = {"scan": record_scan, "algebra": record_algebra, "cli": record_cli}


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    harness.pin_environment()
    tw = harness.import_tiltwall()
    harness.EXPECTED_DIR.mkdir(exist_ok=True)
    try:
        for name, recorder in RECORDERS.items():
            data = recorder(tw)
            path = harness.EXPECTED_DIR / f"{name}.json"
            path.write_text(json.dumps(data, indent=0, sort_keys=True) + "\n", encoding="utf-8")
            print(f"recorded {path.relative_to(harness.ROOT)}", file=sys.stderr)
    finally:
        harness.clean_work_dir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
