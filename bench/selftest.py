"""Quick self-test of the benchmark harness (not of qcnet).

    python3 bench/selftest.py

Runs every workload in ``--quick`` mode (small inputs, one-second runs),
untraced and traced, and checks that:

* the last stdout line has exactly the keys correct/attempted/failed/metrics,
  every run is correct with no failed op;
* every end-to-end metric of BENCHMARK.json (untraced) and every per-layer
  metric (traced) is emitted, with its unit, and end-to-end values are > 0;
* span self-times in the written trace are non-negative and, within each
  traced pass, sum to that pass's wall time;
* work counts (tape nodes, pairs, edges, triangles, checkpoint writes, rank
  calls, matrix cells, ...) are identical in a second traced run;
* the same seed generates the same inputs and another seed different ones;
* in a directory holding only BENCHMARK.json and bench/, the benchmark exits
  non-zero without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402
import inputs  # noqa: E402

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def bench(cwd: str, workload: str, seed: int, trace: int):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def last_json(lines):
    try:
        obj = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None
    return obj if isinstance(obj, dict) else None


def generated(w_obj, seed: int) -> str:
    """Digest of a workload's first inputs for ``seed``."""
    if hasattr(w_obj, "make_block"):
        return inputs.digest(w_obj.make_block(seed, 0))
    return inputs.digest(w_obj.make_inputs(seed))


def check_spans(path: str, label: str) -> None:
    with open(path, encoding="utf-8") as fh:
        spans = [tuple(json.loads(line)) for line in fh]
    roots = [s[0] for s in spans if s[2] == "bench.pass"]
    worst_gap, lowest = 0.0, 0.0
    for root in roots:
        wall, total, low = tracer.tree_check(spans, root)
        worst_gap = max(worst_gap, abs(total - wall) / wall)
        lowest = min(lowest, low)
    check(bool(roots) and worst_gap < 1e-6,
          f"{label}: self-times sum to pass wall over {len(roots)} passes "
          f"(worst relative gap {worst_gap:.2e})")
    check(lowest >= -1e-9,
          f"{label}: span self-times non-negative (lowest {lowest:.3e} s)")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for w in spec["workloads"]:
        name = w["name"]
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            label = f"{name} trace={trace}"
            code, lines, err = bench(ROOT, name, 3, trace)
            out = last_json(lines)
            check(code == 0 and out is not None,
                  f"{label}: exit 0 with a JSON last line"
                  + ("" if code == 0 else f" ({err.strip()[-200:]})"))
            if out is None:
                continue
            check(set(out) == {"correct", "attempted", "failed", "metrics"},
                  f"{label}: result keys")
            check(out["correct"] is True and out["failed"] == 0
                  and out["attempted"] >= 1,
                  f"{label}: correct, {out['failed']} of "
                  f"{out['attempted']} ops failed")
            got = out["metrics"]
            units = {m["name"]: m["unit"] for m in wanted}
            check(set(got) == set(units)
                  and all(got[k]["unit"] == u for k, u in units.items()),
                  f"{label}: all {len(units)} metrics emitted with units")
            if trace == 0:
                check(all(v["value"] > 0 for v in got.values()),
                      f"{label}: end-to-end values are non-zero")
            else:
                check_spans(os.path.join(
                    ROOT, ".bench_work", f"spans-{name}-seed3.jsonl"), label)
                _, again, _ = bench(ROOT, name, 3, trace)
                second = last_json(again)
                exact = [k for k, u in units.items() if u in ("count", "B")]
                check(second is not None and all(
                    got[k]["value"] == second["metrics"][k]["value"]
                    for k in exact),
                    f"{label}: {len(exact)} work counts repeat exactly in a "
                    f"second run")
        w_obj = workloads.WORKLOADS[name](True)
        same = generated(w_obj, 5) == generated(w_obj, 5)
        other = generated(w_obj, 5) != generated(w_obj, 6)
        check(same and other, f"{name}: inputs are a function of the seed")

    bare = os.path.join(ROOT, ".bench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines, _ = bench(bare, spec["workloads"][0]["name"], 0, 0)
        check(code != 0 and last_json(lines) is None,
              f"bare directory: exit {code} without a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
