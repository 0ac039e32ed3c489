"""qcnet benchmark: seeded workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 bench/run.py --workload train_synth --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all          # every workload in turn

Each workload runs in its own single-threaded process (``workloads.py``),
closed loop, one caller.  With ``--trace 0`` the run reports the end-to-end
metrics of BENCHMARK.json; with ``--trace 1`` a separate run wraps the
package's layer entry points and reports the per-layer metrics.  The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The lines before it name every metric by the workload's own
terms, with unit and sample count, and record the environment.  A full
report goes to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
THREADS = "1"
for _var in THREAD_VARS:  # before numpy loads, here and in every child
    os.environ[_var] = THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
CHILD = os.path.join(HERE, "workloads.py")
DEADLINE_S = 170.0
SETUP_REPEATS = 7

class BenchError(RuntimeError):
    pass


def environment() -> dict:
    import numpy as np
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k)
                for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # numpy < 1.25 prints instead
        pass
    return {"python": sys.version.split()[0],
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "numpy": np.__version__, "blas": blas,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else None,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "git_commit": git_commit()}


def git_commit() -> str | None:
    """HEAD of a checkout's own .git, read without leaving the checkout."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = os.path.join(ROOT, ".git", name)
    if os.path.isfile(loose):
        with open(loose, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == name:
                    return parts[0]
    return None


class Child:
    """A workload process; ``ready_s`` is process start to its ready line."""

    def __init__(self, args: list[str], deadline: float):
        self.deadline = deadline
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, CHILD] + args, cwd=ROOT, stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL, text=True)
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        self.remaining())
            line = self.proc.stdout.readline() if ready else ""
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - start
        if line.strip() != "ready":
            self.stop()
            raise BenchError(f"workload process failed during set-up "
                             f"({' '.join(args[:4])})")

    def remaining(self) -> float:
        return max(0.0, self.deadline - time.monotonic())

    def finish(self) -> str:
        try:
            out, _ = self.proc.communicate(timeout=self.remaining())
        except subprocess.TimeoutExpired:
            self.stop()
            raise BenchError("workload process ran past the deadline")
        except BaseException:
            self.stop()
            raise
        if self.proc.returncode != 0:
            raise BenchError(f"workload process exited with "
                             f"{self.proc.returncode}")
        return out

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 quick: bool, deadline: float) -> dict:
    work = os.path.join(WORK, f"run-{name}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        base = ["--workload", name, "--work", work, "--seed", str(seed)]
        if quick:
            base.append("--quick")
        Child(base + ["--mode", "prep"], deadline).finish()
        setups = []
        if not trace:
            repeats = 2 if quick else SETUP_REPEATS
            for _ in range(repeats - 1):
                child = Child(base + ["--mode", "setup"], deadline)
                setups.append(child.ready_s)
                child.finish()
        spans = os.path.join(WORK, f"spans-{name}-seed{seed}.jsonl")
        child = Child(base + ["--mode", "run", "--seconds", str(seconds),
                              "--trace", str(trace), "--spans-out", spans],
                      deadline)
        setups.append(child.ready_s)
        lines = child.finish().strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not trace:
        result["metrics"]["setup_s"] = statistics.median(setups)
        result["setup_samples_s"] = setups
    else:
        result["spans_file"] = os.path.relpath(spans, ROOT)
    result.update(workload=name, seed=seed, seconds=seconds, trace=trace,
                  quick=quick)
    return result


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def report(result: dict, spec: dict) -> tuple[dict, list[str]]:
    """Metrics in BENCHMARK.json order, and the readable lines."""
    name = result["workload"]
    wanted = spec["per_layer"] if result["trace"] else spec["end_to_end"]
    metrics, lines, missing = {}, [], []
    lines.append(f"# {name} seed={result['seed']} trace={result['trace']} "
                 f"inputs sha256={result['inputs_sha256']} "
                 f"({result['input_blocks']} blocks)")
    for entry in wanted:
        value = result["metrics"].get(entry["name"])
        if value is None:
            missing.append(entry["name"])
            continue
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        term = own_term(name, entry["name"])
        lines.append(f"{term} = {value:.6g} {entry['unit']}"
                     + sample_note(result, entry["name"]))
    attempted, failed = result["attempted"], result["failed"]
    lines.append(f"failed_frac = {failed / max(attempted, 1):.6g} "
                 f"({failed} of {attempted} ops)")
    for error in result.get("errors", []) + result.get("check_errors", []):
        lines.append(f"error: {error}")
    if missing:
        lines.append(f"error: metrics not measured: {missing}")
    return metrics, lines


def own_term(workload: str, metric: str) -> str:
    """The generic metric's name in the workload's own terms."""
    import workloads
    rate, latency = workloads.WORKLOADS[workload].terms
    if metric == "throughput_per_s":
        return rate
    if metric.startswith("latency_ms_"):
        return latency + metric[len("latency_ms"):]
    return metric


def sample_note(result: dict, metric: str) -> str:
    if metric == "setup_s":
        return f" (median of {len(result['setup_samples_s'])} set-ups)"
    if metric.startswith("latency"):
        return f" ({result['latency_samples']} samples)"
    if metric == "throughput_per_s":
        return f" ({result['passes']} passes)"
    if metric == "training.loss_and_gradients_ms_p90":
        return f" ({result['step_samples']} steps)"
    if metric == "model.load_checkpoint_ms":
        return " (set-up)"
    if result["trace"] and metric.endswith("_ms"):
        return f" (per pass, median of {result['passes']} traced passes)"
    return ""


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="qcnet benchmark")
    ap.add_argument("--workload", default="all",
                    help="train_synth, predict_cells, featurize_cells, "
                         "homology_flag or all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per workload (BENCHMARK.json "
                         "run_seconds by default)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="small inputs, for the self-test")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "qcnet", "__init__.py")):
        print("error: run from a qcnet checkout (src/qcnet not found)",
              file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    chosen = names if args.workload == "all" else [args.workload]
    if any(n not in names for n in chosen):
        print(f"error: unknown workload {args.workload!r}; one of {names}",
              file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None \
        else float(spec["run_seconds"])
    if args.workload == "all":
        deadline += DEADLINE_S * (len(chosen) - 1)
    sys.path.insert(0, HERE)
    env = environment()
    print("# env " + json.dumps(env, sort_keys=True))
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    for name in chosen:
        try:
            result = run_workload(name, args.seed, seconds, args.trace,
                                  args.quick, deadline)
        except (BenchError, subprocess.TimeoutExpired) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        metrics, lines = report(result, spec)
        print("\n".join(lines))
        wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
        correct = (result["failed"] == 0 and not result.get("check_errors")
                   and len(metrics) == len(wanted))
        result["environment"] = env
        out = os.path.join(WORK, "results",
                           f"{name}-seed{args.seed}-trace{args.trace}.json")
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, sort_keys=True, indent=1)
        prefix = f"{name}." if args.workload == "all" else ""
        combined["correct"] &= correct
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({prefix + k: v
                                    for k, v in metrics.items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
