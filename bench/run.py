"""blockpum benchmark: one workload, one process, metrics as JSON on the last line.

    python3 bench/run.py --workload interp2d --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory, never from an installed copy. ``--trace 0`` times
operations with nothing installed and prints the end-to-end metrics;
``--trace 1`` alternates plain and traced operations and prints the
per-layer metrics named in BENCHMARK.json. BLAS and PUM thread variables
are recorded, never set.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

# set-up is repeated until this much time has passed (at least MIN_SETUPS times)
SETUP_BUDGET_S = 0.5
MIN_SETUPS = 3


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_library():
    """Import blockpum from the checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "blockpum" / "__init__.py").is_file():
        raise SystemExit(f"error: no blockpum sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import blockpum

    if Path(blockpum.__file__).resolve().parent != src / "blockpum":
        raise SystemExit(f"error: imported blockpum from {blockpum.__file__}, not from {src}")


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def source_digest() -> str:
    """sha256 over the library sources, to tie results to code without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        **{var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "PUM_THREADS")},
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def timed_setup(workload, seed):
    """Repeat set-up, return (median seconds, repetitions, state of the last one)."""
    times = []
    start = time.perf_counter()
    while len(times) < MIN_SETUPS or time.perf_counter() - start < SETUP_BUDGET_S:
        t0 = time.perf_counter()
        state = workload.setup(seed)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), len(times), state


class Loop:
    """Closed loop of operations, each checked outside its timed region."""

    def __init__(self, workload, state):
        self.workload = workload
        self.state = state
        self.attempted = 0
        self.failed = 0
        self.rmse = []  # per operation, checked or not

    def warm_up(self):
        """Run and check the workload's untimed warm-up operations."""
        for _ in range(self.workload.WARMUP):
            self.step()
        self.rmse.clear()

    def step(self, around=None):
        """Run and check one operation; return (seconds, outcome), or None if it failed.

        ``around`` is a context manager entered around the operation only.
        """
        k = self.attempted
        self.attempted += 1
        try:
            with around or contextlib.nullcontext():
                t0 = time.perf_counter()
                outcome = self.workload.operate(self.state, k)
                wall = time.perf_counter() - t0
            problems, op_rmse = self.workload.check(self.state, k, outcome)
        except Exception:  # a failing operation is counted, the run goes on
            traceback.print_exc()
            self.failed += 1
            return None
        self.rmse.append(op_rmse)
        if problems:
            print(f"check failed (op {self.attempted}): {'; '.join(problems)}", file=sys.stderr)
            self.failed += 1
            return None
        return wall, outcome


def run_timed(workload, args):
    setup_s, setups, state = timed_setup(workload, args.seed)
    loop = Loop(workload, state)
    loop.warm_up()
    times, points, tries = [], 0, 0
    start = time.perf_counter()
    while tries == 0 or time.perf_counter() - start < args.seconds:
        tries += 1
        done = loop.step()
        if done is not None:
            times.append(done[0])
            points += done[1].points
    values = {
        "setup_s": setup_s,
        "op_p50_s": float(np.percentile(times, 50)) if times else float("nan"),
        "op_p90_s": float(np.percentile(times, 90)) if times else float("nan"),
        "points_per_s": points / sum(times) if times else 0.0,
        "rmse": statistics.median(loop.rmse) if loop.rmse else float("nan"),
        "ok_ratio": (loop.attempted - loop.failed) / loop.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {"setup_s": f"median of {setups}", "op_p50_s": f"{len(times)} ops", "op_p90_s": f"{len(times)} ops"}
    return loop, values, notes


def run_traced(workload, args):
    import spans

    tracer = spans.Tracer()
    with tracer.recording(None):
        state = workload.setup(args.seed)
    loop = Loop(workload, state)
    loop.warm_up()
    plain, traced, tries = [], [], 0
    start = time.perf_counter()
    # alternate so drift on a shared machine hits both sides alike
    while time.perf_counter() - start < args.seconds or (not (plain and traced) and tries < 4):
        tries += 1
        if len(traced) < len(plain):
            op = loop.attempted
            done = loop.step(tracer.recording(op))
            if done is not None:
                traced.append((op, done[0], done[1], workload.layer_counts(state, done[1])))
        else:
            done = loop.step()
            if done is not None:
                plain.append(done[0])
    values = spans.layer_metrics(tracer, traced) if traced else {}
    if traced and plain:
        values["trace.overhead_ratio"] = statistics.median(t for _, t, _, _ in traced) / statistics.median(plain)
    notes = {m: "not observed" for m in values if spans.not_observed(m, tracer.missing)}
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
    tracer.write(path, {"workload": args.workload, "seed": args.seed, "env": environment()})
    print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    for name, (count, secs) in sorted(spans.setup_summary(tracer).items()):
        print(f"set-up span {name:<32} calls {count:>8}  {secs:.6f} s")
    return loop, values, notes


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        raise SystemExit(f"error: {spec_path} missing")
    spec = json.loads(spec_path.read_text())
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    import_library()
    # ill-conditioned local systems warn on every solve; writing those out
    # would time stderr rather than the library
    warnings.simplefilter("ignore")
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.make(args.workload, str(OUT_DIR))
    try:
        loop, values, notes = (run_traced if args.trace else run_timed)(workload, args)
    finally:
        workload.close()

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        name = m["name"]
        if name not in values:
            raise SystemExit(f"error: metric {name} was not computed")
        metrics[name] = {"value": values[name], "unit": m["unit"]}
        print(f"{name:<32} {values[name]:>16.6g} {m['unit']:<6} {notes.get(name, '')}")
    print("env " + json.dumps(environment(), sort_keys=True))
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
