"""Closed-loop benchmark of the lrange package, end to end and per layer.

    python3 perfbench/run.py --workload {star,separation,membership,cloud}
        --seed N --seconds S --trace {0,1} [--scale {full,smoke}]

Run it from the repository root: it imports the package from ``src/`` and
writes scratch files only under ``.bench_build/perfbench/``.  One client
runs one op at a time in this process (see ``workloads.py`` for the ops).

``--trace 0`` times the workload for ``--seconds`` (and at least
``MIN_OPS`` ops) and reports the end-to-end metrics.  ``--trace 1`` runs a
fixed list of ops once untraced and once with every public function of the
package wrapped, then the workload's CLI commands traced, and reports the
per-layer metrics; the fixed list makes every ``*.calls`` count repeat
exactly for a given seed.  ``--scale smoke`` shrinks every size for the
self-check.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

# BLAS threads are pinned before numpy loads, so every run is single-threaded.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.linalg  # noqa: E402,F401  (imported here so setup_s times lrange alone)

import tracer  # noqa: E402
import workloads  # noqa: E402

LAYERS = ("core", "ellipsoid", "pinching", "witness", "optimize", "verify", "jsonio", "cli")

# Functions whose calls and self time are reported; every other public
# function is traced too and counts towards its module's self time.
REPORTED = (
    "ellipsoid.nearest_surface",
    "ellipsoid.slice_membership",
    "ellipsoid.degenerate_unitary",
    "witness.single_pinch_witness",
    "witness.chain_witness",
    "witness.star_point_witness",
    "witness.make_path",
    "witness.star_scaling_chain",
    "pinching.synth_scaling",
    "pinching.apply_chain",
    "optimize.orbit_distance",
    "core.expm_skew",
    "core.haar_unitary",
    "core.conjugate_tuple",
    "core.eval_map",
    "verify.sample_orbit_cloud",
    "verify.check_star_shaped",
    "verify.counterexample_report",
    "jsonio.canonical_json",
    "jsonio.cloud_csv",
    "cli.main",
)

SETUP_REPS = 3
CLI_REPS = 5
MIN_OPS = 100  # p90 then has at least 10 ops beyond it
SMOKE_MIN_OPS = 5
MAX_PRINTED_ERRORS = 3

SRC = Path("src")
WORKDIR = Path(".bench_build") / "perfbench"


def import_lrange():
    """A fresh import of the package and all eight modules from ``src/``."""
    for name in [k for k in sys.modules if k == "lrange" or k.startswith("lrange.")]:
        del sys.modules[name]
    package = importlib.import_module("lrange")
    for layer in LAYERS:
        importlib.import_module(f"lrange.{layer}")
    if Path(package.__file__).resolve().parent != (SRC / "lrange").resolve():
        raise RuntimeError(f"lrange was imported from {package.__file__}, not from src/")
    return package


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "lrange").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "warmup_ops": 1,
    }


def git_commit() -> str:
    """HEAD read from ``.git`` when the checkout has one, else ``unknown``."""
    head = Path(".git") / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_path = Path(".git") / ref[5:]
        if ref_path.is_file():
            return ref_path.read_text().strip()
        packed = Path(".git") / "packed-refs"
        if packed.is_file():
            for line in packed.read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
        return "unknown"
    return ref


class Runner:
    """Executes ops of one workload and collects latencies and failures.

    An op fails when the library raises or when it returns an output that
    fails the independent check; only the second is a wrong output.
    """

    def __init__(self, workload, trace=None):
        self.workload = workload
        self.trace = trace
        self.errors_printed = 0

    def execute(self, i: int):
        """``(latency_s, ok, info)``; ``ok`` is None when the op raised."""
        if self.trace is not None:
            self.trace.op_id = i
        t0 = time.perf_counter()
        try:
            return self.workload.op(i)
        except Exception:  # an op that raises is a failed op, not a crash
            elapsed = time.perf_counter() - t0
            if self.errors_printed < MAX_PRINTED_ERRORS:
                self.errors_printed += 1
                traceback.print_exc(file=sys.stderr)
            return elapsed, None, None
        finally:
            if self.trace is not None:
                self.trace.op_id = -1

    def run(self, count: int | None = None, seconds: float = 0.0, min_ops: int = 0) -> dict:
        """A fixed ``count`` of ops, or ops until ``seconds`` and ``min_ops``."""
        self.workload.reset()
        latencies, infos, raised, wrong = [], [], 0, 0
        cap = 2 * seconds + 30
        start = time.perf_counter()
        i = 0
        while count is None or i < count:
            latency, ok, info = self.execute(i)
            latencies.append(latency)
            raised += ok is None
            wrong += ok is False
            if info is not None:
                infos.append(info)
            i += 1
            if count is None:
                elapsed = time.perf_counter() - start
                if (elapsed >= seconds and i >= min_ops) or elapsed >= cap:
                    break
        wall = time.perf_counter() - start
        return {"latencies": latencies, "infos": infos, "raised": raised, "wrong": wrong, "wall": wall}


def run_cli(package, commands, reps: int) -> tuple[float, bool]:
    """Median wall time of one pass over the commands, and whether every
    pass exited 0, passed its checks and replayed byte for byte."""
    totals, first, ok = [], None, True
    for _ in range(reps):
        outputs = []
        t0 = time.perf_counter()
        for argv, _check in commands:
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = package.cli.main(argv)
            except (Exception, SystemExit) as exc:
                code = f"raised {exc!r}"
            outputs.append((code, out.getvalue(), err.getvalue()))
        totals.append(time.perf_counter() - t0)
        for (argv, check), (code, text, err_text) in zip(commands, outputs):
            try:
                good = code == 0 and check(text)
            except (ValueError, KeyError, TypeError) as exc:
                good, err_text = False, f"{err_text}check raised {exc!r}"
            if not good:
                ok = False
                print(f"cli check failed: lrange {' '.join(argv)} -> {code}: {err_text.strip()}",
                      file=sys.stderr)
        if first is None:
            first = outputs
        elif outputs != first:
            ok = False
            print("cli replay differs from the first pass", file=sys.stderr)
    return statistics.median(totals), ok


def p90(values: list) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.9 * len(ordered)) - 1)]


def setup(workload_cls, seed: int, smoke: bool):
    """Import, build inputs and run one warm-up op, ``SETUP_REPS`` times.

    Returns the median set-up time, the last workload built and whether
    every warm-up output passed its check.
    """
    times, warm_ok = [], True
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        package = import_lrange()
        workload = workload_cls(package, seed, smoke)
        _, ok, _ = Runner(workload).execute(0)
        times.append(time.perf_counter() - t0)
        warm_ok = warm_ok and ok is not False
    return statistics.median(times), package, workload, warm_ok


def descent_ratios(infos: list) -> dict:
    used = sum(info[0] for info in infos)
    allowed = sum(info[1] for info in infos)
    at_cap = sum(info[2] for info in infos)
    return {
        "optimize.restarts_used_frac": used / allowed if allowed else 0.0,
        "optimize.best_at_cap_frac": at_cap / len(infos) if infos else 0.0,
    }


def traced_metrics(package, workload, commands) -> tuple[dict, list, bool, Path]:
    untraced = Runner(workload).run(count=workload.trace_ops)
    trace = tracer.Tracer(package, LAYERS)
    trace.install()
    try:
        traced = Runner(workload, trace).run(count=workload.trace_ops)
        _, cli_ok = run_cli(package, commands, reps=1)
    finally:
        trace.restore()

    calls, self_s = trace.summary()
    op_calls, _ = trace.summary(ops_only=True)
    index = {name: k for k, name in enumerate(trace.names)}
    metrics = {}
    for name in REPORTED:
        metrics[f"{name}.calls"] = (calls[index[name]], "count")
        metrics[f"{name}.self_s"] = (self_s[index[name]], "s")
    for layer in LAYERS:
        total = sum(t for name, t in zip(trace.names, self_s) if name.startswith(layer + "."))
        metrics[f"{layer}.self_s"] = (total, "s")

    def ratio(num: str, den: str) -> float:
        d = op_calls[index[den]]
        return op_calls[index[num]] / d if d else 0.0

    ratios = {
        "witness.surface_solves_per_pinch": ratio("ellipsoid.nearest_surface", "witness.single_pinch_witness"),
        "witness.pinches_per_star": ratio("witness.single_pinch_witness", "witness.star_point_witness"),
        "optimize.trial_steps_per_query": ratio("core.expm_skew", "optimize.orbit_distance"),
        **descent_ratios(traced["infos"]),
        "trace.overhead_frac": 1.0 - untraced["wall"] / traced["wall"],
    }
    metrics.update({name: (value, "ratio") for name, value in ratios.items()})
    attempted = len(untraced["latencies"]) + len(traced["latencies"])
    failed = sum(r["raised"] + r["wrong"] for r in (untraced, traced))
    metrics["fail_frac"] = (failed / attempted, "ratio")
    path = WORKDIR / f"trace-{workload.name}.json"
    trace.write(path)
    return metrics, [untraced, traced], cli_ok, path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "lrange" / "__init__.py").is_file():
        print("src/lrange not found: run from the root of an lrange checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC.resolve()))
    WORKDIR.mkdir(parents=True, exist_ok=True)
    smoke = args.scale == "smoke"

    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    # numpy generators need a non-negative seed
    setup_s, package, workload, warm_ok = setup(
        workloads.WORKLOADS[args.workload], args.seed % (1 << 64), smoke
    )
    commands = workload.cli_commands(WORKDIR)

    if args.trace:
        metrics, passes, cli_ok, path = traced_metrics(package, workload, commands)
        print(f"spans written to {path}")
    else:
        result = Runner(workload).run(
            seconds=args.seconds, min_ops=SMOKE_MIN_OPS if smoke else MIN_OPS
        )
        cli_s, cli_ok = run_cli(package, commands, CLI_REPS)
        tracer.assert_clean(package)
        passes, lat = [result], result["latencies"]
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (len(lat) / result["wall"], "op/s"),
            "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
            "op_p90_ms": (p90(lat) * 1e3, "ms"),
            "cli_s": (cli_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    attempted = sum(len(r["latencies"]) for r in passes)
    raised = sum(r["raised"] for r in passes)
    wrong = sum(r["wrong"] for r in passes)
    failed = raised + wrong
    print(f"ops {attempted}: {raised} raised, {wrong} wrong, fail_frac {failed / attempted}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value} {unit}")
    # a library error is a failed op but not a wrong output
    correct = wrong == 0 and cli_ok and warm_ok
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
