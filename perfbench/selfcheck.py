"""Smoke self-check of the benchmark at tiny sizes.

    python3 perfbench/selfcheck.py

Run from the repository root.  Every workload of ``BENCHMARK.json`` runs
at smoke scale once untraced and twice traced with the same seed.  The
check fails unless each run reports correct outputs and exactly the
metrics ``BENCHMARK.json`` names, with their units, and unless every
``*.calls`` count is identical across the two traced runs.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

SEED = 5
TIMEOUT_S = 180


def run(workload: str, trace: int) -> dict:
    argv = [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
            "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--scale", "smoke"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} trace={trace}: outputs not correct: {result}\n{proc.stderr}")
    return result


def expect_metrics(result: dict, specs: list, where: str):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in specs}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong_unit = sorted(k for k in set(got) & set(want) if got[k] != want[k])
        raise SystemExit(f"{where}: missing {missing}, extra {extra}, wrong unit {wrong_unit}")


def main() -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in (w["name"] for w in bench["workloads"]):
        expect_metrics(run(workload, 0), bench["end_to_end"], f"{workload} untraced")
        first, second = run(workload, 1), run(workload, 1)
        for result in (first, second):
            expect_metrics(result, bench["per_layer"], f"{workload} traced")
        for name, metric in first["metrics"].items():
            if name.endswith(".calls") and metric["value"] != second["metrics"][name]["value"]:
                raise SystemExit(
                    f"{workload}: {name} differs across traced runs: "
                    f"{metric['value']} vs {second['metrics'][name]['value']}"
                )
        print(f"{workload}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
