"""Tiny-size self-check of the benchmark itself.

Run from the repository root:

    python3 perfbench/selfcheck.py

Runs every workload briefly, untraced and traced, each in its own process,
and asserts that the result line has exactly the agreed keys, that every
metric named in BENCHMARK.json is emitted with its unit, and that no
operation failed (error_rate == 0). It also checks that the benchmark
refuses to run, with a nonzero exit and no result, when the library
sources are absent.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300,
    )


def _check_result(proc: subprocess.CompletedProcess, want: dict[str, str], what: str) -> None:
    if proc.returncode != 0:
        raise AssertionError(f"{what}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{what}: result keys {sorted(res)}")
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(got) & set(want) if got[k] != want[k])
        raise AssertionError(f"{what}: missing {missing}, extra {extra}, wrong units {wrong}")
    if not all(isinstance(m["value"], (int, float)) for m in res["metrics"].values()):
        raise AssertionError(f"{what}: non-numeric metric value")
    if res["attempted"] < 1 or res["failed"] != 0 or res["correct"] is not True:
        raise AssertionError(
            f"{what}: error_rate {res['failed']}/{res['attempted']}, correct={res['correct']}"
        )
    print(f"ok {what}: {res['attempted']} ops, {len(got)} metrics, error_rate 0")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for w in spec["workloads"]:
        name = w["name"]
        for trace, want, what in (("0", end_to_end, "untraced"), ("1", per_layer, "traced")):
            proc = _run(ROOT, "--workload", name, "--seed", "0", "--seconds", "1", "--trace", trace)
            _check_result(proc, want, f"{name} {what}")

    bare = HERE / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        skip = shutil.ignore_patterns(".work", "traces", "__pycache__")
        shutil.copytree(HERE, bare / "perfbench", ignore=skip)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        name = spec["workloads"][0]["name"]
        proc = _run(bare, "--workload", name, "--seed", "0", "--seconds", "1", "--trace", "0")
        if proc.returncode == 0 or proc.stdout.strip():
            raise AssertionError("benchmark ran without the library sources")
        print(f"ok without sources: exit {proc.returncode}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
