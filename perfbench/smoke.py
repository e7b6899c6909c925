"""Smoke test of the benchmark itself (about three minutes on two cores).

Checks that
1. every metric BENCHMARK.json names is reported, with its unit;
2. no case fails at this commit (fail_frac is 0);
3. two traced runs give identical per-layer counts (every metric not ending
   in ``_s``);
4. no result-cache directory is created, even with NHSF_CACHE_DIR set.

Run from the root of a checkout::

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from run import HERE, ROOT


def run(workload: str, trace: int, env: dict) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def dirs() -> set:
    return {p for p in ROOT.rglob("*")
            if p.is_dir() and not {"__pycache__", ".git"} & set(p.parts)}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    probe = ROOT / ".nhsf_cache_probe"
    env = dict(os.environ, NHSF_CACHE_DIR=str(probe))
    before = dirs()
    plain = run("exceptional_bwb", 0, env)
    traced = [run("series", 1, env) for _ in range(2)]
    problems = []

    for result, kind in [(plain, "end_to_end")] + [(t, "per_layer") for t in traced]:
        want = {m["name"]: m["unit"] for m in spec[kind]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != want:
            problems.append(f"{kind} metrics or units differ: {sorted(set(got.items()) ^ set(want.items()))}")
        if not result["correct"] or result["failed"]:
            problems.append(f"{result['failed']} of {result['attempted']} cases failed")

    counts = [{n: m["value"] for n, m in t["metrics"].items() if not n.endswith("_s")}
              for t in traced]
    if counts[0] != counts[1]:
        diff = {n: (counts[0][n], counts[1].get(n)) for n in counts[0]
                if counts[0][n] != counts[1].get(n)}
        problems.append(f"per-layer counts differ between traced runs: {diff}")

    created = dirs() - before
    if probe.exists() or created:
        problems.append(f"directories created: {sorted(map(str, created))}")

    for p in problems:
        print(f"FAIL {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
