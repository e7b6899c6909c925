"""Benchmark for the ``nhsf`` verify pipeline.

Run from the root of a checkout::

    python3 perfbench/run.py --workload e6_h2 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, by name

Each pass runs in a fresh interpreter (``worker.py``), one at a time, so
algebra and basis caches start cold and the two cores are not shared between
passes.  A run first times ``SETUP_PROBES`` set-up-only interpreters, then
repeats passes over the workload's cases while another pass still fits in
``--seconds`` (at least one pass).  Every timing is the median over the run's
passes.  Each case's answer is checked against ``digests.json``; a case fails
if it raises, if its status is not Match, or if its digest differs.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics, the
traced wall time and the tracing overhead (traced minus untraced wall time).

``--seed`` shuffles the case order within the workload.  The last stdout line
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give the run's conditions, every metric with
its unit and the median time of each case.  If ``nhsf`` is missing from the
checkout the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

NO_PROGRAM = 2  # worker.py's exit code when nhsf is not in the checkout
SETUP_PROBES = 4
RUN_LIMIT_S = 170  # a whole run must end within 180 s
DEFAULT_SEED = 20050919

# Which end-to-end metric, on which workload, each per-layer metric should move.
MOVES = {
    "rootsys.self_s": "wall_s on exceptional_bwb; nothing elsewhere",
    "rootsys.weyl_words": "wall_s on exceptional_bwb; nothing elsewhere",
    "liealg.build_chevalley_s": "setup_s on series and e6_h2",
    "liealg.self_s": "setup_s on series and e6_h2",
    "gmod.module_build_s": "wall_s on table1_full",
    "gmod.module_dim": "wall_s on table1_full",
    "gmod.self_s": "wall_s on table1_full",
    "cohom.": "wall_s on e6_h2 first, then table1_full",
    "linalg.": "wall_s and peak_rss_mib on e6_h2 and table1_full",
    "decomp.": "wall_s on table1_full",
    "prolong.self_s": "wall_s on series",
    "verify.self_s": "wall_s on table1_full; per-case overhead on series",
    "verify.premet_split_s": "wall_s on table1_full",
    "trace.": "tracing overhead, not a program cost",
}


def moves(name: str) -> str:
    for prefix, text in MOVES.items():
        if name == prefix or (prefix.endswith(".") and name.startswith(prefix)):
            return text
    return ""


def commit() -> str:
    """The checkout's git commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn(workload: str, seed: int, deadline: float, trace=False, setup_only=False) -> dict:
    """One pass in a fresh interpreter; returns the worker's JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    env = {k: v for k, v in os.environ.items() if k != "NHSF_CACHE_DIR"}
    t0 = time.time()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], stdout=subprocess.PIPE, text=True,
                              env=env, cwd=ROOT, timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        return {"error": "pass timed out"}
    if proc.returncode == NO_PROGRAM:
        sys.exit(NO_PROGRAM)
    if proc.returncode != 0 or not proc.stdout.strip():
        return {"error": f"worker exited with code {proc.returncode}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(workload: str, seed: int, seconds: int, deadline: float, modes) -> list[list[dict]]:
    """Repeat a round of passes (one per trace mode) while another round fits."""
    rounds: list[list[dict]] = []
    start = time.monotonic()
    while True:
        r0 = time.monotonic()
        rounds.append([spawn(workload, seed, deadline, trace=m) for m in modes])
        now = time.monotonic()
        if now - start + (now - r0) > seconds or now + (now - r0) > deadline:
            return rounds


def failures(workload: str, passes: list[dict]) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    errors = []
    n = len(WORKLOADS[workload])
    for p in passes:
        attempted += n
        if "error" in p:
            failed += n
            errors.append(p["error"])
            continue
        bad = [c for c in p["cases"] if "error" in c]
        failed += len(bad) + n - len(p["cases"])
        errors += [f"{c['name']}: {c['error']}" for c in bad]
    return attempted, failed, errors


def case_medians(passes: list[dict]) -> dict[str, float]:
    times: dict[str, list[float]] = {}
    for p in passes:
        for c in p.get("cases", []):
            times.setdefault(c["name"], []).append(c["seconds"])
    return {name: statistics.median(v) for name, v in times.items()}


def median_of(passes: list[dict], key) -> float:
    vals = [key(p) for p in passes if "error" not in p]
    return statistics.median(vals) if vals else float("nan")


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    load_before = os.getloadavg()
    setups = []
    if trace:
        rounds = run_passes(workload, seed, seconds, deadline, (False, True))
        plain = [r[0] for r in rounds]
        traced = [r[1] for r in rounds]
        passes = plain + traced
        good = [p for p in traced if "error" not in p]
        metrics = {name: statistics.median(p["layers"][name] for p in good)
                   for name in (good[0]["layers"] if good else {})}
        metrics["trace.wall_s"] = median_of(traced, lambda p: p["wall_s"])
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - median_of(plain, lambda p: p["wall_s"])
        spans = good[0]["spans"] if good else {}
    else:
        setups = [spawn(workload, seed, deadline, setup_only=True) for _ in range(SETUP_PROBES)]
        passes = [r[0] for r in run_passes(workload, seed, seconds, deadline, (False,))]
        metrics = {
            "setup_s": median_of(setups + passes, lambda p: p["setup_s"]),
            "wall_s": median_of(passes, lambda p: p["wall_s"]),
            "case_max_s": median_of(passes, lambda p: max(c["seconds"] for c in p["cases"])),
            "peak_rss_mib": median_of(passes, lambda p: p["peak_rss_mib"]),
        }
        spans = {}
    attempted, failed, errors = failures(workload, passes)
    errors += [p["error"] for p in setups if "error" in p]
    conditions = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "passes": len(passes), "setup_samples": len(setups) + len(passes),
        "python": platform.python_version(), "nproc": os.cpu_count(), "commit": commit(),
        "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
    }
    return {"conditions": conditions, "metrics": metrics, "attempted": attempted,
            "failed": failed, "errors": errors, "cases": case_medians(passes), "spans": spans}


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def report(result: dict, spec: dict, prefix: str = "") -> dict:
    """Print a run's conditions, metrics and case times; return its metrics."""
    print(json.dumps({"conditions": result["conditions"]}))
    for err in result["errors"]:
        print(f"FAILED {err}")
    out = {}
    for name, value in result["metrics"].items():
        unit = spec[name]["unit"]
        note = moves(name)
        print(f"{prefix}{name:28s} {value:14.6f} {unit:6s} {note}")
        out[prefix + name] = {"value": value, "unit": unit}
    frac = result["failed"] / result["attempted"]
    print(f"{prefix}{'fail_frac':28s} {frac:14.6f} 1      "
          f"({result['failed']} of {result['attempted']} cases)")
    for name, secs in result["cases"].items():
        print(f"  case {secs:10.4f} s  {name}")
    if result["spans"]:
        print(json.dumps({"spans": result["spans"]}))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark for the nhsf verify pipeline.")
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "nhsf" / "__init__.py").is_file():
        print(f"nhsf not found under {ROOT / 'src'}", file=sys.stderr)
        return NO_PROGRAM
    spec = load_spec()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics: dict = {}
    attempted = failed = errors = 0
    for w in names:
        result = measure(w, args.seed, args.seconds, bool(args.trace))
        metrics.update(report(result, spec, f"{w}." if args.workload == "all" else ""))
        attempted += result["attempted"]
        failed += result["failed"]
        errors += len(result["errors"])
    print(json.dumps({"correct": errors == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
