"""One benchmark pass, run by ``run.py`` in a fresh interpreter.

A pass imports ``nhsf`` from the checkout's ``src/``, builds (Jacobi-verified)
every Chevalley algebra the pass's direct-route cases grade, and then runs the
cases serially unless ``--setup-only`` is given.  Starting a fresh interpreter
per pass keeps the ``lru_cache``d algebras and per-module basis caches cold,
as they are for a command-line user.  The result cache stays off.

It prints one JSON object on its last stdout line.  Usage (normally through
``run.py``)::

    python3 perfbench/worker.py --workload e6_h2 --seed 0 --t0 <time.time()> [--trace] [--setup-only]

Exit code 2 (``NO_PROGRAM``) means ``nhsf`` could not be found in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
NO_PROGRAM = 2  # exit code: nhsf is not in this checkout

sys.path.insert(0, str(HERE))
from workloads import Case, ordered_cases, setup_algebras  # noqa: E402


def import_nhsf():
    """Import ``nhsf`` from this checkout only, never from site-packages."""
    src = ROOT / "src"
    if not (src / "nhsf" / "__init__.py").is_file():
        print(f"nhsf not found under {src}", file=sys.stderr)
        sys.exit(NO_PROGRAM)
    sys.path.insert(0, str(src))
    import nhsf.verify

    if Path(nhsf.verify.__file__).resolve().parent != (src / "nhsf").resolve():
        print(f"imported nhsf from {nhsf.verify.__file__}, not from {src}", file=sys.stderr)
        sys.exit(NO_PROGRAM)
    return nhsf


def answer(case: Case, record: dict) -> dict:
    """The mathematical answer of a record: what the digest covers.

    Telemetry (``timing``, a later ``profile``) and cache keys (``case``,
    ``engine``) are left out, so changes to them never count as failures.
    """
    if case.type_letter is None:
        return record
    return {"slices": record["slices"], "summands": record["summands"],
            "status": record["status"], "comparison": record["checks"]["comparison"]}


def digest(case: Case, record: dict) -> str:
    blob = json.dumps(answer(case, record), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def run_one(verify, case: Case) -> dict:
    if case.type_letter is None:
        return verify.run_g2_structure()
    return verify.run_case(verify.CaseSpec(case.type_letter, case.rank, case.nodes,
                                           budget=case.budget))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.time() just before the parent started this interpreter")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--no-digests", action="store_true",
                    help="skip the digest check (used when recording digests)")
    args = ap.parse_args(argv)
    cases = ordered_cases(args.workload, args.seed)

    nhsf = import_nhsf()
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    for t, r in setup_algebras(cases):
        nhsf.liealg.build_chevalley(t, r)
    setup_s = time.time() - args.t0
    out: dict = {"setup_s": setup_s, "cases": []}

    if not args.setup_only:
        want = {} if args.no_digests else json.loads(DIGESTS.read_text())
        start = time.perf_counter()
        for case in cases:
            row: dict = {"name": case.name}
            out["cases"].append(row)
            t0 = time.perf_counter()
            try:
                record = run_one(nhsf.verify, case)
            except Exception:
                row["error"] = traceback.format_exc(limit=3)
                continue
            finally:
                row["seconds"] = time.perf_counter() - t0
            row["status"] = record["status"]
            row["digest"] = digest(case, record)
            if record["status"] != nhsf.verify.MATCH:
                row["error"] = f"status {record['status']}"
            elif not args.no_digests and row["digest"] != want.get(case.name):
                row["error"] = "answer digest differs from the recorded one"
        out["wall_s"] = time.perf_counter() - start
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["spans"] = tracer.span_table()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
