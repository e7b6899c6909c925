"""Write ``digests.json``: the answer digest of every benchmark case.

The digests pin the answers of the commit that recorded them; ``run.py``
fails any case whose answer differs.  Re-record only when an answer is meant
to change, and say why in the change that does it::

    python3 perfbench/record_digests.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

from run import HERE, ROOT
from workloads import WORKLOADS
from worker import DIGESTS


def main() -> int:
    digests = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", "0", "--t0", repr(time.time()), "--no-digests"]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, check=True)
        for case in json.loads(out.stdout.strip().splitlines()[-1])["cases"]:
            if "error" in case:
                print(f"{case['name']}: {case['error']}", file=sys.stderr)
                return 1
            digests[case["name"]] = case["digest"]
    DIGESTS.write_text(json.dumps(dict(sorted(digests.items())), indent=1) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
