"""Content-addressed JSON result cache.

Layout: <cache-dir>/<stage>/<sha256-of-key>.json, where the key combines the
stage name, the engine version, a digest of the package source (the bytes of
every ``nhsf/*.py``) and the stage inputs, so a record is only ever served to
the code that produced it.  Entries are written to a temporary file in the
same directory and renamed into place, so a reader never sees a partial
entry.  Corrupt entries are ignored with a warning and recomputed.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from functools import lru_cache
from pathlib import Path

from . import ENGINE_VERSION

ENV_VAR = "NHSF_CACHE_DIR"


def _stable_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@lru_cache(maxsize=None)
def _source_digest() -> str:
    """sha256 over the name and bytes of every module of the package."""
    h = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


class ResultCache:
    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def key_hash(self, stage: str, key) -> str:
        blob = _stable_dumps({"stage": stage, "engine": ENGINE_VERSION,
                              "source": _source_digest(), "key": key})
        return hashlib.sha256(blob.encode()).hexdigest()

    def path(self, stage: str, key) -> Path:
        d = self.root / stage
        d.mkdir(parents=True, exist_ok=True)
        return d / f"{self.key_hash(stage, key)}.json"

    def get(self, stage: str, key):
        p = self.path(stage, key)
        if not p.exists():
            return None
        try:
            return json.loads(p.read_text())
        except (json.JSONDecodeError, OSError) as exc:
            print(f"warning: ignoring corrupt cache entry {p}: {exc}", file=sys.stderr)
            return None

    def put(self, stage: str, key, value) -> None:
        p = self.path(stage, key)
        fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=p.parent)
        try:
            with os.fdopen(fd, "w") as f:
                f.write(_stable_dumps(value))
            os.replace(tmp, p)
        except BaseException:
            os.unlink(tmp)
            raise


def default_cache(cli_dir: str | None = None) -> ResultCache | None:
    """Cache from --cache-dir, else NHSF_CACHE_DIR, else disabled."""
    d = cli_dir or os.environ.get(ENV_VAR)
    return ResultCache(d) if d else None
