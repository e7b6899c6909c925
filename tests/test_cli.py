import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import nhsf.cache
import nhsf.cli
from nhsf.cache import ResultCache
from nhsf.cli import main
from nhsf.verify import CaseSpec, run_case


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_bwb_command(capsys):
    code, out = run(capsys, "bwb", "--type", "G", "--rank", "2", "--nodes", "1", "--s", "2")
    assert code == 0
    data = json.loads(out)
    assert data["weights"] == [{"weight_cm": [8, -4], "degree": 4}]


def test_grade_command(capsys):
    code, out = run(capsys, "grade", "--type", "A", "--rank", "1", "--nodes", "1")
    assert code == 0
    data = json.loads(out)
    assert data["d"] == 1 and data["dims"] == {"-1": 1, "0": 1, "1": 1}


def test_roots_command(capsys):
    code, out = run(capsys, "roots", "--type", "F", "--rank", "4")
    data = json.loads(out)
    assert code == 0 and data["positive_roots"] == 24
    assert data["maximal_root"] == [2, 4, 3, 2]


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["roots", "--type", "Z", "--rank", "2"])
    assert exc.value.code == 2


def test_invalid_rank_exit_code(capsys):
    assert main(["roots", "--type", "E", "--rank", "5"]) == 2


def test_bad_kmax_is_an_input_error(capsys):
    assert main(["prolong", "--type", "G", "--rank", "2", "--nodes", "1", "--kmax", "0"]) == 2
    assert capsys.readouterr().err.startswith("error: kmax")


@pytest.mark.parametrize("exc", [nhsf.InvariantError("d o d != 0"),
                                 ValueError("slice (s=2, k=4) is not valid")])
def test_internal_error_exit_code(capsys, monkeypatch, exc):
    """A failure inside nhsf, even a plain ValueError, is not a usage error."""
    def broken(*args):
        raise exc

    monkeypatch.setattr(nhsf.cli, "build_root_system", broken)
    assert main(["roots", "--type", "G", "--rank", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: ") and str(exc) in captured.err


@pytest.mark.parametrize("nodes, message", [("1,9", "outside 1..2"), ("1,1", "repeat"),
                                            ("x", "comma-separated integers")])
def test_bad_nodes_exit_code(capsys, nodes, message):
    assert main(["grade", "--type", "G", "--rank", "2", "--nodes", nodes]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


def test_prolong_command(capsys):
    code, out = run(capsys, "prolong", "--type", "G", "--rank", "2", "--nodes", "1")
    data = json.loads(out)
    assert code == 0
    assert data["classification"] == "EqualsS" and data["equals_ambient"]


def test_cohomology_command(capsys):
    code, out = run(capsys, "cohomology", "--type", "G", "--rank", "2",
                    "--nodes", "1", "--coeff", "adjoint", "--s", "2")
    data = json.loads(out)
    assert code == 0
    assert data["summands"] == [{"kind": "Lowest", "weight_cm": [8, -4],
                                 "weight_fw": ["4", "0"], "degree": 4,
                                 "multiplicity": 1}]


def test_cohomology_fully_selected_prints_summands(capsys):
    # no Levi raise/lower actors at all: every representative is extremal
    code, out = run(capsys, "cohomology", "--type", "A", "--rank", "2", "--nodes", "1,2")
    data = json.loads(out)
    assert code == 0
    assert [(sm["weight_cm"], sm["degree"]) for sm in data["summands"]] == [
        ([-1, 5], 4), ([5, -1], 4)]


def test_verify_table1_only_g2(capsys, monkeypatch):
    calls = []

    def counting_run_case(spec, cache=None):
        calls.append(spec)
        return run_case(spec, cache)

    # --only filters the case list before anything runs
    monkeypatch.setattr(nhsf.cli, "run_case", counting_run_case)
    code, out = run(capsys, "verify", "--suite", "table1", "--only", "g2")
    assert code == 0
    assert out.count("Match") == 2
    assert len(calls) == 2


def test_byte_determinism(capsys, tmp_path):
    argv = ["cohomology", "--type", "C", "--rank", "2", "--nodes", "1",
            "--coeff", "adjoint", "--s", "2"]
    _, out1 = run(capsys, *argv)
    _, out2 = run(capsys, *argv)
    assert out1 == out2


def test_record_determinism_minus_timing():
    r1 = run_case(CaseSpec("G", 2, (2,)))
    r2 = run_case(CaseSpec("G", 2, (2,)))
    r1.pop("timing"), r2.pop("timing")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_json_roundtrip():
    rec = run_case(CaseSpec("G", 2, (1,)))
    blob = json.dumps(rec)
    assert json.loads(blob) == rec


def test_cache_roundtrip(tmp_path):
    cache = ResultCache(tmp_path)
    spec = CaseSpec("G", 2, (1,))
    r1 = run_case(spec, cache)
    assert cache.get("case", spec.key()) is not None
    r2 = run_case(spec, cache)  # cache hit: byte-identical incl. timing
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_cache_key_granularity(tmp_path):
    cache = ResultCache(tmp_path)
    s1 = CaseSpec("G", 2, (1,))
    s2 = CaseSpec("G", 2, (1,), budget="h2")
    run_case(s1, cache)
    assert cache.get("case", s2.key()) is None  # budget participates in the key


def test_case_spec_rejects_unknown_budget():
    with pytest.raises(ValueError, match="budget"):
        CaseSpec("G", 2, (1,), budget="fulll")


def test_cache_corrupt_entry(tmp_path, capsys):
    cache = ResultCache(tmp_path)
    spec = CaseSpec("G", 2, (2,))
    run_case(spec, cache)
    p = cache.path("case", spec.key())
    p.write_text("{not json")
    assert cache.get("case", spec.key()) is None  # warning + recompute path
    rec = run_case(spec, cache)
    assert rec["status"] == "Match"


def test_cache_put_replaces_atomically(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    cache.put("case", {"k": 1}, {"v": "old"})

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(nhsf.cache.os, "replace", failing_replace)
    with pytest.raises(OSError):
        cache.put("case", {"k": 1}, {"v": "new"})
    # the old entry is intact and no temporary file is left behind
    assert cache.get("case", {"k": 1}) == {"v": "old"}
    assert [p.suffix for p in (tmp_path / "case").iterdir()] == [".json"]
    monkeypatch.undo()
    cache.put("case", {"k": 1}, {"v": "new"})
    assert cache.get("case", {"k": 1}) == {"v": "new"}
    assert [p.suffix for p in (tmp_path / "case").iterdir()] == [".json"]


def _key_hash_from(package_dir: Path, cache_dir: Path) -> str:
    """key_hash of one fixed key, computed by the package copy in package_dir."""
    code = ("import sys; from nhsf.cache import ResultCache; "
            "print(ResultCache(sys.argv[1]).key_hash('case', {'k': 1}))")
    env = dict(os.environ, PYTHONPATH=str(package_dir))
    return subprocess.run([sys.executable, "-c", code, str(cache_dir)], env=env,
                          capture_output=True, text=True, check=True).stdout.strip()


def test_cache_key_covers_the_source(tmp_path):
    here = ResultCache(tmp_path / "cache").key_hash("case", {"k": 1})
    copy = tmp_path / "src"
    shutil.copytree(Path(nhsf.cache.__file__).parent, copy / "nhsf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    assert _key_hash_from(copy, tmp_path / "cache") == here
    # any edit to the package, even without an ENGINE_VERSION bump, changes the key
    decomp = copy / "nhsf" / "decomp.py"
    decomp.write_text(decomp.read_text() + "\n# edited\n")
    assert _key_hash_from(copy, tmp_path / "cache") != here
