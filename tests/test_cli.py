import json

import pytest

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
    s2 = CaseSpec("G", 2, (1,), kmax=9)
    run_case(s1, cache)
    assert cache.get("case", s2.key()) is None  # kmax participates in the key


def test_cache_corrupt_entry(tmp_path, capsys):
    cache = ResultCache(tmp_path)
    spec = CaseSpec("G", 2, (2,))
    run_case(spec, cache)
    p = cache.path("case", spec.key())
    p.write_text("{not json")
    assert cache.get("case", spec.key()) is None  # warning + recompute path
    rec = run_case(spec, cache)
    assert rec["status"] == "Match"
