import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nhsf
import nhsf.expected
import nhsf.verify
from nhsf.gmod import FlagCase
from nhsf.rootsys import build_root_system
from nhsf.verify import (CaseSpec, MATCH, bwb_adjoint, bwb_h_i, ir_count,
                         premet_split_check, run_case, run_g2_structure,
                         statement41_check)


def test_bwb_identity_word_gives_minus_lambda():
    rs = build_root_system("A", 3)
    lam = (1, 0, 1)
    rows = bwb_h_i(rs, (2,), lam, 0)
    assert len(rows) == 1
    assert tuple(int(c) for c in rows[0]["weight_cm"]) == (-1, 0, -1)


def test_bwb_g2_and_e6_rows():
    g2 = build_root_system("G", 2)
    rows = bwb_adjoint(g2, (1,), 2)
    assert [tuple(int(c) for c in e["weight_cm"]) for e in rows] == [(8, -4)]
    assert rows[0]["degree"] == 4
    e6 = build_root_system("E", 6)
    rows = bwb_adjoint(e6, (5,), 2)
    assert [tuple(int(c) for c in e["weight_cm"]) for e in rows] == [(0, 0, -1, 0, 3, -1)]


# -- the BWB route, pinned ------------------------------------------------------

# sha256 of bwb_h_i's rows (see ``bwb_sha256``) at every node, s = 0, 1, 2,
# for lambda = the adjoint highest weight and lambda = 0.  Recorded from the
# Fraction-coordinate weights that preceded the integer ones.
BWB_SHA256 = {
    "A1": "cccedd26872f830fcd3e2cf004f8789b54b41b0a53f9ff883fdbe5a3084d3881",
    "A2": "a2b6073e084d62451d43183ad64090cf261b95dfff6a09e6c728b1985877a693",
    "A3": "8c20f694d30553e3e456445dcdf6dd40f73b47b388293409010bf0883607485b",
    "A4": "95f848de7b27e0dfdd6d4c89566b6a58e42db46c7fe09a4afa2b8cf4a05f99a1",
    "A5": "ab368bc6e1828899d39d7984ba62e30aff69622ffea72441f55f3819fb08ed4c",
    "A6": "a4d69fefa89716874cdee736a3e66210f2ea36ce20b04e512c87e17e9429fdce",
    "A7": "cd8e940eeee4f0a10dfc91be8b22fe92e94c17d83ad2040beca1eda281ffdb4f",
    "A8": "425e0bd7911ed9f9dc37a704bc8e5ecc0d65a71eb515e74a6d5d8ac6f343734c",
    "B2": "47a477815bc8a5227cfcb60916821b78a3495bcf21a7464b0705a30abf2aa7d1",
    "B3": "fcba23b551c3328fba862e3957b503f9f7fe81c5c6c0866fcd6fbbede9ef74ca",
    "B4": "704606af0de960ac1169fe73e8088d62921b0212cd403dc89321fec11774b2b4",
    "B5": "7933cdb7679d44a57e3a1e4e0d66b8b03d8150265eb572dabcd9d36a42052f4d",
    "B6": "32a90d616080e1f7f11cefb875adb9e335af10f8ba13c41bf2e07d45e0e306a8",
    "B7": "cb2de1411a3f696312e1d13e23476f8a50edabb622b258991fb31e2f374d4a51",
    "B8": "0a4217eff0ea676acfb45015eeda439e2e6f663a9081d45c7cf11237a1a97646",
    "C2": "5063b06aac671e246967ebd7b235cf8317f4ca80a4aa3381db1d0f7435f86179",
    "C3": "e8ee07c8dc71540159260f56eee1ac5e955dc3b57755bad9e83d53f4bb9d104e",
    "C4": "4aadd4602cdcf633f672a7430be820b930172271692701a45d3806939e2e02fe",
    "C5": "aa3c6e474b01d1fbef53317373f572187c3c555b5986c2cd4d449e88872be72f",
    "C6": "f413ac217afc8401005ddb11e64c8cda1756600137734ed765e990e0ddfb3e3c",
    "C7": "f217d1039b5cbf5b411abd28b2754bf817b8cbe7b9863b57df2c50afb04dde6d",
    "C8": "4ff12f040589f52303d7e39c3e73c147fd0e8126462c445459e556ddd50dc04e",
    "D3": "3d93fffa8db7369c2a03c6227347a88a7e9a0c48f1d879b1b01f1804125ca0f8",
    "D4": "ca329d87cd4a347b965d4642f649306e4769416ecc6a5f3d35f52a50826d614d",
    "D5": "ea49aa6c2c737aac540b9a5d69b10acfed70e8690e00e7ca267e465ede4630a5",
    "D6": "db18bb7fc0c2bf1b37163c5e0e52f37573c449489c2755f83b6fadeb91fde088",
    "D7": "2f32a7732cbb9bd690ab49f9a000ad3c62d8f634ec48dd18dc3ba9af5577df74",
    "D8": "fd4391aacd9eb32e6b11f36b18ffe1a7e19c762384a9261872d49b1edcae8eec",
    "E6": "bb783449c601bac2e310876878cd2d5b1cbc92db73dc6adb3db1840121c84034",
    "E7": "462890f83212bcce3af2c6f32f043f9c7a971751e69b68415b031a0d5990a1e8",
    "E8": "96e33b520c833e806459e28425f17f867533aee4381b83981d9a979e26ef18c5",
    "F4": "5f23f8ce0f43975398b89d59dd456217c49faeca71f44476e791dc7a6c9cfaaa",
    "G2": "23ab4aca6812b6a5c32cdefc098be874b9608bee92b55b9b8167c1a5eb8ae37c",
}


def bwb_sha256(rs) -> str:
    """sha256 over repr((node, s, lam, [(weight_cm, degree, word)])) of every row."""
    h = hashlib.sha256()
    zero = (0,) * rs.rank
    for node in range(1, rs.rank + 1):
        for s in (0, 1, 2):
            for lam, rows in (("adjoint", bwb_adjoint(rs, (node,), s)),
                              ("trivial", bwb_h_i(rs, (node,), zero, s))):
                rows = [(tuple(e["weight_cm"]), e["degree"], tuple(e["word"])) for e in rows]
                h.update(repr((node, s, lam, rows)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", list(BWB_SHA256))
def test_bwb_rows_are_pinned(name):
    assert bwb_sha256(build_root_system(name[0], int(name[1:]))) == BWB_SHA256[name]


def test_bwb_degree_is_none_off_the_root_lattice():
    """(1, 0) of A2 is not in the root lattice, so no degree is reported."""
    rows = bwb_h_i(build_root_system("A", 2), (1,), (1, 0), 1)
    assert rows == [{"weight_cm": (3, -2), "degree": None, "word": [1]}]


def test_ir_count_examples():
    g2 = build_root_system("G", 2)
    r = ir_count(g2, (1,))
    assert r["direct"] == 1 and r["formula_c_plus"] == 1
    assert ir_count(g2, (2,))["direct"] == 1
    f4 = build_root_system("F", 4)
    assert ir_count(f4, (2,))["direct"] == 2
    e6 = build_root_system("E", 6)
    assert ir_count(e6, (3,))["direct"] == 3


def test_statement41():
    d20 = build_root_system("D", 20)
    rep = statement41_check(d20, {3, 7, 8, 9, 12, 16, 19, 20})
    assert rep["ok"]
    assert [c["c_i"] for c in rep["components"]] == [0, 1, 1, 1, 2]
    a5 = build_root_system("A", 5)
    assert statement41_check(a5, {3})["ok"]
    g2 = build_root_system("G", 2)
    rep = statement41_check(g2, {1})
    assert rep["ok"] and rep["components"][0]["c_i"] == 0


def test_premet_g2_node1():
    """The split on complete slices, the Riemann H^2 from the standalone module."""
    from nhsf.cohom import cohomology, full_window
    from nhsf.decomp import LOWEST, ExtremalWeights, decompose
    from nhsf.prolong import yamaguchi_classify

    fc = FlagCase("G", 2, (1,))
    adj, cor, riem = fc.adjoint_module(), fc.coriemann_module(), fc.riemann_module()
    slices = lambda mod, s: [sl for sl in cohomology(fc.gminus, mod, s,
                                                     full_window(fc.gminus, mod, s)) if sl.dim_h]
    adj_slices, cor_slices, riem_slices = slices(adj, 2), slices(cor, 1), slices(riem, 2)
    riem_summands = decompose(riem_slices, riem,
                              ExtremalWeights(fc.rs, tuple(fc.unselected), LOWEST))
    dims = lambda slices: {s.k: s.dim_h for s in slices}
    rep = premet_split_check(fc, dims(adj_slices), dims(cor_slices), riem_summands,
                             cor_slices, yamaguchi_classify(fc.alg))
    assert rep["holds_degreewise"]
    assert rep["rank2_boundary"]
    assert {int(k): v["riemann"] for k, v in rep["per_degree"].items()} == dims(riem_slices)


def test_run_case_g2_matches_table():
    rec = run_case(CaseSpec("G", 2, (1,)))
    assert rec["status"] == MATCH
    assert rec["checks"]["bwb"]["matches_direct"]
    assert rec["checks"]["h1_footnote_found"]
    assert rec["checks"]["ir_count"]["direct_equals_summands"]


def test_run_case_sl3_exceptional():
    rec = run_case(CaseSpec("A", 2, (1, 2)))
    assert rec["status"] == MATCH
    h2 = rec["checks"]["comparison"]["h2"]
    assert {tuple(r["cm"]) for r in h2["computed"]} == {(-1, 5), (5, -1)}
    assert all(r["degree"] == 4 for r in h2["computed"])


def test_run_case_bwb_budget_e7():
    rec = run_case(CaseSpec("E", 7, (4,), budget="bwb"))
    assert rec["status"] == MATCH
    assert rec["checks"]["comparison"]["h2_bwb_only"]["fw_column_consistent"]


def test_run_case_e7_node1_full_matches_both_routes():
    """One E7 Table-1 row by the direct route, compared with BWB."""
    rec = run_case(CaseSpec("E", 7, (1,), budget="full"))
    assert rec["status"] == MATCH
    assert rec["checks"]["bwb"]["matches_direct"] is True


@pytest.mark.parametrize("node", [2, 3, 4, 6])
def test_run_case_e6_bwb_only_rows_full_match_both_routes(node):
    """The E6 Table-1 rows the suite checks by BWB alone, by the direct route too."""
    rec = run_case(CaseSpec("E", 6, (node,), budget="full"))
    assert rec["status"] == MATCH
    assert rec["checks"]["bwb"]["matches_direct"] is True


def test_g2_structure_statement():
    out = run_g2_structure()
    assert out["status"] == MATCH
    assert out["matching_variant"] == "g2"
    g2 = out["variants"]["g2"]
    assert g2["orders"] == {"1": [[0, 0], [0, 1], [1, 0], [2, 0]], "2": [[0, 2]]}
    assert g2["prolong_dim_1"] == 0
    # the central extension does not reproduce the table
    assert out["variants"]["cg2"]["matches_statement"] is False


def test_sp4_node2_rank2_boundary_premet():
    """Rank-2 case at the Lemma boundary: the split is flagged, not assumed."""
    rec = run_case(CaseSpec("C", 2, (2,)))
    assert rec["checks"]["premet_split"]["rank2_boundary"]
    assert rec["status"] == MATCH  # table row still matches


def test_a1_premet_split_fails_and_is_flagged():
    """Below rank 2 the split fails too (A1 node 1 full), and the flag says so."""
    rec = run_case(CaseSpec("A", 1, (1,), "full"))
    split = rec["checks"]["premet_split"]
    assert not split["holds_degreewise"] and split["rank2_boundary"]


def test_invariant_raises_under_python_O():
    """A former bare assert (expected._pad) still raises with asserts stripped."""
    code = ("import sys\n"
            "from nhsf import InvariantError\n"
            "from nhsf.expected import _pad\n"
            "assert False, 'asserts are enabled'\n"
            "try:\n"
            "    _pad([1, 2], 0, [3], 2)\n"
            "except InvariantError:\n"
            "    sys.exit(0)\n"
            "sys.exit(3)\n")
    src = str(Path(nhsf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    res = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr


def test_full_case_computes_the_coriemann_h1_once(monkeypatch):
    """Its lowest weights are read off the highest ones, not computed again."""
    built, calls = [], []
    real_module, real_cohomology = FlagCase.coriemann_module, nhsf.verify.cohomology

    def coriemann_module(self):
        built.append(real_module(self))
        return built[-1]

    def cohomology(gm, mod, s, *args, **kwargs):
        calls.append((mod, s))
        return real_cohomology(gm, mod, s, *args, **kwargs)

    monkeypatch.setattr(FlagCase, "coriemann_module", coriemann_module)
    monkeypatch.setattr(nhsf.verify, "cohomology", cohomology)
    rec = run_case(CaseSpec("C", 3, (3,)))
    assert rec["status"] == MATCH and rec["checks"]["comparison"]["h1"]["status"] == MATCH
    assert len(built) == 1
    assert [s for mod, s in calls if mod is built[0]] == [1]


def test_full_case_reads_the_riemann_h2_off_the_adjoint(monkeypatch):
    """The Premet split builds no Riemann module and no Riemann cochains of its own."""
    calls = []
    real_cohomology = nhsf.verify.cohomology

    def riemann_module(self):
        raise AssertionError("run_case built the Riemann module")

    def cohomology(gm, mod, s, *args, **kwargs):
        calls.append((s, kwargs.get("sub") is not None))
        return real_cohomology(gm, mod, s, *args, **kwargs)

    monkeypatch.setattr(FlagCase, "riemann_module", riemann_module)
    monkeypatch.setattr(nhsf.verify, "cohomology", cohomology)
    rec = run_case(CaseSpec("C", 3, (3,)))
    assert rec["status"] == MATCH and rec["checks"]["premet_split"]["holds_degreewise"]
    assert sorted(calls) == [(0, False), (1, False), (2, True)]


def _suite_h1_cases():
    from nhsf.cli import _suite_table1, _suite_tables234

    for name, spec in _suite_table1() + _suite_tables234():
        exp = nhsf.verify.expectation_for(spec)
        if exp is not None and exp.h1 is not None:
            yield name, spec, exp


def test_every_suite_h1_row_is_levi_antidominant():
    """The transcription guard of ``_compare_h1_table`` passes on every suite case."""
    cases = list(_suite_h1_cases())
    assert sum(name.startswith("table1") for name, _, _ in cases) == 27
    for name, spec, exp in cases:
        rs = build_root_system(spec.type_letter, spec.rank)
        assert nhsf.verify.h1_not_antidominant(rs, spec.nodes, exp) == [], name


def test_h1_guard_flags_the_printed_e8_node3_cells(monkeypatch):
    """Without its ERRATA keys, E8 node 3's printed H^1 cells fail the guard."""
    rs = build_root_system("E", 8)
    monkeypatch.setattr(nhsf.expected, "ERRATA", {k: v for k, v in nhsf.expected.ERRATA.items()
                                                  if k[:4] != ("E", 8, (3,), "h1")})
    exp = nhsf.verify.expectation_for(CaseSpec("E", 8, (3,)))
    assert sorted(nhsf.verify.h1_not_antidominant(rs, (3,), exp)) == [
        (0, 2, 2, 2, 2, 1, 0, 1), (1, 2, 1, 0, 0, 0, 0, 0)]


def test_h1_guard_makes_a_mismatch_with_a_note(monkeypatch):
    """A printed H^1 row that is not Levi-antidominant fails the comparison."""
    real = nhsf.verify.expectation_for

    def misprinted(spec):
        exp = real(spec)
        exp.h1 = [nhsf.expected.H1Row((1, 0), "misprint")]  # alpha_1, node 1 unselected
        return exp

    monkeypatch.setattr(nhsf.verify, "expectation_for", misprinted)
    rec = run_case(CaseSpec("G", 2, (2,)))
    h1 = rec["checks"]["comparison"]["h1"]
    assert rec["status"] != MATCH and h1["status"] != MATCH
    assert "not Levi-antidominant" in h1["note"]
