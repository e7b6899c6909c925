import os
import subprocess
import sys
from pathlib import Path

import pytest

import nhsf
import nhsf.expected
import nhsf.verify
from nhsf.gmod import FlagCase
from nhsf.rootsys import COROOT, Weight, build_root_system
from nhsf.verify import (CaseSpec, MATCH, bwb_adjoint, bwb_h_i, ir_count,
                         premet_split_check, run_case, run_g2_structure,
                         statement41_check)


def test_bwb_identity_word_gives_minus_lambda():
    rs = build_root_system("A", 3)
    lam = Weight((1, 0, 1), COROOT)
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
    from nhsf.cohom import cohomology, full_window
    from nhsf.gmod import FlagCase
    from nhsf.prolong import yamaguchi_classify

    fc = FlagCase("G", 2, (1,))
    adj, cor = fc.adjoint_module(), fc.coriemann_module()
    adj_slices = [s for s in cohomology(fc.gminus, adj, 2, full_window(fc.gminus, adj, 2))
                  if s.dim_h]
    cor_slices = [s for s in cohomology(fc.gminus, cor, 1, full_window(fc.gminus, cor, 1))
                  if s.dim_h]
    dims = lambda slices: {s.k: s.dim_h for s in slices}
    rep = premet_split_check(fc, dims(adj_slices), dims(cor_slices), cor_slices,
                             yamaguchi_classify(fc.alg))
    assert rep["holds_degreewise"]
    assert rep["rank2_boundary"]


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
