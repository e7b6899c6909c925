import os
import subprocess
import sys
from pathlib import Path

import pytest

import nhsf
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
