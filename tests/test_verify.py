import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nhsf
import nhsf.expected
import nhsf.verify
from nhsf.gmod import FlagCase, GradedModule
from nhsf.expected import TABLE1
from nhsf.liealg import graded_algebra
from nhsf.rootsys import build_root_system, enumerate_w_i
from nhsf.verify import (CaseSpec, MATCH, MISMATCH, bwb_adjoint, bwb_h_i, ir_count,
                         premet_split_check, run_case, run_g2_structure,
                         statement41_check)

from models import riemann_module


def test_bwb_identity_word_gives_minus_lambda():
    """lam = (1, 1, 1) in simple-root coordinates is (1, 0, 1) in coroot coordinates."""
    rs = build_root_system("A", 3)
    lam = (1, 1, 1)
    rows = bwb_h_i(rs, (2,), lam, 0)
    assert rows == [{"weight_cm": (-1, 0, -1), "degree": -1, "word": []}]


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


def test_bwb_degree_is_an_int_read_off_root_coordinates():
    """lam = alpha_1 of A2, (2, -1) in coroot coordinates: mu = (3, 0), and s_1 gives
    -s_1 mu + rho = (4, -2) with mu - s_1 mu = 3 alpha_1, so the degree is 3 - 1."""
    rows = bwb_h_i(build_root_system("A", 2), (1,), (1, 0), 1)
    assert rows == [{"weight_cm": (4, -2), "degree": 2, "word": [1]}]
    assert type(rows[0]["degree"]) is int


def test_ir_count_examples():
    """card W(I)_2 is the number of BWB rows, one per word, as ``run_case`` passes it."""
    def count(rs, nodes):
        direct = len(bwb_adjoint(rs, nodes))
        assert direct == len(enumerate_w_i(rs, set(nodes), 2))
        return ir_count(rs, nodes, direct)

    g2 = build_root_system("G", 2)
    r = count(g2, (1,))
    assert r["direct"] == 1 and r["formula_c_plus"] == 1
    assert count(g2, (2,))["direct"] == 1
    f4 = build_root_system("F", 4)
    assert count(f4, (2,))["direct"] == 2
    e6 = build_root_system("E", 6)
    assert count(e6, (3,))["direct"] == 3


@pytest.mark.parametrize("t, r, node", [(t, r, n) for (t, r), rows in TABLE1.items()
                                         for n in rows])
def test_table1_ki_is_the_depth(t, r, node):
    """Table 1's k_i column is the highest root's coefficient at the node, which is
    the depth of the grading."""
    ki = TABLE1[(t, r)][node]["ki"]
    assert ki == build_root_system(t, r).maximal_root[node - 1]
    assert ki == graded_algebra(t, r, (node,)).depth


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
    adj = fc.adjoint_module()
    cor, riem = fc.coriemann_module(adj, fc.riemann_in(adj)), riemann_module(fc)
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


def test_run_case_e8_node1_full_matches_both_routes():
    """The smallest E8 Table-1 row by the direct route: BWB and the Premet split agree."""
    rec = run_case(CaseSpec("E", 8, (1,), budget="full"))
    assert rec["status"] == MATCH
    assert rec["checks"]["bwb"]["matches_direct"] is True
    assert rec["checks"]["premet_split"]["holds_degreewise"] is True


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
    g2, cg2 = out["variants"]["g2"], out["variants"]["cg2"]
    assert g2 == {"prolong_dim_1": 0, "prolong_stabilized": True,
                  "h2_dims": {"1": 49, "2": 77},
                  "orders": {"1": [[0, 0], [0, 1], [1, 0], [2, 0]], "2": [[0, 2]]},
                  "matches_statement": True}
    # the central extension does not reproduce the table
    assert cg2 == {"prolong_dim_1": 0, "prolong_stabilized": True,
                   "h2_dims": {"1": 42, "2": 77},
                   "orders": {"1": [[0, 0], [0, 1], [2, 0]], "2": [[0, 2]]},
                   "matches_statement": False}


def test_g2_structure_with_a_first_prolongation_fails_an_invariant(monkeypatch):
    """H^2 is taken in the coefficients V (+) g_0 only while the prolongation stops at g_0."""
    real = nhsf.verify.full_prolong

    def grown(nil, g0, kmax):
        p = real(nil, g0, kmax)
        p.positive[1] = g0
        return p

    monkeypatch.setattr(nhsf.verify, "full_prolong", grown)
    with pytest.raises(nhsf.InvariantError, match="nonzero first prolongation"):
        run_g2_structure()


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


def tamper_h0_invariant():
    """``run_case`` on G2 node 1, with the H^0 check run on the adjoint module cut so
    that g_- kills every positive degree: g_1, g_2 and g_3 become invariants.
    ``verify``'s ``cohomology`` is restored afterwards."""
    real = nhsf.verify.cohomology

    def cohomology(gm, mod, s, *args, **kwargs):
        if s == 0:
            mod = GradedModule(mod.gminus, mod.basis,
                               [{m: outs for m, outs in mat.items() if mod.basis[m].degree <= 0}
                                for mat in mod.act], mod.truncation_bound)
        return real(gm, mod, s, *args, **kwargs)

    nhsf.verify.cohomology = cohomology
    try:
        return run_case(CaseSpec("G", 2, (1,), "h2"))
    finally:
        nhsf.verify.cohomology = real


H0_MESSAGE = "H^0(g-; g) nonzero in positive degree"


def test_an_invariant_in_positive_degree_fails():
    with pytest.raises(nhsf.InvariantError) as exc:
        tamper_h0_invariant()
    assert str(exc.value) == H0_MESSAGE
    assert run_case(CaseSpec("G", 2, (1,), "h2"))["status"] == MATCH  # restored


def test_an_invariant_in_positive_degree_fails_under_python_O():
    code = ("import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from nhsf import InvariantError\n"
            "from test_verify import tamper_h0_invariant\n"
            "assert False, 'asserts are enabled'\n"
            "try:\n"
            "    tamper_h0_invariant()\n"
            "except InvariantError as e:\n"
            "    sys.exit(0 if str(e) == sys.argv[2] else 4)\n"
            "sys.exit(3)\n")
    src = str(Path(nhsf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    res = subprocess.run([sys.executable, "-O", "-c", code, str(Path(__file__).parent),
                          H0_MESSAGE], env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr


def test_g2_on_v_folded_cross_terms_map_to_no_weight_of_v():
    """The premise of ``g2_on_v``'s proof that h_1 and h_2 are diagonal: no two of V's
    B4 weights differ by alpha_a - alpha_b for nodes a != b folded into one g2 node."""
    b4 = graded_algebra("B", 4, (1,))
    weights = {lab.weight for lab in b4.basis if lab.degree == -1}
    assert len(weights) == 7
    for nodes in nhsf.verify.G2_IN_B4:
        for a in nodes:
            for b in nodes:
                step = b4.rs.root_coroot_coords(tuple(int(t == a - 1) - int(t == b - 1)
                                                      for t in range(4)))
                assert a == b or not {tuple(map(sum, zip(w, step))) for w in weights} & weights


@pytest.mark.parametrize("key", list(nhsf.expected.SEC6),
                         ids=lambda key: f"{key[0]}{key[1]}-{','.join(map(str, key[2]))}")
def test_sec6_bwb_budget_compares_the_printed_rows(key):
    """Budget bwb reads Sec. 6's printed H^2 rows like every other table."""
    rec = run_case(CaseSpec(*key, budget="bwb"))
    cmp = rec["checks"]["comparison"]["h2_bwb_only"]
    assert rec["status"] == MATCH and cmp["status"] == MATCH
    assert cmp["fw_column_consistent"] is True


def test_sec6_bwb_budget_flags_an_altered_printed_weight(monkeypatch):
    key = ("A", 3, (1, 2))
    sec6 = dict(nhsf.expected.SEC6)
    (deg, cm), *rest = sec6[key]["h2"]
    sec6[key] = dict(sec6[key], h2=[(deg, (cm[0] + 1,) + cm[1:]), *rest])
    monkeypatch.setattr(nhsf.expected, "SEC6", sec6)
    for budget, field in (("bwb", "h2_bwb_only"), ("h2", "h2")):
        rec = run_case(CaseSpec(*key, budget=budget))
        assert rec["status"] == MISMATCH
        assert rec["checks"]["comparison"][field]["status"] == MISMATCH


def test_full_case_computes_the_coriemann_h1_once(monkeypatch):
    """Its lowest weights are read off the highest ones, not computed again."""
    built, calls = [], []
    real_module, real_cohomology = FlagCase.coriemann_module, nhsf.verify.cohomology

    def coriemann_module(self, adj, riem):
        built.append(real_module(self, adj, riem))
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
    """One ``adjoint_module()`` call per full case: the Premet split reads the Riemann
    H^2 off its blocks, and the co-Riemann H^1 is computed once, on its quotient."""
    adjoints, quotients, calls = [], [], []
    real_adjoint, real_quotient = FlagCase.adjoint_module, GradedModule.quotient
    real_cohomology = nhsf.verify.cohomology

    def adjoint_module(self):
        adjoints.append(real_adjoint(self))
        return adjoints[-1]

    def quotient(self, idx):
        quotients.append((self, real_quotient(self, idx)))
        return quotients[-1][1]

    def cohomology(gm, mod, s, *args, **kwargs):
        calls.append((mod, s, kwargs.get("sub") is not None))
        return real_cohomology(gm, mod, s, *args, **kwargs)

    monkeypatch.setattr(FlagCase, "adjoint_module", adjoint_module)
    monkeypatch.setattr(GradedModule, "quotient", quotient)
    monkeypatch.setattr(nhsf.verify, "cohomology", cohomology)
    rec = run_case(CaseSpec("C", 3, (3,)))
    assert rec["status"] == MATCH and rec["checks"]["premet_split"]["holds_degreewise"]
    (adj,), ((cut_from, cor),) = adjoints, quotients
    assert cut_from is adj
    assert sorted((s, sub) for mod, s, sub in calls if mod is adj) == [(0, False), (2, True)]
    assert [(s, sub) for mod, s, sub in calls if mod is cor] == [(1, False)]
    assert len(calls) == 3


def test_full_case_checks_the_riemann_submodule_twice(monkeypatch):
    """``riemann_in`` checks that g_- (+) l1 spans a submodule, and ``quotient`` checks
    the same indices once more when it cuts the co-Riemann module."""
    checked = []
    real_submodule = GradedModule.submodule

    def submodule(self, idx):
        checked.append(real_submodule(self, idx))
        return checked[-1]

    monkeypatch.setattr(GradedModule, "submodule", submodule)
    rec = run_case(CaseSpec("C", 3, (3,)))
    assert rec["status"] == MATCH
    assert len(checked) == 2 and checked[0] == checked[1]


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
