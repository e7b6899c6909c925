import os
import subprocess
import sys
from fractions import Fraction as Q
from math import comb
from pathlib import Path

import pytest

import nhsf
import nhsf.cohom as cohom
import nhsf.prolong as prolong
from nhsf import InvariantError
from nhsf.cohom import cohomology, full_window
from nhsf.gmod import FlagCase
from nhsf.liealg import abelian_nilpotent, graded_algebra
from nhsf.prolong import (G0, TAG_CONTACT, TAG_DEPTH1, TAG_EQUALS_S, TAG_SPECIAL,
                          ProlongedAlgebra, _derivations, full_prolong, prolong_as_module,
                          prolong_step, yamaguchi_classify)
from nhsf.verify import g2_structure

from models import (_matrix_bracket_table, der0, heisenberg, levi_bracket,
                    reference_derivations, verify_prolong_jacobi, verify_representation)


def gl_pair(n):
    nil = abelian_nilpotent(n)
    return nil, der0(nil)


def co_pair(n):
    nil = abelian_nilpotent(n)
    labels, weights, act = [], [], []
    for i in range(n):
        for j in range(i + 1, n):
            labels.append(f"L{i}{j}")
            weights.append(None)
            act.append({i: {j: Q(1)}, j: {i: Q(-1)}})
    labels.append("Id")
    weights.append(None)
    act.append({i: {i: Q(1)} for i in range(n)})
    _matrix_bracket_table(n, act)  # raises unless closed
    return nil, G0(labels, weights, act)


def test_matrix_bracket_table_of_gl2():
    e12, e21, h = {1: {0: 1}}, {0: {1: 1}}, {0: {0: 1}, 1: {1: -1}}  # column -> {row: coeff}
    assert _matrix_bracket_table(2, [e12, e21, h]) == {
        (0, 1): {2: Q(1)}, (0, 2): {0: Q(-2)}, (1, 2): {1: Q(2)}}
    with pytest.raises(InvariantError, match="not closed"):
        _matrix_bracket_table(2, [e12, e21])


def test_der0_abelian_is_gl():
    for n in (2, 3, 4):
        assert der0(abelian_nilpotent(n)).dim == n * n


def test_der0_heisenberg_is_csp():
    for n in (1, 2):
        assert der0(heisenberg(n)).dim == n * (2 * n + 1) + 1


def test_der0_g2_node1_gminus_is_gl2():
    fc = FlagCase("G", 2, (1,))
    assert der0(fc.gminus).dim == 4


def test_prolong_step_gl():
    # (C^n, gl(n)): g_1 = Hom(S^2 V, V)
    for n in (2, 3):
        nil, g0 = gl_pair(n)
        p = full_prolong(nil, g0, 2)
        assert p.positive[1].dim == n * comb(n + 1, 2)
        assert p.positive[2].dim == n * comb(n + 2, 3)


def test_prolong_step_rejects_nonpositive():
    nil, g0 = gl_pair(2)
    p = ProlongedAlgebra(nil, g0)
    with pytest.raises(ValueError):
        prolong_step(p, 0)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_conformal_prolong_is_o_n_plus_2(n):
    nil, g0 = co_pair(n)
    p = full_prolong(nil, g0, 3)
    assert p.dims() == {-1: n, 0: n * (n - 1) // 2 + 1, 1: n}
    assert p.stabilized


def g2_structure_pair():
    """g_- = V the 7-dim G2 module, with g_0 = g2 acting on it (the G(2)-structure)."""
    nil, g0, _ = g2_structure(False)
    return nil, g0


def test_g2_structure_prolong_trivial():
    nil, g0 = g2_structure_pair()
    p = full_prolong(nil, g0, 2)
    assert p.positive == {} and p.stabilized


def test_svect_type_growth_never_stabilizes():
    # (C^n, sl(n)): traceless matrices acting on C^n
    for n in (2, 3):
        nil = abelian_nilpotent(n)
        labels, weights, act = [], [], []
        for i in range(n):
            for j in range(n):
                if i != j:
                    labels.append(f"E{i}{j}")
                    weights.append(None)
                    act.append({j: {i: Q(1)}})
        for i in range(n - 1):
            labels.append(f"H{i}")
            weights.append(None)
            act.append({i: {i: Q(1)}, i + 1: {i + 1: Q(-1)}})
        g0 = G0(labels, weights, act)
        p = full_prolong(nil, g0, 4)
        assert not p.stabilized
        for k in (1, 2, 3, 4):
            # svect degree-k component dimension
            assert p.positive[k].dim == n * comb(n + k, n - 1) - comb(n + k - 1, n - 1)


def test_hei_prolong_matches_contact_algebra():
    from models import contact_dim_oracle

    nil = heisenberg(2)
    p = full_prolong(nil, der0(nil), 3)
    for k in (1, 2, 3):
        assert p.positive[k].dim == contact_dim_oracle(2, k)
    assert not p.stabilized


# Yamaguchi: prolong(g_-, g_0) = g on every grading tagged EqualsS.  These are
# the EqualsS maximal gradings of B2-B5, C2-C5, D4-D5, F4, E6 and G2.
YAMAGUCHI_TYPES = [("B", 2), ("B", 3), ("B", 4), ("B", 5), ("C", 2), ("C", 3), ("C", 4),
                   ("C", 5), ("D", 4), ("D", 5), ("F", 4), ("E", 6), ("G", 2)]
EQUALS_S_MAXIMAL = [("B", 3, 3), ("B", 4, 3), ("B", 4, 4), ("B", 5, 3), ("B", 5, 4),
                    ("B", 5, 5), ("C", 3, 2), ("C", 4, 2), ("C", 4, 3), ("C", 5, 2),
                    ("C", 5, 3), ("C", 5, 4), ("D", 5, 3), ("F", 4, 1), ("F", 4, 2),
                    ("F", 4, 3), ("E", 6, 2), ("E", 6, 3), ("E", 6, 4), ("G", 2, 1)]


def test_equals_s_maximal_gradings():
    assert [(t, r, n) for t, r in YAMAGUCHI_TYPES for n in range(1, r + 1)
            if yamaguchi_classify(graded_algebra(t, r, (n,))) == TAG_EQUALS_S] == EQUALS_S_MAXIMAL


@pytest.mark.parametrize("t, r, node", EQUALS_S_MAXIMAL)
def test_equals_s_prolong_is_the_ambient_algebra(t, r, node):
    fc = FlagCase(t, r, (node,))
    p = full_prolong(fc.gminus, fc.levi_g0(), fc.alg.depth + 1)
    assert p.stabilized and p.computed_to == fc.alg.depth + 1
    assert p.dims() == fc.alg.dims_by_degree


def test_equals_s_prolong_g2_node1():
    fc = FlagCase("G", 2, (1,))
    p = full_prolong(fc.gminus, fc.levi_g0(), 5)
    assert p.stabilized
    for k in (1, 2, 3):
        assert p.positive[k].dim == fc.alg.dims_by_degree[k]


def test_stabilization_monotone():
    nil, g0 = co_pair(4)
    p = full_prolong(nil, g0, 6)
    assert p.stabilized and p.computed_to == 2
    assert 2 not in p.positive  # first zero layer ends the computation


def test_prolong_jacobi_within_window():
    fc = FlagCase("G", 2, (1,))
    p = full_prolong(fc.gminus, fc.levi_g0(), 4)
    verify_prolong_jacobi(p, levi_bracket(fc), 3)
    nil, g0 = co_pair(3)
    p = full_prolong(nil, g0, 3)
    verify_prolong_jacobi(p, _matrix_bracket_table(3, g0.act))


def test_yamaguchi_tags():
    assert yamaguchi_classify(graded_algebra("A", 3, (2,))) == TAG_DEPTH1
    assert yamaguchi_classify(graded_algebra("C", 3, (1,))) == TAG_CONTACT
    assert yamaguchi_classify(graded_algebra("G", 2, (2,))) == TAG_CONTACT
    assert yamaguchi_classify(graded_algebra("A", 3, (1, 2))) == TAG_SPECIAL
    assert yamaguchi_classify(graded_algebra("A", 4, (2, 4))) == TAG_SPECIAL
    assert yamaguchi_classify(graded_algebra("C", 3, (1, 3))) == TAG_SPECIAL
    assert yamaguchi_classify(graded_algebra("A", 3, (1, 3))) == TAG_CONTACT
    assert yamaguchi_classify(graded_algebra("G", 2, (1,))) == TAG_EQUALS_S
    assert yamaguchi_classify(graded_algebra("F", 4, (2,))) == TAG_EQUALS_S


def test_prolong_module_rep_property():
    nil = heisenberg(1)
    p = full_prolong(nil, der0(nil), 4)
    mod = prolong_as_module(p)
    verify_representation(mod)
    assert mod.truncation_bound == 4


@pytest.mark.parametrize("t, r, node", [("C", 3, 1), ("G", 2, 1)])
def test_the_prolongation_and_its_h2_hand_linalg_integer_columns(monkeypatch, t, r, node):
    """``nullspace`` returns integer kernels, so every layer is integral by induction on
    the degree: the prolong module's action holds only ``int`` entries, and no column
    that the prolongation or its H^2 hands ``linalg`` holds a ``Fraction``."""
    types: dict = {}

    def wrap(mod, name):
        real = getattr(mod, name)

        def recorded(cols):
            seen = types.setdefault(name, set())
            for col in cols:
                seen.update(map(type, col.values()))
            return real(cols)

        monkeypatch.setattr(mod, name, recorded)

    wrap(prolong, "nullspace")
    wrap(cohom, "pivots_mod_2")
    wrap(cohom, "pivots")
    fc = FlagCase(t, r, (node,))
    p = full_prolong(fc.gminus, fc.levi_g0(), 8)
    mod = prolong_as_module(p)
    assert p.positive
    assert {type(v) for mat in mod.act for col in mat.values() for v in col.values()} == {int}
    h2 = cohomology(fc.gminus, mod, 2, full_window(fc.gminus, mod, 2))
    assert sum(sl.dim_cochains[1] for sl in h2) > 0
    assert types["nullspace"] == types["pivots_mod_2"] == {int}
    assert types.get("pivots", {int}) == {int}


# -- the constraints are built once per degree and split by weight block ------


def flag_pair(t, r, nodes):
    fc = FlagCase(t, r, nodes)
    return fc.gminus, fc.levi_g0()


# (g_-, g_0) pairs, weighted and unweighted, for the one-pass split
SPLIT_CASES = {"g2-structure": g2_structure_pair, "co4": lambda: co_pair(4),
               "C4-3": lambda: flag_pair("C", 4, (3,)), "A3-1,2": lambda: flag_pair("A", 3, (1, 2))}


@pytest.mark.parametrize("name", SPLIT_CASES)
def test_one_pass_layers_equal_the_per_block_reference(name):
    nil, g0 = SPLIT_CASES[name]()
    p = full_prolong(nil, g0, 4)
    empty = ProlongedAlgebra(nil, G0([], [], []))
    assert repr(_derivations(empty, 0)) == repr(reference_derivations(empty, 0))
    for k in range(1, p.computed_to + 1):
        layer = _derivations(p, k)
        assert repr(layer) == repr(reference_derivations(p, k))
        assert layer == p.positive.get(k, G0([], [], []))


def tampered_g2_node1():
    """G2 node 1's (g_-, g_0) with the weight of g_0's first element shifted."""
    fc = FlagCase("G", 2, (1,))
    g0 = fc.levi_g0()
    g0.weights[0] = (g0.weights[0][0] + 1, g0.weights[0][1])
    return ProlongedAlgebra(fc.gminus, g0)


def test_a_row_spanning_two_weight_blocks_raises():
    with pytest.raises(InvariantError, match="spans weight blocks"):
        prolong_step(tampered_g2_node1(), 1)


def test_a_row_spanning_two_weight_blocks_raises_under_python_O():
    code = ("import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from nhsf import InvariantError\n"
            "from nhsf.prolong import prolong_step\n"
            "from test_prolong import tampered_g2_node1\n"
            "assert False, 'asserts are enabled'\n"
            "try:\n"
            "    prolong_step(tampered_g2_node1(), 1)\n"
            "except InvariantError as e:\n"
            "    sys.exit(0 if 'spans weight blocks' in str(e) else 4)\n"
            "sys.exit(3)\n")
    src = str(Path(nhsf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    res = subprocess.run([sys.executable, "-O", "-c", code, str(Path(__file__).parent)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
