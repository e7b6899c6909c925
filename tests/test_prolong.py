from fractions import Fraction as Q
from math import comb

import pytest

from nhsf import InvariantError
from nhsf.gmod import FlagCase, IrreducibleModule, abelian_negative
from nhsf.liealg import abelian_nilpotent, build_chevalley, heisenberg, graded_algebra
from nhsf.prolong import (G0, TAG_CONTACT, TAG_DEPTH1, TAG_EQUALS_S, TAG_SPECIAL,
                          _matrix_bracket_table, der0, full_prolong, prolong_step,
                          verify_prolong_jacobi, yamaguchi_classify)


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
    return nil, G0(labels, weights, act, _matrix_bracket_table(n, act))


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
    from nhsf.prolong import ProlongedAlgebra

    p = ProlongedAlgebra(nil, g0)
    with pytest.raises(ValueError):
        prolong_step(p, 0)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_conformal_prolong_is_o_n_plus_2(n):
    nil, g0 = co_pair(n)
    p = full_prolong(nil, g0, 3)
    assert p.dims() == {-1: n, 0: n * (n - 1) // 2 + 1, 1: n}
    assert p.stabilized


def test_g2_structure_prolong_trivial():
    alg = build_chevalley("G", 2)
    irr = IrreducibleModule(alg.rs, (1, 0))
    nil, mod = abelian_negative(irr, False, alg)
    nV = irr.dim
    act = []
    for col in range(mod.dim - nV):
        mat = {}
        for k in range(nV):
            for r, v in mod.act[k].get(nV + col, {}).items():
                mat.setdefault(k, {})[r] = -v
        act.append(mat)
    g0 = G0([f"g{c}" for c in range(mod.dim - nV)],
            [mod.basis[nV + c].weight for c in range(mod.dim - nV)], act)
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
    verify_prolong_jacobi(p, 3)
    nil, g0 = co_pair(3)
    p = full_prolong(nil, g0, 3)
    verify_prolong_jacobi(p)


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
    from nhsf.prolong import prolong_as_module

    nil = heisenberg(1)
    p = full_prolong(nil, der0(nil), 4)
    mod = prolong_as_module(p)
    mod.verify_representation()
    assert mod.truncation_bound == 4
