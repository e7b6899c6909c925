import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from fractions import Fraction as Q
from hypothesis import given, settings, strategies as st

import nhsf
from nhsf.liealg import (ChevalleyError, GradingSpec, ZGradedLieAlgebra, _constants,
                         build_chevalley, gminus_of, graded_algebra, heisenberg, levi_pieces)
from nhsf.rootsys import build_root_system


def test_sl2_relations():
    alg = build_chevalley("A", 1)
    assert alg.dim == 3
    e, f, h = alg.x_index(0), alg.y_index(0), alg.h_index(0)
    assert alg.bracket_basis(e, f) == {h: Q(1)}
    assert alg.bracket_basis(h, e) == {e: Q(2)}
    assert alg.bracket_basis(h, f) == {f: Q(-2)}


def test_g2_dimension_and_support():
    alg = build_chevalley("G", 2)
    assert alg.dim == 14
    rs = alg.rs
    signed = [(r, 1) for r in rs.positive_roots] + [(r, -1) for r in rs.positive_roots]
    for (r1, s1), (r2, s2) in itertools.product(signed, repeat=2):
        i = alg.x_index(rs.root_index[r1]) if s1 > 0 else alg.y_index(rs.root_index[r1])
        j = alg.x_index(rs.root_index[r2]) if s2 > 0 else alg.y_index(rs.root_index[r2])
        if i == j:
            continue
        total = tuple(s1 * a + s2 * b for a, b in zip(r1, r2))
        expect = rs.is_root(total) or all(c == 0 for c in total)
        assert bool(alg.bracket_basis(i, j)) == expect


def test_f4_dimension():
    assert build_chevalley("F", 4).dim == 52


def test_structure_constants_are_integers():
    for t, n in [("B", 3), ("C", 3), ("D", 4), ("G", 2), ("F", 4)]:
        alg = build_chevalley(t, n)
        for i in range(alg.dim):
            for j in range(i + 1, alg.dim):
                for v in alg.bracket_basis(i, j).values():
                    assert v.denominator == 1


@given(st.sampled_from([("A", 2), ("B", 2), ("C", 3), ("D", 4), ("G", 2)]),
       st.integers(0, 10 ** 6))
@settings(max_examples=30, deadline=None)
def test_jacobi_random_triples(spec, seed):
    import random

    alg = build_chevalley(*spec)
    rng = random.Random(seed)
    i, j, k = (rng.randrange(alg.dim) for _ in range(3))
    acc = {}
    for term in (
        alg.bracket(alg.bracket_basis(i, j), {k: Q(1)}),
        alg.bracket(alg.bracket_basis(j, k), {i: Q(1)}),
        alg.bracket(alg.bracket_basis(k, i), {j: Q(1)}),
    ):
        for m, v in term.items():
            acc[m] = acc.get(m, Q(0)) + v
    assert all(v == 0 for v in acc.values())


def test_grading_rejects_all_zero():
    with pytest.raises(ValueError):
        GradingSpec((0, 0))
    with pytest.raises(ValueError):
        GradingSpec((0, -1))


def test_grading_degree_consistency():
    alg = graded_algebra("F", 4, (2,))
    for i in range(alg.dim):
        for j in range(alg.dim):
            di, dj = alg.basis[i].degree, alg.basis[j].degree
            for k, v in alg.bracket_basis(i, j).items():
                assert alg.basis[k].degree == di + dj


def test_g2_node1_grading():
    alg = graded_algebra("G", 2, (1,))
    dims = alg.dims_by_degree
    assert (dims[-1], dims[-2], dims[-3]) == (2, 1, 2)
    assert alg.depth == 3 == alg.rs.maximal_root[0]


def test_contact_grading_sp():
    # sp(2n+2), first node: g_- = hei(2n)
    for n in (1, 2):
        alg = graded_algebra("C", n + 1, (1,))
        dims = alg.dims_by_degree
        assert dims[-1] == 2 * n and dims[-2] == 1 and alg.depth == 2


def test_sp_two_node_depth():
    assert graded_algebra("C", 3, (1, 3)).depth == 3
    assert graded_algebra("C", 4, (1, 4)).depth == 3


def test_depth_equals_selected_coefficient():
    for t, n, node in [("B", 3, 2), ("D", 4, 2), ("F", 4, 3), ("E", 6, 3)]:
        alg = graded_algebra(t, n, (node,))
        assert alg.depth == alg.rs.maximal_root[node - 1]


def test_dim_gminus_counts_roots_with_selected_coefficient():
    for t, n, node in [("G", 2, 2), ("F", 4, 1), ("D", 5, 3)]:
        alg = graded_algebra(t, n, (node,))
        nil, _ = gminus_of(alg)
        expect = sum(1 for r in alg.rs.positive_roots if r[node - 1] != 0)
        assert nil.dim == expect
        assert nil.generated_by_top()


def test_levi_pieces_examples():
    lp = levi_pieces(graded_algebra("G", 2, (1,)))
    assert (len(lp.l), len(lp.l1), lp.dim_z) == (4, 3, 1)
    lp = levi_pieces(graded_algebra("A", 2, (1, 2)))
    assert (len(lp.l), len(lp.l1), lp.dim_z) == (2, 0, 2)
    lp = levi_pieces(graded_algebra("C", 3, (1,)))
    assert len(lp.l1) == 10  # sp(4)


def test_z_killing_orthogonality():
    """z is the Killing-orthogonal complement of the unselected coroots."""
    alg = graded_algebra("F", 4, (2,))
    lp = levi_pieces(alg)
    for zel in lp.z:
        zv = [zel.get(i, Q(0)) for i in range(alg.rank)]
        for j in (0, 2, 3):  # unselected nodes, 0-based
            hj = [Q(1) if i == j else Q(0) for i in range(alg.rank)]
            assert alg.killing_on_cartan(zv, hj) == 0


def test_heisenberg_nilpotent():
    nil = heisenberg(2)
    assert nil.dim == 5 and nil.depth == 2
    assert nil.generated_by_top()
    assert nil.bracket(0, 2) == {4: Q(1)}


# -- the Jacobi check ----------------------------------------------------------


def fresh(type_letter, rank):
    """An unverified algebra with its own bracket cache, safe to tamper with."""
    return ZGradedLieAlgebra(build_root_system(type_letter, rank), _constants(type_letter, rank))


def jacobi_fails_somewhere(alg):
    """Oracle: the Jacobi sum over every basis triple i < j < k."""
    for i, j, k in itertools.combinations(range(alg.dim), 3):
        total = {}
        for term in (alg.bracket(alg.bracket_basis(i, j), {k: 1}),
                     alg.bracket(alg.bracket_basis(j, k), {i: 1}),
                     alg.bracket(alg.bracket_basis(k, i), {j: 1})):
            for m, v in term.items():
                total[m] = total.get(m, 0) + v
        if any(total.values()):
            return True
    return False


def tamper_constant(alg):
    """Double N on [x_a1, x_a2] = N x_{a1+a2}; its triple with y_{a1+a2} has weight 0."""
    i, j = alg.x_index(0), alg.x_index(1)
    alg._bracket_cache[(i, j)] = {k: 2 * v for k, v in alg.bracket_basis(i, j).items()}


def tamper_weight(alg):
    """[x_a1, x_a2] := h_1, which lies in weight 0, not in a1 + a2."""
    alg._bracket_cache[(alg.x_index(0), alg.x_index(1))] = {alg.h_index(0): 1}


def test_tampered_constant_fails_jacobi():
    alg = fresh("A", 2)
    alg.verify_jacobi()
    tamper_constant(alg)
    with pytest.raises(ChevalleyError, match="Jacobi fails"):
        alg.verify_jacobi()


def test_bracket_leaving_its_weight_fails():
    alg = fresh("A", 2)
    tamper_weight(alg)
    with pytest.raises(ChevalleyError, match="leaves the weight"):
        alg.verify_jacobi()


@pytest.mark.parametrize("spec", [("A", 1), ("B", 2), ("G", 2)])
def test_restricted_jacobi_is_as_strong_as_all_triples(spec):
    """Scaling any one structure constant fails the restricted check iff it fails
    the all-triples sum.  sl(2)'s one triple (h, x, y) has weight sum 0."""
    base = fresh(*spec)
    pairs = [(i, j) for i in range(base.dim) for j in range(i + 1, base.dim)
             if base.bracket_basis(i, j)]
    for i, j in pairs:
        alg = fresh(*spec)
        alg._bracket_cache[(i, j)] = {k: 3 * v for k, v in alg.bracket_basis(i, j).items()}
        want = jacobi_fails_somewhere(alg)
        try:
            alg.verify_jacobi()
            got = False
        except ChevalleyError:
            got = True
        assert got == want, (i, j)


@pytest.mark.parametrize("tamper,message", [("tamper_constant", "Jacobi fails"),
                                            ("tamper_weight", "leaves the weight")])
def test_jacobi_failures_raise_under_python_O(tamper, message):
    code = ("import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from test_liealg import ChevalleyError, fresh, " + tamper + "\n"
            "assert False, 'asserts are enabled'\n"
            "alg = fresh('A', 2)\n"
            + tamper + "(alg)\n"
            "try:\n"
            "    alg.verify_jacobi()\n"
            "except ChevalleyError as e:\n"
            "    sys.exit(0 if " + repr(message) + " in str(e) else 4)\n"
            "sys.exit(3)\n")
    src = str(Path(nhsf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    res = subprocess.run([sys.executable, "-O", "-c", code, str(Path(__file__).parent)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
