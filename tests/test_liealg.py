import hashlib
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
                         build_chevalley, gminus_of, graded_algebra, levi_pieces)
from nhsf.rootsys import build_root_system

from models import heisenberg, lie_bracket, z_basis


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
        lie_bracket(alg, alg.bracket_basis(i, j), {k: Q(1)}),
        lie_bracket(alg, alg.bracket_basis(j, k), {i: Q(1)}),
        lie_bracket(alg, alg.bracket_basis(k, i), {j: Q(1)}),
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


def test_basis_labels():
    """h<node> for the Cartan, x[beta] / y[beta] for root vectors; g_- is all y[beta]."""
    alg = graded_algebra("G", 2, (1,))
    assert [alg.label(i) for i in range(alg.dim)] == [
        "h1", "h2", "x[0,1]", "x[1,0]", "x[1,1]", "x[2,1]", "x[3,1]", "x[3,2]",
        "y[0,1]", "y[1,0]", "y[1,1]", "y[2,1]", "y[3,1]", "y[3,2]"]
    nil, idx = gminus_of(alg)
    assert nil.labels == [alg.label(i) for i in idx] == [
        "y[1,0]", "y[1,1]", "y[2,1]", "y[3,1]", "y[3,2]"]


def test_levi_pieces_examples():
    alg = graded_algebra("G", 2, (1,))
    lp = levi_pieces(alg)
    assert (len(lp.l), len(lp.l1), len(z_basis(alg))) == (4, 3, 1)
    alg = graded_algebra("A", 2, (1, 2))
    lp = levi_pieces(alg)
    assert (len(lp.l), len(lp.l1), len(z_basis(alg))) == (2, 0, 2)
    lp = levi_pieces(graded_algebra("C", 3, (1,)))
    assert len(lp.l1) == 10  # sp(4)


def killing_on_cartan(alg, ti, tj) -> Q:
    """K(h,h') for h = sum ti[i] h_i via the root-space trace formula."""
    rs = alg.rs
    total = Q(0)
    for beta in rs.positive_roots:
        bi = sum(Q(rs.pair_with_coroot(beta, i)) * ti[i] for i in range(rs.rank))
        bj = sum(Q(rs.pair_with_coroot(beta, i)) * tj[i] for i in range(rs.rank))
        total += 2 * bi * bj
    return total


def test_z_killing_orthogonality():
    """z is the Killing-orthogonal complement of the unselected coroots."""
    alg = graded_algebra("F", 4, (2,))
    for zel in z_basis(alg):
        zv = [zel.get(i, Q(0)) for i in range(alg.rank)]
        for j in (0, 2, 3):  # unselected nodes, 0-based
            hj = [Q(1) if i == j else Q(0) for i in range(alg.rank)]
            assert killing_on_cartan(alg, zv, hj) == 0


def test_heisenberg_nilpotent():
    nil = heisenberg(2)
    assert nil.dim == 5 and nil.depth == 2
    assert nil.generated_by_top()
    assert nil.bracket(0, 2) == {4: Q(1)}


# -- the Jacobi check ----------------------------------------------------------


def fresh(type_letter, rank):
    """An unverified algebra with its own bracket table, safe to tamper with."""
    return ZGradedLieAlgebra(build_root_system(type_letter, rank), _constants(type_letter, rank))


def jacobi_fails_somewhere(alg):
    """Oracle: the Jacobi sum over every basis triple i < j < k."""
    for i, j, k in itertools.combinations(range(alg.dim), 3):
        total = {}
        for term in (lie_bracket(alg, alg.bracket_basis(i, j), {k: 1}),
                     lie_bracket(alg, alg.bracket_basis(j, k), {i: 1}),
                     lie_bracket(alg, alg.bracket_basis(k, i), {j: 1})):
            for m, v in term.items():
                total[m] = total.get(m, 0) + v
        if any(total.values()):
            return True
    return False


def tamper_constant(alg):
    """Double N on [x_a1, x_a2] = N x_{a1+a2}; its triple with y_{a1+a2} has weight 0."""
    i, j = alg.x_index(0), alg.x_index(1)
    alg.table[(i, j)] = {k: 2 * v for k, v in alg.bracket_basis(i, j).items()}


def tamper_weight(alg):
    """[x_a1, x_a2] := h_1, which lies in weight 0, not in a1 + a2."""
    alg.table[(alg.x_index(0), alg.x_index(1))] = {alg.h_index(0): 1}


def tamper_generation(alg):
    """Drop [x_a1, x_a2]: on A2 nothing else reaches x_{a1+a2}."""
    del alg.table[(alg.x_index(0), alg.x_index(1))]


def tamper_zero(alg):
    """[x_a1, x_{a1+a2}] := x_{a1+a2}; the weight 2 a1 + a2 is not a weight of g,
    so the table leaves this pair out and it must read 0."""
    rs = alg.rs
    i, j = (alg.x_index(rs.root_index[r]) for r in ((1, 0), (1, 1)))
    assert (i, j) not in alg.table
    alg.table[(i, j)] = {j: 1}


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


@pytest.mark.parametrize("tamper,message", [(tamper_zero, "leaves the weight"),
                                            (tamper_generation, r"cannot reach x\[1,1\] of A2")])
def test_a_table_zero_or_an_unreached_root_fails(tamper, message):
    alg = fresh("A", 2)
    tamper(alg)
    with pytest.raises(ChevalleyError, match=message):
        alg.verify_jacobi()


def test_a_zero_coroot_bracket_fails_generation():
    """With [x, y] := 0, sl(2)'s table still satisfies Jacobi (a solvable algebra),
    but x and y no longer generate h."""
    alg = fresh("A", 1)
    del alg.table[(alg.x_index(0), alg.y_index(0))]
    assert not jacobi_fails_somewhere(alg)
    with pytest.raises(ChevalleyError, match="not a nonzero multiple of h1"):
        alg.verify_jacobi()


@pytest.mark.parametrize("spec", [("A", 1), ("B", 2), ("G", 2), ("A", 3), ("B", 3), ("C", 3)])
def test_restricted_jacobi_is_as_strong_as_all_triples(spec):
    """Scaling any one structure constant fails the generator check iff it fails
    the all-triples sum.  Rank 3 has constants between two non-simple roots."""
    for i, j in fresh(*spec).table:
        alg = fresh(*spec)
        alg.table[(i, j)] = {k: 3 * v for k, v in alg.bracket_basis(i, j).items()}
        want = jacobi_fails_somewhere(alg)
        try:
            alg.verify_jacobi()
            got = False
        except ChevalleyError:
            got = True
        assert got == want, (i, j)


@pytest.mark.parametrize("tamper,message", [("tamper_constant", "Jacobi fails"),
                                            ("tamper_weight", "leaves the weight"),
                                            ("tamper_generation", "cannot reach x[1,1]")])
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


# -- the structure constants themselves ----------------------------------------

# sha256 of the full bracket table, both orders (see ``bracket_table_sha256``).
# Recorded from the Fraction-norm constant table that preceded the integer one.
BRACKET_TABLE_SHA256 = {
    "A1": "55fe321c87f6d7f42cd6a4d073471b1a15d204ccd2d63d480253340b59914af2",
    "A4": "6cd84b2270cf49048acd7579201ccf3924c198c7f1f351bb6f633f0314016d84",
    "B3": "44bb1f7a0ddbe01dda4c7fcca0ca86eba73d2bdee186f4a98e5956c022c4ad2d",
    "B5": "4e0b0f7d795560b2295f17a254fd439ea727b102d7222ed96a66932f1f33f182",
    "C3": "540619ae6c9d3f022ca6990abe72907a20f5298642aeb685fd67f98369bbf042",
    "C5": "a060d7e019e57fa069f3747785f10b1dcb7005f2b7d239ff34b325b1bfe6ad86",
    "D4": "c009e8946da0eb762c99cfc8970f3f3407a33924a0072747edc03882f8d385e7",
    "D6": "b2387e6c14ff5d33fdde817b697b357d534daff171cdabe8044757acfe354587",
    "G2": "098383a3f3457f1f5d1cf3052b8fa233799af3c667a65c8cd5357ff1510454fc",
    "F4": "34bd36c2e9453f62c411dab0118035fad93799aad2c1ee0e2cbbe9c9b2c8aa57",
    "E6": "d39a0b30e6c7f32f29d22dca027fcafc265d772f9c0de05a8965ab917fb432b7",
    "E7": "457dcb7a835e47630f18a935cefb9a59ee4d7b2676844f27fadb05522b2fe460",
    "E8": "3b253e19b94cb0bc72ddc6757a7ce7c2ab2599280893c1a4c30ef39c869e385b",
}


def bracket_table_sha256(alg) -> str:
    """sha256 over repr((i, j, sorted (k, str(coeff)))) of [e_i, e_j], for all i, j."""
    h = hashlib.sha256()
    for i in range(alg.dim):
        for j in range(alg.dim):
            entries = sorted((k, str(v)) for k, v in alg.bracket_basis(i, j).items())
            h.update(repr((i, j, entries)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", list(BRACKET_TABLE_SHA256))
def test_structure_constants_are_pinned(name):
    alg = build_chevalley(name[0], int(name[1:]))
    assert bracket_table_sha256(alg) == BRACKET_TABLE_SHA256[name]


def test_the_build_evaluates_only_weight_admissible_pairs(monkeypatch):
    """E6's table evaluates [e_i, e_j] on the pairs i < j with wt(i) + wt(j) a root
    or 0, not on all n(n - 1)/2 = 3003 pairs."""
    calls = []
    entry = ZGradedLieAlgebra._entry
    monkeypatch.setattr(ZGradedLieAlgebra, "_entry",
                        lambda self, *args: calls.append(args[1:]) or entry(self, *args))
    alg = fresh("E", 6)
    weights = {lab.weight for lab in alg.basis}
    admissible = [(i, j) for i, j in itertools.combinations(range(alg.dim), 2)
                  if tuple(map(sum, zip(alg.basis[i].weight, alg.basis[j].weight))) in weights]
    assert sorted(calls) == admissible
    assert len(admissible) < alg.dim * (alg.dim - 1) // 2 == 3003
    assert alg.table.keys() <= set(admissible) and all(alg.table.values())


@pytest.mark.parametrize("rank", [7, 8])
def test_e7_e8_build_passes_jacobi(rank):
    """The uncached build of E7 and E8 runs the whole Jacobi check and passes."""
    alg = build_chevalley.__wrapped__("E", rank)
    assert alg.dim == {7: 133, 8: 248}[rank]
