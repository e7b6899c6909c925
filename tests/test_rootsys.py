import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from collections import Counter

import nhsf
from nhsf import InvariantError
from nhsf.rootsys import (CartanMatrixSpec, InvalidCartanType, RootSystem, _symmetrizer,
                          _weyl_product, build_root_system, dominant_multiplicities,
                          dynkin_split, enumerate_w_i, to_root)

from models import IrreducibleModule, apply_word_to_root, inversions_of_inverse, misweighted_b2

ALL_TYPES = [("A", 1), ("A", 4), ("B", 2), ("B", 4), ("C", 3), ("D", 4),
             ("D", 5), ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]

COUNTS = {"A": lambda n: n * (n + 1) // 2, "B": lambda n: n * n,
          "C": lambda n: n * n, "D": lambda n: n * (n - 1),
          "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
          "F": lambda n: 24, "G": lambda n: 6}


@pytest.mark.parametrize("t,n", ALL_TYPES)
def test_positive_root_counts(t, n):
    rs = build_root_system(t, n)
    assert len(rs.positive_roots) == COUNTS[t](n)


def test_invalid_types_rejected():
    for t, n in [("E", 5), ("E", 9), ("F", 3), ("G", 3), ("D", 2), ("B", 1), ("X", 2)]:
        with pytest.raises((InvalidCartanType, KeyError)):
            CartanMatrixSpec(t, n)


def test_rank1_by_hand():
    rs = build_root_system("A", 1)
    assert rs.positive_roots == [(1,)]
    assert rs.maximal_root == (1,)


def test_g2_maximal_root():
    rs = build_root_system("G", 2)
    assert sorted(rs.maximal_root) == [2, 3]
    assert rs.maximal_root == (3, 2)  # short node first


def test_f4_maximal_root():
    rs = build_root_system("F", 4)
    assert rs.maximal_root == (2, 4, 3, 2)


@pytest.mark.parametrize("t,n", ALL_TYPES)
def test_maximal_root_dominates(t, n):
    rs = build_root_system(t, n)
    for beta in rs.positive_roots:
        assert all(m >= b for m, b in zip(rs.maximal_root, beta))


@pytest.mark.parametrize("t,n", [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("F", 4)])
def test_reflections_permute_roots(t, n):
    rs = build_root_system(t, n)
    roots = set(rs.positive_roots) | {tuple(-c for c in r) for r in rs.positive_roots}
    for i in range(rs.rank):
        for beta in rs.positive_roots:
            assert apply_word_to_root(rs, (i,), beta) in roots


def test_to_root_g2_table_rows():
    rs = build_root_system("G", 2)
    assert to_root(rs, (8, -4)) == (4, 0)
    assert to_root(rs, (-7, 4)) == (-2, 1)


def test_to_root_zero():
    rs = build_root_system("D", 4)
    assert to_root(rs, (0,) * 4) == (0,) * 4


@given(st.tuples(*[st.integers(-9, 9)] * 8))
@settings(max_examples=50, deadline=None)
def test_to_root_roundtrip(coords):
    """``to_root`` and ``root_coroot_coords`` are inverse to each other on every type."""
    for t, n in ALL_TYPES:
        rs = build_root_system(t, n)
        w = coords[:n]
        assert rs.root_coroot_coords(to_root(rs, w)) == w
        assert to_root(rs, rs.root_coroot_coords(w)) == w


BUILT_TYPES = ([("A", n) for n in range(1, 9)] + [(t, n) for t in "BC" for n in range(2, 9)]
               + [("D", n) for n in range(4, 9)] + [("E", 6), ("E", 7), ("E", 8), ("F", 4),
                                                    ("G", 2)])


@pytest.mark.parametrize("t,n", BUILT_TYPES)
def test_cartan_inverse_is_integral(t, n):
    """A . B = q I for the integer inverse (B, q) that ``to_root`` reads."""
    rs = build_root_system(t, n)
    a = rs.cartan_matrix
    b, q = rs.cartan_inverse
    assert q > 0 and all(type(x) is int for row in b for x in row)
    assert [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)] \
        == [[q if i == j else 0 for j in range(n)] for i in range(n)]


def singular_cartan():
    """A2 with its Cartan matrix replaced by a singular one, converted to root coordinates."""
    rs = RootSystem(CartanMatrixSpec("A", 2))
    rs.cartan_matrix = [[2, -2], [-1, 1]]
    return to_root(rs, (1, 0))


def test_singular_cartan_matrix_is_rejected():
    with pytest.raises(InvariantError, match="singular"):
        singular_cartan()


def raises_under_python_O(tamper: str, message: str) -> None:
    """Run ``tamper()`` of this module under ``python -O``: it must raise an
    InvariantError whose message holds ``message``."""
    code = ("import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from nhsf import InvariantError\n"
            f"from test_rootsys import {tamper}\n"
            "assert False, 'asserts are enabled'\n"
            "try:\n"
            f"    {tamper}()\n"
            "except InvariantError as e:\n"
            f"    sys.exit(0 if {message!r} in str(e) else 4)\n"
            "sys.exit(3)\n")
    src = str(Path(nhsf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    res = subprocess.run([sys.executable, "-O", "-c", code, str(Path(__file__).parent)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr


def test_singular_cartan_matrix_is_rejected_under_python_O():
    raises_under_python_O("singular_cartan", "singular")


def test_disconnected_diagram_is_rejected():
    with pytest.raises(InvariantError, match="not connected"):
        _symmetrizer([[2, 0], [0, 2]])  # A1 x A1


class DroppedRoot(RootSystem):
    """An enumeration that misses the highest root."""

    def _enumerate_positive_roots(self):
        return super()._enumerate_positive_roots()[:-1]


class HighestFirst(RootSystem):
    """An enumeration that lists the roots highest first, so that a simple root
    is read as the maximal one."""

    def _enumerate_positive_roots(self):
        return super()._enumerate_positive_roots()[::-1]


def dropped_root():
    return DroppedRoot(CartanMatrixSpec("D", 4))


def test_a_missed_positive_root_is_rejected():
    with pytest.raises(InvariantError, match="found 11 positive roots, expected 12"):
        dropped_root()


def test_a_missed_positive_root_is_rejected_under_python_O():
    raises_under_python_O("dropped_root", "expected 12")


def test_a_maximal_root_that_fails_to_dominate_is_rejected():
    with pytest.raises(InvariantError, match="maximal root fails to dominate"):
        HighestFirst(CartanMatrixSpec("A", 3))


def test_a_non_integral_freudenthal_multiplicity_is_rejected():
    """With B2's root lengths swapped, m(0) of L(1, 0) comes out as 10/7."""
    with pytest.raises(InvariantError, match="Freudenthal: multiplicity 10/7"):
        dominant_multiplicities(misweighted_b2(), (1, 0), range(2))


def test_reflect_examples():
    """One-letter words: s_i mu in coroot coordinates, and mu - s_i mu = mu_i alpha_i."""
    a1 = build_root_system("A", 1)
    assert a1.apply_word_to_weight((0,), (1,)) == ((-1,), (1,))
    a2 = build_root_system("A", 2)
    assert a2.apply_word_to_weight((0,), (1, 0)) == ((-1, 1), (1, 0))
    # reflection fixes its wall
    assert a2.apply_word_to_weight((0,), (0, 5)) == ((0, 5), (0, 0))


def test_enumerate_w_i_counts():
    g2 = build_root_system("G", 2)
    assert len(enumerate_w_i(g2, {1}, 0)) == 1
    assert enumerate_w_i(g2, {1}, 0)[0] == ()
    assert len(enumerate_w_i(g2, {1}, 2)) == 1
    f4 = build_root_system("F", 4)
    assert len(enumerate_w_i(f4, {2}, 2)) == 2
    with pytest.raises(ValueError):
        enumerate_w_i(g2, {1}, 3)
    with pytest.raises(ValueError):
        enumerate_w_i(g2, set(), 1)
    with pytest.raises(ValueError, match="out of range"):
        enumerate_w_i(g2, {3}, 1)


def test_w_i_brute_force_oracle_g2():
    """Independent brute force: test the descent condition on all 2-letter words."""
    rs = build_root_system("G", 2)
    unselected = [1]  # 0-based node 2
    found = []
    for a, b in itertools.product(range(2), repeat=2):
        if a == b:
            continue
        w = (a, b)
        inv = (b, a)
        good = True
        for j in unselected:
            img = apply_word_to_root(rs, inv, tuple(1 if t == j else 0 for t in range(2)))
            if all(c <= 0 for c in img):
                good = False
        if good:
            found.append(w)
    assert len(found) == len(enumerate_w_i(rs, {1}, 2)) == 1


def _brute_force_w_i(rs):
    """W(I)_{<=2} by brute force over all words: the reference for enumerate_w_i.

    A word is kept when it is reduced (as many inversions as letters),
    admissible (w^{-1} sends no unselected simple root negative) and not
    equal, by its action on rho, to a word kept before.  Inversion sets and
    rho images are computed once per word.
    """
    rho = (1,) * rs.rank
    words = {length: [(word, set(inversions_of_inverse(rs, word)),
                       rs.apply_word_to_weight(word, rho)[0])
                      for word in itertools.product(range(rs.rank), repeat=length)]
             for length in (1, 2)}
    simple = [tuple(1 if t == j else 0 for t in range(rs.rank)) for j in range(rs.rank)]

    def w_i(selected, length):
        if length == 0:
            return [()]
        unselected = {simple[j] for j in range(rs.rank) if j + 1 not in selected}
        out, images = [], []
        for w, inv, image in words[length]:
            if len(inv) == length and not inv & unselected and image not in images:
                out.append(w)
                images.append(image)
        return out

    return w_i


def test_w_i_built_equals_brute_force():
    """Every type up to rank 8, every node set, lengths 0-2: the closed form of
    ``enumerate_w_i`` on maximal and non-maximal parabolics alike."""
    checked = 0
    for t in "ABCDEFG":
        for n in range(1, 9):
            try:
                rs = build_root_system(t, n)
            except InvalidCartanType:
                continue
            oracle = _brute_force_w_i(rs)
            for k in range(1, n + 1):
                for sel in itertools.combinations(range(1, n + 1), k):
                    for length in (0, 1, 2):
                        assert enumerate_w_i(rs, set(sel), length) == oracle(set(sel), length), \
                            (t, n, sel, length)
                        checked += 1
    assert checked == 7395


@pytest.mark.parametrize("t,n,node", [("G", 2, 1), ("F", 4, 2), ("B", 3, 3), ("D", 4, 2)])
def test_length2_inversion_count_and_rho_identity(t, n, node):
    rs = build_root_system(t, n)
    for w in enumerate_w_i(rs, {node}, 2):
        inv = inversions_of_inverse(rs, w)
        assert len(inv) == 2  # card R_W^- = 2
        total = [0] * rs.rank
        for beta in inv:
            total = [a + b for a, b in zip(total, beta)]
        wrho, diff = rs.apply_word_to_weight(w, (1,) * rs.rank)
        assert diff == tuple(total)
        assert to_root(rs, tuple(1 - c for c in wrho)) == tuple(total)


def test_dynkin_split_examples():
    g2 = build_root_system("G", 2)
    ds = dynkin_split(g2, {1})
    assert ds.components == ((2,),) and ds.c == 1 and ds.c_values == (0,)
    a2 = build_root_system("A", 2)
    ds = dynkin_split(a2, {1, 2})
    assert ds.s == 0 and ds.c_values == ()
    # the 20-node example graph: white nodes selected
    d20 = build_root_system("D", 20)
    ds = dynkin_split(d20, {3, 7, 8, 9, 12, 16, 19, 20})
    assert ds.c_values == (0, 1, 1, 1, 2)
    assert ds.s == 5 and ds.c == 12


def test_weyl_dim():
    for t, n, hw, dim in [("G", 2, (1, 0), 7), ("G", 2, (0, 1), 14), ("A", 2, (1, 1), 8),
                          ("B", 3, (0, 0, 1), 8)]:
        assert _weyl_product(build_root_system(t, n), hw, range(n)) == (dim, 0)


def all_weight_multiplicities(rs, hw, nodes):
    """Every weight of the Freudenthal module: the orbits of its dominant weights."""
    a = rs.cartan_matrix
    out = {}
    for mu, m in dominant_multiplicities(rs, hw, nodes).items():
        orbit, frontier = {mu}, [mu]
        while frontier:
            new = []
            for w in frontier:
                for j in nodes:
                    v = tuple(w[i] - w[j] * a[i][j] for i in range(rs.rank))
                    if v not in orbit:
                        orbit.add(v)
                        new.append(v)
            frontier = new
        for w in orbit:
            out[w] = m
    return out


@pytest.mark.parametrize("t,n,hw", [("A", 2, (1, 1)), ("A", 3, (2, 0, 1)), ("B", 3, (1, 0, 1)),
                                    ("C", 3, (1, 1, 0)), ("D", 4, (1, 0, 0, 1)),
                                    ("G", 2, (1, 1)), ("F", 4, (0, 0, 0, 1))])
def test_freudenthal_matches_the_built_irreducible(t, n, hw):
    """All nodes unselected: Freudenthal gives the weights of L(hw) as the oracle
    ``models.IrreducibleModule`` builds it by lowering."""
    rs = build_root_system(t, n)
    irr = IrreducibleModule(rs, hw)
    assert all_weight_multiplicities(rs, hw, range(n)) == dict(Counter(irr.weights))


LEVI_TYPES = [("A", 1), ("A", 3), ("B", 2), ("B", 4), ("C", 3), ("D", 4), ("D", 5),
              ("E", 6), ("F", 4), ("G", 2)]


@st.composite
def levi_highest_weights(draw):
    """(rs, hw, nodes): a Levi node set and a weight dominant at it."""
    t, n = draw(st.sampled_from(LEVI_TYPES))
    rs = build_root_system(t, n)
    nodes = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    hw = tuple(draw(st.integers(0, 2)) if i in nodes else draw(st.integers(-3, 3))
               for i in range(n))
    return rs, hw, sorted(nodes)


@given(levi_highest_weights())
@settings(max_examples=60, deadline=None)
def test_freudenthal_sums_to_the_weyl_dimension(case):
    rs, hw, nodes = case
    dim, rem = _weyl_product(rs, hw, nodes)
    assume(dim <= 3000)
    assert rem == 0
    assert sum(all_weight_multiplicities(rs, hw, nodes).values()) == dim
