"""Cohomology tests, anchored by an independent dense brute-force oracle."""

from fractions import Fraction as Q
from itertools import combinations
from math import comb

import pytest

from nhsf.cohom import cochain_basis, cohomology, differential_columns, full_window
from nhsf.decomp import LOWEST, ExtremalWeights
from nhsf.gmod import FlagCase, GradedModule, ModuleElt
from nhsf.liealg import abelian_nilpotent, heisenberg
from nhsf.linalg import rank
from models import (contact_module, hamiltonian_module, poisson_module, reference_slice,
                         svect_module, vect_module)
from nhsf.prolong import G0, der0, full_prolong, prolong_as_module


# -- independent oracle: dense CE complex, no blocking, textbook formula ----


def brute_ce_dims(gm, mod, max_s):
    """H^s dims by total degree via dense evaluation of the CE differential."""
    def act(u, m):
        return mod.act[u].get(m, {})

    def bracket(u, v):
        return gm.bracket(u, v)

    bases = {}
    for s in range(max_s + 2):
        bases[s] = [(mono, m) for mono in combinations(range(gm.dim), s)
                    for m in range(mod.dim)]

    def d_matrix(s):
        src, dst = bases[s], bases[s + 1]
        pos = {e: i for i, e in enumerate(dst)}
        rows = [[Q(0)] * len(src) for _ in range(len(dst))]
        for ci, (mono, m) in enumerate(src):
            # evaluate df on every (s+1)-tuple directly
            for tgt_mono in combinations(range(gm.dim), s + 1):
                coeffs = {}
                for t in range(s + 1):
                    rest = tgt_mono[:t] + tgt_mono[t + 1:]
                    if rest == mono:
                        for m2, v in act(tgt_mono[t], m).items():
                            coeffs[m2] = coeffs.get(m2, Q(0)) + (-1) ** t * v
                for t in range(s + 1):
                    for u in range(t + 1, s + 1):
                        rest = tuple(x for q, x in enumerate(tgt_mono) if q not in (t, u))
                        for w, c in bracket(tgt_mono[t], tgt_mono[u]).items():
                            args = (w,) + rest
                            sargs = tuple(sorted(args))
                            if len(set(args)) == len(args) and sargs == mono:
                                sign = (-1) ** (t + u) * _perm_sign(args)
                                coeffs[m] = coeffs.get(m, Q(0)) + sign * c
                for m2, v in coeffs.items():
                    if v != 0:
                        rows[pos[(tgt_mono, m2)]][ci] = v
        return rows, src, dst

    out = {}
    mats = {s: d_matrix(s) for s in range(max_s + 1)}
    for s in range(max_s + 1):
        rows, src, dst = mats[s]
        # split by degree
        def deg_of(e):
            mono, m = e
            return mod.basis[m].degree - sum(gm.degrees[i] for i in mono)

        degs = sorted({deg_of(e) for e in src})
        for k in degs:
            cols = [i for i, e in enumerate(src) if deg_of(e) == k]
            sub_out = [{j: rows[r][c] for j, c in enumerate(cols)} for r in range(len(dst))]
            r_out = rank(sub_out) if cols else 0
            if s == 0:
                r_in = 0
            else:
                prows, psrc, _ = mats[s - 1]
                pcols = [i for i, e in enumerate(psrc) if deg_of_p(gm, mod, psrc[i]) == k]
                sub_in = [{j: prows[r][c] for j, c in enumerate(pcols)} for r in range(len(src))]
                r_in = rank(sub_in) if pcols else 0
            h = len(cols) - r_out - r_in
            if h:
                out[(s, k)] = h
    return out


def _perm_sign(args):
    sign = 1
    a = list(args)
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            if a[i] > a[j]:
                sign = -sign
    return sign


def deg_of_p(gm, mod, e):
    mono, m = e
    return mod.basis[m].degree - sum(gm.degrees[i] for i in mono)


def trivial_module(gm, rank_weights):
    return GradedModule(gm, [ModuleElt("1", 0, rank_weights)],
                        [{} for _ in range(gm.dim)], None)


def test_hei2_trivial_against_brute_force():
    gm = heisenberg(1)
    mod = trivial_module(gm, (0,))
    brute = brute_ce_dims(gm, mod, 3)
    assert brute[(1, 1)] == 2 and brute[(2, 3)] == 2
    for s in (0, 1, 2, 3):
        ours = {}
        for k in full_window(gm, mod, s):
            sl = cohomology(gm, mod, s, k)[0]
            if sl.dim_h:
                ours[(s, k)] = sl.dim_h
        assert ours == {key: v for key, v in brute.items() if key[0] == s}


def test_g2_node1_coriemann_against_brute_force():
    fc = FlagCase("G", 2, (1,))
    cor = fc.coriemann_module()
    brute = brute_ce_dims(fc.gminus, cor, 2)
    for (s, k), v in brute.items():
        if s in (1, 2):
            assert cohomology(fc.gminus, cor, s, k)[0].dim_h == v


def test_cochain_basis_examples():
    gm = abelian_nilpotent(4)
    mod = trivial_module(gm, (0,) * 4)
    b = cochain_basis(gm, mod, 2, 2)
    assert b.dim == comb(4, 2)
    b0 = cochain_basis(gm, mod, 0, 0)
    assert b0.dim == 1  # C^0 = M


def test_differential_matrix_and_dd_zero():
    fc = FlagCase("G", 2, (1,))
    adj = fc.adjoint_module()
    for k in (0, 1, 2):
        c1, c2, c3 = (cochain_basis(fc.gminus, adj, s, k) for s in (1, 2, 3))
        pos2 = dict(c2.pos)
        d1 = differential_columns(fc.gminus, adj, c1, pos2)
        assert pos2 == c2.pos  # d: C^1_k -> C^2_k lands on the enumerated basis
        rows3 = {}
        d2 = differential_columns(fc.gminus, adj, c2, rows3)
        # rows are numbered in the order d first reaches them, all inside C^3_k
        assert sorted(rows3.values()) == list(range(len(rows3)))
        assert rows3.keys() <= c3.pos.keys()
        assert max((max(col, default=-1) for col in d2), default=-1) == len(rows3) - 1
        # d o d = 0, exactly: d2 applied to every column of d1
        for col in d1:
            out = {}
            for i, c in col.items():
                for t, v in d2[i].items():
                    out[t] = out.get(t, 0) + c * v
            assert all(v == 0 for v in out.values())


EQUIVALENCE_CASES = [("G", 2, (1,)), ("C", 3, (1,)), ("B", 3, (2,)), ("F", 4, (1,)),
                     ("A", 3, (1, 3)), ("E", 6, (2,))]


@pytest.mark.parametrize("case", EQUIVALENCE_CASES,
                         ids=lambda c: f"{c[0]}{c[1]}-{','.join(map(str, c[2]))}")
def test_slices_match_the_enumerated_reference(case):
    """Rows keyed as d reaches them give the slices of an enumerated C^{s+1}."""
    fc = FlagCase(*case)
    flt = ExtremalWeights(fc.rs, tuple(fc.unselected), LOWEST)
    for mod in (fc.adjoint_module(), fc.riemann_module(), fc.coriemann_module()):
        for s in (1, 2):
            for weights in (None, flt):
                for k in full_window(fc.gminus, mod, s):
                    got, = cohomology(fc.gminus, mod, s, k, weights)
                    want = reference_slice(fc.gminus, mod, s, k, weights)
                    assert (got.rank_in, got.rank_out, got.dim_h, got.dim_cochains) == \
                        (want.rank_in, want.rank_out, want.dim_h, want.dim_cochains)
                    assert {w: (b.idx, b.rank_in, b.dim_h) for w, b in got.blocks.items()} == \
                        {w: (b.idx, b.rank_in, b.dim_h) for w, b in want.blocks.items()}
                    # the columns a block keeps where H is nonzero; d_out's rows are
                    # numbered differently, its column count is not
                    for w, b in got.blocks.items():
                        if b.dim_h:
                            assert (b.d_in, len(b.d_out)) == \
                                (want.blocks[w].d_in, len(want.blocks[w].d_out))


def test_gl_flatness():
    for n in (2, 3):
        gm, mod = vect_module(n, 8)
        for k in range(1, 6):
            sl = cohomology(gm, mod, 2, k)[0]
            assert sl.valid and sl.dim_h == 0


def test_svect_flatness():
    for n in (2, 3):
        gm, mod = svect_module(n, 8)
        for k in range(1, 6):
            sl = cohomology(gm, mod, 2, k)[0]
            assert sl.valid and sl.dim_h == 0


def test_hamiltonian_h2_is_exterior_cube():
    for n in (2, 3):
        gm, mod = hamiltonian_module(n, 9)
        total = {}
        for k in range(-1, 7):
            sl = cohomology(gm, mod, 2, k)[0]
            if sl.valid and sl.dim_h:
                total[k] = sl.dim_h
        assert total == {1: comb(2 * n, 3)}


def test_contact_flatness():
    for n in (1, 2):
        gm, mod = contact_module(n, 10)
        for k in range(0, 7):
            sl = cohomology(gm, mod, 2, k)[0]
            assert sl.valid and sl.dim_h == 0, (n, k)
        gm, mod = poisson_module(n, 10)
        for k in range(0, 7):
            sl = cohomology(gm, mod, 2, k)[0]
            assert sl.valid and sl.dim_h == 0, (n, k)


def test_riemannian_orders():
    for n in (3, 4):
        nil = abelian_nilpotent(n)
        labels, weights, act = [], [], []
        for i in range(n):
            for j in range(i + 1, n):
                labels.append(f"L{i}{j}")
                weights.append(None)
                act.append({i: {j: Q(1)}, j: {i: Q(-1)}})
        g0 = G0(labels, weights, act)
        p = full_prolong(nil, g0, 2)
        mod = prolong_as_module(p)
        assert cohomology(nil, mod, 2, 1)[0].dim_h == 0  # Levi-Civita
        sl = cohomology(nil, mod, 2, 2)[0]
        assert sl.dim_h == n * n * (n * n - 1) // 12


def test_truncation_validity():
    gm, mod = vect_module(2, 3)
    # s=2 at degree k needs module complete on [k-2d, k-1] = [k-2, k-1]
    assert cohomology(gm, mod, 2, 4)[0].valid
    assert not cohomology(gm, mod, 2, 6)[0].valid


def euler_characteristic_check(gm, mod, k) -> bool:
    """sum_s (-1)^s dim C^s_k = sum_s (-1)^s dim H^s_k for complete finite M."""
    if mod.truncation_bound is not None:
        raise ValueError("Euler characteristic check needs a complete module")
    chi_c = 0
    chi_h = 0
    for s in range(0, gm.dim + 1):
        sl, = cohomology(gm, mod, s, k)
        chi_c += (-1) ** s * sl.dim_cochains[1]
        chi_h += (-1) ** s * sl.dim_h
    return chi_c == chi_h


def test_euler_characteristic():
    fc = FlagCase("G", 2, (1,))
    adj = fc.adjoint_module()
    for k in range(-3, 5):
        assert euler_characteristic_check(fc.gminus, adj, k)
    gm = heisenberg(1)
    assert euler_characteristic_check(gm, trivial_module(gm, (0,)), 2)


def test_h0_transitivity():
    fc = FlagCase("F", 4, (1,))
    adj = fc.adjoint_module()
    for k in (1, 2):
        assert cohomology(fc.gminus, adj, 0, k)[0].dim_h == 0
