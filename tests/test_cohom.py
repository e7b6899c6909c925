"""Cohomology tests, anchored by an independent dense brute-force oracle."""

import os
import subprocess
import sys
from fractions import Fraction as Q
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

import nhsf
import nhsf.cohom as cohom
import nhsf.linalg as linalg
import nhsf.verify as verify
from nhsf import InvariantError
from nhsf.cohom import cochain_basis, cohomology, differential_columns, full_window
from nhsf.decomp import HIGHEST, LOWEST, ExtremalWeights
from nhsf.gmod import FlagCase, GradedModule, ModuleElt
from nhsf.liealg import abelian_nilpotent
from models import (contact_module, der0, filtered_basis, hamiltonian_module, heisenberg,
                    poisson_module, rank, reference_slice, svect_module, vect_module)
from nhsf.prolong import G0, full_prolong, prolong_as_module


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


@pytest.mark.parametrize("case", EQUIVALENCE_CASES,
                         ids=lambda c: f"{c[0]}{c[1]}-{','.join(map(str, c[2]))}")
def test_mask_join_is_the_plain_filter(case):
    """The filtered basis is the unfiltered one restricted to the extremal weights,
    element for element and in the same order."""
    fc = FlagCase(*case)
    dropped = kept = 0
    for mod in (fc.adjoint_module(), fc.riemann_module(), fc.coriemann_module()):
        for kind in (LOWEST, HIGHEST):
            flt = ExtremalWeights(fc.rs, tuple(fc.unselected), kind)
            for s in (0, 1, 2):
                for k in full_window(fc.gminus, mod, s):
                    got = cochain_basis(fc.gminus, mod, s, k, flt)
                    want = filtered_basis(fc.gminus, mod, s, k, flt)
                    assert (got.elts, got.weights) == (want.elts, want.weights)
                    kept += got.dim
                    dropped += cochain_basis(fc.gminus, mod, s, k).dim - got.dim
    assert kept and dropped


def lifted_blocks(slices) -> list[bool]:
    """Per block of each slice: is its dim H, or its submodule's, above 0?"""
    out = []
    for sl in slices:
        for w, b in sl.blocks.items():
            sub = sl.sub.blocks.get(w) if sl.sub is not None else None
            out.append(b.dim_h > 0 or (sub is not None and sub.dim_h > 0))
    return out


def count_lifts(monkeypatch) -> list:
    """Wrap the certified kernel ``cohom`` calls: the list grows by one Reduction per call."""
    lifts = []
    real = cohom.kernel

    def counted(red):
        lifts.append(red)
        return real(red)

    monkeypatch.setattr(cohom, "kernel", counted)
    return lifts


def test_kernels_are_lifted_only_where_h_is_nonzero(monkeypatch):
    """F4 node 1 full: a block lifts its two kernels iff its H, or its submodule's, is
    nonzero; every other block's ranks are the mod-P ones."""
    lifts = count_lifts(monkeypatch)
    slices = []
    real = verify.cohomology

    def recorded(*args, **kwargs):
        out = real(*args, **kwargs)
        slices.extend(out)
        return out

    monkeypatch.setattr(verify, "cohomology", recorded)
    assert verify.run_case(verify.CaseSpec("F", 4, (1,), "full"))["status"] == verify.MATCH
    lifted = lifted_blocks(slices)
    assert 0 < sum(lifted) < len(lifted)
    assert len(lifts) == 2 * sum(lifted)


def drop_one_pivot(real):
    """``_rref_mod`` that forgets its last pivot row mod P, as a prime dividing a pivot
    could; mod any other prime it is the real one."""
    def dropped(rows, ncols, p):
        piv = real(rows, ncols, p)
        if piv and p == linalg.P:
            del piv[max(piv)]
        return piv
    return dropped


def test_a_dropped_pivot_takes_the_certified_path(monkeypatch):
    """One pivot too few leaves the bound open on every block, and the certified
    kernels (here from the retry mod the next prime) still give the exact slices."""
    fc = FlagCase("G", 2, (1,))
    adj, cor = fc.adjoint_module(), fc.coriemann_module()
    riem = fc.riemann_in(adj)
    lowest = ExtremalWeights(fc.rs, tuple(fc.unselected), LOWEST)
    highest = ExtremalWeights(fc.rs, tuple(fc.unselected), HIGHEST)
    runs = [(adj, 2, lowest, riem), (adj, 2, None, riem), (cor, 1, highest, None)]

    def summary(sl):
        blocks = {w: (b.idx, b.rank_in, b.dim_h, b.d_in, len(b.d_out))
                  for w, b in sl.blocks.items()}
        return sl.rank_in, sl.rank_out, sl.dim_h, sl.dim_cochains, blocks

    def computed():
        out, blocks = [], 0
        for mod, s, flt, sub in runs:
            for sl in cohomology(fc.gminus, mod, s, full_window(fc.gminus, mod, s), flt, sub):
                out.append((summary(sl), sl.sub and summary(sl.sub)))
                blocks += len(sl.blocks)
        return out, blocks

    lifts = count_lifts(monkeypatch)
    want, blocks = computed()
    exact_lifts = len(lifts)
    lifts.clear()
    monkeypatch.setattr(linalg, "_rref_mod", drop_one_pivot(linalg._rref_mod))
    assert computed() == (want, blocks)
    assert exact_lifts < len(lifts) == 2 * blocks


def tamper_one_column(real):
    """``differential_columns`` with one d_out entry doubled, at a cochain a d_in column reaches."""
    seen = {"in": [], "done": False}

    def tampered(gm, mod, src, rows):
        into_enumerated = bool(rows)  # d_in's rows are the enumerated C^s_k; d_out's start empty
        cols = real(gm, mod, src, rows)
        if into_enumerated:
            seen["in"] = cols
        elif not seen["done"]:
            hit = sorted(g for col in seen["in"] for g in col if cols[g])
            if hit:
                col = cols[hit[0]]
                col[min(col)] *= 2
                seen["done"] = True
        return cols
    return tampered


def test_tampered_differential_fails_d_squared(monkeypatch):
    fc = FlagCase("G", 2, (1,))
    adj = fc.adjoint_module()
    monkeypatch.setattr(cohom, "differential_columns", tamper_one_column(differential_columns))
    with pytest.raises(InvariantError, match="d o d"):
        cohomology(fc.gminus, adj, 2, full_window(fc.gminus, adj, 2))


def test_tampered_differential_fails_d_squared_under_python_O():
    code = ("import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import nhsf.cohom as cohom\n"
            "from nhsf import InvariantError\n"
            "from nhsf.gmod import FlagCase\n"
            "from test_cohom import tamper_one_column\n"
            "assert False, 'asserts are enabled'\n"
            "fc = FlagCase('G', 2, (1,))\n"
            "adj = fc.adjoint_module()\n"
            "cohom.differential_columns = tamper_one_column(cohom.differential_columns)\n"
            "try:\n"
            "    cohom.cohomology(fc.gminus, adj, 2, cohom.full_window(fc.gminus, adj, 2))\n"
            "except InvariantError as e:\n"
            "    sys.exit(0 if 'd o d' in str(e) else 4)\n"
            "sys.exit(3)\n")
    src = str(Path(nhsf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    res = subprocess.run([sys.executable, "-O", "-c", code, str(Path(__file__).parent)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr


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
