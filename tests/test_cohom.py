"""Cohomology tests, anchored by an independent dense brute-force oracle."""

import os
import subprocess
import sys
from fractions import Fraction as Q
from itertools import combinations
from math import comb, prod
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import nhsf
import nhsf.cohom as cohom
import nhsf.linalg as linalg
import nhsf.verify as verify
from nhsf import InvariantError
from nhsf.cohom import cochain_basis, cohomology, differential_columns, full_window
from nhsf.decomp import HIGHEST, LOWEST, ExtremalWeights
from nhsf.gmod import FlagCase, GradedModule, ModuleElt
from nhsf.liealg import abelian_nilpotent, build_chevalley
from nhsf.linalg import _scaled
from models import (IrreducibleModule, _reference_columns, abelian_negative, contact_module,
                    der0, exact_nullspace, filtered_basis, hamiltonian_module, heisenberg,
                    poisson_module, rank,
                    rank_mod_2, reference_slice, riemann_module, svect_module, vect_module)
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
    adj = fc.adjoint_module()
    cor = fc.coriemann_module(adj, fc.riemann_in(adj))
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


def _assert_reference_columns(gm, mod, s, k, weights=None):
    """d_out with rows numbered as d reaches them (``rows={}``) equals, entry for
    entry and type for type, d on the enumerated C^{s+1}_k, rows renumbered
    through ``rows``."""
    src = cochain_basis(gm, mod, s, k, weights)
    rows = {}
    got = differential_columns(gm, mod, src, rows)
    dst = filtered_basis(gm, mod, s + 1, k, weights)
    want = _reference_columns(gm, mod, src, dst)
    label = {r: dst.pos[key] for key, r in rows.items()}
    typed = lambda col: {r: (type(v), v) for r, v in col.items()}
    assert [typed({label[r]: v for r, v in col.items()}) for col in got] == \
        [typed(col) for col in want]
    return sum(map(len, got))


@pytest.mark.parametrize("case", [("G", 2, (1,)), ("E", 6, (2,))],
                         ids=lambda c: f"{c[0]}{c[1]}-{','.join(map(str, c[2]))}")
def test_assigned_columns_match_the_reference_sums(case):
    """No two terms of a column of d share a target (``cohom`` docstring), so the
    assigned entries are the summed ones."""
    fc = FlagCase(*case)
    adj = fc.adjoint_module()
    flt = ExtremalWeights(fc.rs, tuple(fc.unselected), LOWEST)
    entries = 0
    for mod in (adj, fc.coriemann_module(adj, fc.riemann_in(adj))):
        for s in (0, 1, 2):
            for weights in (None, flt) if case[1] < 6 or s < 2 else (flt,):
                for k in full_window(fc.gminus, mod, s):
                    entries += _assert_reference_columns(fc.gminus, mod, s, k, weights)
    assert entries


def test_assigned_columns_match_the_reference_sums_with_fractions():
    """The Sec. 7.1 module built by hand on the oracle V, whose action holds
    ``Fraction`` entries (the package's own holds ``int``s only)."""
    alg = build_chevalley("G", 2)
    for include_center in (False, True):
        _, mod = abelian_negative(IrreducibleModule(alg.rs, (1, 0)), include_center, alg)
        assert any(type(v) is Q for mat in mod.act for outs in mat.values()
                   for v in outs.values())
        entries = 0
        for s in (0, 1, 2):
            for k in full_window(mod.gminus, mod, s):
                entries += _assert_reference_columns(mod.gminus, mod, s, k)
        assert entries


EQUIVALENCE_CASES = [("G", 2, (1,)), ("C", 3, (1,)), ("B", 3, (2,)), ("F", 4, (1,)),
                     ("A", 3, (1, 3)), ("E", 6, (2,))]


@pytest.mark.parametrize("case", EQUIVALENCE_CASES,
                         ids=lambda c: f"{c[0]}{c[1]}-{','.join(map(str, c[2]))}")
def test_slices_match_the_enumerated_reference(case):
    """Rows keyed as d reaches them give the slices of an enumerated C^{s+1}."""
    fc = FlagCase(*case)
    flt = ExtremalWeights(fc.rs, tuple(fc.unselected), LOWEST)
    adj = fc.adjoint_module()
    for mod in (adj, riemann_module(fc), fc.coriemann_module(adj, fc.riemann_in(adj))):
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
    adj = fc.adjoint_module()
    for mod in (adj, riemann_module(fc), fc.coriemann_module(adj, fc.riemann_in(adj))):
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


def count_exact_pivots(monkeypatch) -> list:
    """Wrap the exact pivots ``cohom`` calls: the list grows by the columns of each
    matrix ``pivots`` is called on."""
    calls = []
    real = cohom.pivots

    def counted(cols):
        calls.append(cols)
        return real(cols)

    monkeypatch.setattr(cohom, "pivots", counted)
    return calls


def count_lifted_kernels(monkeypatch) -> list:
    """Wrap ``linalg._lifted_kernel``: the list grows by one entry per lift and
    certificate, at any prime."""
    calls = []
    real = linalg._lifted_kernel

    def counted(rows, ncols, piv, p):
        calls.append(ncols)
        return real(rows, ncols, piv, p)

    monkeypatch.setattr(linalg, "_lifted_kernel", counted)
    return calls


def hadamard_open(cols) -> bool:
    """Is the bound of ``linalg.pivots`` open on ``cols``, recomputed here with r their
    rank over Q (``models.rank``): r < ncols, and both the r + 1 largest squared norms
    of the columns and those of the rows, scaled to integers, multiply to P^2 or more?"""
    by_row: dict = {}
    for j, col in enumerate(cols):
        for t, v in col.items():
            by_row.setdefault(t, {})[j] = v
    rows = [_scaled(r) for r in by_row.values()]
    r = rank(cols)
    col_sq = [sum(row.get(j, 0) ** 2 for row in rows) for j in range(len(cols))]
    row_sq = [sum(v * v for v in row.values()) for row in rows]
    return r < len(cols) and all(prod(sorted(sq, reverse=True)[:r + 1]) >= linalg.P ** 2
                                 for sq in (col_sq, row_sq))


def record_ranks(monkeypatch) -> list:
    """Wrap ``cohom._ranks``: the list grows by its (d_out, d_in, prefixes) per call."""
    calls = []
    real = cohom._ranks

    def recorded(d_out, d_in, prefixes):
        calls.append((d_out, d_in, prefixes))
        return real(d_out, d_in, prefixes)

    monkeypatch.setattr(cohom, "_ranks", recorded)
    return calls


def open_mod_2(calls) -> list[bool]:
    """Per ``_ranks`` call: does some prefix leave n - r_2(d_out) - r_2(d_in) above 0,
    by the independent GF(2) rank of ``models``?"""
    return [any(n - rank_mod_2(d_out[:n]) - rank_mod_2(d_in[:m]) for n, m in prefixes)
            for d_out, d_in, prefixes in calls]


def test_kernels_are_lifted_exactly_where_the_mod_2_bound_is_open(monkeypatch):
    """F4 node 1 full: a block takes its exact pivots iff its bound is open mod 2; every
    block whose H, or whose submodule's, is nonzero is one of them, and so are 7 with
    H = 0 whose ranks are even.  Of those matrices, exactly the ones whose Hadamard
    bound is open (recomputed here with the rank over Q) reach the lift and
    certificate, once each: F4 node 1 never climbs the prime ladder."""
    exact, calls = count_exact_pivots(monkeypatch), record_ranks(monkeypatch)
    lifted_kernels = count_lifted_kernels(monkeypatch)
    lifts_per_call = []
    real_pivots = cohom.pivots

    def per_call(cols):
        before = len(lifted_kernels)
        out = real_pivots(cols)
        lifts_per_call.append(len(lifted_kernels) - before)
        return out

    monkeypatch.setattr(cohom, "pivots", per_call)
    slices = []
    real = verify.cohomology

    def recorded(*args, **kwargs):
        out = real(*args, **kwargs)
        slices.extend(out)
        return out

    monkeypatch.setattr(verify, "cohomology", recorded)
    assert verify.run_case(verify.CaseSpec("F", 4, (1,), "full"))["status"] == verify.MATCH
    opened, lifted = open_mod_2(calls), lifted_blocks(slices)
    assert len(opened) == len(lifted)
    assert all(o for o, h in zip(opened, lifted) if h)
    assert 0 < sum(lifted) < sum(opened) < len(opened)
    assert sum(opened) - sum(lifted) == 7
    assert len(exact) == len(lifts_per_call) == 2 * sum(opened)
    bound_open = [hadamard_open(cols) for cols in exact]
    assert lifts_per_call == [int(b) for b in bound_open]
    assert 0 < sum(bound_open) < len(exact)


def drop_one_pivot(real):
    """``_rref_mod`` that forgets its last pivot row mod P, as a prime dividing a pivot
    could; mod any other prime it is the real one."""
    def dropped(rows, ncols, p):
        piv = real(rows, ncols, p)
        if piv and p == linalg.P:
            del piv[max(piv)]
        return piv
    return dropped


def drop_one_pivot_mod_2(real):
    """``pivots_mod_2`` that forgets its last pivot."""
    def dropped(cols):
        return real(cols)[:-1]
    return dropped


def test_a_dropped_pivot_takes_the_certified_path(monkeypatch):
    """One pivot too few, mod 2 and mod P, leaves the bound open on every block, and
    the exact pivots still give the exact slices.  A prime that drops a pivot divides
    a minor, which Hadamard's bound rules out wherever it closes, so the bound is held
    open here: the dropped pivot fails the certificate, and the retry mod the next
    prime of the ladder gives the pivots."""
    fc = FlagCase("G", 2, (1,))
    adj = fc.adjoint_module()
    riem = fc.riemann_in(adj)
    cor = fc.coriemann_module(adj, riem)
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

    exact = count_exact_pivots(monkeypatch)
    want, blocks = computed()
    exact_calls = len(exact)
    exact.clear()
    retries = []
    dropped = drop_one_pivot(linalg._rref_mod)

    def counted(rows, ncols, p):
        if p != linalg.P:
            retries.append(ncols)
        return dropped(rows, ncols, p)

    monkeypatch.setattr(linalg, "_rref_mod", counted)
    monkeypatch.setattr(linalg, "_exact_mod_p", lambda rows, ncols, r: False)
    monkeypatch.setattr(cohom, "pivots_mod_2", drop_one_pivot_mod_2(cohom.pivots_mod_2))
    assert computed() == (want, blocks)
    assert exact_calls < len(exact) == 2 * blocks
    assert retries


def test_a_block_even_mod_2_takes_the_certified_kernels(monkeypatch):
    """d_out = (2): rank 0 mod 2 leaves the bound open, so its rank, 1, is read off the
    exact pivots of d_out and d_in."""
    exact = count_exact_pivots(monkeypatch)
    assert linalg.pivots_mod_2([{0: 2}]) == []
    assert cohom._ranks([{0: 2}], [], [(1, 0)]) == [(1, 0)]
    assert exact == [[{0: 2}], []]


@st.composite
def complexes(draw):
    """(d_out, d_in): d_out up to 6 integer columns over up to 5 rows, entries in -2..2,
    and each d_in column an integer multiple of a canonical kernel vector of d_out (as
    it is, or scaled to integers), in the order of their free columns, so d o d = 0."""
    nrows, n = draw(st.integers(0, 5)), draw(st.integers(1, 6))
    entries = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                            min_size=nrows, max_size=nrows))
    d_out = [{i: row[j] for i, row in enumerate(entries) if row[j]} for j in range(n)]
    kernel = exact_nullspace([{j: x for j, x in enumerate(row) if x} for row in entries], n)
    d_in = []
    if kernel:
        for u, c, ints in draw(st.lists(st.tuples(st.sampled_from(kernel),
                                                  st.sampled_from([-2, -1, 1, 2]),
                                                  st.booleans()), max_size=5)):
            d_in.append({k: c * x for k, x in (_scaled(u) if ints else u).items()})
    d_in.sort(key=max)
    return d_out, d_in


@given(complexes())
@settings(max_examples=150, deadline=None)
def test_ranks_are_the_ranks_over_q(complex_):
    """``_ranks`` gives the rank over Q of every prefix pair cohom can pass: the whole
    of d_out and d_in, then the first n columns of d_out and the first m of d_in, the
    d_in columns supported in the first n cochains (a canonical kernel vector's
    largest key is its free column)."""
    d_out, d_in = complex_
    whole = (len(d_out), len(d_in))
    for n in range(len(d_out) + 1):
        prefixes = [whole, (n, sum(1 for col in d_in if max(col) < n))]
        assert cohom._ranks(d_out, d_in, prefixes) == [
            (rank(d_out[:a]), rank(d_in[:b])) for a, b in prefixes]


def test_only_blocks_open_mod_2_reach_the_certified_kernels(monkeypatch):
    """E6 node 2, H^2: ``pivots`` runs on d_out and d_in of exactly the blocks whose
    bound is open mod 2 (by an independent GF(2) rank), and those are the blocks
    with H != 0."""
    exact, calls = count_exact_pivots(monkeypatch), record_ranks(monkeypatch)
    slices = []
    real = verify.cohomology

    def collected(*args, **kwargs):
        out = real(*args, **kwargs)
        slices.extend(out)
        return out

    monkeypatch.setattr(verify, "cohomology", collected)
    assert verify.run_case(verify.CaseSpec("E", 6, (2,), "h2"))["status"] == verify.MATCH
    opened = sum(open_mod_2(calls))
    assert 0 < opened < len(calls)
    assert len(exact) == 2 * opened
    assert opened == sum(lifted_blocks(slices))


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


def act_outside_the_window(mod: GradedModule) -> GradedModule:
    """``mod`` with one more action target, added after it is built: g_- element 0 sends
    the first degree-0 element to itself, not into degree deg(0) + 0, so d on C^0 of
    degree 0 reaches a cochain outside C^1_0."""
    m = mod.by_degree[0][0]
    mod.acting[m].append((0, {m: 1}))
    return mod


def test_an_action_target_outside_the_window_fails_d_left():
    fc = FlagCase("G", 2, (1,))
    adj = fc.adjoint_module()
    assert cohomology(fc.gminus, adj, 1, [0])[0].dim_cochains[1] > 0
    act_outside_the_window(adj)
    with pytest.raises(InvariantError, match=r"d left C\^1_0"):
        cohomology(fc.gminus, adj, 1, [0])


def test_an_action_target_outside_the_window_fails_d_left_under_python_O():
    code = ("import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from nhsf import InvariantError\n"
            "from nhsf.cohom import cohomology\n"
            "from nhsf.gmod import FlagCase\n"
            "from test_cohom import act_outside_the_window\n"
            "assert False, 'asserts are enabled'\n"
            "fc = FlagCase('G', 2, (1,))\n"
            "adj = act_outside_the_window(fc.adjoint_module())\n"
            "try:\n"
            "    cohomology(fc.gminus, adj, 1, [0])\n"
            "except InvariantError as e:\n"
            "    sys.exit(0 if 'd left C^1_0' in str(e) else 4)\n"
            "sys.exit(3)\n")
    src = str(Path(nhsf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    res = subprocess.run([sys.executable, "-O", "-c", code, str(Path(__file__).parent)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr


def test_overcounted_ranks_fail_the_dimension_bookkeeping(monkeypatch):
    """Pivots over Q that call every column independent make rank d_out + rank d_in
    exceed dim C^s_mu on a block with a nonzero d_in; the mod-2 screen is held open
    (no pivots) so that every block reads its ranks off ``pivots``."""
    fc = FlagCase("G", 2, (1,))
    adj = fc.adjoint_module()
    monkeypatch.setattr(cohom, "pivots_mod_2", lambda cols: [])
    assert cohomology(fc.gminus, adj, 1, [0])[0].rank_in > 0
    monkeypatch.setattr(cohom, "pivots", lambda cols: list(range(len(cols))))
    with pytest.raises(InvariantError, match="dimension bookkeeping failed"):
        cohomology(fc.gminus, adj, 1, [0])


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
