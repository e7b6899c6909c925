import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import nhsf
import nhsf.decomp
from nhsf import InvariantError
from nhsf.cohom import CochainBasis, cochain_basis, cohomology, differential_columns, full_window
from nhsf.decomp import (HIGHEST, LOWEST, ExtremalWeights, actor_columns, decompose,
                         levi_irrep_dim)
from nhsf.gmod import FlagCase
from nhsf.liealg import build_chevalley
from nhsf.linalg import acc
from nhsf.rootsys import build_root_system
from nhsf.verify import g2_structure_module
from models import misweighted_b2, reference_decompose, riemann_module


def slices_of(fc, mod, s):
    return [sl for sl in cohomology(fc.gminus, mod, s, full_window(fc.gminus, mod, s))
            if sl.dim_h]


def extremal(fc, kind):
    return ExtremalWeights(fc.rs, tuple(fc.unselected), kind)


def test_g2_node1_h2_lowest_weight():
    fc = FlagCase("G", 2, (1,))
    adj = fc.adjoint_module()
    slices = slices_of(fc, adj, 2)
    sums = decompose(slices, adj, extremal(fc, LOWEST))
    assert len(sums) == 1
    sm = sums[0]
    assert sm.weight_cm == (8, -4) and sm.degree == 4 and sm.multiplicity == 1
    assert tuple(int(c) for c in sm.weight_fw) == (4, 0)


def test_g2_node1_h1_weights():
    fc = FlagCase("G", 2, (1,))
    adj = fc.adjoint_module()
    cor = fc.coriemann_module(adj, fc.riemann_in(adj))
    slices = slices_of(fc, cor, 1)
    lows = Counter()
    for sm in decompose(slices, cor, extremal(fc, LOWEST)):
        lows[tuple(int(c) for c in sm.weight_fw)] += sm.multiplicity
    # the H1 column value and the always-present footnote component
    assert lows == Counter({(4, 2): 1, (2, 0): 1})


def test_f4_node2_h2_two_lowest_weights():
    fc = FlagCase("F", 4, (2,))
    adj = fc.adjoint_module()
    sums = decompose(slices_of(fc, adj, 2), adj, extremal(fc, LOWEST))
    got = {sm.weight_cm for sm in sums}
    assert got == {(0, 3, -2, -1), (-3, 4, -1, -2)}


def test_sl4_12_degrees_and_weights():
    fc = FlagCase("A", 3, (1, 2))
    adj = fc.adjoint_module()
    sums = decompose(slices_of(fc, adj, 2), adj, extremal(fc, LOWEST))
    got = {(sm.degree, sm.weight_cm) for sm in sums}
    assert got == {(1, (-4, 4, 0)), (2, (4, -1, -2)), (3, (0, 4, -4))}


def test_cartan_acts_with_integer_eigenvalues():
    fc = FlagCase("G", 2, (2,))
    adj = fc.adjoint_module()
    for sl in slices_of(fc, adj, 2):
        for w, block in sl.blocks.items():
            if block.dim_h:
                assert all(isinstance(c, int) for c in w)


def test_one_dim_slice_extremal_kinds_coincide():
    fc = FlagCase("G", 2, (1,))
    adj = fc.adjoint_module()
    sl = [s for s in slices_of(fc, adj, 2)][0]
    lo, = decompose([sl], adj, extremal(fc, LOWEST))
    hi, = decompose([sl], adj, extremal(fc, HIGHEST))
    assert lo.multiplicity == hi.multiplicity == 1
    assert extremal(fc, LOWEST).relabel([hi]) == [lo]


def test_lowest_weights_nonpositive_at_unselected():
    for t, n, node in [("G", 2, 1), ("F", 4, 3), ("C", 3, 2), ("D", 4, 2)]:
        fc = FlagCase(t, n, (node,))
        adj = fc.adjoint_module()
        for sm in decompose(slices_of(fc, adj, 2), adj, extremal(fc, LOWEST)):
            for j in fc.unselected:
                assert sm.weight_cm[j - 1] <= 0


def test_bookkeeping_totals():
    fc = FlagCase("C", 3, (3,))
    adj = fc.adjoint_module()
    cor = fc.coriemann_module(adj, fc.riemann_in(adj))
    slices = slices_of(fc, cor, 1)
    sums = decompose(slices, cor, extremal(fc, HIGHEST))
    total = sum(levi_irrep_dim(fc.rs, fc.unselected, sm.weight_cm, HIGHEST) * sm.multiplicity
                for sm in sums)
    assert total == sum(sl.dim_h for sl in slices)


def test_zero_slice_decomposes_empty():
    fc = FlagCase("G", 2, (1,))
    adj = fc.adjoint_module()
    sl = cohomology(fc.gminus, adj, 2, 100)[0]
    assert sl.dim_h == 0
    assert decompose([sl], adj, extremal(fc, LOWEST)) == []


def test_levi_irrep_dim():
    fc = FlagCase("G", 2, (1,))
    assert levi_irrep_dim(fc.rs, [2], (8, -4), LOWEST) == 5
    assert levi_irrep_dim(fc.rs, [2], (0, 0), LOWEST) == 1
    fc = FlagCase("F", 4, (1,))
    # the 105-dim constituent of f(4) node 1 (equals dim H^2 there)
    assert levi_irrep_dim(fc.rs, [2, 3, 4], (3, 0, -1, -1), LOWEST) == 105


def test_levi_irrep_dim_rejects_a_weight_that_is_not_extremal():
    rs = build_root_system("G", 2)
    with pytest.raises(InvariantError, match="not Lowest-dominant"):
        levi_irrep_dim(rs, [2], (0, 1), LOWEST)
    with pytest.raises(InvariantError, match="not Highest-dominant"):
        levi_irrep_dim(rs, [2], (0, -1), HIGHEST)


def test_levi_irrep_dim_rejects_a_non_integral_weyl_product():
    """With B2's root lengths swapped, Weyl's product for (1, 0) is 16/5."""
    with pytest.raises(InvariantError, match="non-integral Weyl dimension"):
        levi_irrep_dim(misweighted_b2(), [1, 2], (1, 0), HIGHEST)


def filtered_slices(fc, mod, s, kind):
    flt = extremal(fc, kind)
    return [sl for sl in cohomology(fc.gminus, mod, s, full_window(fc.gminus, mod, s),
                                    weights=flt) if sl.dim_h]


def test_filtered_slice_builds_only_the_read_blocks():
    fc = FlagCase("B", 3, (1,))
    adj = fc.adjoint_module()
    full, = slices_of(fc, adj, 2)
    part, = filtered_slices(fc, adj, 2, LOWEST)
    assert part.k == full.k and set(part.blocks) < set(full.blocks)
    flt = part.weights
    # only antidominant blocks are built, each of them with the same H
    assert all(flt(w) for w in part.blocks)
    for w, block in full.blocks.items():
        if flt(w):
            assert part.blocks[w].dim_h == block.dim_h
    assert decompose([part], adj, flt) == decompose([full], adj, flt)


def test_filtered_slice_refuses_the_other_kind():
    fc = FlagCase("G", 2, (1,))
    adj = fc.adjoint_module()
    with pytest.raises(InvariantError, match="Highest extremal weights"):
        decompose(filtered_slices(fc, adj, 2, LOWEST), adj, extremal(fc, HIGHEST))


def test_invalid_slice_is_an_internal_error():
    from models import vect_module

    gm, mod = vect_module(2, 3)
    sl, = cohomology(gm, mod, 2, 6)
    assert not sl.valid
    with pytest.raises(InvariantError, match="not valid"):
        decompose([sl], mod, ExtremalWeights(build_root_system("A", 2), (1, 2), LOWEST))


def test_tampered_multiplicity_fails_the_local_identity(monkeypatch):
    """Filtered and complete slices alike are checked by the local identity."""
    fc = FlagCase("C", 3, (2,))
    adj = fc.adjoint_module()
    flt = extremal(fc, LOWEST)
    cases = [filtered_slices(fc, adj, 2, LOWEST), slices_of(fc, adj, 2)]
    for slices in cases:
        assert decompose(slices, adj, flt)
    real = nhsf.decomp.dominant_multiplicities
    monkeypatch.setattr(nhsf.decomp, "dominant_multiplicities",
                        lambda *args: {w: m + 1 for w, m in real(*args).items()})
    for slices in cases:
        with pytest.raises(InvariantError, match="local identity"):
            decompose(slices, adj, flt)


def test_tampered_multiplicity_fails_under_python_O():
    code = ("import sys\n"
            "import nhsf.decomp as d\n"
            "from nhsf import InvariantError\n"
            "from nhsf.gmod import FlagCase\n"
            "from nhsf.cohom import cohomology, full_window\n"
            "assert False, 'asserts are enabled'\n"
            "fc = FlagCase('G', 2, (1,))\n"
            "adj = fc.adjoint_module()\n"
            "flt = d.ExtremalWeights(fc.rs, tuple(fc.unselected), d.LOWEST)\n"
            "sl = cohomology(fc.gminus, adj, 2, [4], weights=flt)\n"
            "real = d.dominant_multiplicities\n"
            "d.dominant_multiplicities = lambda *a: {w: 2 * m for w, m in real(*a).items()}\n"
            "try:\n"
            "    d.decompose(sl, adj, flt)\n"
            "except InvariantError:\n"
            "    sys.exit(0)\n"
            "sys.exit(3)\n")
    src = str(Path(nhsf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    res = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr


# -- the kernel counts against the route by representatives ------------------

REFERENCE_CASES = [("G", 2, (1,)), ("G", 2, (2,)), ("C", 3, (1,)), ("B", 3, (2,)),
                   ("F", 4, (1,)), ("F", 4, (3,)), ("F", 4, (4,)), ("E", 6, (2,)),
                   ("E", 6, (5,)), ("A", 3, (1, 3)), ("C", 2, (1, 2))]


@pytest.mark.parametrize("case", REFERENCE_CASES,
                         ids=lambda c: f"{c[0]}{c[1]}-{','.join(map(str, c[2]))}")
def test_decompose_matches_the_reference(case):
    """Adjoint H^2, co-Riemann H^1 and Riemann H^2, as ``verify`` splits them."""
    fc = FlagCase(*case)
    adj = fc.adjoint_module()
    cor = fc.coriemann_module(adj, fc.riemann_in(adj))
    for mod, s, kind in ((adj, 2, LOWEST), (cor, 1, HIGHEST), (riemann_module(fc), 2, LOWEST)):
        flt = extremal(fc, kind)
        got = decompose(filtered_slices(fc, mod, s, kind), mod, flt)
        assert got and got == reference_decompose(mod, s, flt)


@pytest.mark.parametrize("case", REFERENCE_CASES + [("C", 5, (3,)), ("D", 6, (3,))],
                         ids=lambda c: f"{c[0]}{c[1]}-{','.join(map(str, c[2]))}")
def test_riemann_h2_off_the_adjoint_blocks_matches_the_riemann_module(case):
    """H^2(g_- (+) l1) read off the adjoint's blocks equals the standalone module's
    (``models.riemann_module``): per slice, per (k, weight) block and per summand."""
    fc = FlagCase(*case)
    adj, riem = fc.adjoint_module(), riemann_module(fc)
    flt = extremal(fc, LOWEST)
    shared = cohomology(fc.gminus, adj, 2, full_window(fc.gminus, adj, 2), weights=flt,
                        sub=fc.riemann_in(adj))
    alone = cohomology(fc.gminus, riem, 2, full_window(fc.gminus, riem, 2), weights=flt)
    summary = lambda sl: (sl.dim_cochains, sl.rank_in, sl.rank_out, sl.dim_h)
    blocks = lambda sl: {w: (b.dim_h, b.rank_in) for w, b in sl.blocks.items()}
    got = {sl.k: (summary(sl.sub), blocks(sl.sub)) for sl in shared if sl.sub.blocks}
    want = {sl.k: (summary(sl), blocks(sl)) for sl in alone if sl.blocks}
    assert got and got == want
    summands = decompose([sl.sub for sl in shared if sl.sub.dim_h], adj, flt)
    assert summands and summands == decompose([sl for sl in alone if sl.dim_h], riem, flt)


def test_g2_structure_decomposition_matches_the_reference():
    """The Sec. 7.1 module: abelian g_- = L(1, 0) of G(2), all of g as actors."""
    flt = ExtremalWeights(build_chevalley("G", 2).rs, (1, 2), HIGHEST)
    for include_center in (False, True):
        _, mod = g2_structure_module(include_center)
        got = decompose([sl for sl in cohomology(mod.gminus, mod, 2, [1, 2]) if sl.dim_h], mod, flt)
        assert got and got == reference_decompose(mod, 2, flt, [1, 2])


def _d(gm, mod, elts):
    """d on the cochains ``elts``: one column per cochain, rows keyed (mono, m)."""
    rows = {}
    cols = differential_columns(gm, mod, CochainBasis(list(elts), [None] * len(elts)), rows)
    keys = list(rows)
    return [{keys[r]: v for r, v in col.items()} for col in cols]


@pytest.mark.parametrize("case", [("G", 2, (1,)), ("C", 3, (1,)), ("B", 3, (2,))],
                         ids=lambda c: f"{c[0]}{c[1]}-{c[2][0]}")
def test_actors_commute_with_d(case):
    """F o d = d o F on all of C^1 and C^2, every actor, three modules."""
    fc = FlagCase(*case)
    gm = fc.gminus
    adj = fc.adjoint_module()
    for mod in (adj, riemann_module(fc), fc.coriemann_module(adj, fc.riemann_in(adj))):
        actors = list(range(len(mod.actors)))
        nonzero = 0
        for s in (1, 2):
            for k in full_window(gm, mod, s):
                elts = cochain_basis(gm, mod, s, k).elts
                d_cols = _d(gm, mod, elts)
                f_cols = actor_columns(mod, actors, elts)
                targets = sorted({c for col in d_cols for c in col})
                f_of = dict(zip(targets, actor_columns(mod, actors, targets)))
                images = sorted({key[1:] for col in f_cols for key in col})
                d_of = dict(zip(images, _d(gm, mod, images)))
                for d_col, f_col in zip(d_cols, f_cols):
                    fd, df = {}, {}
                    for c, v in d_col.items():
                        for key, u in f_of[c].items():
                            acc(fd, key, v * u)
                    for (t, *c), v in f_col.items():
                        for c2, u in d_of[tuple(c)].items():
                            acc(df, (t,) + c2, v * u)
                    assert fd == df
                    nonzero += bool(fd)
        assert nonzero
