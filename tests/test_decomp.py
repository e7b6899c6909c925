import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import nhsf
import nhsf.decomp
from nhsf import InvariantError
from nhsf.cohom import cohomology, full_window
from nhsf.decomp import (HIGHEST, LOWEST, ExtremalWeights, decompose, extremal_vectors,
                         g0_action, levi_irrep_dim)
from nhsf.gmod import FlagCase
from nhsf.rootsys import COROOT, SIMPLEROOT, Weight, convert_weight


def slices_of(fc, mod, s):
    return [sl for sl in cohomology(fc.gminus, mod, s, full_window(fc.gminus, mod, s))
            if sl.dim_h]


def test_g2_node1_h2_lowest_weight():
    fc = FlagCase("G", 2, (1,))
    adj = fc.adjoint_module()
    slices = slices_of(fc, adj, 2)
    dim_of = lambda w, kind: levi_irrep_dim(fc.rs, fc.unselected, w, kind)
    sums = decompose(slices, adj, LOWEST, dim_of, fc.rs)
    assert len(sums) == 1
    sm = sums[0]
    assert sm.weight_cm == (8, -4) and sm.degree == 4 and sm.multiplicity == 1
    assert tuple(int(c) for c in sm.weight_fw) == (4, 0)


def test_g2_node1_h1_weights():
    fc = FlagCase("G", 2, (1,))
    cor = fc.coriemann_module()
    slices = slices_of(fc, cor, 1)
    lows = Counter()
    for sl in slices:
        for w, _ in extremal_vectors(sl, cor, LOWEST):
            fw = convert_weight(Weight(w, COROOT), SIMPLEROOT, fc.rs)
            lows[tuple(int(c) for c in fw.coords)] += 1
    # the H1 column value and the always-present footnote component
    assert lows == Counter({(4, 2): 1, (2, 0): 1})


def test_f4_node2_h2_two_lowest_weights():
    fc = FlagCase("F", 4, (2,))
    adj = fc.adjoint_module()
    dim_of = lambda w, kind: levi_irrep_dim(fc.rs, fc.unselected, w, kind)
    sums = decompose(slices_of(fc, adj, 2), adj, LOWEST, dim_of, fc.rs)
    got = {sm.weight_cm for sm in sums}
    assert got == {(0, 3, -2, -1), (-3, 4, -1, -2)}


def test_sl4_12_degrees_and_weights():
    fc = FlagCase("A", 3, (1, 2))
    adj = fc.adjoint_module()
    dim_of = lambda w, kind: levi_irrep_dim(fc.rs, fc.unselected, w, kind)
    sums = decompose(slices_of(fc, adj, 2), adj, LOWEST, dim_of, fc.rs)
    got = {(sm.degree, sm.weight_cm) for sm in sums}
    assert got == {(1, (-4, 4, 0)), (2, (4, -1, -2)), (3, (0, 4, -4))}


def test_cartan_acts_with_integer_eigenvalues():
    fc = FlagCase("G", 2, (2,))
    adj = fc.adjoint_module()
    for sl in slices_of(fc, adj, 2):
        for w in sl.rep_weights:
            assert all(isinstance(c, int) for c in w)


def test_one_dim_slice_extremal_kinds_coincide():
    fc = FlagCase("G", 2, (1,))
    adj = fc.adjoint_module()
    sl = [s for s in slices_of(fc, adj, 2)][0]
    lo = extremal_vectors(sl, adj, LOWEST)
    hi = extremal_vectors(sl, adj, HIGHEST)
    assert len(lo) == len(hi) == 1


def test_lowest_weights_nonpositive_at_unselected():
    for t, n, node in [("G", 2, 1), ("F", 4, 3), ("C", 3, 2), ("D", 4, 2)]:
        fc = FlagCase(t, n, (node,))
        adj = fc.adjoint_module()
        dim_of = lambda w, kind: levi_irrep_dim(fc.rs, fc.unselected, w, kind)
        for sm in decompose(slices_of(fc, adj, 2), adj, LOWEST, dim_of, fc.rs):
            for j in fc.unselected:
                assert sm.weight_cm[j - 1] <= 0


def test_bookkeeping_totals():
    fc = FlagCase("C", 3, (3,))
    cor = fc.coriemann_module()
    slices = slices_of(fc, cor, 1)
    dim_of = lambda w, kind: levi_irrep_dim(fc.rs, fc.unselected, w, kind)
    sums = decompose(slices, cor, HIGHEST, dim_of, fc.rs)
    total = sum(dim_of(sm.weight_cm, HIGHEST) * sm.multiplicity for sm in sums)
    assert total == sum(sl.dim_h for sl in slices)


def test_g0_action_preserves_h():
    fc = FlagCase("G", 2, (1,))
    adj = fc.adjoint_module()
    sl = slices_of(fc, adj, 2)[0]
    mats = g0_action(sl, adj)
    assert set(mats) == {"x2", "y2"}  # unselected node 2 raise/lower


def test_zero_slice_decomposes_empty():
    fc = FlagCase("G", 2, (1,))
    adj = fc.adjoint_module()
    sl = cohomology(fc.gminus, adj, 2, 100)[0]
    assert sl.dim_h == 0
    dim_of = lambda w, kind: levi_irrep_dim(fc.rs, fc.unselected, w, kind)
    assert decompose([sl], adj, LOWEST, dim_of, fc.rs) == []


def test_levi_irrep_dim():
    fc = FlagCase("G", 2, (1,))
    assert levi_irrep_dim(fc.rs, [2], (8, -4), LOWEST) == 5
    assert levi_irrep_dim(fc.rs, [2], (0, 0), LOWEST) == 1
    fc = FlagCase("F", 4, (1,))
    # the 105-dim constituent of f(4) node 1 (equals dim H^2 there)
    assert levi_irrep_dim(fc.rs, [2, 3, 4], (3, 0, -1, -1), LOWEST) == 105


def filtered_slices(fc, mod, s, kind):
    flt = ExtremalWeights(fc.rs, tuple(fc.unselected), kind)
    return [sl for sl in cohomology(fc.gminus, mod, s, full_window(fc.gminus, mod, s),
                                    weights=flt) if sl.dim_h]


def test_filtered_slice_builds_only_the_read_blocks():
    fc = FlagCase("B", 3, (1,))
    adj = fc.adjoint_module()
    full, = slices_of(fc, adj, 2)
    part, = filtered_slices(fc, adj, 2, LOWEST)
    assert part.k == full.k and set(part.blocks) < set(full.blocks)
    flt = part.weights
    # every antidominant block of the complete slice is built, with the same H
    for w, block in full.blocks.items():
        if flt.extremal(w):
            assert len(part.blocks[w].reps) == len(block.reps)
    dim_of = lambda w, kind: levi_irrep_dim(fc.rs, fc.unselected, w, kind)
    assert decompose([part], adj, LOWEST, dim_of, fc.rs) == decompose([full], adj, LOWEST,
                                                                     dim_of, fc.rs)


def test_filtered_slice_refuses_the_other_kind():
    fc = FlagCase("G", 2, (1,))
    adj = fc.adjoint_module()
    dim_of = lambda w, kind: levi_irrep_dim(fc.rs, fc.unselected, w, kind)
    with pytest.raises(InvariantError, match="Highest extremal weights"):
        decompose(filtered_slices(fc, adj, 2, LOWEST), adj, HIGHEST, dim_of, fc.rs)


def test_invalid_slice_is_an_internal_error():
    from nhsf.models import vect_module

    gm, mod = vect_module(2, 3)
    sl, = cohomology(gm, mod, 2, 6)
    assert not sl.valid
    with pytest.raises(InvariantError, match="not valid"):
        decompose([sl], mod, LOWEST, lambda w, kind: 1)


def test_tampered_multiplicity_fails_the_local_identity(monkeypatch):
    fc = FlagCase("C", 3, (2,))
    adj = fc.adjoint_module()
    slices = filtered_slices(fc, adj, 2, LOWEST)
    dim_of = lambda w, kind: levi_irrep_dim(fc.rs, fc.unselected, w, kind)
    assert decompose(slices, adj, LOWEST, dim_of, fc.rs)
    real = nhsf.decomp.dominant_multiplicities
    monkeypatch.setattr(nhsf.decomp, "dominant_multiplicities",
                        lambda *args: {w: m + 1 for w, m in real(*args).items()})
    with pytest.raises(InvariantError, match="local identity"):
        decompose(slices, adj, LOWEST, dim_of, fc.rs)


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
            "    d.decompose(sl, adj, d.LOWEST, lambda w, kind: 5, fc.rs)\n"
            "except InvariantError:\n"
            "    sys.exit(0)\n"
            "sys.exit(3)\n")
    src = str(Path(nhsf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    res = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
