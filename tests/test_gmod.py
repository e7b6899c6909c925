import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import nhsf
import nhsf.verify
from nhsf import InvariantError
from nhsf.cohom import cohomology, full_window
from nhsf.decomp import HIGHEST, LOWEST, ExtremalWeights, decompose
from nhsf.gmod import FlagCase, GradedModule, ModuleElt, _simple_root
from nhsf.liealg import GradedNilpotent, ZGradedLieAlgebra, build_chevalley, graded_algebra
from nhsf.linalg import Q, acc, commutator
from nhsf.rootsys import _weyl_product, build_root_system
from nhsf.verify import g2_structure, g2_structure_module

from models import (IrreducibleModule, abelian_negative, coriemann_z_module, riemann_module,
                    verify_representation, z_basis)


@pytest.mark.parametrize("t,n,hw,dim", [
    ("A", 2, (1, 0), 3), ("A", 2, (0, 0), 1), ("A", 2, (1, 1), 8),
    ("G", 2, (1, 0), 7), ("G", 2, (0, 1), 14),
    ("B", 3, (0, 0, 1), 8), ("C", 3, (0, 1, 0), 14), ("D", 4, (1, 0, 0, 0), 8),
])
def test_irreducible_dims_match_weyl_formula(t, n, hw, dim):
    rs = build_root_system(t, n)
    assert _weyl_product(rs, hw, range(n)) == (dim, 0)  # independent oracle
    mod = IrreducibleModule(rs, hw)
    assert mod.dim == dim


def test_irreducible_weight_multiset_adjoint():
    rs = build_root_system("A", 2)
    mod = IrreducibleModule(rs, (1, 1))
    zero = sum(1 for w in mod.weights if w == (0, 0))
    assert zero == 2  # Cartan multiplicity of sl3 adjoint


def _case(t, n, nodes):
    return FlagCase(t, n, tuple(nodes))


def test_adjoint_module_dims_g2():
    fc = _case("G", 2, (1,))
    adj = fc.adjoint_module()
    dims = {d: len(v) for d, v in adj.by_degree.items()}
    assert dims == {-3: 2, -2: 1, -1: 2, 0: 4, 1: 2, 2: 1, 3: 2}
    verify_representation(adj)
    adj.verify_additivity()


def test_adjoint_module_total_f4():
    fc = _case("F", 4, (2,))
    adj = fc.adjoint_module()
    assert adj.dim == 52
    assert sorted(adj.by_degree) == list(range(-4, 5))


def test_riemann_module_dims():
    assert riemann_module(_case("G", 2, (1,))).dim == 8
    assert riemann_module(_case("A", 2, (1, 2))).dim == 3  # Borel: l1 = 0
    riem = riemann_module(_case("C", 3, (1,)))
    assert {d: len(v) for d, v in riem.by_degree.items()} == {-2: 1, -1: 4, 0: 10}
    verify_representation(riem)


def test_restricted_ad_rejects_a_span_that_is_not_closed():
    fc = _case("G", 2, (1,))
    alg = fc.alg
    riemann = fc.levi.g_minus + fc.levi.l1
    x1 = next(i for i, lab in enumerate(alg.basis) if lab.kind == "x" and lab.degree == 1)
    # [x, y] for the degree -1 partner of x lands on h1, outside g_- + l1
    with pytest.raises(InvariantError, match="not closed"):
        alg.restricted_ad(x1, riemann)
    # a Levi generator keeps g_- + l1
    x2 = alg.x_index(alg.rs.root_index[(0, 1)])
    assert alg.restricted_ad(x2, riemann)


def test_coriemann_dims_equal_gminus_plus_z():
    for t, n, nodes in [("G", 2, (1,)), ("C", 2, (1, 2)), ("A", 3, (1, 3)),
                        ("D", 4, (2,))]:
        fc = _case(t, n, nodes)
        z = z_basis(fc.alg)
        assert len(z) == len(nodes) and len(fc.levi.l) == len(fc.levi.l1) + len(z)
        adj = fc.adjoint_module()
        cor = fc.coriemann_module(adj, fc.riemann_in(adj))
        assert cor.dim == fc.gminus.dim + len(z)
        verify_representation(cor)
        cor.verify_additivity()


def test_cartan_outside_l1_cartan_plus_z_is_rejected():
    fc = FlagCase("G", 2, (1,))
    with pytest.raises(InvariantError, match="outside l1-Cartan"):
        coriemann_z_module(fc, [{1: 1}])  # h2, already the unselected coroot


def test_coriemann_weights_mirror_positive_part():
    fc = _case("G", 2, (1,))
    adj = fc.adjoint_module()
    cor = fc.coriemann_module(adj, fc.riemann_in(adj))
    pos_weights = sorted(lab.weight for lab in fc.alg.basis if lab.degree > 0)
    quot = sorted(b.weight for b in cor.basis if b.degree > 0)
    assert quot == pos_weights


def test_coriemann_entries_are_integers():
    """The quotient keeps the adjoint's integer constants; the z-realization solves the
    Cartan split, and its entries are fractions."""
    for t, n, nodes in [("G", 2, (1,)), ("C", 3, (1, 3)), ("F", 4, (3,)), ("E", 6, (2,))]:
        fc = _case(t, n, nodes)
        adj = fc.adjoint_module()
        cor = fc.coriemann_module(adj, fc.riemann_in(adj))
        mats = [*cor.act, *(xi.on_module for xi in cor.actors)]
        assert cor.actors and all(type(v) is int for mat in mats for outs in mat.values()
                                  for v in outs.values())
    z_mats = coriemann_z_module(_case("G", 2, (1,))).act
    assert any(type(v) is Fraction for mat in z_mats for outs in mat.values()
               for v in outs.values())


def _h1_of(fc, mod):
    """Degreewise dim H^1 and the Highest and Lowest summands, from complete slices."""
    slices = [sl for sl in cohomology(fc.gminus, mod, 1, full_window(fc.gminus, mod, 1))
              if sl.dim_h]
    return ({sl.k: sl.dim_h for sl in slices},
            *(decompose(slices, mod, ExtremalWeights(fc.rs, tuple(fc.unselected), kind))
              for kind in (HIGHEST, LOWEST)))


@pytest.mark.parametrize("case", [("G", 2, (1,)), ("G", 2, (2,)), ("F", 4, (1,)),
                                  ("F", 4, (2,)), ("F", 4, (3,)), ("F", 4, (4,)),
                                  ("C", 3, (3,)), ("B", 4, (2,)), ("D", 5, (3,)),
                                  ("A", 3, (1, 3)), ("C", 3, (1, 3))],
                         ids=lambda c: f"{c[0]}{c[1]}-{','.join(map(str, c[2]))}")
def test_quotient_h1_equals_the_z_realization(case):
    """g/(g_- (+) l1) and (g_- (+) z)^* on z (+) g_+ are isomorphic modules: equal
    degreewise H^1 and equal Highest and Lowest summands."""
    fc = _case(*case)
    adj = fc.adjoint_module()
    got = _h1_of(fc, fc.coriemann_module(adj, fc.riemann_in(adj)))
    assert got[0] and got == _h1_of(fc, coriemann_z_module(fc))


def test_abelian_negative_packaging():
    """The G(2)-structure's coefficients V (+) g_0, 21-dimensional (22 with the
    center), as the package takes them and as the reference builds them by hand."""
    alg = build_chevalley("G", 2)
    irr = IrreducibleModule(alg.rs, (1, 0))
    for include_center, dim in ((False, 21), (True, 22)):
        for mod in (g2_structure_module(include_center)[1],
                    abelian_negative(irr, include_center, alg)[1]):
            assert mod.gminus.dim == 7 and mod.dim == dim
            verify_representation(mod)


def _carried(mat, phi):
    """phi mat phi^-1 for the monomial map ``phi``, {index: (index in the other
    basis, scale)}."""
    return {phi[c][0]: {phi[r][0]: Q(v) * phi[r][1] / phi[c][1] for r, v in img.items()}
            for c, img in mat.items()}


@pytest.mark.parametrize("include_center", [False, True], ids=["g2", "cg2"])
def test_g2_structure_module_is_abelian_negative_up_to_a_diagonal_change_of_basis(
        include_center):
    """The module ``run_g2_structure`` takes, ``prolong_as_module`` on the prolongation
    of ``g2_structure``, is the hand-built module on the oracle V = L(1, 0) of G(2).
    Every weight space of V is a line, so the two V's differ by a diagonal matrix D
    once their bases are matched by weight: D is solved for from the highest weight
    vector, and then it, with the identity on g_0, carries all 14 actions of g2 on
    V, the g_- action on V (+) g_0 and each actor's two actions to the hand-built
    ones."""
    alg = build_chevalley("G", 2)
    irr = IrreducibleModule(alg.rs, (1, 0))
    ref_nil, ref = abelian_negative(irr, include_center, alg)
    nil, g0, _ = g2_structure(include_center)
    p, mod = g2_structure_module(include_center)
    n = nil.dim
    assert p.gminus == nil == mod.gminus and n == irr.dim == 7
    assert nil.labels == ref_nil.labels and nil.degrees == ref_nil.degrees
    assert len(set(nil.weights)) == n and sorted(nil.weights) == sorted(ref_nil.weights)
    pi = [ref_nil.weights.index(w) for w in nil.weights]
    assert [b.weight for b in mod.basis[:n]] == nil.weights
    assert [(b.label, b.degree) for b in mod.basis[:n]] == \
        [(b.label, b.degree) for b in ref.basis[:n]]
    assert mod.basis[n:] == ref.basis[n:]
    assert mod.truncation_bound is None and ref.truncation_bound is None
    assert [xi.name for xi in mod.actors] == ["x1", "y1", "x2", "y2"] == \
        [xi.name for xi in ref.actors]
    acts, ref_acts = g0.act[:alg.dim], irr.actions(alg)
    d = {nil.weights.index(irr.hw): Q(1)}
    while len(d) < n:
        for mat, ref_mat in zip(acts, ref_acts):
            for c in list(d):
                for r, v in mat.get(c, {}).items():
                    d.setdefault(r, d[c] * ref_mat[pi[c]][pi[r]] / v)
    on_v = {k: (pi[k], d[k]) for k in range(n)}
    on_mod = {**on_v, **{m: (m, 1) for m in range(n, mod.dim)}}
    assert [_carried(mat, on_v) for mat in acts] == ref_acts
    assert [_carried(mat, on_mod) for mat in mod.act] == \
        [{c: {r: d[k] * v for r, v in img.items()} for c, img in ref.act[pi[k]].items()}
         for k in range(n)]
    for xi, ref_xi in zip(mod.actors, ref.actors):
        assert (xi.kind, xi.weight) == (ref_xi.kind, ref_xi.weight)
        assert _carried(xi.on_gminus, on_v) == ref_xi.on_gminus
        assert _carried(xi.on_module, on_mod) == ref_xi.on_module


@pytest.mark.parametrize("include_center", [False, True], ids=["g2", "cg2"])
def test_g2_structure_module_holds_only_int_entries(include_center):
    """V and g2 come from B4's integer constants, so no entry is a ``Fraction``."""
    _, mod = g2_structure_module(include_center)
    mats = [*mod.act, *(mat for xi in mod.actors for mat in (xi.on_gminus, xi.on_module))]
    entries = [v for mat in mats for img in mat.values() for v in img.values()]
    assert entries and all(type(v) is int for v in entries)


def _g2_structure_over(name, alg):
    """``verify.g2_structure(False)`` with ``verify``'s algebra builder ``name``
    returning ``alg``; the builder is restored afterwards."""
    real = getattr(nhsf.verify, name)
    setattr(nhsf.verify, name, lambda *args: alg)
    try:
        return nhsf.verify.g2_structure(False)
    finally:
        setattr(nhsf.verify, name, real)


def _changed(alg, a, b, f):
    """``alg`` with the entry of [e_a, e_b] replaced by f of it."""
    table = dict(alg.table)
    key = (min(a, b), max(a, b))
    table[key] = {k: f(v) for k, v in table[key].items()}
    return ZGradedLieAlgebra(alg.rs, None, alg.grading, table)


def _g2_labelled(a, b):
    g2 = build_chevalley("G", 2)
    index = {g2.label(i): i for i in range(g2.dim)}
    return g2, index[a], index[b]


def tamper_g2_constant():
    """g2 with N in [y[1,0], x[1,1]] = N x[0,1] off by one; the peel-off never
    divides by it."""
    return _g2_structure_over("build_chevalley",
                              _changed(*_g2_labelled("y[1,0]", "x[1,1]"), lambda v: v + 1))


def tamper_g2_divisor():
    """g2 with N in [x[1,0], x[1,1]] = N x[2,1], which the peel-off divides by, off
    by one."""
    return _g2_structure_over("build_chevalley",
                              _changed(*_g2_labelled("x[1,0]", "x[1,1]"), lambda v: v + 1))


def tamper_b4_entry():
    """B4 graded at node 1 with one entry of x[a3] on g_{-1}, the long generator of
    g2, doubled."""
    b4 = graded_algebra("B", 4, (1,))
    e2 = b4.x_index(_simple_root(b4.rs, 2))
    v = next(i for i, lab in enumerate(b4.basis)
             if lab.degree == -1 and b4.bracket_basis(e2, i))
    return _g2_structure_over("graded_algebra", _changed(b4, e2, v, lambda c: 2 * c))


G2_TAMPERS = {"tamper_g2_constant": "does not act as the bracket of their actions",
              "tamper_g2_divisor": "is not divisible by",
              "tamper_b4_entry": "does not act as the bracket of their actions"}


@pytest.mark.parametrize("tamper", sorted(G2_TAMPERS))
def test_tampered_g2_on_v_is_rejected(tamper):
    with pytest.raises(InvariantError, match=G2_TAMPERS[tamper]):
        globals()[tamper]()
    assert nhsf.verify.g2_structure(False)  # the builders are restored


@pytest.mark.parametrize("tamper", sorted(G2_TAMPERS))
def test_tampered_g2_on_v_is_rejected_under_python_O(tamper):
    code = ("import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from nhsf import InvariantError\n"
            "from test_gmod import " + tamper + "\n"
            "assert False, 'asserts are enabled'\n"
            "try:\n"
            "    " + tamper + "()\n"
            "except InvariantError as e:\n"
            "    sys.exit(0 if sys.argv[2] in str(e) else 4)\n"
            "sys.exit(3)\n")
    src = str(Path(nhsf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    res = subprocess.run([sys.executable, "-O", "-c", code, str(Path(__file__).parent),
                          G2_TAMPERS[tamper]],
                         env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr


def test_irreducible_actions_represent_the_algebra():
    """``IrreducibleModule.actions`` is a representation of g on L(1, 0) of G(2):
    [X_i, X_j] acts as the commutator of their actions."""
    alg = build_chevalley("G", 2)
    irr = IrreducibleModule(alg.rs, (1, 0))
    acts = irr.actions(alg)
    assert len(acts) == alg.dim
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            for col in range(irr.dim):
                want: dict = {}
                for k, c in alg.bracket_basis(i, j).items():
                    for r, v in acts[k].get(col, {}).items():
                        acc(want, r, c * v)
                assert commutator(acts[i], acts[j], col) == want


# -- the additivity check a module runs when it is built -------------------


def _g2_adjoint_pieces(weights=True):
    """g_-, basis and a copy of the action of the G2 node-1 adjoint module."""
    adj = FlagCase("G", 2, (1,)).adjoint_module()
    basis = adj.basis if weights else [ModuleElt(b.label, b.degree, None) for b in adj.basis]
    act = [{m: dict(outs) for m, outs in mat.items()} for mat in adj.act]
    return adj.gminus, basis, act


def _move_one_entry(basis, act, bad):
    """Move the first entry a . m -> m2 with a target m3, bad(m2, m3), to m3."""
    for mat in act:
        for outs in mat.values():
            for m2 in outs:
                for m3, e in enumerate(basis):
                    if m3 not in outs and bad(basis[m2], e):
                        outs[m3] = outs.pop(m2)
                        return
    raise AssertionError("no entry to move")


def tamper_weight():
    """A module with one action entry moved to the right degree but the wrong weight."""
    gm, basis, act = _g2_adjoint_pieces()
    _move_one_entry(basis, act, lambda t, e: e.degree == t.degree and e.weight != t.weight)
    return GradedModule(gm, basis, act, None)


def tamper_degree():
    """A module without weights with one action entry moved to the wrong degree."""
    gm, basis, act = _g2_adjoint_pieces(weights=False)
    _move_one_entry(basis, act, lambda t, e: e.degree != t.degree)
    return GradedModule(gm, basis, act, None)


def tamper_bracket():
    """A module over a copy of g_- with one bracket entry moved to the wrong weight."""
    gm, basis, act = _g2_adjoint_pieces()
    table = {ab: dict(res) for ab, res in gm.bracket_table.items()}
    res, c, c2 = next((res, c, c2) for res in table.values() for c in res
                      for c2 in range(gm.dim)
                      if gm.degrees[c2] == gm.degrees[c] and gm.weights[c2] != gm.weights[c])
    res[c2] = res.pop(c)
    bad = GradedNilpotent(gm.labels, gm.degrees, gm.weights, table)
    return GradedModule(bad, basis, act, None)


def test_untampered_pieces_pass_the_additivity_check():
    for weights in (True, False):
        gm, basis, act = _g2_adjoint_pieces(weights)
        GradedModule(gm, basis, act, None).verify_additivity()


@pytest.mark.parametrize("tamper", [tamper_weight, tamper_degree, tamper_bracket])
def test_non_additive_module_is_rejected_when_built(tamper):
    with pytest.raises(InvariantError, match="not additive"):
        tamper()


@pytest.mark.parametrize("tamper", ["tamper_weight", "tamper_degree", "tamper_bracket"])
def test_non_additive_module_is_rejected_under_python_O(tamper):
    code = ("import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from nhsf import InvariantError\n"
            "from test_gmod import " + tamper + "\n"
            "assert False, 'asserts are enabled'\n"
            "try:\n"
            "    " + tamper + "()\n"
            "except InvariantError as e:\n"
            "    sys.exit(0 if 'not additive' in str(e) else 4)\n"
            "sys.exit(3)\n")
    src = str(Path(nhsf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    res = subprocess.run([sys.executable, "-O", "-c", code, str(Path(__file__).parent)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr


def test_a_gminus_degree_that_is_not_negative_is_rejected():
    """d's entries are assigned, not summed, only because every g_- degree is
    negative (``cohom`` docstring); a degree-0 element of g_- is refused."""
    gm = GradedNilpotent(["a", "b"], [-1, 0], [None, None], {})
    with pytest.raises(InvariantError, match="g_- degree is not negative"):
        GradedModule(gm, [ModuleElt("1", 0, None)], [{}, {}], None)


def test_an_action_entry_stored_as_zero_is_rejected():
    """An assigned entry of d is never 0 only because no action entry is 0."""
    gm = GradedNilpotent(["a"], [-1], [None], {})
    basis = [ModuleElt("m", 0, None), ModuleElt("n", -1, None)]
    with pytest.raises(InvariantError, match="stored as 0"):
        GradedModule(gm, basis, [{0: {1: 0}}], None)
    GradedModule(gm, basis, [{0: {1: 1}}], None)


# -- the actor check, run per kind before decompose reads that kind ------


def _tamper_actor(kind, field):
    """The G2 node-1 adjoint module with one entry of ``field`` doubled on its actor
    of ``kind`` ("raise": x2, "lower": y2); built without complaint."""
    adj = FlagCase("G", 2, (1,)).adjoint_module()
    t = next(t for t, xi in enumerate(adj.actors) if xi.kind == kind)
    xi = adj.actors[t]
    mat = {col: dict(img) for col, img in getattr(xi, field).items()}
    col = min(mat)
    row = min(mat[col])
    mat[col][row] *= 2
    actors = list(adj.actors)
    actors[t] = replace(xi, **{field: mat})
    return GradedModule(adj.gminus, adj.basis, adj.act, None, actors)


def _read_h2(mod, kind):
    """The summands of the G2 node-1 module ``mod``'s H^2, decomposed by ``kind``
    (Highest reads the raise actors, Lowest the lower ones)."""
    fc = FlagCase("G", 2, (1,))
    flt = ExtremalWeights(fc.rs, tuple(fc.unselected), kind)
    slices = cohomology(mod.gminus, mod, 2, full_window(mod.gminus, mod, 2), weights=flt)
    return decompose([sl for sl in slices if sl.dim_h], mod, flt)


def tamper_derivation():
    """x2 changed on g_- only, read by the Highest H^2: not a derivation of the bracket."""
    return _read_h2(_tamper_actor("raise", "on_gminus"), HIGHEST)


def tamper_compatibility():
    """x2 changed on the module only, read by the Highest H^2: not compatible."""
    return _read_h2(_tamper_actor("raise", "on_module"), HIGHEST)


def tamper_lower_derivation():
    """y2 changed on g_- only, read by the Lowest H^2: not a derivation of the bracket."""
    return _read_h2(_tamper_actor("lower", "on_gminus"), LOWEST)


def tamper_lower_compatibility():
    """y2 changed on the module only, read by the Lowest H^2: not compatible."""
    return _read_h2(_tamper_actor("lower", "on_module"), LOWEST)


ACTOR_TAMPERS = {"tamper_derivation": "not a derivation of the g_- bracket",
                 "tamper_compatibility": "not compatible with the module action",
                 "tamper_lower_derivation": "not a derivation of the g_- bracket",
                 "tamper_lower_compatibility": "not compatible with the module action"}


def test_every_flag_module_passes_the_actor_check():
    for t, n, nodes in [("G", 2, (1,)), ("C", 3, (1, 3)), ("F", 4, (3,))]:
        fc = _case(t, n, nodes)
        adj = fc.adjoint_module()
        for mod in (adj, riemann_module(fc), fc.coriemann_module(adj, fc.riemann_in(adj)),
                    fc.trivial_module()):
            assert mod.actors
            assert sorted(mod.actors_of("raise") + mod.actors_of("lower")) == \
                list(range(len(mod.actors)))


@pytest.mark.parametrize("tamper", sorted(ACTOR_TAMPERS))
def test_tampered_actor_is_rejected_before_a_multiplicity_is_read(tamper, monkeypatch):
    """The module builds; ``decompose`` of the tampered kind raises before it reads
    any multiplicity."""
    read = []
    real = nhsf.decomp._multiplicity
    monkeypatch.setattr(nhsf.decomp, "_multiplicity", lambda *a: read.append(a) or real(*a))
    with pytest.raises(InvariantError, match=ACTOR_TAMPERS[tamper]):
        globals()[tamper]()
    assert read == []


@pytest.mark.parametrize("tamper", sorted(ACTOR_TAMPERS))
def test_tampered_actor_is_rejected_under_python_O(tamper):
    code = ("import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from nhsf import InvariantError\n"
            "from test_gmod import " + tamper + "\n"
            "assert False, 'asserts are enabled'\n"
            "try:\n"
            "    " + tamper + "()\n"
            "except InvariantError as e:\n"
            "    sys.exit(0 if sys.argv[2] in str(e) else 4)\n"
            "sys.exit(3)\n")
    src = str(Path(nhsf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    res = subprocess.run([sys.executable, "-O", "-c", code, str(Path(__file__).parent),
                          ACTOR_TAMPERS[tamper]],
                         env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr


@pytest.mark.parametrize("kind,read", [("raise", LOWEST), ("lower", HIGHEST)])
def test_an_actor_of_the_kind_not_read_changes_no_summand(kind, read):
    """A tampered actor that ``decompose`` does not read is not checked, and the
    summands read with the other kind are those of the untampered module."""
    mod = _tamper_actor(kind, "on_module")
    got = _read_h2(mod, read)
    assert got and got == _read_h2(FlagCase("G", 2, (1,)).adjoint_module(), read)
    with pytest.raises(InvariantError, match="not compatible with the module action"):
        mod.actors_of(kind)


# -- the submodule check of the Riemann H^2 read off the adjoint -------------


def _adjoint_and_riemann():
    """The C3 nodes-1,3 adjoint module and the indices of g_- (+) l1 in its basis."""
    fc = _case("C", 3, (1, 3))
    adj = fc.adjoint_module()
    return fc, adj, fc.riemann_in(adj)


def tamper_riemann_minus_gminus():
    """g_- (+) l1 less its first g_- element, which [g_-, g_-] reaches."""
    _, adj, riem = _adjoint_and_riemann()
    return adj.submodule(riem - {min(riem)})


def tamper_quotient_minus_gminus():
    """The quotient by g_- (+) l1 less its first g_- element, not a submodule."""
    _, adj, riem = _adjoint_and_riemann()
    return adj.quotient(riem - {min(riem)})


def tamper_riemann_plus_g1():
    """g_- (+) l1 plus a g_1 element, which g_-1 brackets into the Cartan."""
    _, adj, riem = _adjoint_and_riemann()
    return adj.submodule(riem | {min(m for m, b in enumerate(adj.basis) if b.degree == 1)})


SUBMODULE_TAMPERS = ("tamper_riemann_minus_gminus", "tamper_riemann_plus_g1",
                     "tamper_quotient_minus_gminus")


def test_riemann_indices_span_the_riemann_module():
    fc, adj, riem = _adjoint_and_riemann()
    assert adj.submodule(riem) == riem
    assert [adj.basis[m] for m in sorted(riem)] == riemann_module(fc).basis


def test_riemann_plus_a_selected_cartan_vector_is_a_submodule():
    """[g_-, h] lies in g_- and [l1, h] in l1 for every Cartan h, so adding the coroot
    of a selected node keeps a submodule and the check accepts it."""
    fc, adj, riem = _adjoint_and_riemann()
    for node in fc.nodes:
        h = next(m for m, b in enumerate(adj.basis) if b.label == f"h{node}")
        assert h not in riem and adj.submodule(riem | {h}) == riem | {h}


@pytest.mark.parametrize("tamper", SUBMODULE_TAMPERS)
def test_index_set_left_by_the_action_is_rejected(tamper):
    with pytest.raises(InvariantError, match="not closed under the action"):
        globals()[tamper]()


@pytest.mark.parametrize("tamper", SUBMODULE_TAMPERS)
def test_index_set_left_by_the_action_is_rejected_under_python_O(tamper):
    code = ("import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from nhsf import InvariantError\n"
            "from test_gmod import " + tamper + "\n"
            "assert False, 'asserts are enabled'\n"
            "try:\n"
            "    " + tamper + "()\n"
            "except InvariantError as e:\n"
            "    sys.exit(0 if 'not closed under the action' in str(e) else 4)\n"
            "sys.exit(3)\n")
    src = str(Path(nhsf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    res = subprocess.run([sys.executable, "-O", "-c", code, str(Path(__file__).parent)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
