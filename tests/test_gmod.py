import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import nhsf
import nhsf.gmod
from nhsf import InvariantError
from nhsf.gmod import FlagCase, GradedModule, IrreducibleModule, ModuleElt, abelian_negative
from nhsf.liealg import GradedNilpotent, build_chevalley
from nhsf.rootsys import build_root_system, weyl_dim


@pytest.mark.parametrize("t,n,hw,dim", [
    ("A", 2, (1, 0), 3), ("A", 2, (0, 0), 1), ("A", 2, (1, 1), 8),
    ("G", 2, (1, 0), 7), ("G", 2, (0, 1), 14),
    ("B", 3, (0, 0, 1), 8), ("C", 3, (0, 1, 0), 14), ("D", 4, (1, 0, 0, 0), 8),
])
def test_irreducible_dims_match_weyl_formula(t, n, hw, dim):
    rs = build_root_system(t, n)
    assert int(weyl_dim(rs, hw)) == dim  # independent oracle
    mod = IrreducibleModule(rs, hw)
    assert mod.dim == dim


def test_irreducible_rejections():
    rs = build_root_system("A", 2)
    with pytest.raises(ValueError):
        IrreducibleModule(rs, (-1, 0))
    with pytest.raises(ValueError) as exc:
        IrreducibleModule(rs, (10, 10))  # Weyl dimension 1331
    assert "exceeds bound 1000" in str(exc.value)


def test_irreducible_weyl_dimension_checks(monkeypatch):
    """A Weyl dimension that is not an integer, or not the built one, fails an invariant."""
    rs = build_root_system("A", 2)
    monkeypatch.setattr(nhsf.gmod, "weyl_dim", lambda rs, hw: Fraction(7, 2))
    with pytest.raises(InvariantError, match="not an integer"):
        IrreducibleModule(rs, (1, 0))
    monkeypatch.setattr(nhsf.gmod, "weyl_dim", lambda rs, hw: Fraction(8))
    with pytest.raises(InvariantError, match="built dim 3 != Weyl dim 8"):
        IrreducibleModule(rs, (1, 0))


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
    adj.verify_representation()
    adj.verify_additivity()


def test_adjoint_module_total_f4():
    fc = _case("F", 4, (2,))
    adj = fc.adjoint_module()
    assert adj.dim == 52
    assert sorted(adj.by_degree) == list(range(-4, 5))


def test_riemann_module_dims():
    assert _case("G", 2, (1,)).riemann_module().dim == 8
    assert _case("A", 2, (1, 2)).riemann_module().dim == 3  # Borel: l1 = 0
    fc = _case("C", 3, (1,))
    riem = fc.riemann_module()
    assert {d: len(v) for d, v in riem.by_degree.items()} == {-2: 1, -1: 4, 0: 10}
    riem.verify_representation()


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
        cor = fc.coriemann_module()
        assert cor.dim == fc.gminus.dim + len(fc.levi.z)
        cor.verify_representation()
        cor.verify_additivity()


def test_cartan_outside_l1_cartan_plus_z_is_rejected():
    fc = FlagCase("G", 2, (1,))
    fc.levi = replace(fc.levi, z=[{1: 1}])  # h2, already the unselected coroot
    with pytest.raises(InvariantError, match="outside l1-Cartan"):
        fc.coriemann_module()


def test_coriemann_weights_mirror_positive_part():
    fc = _case("G", 2, (1,))
    cor = fc.coriemann_module()
    pos_weights = sorted(lab.weight for lab in fc.alg.basis if lab.degree > 0)
    quot = sorted(b.weight for b in cor.basis if b.degree > 0)
    assert quot == pos_weights


def test_abelian_negative_packaging():
    alg = build_chevalley("G", 2)
    irr = IrreducibleModule(alg.rs, (1, 0))
    nil, mod = abelian_negative(irr, False, alg)
    assert nil.dim == 7 and mod.dim == 21
    mod.verify_representation()
    nil, mod = abelian_negative(irr, True, alg)
    assert mod.dim == 22
    mod.verify_representation()


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


# -- the actor check a module runs when it is built -------------------------


def _tamper_actor(field):
    """The G2 node-1 adjoint module with one entry of its first actor's ``field`` doubled."""
    adj = FlagCase("G", 2, (1,)).adjoint_module()
    xi = adj.actors[0]
    mat = {col: dict(img) for col, img in getattr(xi, field).items()}
    col = min(mat)
    row = min(mat[col])
    mat[col][row] *= 2
    return GradedModule(adj.gminus, adj.basis, adj.act, None,
                        [replace(xi, **{field: mat})] + adj.actors[1:])


def tamper_derivation():
    """x2 changed on g_- only: no longer a derivation of the g_- bracket."""
    return _tamper_actor("on_gminus")


def tamper_compatibility():
    """x2 changed on the module only: no longer compatible with the action."""
    return _tamper_actor("on_module")


ACTOR_TAMPERS = {"tamper_derivation": "not a derivation of the g_- bracket",
                 "tamper_compatibility": "not compatible with the module action"}


def test_every_flag_module_passes_the_actor_check():
    for t, n, nodes in [("G", 2, (1,)), ("C", 3, (1, 3)), ("F", 4, (3,))]:
        fc = _case(t, n, nodes)
        for mod in (fc.adjoint_module(), fc.riemann_module(), fc.coriemann_module(),
                    fc.trivial_module()):
            assert mod.actors
            mod.verify_actors()


@pytest.mark.parametrize("tamper", sorted(ACTOR_TAMPERS))
def test_tampered_actor_is_rejected_when_built(tamper):
    with pytest.raises(InvariantError, match=ACTOR_TAMPERS[tamper]):
        globals()[tamper]()


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


def tamper_riemann_plus_g1():
    """g_- (+) l1 plus a g_1 element, which g_-1 brackets into the Cartan."""
    _, adj, riem = _adjoint_and_riemann()
    return adj.submodule(riem | {min(m for m, b in enumerate(adj.basis) if b.degree == 1)})


SUBMODULE_TAMPERS = ("tamper_riemann_minus_gminus", "tamper_riemann_plus_g1")


def test_riemann_indices_span_the_riemann_module():
    fc, adj, riem = _adjoint_and_riemann()
    assert adj.submodule(riem) == riem
    assert [adj.basis[m] for m in sorted(riem)] == fc.riemann_module().basis


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
