"""Coefficient modules: the adjoint module and the pieces cut from it.

A ``GradedModule`` is a g_- module given degreewise by exact sparse action
matrices (``linalg.SparseMat``), plus optional "actors": the raising and
lowering Levi generators, each acting on both g_- and the module, which
``decomp`` uses to split cohomology into irreducibles.  A flag case's
adjoint module takes its action from ``ZGradedLieAlgebra.restricted_ad``,
with integer entries.  Its other coefficient modules are cut from it by an
index set that ``GradedModule.submodule`` checks: the Riemann module
g_- (+) l1 is the submodule ``FlagCase.riemann_in`` names (``cohom`` reads
its cohomology off the adjoint's), and the co-Riemann module (g_- (+) z)^*
is the quotient g/(g_- (+) l1) (``GradedModule.quotient``).  Weights are
coroot-coordinate tuples; modules without a torus carry ``None`` weights and
are only used where no decomposition is required.  ``simple_actors`` builds
every module's actors.  The Sec. 7.1 G(2)-structure needs no module of its
own here: its V = L(1, 0) of G(2) is g_{-1} of B4 graded at node 1, and its
g2 the part of that grading's so(7) which the triality folding fixes
(``verify.g2_on_v``), all with integer entries.

A module checks when it is built that every g_- degree is negative and
that its action and the g_- bracket add degrees, and weights where both
sides carry one (``cohom`` relies on both).  Its actors are checked per
kind, once per module, the first time ``actors_of`` hands that kind out:
``decompose`` asks for the kind it reads before it reads any multiplicity,
and no output depends on an actor of a kind that is never read.  The check
is that every actor xi (``on_gminus`` column j is xi e_j) is a derivation
of the bracket, xi[a, b] = [xi a, b] + [a, xi b], compatible with the
action, xi(a . m) = [xi, a] . m + a . (xi m).  Then xi commutes with d on
every cochain (``decomp`` relies on it): let xi act on g_-^* by xi . e^i =
-sum_j (xi e_j)_i e^j and on Lambda(g_-^*) (x) M as a derivation, and write
d = d_L (x) 1 + sum_a e^a ^ rho(a).  [xi, d_L] is an odd derivation, zero
on each e^c by the first identity; [xi, sum_a e^a ^ rho(a)] = sum_a e^a ^
([xi, rho(a)] - rho([xi, a])) is zero by the second.
A violation raises ``InvariantError`` by an ``if``, so also under -O.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import add

from . import InvariantError
from .linalg import SparseMat
from .liealg import (
    GradedNilpotent,
    LeviPieces,
    ZGradedLieAlgebra,
    gminus_of,
    graded_algebra,
    levi_pieces,
)
from .rootsys import RootSystem


@dataclass
class Actor:
    """A raising or lowering Levi generator acting on both g_- and the module."""

    name: str
    kind: str  # "raise" | "lower"
    weight: tuple[int, ...] | None
    on_gminus: SparseMat
    on_module: SparseMat


def _simple_root(rs: RootSystem, j: int) -> int:
    """The index of the simple root alpha_{j+1} among ``rs``'s positive roots."""
    return rs.root_index[tuple(1 if t == j else 0 for t in range(rs.rank))]


def simple_actors(alg: ZGradedLieAlgebra, nodes, on_gminus, on_module) -> list[Actor]:
    """The actors x_j and y_j, the root vectors of the simple roots at ``nodes``
    (1-based, in order); ``on_gminus`` and ``on_module`` map the ambient index of
    a root vector to its action on g_- and on the module."""
    actors = []
    for j in nodes:
        k = _simple_root(alg.rs, j - 1)
        for kind, amb, name in (("raise", alg.x_index(k), f"x{j}"),
                                ("lower", alg.y_index(k), f"y{j}")):
            actors.append(Actor(name, kind, alg.basis[amb].weight, on_gminus(amb),
                                on_module(amb)))
    return actors


@dataclass
class ModuleElt:
    label: str
    degree: int
    weight: tuple[int, ...] | None


class GradedModule:
    def __init__(self, gminus: GradedNilpotent, basis: list[ModuleElt],
                 act: list[SparseMat], truncation_bound: int | None,
                 actors: list[Actor] | None = None):
        self.gminus = gminus
        self.basis = basis
        self.act = act  # indexed like gminus basis
        self.truncation_bound = truncation_bound
        self.actors = actors or []
        self.min_degree = min((b.degree for b in basis), default=0)
        self.by_degree: dict[int, list[int]] = {}
        # degree -> weight -> basis indices, each in basis order
        self.by_degree_weight: dict[int, dict] = {}
        for k, b in enumerate(basis):
            self.by_degree.setdefault(b.degree, []).append(k)
            self.by_degree_weight.setdefault(b.degree, {}).setdefault(b.weight, []).append(k)
        # m -> [(a, a . m)] over the g_- elements a with a . m != 0, a ascending
        self.acting: list[list[tuple[int, dict]]] = [[] for _ in basis]
        for a, mat in enumerate(act):
            for m, outs in mat.items():
                if outs:
                    self.acting[m].append((a, outs))
        # per actor xi: i -> [(j, (xi e_j)_i)] over the j with (xi e_j)_i != 0, j
        # ascending; ``decomp`` acts on cochain slots through it
        self.actor_duals: list[dict[int, list[tuple[int, int]]]] = []
        for xi in self.actors:
            dual: dict = {}
            for j in sorted(xi.on_gminus):
                for i, c in xi.on_gminus[j].items():
                    dual.setdefault(i, []).append((j, c))
            self.actor_duals.append(dual)
        self.verify_additivity()
        self._checked_kinds: set[str] = set()

    def actors_of(self, kind: str) -> list[int]:
        """The indices of the actors of ``kind`` ("raise" or "lower"), checked by
        ``verify_actors`` the first time this module hands out that kind."""
        idx = [t for t, xi in enumerate(self.actors) if xi.kind == kind]
        if kind not in self._checked_kinds:
            self.verify_actors(idx)
            self._checked_kinds.add(kind)
        return idx

    @property
    def dim(self) -> int:
        return len(self.basis)

    def complete_at(self, degree: int) -> bool:
        """Is the degree-d component fully represented (not truncated away)?"""
        if self.truncation_bound is None:
            return True
        return degree <= self.truncation_bound

    def submodule(self, idx) -> frozenset[int]:
        """The basis indices ``idx`` as a set, checked to span a submodule: the action
        and every actor map it into itself.  By additivity (module docstring), d and
        each actor then map cochains with values in it to such cochains (``cohom``)."""
        sub = frozenset(idx)
        for mat in (*self.act, *(xi.on_module for xi in self.actors)):
            for m in sub:
                if not mat.get(m, {}).keys() <= sub:
                    raise InvariantError(f"span of {len(sub)} module basis elements is "
                                         f"not closed under the action and the actors")
        return sub

    def quotient(self, idx) -> GradedModule:
        """The quotient by the span of the basis indices ``idx``, checked by
        ``submodule``: the other basis elements in their order, with the action
        and every actor's ``on_module`` cut to their rows and columns."""
        sub = self.submodule(idx)
        pos = {m: k for k, m in enumerate(m for m in range(self.dim) if m not in sub)}

        def cut(mat: SparseMat) -> SparseMat:
            out = {pos[m]: {pos[r]: v for r, v in outs.items() if r in pos}
                   for m, outs in mat.items() if m in pos}
            return {m: img for m, img in out.items() if img}

        return GradedModule(self.gminus, [self.basis[m] for m in pos],
                            [cut(mat) for mat in self.act], self.truncation_bound,
                            [replace(xi, on_module=cut(xi.on_module)) for xi in self.actors])

    def verify_additivity(self) -> None:
        """Every g_- degree is negative, no action entry is stored as 0, and every
        action entry a . m -> m2 and g_- bracket entry [a, b] -> c adds degrees, and
        weights where both summands carry one (module docstring)."""
        gm = self.gminus
        if any(d >= 0 for d in gm.degrees):
            raise InvariantError("a g_- degree is not negative")
        if any(0 in outs.values() for mat in self.act for outs in mat.values()):
            raise InvariantError("an action entry is stored as 0")
        g = list(zip(gm.degrees, gm.weights))
        mo = [(b.degree, b.weight) for b in self.basis]
        sums = [(g[a], mo[m], mo[m2]) for a, mat in enumerate(self.act)
                for m, outs in mat.items() for m2 in outs]
        sums += [(g[a], g[b], g[c]) for (a, b), res in gm.bracket_table.items() for c in res]
        for (dx, wx), (dy, wy), (dz, wz) in sums:
            if dz != dx + dy or not (wx is None or wy is None or wz == tuple(map(add, wx, wy))):
                raise InvariantError("an action or g_- bracket entry is not additive")

    def verify_actors(self, idx: list[int]) -> None:
        """xi[a, b] = [xi a, b] + [a, xi b] and xi(a . m) = [xi, a] . m + a . (xi m) for
        the actors xi at ``idx``, g_- elements a, b and module elements m (module
        docstring); the second is summed over nonzero entries, [xi, a] . m through
        ``actor_duals``."""
        gm, g, n = self.gminus, self.gminus.dim, self.dim
        br = _brackets(gm)
        for t in idx:
            xi, dual = self.actors[t], self.actor_duals[t]
            ad, on_mod = xi.on_gminus, xi.on_module
            for a in range(g):
                res: dict = {}  # b * g + e -> e-th entry of xi[a, b] - [xi a, b] - [a, xi b]
                br_a = br[a]
                for b, ab in br_a.items():
                    if b > a:
                        for c, v in ab.items():
                            for e, u in ad.get(c, _EMPTY).items():
                                res[b * g + e] = res.get(b * g + e, 0) + v * u
                for i, c in ad.get(a, _EMPTY).items():
                    for b, ib in br[i].items():
                        if b > a:
                            for e, v in ib.items():
                                res[b * g + e] = res.get(b * g + e, 0) - c * v
                for b, xb in ad.items():
                    if b > a:
                        for i, c in xb.items():
                            for e, v in br_a.get(i, _EMPTY).items():
                                res[b * g + e] = res.get(b * g + e, 0) - c * v
                if any(res.values()):
                    raise InvariantError(
                        f"actor {xi.name} is not a derivation of the g_- bracket")
            for m in range(n):
                res = {}  # a * n + e -> e-th entry of xi(a . m) - [xi, a] . m - a . (xi m)
                for i, outs in self.acting[m]:
                    for m2, v in outs.items():
                        for e, u in on_mod.get(m2, _EMPTY).items():
                            res[i * n + e] = res.get(i * n + e, 0) + v * u
                    for a, c in dual.get(i, ()):
                        for e, v in outs.items():
                            res[a * n + e] = res.get(a * n + e, 0) - c * v
                for m2, c in on_mod.get(m, _EMPTY).items():
                    for a, outs in self.acting[m2]:
                        for e, v in outs.items():
                            res[a * n + e] = res.get(a * n + e, 0) - c * v
                if any(res.values()):
                    raise InvariantError(
                        f"actor {xi.name} is not compatible with the module action")


_EMPTY: dict = {}


def _brackets(gm: GradedNilpotent) -> list[dict[int, dict]]:
    """[a, b] of g_- as ``out[a][b]``, in both orders, for the pairs where it is
    nonzero; built once per g_-."""
    if "_brackets" not in gm.__dict__:
        out: list[dict[int, dict]] = [{} for _ in range(gm.dim)]
        for (a, b), res in gm.bracket_table.items():
            if a < b and res:
                out[a][b] = res
                out[b][a] = {c: -v for c, v in res.items()}
        gm._brackets = out
    return gm._brackets


class FlagCase:
    """All per-grading data for one (algebra, selected nodes) flag case."""

    def __init__(self, type_letter: str, rank: int, nodes: tuple[int, ...]):
        self.type_letter = type_letter
        self.rank = rank
        self.nodes = tuple(sorted(nodes))
        self.alg = graded_algebra(type_letter, rank, self.nodes)
        self.rs = self.alg.rs
        self.levi: LeviPieces = levi_pieces(self.alg)
        self.gminus, self.ambient = gminus_of(self.alg)
        # ambient indices ordered by degree: the basis order of ``adjoint_module``
        self.adjoint_order = sorted(range(self.alg.dim),
                                    key=lambda i: (self.alg.basis[i].degree, i))
        self.unselected = [j + 1 for j, d in enumerate(self.alg.grading.degrees) if d == 0]

    def _actors_for(self, on_module) -> list[Actor]:
        """Unselected raise/lower actors; on_module maps an ambient index."""
        return simple_actors(self.alg, self.unselected,
                             lambda amb: self.alg.restricted_ad(amb, self.ambient), on_module)

    # -- modules -------------------------------------------------------------

    def adjoint_module(self) -> GradedModule:
        """g with the adjoint action, its basis the ambient one ordered by degree."""
        alg, order = self.alg, self.adjoint_order
        basis = [ModuleElt(alg.label(i), alg.basis[i].degree, alg.basis[i].weight)
                 for i in order]
        mat_of = lambda amb: alg.restricted_ad(amb, order)
        return GradedModule(self.gminus, basis, [mat_of(a) for a in self.ambient],
                            None, self._actors_for(mat_of))

    def riemann_in(self, adj: GradedModule) -> frozenset[int]:
        """The indices of g_- (+) l1 in the basis of ``adj``, this case's
        ``adjoint_module()``, checked to span a submodule of it."""
        riem = set(self.levi.g_minus + self.levi.l1)
        return adj.submodule(m for m, amb in enumerate(self.adjoint_order) if amb in riem)

    def coriemann_module(self, adj: GradedModule, riem: frozenset[int]) -> GradedModule:
        """g/(g_- (+) l1), the co-Riemann module (g_- (+) z)^*, cut from ``adj`` by
        ``riem = riemann_in(adj)``; ``GradedModule.quotient`` checks it once more."""
        return adj.quotient(riem)

    def trivial_module(self) -> GradedModule:
        basis = [ModuleElt("1", 0, (0,) * self.rank)]
        act: list[SparseMat] = [{} for _ in range(self.gminus.dim)]
        return GradedModule(self.gminus, basis, act, None, self._actors_for(lambda amb: {}))

    def levi_g0(self):
        """The Levi l as a degree-0 acting algebra for prolongation."""
        from .prolong import G0

        alg, lidx = self.alg, self.levi.l
        return G0([alg.label(i) for i in lidx], [alg.basis[i].weight for i in lidx],
                  [alg.restricted_ad(i, self.ambient) for i in lidx])
