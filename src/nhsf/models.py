"""Polynomial realizations of the classical infinite prolongs.

These provide degreewise-complete coefficient modules for vect(n), svect(n),
h(2n), po(2n) and k(2n+1), each truncated at a chosen bound.  Monomial bases
make the actions exact and the degree/weight labels immediate; the
prolongation solver cross-checks these dimensions in the test suite.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from . import InvariantError
from .linalg import IntSpan, Q, nullspace
from .liealg import GradedNilpotent, abelian_nilpotent, heisenberg
from .gmod import GradedModule, ModuleElt, SparseMat


def _monomials(nvars: int, total: int) -> list[tuple[int, ...]]:
    if nvars == 0:
        return [()] if total == 0 else []
    out = []
    for first in range(total, -1, -1):
        for rest in _monomials(nvars - 1, total - first):
            out.append((first,) + rest)
    return sorted(out)


def _fmt(exp: tuple[int, ...], names: list[str]) -> str:
    parts = [f"{n}^{e}" if e > 1 else n for n, e in zip(names, exp) if e]
    return "*".join(parts) if parts else "1"


def _vect_data(n: int, kmax: int):
    weights = [tuple(-1 if j == i else 0 for j in range(n)) for i in range(n)]
    nil = abelian_nilpotent(n, weights=weights, label="d")
    names = [f"x{i}" for i in range(n)]
    basis: list[ModuleElt] = []
    index: dict[tuple, int] = {}
    for deg in range(-1, kmax + 1):
        for a in _monomials(n, deg + 1):
            for i in range(n):
                index[(a, i)] = len(basis)
                w = tuple(a[j] - (1 if j == i else 0) for j in range(n))
                basis.append(ModuleElt(f"{_fmt(a, names)} d{i}", deg, w))
    act: list[SparseMat] = []
    for j in range(n):
        mat: SparseMat = {}
        for (a, i), col in index.items():
            if a[j] == 0:
                continue
            down = tuple(e - (1 if t == j else 0) for t, e in enumerate(a))
            mat[col] = {index[(down, i)]: Q(a[j])}
        act.append(mat)
    return nil, GradedModule(nil, basis, act, kmax, name=f"vect({n})"), index


def vect_module(n: int, kmax: int) -> tuple[GradedNilpotent, GradedModule]:
    """vect(n) = polynomial vector fields over abelian g_{-1} = C^n."""
    nil, mod, _ = _vect_data(n, kmax)
    return nil, mod


def svect_module(n: int, kmax: int) -> tuple[GradedNilpotent, GradedModule]:
    """Divergence-free subalgebra of vect(n), degreewise."""
    nil, vect, index = _vect_data(n, kmax)
    key_of = {col: key for key, col in index.items()}
    basis: list[ModuleElt] = []
    vectors: list[dict[int, Fraction]] = []
    for deg in range(-1, kmax + 1):
        cols = vect.by_degree.get(deg, [])
        bywt: dict[tuple, list[int]] = {}
        for c in cols:
            bywt.setdefault(vect.basis[c].weight, []).append(c)
        for w in sorted(bywt):
            block = sorted(bywt[w])
            targets: dict[tuple, int] = {}
            entries = []
            for pos, c in enumerate(block):
                a, i = key_of[c]
                if a[i] == 0:
                    continue
                down = tuple(e - (1 if t == i else 0) for t, e in enumerate(a))
                targets.setdefault(down, len(targets))
                entries.append((targets[down], pos, a[i]))
            rows = [[0] * len(block) for _ in range(len(targets))]
            for r, c, v in entries:
                rows[r][c] = v
            for vec in nullspace(rows, len(block)):
                k = len(basis)
                basis.append(ModuleElt(f"s{deg}.{k}", deg, w))
                vectors.append({block[t]: v for t, v in enumerate(vec) if v != 0})
    act = _restricted_action(vect, basis, vectors, nil.dim)
    return nil, GradedModule(nil, basis, act, kmax, name=f"svect({n})")


def _restricted_action(parent: GradedModule, basis, vectors, n_gminus) -> list[SparseMat]:
    """Action matrices of a submodule given expansions in the parent basis."""
    spans: dict[int, tuple[IntSpan, list[int]]] = {}
    pdim = parent.dim
    bydeg: dict[int, list[int]] = {}
    for k, b in enumerate(basis):
        bydeg.setdefault(b.degree, []).append(k)
    for deg, ks in bydeg.items():
        span = IntSpan(pdim)
        for k in ks:
            vec = [0] * pdim
            for c, v in vectors[k].items():
                vec[c] = v
            if not span.add(vec):
                raise InvariantError("submodule expansion vectors must be independent")
        spans[deg] = (span, ks)
    act: list[SparseMat] = []
    for j in range(n_gminus):
        mat: SparseMat = {}
        for k, b in enumerate(basis):
            img: dict[int, Fraction] = {}
            for c, v in vectors[k].items():
                for row, w in parent.act[j].get(c, {}).items():
                    img[row] = img.get(row, Q(0)) + v * w
            img = {r: v for r, v in img.items() if v != 0}
            if not img:
                continue
            tdeg = b.degree - 1
            if tdeg < parent.min_degree:
                raise AssertionError("action fell below the module window")
            span, ks = spans[tdeg]
            vec = [0] * pdim
            for c, v in img.items():
                vec[c] = v
            coords = span.express(vec)
            if coords is None:
                raise InvariantError("submodule is not action-closed")
            col = {ks[t]: c for t, c in enumerate(coords) if c != 0}
            if col:
                mat[k] = col
        act.append(mat)
    return act


def hamiltonian_module(n_pairs: int, kmax: int) -> tuple[GradedNilpotent, GradedModule]:
    """h(2n) over abelian C^{2n}: H_f for monomials f(p,q), deg H_f = |f|-2."""
    n = n_pairs
    weights = []
    for i in range(n):
        weights.append(tuple(1 if j == i else 0 for j in range(n)))
    for i in range(n):
        weights.append(tuple(-1 if j == i else 0 for j in range(n)))
    nil = abelian_nilpotent(2 * n, weights=weights, label="H")
    names = [f"p{i}" for i in range(n)] + [f"q{i}" for i in range(n)]
    basis: list[ModuleElt] = []
    index: dict[tuple, int] = {}
    for deg in range(-1, kmax + 1):
        for f in _monomials(2 * n, deg + 2):
            index[f] = len(basis)
            w = tuple(f[i] - f[n + i] for i in range(n))
            basis.append(ModuleElt(f"H[{_fmt(f, names)}]", deg, w))
    act: list[SparseMat] = []
    for g in range(2 * n):
        # generator: H_{p_g} acts by d/dq_g ; H_{q_g} by -d/dp_g
        var = n + g if g < n else g - n
        sign = Q(1) if g < n else Q(-1)
        mat: SparseMat = {}
        for f, col in index.items():
            if f[var] == 0:
                continue
            down = tuple(e - (1 if t == var else 0) for t, e in enumerate(f))
            if sum(down) == 0:
                continue  # constants are dropped in h(2n)
            mat[col] = {index[down]: sign * f[var]}
        act.append(mat)
    return nil, GradedModule(nil, basis, act, kmax, name=f"h({2 * n})")


def _poisson_bracket(f: tuple[int, ...], g: tuple[int, ...], n: int) -> dict[tuple, Fraction]:
    """{f,g} = sum df/dp dg/dq - df/dq dg/dp on monomial exponents (p|q)."""
    out: dict[tuple, Fraction] = {}
    for i in range(n):
        p, q = i, n + i
        if f[p] and g[q]:
            h = list(f)
            h[p] -= 1
            res = tuple(a + b for a, b in zip(h, g))
            res = tuple(res[t] - (1 if t == q else 0) for t in range(2 * n))
            out[res] = out.get(res, Q(0)) + f[p] * g[q]
        if f[q] and g[p]:
            h = list(f)
            h[q] -= 1
            res = tuple(a + b for a, b in zip(h, g))
            res = tuple(res[t] - (1 if t == p else 0) for t in range(2 * n))
            out[res] = out.get(res, Q(0)) - f[q] * g[p]
    return {k: v for k, v in out.items() if v != 0}


def poisson_module(n_pairs: int, kmax: int) -> tuple[GradedNilpotent, GradedModule]:
    """po(2n) over hei(2n): all monomials in p,q with the Poisson action."""
    n = n_pairs
    nil = heisenberg(n)
    names = [f"p{i}" for i in range(n)] + [f"q{i}" for i in range(n)]
    basis: list[ModuleElt] = []
    index: dict[tuple, int] = {}
    for deg in range(-2, kmax + 1):
        for f in _monomials(2 * n, deg + 2):
            index[f] = len(basis)
            w = tuple(f[i] - f[n + i] for i in range(n))
            basis.append(ModuleElt(f"K[{_fmt(f, names)}]", deg, w))
    act: list[SparseMat] = []
    gens = []
    for i in range(n):  # p_i
        gens.append(tuple(1 if t == i else 0 for t in range(2 * n)))
    for i in range(n):  # q_i
        gens.append(tuple(1 if t == n + i else 0 for t in range(2 * n)))
    for gen in gens:
        mat: SparseMat = {}
        for f, col in index.items():
            # action via the contact bracket restricted to t-free symbols:
            # {gen, f}_K = -{gen, f}_PB
            res = _poisson_bracket(gen, f, n)
            col_out = {index[h]: -v for h, v in res.items()}
            if col_out:
                mat[col] = col_out
        act.append(mat)
    act.append({})  # center z maps to the constant; {const, t-free}_K = 0
    return nil, GradedModule(nil, basis, act, kmax, name=f"po({2 * n})")


def contact_module(n_pairs: int, kmax: int) -> tuple[GradedNilpotent, GradedModule]:
    """k(2n+1) over hei(2n): monomials in t,p,q with the contact action.

    deg t = 2; K_f has degree wdeg(f) - 2.  The hei generators embed as
    p_i, q_i, z -> -1, matching [p_i, q_i] = z.
    """
    n = n_pairs
    nil = heisenberg(n)
    names = [f"p{i}" for i in range(n)] + [f"q{i}" for i in range(n)]
    basis: list[ModuleElt] = []
    index: dict[tuple, int] = {}  # (t_exp, pq_exps) -> idx
    for deg in range(-2, kmax + 1):
        for t_exp in range(0, deg // 2 + 2):
            pq_total = deg + 2 - 2 * t_exp
            if pq_total < 0:
                continue
            for f in _monomials(2 * n, pq_total):
                index[(t_exp, f)] = len(basis)
                w = tuple(f[i] - f[n + i] for i in range(n))
                lbl = ("t^%d*" % t_exp if t_exp else "") + _fmt(f, names)
                basis.append(ModuleElt(f"K[{lbl}]", deg, w))

    def k_bracket_with_gen(gen_pq, gen_sign, t_exp, f):
        """{gen, t^c f}_K for gen a degree-1 monomial in p,q (or the constant).

        gen_sign = None encodes the constant -1 (image of z).
        """
        out: dict[tuple, Fraction] = {}
        if gen_sign is None:
            # {-1, g}_K = (2 - E)(-1) dg/dt = -2 dg/dt
            if t_exp:
                out[(t_exp - 1, f)] = Q(-2 * t_exp)
            return out
        # gen is p_i or q_i: (2-E)(gen) = gen, d gen/dt = 0
        # term1: gen * dg/dt
        if t_exp:
            res = tuple(a + b for a, b in zip(gen_pq, f))
            out[(t_exp - 1, res)] = out.get((t_exp - 1, res), Q(0)) + t_exp
        # term3: -{gen, g}_PB
        for h, v in _poisson_bracket(gen_pq, f, n).items():
            out[(t_exp, h)] = out.get((t_exp, h), Q(0)) - v
        return {k: v for k, v in out.items() if v != 0}

    act: list[SparseMat] = []
    gens: list[tuple] = []
    for i in range(n):
        gens.append((tuple(1 if t == i else 0 for t in range(2 * n)), 1))
    for i in range(n):
        gens.append((tuple(1 if t == n + i else 0 for t in range(2 * n)), 1))
    gens.append((None, None))  # z -> constant -1
    for gen_pq, gs in gens:
        mat: SparseMat = {}
        for (t_exp, f), col in index.items():
            res = k_bracket_with_gen(gen_pq, gs, t_exp, f)
            col_out = {}
            for key, v in res.items():
                if key in index:
                    col_out[index[key]] = v
                elif 2 * key[0] + sum(key[1]) - 2 > kmax:
                    raise AssertionError("contact action escaped the window upward")
            if col_out:
                mat[col] = col_out
        act.append(mat)
    return nil, GradedModule(nil, basis, act, kmax, name=f"k({2 * n + 1})")


def contact_dim_oracle(n_pairs: int, degree: int) -> int:
    """dim k(2n+1)_degree by monomial count: wdeg = 2 deg_t + |pq| = degree+2."""
    target = degree + 2
    if target < 0:
        return 0
    count = 0
    for t_exp in range(target // 2 + 1):
        rem = target - 2 * t_exp
        count += len(_monomials(2 * n_pairs, rem))
    return count
