from math import comb

import pytest

from models import (contact_dim_oracle, contact_module, hamiltonian_module,
                         poisson_module, svect_module, vect_module)


def test_vect_dims():
    nil, mod = vect_module(3, 4)
    for d, cols in mod.by_degree.items():
        assert len(cols) == 3 * comb(d + 1 + 2, 2)
    mod.verify_representation()
    mod.verify_additivity()


def test_svect_dims():
    # svect(n)_d = n*C(n+d, n-1) - C(n+d-1, n-1)
    nil, mod = svect_module(2, 5)
    for d, cols in mod.by_degree.items():
        expect = 2 * comb(2 + d, 1) - comb(1 + d, 1)
        assert len(cols) == expect
    mod.verify_representation()


def test_hamiltonian_dims():
    nil, mod = hamiltonian_module(2, 4)
    for d, cols in mod.by_degree.items():
        assert len(cols) == comb(d + 2 + 3, 3)
    mod.verify_representation()
    mod.verify_additivity()


@pytest.mark.parametrize("n", [1, 2])
def test_contact_dims_match_monomial_oracle(n):
    kmax = 6 if n == 1 else 4
    nil, mod = contact_module(n, kmax)
    for d in range(-2, kmax + 1):
        assert len(mod.by_degree.get(d, [])) == contact_dim_oracle(n, d)
    mod.verify_representation()
    mod.verify_additivity()


def test_poisson_module():
    nil, mod = poisson_module(2, 4)
    # po(2n)_d = monomials of degree d+2 in p,q
    for d, cols in mod.by_degree.items():
        assert len(cols) == comb(d + 2 + 3, 3)
    mod.verify_representation()


def test_contact_vs_prolong_dims():
    from nhsf.liealg import heisenberg
    from nhsf.prolong import der0, full_prolong

    for n in (1, 2):
        nil = heisenberg(n)
        p = full_prolong(nil, der0(nil), 4)
        dims = p.dims()
        for k, d in dims.items():
            assert d == contact_dim_oracle(n, k)
