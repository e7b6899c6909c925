"""Properties over random small gradings: filtered == complete slices, and the
theorem-level checks (Kostant's BWB route, Euler characteristic, Premet split).

The draws cover types A-D and G of rank <= 4.  F4 is left out for run time: a
filtered plus a complete run of one F4 grading takes 2-11 s, and
``nhsf verify --suite all`` runs F4 nodes 1-4 on the filtered route.
"""

from hypothesis import assume, given, settings, strategies as st

from nhsf.cohom import cohomology, euler_characteristic_check, full_window
from nhsf.decomp import HIGHEST, LOWEST, decompose, levi_irrep_dim
from nhsf.gmod import FlagCase
from nhsf.verify import MISMATCH, CaseSpec, _decomposed, _dims, run_case

TYPES = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
         ("C", 2), ("C", 3), ("C", 4), ("D", 4), ("G", 2)]


@st.composite
def gradings(draw, max_rank=4):
    """(type, rank, nodes): a random parabolic grading."""
    t, r = draw(st.sampled_from([tr for tr in TYPES if tr[1] <= max_rank]))
    nodes = draw(st.lists(st.integers(1, r), min_size=1, max_size=r, unique=True))
    return t, r, tuple(sorted(nodes))


def complete_decomposition(fc, mod, s, kind):
    """Degreewise dims and summands from slices holding every weight block."""
    slices = [sl for sl in cohomology(fc.gminus, mod, s, full_window(fc.gminus, mod, s))
              if sl.dim_h]
    dim_of = lambda w, k: levi_irrep_dim(fc.rs, fc.unselected, w, k)
    return {sl.k: sl.dim_h for sl in slices}, decompose(slices, mod, kind, dim_of, fc.rs)


@given(gradings())
@settings(max_examples=8, deadline=None)
def test_filtered_slices_decompose_like_complete_ones(case):
    fc = FlagCase(*case)
    adj, cor, riem = fc.adjoint_module(), fc.coriemann_module(), fc.riemann_module()
    for mod, s, kind in ((adj, 2, LOWEST), (cor, 1, HIGHEST), (cor, 1, LOWEST),
                         (riem, 2, LOWEST)):
        dims, summands = complete_decomposition(fc, mod, s, kind)
        filtered = _decomposed(fc, mod, s, kind)[1]
        assert filtered == summands
        assert _dims(fc, filtered) == dims


@given(gradings())
@settings(max_examples=8, deadline=None)
def test_direct_route_agrees_with_bwb_and_premet(case):
    """Kostant: BWB gives H^2(g_-; g) on every grading; Premet's split from rank 3."""
    rec = run_case(CaseSpec(*case))
    assert rec["checks"]["bwb"]["matches_direct"]
    assert rec["status"] != MISMATCH
    if case[1] >= 3:  # rank 2 is the Lemma's boundary, flagged in the record
        assert rec["checks"]["premet_split"]["holds_degreewise"]


@given(gradings(max_rank=3))
@settings(max_examples=8, deadline=None)
def test_euler_characteristic_of_the_adjoint_complex(case):
    fc = FlagCase(*case)
    assume(fc.gminus.dim <= 8)
    adj = fc.adjoint_module()
    top = fc.alg.depth - sum(fc.gminus.degrees)  # highest degree of any cochain
    for k in range(-fc.alg.depth, top + 1):
        assert euler_characteristic_check(fc.gminus, adj, k)
