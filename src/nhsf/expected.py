"""Transcribed expected results for the flag-manifold structure functions.

Coordinate conventions used by the source tables (all validated against
independent computation during development):

* H^2 rows: lowest weights, given in coroot coordinates ("CM") and in
  simple-root coordinates ("FW"); the selected slot of the FW form equals
  the internal degree (order) of the class.
* H^1 rows: the FW (simple-root) coordinates of the *lowest* weight of each
  component.  Every single-node case additionally contains the always
  present component whose lowest weight is 2*alpha_i, printed as
  (0,...,0,2,0,...,0); it is appended here explicitly.
* Section-6 lists (two selected coroots): highest weights in coroot
  coordinates together with explicit degrees.

Each entry carries a provenance string.  Entries contradicted by exact
recomputation are listed in ERRATA with the corrected value; comparisons
treat them as corrected transcriptions.  notes/decisions.md gives, for each
corrected cell, the verify record and the routes that confirm it.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import InvariantError


@dataclass(frozen=True)
class H2Row:
    cm: tuple[int, ...]
    fw: tuple[int, ...] | None
    provenance: str


@dataclass(frozen=True)
class H1Row:
    low_fw: tuple[int, ...]
    provenance: str


@dataclass
class CaseExpectation:
    type_letter: str
    rank: int
    nodes: tuple[int, ...]
    ki: int | None
    h2: list[H2Row]
    h1: list[H1Row] | None  # None = no usable H1 data for this case
    h1_footnote: bool = True  # append the (0,..,2_i,..,0) component
    sec6_h2: list[tuple[int, tuple[int, ...]]] | None = None  # (deg, cm hw/lw)
    sec6_h1: list[tuple[int, tuple[int, ...]]] | None = None


# Table rows where the printed value contradicts exact recomputation (see
# notes/decisions.md for the routes that confirm each cell); corrected here.
# The printed originals stay visible as the lookup keys.
ERRATA = {
    ("F", 4, (2,), "h2_fw", (-2, -1, 2, -2)): (-2, -1, -2, -2),
    ("F", 4, (3,), "h1", (0, 1, 2, 0)): (0, 1, 2, 1),
    # e(8) rows: FW-column typos (nodes 1, 5) and a cell shift at the table
    # tail (nodes 6-8): node 6 FW cells hold nodes 7/8 FW values, and the
    # nodes 7/8 FW cells hold their own CM values.
    ("E", 8, (1,), "h2_fw", (-1, -2, -4, -5, -6, -4, -2, -3)): (1, -2, -4, -5, -6, -4, -2, -3),
    # e(8) node 3's H^1 cells repeat node 2's, and neither is Levi-antidominant there
    ("E", 8, (3,), "h1", (0, 2, 2, 2, 2, 1, 0, 1)): (0, 0, 2, 2, 2, 1, 0, 1),
    ("E", 8, (3,), "h1", (1, 2, 1, 0, 0, 0, 0, 0)): (0, 1, 2, 1, 0, 0, 0, 0),
    ("E", 8, (5,), "h2_fw", (-2, -3, -4, -4, -4, -4, -2, -2)): (-2, -3, -4, -4, -4, -4, -2, -3),
    ("E", 8, (6,), "h2_fw", (-2, -3, -4, -5, -6, -3, 0, -3)): (-2, -3, -4, -5, -6, -2, -1, -3),
    ("E", 8, (6,), "h2_fw", (-2, -3, -4, -5, -5, -4, -2, -1)): (-2, -3, -4, -5, -5, -2, -2, -3),
    ("E", 8, (7,), "h2_cm", (-1, 0, 0, 0, 0, -1, 2, 0)): (-1, 0, 0, 0, -1, 0, 3, 0),
    ("E", 8, (7,), "h2_fw", (-1, 0, 0, 0, -1, 0, 3, 0)): (-2, -3, -4, -5, -6, -3, 0, -3),
    ("E", 8, (8,), "h2_cm", (-1, 0, 0, 0, -1, 0, 0, 2)): (-1, 0, 0, -1, 0, -1, 0, 3),
    ("E", 8, (8,), "h2_fw", (-1, 0, 0, -1, 0, -1, 0, 3)): (-2, -3, -4, -5, -5, -4, -2, -1),
}


def _fix_fw(key, fw):
    return ERRATA.get(key + (fw,), fw)


def footnote_row(rank: int, node: int) -> tuple[int, ...]:
    return tuple(2 if j == node - 1 else 0 for j in range(rank))


# --------------------------------------------------------------------------
# Table 1: g(2), f(4), e(6), e(7), e(8)
# --------------------------------------------------------------------------

TABLE1: dict[tuple[str, int], dict[int, dict]] = {
    ("G", 2): {
        1: {"ki": 3, "h2": [((8, -4), (4, 0))], "h1": [(4, 2)]},
        2: {"ki": 2, "h2": [((-7, 4), (-2, 1))], "h1": [(2, 2)]},
    },
    ("F", 4): {
        1: {"ki": 2, "h2": [((3, 0, -1, -1), (0, -3, -3, -2))], "h1": [(2, 3, 2, 1)]},
        2: {"ki": 4, "h2": [((0, 3, -2, -1), (-1, -2, -3, -2)),
                            ((-3, 4, -1, -2), (-2, -1, 2, -2))],
            "h1": [(0, 3, 2, 1), (1, 2, 1, 0)]},
        3: {"ki": 3, "h2": [((0, -6, 4, 0), (-2, -4, 0, 0)),
                            ((-1, -2, 3, -3), (-2, -3, -1, -2))],
            "h1": [(0, 2, 2, 0), (0, 1, 2, 0)]},
        4: {"ki": 2, "h2": [((0, -2, -1, 4), (-2, -4, -2, 1))], "h1": [(0, 2, 2, 2)]},
    },
    ("E", 6): {
        1: {"ki": 1, "h2": [((3, 0, -1, 0, 0, -1), (1, -1, -3, -2, -1, -2))],
            "h1": [(2, 2, 2, 1, 0, 1)]},
        2: {"ki": 2, "h2": [((0, 3, -2, 0, 0, -1), (0, 0, -3, -2, -1, -2)),
                            ((-2, 3, 0, -1, 0, -2), (-1, 0, -2, -2, -1, -2))],
            "h1": [(1, 2, 1, 0, 0, 0), (0, 2, 2, 1, 0, 1)]},
        3: {"ki": 3, "h2": [((0, -3, 4, -3, 0, 0), (-1, -2, 0, -2, -1, 0)),
                            ((0, -2, 3, 0, -1, -3), (-1, -2, -1, -1, -1, -2)),
                            ((-1, 0, 3, -2, 0, -3), (-1, -1, -1, -2, -1, -2))],
            "h1": [(0, 1, 2, 1, 0, 0), (0, 0, 2, 1, 0, 1), (0, 1, 2, 0, 0, 1)]},
        4: {"ki": 2, "h2": [((0, 0, -2, 3, 0, -1), (-1, -2, -3, 0, 0, -2)),
                            ((0, -1, 0, 3, -2, -2), (-1, -2, -2, 0, -1, -2))],
            "h1": [(0, 0, 1, 2, 1, 0), (0, 1, 2, 2, 0, 1)]},
        5: {"ki": 1, "h2": [((0, 0, -1, 0, 3, -1), (-1, -2, -3, -1, 1, -2))],
            "h1": [(0, 1, 2, 2, 2, 1)]},
        6: {"ki": 2, "h2": [((0, -1, -1, -1, 0, 4), (-1, -2, -2, -2, -1, 1))],
            "h1": [(0, 1, 2, 1, 0, 2)]},
    },
    ("E", 7): {
        1: {"ki": 1, "h2": [((3, 0, -1, 0, 0, -1, 0), (1, -1, -3, -4, -3, -2, -2))],
            "h1": [(2, 2, 2, 2, 1, 0, 1)]},
        2: {"ki": 2, "h2": [((0, 3, -2, 0, 0, -1, 0), (0, 0, -3, -4, -3, -2, -2)),
                            ((-2, 3, 0, -1, 0, -1, 0), (-1, 0, -2, -4, -3, -2, -2))],
            "h1": [(1, 2, 1, 0, 0, 0, 0), (0, 2, 2, 2, 1, 0, 1)]},
        3: {"ki": 3, "h2": [((0, -2, 3, 0, -1, -1, -1), (-1, -2, -1, -3, -3, -2, -2)),
                            ((-1, 0, 3, -2, 0, -1, 0), (-1, -1, -1, -4, -3, -2, -2))],
            "h1": [(0, 1, 2, 1, 0, 0, 0), (0, 0, 2, 2, 1, 0, 1)]},
        4: {"ki": 4, "h2": [((0, 0, -2, 3, -2, -1, 0), (-1, -2, -3, -2, -3, -2, -1)),
                            ((0, 0, -2, 3, 0, -2, -2), (-1, -2, -3, -2, -2, -2, -2)),
                            ((0, -1, 0, 3, -2, -1, -2), (-1, -2, -2, -2, -3, -2, -2))],
            "h1": [(0, 0, 1, 2, 1, 0, 0), (0, 0, 0, 2, 1, 0, 1), (0, 0, 1, 2, 0, 0, 1)]},
        5: {"ki": 3, "h2": [((0, 0, 0, -3, 4, 0, 0), (-1, -2, -3, -4, 0, 0, -2)),
                            ((0, 0, -1, 0, 3, -3, -1), (-1, -2, -3, -3, -1, -2, -2))],
            "h1": [(0, 0, 0, 1, 2, 1, 0), (0, 0, 1, 2, 2, 0, 1)]},
        6: {"ki": 2, "h2": [((0, 0, 0, -1, -1, 4, 0), (-1, -2, -3, -4, -2, 1, -2))],
            "h1": [(0, 0, 1, 2, 2, 2, 1)]},
        7: {"ki": 2, "h2": [((0, 0, -1, 0, -1, -1, 3), (-1, -2, -3, -3, -3, -2, 0))],
            "h1": [(0, 0, 1, 2, 1, 0, 2)]},
    },
    ("E", 8): {
        1: {"ki": 2, "h2": [((4, -1, -1, 0, 0, 0, 0, 0), (-1, -2, -4, -5, -6, -4, -2, -3))],
            "h1": [(2, 2, 2, 2, 2, 1, 0, 1)]},
        2: {"ki": 3, "h2": [((0, 4, -3, 0, 0, 0, 0, 0), (0, 0, -4, -5, -6, -4, -2, -3)),
                            ((-3, 3, 0, -1, 0, 0, 0, 0), (-2, -1, -3, -5, -6, -4, -2, -3))],
            "h1": [(1, 2, 1, 0, 0, 0, 0, 0), (0, 2, 2, 2, 2, 1, 0, 1)]},
        3: {"ki": 4, "h2": [((-1, -2, 3, 0, -1, 0, 0, 0), (-2, -3, -2, -4, -6, -4, -2, -3)),
                            ((-2, 0, 3, -2, 0, 0, 0, 0), (-2, -2, -2, -5, -6, -4, -2, -3))],
            "h1": [(1, 2, 1, 0, 0, 0, 0, 0), (0, 2, 2, 2, 2, 1, 0, 1)]},
        4: {"ki": 5, "h2": [((-1, 0, -2, 3, 0, -1, 0, -1), (-2, -3, -4, -3, -5, -4, -2, -3)),
                            ((-1, -1, 0, 3, -2, 0, 0, 0), (-2, -3, -3, -3, -6, -4, -2, -3))],
            "h1": [(0, 0, 1, 2, 1, 0, 0, 0), (0, 0, 0, 2, 2, 1, 0, 1)]},
        5: {"ki": 6, "h2": [((-1, 0, 0, -2, 3, -2, 0, 0), (-2, -3, -4, -5, -4, -4, -2, -2)),
                            ((-1, 0, 0, -2, 3, 0, -1, -2), (-2, -3, -4, -5, -4, -3, -2, -3)),
                            ((-1, 0, -1, 0, 3, -2, 0, -2), (-2, -3, -4, -4, -4, -4, -2, -2))],
            "h1": [(0, 0, 0, 1, 2, 1, 0, 0), (0, 0, 0, 0, 2, 1, 0, 1), (0, 0, 0, 1, 2, 0, 0, 1)]},
        6: {"ki": 4, "h2": [((-1, 0, 0, 0, -2, 3, 0, 0), (-2, -3, -4, -5, -6, -3, 0, -3)),
                            ((-1, 0, 0, -1, 0, 3, -2, -1), (-2, -3, -4, -5, -5, -4, -2, -1))],
            "h1": [(0, 0, 0, 0, 1, 2, 1, 0), (0, 0, 0, 1, 2, 2, 0, 1)]},
        7: {"ki": 2, "h2": [((-1, 0, 0, 0, 0, -1, 2, 0), (-1, 0, 0, 0, -1, 0, 3, 0))],
            "h1": [(0, 0, 0, 1, 2, 2, 2, 1)]},
        8: {"ki": 3, "h2": [((-1, 0, 0, 0, -1, 0, 0, 2), (-1, 0, 0, -1, 0, -1, 0, 3))],
            "h1": [(0, 0, 0, 1, 2, 1, 0, 2)]},
    },
}


def table1_case(type_letter: str, rank: int, node: int) -> CaseExpectation:
    data = TABLE1[(type_letter, rank)][node]
    key = (type_letter, rank, (node,))
    h2 = []
    for cm, fw in data["h2"]:
        cm_fixed = ERRATA.get(key + ("h2_cm", cm), cm)
        fw_fixed = _fix_fw(key + ("h2_fw",), fw)
        prov = f"Table 1, {type_letter.lower()}({rank}), node {node}"
        if cm_fixed != cm or fw_fixed != fw:
            prov += " [corrected; see decisions ledger]"
        h2.append(H2Row(cm_fixed, fw_fixed, prov))
    h1 = []
    for fw in data["h1"]:
        fw_fixed = _fix_fw(key + ("h1",), fw)
        prov = f"Table 1, {type_letter.lower()}({rank}), node {node}, H1 column"
        if fw_fixed != fw:
            prov += " [corrected; see decisions ledger]"
        h1.append(H1Row(fw_fixed, prov))
    return CaseExpectation(type_letter, rank, (node,), data["ki"], h2, h1)


# --------------------------------------------------------------------------
# Tables 2-4: pattern rows instantiated at concrete ranks (FW coordinates)
# --------------------------------------------------------------------------


def _pad(prefix: list[int], filler: int, suffix: list[int], rank: int) -> tuple[int, ...]:
    if len(prefix) + len(suffix) > rank:
        raise InvariantError(f"table pattern {prefix}...{suffix} is longer than rank {rank}")
    body = [filler] * (rank - len(prefix) - len(suffix))
    return tuple(prefix + body + suffix)


def table2_rows(rank: int, node: int):
    """o(2n) = D_rank; H2 rows in FW coordinates, or None if no pattern."""
    if rank < 4:
        return None  # o(6) = sl(4) is not a Table 2 row
    fork = rank - 2
    prov = f"Table 2, o({2 * rank}), node {node}"
    if node == 1:
        if rank == 4:
            return [(2, 0, -1, -1)], [(2, 2, 1, 1)], prov
        return [_pad([2, 0], -2, [-1, -1], rank)], [_pad([2], 2, [1, 1], rank)], prov
    if node == 2 and rank >= 5:
        return ([_pad([0, 1, -2], -2, [-1, -1], rank),
                 _pad([-1, 1, -1], -2, [-1, -1], rank)],
                [_pad([0, 2], 2, [1, 1], rank), _pad([1, 2, 1], 0, [0, 0], rank)],
                prov)
    if node == 3 and rank >= 6 and node != fork:
        return ([_pad([-1, -2, 0, 1], -2, [-1, -1], rank),
                 _pad([-1, 0, 1, -2], -2, [-1, -1], rank)],
                None, prov)
    if node == fork:
        prov += " (fork row)"
        if rank == 4:
            return ([(0, 1, -1, -1), (-1, 1, -1, 0), (-1, 1, 0, -1)],
                    [(0, 2, 1, 1), (1, 2, 0, 1), (1, 2, 1, 0)], prov)
        if rank == 5:
            # the rank-5 rows are printed explicitly; the 5+k pattern's third
            # row only becomes valid from rank 6 on
            return ([(-1, -2, 0, -1, 0), (-1, -2, 0, 0, -1), (-1, 0, 1, -1, -1)],
                    [(0, 0, 2, 1, 1), (0, 1, 2, 0, 1), (0, 1, 2, 1, 0)], prov)
        return ([_pad([-1], -2, [-2, 0, -1, 0], rank),
                 _pad([-1], -2, [-2, 0, 0, -1], rank),
                 _pad([-1], -2, [-1, 0, -1, -1], rank)],
                [_pad([0], 0, [0, 2, 1, 1], rank),
                 _pad([0], 0, [1, 2, 0, 1], rank),
                 _pad([0], 0, [1, 2, 1, 0], rank)], prov)
    if node in (rank - 1, rank):
        if rank == 4:
            # triality image of the node-1 row
            sigma = {1: node, node: 1, 2: 2, (7 - node): 7 - node}
            perm = [sigma.get(j + 1, j + 1) - 1 for j in range(4)]

            def apply(t):
                out = [0] * 4
                for j in range(4):
                    out[perm[j]] = t[j]
                return tuple(out)

            return ([apply((2, 0, -1, -1))], [apply((2, 2, 1, 1))],
                    prov + " (node 1 row + D4 diagram symmetry)")
        return None  # spinor nodes of o(2n), n >= 5: no pattern row printed
    return None


def table3_rows(rank: int, node: int):
    """o(2n+1) = B_rank; H2 rows and H1 rows in FW coordinates."""
    prov = f"Table 3, o({2 * rank + 1}), node {node}"
    if node == 1:
        if rank == 2:
            return [(3, 1)], [(2, 2)], prov
        return [_pad([2, 0], -2, [], rank)], [_pad([], 2, [], rank)], prov
    if node == 2 and rank >= 3:
        return ([_pad([0, 1], -2, [], rank), _pad([-1, 1, -1], -2, [], rank)],
                [_pad([0], 2, [], rank), _pad([1, 2, 1], 0, [], rank)], prov)
    if node == rank:
        prov += " (last row)"
        if rank == 2:
            return [(0, 3)], None, prov
        if rank == 3:
            return [(-1, 0, 3)], [(1, 2, 3)], prov
        return ([_pad([-1], -2, [-1, 1], rank)], [_pad([0], 0, [1, 2, 3], rank)], prov)
    if node == 3 and rank >= 4:
        # printed first row reads (-1,-2,0,1,...); the +1 violates the
        # nonpositivity of lowest weights at unselected nodes and both
        # computation routes give -1 at every rank, so it is corrected here
        prov += " [row 1 sign corrected: printed +1, see decisions ledger]"
        return ([_pad([-1, -2, 0, -1], -2, [], rank), _pad([-1, 0, 1, -2], -2, [], rank)],
                [_pad([0, 0], 2, [], rank), _pad([0, 1, 2, 1], 0, [], rank)], prov)
    if node == rank - 1 and rank >= 5:
        return ([_pad([-1], -2, [-2, 0, -1, -2], rank),
                 _pad([-1], -2, [-1, 0, -2, -2], rank)],
                [_pad([0], 0, [0, 2, 2], rank), _pad([0], 0, [1, 2, 1], rank)],
                prov + " (penultimate row)")
    return None


def table4_rows(rank: int, node: int):
    """sp(2n) = C_rank; H2 rows and H1 rows in FW coordinates."""
    prov = f"Table 4, sp({2 * rank}), node {node}"
    if node == 1:
        if rank == 2:
            return [(3, 0)], [], prov  # H1 column is "-": footnote only
        if rank == 3:
            # printed (2,1,-1); the +1 contradicts the generic row
            # (2,-1,(-2)^k,-1) at k=0 and both computation routes
            prov += " [sign corrected: printed (2,1,-1), see decisions ledger]"
            return [(2, -1, -1)], [], prov
        return [_pad([2, -1], -2, [-1], rank)], [], prov
    if node == 2 and rank >= 3:
        if rank == 3:
            return [(1, 2, -1), (-2, 1, 0)], [(1, 2, 1)], prov
        return ([_pad([1, 2, -2], -2, [-1], rank), _pad([-2, 0, -1], -2, [-1], rank)],
                [_pad([1, 2, 1], 0, [], rank), _pad([1], 2, [2, 1], rank)], prov)
    if node == rank:
        prov += " (last row)"
        if rank == 2:
            return [(1, 3)], [(2, 2)], prov
        return ([_pad([], -2, [-2, -1, 1], rank)], [_pad([], 0, [0, 2, 2], rank)], prov)
    if node == rank - 1 and rank >= 4:
        return ([_pad([], -2, [-2, 1, 0], rank), _pad([], -2, [-1, 0, -1], rank)],
                [_pad([], 0, [1, 2, 1], rank)], prov + " (penultimate row)")
    if node == rank - 2 and rank >= 5:
        return ([_pad([], -2, [-2, 0, 1, -1], rank), _pad([], -2, [0, 1, -2, -1], rank)],
                [_pad([], 0, [1, 2, 1, 0], rank), _pad([], 0, [1, 2, 1, 1], rank)],
                prov + " (pen-penultimate row)")
    return None


def series_case(type_letter: str, rank: int, node: int) -> CaseExpectation | None:
    rows = {"D": table2_rows, "B": table3_rows, "C": table4_rows}[type_letter](rank, node)
    if rows is None:
        return None
    h2_fw, h1_fw, prov = rows
    h2 = [H2Row(cm=None, fw=tuple(fw), provenance=prov) for fw in h2_fw]
    h1 = None if h1_fw is None else [H1Row(tuple(fw), prov + ", H1 column") for fw in h1_fw]
    return CaseExpectation(type_letter, rank, (node,), None, h2, h1)


# --------------------------------------------------------------------------
# Section 6: two selected coroots (highest/lowest weights in coroot coords)
# --------------------------------------------------------------------------

SEC6: dict[tuple[str, int, tuple[int, ...]], dict] = {
    ("A", 2, (1, 2)): {
        "h2": [(4, (-1, 5)), (4, (5, -1))],
        "h1": None,
        "prov": "Sec. 6a, sl(3) exceptional case (second class by graph symmetry)",
    },
    ("A", 3, (1, 2)): {
        "h2": [(1, (-4, 4, 0)), (2, (4, -1, -2)), (3, (0, 4, -4))],
        "h1": [(1, (-1, 2, -1)), (1, (2, -1, 0)),
               (2, (-2, 4, -2)), (2, (1, 1, -1)), (2, (4, -2, 0))],
        "prov": "Sec. 6a, sl(4) selected (1,2); H1 items (1),(2),(4),(5),(6) at i=2",
    },
    ("A", 3, (1, 3)): {
        "h2": [(1, (4, -1, -2)), (1, (-2, -1, 4)), (2, (3, -4, 3))],
        "h1": None,
        "prov": "Sec. 6a, sl(4) selected (1,n); symmetric row via diagram flip",
    },
    ("A", 4, (1, 2)): {
        "h2": [(0, (-3, 3, 0, -2)), (2, (4, -1, -1, -1)), (3, (0, 4, -3, -1))],
        "h1": [(1, (-1, 2, -1, 0)), (1, (2, -1, 0, 0)),
               (2, (-2, 4, -2, 0)), (2, (1, 1, -1, 0)), (2, (4, -2, 0, 0))],
        "prov": "Sec. 6a, sl(5) selected (1,2) exceptional case",
    },
    ("A", 4, (1, 3)): {
        "h2": [(0, (-2, 0, 3, -3)), (1, (-1, -3, 4, 0)),
               (1, (3, -3, 2, -2)), (1, (4, -1, -1, -1))],
        "h1": [(1, (0, -1, 2, -1)), (1, (2, -1, 0, 0)), (2, (-1, 0, 2, 0)),
               (2, (0, -2, 4, -2)), (2, (1, 0, 1, -1)), (2, (4, -2, 0, 0))],
        "prov": "Sec. 6a, sl(5) selected (1,3) exceptional case; H1 items (1)-(6) at i=3",
    },
    ("C", 2, (1, 2)): {
        "h2": [(3, (6, -3)), (4, (-4, 5))],
        "h1": [(1, (-2, 2)), (1, (2, -1)), (2, (-4, 4)), (2, (0, 1)), (2, (4, -2))],
        "prov": "Sec. 6b, sp(4) exceptional case",
    },
    ("C", 3, (1, 3)): {
        "h2": [(-1, (-3, -2, 3)), (1, (4, -5, 2)), (1, (5, -2, -1))],
        "h1": [(1, (0, -2, 2)), (1, (2, -1, 0)),
               (2, (-2, 0, 2)), (2, (0, -4, 4)), (2, (1, -1, 1)), (2, (4, -2, 0))],
        "prov": "Sec. 6b, sp(6) selected (1,3) (the n=3 column)",
    },
}


def sec6_case(type_letter: str, rank: int, nodes: tuple[int, ...]) -> CaseExpectation | None:
    data = SEC6.get((type_letter, rank, tuple(sorted(nodes))))
    if data is None:
        return None
    exp = CaseExpectation(type_letter, rank, tuple(sorted(nodes)), None, [], None,
                          h1_footnote=False)
    exp.sec6_h2 = data["h2"]
    exp.sec6_h1 = data["h1"]
    return exp


# --------------------------------------------------------------------------
# Section 7.1: the G(2)-structure
# --------------------------------------------------------------------------

SEC71 = {
    "orders": {1: [(0, 0), (0, 1), (1, 0), (2, 0)], 2: [(0, 2)]},
    "prov": "Sec. 7.1 Statement: H^2 of the G(2)-structure, highest weights by order",
}
