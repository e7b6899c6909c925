"""The benchmark's fixed case lists.

Each workload is a list of cases run serially in one fresh interpreter.  A case
is either a ``run_case(CaseSpec(...))`` call or the Sec. 7.1 G(2)-structure
(``run_g2_structure()``), marked by ``type_letter`` None.  The lists are built
here rather than taken from ``nhsf verify --only``, which filters only after
computing the whole suite.
"""

from __future__ import annotations

import random
from typing import NamedTuple


class Case(NamedTuple):
    name: str
    type_letter: str | None
    rank: int = 0
    nodes: tuple[int, ...] = ()
    budget: str = "full"

    @property
    def direct(self) -> bool:
        """True when the case builds a Chevalley algebra (direct route)."""
        return self.type_letter is None or self.budget != "bwb"

    @property
    def algebra(self) -> tuple[str, int]:
        return ("G", 2) if self.type_letter is None else (self.type_letter, self.rank)


def _table1(t: str, r: int, node: int, budget: str) -> Case:
    return Case(f"table1 {t.lower()}{r} node {node} {budget}", t, r, (node,), budget)


def _series() -> list[Case]:
    out = []
    for t, r, nodes in ([("D", 4, (1, 2, 3, 4)), ("D", 5, (1, 2, 3)), ("B", 3, (1, 2, 3)),
                         ("B", 4, (1, 2, 3, 4)), ("C", 2, (1, 2)), ("C", 3, (1, 2, 3)),
                         ("C", 4, (1, 2, 3, 4))]):
        for n in nodes:
            out.append(Case(f"tables234 {t.lower()}{r} node {n}", t, r, (n,)))
    for t, r, nodes in [("A", 2, (1, 2)), ("A", 3, (1, 2)), ("A", 3, (1, 3)),
                        ("A", 4, (1, 2)), ("A", 4, (1, 3)),
                        ("C", 2, (1, 2)), ("C", 3, (1, 3))]:
        out.append(Case(f"sec6 {t.lower()}{r} nodes {','.join(map(str, nodes))}", t, r, nodes))
    out += [_table1("G", 2, n, "full") for n in (1, 2)]
    out.append(Case("sec7.1 g2-structure", None))
    return out


# Why each workload is here: BENCHMARK.json carries the one-line reasons.
WORKLOADS: dict[str, list[Case]] = {
    # Whole direct route on the largest full-budget rows: gmod module
    # building, co-Riemann H^1, the premet split's Riemann run, decomposition.
    "table1_full": [_table1("F", 4, 1, "full"), _table1("F", 4, 4, "full"),
                    _table1("E", 6, 5, "full")],
    # Largest cochain spaces and weight blocks in reach; cohom and linalg do
    # almost all the work, and few cochains sit on Levi-antidominant weights.
    "e6_h2": [_table1("E", 6, 2, "h2")],
    # Many small cases: per-case fixed costs, prolongation, and many
    # Chevalley builds in set-up.
    "series": _series(),
    # BWB only: rootsys Weyl words; cohom, gmod and decomp do nothing, and linalg
    # only solves the weight conversions.
    "exceptional_bwb": ([_table1("E", 6, n, "bwb") for n in (2, 3, 4, 6)]
                        + [_table1("E", 7, n, "bwb") for n in range(1, 8)]
                        + [_table1("E", 8, n, "bwb") for n in range(1, 9)]),
}


def ordered_cases(workload: str, seed: int) -> list[Case]:
    """The workload's cases in the order given by ``seed``.

    The graded algebras share lazily filled bracket caches, so the order
    decides which case pays for filling them.
    """
    cases = list(WORKLOADS[workload])
    random.Random(seed).shuffle(cases)
    return cases


def setup_algebras(cases: list[Case]) -> list[tuple[str, int]]:
    """Distinct algebras the direct-route cases grade, in first-use order."""
    return list(dict.fromkeys(c.algebra for c in cases if c.direct))
