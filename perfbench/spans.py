"""Per-layer spans and counters, recorded from outside the ``nhsf`` package.

``Tracer.install`` wraps the public entry points of each layer (one layer per
``nhsf`` module).  ``from .x import f`` binds ``f`` at import time, so a
function is replaced in every ``nhsf`` module namespace that holds it, not only
in its home module; methods are replaced on their class.  Spans are aggregated
in memory per name (calls, total time, self time).  A span's self time is its
duration minus the time of the spans it directly encloses, so summing self time
over a layer's spans never counts nested work twice.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# (home module, attribute) of every wrapped entry point.  The layer of a span
# is its home module.  Bracket-cache lookups and other calls that are not
# listed here count as self time of the nearest enclosing span.
SPANS = [
    ("rootsys", "build_root_system"), ("rootsys", "enumerate_w_i"),
    ("rootsys", "dynkin_split"), ("rootsys", "convert_weight"),
    ("rootsys", "weyl_dim"), ("rootsys", "RootSystem.apply_word_to_weight"),
    ("liealg", "build_chevalley"), ("liealg", "graded_algebra"),
    ("liealg", "levi_pieces"), ("liealg", "gminus_of"),
    ("gmod", "FlagCase.adjoint_module"), ("gmod", "FlagCase.riemann_module"),
    ("gmod", "FlagCase.coriemann_module"), ("gmod", "build_irreducible"),
    ("gmod", "abelian_negative"),
    ("cohom", "cohomology"), ("cohom", "full_window"),
    ("linalg", "echelon_int"), ("linalg", "row_to_ints"), ("linalg", "IntSpan.add"),
    ("linalg", "_rref_from_echelon"), ("linalg", "rref"), ("linalg", "nullspace"),
    ("linalg", "solve"), ("linalg", "Reducer.add"), ("linalg", "Reducer.express"),
    ("decomp", "decompose"), ("decomp", "extremal_vectors"), ("decomp", "levi_irrep_dim"),
    ("prolong", "full_prolong"), ("prolong", "yamaguchi_classify"),
    ("prolong", "prolong_as_module"), ("prolong", "der0"),
    ("verify", "run_case"), ("verify", "run_g2_structure"),
    ("verify", "premet_split_check"), ("verify", "bwb_adjoint"),
    ("verify", "ir_count"), ("verify", "statement41_check"),
]
LAYERS = ("rootsys", "liealg", "gmod", "cohom", "linalg", "decomp", "prolong", "verify")
MODULE_BUILDERS = ("gmod.FlagCase.adjoint_module", "gmod.FlagCase.riemann_module",
                   "gmod.FlagCase.coriemann_module")
# Set on adjoint modules so the cohomology hook can find the Levi nodes.
UNSELECTED_ATTR = "_perfbench_unselected"


class Tracer:
    def __init__(self):
        self.open: list[float] = []  # time of enclosed spans, one per open span
        # name -> [calls, total_s, self_s]
        self.spans = {f"{home}.{attr}": [0, 0.0, 0.0] for home, attr in SPANS}
        self.counts: Counter = Counter()
        self.max_block = 0
        self.hooks = {
            "rootsys.enumerate_w_i": self._on_weyl_words,
            "gmod.FlagCase.adjoint_module": self._on_adjoint,
            "gmod.FlagCase.riemann_module": self._on_module,
            "gmod.FlagCase.coriemann_module": self._on_module,
            "cohom.cohomology": self._on_cohomology,
            "linalg.echelon_int": self._on_echelon,
            "decomp.decompose": self._on_decompose,
            "decomp.extremal_vectors": self._on_extremal,
        }

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point in SPANS; ``nhsf.verify`` must be imported.

        An entry point that no longer exists is skipped, so its span and
        counters read 0 instead of breaking the traced run.
        """
        namespaces = [m for n, m in sys.modules.items() if n == "nhsf" or n.startswith("nhsf.")]
        for home, attr in SPANS:
            module = sys.modules[f"nhsf.{home}"]
            name = f"{home}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                if cls is not None and meth in cls.__dict__:
                    setattr(cls, meth, self._wrap(name, cls.__dict__[meth]))
                continue
            orig = getattr(module, attr, None)
            if orig is None:
                continue
            wrapped = self._wrap(name, orig)
            for ns in namespaces:
                for key, val in list(vars(ns).items()):
                    if val is orig:
                        setattr(ns, key, wrapped)

    def _wrap(self, name: str, fn):
        stats = self.spans[name]
        open_spans = self.open
        hook = self.hooks.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            open_spans.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                enclosed = open_spans.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - enclosed
                if open_spans:
                    open_spans[-1] += dt
            if hook is not None:
                hook(args, result)
            return result

        return span

    # -- counters --------------------------------------------------------------

    def _on_weyl_words(self, args, words) -> None:
        self.counts["rootsys.weyl_words"] += len(words)

    def _on_adjoint(self, args, mod) -> None:
        setattr(mod, UNSELECTED_ATTR, tuple(args[0].unselected))
        self._on_module(args, mod)

    def _on_module(self, args, mod) -> None:
        self.counts["gmod.module_dim"] += mod.dim

    def _on_cohomology(self, args, slices) -> None:
        mod, s = args[1], args[2]
        unselected = getattr(mod, UNSELECTED_ATTR, None) if s == 2 else None
        c = self.counts
        for sl in slices:
            c["cohom.slices"] += 1
            c["cohom.cochains"] += sl.dim_cochains[1]
            c["cohom.blocks"] += len(sl.blocks)
            c["cohom.rank_sum"] += sl.rank_in + sl.rank_out
            c["cohom.dim_h"] += sl.dim_h
            for block in sl.blocks.values():
                self.max_block = max(self.max_block, len(block.idx))
            if unselected is None or sl.basis is None:
                continue
            for w, idx in sl.basis.by_weight.items():
                c["adjoint_c2"] += len(idx)
                if w is not None and all(w[j - 1] <= 0 for j in unselected):
                    c["adjoint_c2_antidominant"] += len(idx)

    def _on_echelon(self, args, result) -> None:
        rows = args[0]
        self.counts["linalg.echelon_cells"] += len(rows) * (len(rows[0]) if rows else 0)

    def _on_decompose(self, args, summands) -> None:
        self.counts["decomp.summands"] += len(summands)

    def _on_extremal(self, args, vectors) -> None:
        self.counts["decomp.extremal_vectors"] += len(vectors)

    # -- report ------------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics: ``<layer>.self_s`` plus the named counters."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(st[2] for n, st in self.spans.items()
                                         if n.startswith(layer + "."))
        out["liealg.build_chevalley_s"] = self.spans["liealg.build_chevalley"][1]
        out["gmod.module_build_s"] = sum(self.spans[n][1] for n in MODULE_BUILDERS)
        out["verify.premet_split_s"] = self.spans["verify.premet_split_check"][1]
        out["linalg.echelon_calls"] = self.spans["linalg.echelon_int"][0]
        out["linalg.row_to_ints_calls"] = self.spans["linalg.row_to_ints"][0]
        out["linalg.intspan_adds"] = self.spans["linalg.IntSpan.add"][0]
        c = self.counts
        for name in ("rootsys.weyl_words", "gmod.module_dim", "cohom.slices",
                     "cohom.cochains", "cohom.blocks", "cohom.rank_sum", "cohom.dim_h",
                     "linalg.echelon_cells", "decomp.summands", "decomp.extremal_vectors"):
            out[name] = c[name]
        out["cohom.max_block"] = self.max_block
        # Useful over attempted: adjoint C^2 cochains on weights the
        # decomposition reads.  0 when no adjoint H^2 was computed.
        out["cohom.antidominant_frac"] = (c["adjoint_c2_antidominant"] / c["adjoint_c2"]
                                          if c["adjoint_c2"] else 0.0)
        return out

    def span_table(self) -> dict[str, list]:
        """Calls, total and self seconds of every span that ran."""
        return {n: [st[0], round(st[1], 6), round(st[2], 6)]
                for n, st in sorted(self.spans.items()) if st[0]}
