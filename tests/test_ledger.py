"""The decisions ledger (notes/decisions.md) against the corrections in ``expected``."""

import ast
import re
from collections import Counter
from pathlib import Path

import nhsf.expected as expected

LEDGER = Path(__file__).resolve().parents[1] / "notes" / "decisions.md"
ERRATA_MARK = " [corrected; see decisions ledger]"  # beside a cell ERRATA changed


def ledger_entries() -> dict[str, list]:
    """{heading: keys} per entry: each heading without subheadings, with the keys
    its one ``Keys:`` line lists."""
    sections: list[tuple[int, str, list[str]]] = []
    for line in LEDGER.read_text().splitlines():
        if m := re.match(r"(#{2,}) (.*)", line):
            sections.append((len(m[1]), m[2], []))
        elif sections:
            sections[-1][2].append(line)
    entries = {}
    for (level, title, body), nxt in zip(sections, sections[1:] + [(0, "", [])]):
        if nxt[0] > level:
            continue  # a group of entries, not an entry
        keys = [m[1] for line in body if (m := re.fullmatch(r"Keys: `(.*)`", line))]
        assert len(keys) == 1, f"{title}: {len(keys)} Keys lines"
        entries[title] = ast.literal_eval(keys[0])
    return entries


def ledger_citations() -> list[str]:
    """The string constants of ``expected`` that cite the ledger."""
    tree = ast.parse(Path(expected.__file__).read_text())
    return [n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)
            and isinstance(n.value, str) and "see decisions ledger" in n.value]


def table1_errata() -> dict[tuple, list[tuple]]:
    """Per Table-1 provenance string that cites the ledger: the ERRATA keys that
    changed its cells."""
    out: dict[tuple, list[tuple]] = {}
    for (t, r), rows in expected.TABLE1.items():
        for node, data in rows.items():
            key = (t, r, (node,))
            case = expected.table1_case(t, r, node)
            cells = [[key + ("h2_cm", cm), key + ("h2_fw", fw)] for cm, fw in data["h2"]]
            cells += [[key + ("h1", fw)] for fw in data["h1"]]
            for row, cell_keys in zip(case.h2 + case.h1, cells):
                fired = [k for k in cell_keys if k in expected.ERRATA]
                assert row.provenance.endswith(ERRATA_MARK) == bool(fired), row.provenance
                if fired:
                    out.setdefault(row.provenance, []).extend(fired)
    return out


def test_every_correction_has_exactly_one_ledger_entry():
    entries = ledger_entries()
    owners = Counter(k for keys in entries.values() for k in keys)
    # each ERRATA key, and each inline citation, belongs to exactly one entry
    citations = ledger_citations()
    inline = [c for c in citations if c != ERRATA_MARK]
    assert ERRATA_MARK in citations and inline
    for key in [*expected.ERRATA, *inline]:
        assert owners[key] == 1, f"{key}: {owners[key]} ledger entries"
    # each entry covers at least one of them, and lists nothing else
    for title, keys in entries.items():
        assert keys and set(keys) <= set(expected.ERRATA) | set(inline), title
    # each Table-1 provenance that cites the ledger through ERRATA maps to one entry
    emitted = table1_errata()
    assert sorted(k for ks in emitted.values() for k in ks) == sorted(expected.ERRATA)
    for prov, fired in emitted.items():
        assert len({t for t, keys in entries.items() if set(fired) & set(keys)}) == 1, prov


def test_each_inline_citation_is_emitted():
    """The inline fixes' provenance strings carry their citation."""
    inline = {c for c in ledger_citations() if c != ERRATA_MARK}
    provs = [expected.table3_rows(n, 3)[2] for n in range(4, 9)]
    provs.append(expected.table4_rows(3, 1)[2])
    assert {c for c in inline for p in provs if p.endswith(c)} == inline
