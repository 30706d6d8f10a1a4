"""The built-in catalog of hypergraphs on at most four atoms.

Entries live as checked-in text files (one member per line) so they can
be audited directly; the loader re-validates each one against the
member-cardinality census encoded in its subscripts.  Names follow the
subscript convention: ``H_4321`` has four singletons, three pairs, two
triples and one quadruple; primed, double-primed, starred and circled
variants distinguish entries with equal censuses.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from .constructions import _f_vector_and_rank
from .errors import UnknownNameError
from .hypergraph import Hypergraph, census, from_text, is_connected


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    hypergraph: Hypergraph
    nickname: str | None
    degenerate: bool
    in_chart: bool
    boxed: bool


_DECORATIONS = {
    "": "",
    "'": "p",
    "p": "p",
    "''": "pp",
    "pp": "pp",
    "*": "s",
    "s": "s",
    "°": "o",
    "o": "o",
}
_NAME_RE = re.compile(r"H((?:''|'|\*|°|pp|p|s|o)?)_(\d+)")


def _normalize(name: str) -> str:
    """Canonical key for a catalog name; ASCII aliases are accepted
    (p for prime, s for star, o for the circle)."""
    m = _NAME_RE.fullmatch(name.strip()) if isinstance(name, str) else None
    if not m:
        raise UnknownNameError(name)
    deco, digits = m.groups()
    return f"H{_DECORATIONS[deco]}_{digits}"


def _census_ok(name: str, h: Hypergraph) -> bool:
    digits = tuple(int(c) for c in name.split("_")[1])
    counts = census(h)
    padded = counts + (0,) * (len(digits) - len(counts))
    return h.n_atoms == digits[0] and padded == digits


@lru_cache(maxsize=None)
def catalog() -> tuple[CatalogEntry, ...]:
    """All entries, in presentation order."""
    root = resources.files("nestohedra").joinpath("data/catalog")
    entries = []
    index = root.joinpath("index.tsv").read_text(encoding="utf-8")
    for line in index.splitlines():
        if not line.strip():
            continue
        name, filename, nickname, chart, boxed = line.split("\t")
        h = from_text(root.joinpath(filename).read_text(encoding="utf-8"))
        if not _census_ok(name, h):
            raise RuntimeError(f"catalog entry {name} fails its census")
        entries.append(CatalogEntry(
            name=name,
            hypergraph=h,
            nickname=nickname or None,
            degenerate=not is_connected(h),
            in_chart=chart == "1",
            boxed=boxed == "1",
        ))
    return tuple(entries)


@lru_cache(maxsize=None)
def _by_key() -> dict[str, CatalogEntry]:
    return {_normalize(e.name): e for e in catalog()}


def catalog_lookup(name: str) -> CatalogEntry:
    try:
        return _by_key()[_normalize(name)]
    except KeyError:
        raise UnknownNameError(name) from None


def chart_edges() -> tuple[tuple[str, str], ...]:
    """Covering pairs of member-set inclusion among the chart entries."""
    nodes = [e for e in catalog() if e.in_chart]
    fams = {e.name: e.hypergraph.member_sets for e in nodes}
    edges = []
    for a in nodes:
        for b in nodes:
            if a.name == b.name or not fams[a.name] < fams[b.name]:
                continue
            strictly_between = any(
                fams[a.name] < fams[c.name] < fams[b.name] for c in nodes)
            if not strictly_between:
                edges.append((a.name, b.name))
    return tuple(sorted(edges))


def fvector_table() -> list[tuple[str, str, tuple[int, ...], int]]:
    """One row per entry: name, nickname, f-vector, rank (read off the
    construct counts, without building a face poset)."""
    return [(e.name, e.nickname or "", *_f_vector_and_rank(e.hypergraph))
            for e in catalog()]
