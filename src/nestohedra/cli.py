"""Command-line interface.

Subcommands take either a catalog name (``H'_4321``; ASCII aliases
``Hp_4321`` etc. work) or a path to a hypergraph file (``.json`` for the
JSON format, anything else for the compact one-member-per-line format).
Output ordering is deterministic everywhere.  Exit codes: 0 success,
1 verification failure, 2 usage or parse errors.  A reader that closes
standard output early (``nestohedra atlas | head -1``) ends the command
quietly with exit 0.

Commands stay on member masks until they print: components are
counted on masks, ``enumerate`` prints ``_word_text`` per construction,
and ``verify``'s oracles compare sets of mask families per block.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import cache

from . import constructions as cs
from . import facelattice as fl
from . import realization as rz
from .catalog import catalog_lookup, chart_edges, fvector_table
from .axioms import verify_axioms, verify_inductive
from .constructions import (
    _antichain_constructions,
    _check_word_atoms,
    _ensure_atomic,
    _f_vector_and_rank,
    _word_text,
    count_constructions,
)
from .errors import NestohedraError, UnknownNameError
from .hypergraph import (
    Hypergraph,
    census,
    family_components,
    family_union,
    from_json,
    from_text,
    is_atomic,
    is_connected,
)
from .saturation import is_saturated, saturated_closure
from .tubings import _check_cap, _parse_edges, as_graph, tubings_equal_constructs


def _verdict(ok: bool) -> str:
    word = "PASS" if ok else "FAIL"
    if os.environ.get("NESTOHEDRA_COLOR", "") not in ("", "0"):
        code = "32" if ok else "31"
        return f"\x1b[{code}m{word}\x1b[0m"
    return word


def _load(source: str) -> tuple[str, Hypergraph]:
    try:
        entry = catalog_lookup(source)
        return entry.name, entry.hypergraph
    except UnknownNameError:
        pass
    if not os.path.exists(source):
        raise NestohedraError(
            f"{source!r} is neither a catalog name nor an existing file")
    with open(source, encoding="utf-8") as fh:
        text = fh.read()
    if source.endswith(".json"):
        return source, from_json(text)
    return source, from_text(text)


def _cmd_info(args) -> int:
    name, h = _load(args.source)
    fr = _f_vector_and_rank(h) if is_atomic(h) else None
    print(f"name: {name}")
    print(f"carrier: {','.join(h.atoms) if h.atoms else '(empty)'}")
    print(f"members: {len(h.members)}")
    print(f"census: {','.join(map(str, census(h))) or '0'}")
    print(f"atomic: {'yes' if is_atomic(h) else 'no'}")
    print(f"connected: {'yes' if is_connected(h) else 'no'}")
    print(f"saturated: {'yes' if is_saturated(h) else 'no'}")
    print(f"components: {len(family_components(h.members))}")
    if fr is not None:
        fvec, rank = fr
        print(f"rank: {rank}")
        print(f"f-vector: {','.join(map(str, fvec)) or '-'}")
    return 0


def _cmd_enumerate(args) -> int:
    _, h = _load(args.source)
    _ensure_atomic(h)
    _check_word_atoms(h.atoms)
    # the recursion's own output needs no second construction check
    words = sorted(_word_text(h, k) for k in cs._peel(h.members, False))
    for w in words:
        print(w)
    return 0


def _cmd_realize(args) -> int:
    _, h = _load(args.source)
    rp = rz.realize(h)
    if args.format == "off":
        sys.stdout.write(rz.to_off(rp))
    else:
        print(json.dumps(rz.to_json_dict(rp)))
    return 0


def _cmd_lattice(args) -> int:
    _, h = _load(args.source)
    p = fl.abstract_polytope(h)
    if args.format == "dot":
        sys.stdout.write(fl.to_dot(p))
    else:
        print(json.dumps(fl.to_json_dict(p)))
    return 0


def _cmd_verify_axioms(args) -> int:
    _, h = _load(args.source)
    p = fl.abstract_polytope(h)
    print(json.dumps(verify_axioms(p).to_dict()))
    return 0


def _cmd_verify(args) -> int:
    name, h = _load(args.source)
    checks: list[tuple[str, bool]] = []

    p = fl.abstract_polytope(h)
    report_a = verify_axioms(p)
    report_i = verify_inductive(p)
    checks.append(("axioms", report_a.ok))
    checks.append(("axioms-inductive", report_i.ok))
    n_blocks = len(family_components(h.members))
    checks.append(("rank", p.rank == h.n_atoms - n_blocks))

    iso = rz.face_lattice_isomorphic(h)
    checks.append(("realization-isomorphism", iso.ok))

    if h.n_atoms <= args.carrier_cap:
        # _peel read through the module, so a patched peel reaches every check
        cons = frozenset(map(frozenset, cs._peel(h.members, False)))
        checks.append(("count-recursion", len(cons) == count_constructions(h)))
        hbar = saturated_closure(h)
        checks.append(("saturated-closure-union",
                       frozenset().union(*cons) == hbar.members))
        agree = all(frozenset(map(frozenset, cs._peel(comp, False)))
                    == _antichain_constructions(comp, family_union(comp))
                    for comp in family_components(hbar.members))
        checks.append(("construction-oracle", agree))
    else:
        print(f"note: exhaustive oracles skipped (carrier exceeds "
              f"--carrier-cap {args.carrier_cap})", file=sys.stderr)

    width = max(len(label) for label, _ in checks)
    for label, ok in checks:
        print(f"{name} {label:<{width}} {_verdict(ok)}")
    return 0 if all(ok for _, ok in checks) else 1


def _cmd_atlas(args) -> int:
    rows = fvector_table()
    name_w = max(len(r[0]) for r in rows)
    nick_w = max(len(r[1]) for r in rows)
    for name, nick, fvec, rank in rows:
        fstr = ",".join(map(str, fvec)) or "-"
        print(f"{name:<{name_w}}  {nick:<{nick_w}}  rank {rank}  f-vector {fstr}")
    print()
    print("chart inclusions:")
    for a, b in chart_edges():
        print(f"  {a} < {b}")
    return 0


def _cmd_tubings(args) -> int:
    with open(args.graph_file, encoding="utf-8") as fh:
        edges, atoms = _parse_edges(fh.read())
    # a dense graph's closure has up to 2^n - 1 members, so the cap goes first
    _check_cap(len(atoms), args.carrier_cap)
    g = as_graph(edges, atoms)
    t0 = time.perf_counter()
    report = tubings_equal_constructs(g, cap=args.carrier_cap)
    dt = time.perf_counter() - t0
    print(f"graph on {g.underlying.n_atoms} vertices, {len(g.underlying.members)} members")
    print(f"families checked: {report.families_checked} "
          f"(plus {report.pairs_checked} excluded pairs) in {dt:.2f}s")
    if report.ok:
        print(f"tubings == constructs: {_verdict(True)}")
        return 0
    fam = sorted(sorted(m) for m in report.counterexample)
    print(f"tubings == constructs: {_verdict(False)} counterexample {fam}")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nestohedra",
        description="hypergraph polytopes: enumeration, face lattices, "
                    "axiom checking and exact realization")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="census and basic properties")
    p.add_argument("source")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("enumerate", help="constructions as words, one per line")
    p.add_argument("source")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("realize", help="exact coordinates and incidence")
    p.add_argument("source")
    p.add_argument("--format", choices=("off", "json"), default="json")
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("lattice", help="export the face poset")
    p.add_argument("source")
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.set_defaults(func=_cmd_lattice)

    p = sub.add_parser("verify-axioms", help="axiom report as JSON")
    p.add_argument("source")
    p.set_defaults(func=_cmd_verify_axioms)

    p = sub.add_parser("verify", help="axioms, realization and oracle checks")
    p.add_argument("source")
    p.add_argument("--carrier-cap", type=int, default=4,
                   help="carrier size bound for the exhaustive oracles")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("atlas", help="f-vector table for the whole catalog")
    p.set_defaults(func=_cmd_atlas)

    p = sub.add_parser("tubings", help="tubing/construct equivalence for a graph")
    p.add_argument("graph_file")
    p.add_argument("--carrier-cap", type=int, default=6)
    p.set_defaults(func=_cmd_tubings)

    return parser


# built on the first run, not at import; parsing leaves it unchanged
_parser = cache(build_parser)


def run(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except BrokenPipeError:  # the reader left; nothing went wrong here
        return 0
    except (NestohedraError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    code = run()
    try:
        sys.stdout.flush()
    except BrokenPipeError:  # keep the exit-time flush off the closed pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)


if __name__ == "__main__":
    main()
