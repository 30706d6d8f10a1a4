"""Record the expected outputs the benchmark checks against.

    python3 perfbench/record_oracle.py

Writes ``perfbench/oracle.json`` from the library in ``src/``: the
sha256 and exit code of each catalog-cli command's stdout, and the
ladders' f-vectors, cover counts, vertex counts and export sizes.  The
ladder figures must not depend on the seed (which only renames atoms);
this script records them under two seeds and refuses to write if they
differ.  Recording anew accepts the current outputs as correct, so do it
only at a commit whose outputs are known good.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import nestohedra as lib  # noqa: E402
from nestohedra import cli  # noqa: E402

from worker import lattice_json, realized_json  # noqa: E402
from workloads import ORACLE_PATH, make_plan  # noqa: E402

# stdout of every command here is deterministic; the tubings command is
# left out because it prints its own timing
COMMANDS = (["info"], ["enumerate"], ["lattice", "--format", "json"], ["verify"],
            ["realize", "--format", "json"])


def catalog_cli() -> list[dict]:
    argvs = [[cmd[0], e.name, *cmd[1:]] for e in lib.catalog() for cmd in COMMANDS]
    argvs.append(["atlas"])
    out = []
    for argv in argvs:
        buf = io.StringIO()
        with redirect_stdout(buf), redirect_stderr(io.StringIO()):
            code = cli.run(argv)
        digest = hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()
        out.append({"argv": argv, "exit": code, "sha256": digest})
    return out


def ladders(seed: int) -> dict:
    out: dict[str, dict] = {}
    for spec in make_plan("poset-ladder", seed)["rungs"]:
        g = lib.as_graph(spec["edges"], spec["atoms"])
        p = lib.abstract_polytope(g.underlying)
        rec = {"f_vector": list(lib.f_vector(p)), "covers": len(p.covers()),
               "json_bytes": len(lattice_json(p))}
        if spec["n"] == 6:
            rec["families_checked"] = lib.tubings_equal_constructs(g).families_checked
        out[spec["label"]] = rec
    plan = make_plan("realize-mix", seed)
    for spec in plan["realize"]:
        rp = lib.realize(lib.as_graph(spec["edges"], spec["atoms"]).underlying)
        out.setdefault(spec["label"], {}).update(
            vertices=len(rp.vertices), realized_json_bytes=len(realized_json(rp)))
    for spec in plan["iso"]:
        iso = lib.face_lattice_isomorphic(lib.as_graph(spec["edges"], spec["atoms"]).underlying)
        out.setdefault(spec["label"], {})["geometric_faces"] = len(iso.face_map)
    return out


def main() -> int:
    first, second = ladders(1), ladders(2)
    if first != second:
        print("error: ladder outputs depend on the atom names", file=sys.stderr)
        return 1
    doc = {"catalog_cli": catalog_cli(), "ladders": first}
    ORACLE_PATH.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {ORACLE_PATH.name}: {len(doc['catalog_cli'])} commands, "
          f"{len(first)} ladder entries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
