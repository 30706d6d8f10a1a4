import hashlib
import importlib
import json
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

import nestohedra
from nestohedra import catalog, catalog_lookup, cli, constructions, saturated_closure
from nestohedra import facelattice as fl
from nestohedra.cli import run
from nestohedra.hypergraph import family_components

from helpers import paper_a


@pytest.fixture
def a_file(tmp_path):
    path = tmp_path / "a.hg"
    path.write_text("x\ny\nz\nu\nx,y\ny,z\nz,u\nx,y,z\n")
    return str(path)


class TestEnumerate:
    def test_associahedron_words(self, capsys):
        assert run(["enumerate", "H'_4321"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 14
        assert lines == sorted(lines)
        assert "xyzu" in lines
        assert "xz(u+y)" in lines  # canonical spelling of xz(y+u)

    def test_file_source(self, a_file, capsys):
        assert run(["enumerate", a_file]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 14


class TestInfo:
    def test_catalog_entry(self, capsys):
        assert run(["info", "H'_4321"]) == 0
        out = capsys.readouterr().out
        assert "census: 4,3,2,1" in out
        assert "rank: 3" in out
        assert "saturated: yes" in out
        assert "f-vector: 14,21,9" in out

    def test_json_file(self, tmp_path, capsys):
        from nestohedra import to_json
        path = tmp_path / "a.json"
        path.write_text(to_json(paper_a()))
        assert run(["info", str(path)]) == 0
        assert "saturated: no" in capsys.readouterr().out


class TestVerify:
    def test_simplex_passes(self, capsys):
        assert run(["verify", "H_4001"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    @pytest.mark.parametrize("setting, verdict", [
        ("1", "\x1b[32mPASS\x1b[0m"), ("0", "PASS"), (None, "PASS")])
    def test_color_setting(self, capsys, monkeypatch, setting, verdict):
        if setting is None:
            monkeypatch.delenv("NESTOHEDRA_COLOR", raising=False)
        else:
            monkeypatch.setenv("NESTOHEDRA_COLOR", setting)
        assert run(["verify", "H_1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines and all(line.endswith(" " + verdict) for line in lines)

    def test_all_checks_listed(self, capsys):
        assert run(["verify", "H'_4321"]) == 0
        out = capsys.readouterr().out
        for label in ("axioms", "axioms-inductive", "rank",
                      "realization-isomorphism", "count-recursion",
                      "saturated-closure-union", "construction-oracle"):
            assert label in out

    def test_cap_skips_oracles(self, capsys, tmp_path):
        path = tmp_path / "h.hg"
        path.write_text("a\nb\nc\nd\ne\na,b,c,d,e\n")
        assert run(["verify", str(path), "--carrier-cap", "4"]) == 0
        err = capsys.readouterr().err
        assert "skipped" in err

    def test_construction_oracle_catches_a_dropped_construction(self, capsys, monkeypatch):
        monkeypatch.delenv("NESTOHEDRA_COLOR", raising=False)
        # saturated and connected, so its own (only) block
        block = catalog_lookup("H'_4321").hypergraph.members
        peel = constructions._peel

        def drop_one(members, constructs):
            out = peel(members, constructs)
            if members == block and not constructs:
                drop = min(out, key=sorted)
                return tuple(k for k in out if k != drop)
            return out

        monkeypatch.setattr(constructions, "_peel", drop_one)
        assert run(["verify", "H'_4321"]) == 1
        lines = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert ["H'_4321", "construction-oracle", "FAIL"] in lines

    @staticmethod
    def _failed(capsys):
        return [line.split()[1] for line in capsys.readouterr().out.splitlines()
                if line.endswith(" FAIL")]

    def test_count_recursion_catches_a_wrong_count(self, capsys, monkeypatch):
        monkeypatch.delenv("NESTOHEDRA_COLOR", raising=False)
        count = constructions._count
        monkeypatch.setattr(constructions, "_count", lambda members: count(members) + 1)
        assert run(["verify", "H'_4321"]) == 1
        assert self._failed(capsys) == ["count-recursion"]

    def test_construction_oracle_checks_every_block(self, capsys, monkeypatch):
        monkeypatch.delenv("NESTOHEDRA_COLOR", raising=False)
        # two blocks with two constructions each; the second is on u, z
        h = catalog_lookup("H_4200").hypergraph
        first, second = family_components(saturated_closure(h).members)
        assert len(first) == len(second) == 3
        # an unpatched run passes and leaves the whole entry's peel memoized,
        # so the drop below reaches the second block's own check alone
        assert run(["verify", "H_4200"]) == 0
        capsys.readouterr()
        peel = constructions._peel

        def drop_one(members, constructs):
            out = peel(members, constructs)
            if members == second and not constructs:
                return out[1:]
            return out

        monkeypatch.setattr(constructions, "_peel", drop_one)
        assert run(["verify", "H_4200"]) == 1
        assert self._failed(capsys) == ["construction-oracle"]

    def test_verify_axioms_json(self, capsys):
        assert run(["verify-axioms", "H_301"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] and doc["rank"] == 2


class TestCountsWithoutPoset:
    """``info`` and ``atlas`` read f-vectors and ranks off the construct
    counts and build no face poset; the digests pin their output."""

    INFO_SHA256 = "eae1733f7d53a48866f50ee47d0f6986c685702a3ac9ece2dfaafed727eab617"
    ATLAS_SHA256 = "3edbd90917b56cd4f28e7107ddb75ce06dc73c07900a38be0d2ff6c28219a16f"

    @pytest.fixture(autouse=True)
    def no_poset(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise RuntimeError("a face poset was built")

        for mod in (fl, cli, importlib.import_module("nestohedra.catalog")):
            if hasattr(mod, "abstract_polytope"):
                monkeypatch.setattr(mod, "abstract_polytope", refuse)
        monkeypatch.setattr(fl.FacePoset, "__init__", refuse)

    @staticmethod
    def _out(capsys, argv):
        assert run(argv) == 0
        return capsys.readouterr().out

    def test_info_on_the_catalog(self, capsys):
        out = "".join(self._out(capsys, ["info", e.name]) for e in catalog())
        assert hashlib.sha256(out.encode()).hexdigest() == self.INFO_SHA256

    def test_atlas(self, capsys):
        out = self._out(capsys, ["atlas"])
        assert hashlib.sha256(out.encode()).hexdigest() == self.ATLAS_SHA256

    def test_info_on_a_nine_atom_path(self, capsys, tmp_path):
        # K_9 has 103,050 faces: far beyond a face poset's rows
        atoms = "abcdefghi"
        path = tmp_path / "path9.hg"
        path.write_text("\n".join([*atoms, *(f"{a},{b}" for a, b in zip(atoms, atoms[1:]))]))
        out = self._out(capsys, ["info", str(path)])
        n = 9
        # Kirkman-Cayley: dissections of an (n+2)-gon by j diagonals are
        # the faces of dimension n - 1 - j; j = n - 1 gives Catalan(9)
        f = [comb(n - 1, j) * comb(n + j + 1, j) // (j + 1)
             for j in range(n - 1, 0, -1)]
        assert f[0] == 4862
        assert "rank: 8\n" in out
        assert f"f-vector: {','.join(map(str, f))}\n" in out


class TestCatalogDigests:
    """``enumerate`` and ``verify`` over the whole catalog: one digest of
    each call's command, entry name, exit code and standard output."""

    ENUMERATE_VERIFY_SHA256 = "f379ca53a75af4cc64de192db78427ec984f8628d288c42eb76ee321c4ca88e1"

    def test_enumerate_and_verify_on_the_catalog(self, capsys, monkeypatch):
        monkeypatch.delenv("NESTOHEDRA_COLOR", raising=False)
        parts = []
        for e in catalog():
            for cmd in ("enumerate", "verify"):
                code = run([cmd, e.name])
                parts.append(f"{cmd} {e.name} {code}\n{capsys.readouterr().out}")
        digest = hashlib.sha256("".join(parts).encode()).hexdigest()
        assert digest == self.ENUMERATE_VERIFY_SHA256


class TestRealizeAndLattice:
    def test_realize_json(self, capsys):
        assert run(["realize", "H_301"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dimension"] == 2
        assert len(doc["vertices"]) == 3

    def test_realize_off(self, capsys):
        assert run(["realize", "H_4001", "--format", "off"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("OFF\n4 4 6\n")

    def test_lattice_dot(self, capsys):
        assert run(["lattice", "H_21", "--format", "dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph") and '"F-1"' in out

    def test_lattice_json(self, capsys):
        assert run(["lattice", "H_21", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["faces"]) == 4


class TestAtlasAndTubings:
    def test_atlas(self, capsys):
        assert run(["atlas"]) == 0
        out = capsys.readouterr().out
        assert "H'_4321" in out and "associahedron" in out
        assert "f-vector 14,21,9" in out
        assert "chart inclusions:" in out
        assert out.count("\n  ") >= 20

    def test_tubings(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("x-y\ny-z\nz-u\n")
        assert run(["tubings", str(path)]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_tubings_reports_a_counterexample(self, tmp_path, capsys, monkeypatch):
        from nestohedra import tubings
        monkeypatch.delenv("NESTOHEDRA_COLOR", raising=False)
        check = tubings._is_tubing
        monkeypatch.setattr(tubings, "_is_tubing", lambda h, masks: not check(h, masks))
        path = tmp_path / "g.txt"
        path.write_text("a-b\nb-c\n")
        assert run(["tubings", str(path)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "tubings == constructs: FAIL counterexample [['a', 'b', 'c']]"

    def test_tubings_cap_comes_before_saturation(self, tmp_path, capsys, monkeypatch):
        from nestohedra import tubings

        def saturate(h):
            raise AssertionError("saturation started")

        monkeypatch.setattr(tubings, "saturated_closure", saturate)
        path = tmp_path / "g.txt"
        path.write_text("".join(f"v{i}\n" for i in range(30)))
        assert run(["tubings", str(path)]) == 2
        assert capsys.readouterr().err == "error: carrier of size 30 exceeds the cap 6\n"


class TestErrors:
    def test_unknown_source(self, capsys):
        assert run(["info", "H_9999"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_file(self, tmp_path, capsys):
        path = tmp_path / "bad.hg"
        path.write_text("x\nx\n")
        assert run(["info", str(path)]) == 2

    @pytest.mark.parametrize("doc", [
        '{"carrier": ["x"], "members": [5]}',
        '{"carrier": ["x"], "members": [[["x"]]]}',
        '{"carrier": "xy", "members": [["x"], ["y"]]}',
    ])
    def test_malformed_json_exits_2(self, tmp_path, capsys, doc):
        path = tmp_path / "bad.json"
        path.write_text(doc)
        assert run(["info", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_deeply_nested_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        assert run(["info", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: invalid JSON")

    @pytest.mark.parametrize("command", ["info", "tubings"])
    def test_non_utf8_file_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xff\xfe\x00x\n")
        assert run([command, str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("carrier, members, named", [
        (["a", "b", "ab"], [["a"], ["b"], ["ab"], ["a", "b"], ["b", "ab"]],
         "not prefix-free: [['a', 'ab']]"),
        (["a", "+x"], [["a"], ["+x"], ["a", "+x"]], "['+x']"),
    ], ids=["prefix", "plus"])
    def test_enumerate_unspellable_atom_names_exits_2(self, tmp_path, capsys, carrier,
                                                      members, named):
        # "abab" would print twice for the first; "a+x" is no word
        path = tmp_path / "h.json"
        path.write_text(json.dumps({"carrier": carrier, "members": members}))
        assert run(["enumerate", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: words cannot be written") and named in err

    @pytest.mark.parametrize("command", ["lattice", "verify-axioms", "verify"])
    def test_non_atomic_file_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "h.hg"
        path.write_text("a\na,b\n")
        assert run([command, str(path)]) == 2
        assert capsys.readouterr() == (
            "", "error: constructs are defined for atomic hypergraphs\n")

    def test_usage_error(self):
        assert run(["frobnicate"]) == 2

    def test_usage_error_leaves_the_parser_intact(self, capsys):
        # one parser serves every run; a failed parse must not change it
        cli._parser.cache_clear()
        assert run(["info", "H_1"]) == 0
        fresh = capsys.readouterr().out
        assert run(["nope"]) == 2
        capsys.readouterr()
        assert run(["info", "H_1"]) == 0
        assert capsys.readouterr().out == fresh
        assert cli._parser.cache_info().misses == 1

    def test_off_too_high_dimension(self, tmp_path, capsys):
        path = tmp_path / "h.hg"
        path.write_text("a\nb\nc\nd\ne\na,b,c,d,e\n")
        assert run(["realize", str(path), "--format", "off"]) == 2


class TestModuleEntryPoint:
    """``python -m nestohedra.cli`` runs the same CLI as the script."""

    def _run_module(self, *argv, unbuffered=False, **streams):
        env = dict(os.environ, PYTHONPATH=str(Path(nestohedra.__file__).parents[1]))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        streams = streams or {"capture_output": True}
        return subprocess.run([sys.executable, "-m", "nestohedra.cli", *argv],
                              env=env, text=True, timeout=120, **streams)

    def test_info(self):
        done = self._run_module("info", "H'_4321")
        assert done.returncode == 0
        assert "census: 4,3,2,1" in done.stdout

    def test_unknown_source_exits_2(self, tmp_path):
        done = self._run_module("info", str(tmp_path / "missing.hg"))
        assert done.returncode == 2
        assert "error:" in done.stderr

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [["atlas"], ["verify", "H'_4321"]], ids=["atlas", "verify"])
    def test_closed_stdout_exits_0_quietly(self, argv, unbuffered):
        # the reader is gone before the command starts: a buffered run
        # meets the closed pipe at the final flush, an unbuffered one at
        # its first print
        read, write = os.pipe()
        os.close(read)
        try:
            done = self._run_module(*argv, unbuffered=unbuffered,
                                    stdout=write, stderr=subprocess.PIPE)
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (0, "")
