import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from homkit import cli, jsonio
from homkit.cli import main
from homkit.jsonio import group_from_json

from .oracles import cyclic_group_cohomology_pin, cyclic_group_homology_pin
from .test_expected_documents import _GENERATE

ROOT = Path(__file__).resolve().parent.parent

MOORE_Z2 = {
    "even_rank": 1, "odd_rank": 1,
    "d": {"rows": 1, "cols": 1, "data": [["0"]]},
    "e": {"rows": 1, "cols": 1, "data": [["2"]]},
}
SUSP_MOORE_Z2 = {
    "even_rank": 1, "odd_rank": 1,
    "d": {"rows": 1, "cols": 1, "data": [["-2"]]},
    "e": {"rows": 1, "cols": 1, "data": [["0"]]},
}
# The phantom map M(Z/n) -> S M(Z/n) whose cone is the extension Z/n^2, for
# the Moore complex M(Z/n) (MOORE_Z2 for n = 2) and its suspension.
EXTENSION_MAP = {
    "f_even": {"rows": 1, "cols": 1, "data": [["0"]]},
    "f_odd": {"rows": 1, "cols": 1, "data": [["1"]]},
}

# Hochschild input on Z with lambda = 1 and rho = -1.
HH_SIGN_ON_Z = {
    "group": {"rank": 1, "torsion": []},
    "lambda": {"rows": 1, "cols": 1, "data": [["1"]]},
    "rho": {"rows": 1, "cols": 1, "data": [["-1"]]},
}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestBasicCommands:
    def test_snf(self, tmp_path, capsys):
        m = write(tmp_path, "m.json", {"rows": 2, "cols": 2, "data": [["2", "4"], ["6", "8"]]})
        code, doc = run(capsys, "snf", m)
        assert code == 0
        assert doc["command"] == "snf"
        assert doc["result"]["diagonal"] == ["2", "4"]

    def test_uct_on_moore_fixtures(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", MOORE_Z2)
        code, doc = run(capsys, "uct", a, a)
        assert code == 0
        assert doc["result"]["hom_part"] == {"rank": 0, "torsion": ["2"]}
        assert doc["result"]["ext_part"] == {"rank": 0, "torsion": []}

    def test_hh_vanishing_pin(self, tmp_path, capsys):
        hh = write(tmp_path, "hh.json", HH_SIGN_ON_Z)
        code, doc = run(capsys, "hh", hh, "--n", "3")
        assert code == 0
        assert doc["result"] == {"rank": 0, "torsion": []}
        # Homology degree 0 is coker(u - 1) = Z/2; cohomology degree 0 is ker.
        code, doc = run(capsys, "hh", hh, "--n", "0")
        assert doc["result"] == {"rank": 0, "torsion": ["2"]}
        code, doc = run(capsys, "hh", hh, "--n", "0", "--variant", "cohomology")
        assert doc["result"] == {"rank": 0, "torsion": []}

    def test_group_op(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", {"rank": 0, "torsion": ["4"]})
        b = write(tmp_path, "b.json", {"rank": 0, "torsion": ["6"]})
        for op in ("hom", "ext1", "tensor", "tor1"):
            code, doc = run(capsys, "group-op", "--op", op, a, b)
            assert code == 0 and doc["result"] == {"rank": 0, "torsion": ["2"]}
        code, doc = run(capsys, "group-op", "--op", "is-isomorphic", a, b)
        assert doc["result"] == {"isomorphic": False}

    def test_kappa_and_classify(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", MOORE_Z2)
        b = write(tmp_path, "b.json", SUSP_MOORE_Z2)
        f = write(tmp_path, "f.json", EXTENSION_MAP)
        code, doc = run(capsys, "classify", a, b, f)
        assert code == 0
        assert doc["result"]["phantom"] is True
        code, doc = run(capsys, "kappa", a, b, f)
        assert code == 0
        assert doc["result"]["is_zero"] is False
        assert doc["result"]["ext_part"] == {"rank": 0, "torsion": ["2"]}

    def test_resolve_and_cone(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", MOORE_Z2)
        code, doc = run(capsys, "resolve", a)
        assert code == 0
        assert doc["result"]["p0"]["even_rank"] == 1
        assert doc["result"]["delta1"]["f_even"]["data"] == [["2"]]
        ident = write(tmp_path, "id.json", {
            "f_even": {"rows": 1, "cols": 1, "data": [["1"]]},
            "f_odd": {"rows": 1, "cols": 1, "data": [["1"]]}})
        code, doc = run(capsys, "cone", a, a, ident)
        assert code == 0
        assert doc["result"]["homology"]["even"] == {"rank": 0, "torsion": []}

    def test_ring_ops(self, tmp_path, capsys):
        rm = write(tmp_path, "rm.json", {
            "ring": {"kind": "quotient", "poly": ["-1", "0", "1"]},
            "generators": 1,
            "relations": {"rows": 1, "cols": 0, "data": [[]]},
            "t_action": {"rows": 1, "cols": 1, "data": [["1"]]}})
        code, doc = run(capsys, "ring-ext", rm, rm, "--n", "2")
        assert code == 0 and doc["result"] == {"rank": 0, "torsion": ["2"]}
        code, doc = run(capsys, "ring-tor", rm, rm, "--n", "1")
        assert code == 0 and doc["result"] == {"rank": 0, "torsion": ["2"]}

    def test_ring_ops_in_high_degree(self, tmp_path, capsys):
        # The resolution is periodic from stage 2, so degree 100000 costs
        # what degree 2 does.  Pins: the norm-element resolution of C_4.
        def trivial(name, k):
            return write(tmp_path, name, {
                "ring": {"kind": "quotient", "poly": ["-1", "0", "0", "0", "1"]},
                "generators": 1,
                "relations": {"rows": 1, "cols": 1 if k else 0, "data": [[str(k)] if k else []]},
                "t_action": {"rows": 1, "cols": 1, "data": [["1"]]}})

        z, z6 = trivial("z.json", 0), trivial("z6.json", 6)
        for n in (100000, 100001):
            for k, a in ((0, z), (6, z6)):
                code, doc = run(capsys, "ring-ext", z, a, "--n", str(n))
                assert code == 0
                assert group_from_json(doc["result"]).canonical == \
                    cyclic_group_cohomology_pin(4, k, n), (n, k)
                code, doc = run(capsys, "ring-tor", z, a, "--n", str(n))
                assert code == 0
                assert group_from_json(doc["result"]).canonical == \
                    cyclic_group_homology_pin(4, k, n), (n, k)

    def test_ring_ops_in_huge_degree(self, tmp_path, capsys):
        # Degrees from 5 on fold onto 3 or 4 of the same parity, so --n
        # 10**18 builds no more than --n 4 and prints the same document,
        # and HH is the zero group above degree 1: each returns at once.
        m = write(tmp_path, "m.json", {
            "ring": {"kind": "quotient", "poly": ["-1", "0", "1"]},
            "generators": 2,
            "relations": {"rows": 2, "cols": 1, "data": [["3"], ["3"]]},
            "t_action": {"rows": 2, "cols": 2, "data": [["0", "1"], ["1", "0"]]}})
        hh = write(tmp_path, "hh.json", HH_SIGN_ON_Z)
        start = time.perf_counter()
        for command in ("ring-ext", "ring-tor"):
            for huge, small in ((10**18, 4), (10**18 + 1, 3)):
                docs = [run(capsys, command, m, m, "--n", str(k)) for k in (huge, small)]
                assert docs[0] == docs[1] and docs[0][0] == 0, (command, huge)
        code, doc = run(capsys, "hh", hh, "--n", str(10**18))
        assert code == 0 and doc["result"] == {"rank": 0, "torsion": []}
        assert time.perf_counter() - start < 5.0

    def test_negative_degrees_exit_2_with_their_own_message(self, tmp_path, capsys):
        m = write(tmp_path, "m.json", {
            "ring": {"kind": "quotient", "poly": ["-1", "0", "1"]},
            "generators": 1,
            "relations": {"rows": 1, "cols": 0, "data": [[]]},
            "t_action": {"rows": 1, "cols": 1, "data": [["1"]]}})
        hh = write(tmp_path, "hh.json", HH_SIGN_ON_Z)
        for command, paths, name in (("ring-ext", (m, m), "Ext"), ("ring-tor", (m, m), "Tor"),
                                     ("hh", (hh,), "Hochschild")):
            code, doc = run(capsys, command, *paths, "--n", "-1")
            assert code == 2 and doc["error"]["message"] == f"{name} degree must be >= 0"

    def test_pv_and_kunneth(self, tmp_path, capsys):
        pv = write(tmp_path, "pv.json", {
            "even": {"rank": 1, "torsion": []}, "odd": {"rank": 0, "torsion": []},
            "alpha_even": {"rows": 1, "cols": 1, "data": [["-1"]]},
            "alpha_odd": {"rows": 0, "cols": 0, "data": []}})
        code, doc = run(capsys, "pv", pv)
        assert code == 0
        assert doc["result"]["exact"] is True
        assert doc["result"]["degree1"]["coker_end"] == {"rank": 0, "torsion": ["2"]}
        a = write(tmp_path, "a.json", MOORE_Z2)
        code, doc = run(capsys, "kunneth-check", a, a)
        assert code == 0 and doc["result"]["match"] is True

    def test_selftest(self, capsys):
        code, doc = run(capsys, "selftest", "--seed", "5")
        assert code == 0
        assert doc["result"]["all_passed"] is True


class TestContracts:
    def test_determinism_byte_identical(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", MOORE_Z2)
        main(["uct", a, a])
        first = capsys.readouterr().out
        main(["uct", a, a])
        second = capsys.readouterr().out
        assert first == second

    def test_repeated_job_does_the_same_work(self, tmp_path, capsys, monkeypatch):
        # Nothing a job computes may outlive it: run twice in one process,
        # a job runs the same Smith forms and writes the same document.
        from homkit import intlinalg
        calls = []
        real_snf = intlinalg.snf

        def counted(a):
            calls.append(a)
            return real_snf(a)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "homkit" and getattr(module, "snf", None) is real_snf:
                monkeypatch.setattr(module, "snf", counted)
        # Z/5 in place of Z/2: no earlier test builds these complexes, so a
        # memo filled by earlier tests could not hide a difference here.
        a = write(tmp_path, "a.json", {**MOORE_Z2, "e": {"rows": 1, "cols": 1, "data": [["5"]]}})
        b = write(tmp_path, "b.json",
                  {**SUSP_MOORE_Z2, "d": {"rows": 1, "cols": 1, "data": [["-5"]]}})
        f = write(tmp_path, "f.json", EXTENSION_MAP)
        for args in (["uct", a, b], ["kappa", a, b, f]):
            runs = []
            for _ in range(2):
                calls.clear()
                assert main(args) == 0
                runs.append((len(calls), capsys.readouterr().out))
            assert runs[0] == runs[1]

    def test_output_groups_reparse_isomorphic(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", MOORE_Z2)
        code, doc = run(capsys, "homology", a)
        even = group_from_json(doc["result"]["even"])
        assert even.canonical == (0, (2,))

    def test_out_flag(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", MOORE_Z2)
        target = tmp_path / "result.json"
        code = main(["--out", str(target), "homology", a])
        assert code == 0
        assert capsys.readouterr().out == ""
        doc = json.loads(target.read_text())
        assert doc["command"] == "homology"

    def test_digest_depends_on_content(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", MOORE_Z2)
        b = write(tmp_path, "b.json", SUSP_MOORE_Z2)
        _, doc_a = run(capsys, "homology", a)
        _, doc_b = run(capsys, "homology", b)
        assert doc_a["inputs_digest"] != doc_b["inputs_digest"]


class TestFailureModes:
    def test_snf_round_trip_beyond_the_digit_limit(self, tmp_path, capsys):
        # 5,000 digits is past the interpreter's default int/str limit.
        big = "7" + "0" * 4998 + "3"
        m = write(tmp_path, "m.json", {"rows": 2, "cols": 2, "data": [[big, "0"], ["0", "-1"]]})
        code, doc = run(capsys, "snf", m)
        assert code == 0
        assert doc["result"]["diagonal"] == ["1", big]
        plain = tmp_path / "plain.json"
        plain.write_text('{"rows": 1, "cols": 1, "data": [[-' + big + ']]}')
        code, doc = run(capsys, "snf", str(plain))
        assert code == 0 and doc["result"]["diagonal"] == [big]

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, doc = run(capsys, "snf", str(path))
        assert code == 2
        assert doc["error"]["code"] == "validation"

    def test_byte_order_mark_gets_the_json_loads_message(self, tmp_path, capsys):
        path = tmp_path / "bom.json"
        path.write_bytes("\ufeff{}".encode("utf-8"))
        code, doc = run(capsys, "homology", str(path))
        try:
            json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            expected = f"malformed JSON in {path}: {exc}"
        assert code == 2 and doc["error"]["message"] == expected

    def test_deeply_nested_json(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, doc = run(capsys, "homology", str(path))
        assert code == 2
        assert doc["error"]["code"] == "validation"
        assert doc["error"]["message"].startswith(f"malformed JSON in {path}: ")

    def test_schema_violation(self, tmp_path, capsys):
        path = write(tmp_path, "bad.json", {"rows": 2, "cols": 1, "data": [["1"]]})
        code, doc = run(capsys, "snf", path)
        assert code == 2

    def test_missing_file(self, capsys):
        code, doc = run(capsys, "snf", "does-not-exist.json")
        assert code == 2

    def test_precondition_failure(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", MOORE_Z2)
        b = write(tmp_path, "b.json", SUSP_MOORE_Z2)
        bad = write(tmp_path, "bad.json", {
            "f_even": {"rows": 1, "cols": 1, "data": [["1"]]},
            "f_odd": {"rows": 1, "cols": 1, "data": [["0"]]}})
        code, doc = run(capsys, "classify", a, b, bad)
        assert code == 2
        assert "chain map" in doc["error"]["message"]

    def test_negative_rank_rejected(self, tmp_path, capsys):
        b = write(tmp_path, "b.json", {"rank": 0, "torsion": ["6"]})
        for doc in ({"rank": -1, "torsion": ["2"]}, {"rank": -2}):
            g = write(tmp_path, "g.json", doc)
            code, out = run(capsys, "group-op", "--op", "hom", g, b)
            assert code == 2
            assert "rank must be >= 0" in out["error"]["message"]

    def test_constructor_errors_name_the_input_file(self, tmp_path, capsys):
        # Checks made by a constructor, past the schema, still say which
        # input file (and field) they reject.
        def error(*args):
            code, doc = run(capsys, *args)
            assert code == 2
            return doc["error"]["message"]

        g = write(tmp_path, "g.json", {"rank": 0, "torsion": ["4", "6"]})
        assert error("group-op", "--op", "hom", g, g) == \
            f"{g}: invariant factors must be in divisibility order"
        a = write(tmp_path, "a.json", MOORE_Z2)
        b = write(tmp_path, "b.json", SUSP_MOORE_Z2)
        bad = write(tmp_path, "bad.json", {**MOORE_Z2, "d": MOORE_Z2["e"]})
        assert error("homology", bad) == \
            f"{bad}: not a complex: differentials do not square to zero"
        bad_map = write(tmp_path, "map.json", {**EXTENSION_MAP, "f_even": EXTENSION_MAP["f_odd"]})
        assert error("classify", a, b, bad_map) == \
            f"{bad_map}: not a chain map: squares do not commute"
        module = {"ring": {"kind": "quotient", "poly": ["-1", "0", "1"]}, "generators": 1,
                  "relations": {"rows": 1, "cols": 0, "data": [[]]},
                  "t_action": {"rows": 1, "cols": 1, "data": [["2"]]}}
        m = write(tmp_path, "m.json", module)
        assert error("ring-ext", m, m, "--n", "1") == \
            f"{m}: p(t) does not annihilate the module"
        ring = write(tmp_path, "ring.json", {**module, "ring": {"kind": "quotient", "poly": ["1"]}})
        assert error("ring-tor", ring, ring, "--n", "1") == \
            f"{ring}.ring.poly: polynomial must have degree >= 1"

    def test_shape_errors_name_the_matrix(self, tmp_path, capsys):
        # An hh or pv matrix of the wrong shape for its group, or one that
        # does not map relations into relations, is named by its file and
        # field, like every other validation failure.
        def cases(even, alpha_even, odd, alpha_odd, bad, message):
            hh = {"group": even, "lambda": alpha_even, "rho": alpha_even}
            pv = {"even": even, "odd": odd, "alpha_even": alpha_even, "alpha_odd": alpha_odd}
            return [(command, doc, key, extra, bad, message)
                    for command, doc, keys, extra in (("hh", hh, ("lambda", "rho"), ("--n", "0")),
                                                      ("pv", pv, ("alpha_even", "alpha_odd"), ()))
                    for key in keys]

        z, trivial = {"rank": 1, "torsion": []}, {"rank": 0, "torsion": []}
        one = {"rows": 1, "cols": 1, "data": [["1"]]}
        empty = {"rows": 0, "cols": 0, "data": []}
        wide = {"rows": 1, "cols": 2, "data": [["1", "0"]]}
        # On Z/2 + Z (the torsion generator e0 first), [[1, 0], [1, 1]] sends
        # the relation 2 e0 to 2 e0 + 2 e1.
        z2_z = {"rank": 1, "torsion": ["2"]}
        ident = {"rows": 2, "cols": 2, "data": [["1", "0"], ["0", "1"]]}
        shear = {"rows": 2, "cols": 2, "data": [["1", "0"], ["1", "1"]]}
        for command, doc, key, extra, bad, message in (
                cases(z, one, trivial, empty, wide, "homomorphism matrix has wrong shape")
                + cases(z2_z, ident, z2_z, ident, shear,
                        "matrix does not map relations into relations")):
            path = write(tmp_path, f"{command}.json", {**doc, key: bad})
            code, out = run(capsys, command, path, *extra)
            assert code == 2 and out["error"] == {
                "code": "validation", "message": f"{path}.{key}: {message}"}
            code, out = run(capsys, command, write(tmp_path, "ok.json", doc), *extra)
            assert code == 0, out

    def test_kappa_requires_phantom(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", MOORE_Z2)
        ident = write(tmp_path, "id.json", {
            "f_even": {"rows": 1, "cols": 1, "data": [["1"]]},
            "f_odd": {"rows": 1, "cols": 1, "data": [["1"]]}})
        code, doc = run(capsys, "kappa", a, a, ident)
        assert code == 2
        assert "phantom" in doc["error"]["message"]

    def test_unwritable_out_path(self, tmp_path, capsys):
        # On the success path and on the error path alike, a failed write
        # to --out is reported on stdout with exit 2.
        m = write(tmp_path, "m.json", {"rows": 1, "cols": 1, "data": [["2"]]})
        target = str(tmp_path / "missing" / "x.json")
        for path in (m, str(tmp_path / "absent.json")):
            code, doc = run(capsys, "--out", target, "snf", path)
            assert code == 2
            assert doc["error"]["code"] == "validation"
            assert doc["error"]["message"].startswith(f"cannot write output file {target}")
        assert not (tmp_path / "missing").exists()

    def test_no_partial_output_on_failure(self, tmp_path, capsys):
        # A failing command emits exactly one error document, nothing else.
        path = tmp_path / "bad.json"
        path.write_text("[1, 2")
        code = main(["snf", str(path)])
        out = capsys.readouterr().out
        assert code == 2
        doc = json.loads(out)  # parses as a single document
        assert set(doc) == {"error"}


class TestEndomorphismInputs:
    def test_each_input_matrix_is_checked_once(self, tmp_path, capsys, monkeypatch):
        # hh and pv run on the maps the CLI built from the input matrices.
        # Every construction checks, so each input matrix is built into a
        # map, and checked against its group, once.
        from homkit import abgroups
        checked = []
        real_init = abgroups.GroupHom.__init__

        def counted_init(self, source, target, matrix):
            checked.append(matrix)
            real_init(self, source, target, matrix)

        monkeypatch.setattr(abgroups.GroupHom, "__init__", counted_init)
        # On Z/2 + Z (the torsion generator e0 first): lam negates e1, rho
        # sends e1 to e0 + e1; they commute modulo 2 e0.
        z2_z = {"rank": 1, "torsion": ["2"]}
        lam = {"rows": 2, "cols": 2, "data": [["1", "0"], ["0", "-1"]]}
        rho = {"rows": 2, "cols": 2, "data": [["1", "1"], ["0", "1"]]}
        z3_unit = {"rows": 1, "cols": 1, "data": [["2"]]}
        jobs = (("hh", {"group": z2_z, "lambda": lam, "rho": rho}, ("lambda", "rho"), ("--n", "0")),
                ("pv", {"even": z2_z, "odd": {"rank": 0, "torsion": ["3"]},
                        "alpha_even": rho, "alpha_odd": z3_unit}, ("alpha_even", "alpha_odd"), ()))
        for command, doc, keys, extra in jobs:
            checked.clear()
            code, out = run(capsys, command, write(tmp_path, f"{command}.json", doc), *extra)
            assert code == 0, out
            for key in keys:
                matrix = jsonio.matrix_from_json(doc[key], key)
                assert checked.count(matrix) == 1, (command, key)


class TestCommandTable:
    def test_parser_is_shared_without_leaking_options(self, tmp_path, capsys):
        hh = write(tmp_path, "hh.json", {
            "group": {"rank": 1, "torsion": []},
            "lambda": {"rows": 1, "cols": 1, "data": [["1"]]},
            "rho": {"rows": 1, "cols": 1, "data": [["-1"]]}})
        code, doc = run(capsys, "hh", hh, "--n", "0", "--variant", "cohomology")
        assert code == 0 and doc["result"] == {"rank": 0, "torsion": []}
        # Same process, same parser object: the default variant is back.
        code, doc = run(capsys, "hh", hh, "--n", "0")
        assert code == 0 and doc["result"] == {"rank": 0, "torsion": ["2"]}
        assert cli._parser() is cli._parser()

    def test_inputs_digested_in_table_order(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", MOORE_Z2)
        b = write(tmp_path, "b.json", SUSP_MOORE_Z2)
        _, doc = run(capsys, "hoclasses", a, b)
        expected = hashlib.sha256(
            (tmp_path / "a.json").read_bytes() + (tmp_path / "b.json").read_bytes()).hexdigest()
        assert doc["inputs_digest"] == expected

    def test_readme_lists_exactly_the_table(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        listing = readme.split("\nCommands: ", 1)[1].split("\n\n", 1)[0]
        named = [item.split()[0] for item in re.findall(r"`([^`]+)`", listing)]
        assert named == [cmd.name for cmd in cli.COMMANDS]

    def test_readme_usage_line_matches_the_parser(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        usage = next(line for line in readme.splitlines() if line.startswith("homkit ["))
        flags = set(re.findall(r"--[a-z-]+", usage))
        known = {"--out"} | {flag for cmd in cli.COMMANDS for flag, _ in cmd.options}
        assert flags == known
        # Global options come before the command, as argparse requires.
        assert usage.index("--out") < usage.index("<command>")


class TestPlainCommandLines:
    @pytest.mark.parametrize("workload, count", [("small-jobs", 45), ("ring-modules", 30),
                                                 ("uct-ladder", 30)])
    def test_benchmark_command_lines_read_as_argparse_reads_them(self, tmp_path, workload,
                                                                 count):
        # Every command line the benchmark runs is plain, so none of its
        # jobs builds the argparse parser.
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run([sys.executable, "-B", "-c", _GENERATE, str(ROOT / "bench"),
                               workload, str(count), str(tmp_path)],
                              env=env, capture_output=True, text=True, timeout=170)
        assert proc.returncode == 0, proc.stderr
        argvs = json.loads(proc.stdout)
        assert len(argvs) == count
        for argv in argvs:
            args = cli._plain_args(argv)
            assert args is not None, argv
            assert vars(args) == vars(cli._parser().parse_args(argv))

    @pytest.mark.parametrize("argv", [
        [], ["-h"], ["--help"], ["homology"], ["homology", "a", "b"], ["homology", "a", "-h"],
        ["homology", "a", "--out", "o"], ["--out", "homology", "a"], ["--out=o", "homology", "a"],
        ["--o", "o", "homology", "a"], ["nosuch", "a"], ["--", "homology", "a"],
        ["homology", "--", "a"], ["homology", "-"], ["homology", ""], ["ext", "a", "b"],
        ["ext", "a", "b", "--n=3"], ["ext", "a", "b", "--n", "-1"], ["ext", "a", "b", "--n", "x"],
        ["ext", "a", "b", "--n"], ["ext", "a", "b", "--n", "1", "--n", "2"],
        ["hh", "a", "--n", "1", "--va", "cohomology"], ["hh", "a", "--n", "1", "--variant", "co"],
        ["group-op", "a", "b", "--op", "bogus"], ["selftest", "--seed", "1.5"], ["uct", "--va", "1"],
    ])
    def test_other_forms_are_left_to_argparse(self, argv):
        assert cli._plain_args(argv) is None

    def test_a_plain_job_builds_no_parser(self, tmp_path):
        cli._parser.cache_clear()
        a = write(tmp_path, "a.json", MOORE_Z2)
        assert main(["--out", str(tmp_path / "o.json"), "ext", "--n", "1", a, a]) == 0
        assert json.loads((tmp_path / "o.json").read_text())["command"] == "ext"
        assert cli._parser.cache_info().currsize == 0
        # Options left out take the table's defaults, as argparse fills them in.
        for argv in (["selftest"], ["hh", a, "--n", "0"]):
            assert vars(cli._plain_args(argv)) == vars(cli._parser().parse_args(argv))


# Help and malformed command lines, all left to argparse: `homkit -h`, each
# `homkit <cmd> -h`, and one malformed command line per command.
ARGPARSE_ARGVS = [
    ["-h"], [], ["nosuch", "a"], ["--out"],
    *([cmd.name, "-h"] for cmd in cli.COMMANDS),
    ["snf"], ["group-op", "a", "b", "--op", "bogus"], ["homology", "a", "--out", "o"],
    ["hoclasses", "a"], ["cone", "a", "b", "c", "d"], ["uct", "--va", "1"],
    ["ext", "a", "b", "--n", "x"], ["resolve", "a", "--n", "1"],
    ["classify", "a", "b", "map", "--n=1"], ["kappa", "a", "b", "map", "-x"],
    ["ring-ext", "m", "n"], ["ring-tor", "m", "n", "--n", "1", "--n"], ["hh", "x.json", "--n"],
    ["pv", "a", "b"], ["kunneth-check", "a", "b", "--variant", "homology"],
    ["selftest", "--seed", "1.5"],
]
# stdout, stderr and exit code of `python -m homkit.cli ARGV` for each of
# ARGPARSE_ARGVS, recorded under CPython 3.11.7 when argparse read every
# command line.  Other versions, patch releases included, may word help and
# errors differently; there the expected values come from the parser itself.
ARGPARSE_RECORDED = ROOT / "tests" / "argparse_output_cpython3_11_7.json"


def _fresh(argv, cwd, script=None):
    env = dict(os.environ, COLUMNS="80", LINES="24")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    start = ["-c", script] if script else ["-m", "homkit.cli"]
    proc = subprocess.run([sys.executable, *start, *argv], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=60)
    return {"stdout": proc.stdout, "stderr": proc.stderr, "code": proc.returncode}


class TestArgparseOutput:
    def test_one_malformed_command_line_per_command(self):
        malformed = [argv[0] for argv in ARGPARSE_ARGVS[4 + len(cli.COMMANDS):]]
        assert malformed == [cmd.name for cmd in cli.COMMANDS]

    @pytest.mark.parametrize("argv", ARGPARSE_ARGVS, ids=lambda argv: " ".join(argv) or "-")
    def test_help_and_errors_are_argparse_s(self, argv, tmp_path):
        if sys.version_info[:3] == (3, 11, 7):
            recorded = json.loads(ARGPARSE_RECORDED.read_text(encoding="utf-8"))
            expected = recorded[" ".join(argv)]
        else:
            expected = _fresh(argv, tmp_path, "import sys\nfrom homkit import cli\n"
                                              "cli._parser().parse_args(sys.argv[1:])\n")
        assert _fresh(argv, tmp_path) == expected


class TestColdStart:
    def test_import_loads_only_what_every_job_needs(self, tmp_path):
        # Each job runs in a fresh process, so what `import homkit.cli` loads
        # is paid by every job.  It must not load dataclasses (which pulls in
        # inspect, ast and dis), nor relhom and randgen, which only some
        # commands call.  repmod stays loaded: the benchmark's tracer looks
        # up repmod.RModule.__init__ on the loaded module when it builds its
        # plan, and a traced run that never imported repmod fails there.
        # Neither the import nor a plain job loads argparse: a plain command
        # line is read straight from the command table.
        script = ("import sys\n"
                  "before = set(sys.modules)\n"
                  "import homkit.cli\n"
                  "print(' '.join(sorted(set(sys.modules) - before)))\n"
                  "code = homkit.cli.main(['--out', sys.argv[2], 'homology', sys.argv[1]])\n"
                  "print(code, ' '.join(sorted(set(sys.modules) - before)))\n")
        complex_path = write(tmp_path, "a.json", MOORE_Z2)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", script, complex_path,
                               str(tmp_path / "out.json")], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        after_import, after_job = proc.stdout.splitlines()
        loaded = set(after_import.split())
        code, *job_loaded = after_job.split()
        assert "homkit.cli" in loaded and "homkit.repmod" in loaded
        assert not loaded & {"dataclasses", "inspect", "homkit.relhom", "homkit.randgen"}
        assert code == "0" and "argparse" not in loaded | set(job_loaded)

    def test_benchmark_tracer_plans_on_what_the_import_loads(self):
        # A traced benchmark run builds its plan on the modules that
        # `import homkit.cli` loaded.  Every target must resolve there
        # except relhom's, which are plain functions and are skipped as
        # missing; once every homkit module is loaded, none is missing.
        # -B: reading bench/tracing.py leaves no bytecode under bench/.
        script = (
            "import importlib, importlib.util, json, pkgutil, sys\n"
            "spec = importlib.util.spec_from_file_location('tracing', sys.argv[1])\n"
            "tracing = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(tracing)\n"
            "import homkit.cli\n"
            "after_cli = tracing.Tracer()\n"
            "list(after_cli._build_plan())\n"
            "import homkit\n"
            "for info in pkgutil.iter_modules(homkit.__path__):\n"
            "    importlib.import_module('homkit.' + info.name)\n"
            "after_all = tracing.Tracer()\n"
            "list(after_all._build_plan())\n"
            "print(json.dumps([after_cli.missing, after_all.missing, tracing.TARGETS['relhom']]))\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-B", "-c", script,
                               str(ROOT / "bench" / "tracing.py")],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        after_cli, after_all, relhom_targets = json.loads(proc.stdout)
        assert relhom_targets and not any("." in t for t in relhom_targets)
        assert after_cli == [f"relhom.{t}" for t in relhom_targets]
        assert after_all == []


class TestSelftestUnderOptimize:
    def test_sabotaged_check_fails_under_python_O(self):
        # Under -O every assert is stripped; the selftest must still catch a
        # wrong Smith form and report an internal error.
        script = (
            "import sys\n"
            "import homkit.cli as cli\n"
            "from homkit.intlinalg import SmithDecomposition, snf\n"
            "def broken(m):\n"
            "    dec = snf(m)\n"
            "    return SmithDecomposition(dec.rows, dec.cols, tuple(2 * d for d in dec.diagonal),\n"
            "                              dec.row_ops, dec.col_ops)\n"
            "cli.snf = broken\n"
            "sys.exit(cli.main(['selftest', '--seed', '0']))\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["error"]["code"] == "internal"
        assert "InternalCheckError" in doc["error"]["message"]
