"""Batch front end: read JSON descriptions, run one computation, emit JSON.

One invocation runs one job and writes exactly one JSON document to stdout
(or --out): {"command": ..., "inputs_digest": ..., "result": ...}.  Output is
canonical (sorted keys, two-space indent, big integers as decimal strings),
so identical inputs produce byte-identical documents.  Exit status: 0 on
success, 2 on validation failure, 1 on internal error; failures also emit a
single document {"error": {"code", "message"}}.  An --out path that cannot be
written is a validation failure, reported on stdout.

Every command is declared once, in `COMMANDS`; the argument parser is built
from that table.

A job runs in a fresh process, so what `import homkit.cli` loads is paid by
every job: intlinalg, abgroups, percomplex, jsonio and repmod.  relhom is
imported by the six handlers that call it, and randgen (with `random`) by
`selftest` alone.  repmod stays eager, through jsonio: the benchmark's
tracer (bench/tracing.py) resolves `repmod.RModule.__init__` on the loaded
module, and a traced run that never imported repmod fails there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from functools import cache
from math import gcd
from typing import Callable, NamedTuple, Optional, Sequence

from .errors import InputError, InternalCheckError
from . import abgroups, jsonio, repmod
from .intlinalg import IntMatrix, snf
from .percomplex import (
    homology,
    homotopy_classes,
    mapping_cone,
    tensor_complex,
)


# One job per process: inputs are read exactly once and shared between the
# digest and the parser (this also makes pipes and process substitution work).
_raw_inputs: dict[str, bytes] = {}


def _read_bytes(path: str) -> bytes:
    if path not in _raw_inputs:
        try:
            with open(path, "rb") as fh:
                _raw_inputs[path] = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read input file {path}: {exc}") from None
    return _raw_inputs[path]


def _load_json(path: str):
    raw = _read_bytes(path)
    try:
        return json.loads(raw.decode("utf-8"), parse_int=jsonio.decimal_to_int)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:  # nested too deeply
        raise InputError(f"malformed JSON in {path}: {exc}") from None


def _digest(paths: Sequence[str]) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(_read_bytes(path))
    return h.hexdigest()


def _load_complex(path: str):
    return jsonio.complex_from_json(_load_json(path), what=path)


def _load_group(path: str):
    return jsonio.group_from_json(_load_json(path), what=path)


def _load_rmodule(path: str):
    return jsonio.rmodule_from_json(_load_json(path), what=path)


def _load_object(path: str) -> dict:
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise InputError(f"{path}: expected a JSON object")
    return doc


def _load_endomorphism(doc: dict, key: str, group: abgroups.FgAbGroup,
                       path: str) -> abgroups.GroupHom:
    """The endomorphism of `group` with matrix doc[key], checked for shape
    and for mapping relations into relations, with errors naming the field."""
    m = jsonio.matrix_from_json(doc.get(key), f"{path}.{key}")
    try:
        return abgroups.GroupHom(group, group, m)
    except InputError as exc:
        raise InputError(f"{path}.{key}: {exc}") from None


def _load_chain_map(a_path: str, b_path: str, map_path: str):
    a = _load_complex(a_path)
    b = _load_complex(b_path)
    return jsonio.chain_map_from_json(_load_json(map_path), a, b, what=map_path)


# Handlers take the parsed options and the input paths, in the table's order.

def _cmd_snf(args, matrix: str) -> dict:
    dec = snf(jsonio.matrix_from_json(_load_json(matrix), what=matrix))
    return {"diagonal": [jsonio.int_to_decimal(d) for d in dec.diagonal],
            "u": jsonio.matrix_to_json(dec.u),
            "s": jsonio.matrix_to_json(dec.s),
            "v": jsonio.matrix_to_json(dec.v)}


def _cmd_group_op(args, a_path: str, b_path: str) -> dict:
    a, b = _load_group(a_path), _load_group(b_path)
    if args.op == "is-isomorphic":
        return {"isomorphic": abgroups.is_isomorphic(a, b)}
    op = {"hom": abgroups.hom, "ext1": abgroups.ext1,
          "tensor": abgroups.tensor, "tor1": abgroups.tor1}[args.op]
    return jsonio.group_to_json(op(a, b))


def _cmd_homology(args, complex_path: str) -> dict:
    return jsonio.graded_group_to_json(homology(_load_complex(complex_path)))


def _cmd_hoclasses(args, a_path: str, b_path: str) -> dict:
    return jsonio.group_to_json(homotopy_classes(_load_complex(a_path), _load_complex(b_path)))


def _cmd_cone(args, *paths: str) -> dict:
    cone, _, _ = mapping_cone(_load_chain_map(*paths))
    return {"cone": jsonio.complex_to_json(cone),
            "homology": jsonio.graded_group_to_json(homology(cone))}


def _cmd_uct(args, a_path: str, b_path: str) -> dict:
    from . import relhom
    report = relhom.uct_sequence(_load_complex(a_path), _load_complex(b_path))
    return {"hom_part": jsonio.group_to_json(report.hom_part),
            "ext_part": jsonio.group_to_json(report.ext_part),
            "middle": jsonio.group_to_json(report.middle),
            "natural_map_surjective": True,
            "kernel_isomorphic_to_ext_part": True}


def _cmd_ext(args, a_path: str, b_path: str) -> dict:
    from . import relhom
    return jsonio.group_to_json(
        relhom.ideal_ext(_load_complex(a_path), _load_complex(b_path), args.n))


def _cmd_resolve(args, a_path: str) -> dict:
    from . import relhom
    res = relhom.projective_resolution(_load_complex(a_path))
    return {"p0": jsonio.complex_to_json(res.p0),
            "p1": jsonio.complex_to_json(res.p1),
            "delta0": jsonio.chain_map_to_json(res.delta0),
            "delta1": jsonio.chain_map_to_json(res.delta1)}


def _cmd_classify(args, *paths: str) -> dict:
    from . import relhom
    flags = relhom.classify(_load_chain_map(*paths))
    return {"phantom": flags.phantom, "monic": flags.monic,
            "epic": flags.epic, "equivalence": flags.equivalence}


def _cmd_kappa(args, *paths: str) -> dict:
    from . import relhom
    el = relhom.kappa(_load_chain_map(*paths))
    return {"ext_part": jsonio.group_to_json(el.owner),
            "coords": [jsonio.int_to_decimal(c) for c in el.coords],
            "is_zero": el.is_zero()}


def _cmd_ring_ext(args, m_path: str, n_path: str) -> dict:
    return jsonio.group_to_json(
        repmod.ext_over_r(_load_rmodule(m_path), _load_rmodule(n_path), args.n))


def _cmd_ring_tor(args, m_path: str, n_path: str) -> dict:
    return jsonio.group_to_json(
        repmod.tor_over_r(_load_rmodule(m_path), _load_rmodule(n_path), args.n))


def _cmd_hh(args, path: str) -> dict:
    doc = _load_object(path)
    group = jsonio.group_from_json(doc.get("group"), f"{path}.group")
    lam = _load_endomorphism(doc, "lambda", group, path)
    rho = _load_endomorphism(doc, "rho", group, path)
    return jsonio.group_to_json(repmod.hochschild(lam, rho, args.n, args.variant))


def _cmd_pv(args, path: str) -> dict:
    doc = _load_object(path)
    k = jsonio.graded_group_from_json(doc, what=path)
    alpha_even = _load_endomorphism(doc, "alpha_even", k.even, path)
    alpha_odd = _load_endomorphism(doc, "alpha_odd", k.odd, path)
    report = repmod.pv_sequence(alpha_even, alpha_odd)
    return {"degree0": {"coker_end": jsonio.group_to_json(report.degree0.coker_end),
                        "ker_end": jsonio.group_to_json(report.degree0.ker_end)},
            "degree1": {"coker_end": jsonio.group_to_json(report.degree1.coker_end),
                        "ker_end": jsonio.group_to_json(report.degree1.ker_end)},
            "exact": True}


def _cmd_kunneth_check(args, a_path: str, b_path: str) -> dict:
    from . import relhom
    a, b = _load_complex(a_path), _load_complex(b_path)
    computed = homology(tensor_complex(a, b))
    predicted = relhom.kunneth_prediction(homology(a), homology(b))
    return {"computed": jsonio.graded_group_to_json(computed),
            "predicted": jsonio.graded_group_to_json(predicted),
            "match": computed.is_isomorphic_to(predicted)}


def _check(ok: bool, what: str) -> None:
    # Not an assert: the checks must also run under `python -O`.
    if not ok:
        raise InternalCheckError(f"selftest: {what}")


def _cmd_selftest(args) -> dict:
    import random

    from . import randgen, relhom

    rng = random.Random(args.seed)
    checks: dict[str, int] = {}

    for _ in range(100):
        m = randgen.random_matrix(rng, rng.randint(0, 4), rng.randint(0, 4))
        dec = snf(m)
        _check(dec.u @ m @ dec.v == dec.s, "U A V != S")
        mx = m @ IntMatrix.from_rows([[j + 1, 2 - j] for j in range(m.cols)], cols=2)
        x = dec.solve(mx)
        _check(x is not None and m @ x == mx, "solving A X = A x by the Smith form failed")
        diag = dec.diagonal
        _check(all(d >= 0 for d in diag), "negative Smith diagonal entry")
        _check(all(b % a == 0 for a, b in zip(diag, diag[1:]) if a),
               "Smith diagonal out of divisibility order")
    checks["snf_identities"] = 100

    for _ in range(20):
        d, e = rng.randint(2, 9), rng.randint(2, 9)
        g = gcd(d, e)
        zd, ze = abgroups.FgAbGroup.cyclic(d), abgroups.FgAbGroup.cyclic(e)
        for op in (abgroups.hom, abgroups.ext1, abgroups.tensor, abgroups.tor1):
            expected = (0, (g,)) if g > 1 else (0, ())
            _check(op(zd, ze).canonical == expected,
                   f"{op.__name__}(Z/{d}, Z/{e}) is not Z/{g}")
    checks["cyclic_closed_forms"] = 20

    for _ in range(8):
        relhom.uct_sequence(randgen.random_complex(rng, 2), randgen.random_complex(rng, 2))
    checks["uct_reports"] = 8

    for _ in range(8):
        a, b = randgen.random_complex(rng, 2), randgen.random_complex(rng, 2)
        computed = homology(tensor_complex(a, b))
        _check(computed.is_isomorphic_to(relhom.kunneth_prediction(homology(a), homology(b))),
               "tensor homology differs from the Kunneth prediction")
    checks["kunneth"] = 8

    for _ in range(8):
        x = randgen.random_acyclic_complex(rng)
        _check(homotopy_classes(x, x).is_trivial(),
               "acyclic complex has a nonzero self-map class")
    checks["acyclic_self_maps"] = 8

    for _ in range(8):
        k = randgen.random_graded_group(rng, max_rank=1)
        ae, ao = randgen.random_graded_automorphism(rng, k)
        repmod.pv_sequence(abgroups.GroupHom(k.even, k.even, ae),
                           abgroups.GroupHom(k.odd, k.odd, ao))
    checks["pv_reports"] = 8

    rings = ((-1, 0, 1), (-1, 0, 0, 1), (-1, 0, 0, 0, 1), (2, 0, 1), (1, 1))
    for _ in range(8):
        m = randgen.random_rmodule(rng, repmod.QuotientRing(rng.choice(rings)))
        _check(repmod.free_resolution_over_r(m, 6).verify_exact(m),
               "free resolution over Z[t]/(p) is not exact")
    checks["resolutions"] = 8

    return {"seed": args.seed, "checks": checks, "all_passed": True}


class Command(NamedTuple):
    """One CLI command: what runs, its help line, its input files and options."""

    name: str
    handler: Callable[..., dict]
    help: str
    inputs: tuple[str, ...] = ()  # positional input files, in digest order
    options: tuple[tuple[str, dict], ...] = ()  # (flag, add_argument keywords)


_DEGREE = ("--n", {"type": int, "required": True})

COMMANDS = (
    Command("snf", _cmd_snf, "Smith normal form of an integer matrix", ("matrix",)),
    Command("group-op", _cmd_group_op, "binary operation on two groups", ("a", "b"),
            (("--op", {"required": True,
                       "choices": ["hom", "ext1", "tensor", "tor1", "is-isomorphic"]}),)),
    Command("homology", _cmd_homology, "graded homology of a periodic complex", ("complex",)),
    Command("hoclasses", _cmd_hoclasses, "group of homotopy classes [A, B]", ("a", "b")),
    Command("cone", _cmd_cone, "mapping cone of a chain map and its homology",
            ("a", "b", "map")),
    Command("uct", _cmd_uct, "universal-coefficient report for a pair of complexes",
            ("a", "b")),
    Command("ext", _cmd_ext, "derived Ext^n between complexes", ("a", "b"),
            (("--n", {"type": int, "required": True, "help": "derived-functor degree"}),)),
    Command("resolve", _cmd_resolve, "length-1 projective resolution of a complex", ("a",)),
    Command("classify", _cmd_classify, "phantom/monic/epic/equivalence flags of a chain map",
            ("a", "b", "map")),
    Command("kappa", _cmd_kappa, "secondary invariant of a phantom chain map",
            ("a", "b", "map")),
    Command("ring-ext", _cmd_ring_ext, "Ext^n over Z[t]/(p) or the Laurent ring", ("m", "n"),
            (_DEGREE,)),
    Command("ring-tor", _cmd_ring_tor, "Tor_n over Z[t]/(p) or the Laurent ring", ("m", "n"),
            (_DEGREE,)),
    Command("hh", _cmd_hh, "Hochschild (co)homology of the Laurent ring", ("input",),
            (_DEGREE, ("--variant", {"choices": ["homology", "cohomology"],
                                     "default": "homology"}))),
    Command("pv", _cmd_pv, "Pimsner-Voiculescu six-term report", ("input",)),
    Command("kunneth-check", _cmd_kunneth_check,
            "compare tensor homology with the Kunneth prediction", ("a", "b")),
    Command("selftest", _cmd_selftest, "seeded randomized self-checks",
            options=(("--seed", {"type": int, "default": 0}),)),
)


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser for every command in COMMANDS, built once per process."""
    parser = argparse.ArgumentParser(
        prog="homkit",
        description="Batch computations on groups, periodic complexes and ring modules.")
    parser.add_argument("--out", help="write the result document to this path instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in COMMANDS:
        p = sub.add_parser(cmd.name, help=cmd.help)
        for name in cmd.inputs:
            # Each input is appended to args.paths (a fresh list per parse),
            # so the paths arrive in the table's order.
            p.add_argument("paths", metavar=name, action="append")
        for flag, kwargs in cmd.options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(handler=cmd.handler, paths=[])
    return parser


def _emit(doc: dict, out: Optional[str]) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    out = args.out
    _raw_inputs.clear()
    try:
        digest = _digest(args.paths)
        result = args.handler(args, *args.paths)
    except InputError as exc:
        doc, status = {"error": {"code": "validation", "message": str(exc)}}, 2
    except Exception as exc:  # noqa: BLE001 - report, then signal internal error
        doc, status = {"error": {"code": "internal", "message": f"{type(exc).__name__}: {exc}"}}, 1
    else:
        doc, status = {"command": args.command, "inputs_digest": digest, "result": result}, 0
    try:
        _emit(doc, out)
    except OSError as exc:
        _emit({"error": {"code": "validation",
                         "message": f"cannot write output file {out}: {exc}"}}, None)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
