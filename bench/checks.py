"""Output checks: a job passes only if its result document survives all of them.

Every document must be canonical JSON (sorted keys, two-space indent, one
trailing newline), name its command, and carry the SHA-256 of its input
files.  The result is then compared with seed-independent facts: closed
forms computed by `oracle` from what the generator recorded, and the
bookkeeping identities the paper's sequences force.  For the default seed
the document must also match the digest committed in expected/.
"""

from __future__ import annotations

import hashlib
import json

import oracle

Problems = list[str]


def _group(doc) -> oracle.Canonical:
    rank, torsion = doc["rank"], [int(d) for d in doc["torsion"]]
    if not isinstance(rank, int) or rank < 0:
        raise ValueError(f"bad rank {rank!r}")
    if any(d < 2 for d in torsion) or any(b % a for a, b in zip(torsion, torsion[1:])):
        raise ValueError(f"torsion {torsion} is not an invariant-factor chain")
    return rank, tuple(torsion)


def _canon(g) -> oracle.Canonical:
    return g[0], tuple(g[1])


def _graded(doc) -> list[oracle.Canonical]:
    return [_group(doc["even"]), _group(doc["odd"])]


def _matrix(doc) -> list[list[int]]:
    rows = [[int(x) for x in r] for r in doc["data"]]
    if len(rows) != doc["rows"] or any(len(r) != doc["cols"] for r in rows):
        raise ValueError("matrix shape does not match its data")
    return rows


def _graded_hom(ha, hb) -> oracle.Canonical:
    return oracle.direct_sum(oracle.hom(ha[0], hb[0]), oracle.hom(ha[1], hb[1]))


def _graded_ext(ha, hb) -> oracle.Canonical:
    return oracle.direct_sum(oracle.ext1(ha[0], hb[1]), oracle.ext1(ha[1], hb[0]))


def _expect(problems: Problems, what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got}, expected {want}")


def _middle_bookkeeping(problems: Problems, middle, ha, hb) -> None:
    hom, ext = _graded_hom(ha, hb), _graded_ext(ha, hb)
    _expect(problems, "[A, B] rank", middle[0], hom[0])
    _expect(problems, "[A, B] torsion order", oracle.order(middle),
            oracle.order(ext) * oracle.order(hom))


def _check_snf(problems, result, files, facts) -> None:
    a = _matrix(files["matrix"])
    u, s, v = _matrix(result["u"]), _matrix(result["s"]), _matrix(result["v"])
    rows, cols = len(a), files["matrix"]["cols"]
    _expect(problems, "U A V", oracle.matmul(oracle.matmul(u, a, cols), v, cols), s)
    _expect(problems, "|det U|", abs(oracle.determinant(u)), 1)
    _expect(problems, "|det V|", abs(oracle.determinant(v)), 1)
    diag = [int(x) for x in result["diagonal"]]
    _expect(problems, "diagonal", diag, [s[i][i] for i in range(min(rows, cols))])
    _expect(problems, "S off-diagonal", [x for i, r in enumerate(s) for j, x in enumerate(r)
                                         if i != j and x], [])
    _expect(problems, "nonzero invariants", [d for d in diag if d], facts["diagonal"])
    zeros_trail = all(not d for d in diag[len(facts["diagonal"]):])
    _expect(problems, "zeros trail", zeros_trail, True)


def _check_group_op(problems, result, argv, facts) -> None:
    a, b = _canon(facts["a"]), _canon(facts["b"])
    op = argv[argv.index("--op") + 1]
    if op == "is-isomorphic":
        _expect(problems, "isomorphic", result["isomorphic"], a == b)
        return
    want = {"hom": oracle.hom, "ext1": oracle.ext1, "tensor": oracle.tensor,
            "tor1": oracle.tor1}[op](a, b)
    _expect(problems, op, _group(result), want)


def _check_cone(problems, result, files) -> None:
    a, b = files["a"], files["b"]
    cone = result["cone"]
    _expect(problems, "cone ranks", (cone["even_rank"], cone["odd_rank"]),
            (a["odd_rank"] + b["even_rank"], a["even_rank"] + b["odd_rank"]))
    d, e = _matrix(cone["d"]), _matrix(cone["e"])
    n0, n1 = cone["even_rank"], cone["odd_rank"]
    _expect(problems, "cone D E", oracle.matmul(d, e, n1), [[0] * n1 for _ in range(n1)])
    _expect(problems, "cone E D", oracle.matmul(e, d, n0), [[0] * n0 for _ in range(n0)])
    _expect(problems, "cone homology", _graded(result["homology"]),
            list(oracle.complex_homology(n0, n1, d, e)))


def _check_resolve(problems, result, files, ha) -> None:
    a = files["a"]
    for name in ("p0", "p1"):
        p = result[name]
        _expect(problems, f"{name} differentials", [x for m in (p["d"], p["e"])
                                                     for r in _matrix(m) for x in r if x], [])
    f0, f1 = _matrix(result["delta0"]["f_even"]), _matrix(result["delta0"]["f_odd"])
    p0 = result["p0"]
    _expect(problems, "D_A delta0", oracle.matmul(_matrix(a["d"]), f0, p0["even_rank"]),
            [[0] * p0["even_rank"] for _ in range(a["odd_rank"])])
    _expect(problems, "E_A delta0", oracle.matmul(_matrix(a["e"]), f1, p0["odd_rank"]),
            [[0] * p0["odd_rank"] for _ in range(a["even_rank"])])
    relations = result["delta1"]
    got = [oracle.cokernel(_matrix(relations["f_even"]), p0["even_rank"]),
           oracle.cokernel(_matrix(relations["f_odd"]), p0["odd_rank"])]
    _expect(problems, "coker delta1 = H(A)", got, ha)


def _check_ring(problems, result, argv, facts) -> None:
    got = _group(result)
    if "ring_n" not in facts:  # Laurent ring: the two-term resolution
        if facts["degree"] >= 2:
            _expect(problems, "Ext/Tor above degree 1", got, (0, ()))
        return
    if any(kind != "perm" for kind, _ in facts["m"]):
        return  # no closed form once M has a Z/k summand
    # Z[t]/(t^n - 1) is the group ring of C_n.  By Shapiro's lemma Ext/Tor
    # out of a permutation module on p points (p = 1: trivial Z, p = n: the
    # ring itself) is the (co)homology of its stabilizer, of order n/p, with
    # coefficients in N, on which t acts trivially.
    n = facts["ring_n"]
    want = oracle.direct_sum(*(
        oracle.cyclic_cohomology(n // points, 0 if kind == "perm" else k, facts["degree"],
                                 homology=argv[0] == "ring-tor")
        for _, points in facts["m"] for kind, k in facts["n"]))
    _expect(problems, f"{argv[0]} closed form", got, want)


def _check_hh(problems, result, facts) -> None:
    got = _group(result)
    if facts["degree"] >= 2:
        _expect(problems, "HH above degree 1", got, (0, ()))
    elif facts["rho_is_lambda"]:
        _expect(problems, "HH with u = 1", got, _canon(facts["group"]))


def _check_pv(problems, result) -> None:
    _expect(problems, "exact", result["exact"], True)
    ends = {deg: {k: _group(v) for k, v in result[deg].items()} for deg in ("degree0", "degree1")}
    # coker and ker of the same endomorphism alpha - 1 have equal rank.
    _expect(problems, "rank coker(a0-1) = rank ker(a0-1)",
            ends["degree1"]["coker_end"][0], ends["degree0"]["ker_end"][0])
    _expect(problems, "rank coker(a1-1) = rank ker(a1-1)",
            ends["degree0"]["coker_end"][0], ends["degree1"]["ker_end"][0])


def _check_kunneth(problems, result, ha, hb) -> None:
    t, tor = oracle.tensor, oracle.tor1
    even = oracle.direct_sum(t(ha[0], hb[0]), t(ha[1], hb[1]), tor(ha[0], hb[1]),
                             tor(ha[1], hb[0]))
    odd = oracle.direct_sum(t(ha[0], hb[1]), t(ha[1], hb[0]), tor(ha[0], hb[0]),
                            tor(ha[1], hb[1]))
    _expect(problems, "match", result["match"], True)
    _expect(problems, "computed", _graded(result["computed"]), [even, odd])
    _expect(problems, "predicted", _graded(result["predicted"]), [even, odd])


def check_result(argv: list[str], files: dict, facts: dict, result) -> Problems:
    """Seed-independent checks of one job's `result` object."""
    problems: Problems = []
    command = argv[0]
    ha = [_canon(g) for g in facts["ha"]] if "ha" in facts else None
    hb = [_canon(g) for g in facts["hb"]] if "hb" in facts else None
    if command == "snf":
        _check_snf(problems, result, files, facts)
    elif command == "group-op":
        _check_group_op(problems, result, argv, facts)
    elif command == "homology":
        _expect(problems, "homology", _graded(result), ha)
    elif command == "hoclasses":
        _middle_bookkeeping(problems, _group(result), ha, hb)
    elif command == "uct":
        _expect(problems, "hom part", _group(result["hom_part"]), _graded_hom(ha, hb))
        _expect(problems, "ext part", _group(result["ext_part"]), _graded_ext(ha, hb))
        _middle_bookkeeping(problems, _group(result["middle"]), ha, hb)
        _expect(problems, "certificates", (result["natural_map_surjective"],
                                           result["kernel_isomorphic_to_ext_part"]), (True, True))
    elif command == "kappa":
        ext = _group(result["ext_part"])
        _expect(problems, "ext part", ext, _graded_ext(ha, hb))
        coords = [int(c) for c in result["coords"]]
        if ext == (0, ()) and not result["is_zero"]:
            problems.append("kappa is nonzero in a trivial Ext part")
        if not any(coords) and not result["is_zero"]:
            problems.append("zero coordinates reported as a nonzero class")
    elif command == "cone":
        _check_cone(problems, result, files)
    elif command == "ext":
        n = int(argv[argv.index("--n") + 1])
        want = _graded_hom(ha, hb) if n == 0 else _graded_ext(ha, hb) if n == 1 else (0, ())
        _expect(problems, f"Ext^{n}", _group(result), want)
    elif command == "resolve":
        _check_resolve(problems, result, files, ha)
    elif command == "classify":
        flags = result
        if flags["phantom"]:
            _expect(problems, "phantom and monic", flags["monic"], ha == [(0, ()), (0, ())])
            _expect(problems, "phantom and epic", flags["epic"], hb == [(0, ()), (0, ())])
        _expect(problems, "equivalence", flags["equivalence"], flags["monic"] and flags["epic"])
    elif command in ("ring-ext", "ring-tor"):
        _check_ring(problems, result, argv, facts)
    elif command == "hh":
        _check_hh(problems, result, facts)
    elif command == "pv":
        _check_pv(problems, result)
    elif command == "kunneth-check":
        _check_kunneth(problems, result, ha, hb)
    else:
        problems.append(f"no checks for command {command}")
    return problems


def check_document(argv: list[str], files: dict, file_bytes: list[bytes], facts: dict,
                   raw: bytes, expected_digest: str | None = None) -> Problems:
    """All checks of one result document, as written by the CLI."""
    try:
        doc = json.loads(raw)
    except ValueError as exc:
        return [f"result is not JSON: {exc}"]
    if not isinstance(doc, dict) or "result" not in doc:
        return [f"not a result document: {raw[:200]!r}"]
    problems: Problems = []
    if raw != (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode():
        problems.append("document is not in canonical form")
    _expect(problems, "command", doc.get("command"), argv[0])
    digest = hashlib.sha256(b"".join(file_bytes)).hexdigest()
    _expect(problems, "inputs_digest", doc.get("inputs_digest"), digest)
    try:
        problems += check_result(argv, files, facts, doc["result"])
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        problems.append(f"malformed result: {type(exc).__name__}: {exc}")
    if expected_digest is not None:
        _expect(problems, "digest for the default seed", document_digest(raw), expected_digest)
    return problems


def document_digest(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()[:16]
