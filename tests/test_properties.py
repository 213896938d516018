"""Property tests: arbitrary JSON into every jsonio parser raises only
InputError, every CLI command that reads files exits 0 or 2 with one
JSON document, and Smith forms satisfy their defining identities.

The profile is derandomized and keeps no example database, so the suite
stays deterministic.  Integers stay within +-64, so no declared rank or
shape allocates a large matrix.
"""

import contextlib
import io
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from homkit import cli  # noqa: E402
from homkit.errors import InputError  # noqa: E402
from homkit.intlinalg import IntMatrix, snf  # noqa: E402
from homkit.jsonio import (  # noqa: E402
    chain_map_from_json,
    complex_from_json,
    graded_group_from_json,
    group_from_json,
    matrix_from_json,
    rmodule_from_json,
)
from homkit.percomplex import PeriodicComplex  # noqa: E402

from .oracles import det_bareiss  # noqa: E402

SMALL_INT = st.integers(-64, 64)
ENTRY = SMALL_INT | SMALL_INT.map(str) | st.text(max_size=3)  # matrix entries
JSON = st.recursive(
    st.none() | st.booleans() | ENTRY | st.floats(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=4),
    max_leaves=16)


def field(good):
    """A well-formed value half of the time, arbitrary JSON otherwise."""
    return good | JSON


def document(**fields):
    """Objects with the schema's keys, each value from `field`."""
    return st.fixed_dictionaries({k: field(v) for k, v in fields.items()})


def matrix(rows, cols):
    return st.fixed_dictionaries({
        "rows": st.just(rows), "cols": st.just(cols),
        "data": st.lists(st.lists(ENTRY, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows)})


DIM = st.integers(0, 3)
MATRIX = st.tuples(DIM, DIM).flatmap(lambda shape: matrix(*shape))
GROUP = document(rank=SMALL_INT, torsion=st.lists(ENTRY, max_size=3), presentation=MATRIX)


def complex_doc(even, odd):
    # Shapes agree, so that documents get past the shape checks to the algebra.
    return document(even_rank=st.just(even), odd_rank=st.just(odd),
                    d=matrix(odd, even), e=matrix(even, odd))


COMPLEX = st.tuples(DIM, DIM).flatmap(lambda ranks: complex_doc(*ranks))
RING = document(kind=st.sampled_from(["quotient", "laurent"]),
                poly=st.lists(ENTRY, min_size=2, max_size=4).map(lambda p: p + ["1"]))
RMODULE = st.tuples(DIM, DIM).flatmap(lambda shape: document(
    ring=RING, generators=st.just(shape[0]),
    relations=matrix(*shape), t_action=matrix(shape[0], shape[0])))

Z2_COMPLEX = PeriodicComplex(1, 1, IntMatrix.zero(1, 1), IntMatrix.from_rows([[2]]))

PARSERS = {
    "matrix": (matrix_from_json, MATRIX),
    "group": (group_from_json, GROUP),
    "graded_group": (graded_group_from_json, document(even=GROUP, odd=GROUP)),
    "complex": (complex_from_json, COMPLEX),
    "chain_map": (lambda doc: chain_map_from_json(doc, Z2_COMPLEX, Z2_COMPLEX),
                  document(f_even=matrix(1, 1), f_odd=matrix(1, 1))),
    "rmodule": (rmodule_from_json, RMODULE),
}


@pytest.mark.parametrize("name", sorted(PARSERS))
def test_parsers_raise_only_input_error(name):
    parse, schema = PARSERS[name]

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(field(schema))
    def check(doc):
        try:
            parse(doc)
        except InputError:
            pass

    check()


def files(*schemas):
    """One input file per schema: a document's JSON text, or a few characters."""
    return st.tuples(*(st.builds(json.dumps, field(schema)) | st.text(max_size=4)
                       for schema in schemas))


# A complex pair and a chain map document of matching shape.
MAPPED = st.tuples(DIM, DIM, DIM, DIM).flatmap(lambda r: st.tuples(
    complex_doc(r[0], r[1]), complex_doc(r[2], r[3]),
    document(f_even=matrix(r[2], r[0]), f_odd=matrix(r[3], r[1])))).map(
    lambda docs: tuple(json.dumps(doc) for doc in docs))
DEGREES = ["0", "1", "2", "3", "-1"]
DEGREE = [("--n", n) for n in DEGREES]
# Per command: its input files, and option lists whose first entry is valid.
CLI_CASES = {
    "snf": (files(MATRIX), [()]),
    "group-op": (files(GROUP, GROUP),
                 [("--op", op) for op in ("hom", "ext1", "tensor", "tor1", "is-isomorphic")]),
    "homology": (files(COMPLEX), [()]),
    "hoclasses": (files(COMPLEX, COMPLEX), [()]),
    "cone": (MAPPED, [()]),
    "uct": (files(COMPLEX, COMPLEX), [()]),
    "ext": (files(COMPLEX, COMPLEX), DEGREE),
    "resolve": (files(COMPLEX), [()]),
    "classify": (MAPPED, [()]),
    "kappa": (MAPPED, [()]),
    "ring-ext": (files(RMODULE, RMODULE), DEGREE),
    "ring-tor": (files(RMODULE, RMODULE), DEGREE),
    "hh": (files(document(group=GROUP, **{"lambda": MATRIX}, rho=MATRIX)),
           [("--n", n, "--variant", v) for n in DEGREES for v in ("homology", "cohomology")]),
    "pv": (files(document(even=GROUP, odd=GROUP, alpha_even=MATRIX, alpha_odd=MATRIX)), [()]),
    "kunneth-check": (files(COMPLEX, COMPLEX), [()]),
}
DEEP = "[" * 100_000 + "]" * 100_000


def test_cli_cases_cover_every_command_that_reads_files():
    assert set(CLI_CASES) == {cmd.name for cmd in cli.COMMANDS if cmd.inputs}


@pytest.mark.parametrize("command", sorted(CLI_CASES))
def test_cli_exits_0_or_2_with_one_document(command, tmp_path):
    inputs, options = CLI_CASES[command]
    arity = len(next(cmd.inputs for cmd in cli.COMMANDS if cmd.name == command))

    @settings(derandomize=True, database=None, max_examples=12, deadline=None)
    @given(inputs, st.sampled_from(options))
    @example((DEEP,) * arity, options[0])
    def check(texts, opts):
        paths = []
        for i, text in enumerate(texts):
            path = tmp_path / f"input{i}.json"
            path.write_text(text, encoding="utf-8")
            paths.append(str(path))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main([command, *paths, *opts])
        doc = json.loads(out.getvalue())  # exactly one document, or this raises
        assert code in (0, 2), doc
        assert ("error" in doc) == (code == 2)

    check()


SNF_ENTRY = st.sampled_from([-1, 0, 0, 1]) | st.integers(-30, 30) | st.integers(-10**6, 10**6)
SNF_MATRIX = st.tuples(st.integers(0, 6), st.integers(0, 6)).flatmap(
    lambda shape: st.lists(st.lists(SNF_ENTRY, min_size=shape[1], max_size=shape[1]),
                           min_size=shape[0], max_size=shape[0]).map(
        lambda rows: IntMatrix.from_rows(rows, cols=shape[1])))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(SNF_MATRIX)
def test_snf_identities(a):
    dec = snf(a)
    assert dec.u @ a @ dec.v == dec.s
    assert abs(det_bareiss([list(r) for r in dec.u.data])) == 1
    assert abs(det_bareiss([list(r) for r in dec.v.data])) == 1
    off_diagonal = [x for i, row in enumerate(dec.s.data) for j, x in enumerate(row) if i != j]
    assert not any(off_diagonal)
    diag = dec.diagonal
    assert all(d >= 0 for d in diag)
    nonzero = [d for d in diag if d]
    assert diag[:len(nonzero)] == tuple(nonzero), "zeros must trail"
    assert all(b % c == 0 for c, b in zip(nonzero, nonzero[1:]))
