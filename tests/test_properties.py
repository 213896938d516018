"""Property tests: arbitrary JSON into every jsonio parser raises only InputError.

The profile is derandomized and keeps no example database, so the suite
stays deterministic.  Integers stay within +-64, so no declared rank or
shape allocates a large matrix.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from homkit.errors import InputError  # noqa: E402
from homkit.intlinalg import IntMatrix  # noqa: E402
from homkit.jsonio import (  # noqa: E402
    chain_map_from_json,
    complex_from_json,
    graded_group_from_json,
    group_from_json,
    matrix_from_json,
    rmodule_from_json,
)
from homkit.percomplex import PeriodicComplex  # noqa: E402

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
# Shapes agree, so that documents get past the shape checks to the algebra.
COMPLEX = st.tuples(DIM, DIM).flatmap(lambda ranks: document(
    even_rank=st.just(ranks[0]), odd_rank=st.just(ranks[1]),
    d=matrix(ranks[1], ranks[0]), e=matrix(ranks[0], ranks[1])))
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
