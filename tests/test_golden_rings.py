"""Golden hash of free resolutions over the selftest rings.

Ring Ext/Tor documents are read off the ranks, augmentation and maps of
`free_resolution_over_r`, and which generators unit cancellation drops
depends on the order in which it tests the entries.  A resolution built
another way can be just as exact and still change every document, so this
hash fails first, with the resolutions named.  It was recorded before the
Z-blocks of a map were built once per distinct ring entry and units were
decided by the norm; re-record it only for a deliberate change of
resolution.
"""

import random

from homkit.intlinalg import IntMatrix, block_diag
from homkit.randgen import random_rmodule
from homkit.repmod import QuotientRing, RModule, free_resolution_over_r

from .test_golden import _digest, _shape

RINGS = ((-1, 0, 1), (-1, 0, 0, 1), (-1, 0, 0, 0, 1), (2, 0, 1), (1, 1))

GOLDEN = "567acbf2bb3e8a67dbe758aedfcbf170fda2c47a086a2faafc4969f4693bc9e1"


def _with_trivial_summand(m: RModule, order: int) -> RModule:
    """m plus Z/order (Z for order 0) with t acting as 1."""
    relation = IntMatrix.from_rows([[order]]) if order else IntMatrix.zero(1, 0)
    return RModule(m.ring, block_diag(m.presentation, relation),
                   block_diag(m.t_action, IntMatrix.identity(1)))


def _resolution_items():
    """Random modules over each ring, every other one plus a trivial
    summand (t = 1, annihilated by p(1)), whose resolution is periodic over
    the group rings Z[t]/(t^n - 1)."""
    rng = random.Random(8_103)
    for coefficients in RINGS:
        ring = QuotientRing(coefficients)
        p1 = abs(sum(coefficients))
        for i in range(24):
            m = random_rmodule(rng, ring, max_free_rank=1 + i % 3, max_relations=1 + i % 4,
                               bound=1 + i % 3)
            if i % 2:
                m = _with_trivial_summand(m, rng.choice((0, 2, 3)) if p1 == 0 else p1)
            res = free_resolution_over_r(m, 6)
            yield res.ranks, _shape(res.augmentation), [_shape(d) for d in res.deltas]


def test_ring_resolution_digest():
    assert _digest(_resolution_items()) == GOLDEN, "a free resolution over a selftest ring moved"
