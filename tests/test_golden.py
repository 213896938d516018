"""Golden hashes of the bases that downstream documents are built from.

The benchmark's job generator reads phantom generator maps, and result
documents depend on the chain-map lattice, the UCT kernel basis and the
Smith forms beneath them.  A change of basis is not a wrong answer, but it
changes those documents; these hashes make such a change fail here, with
the basis named, instead of as a digest mismatch downstream.  The digests
were recorded before the one-pass natural map and the shared per-map
decomposition, except `uct_natural_map` and `uct_kernel`, re-recorded when
`uct_sequence` moved to Smith-reduced presentations of H(A), H(B) and
[A, B]; re-record them only for a deliberate change of basis.
"""

import hashlib
import random

import pytest

from homkit.intlinalg import IntMatrix, snf
from homkit.percomplex import direct_sum, homotopy_classes
from homkit.randgen import random_complex, random_matrix
from homkit.relhom import phantom_subgroup, uct_sequence

GOLDEN = {
    "snf":
        "2802e12e5b10bb2572b883fc16fe3daecdb36a27365462b33bcf6d054f7c6233",
    "chain_map_lattice":
        "cd7645baec1084a322fbdcdcd9b40b4cce06ebe17a5eaaa580be0219bd6234b4",
    "phantom_generator_maps":
        "03318962aa2cadc32a4bfaa43bc755b2cdeb241f4a4263adcefb75deca0d0938",
    "uct_natural_map":
        "7953d2fc1a7c3c8cd996be58e45bde476e6e97c039138e6bb99ce2a11b442926",
    "uct_kernel":
        "ea56cbb0def0ddfcd5f6b6fb7658e45cf22627060d04a5d32d7c3383b0a18ac0",
}


def _digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()


def _shape(m: IntMatrix):
    return m.rows, m.cols, m.data


def _pairs(count: int = 30):
    """Criterion-1 complexes and direct sums of two or three of them."""
    rng = random.Random(8_101)
    for i in range(count):
        sides = []
        for _ in range(2):
            x = random_complex(rng, max_rank=3)
            for _ in range(i % 3):
                x = direct_sum(x, random_complex(rng, max_rank=2))
            sides.append(x)
        yield sides


def _snf_items():
    rng = random.Random(8_102)
    for _ in range(300):
        m = random_matrix(rng, rng.randint(0, 7), rng.randint(0, 7), rng.choice((1, 3, 40)))
        dec = snf(m)
        yield _shape(dec.u), _shape(dec.s), _shape(dec.v)


def _pair_items():
    lattices, phantoms, naturals, kernels = [], [], [], []
    for a, b in _pairs():
        lattices.append(_shape(homotopy_classes(a, b).chain_map_lattice()))
        phantoms.append([(_shape(f.f0), _shape(f.f1))
                         for f in phantom_subgroup(a, b).generator_maps()])
        r = uct_sequence(a, b)
        naturals.append(_shape(r.natural.matrix))
        kernels.append((_shape(r.kernel_group.basis), _shape(r.kernel_group.presentation)))
    return {"chain_map_lattice": lattices, "phantom_generator_maps": phantoms,
            "uct_natural_map": naturals, "uct_kernel": kernels}


@pytest.fixture(scope="module")
def digests():
    found = {name: _digest(items) for name, items in _pair_items().items()}
    found["snf"] = _digest(_snf_items())
    return found


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest(digests, name):
    assert digests[name] == GOLDEN[name], f"{name} changed: a basis or Smith form moved"
