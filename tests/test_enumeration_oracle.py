"""Literal enumeration cross-checks for homotopy-class groups.

For one-generator complexes the chain-map and null-homotopy conditions can
be written out by hand; these tests count residue classes by exhaustive
search over a box, entirely bypassing the package's linear algebra.
"""

import random

from homkit.abgroups import FgAbGroup, GradedAbGroup
from homkit.intlinalg import IntMatrix
from homkit.percomplex import (
    PeriodicComplex,
    homotopy_classes,
    moore_complex,
    suspension,
)


def enumerate_classes(chain_map_pred, boundary_gen, box):
    """Count distinct classes {maps in box} / {boundaries}, by brute force.

    `chain_map_pred` filters integer tuples that are chain maps;
    `boundary_gen` yields boundary tuples for homotopy parameters in a wider
    box.  Two maps are identified when their difference is a boundary.
    """
    maps = [m for m in box if chain_map_pred(m)]
    boundaries = set(boundary_gen())
    classes = []
    for m in maps:
        for rep in classes:
            if tuple(a - b for a, b in zip(m, rep)) in boundaries:
                break
        else:
            classes.append(m)
    return len(classes)


class TestSelfMapsOfMooreComplexes:
    def test_moore_cyclic_self_maps(self):
        # moore(Z/d): even = odd = Z, D = 0, E = [d].  Chain maps are pairs
        # (x, x); boundaries are (d h, d h).  The class group is Z/d.
        for d in (2, 3, 4, 5):
            box = [(x, y) for x in range(-2 * d, 2 * d + 1)
                   for y in range(-2 * d, 2 * d + 1)]

            def is_chain_map(m, d=d):
                return d * m[1] == d * m[0]

            def boundaries(d=d):
                for h in range(-4 * d, 4 * d + 1):
                    yield (d * h, d * h)

            count = enumerate_classes(is_chain_map, boundaries, box)
            m = moore_complex(GradedAbGroup(FgAbGroup.cyclic(d), FgAbGroup.trivial()))
            assert homotopy_classes(m, m).order() == count == d

    def test_shifted_pair(self):
        # [moore(Z/2), suspension(moore(Z/3))]: source (D, E) = (0, [2]),
        # target (D, E) = ([-3], 0).  Chain maps (f0, f1) need
        # D_B f0 = f1 D_A  (-3 f0 = 0) and E_B f1 = f0 E_A (0 = 2 f0),
        # so f0 = 0 and f1 is free; boundaries: f0 = 0*h + k*0 = 0,
        # f1 = D_B k + h E_A = -3k + 2h, which spans gcd(3, 2) Z = Z.
        box = [(0, y) for y in range(-6, 7)]

        def is_chain_map(m):
            return m[0] == 0

        def boundaries():
            for h in range(-9, 10):
                for k in range(-9, 10):
                    yield (0, -3 * k + 2 * h)

        count = enumerate_classes(is_chain_map, boundaries, box)
        a = moore_complex(GradedAbGroup(FgAbGroup.cyclic(2), FgAbGroup.trivial()))
        b = suspension(moore_complex(GradedAbGroup(FgAbGroup.cyclic(3), FgAbGroup.trivial())))
        assert homotopy_classes(a, b).order() == count == 1

    def test_phantom_pair_enumeration(self):
        # [moore(Z/2), suspension(moore(Z/2))]: target (D, E) = ([-2], 0).
        # Chain maps: -2 f0 = 0 and 0 = 2 f0 force f0 = 0, f1 free;
        # boundaries: f1 = -2k + 2h spans 2Z, leaving Z/2.
        box = [(0, y) for y in range(-4, 5)]

        def is_chain_map(m):
            return m[0] == 0

        def boundaries():
            for h in range(-6, 7):
                for k in range(-6, 7):
                    yield (0, -2 * k + 2 * h)

        count = enumerate_classes(is_chain_map, boundaries, box)
        a = moore_complex(GradedAbGroup(FgAbGroup.cyclic(2), FgAbGroup.trivial()))
        b = suspension(a)
        assert homotopy_classes(a, b).order() == count == 2


class TestBigIntegers:
    def test_snf_with_huge_entries(self):
        from homkit.intlinalg import snf
        big = 10**30
        m = IntMatrix.from_rows([[2 * big, 4 * big], [6 * big, 8 * big + 2]])
        dec = snf(m)
        assert dec.u @ m @ dec.v == dec.s
        diag = dec.diagonal
        assert all(b % a == 0 for a, b in zip(diag, diag[1:]) if a)

    def test_group_ops_with_huge_orders(self):
        from homkit.abgroups import hom, tensor
        big = 10**24
        a = FgAbGroup.cyclic(2 * big)
        b = FgAbGroup.cyclic(3 * big)
        assert hom(a, b).canonical == (0, (big,))
        assert tensor(a, b).canonical == (0, (big,))


class TestClassificationConsistency:
    def test_phantom_and_monic_forces_trivial_source_homology(self):
        from homkit.percomplex import homology
        from homkit.randgen import random_chain_map, random_complex
        from homkit.relhom import classify
        rng = random.Random(163)
        for _ in range(40):
            a, b = random_complex(rng, 2), random_complex(rng, 2)
            f = random_chain_map(rng, a, b)
            flags = classify(f)
            if flags.phantom and flags.monic:
                h = homology(a)
                assert h.even.is_trivial() and h.odd.is_trivial()
