"""Seeded random instances for self-checks and the test suite.

Everything is driven by a caller-supplied random.Random, so runs are
reproducible.  Complexes are generated with differential entries inside a
stated bound; groups and automorphisms come out in canonical presentations.
"""

from __future__ import annotations

import random
from math import gcd

from .errors import InputError
from .abgroups import FgAbGroup, GradedAbGroup
from .intlinalg import IntMatrix
from .percomplex import (
    ChainMap,
    PeriodicComplex,
    direct_sum,
    homotopy_classes,
    mapping_cone,
    moore_complex,
    suspension,
)


def random_matrix(rng: random.Random, rows: int, cols: int, bound: int = 3) -> IntMatrix:
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)], cols=cols)


def random_group(rng: random.Random, max_rank: int = 2, factors=(2, 2, 3, 4)) -> FgAbGroup:
    rank = rng.randint(0, max_rank)
    torsion: list[int] = []
    d = 1
    for _ in range(rng.randint(0, 2)):
        d *= rng.choice(factors)  # each entry multiplies the previous: chain holds
        torsion.append(d)
    return FgAbGroup.from_invariants(rank, torsion)


def random_graded_group(rng: random.Random, max_rank: int = 2) -> GradedAbGroup:
    return GradedAbGroup(random_group(rng, max_rank), random_group(rng, max_rank))


def random_complex(rng: random.Random, max_rank: int = 3, bound: int = 3) -> PeriodicComplex:
    """A random periodic complex with differential entries in [-bound, bound].

    Mixes three shapes: a one-sided differential (the generic case: any D
    with E = 0, or vice versa, is a complex), a Moore complex of a random
    graded group with small invariant factors, and a small direct sum of the
    two, optionally suspended.
    """
    kind = rng.randrange(4)
    if kind == 0:
        r0, r1 = rng.randint(0, max_rank), rng.randint(0, max_rank)
        if rng.randrange(2):
            x = PeriodicComplex(r0, r1, random_matrix(rng, r1, r0, bound),
                                IntMatrix.zero(r0, r1))
        else:
            x = PeriodicComplex(r0, r1, IntMatrix.zero(r1, r0),
                                random_matrix(rng, r0, r1, bound))
    elif kind == 1:
        x = moore_complex(GradedAbGroup(
            _small_factor_group(rng, bound), _small_factor_group(rng, bound)))
    elif kind == 2:
        x = PeriodicComplex.zero_diff(rng.randint(0, max_rank), rng.randint(0, max_rank))
    else:
        a = moore_complex(GradedAbGroup(
            _small_factor_group(rng, bound, max_rank=0),
            _small_factor_group(rng, bound, max_rank=0)))
        r0, r1 = rng.randint(0, 1), rng.randint(0, 1)
        b = PeriodicComplex(r0, r1, random_matrix(rng, r1, r0, bound), IntMatrix.zero(r0, r1))
        x = direct_sum(a, b)  # ranks stay <= 3: each Moore side <= 2, b <= 1
    if rng.randrange(2):
        x = suspension(x)
    return x


def _small_factor_group(rng: random.Random, bound: int, max_rank: int = 1) -> FgAbGroup:
    rank = rng.randint(0, max_rank)
    torsion = []
    if bound >= 2 and rng.randrange(2):
        d = rng.randint(2, bound)
        torsion.append(d)
    return FgAbGroup.from_invariants(rank, torsion)


def random_chain_map(rng: random.Random, a: PeriodicComplex, b: PeriodicComplex,
                     bound: int = 2) -> ChainMap:
    """Random integer combination of a basis of all chain maps A -> B."""
    hc = homotopy_classes(a, b)
    coeffs = [rng.randint(-bound, bound) for _ in range(hc.ngens)]
    return hc.representative(hc.element(coeffs))


def random_acyclic_complex(rng: random.Random, max_rank: int = 2, bound: int = 3) -> PeriodicComplex:
    """Cones of identities (possibly summed/suspended) are exactly acyclic."""
    x = random_complex(rng, max_rank, bound)
    cone, _, _ = mapping_cone(ChainMap.identity(x))
    if rng.randrange(3) == 0:
        y = random_complex(rng, 1, bound)
        cone2, _, _ = mapping_cone(ChainMap.identity(y))
        cone = direct_sum(cone, cone2)
    if rng.randrange(2):
        cone = suspension(cone)
    return cone


def random_automorphism(rng: random.Random, group: FgAbGroup, steps: int = 5) -> IntMatrix:
    """A random automorphism of a group in canonical presentation.

    Composes elementary automorphisms: unit scalings on torsion generators,
    shears from earlier torsion generators (whose order divides the later
    one) or into free generators, and unimodular shears among free
    generators.  Always lands in the automorphism group by construction.
    """
    torsion = group.torsion
    t = len(torsion)
    rank = group.rank
    n = t + rank
    m = IntMatrix.identity(n)
    for _ in range(steps):
        kind = rng.randrange(4)
        step = None
        if kind == 0 and t:
            i = rng.randrange(t)
            units = [u for u in range(1, torsion[i]) if gcd(u, torsion[i]) == 1]
            u = rng.choice(units)
            step = [[u if r == c == i else (1 if r == c else 0) for c in range(n)]
                    for r in range(n)]
        elif kind == 1 and t >= 2:
            j = rng.randrange(t - 1)
            i = rng.randrange(j + 1, t)
            # Image of the later generator gains the earlier one, whose order
            # divides the later order, so relations are preserved.
            step = _shear(n, row=j, col=i, c=rng.randint(-2, 2))
        elif kind == 2 and t and rank:
            i = rng.randrange(t)
            j = t + rng.randrange(rank)
            # Image of a free generator may gain any torsion element.
            step = _shear(n, row=i, col=j, c=rng.randint(-2, 2))
        elif kind == 3 and rank >= 1:
            j = t + rng.randrange(rank)
            i = t + rng.randrange(rank)
            if i == j:
                step = [[-1 if r == c == i else (1 if r == c else 0) for c in range(n)]
                        for r in range(n)]
            else:
                step = _shear(n, row=i, col=j, c=rng.randint(-2, 2))
        if step is not None:
            m = IntMatrix.from_rows(step, cols=n) @ m
    return m


def _shear(n: int, row: int, col: int, c: int) -> list[list[int]]:
    """Elementary matrix I + c E(row, col): image of generator `col` gains
    c times generator `row`."""
    return [[1 if r == cix else (c if (r, cix) == (row, col) else 0) for cix in range(n)]
            for r in range(n)]


def random_graded_automorphism(rng: random.Random, k: GradedAbGroup) -> tuple[IntMatrix, IntMatrix]:
    return random_automorphism(rng, k.even), random_automorphism(rng, k.odd)


def random_rmodule(rng: random.Random, ring, max_free_rank: int = 2,
                   max_relations: int = 2, bound: int = 2):
    """Random module over a quotient ring, as a quotient of a free module.

    The ambient is R^k with t acting blockwise by the companion matrix; the
    relation lattice is generated by random vectors together with all their
    t-translates, so it is t-stable by construction and p(t) annihilates the
    quotient automatically.
    """
    from .repmod import QuotientRing, RModule

    if not isinstance(ring, QuotientRing):
        raise InputError("random modules are built over quotient rings only")
    d = ring.degree
    k = rng.randint(1, max_free_rank)
    n = d * k
    t = IntMatrix.identity(k).kron(ring.companion_matrix())
    cols = []
    for _ in range(rng.randint(0, max_relations)):
        v = tuple(rng.randint(-bound, bound) for _ in range(n))
        for _ in range(d):
            cols.append(v)
            v = t.apply(v)
    relations = IntMatrix.from_columns(cols, rows=n)
    return RModule(ring, relations, t)
