"""2-periodic chain complexes of f.g. free abelian groups.

Objects are pairs of free abelian groups (even, odd) with differentials
D: even -> odd and E: odd -> even satisfying D E = 0 and E D = 0; morphisms
are degree-0 chain maps.  Homotopy classes of chain maps, mapping cones,
suspension and graded tensor products make the homotopy category of such
complexes fully computable.

Degree convention: degree 0 = even, degree 1 = odd; the differential lowers
degree, so D plays the role of every even-degree differential and E of every
odd-degree one.

Sign conventions are frozen here once and for all: suspension negates both
differentials, and the cone differential carries the minus sign on its
source-suspension block.  `TestLaws` in tests/test_relhom.py checks rotation
(cone(iota) -> SB is homotopic to (-Sf) o p, for Sf = (f1, f0) and the
homotopy equivalence p = (0, pi): cone(iota) -> SA) and the octahedral axiom
on u = (id, g): C_f -> C_gf and v = (f[1], id): C_gf -> C_g.
"""

from __future__ import annotations

from typing import Sequence

from .errors import InputError
from .abgroups import FgAbGroup, GradedAbGroup, GroupElement, GroupHom, SubquotientGroup
from .intlinalg import (
    IntMatrix,
    _record,
    block,
    block_diag,
    hstack,
    subquotient,
    unvec,
    unvec_columns,
    vec,
    vec_columns,
    vstack,
)


@_record
class PeriodicComplex:
    """2-periodic complex: d has matrix D in even degrees, E in odd degrees."""

    even_rank: int
    odd_rank: int
    d: IntMatrix  # even -> odd
    e: IntMatrix  # odd -> even

    def __post_init__(self) -> None:
        if self.d.rows != self.odd_rank or self.d.cols != self.even_rank:
            raise InputError("differential D has wrong shape")
        if self.e.rows != self.even_rank or self.e.cols != self.odd_rank:
            raise InputError("differential E has wrong shape")
        if not (self.d @ self.e).is_zero() or not (self.e @ self.d).is_zero():
            raise InputError("not a complex: differentials do not square to zero")

    @classmethod
    def zero_diff(cls, even_rank: int, odd_rank: int) -> "PeriodicComplex":
        return cls(even_rank, odd_rank,
                   IntMatrix.zero(odd_rank, even_rank), IntMatrix.zero(even_rank, odd_rank))


def direct_sum(a: PeriodicComplex, b: PeriodicComplex) -> PeriodicComplex:
    return PeriodicComplex(a.even_rank + b.even_rank, a.odd_rank + b.odd_rank,
                           block_diag(a.d, b.d), block_diag(a.e, b.e))


@_record
class ChainMap:
    """Degree-0 chain map between periodic complexes."""

    source: PeriodicComplex
    target: PeriodicComplex
    f0: IntMatrix  # even -> even
    f1: IntMatrix  # odd -> odd

    def __post_init__(self) -> None:
        a, b = self.source, self.target
        if self.f0.rows != b.even_rank or self.f0.cols != a.even_rank:
            raise InputError("chain map: even component has wrong shape")
        if self.f1.rows != b.odd_rank or self.f1.cols != a.odd_rank:
            raise InputError("chain map: odd component has wrong shape")
        if (b.d @ self.f0 != self.f1 @ a.d) or (b.e @ self.f1 != self.f0 @ a.e):
            raise InputError("not a chain map: squares do not commute")

    @classmethod
    def identity(cls, x: PeriodicComplex) -> "ChainMap":
        return cls(x, x, IntMatrix.identity(x.even_rank), IntMatrix.identity(x.odd_rank))

    def compose(self, first: "ChainMap") -> "ChainMap":
        """self o first."""
        if first.target != self.source:
            raise InputError("chain maps are not composable")
        return ChainMap(first.source, self.target, self.f0 @ first.f0, self.f1 @ first.f1)

    def __add__(self, other: "ChainMap") -> "ChainMap":
        if (self.source, self.target) != (other.source, other.target):
            raise InputError("chain maps have different endpoints")
        return ChainMap(self.source, self.target, self.f0 + other.f0, self.f1 + other.f1)

    def __neg__(self) -> "ChainMap":
        return ChainMap(self.source, self.target, -self.f0, -self.f1)

    def __sub__(self, other: "ChainMap") -> "ChainMap":
        return self + (-other)


def homology(x: PeriodicComplex) -> GradedAbGroup:
    """H_even = ker(D)/im(E), H_odd = ker(E)/im(D)."""
    return GradedAbGroup(homology_group(x, 0), homology_group(x, 1))


def homology_group(x: PeriodicComplex, degree: int) -> SubquotientGroup:
    """H_degree, whose basis columns are cycle representatives."""
    if degree % 2 == 0:
        return SubquotientGroup(subquotient(x.d, x.e))
    return SubquotientGroup(subquotient(x.e, x.d))


def moore_complex(g: GradedAbGroup) -> PeriodicComplex:
    """A periodic complex with prescribed homology.

    Folds a length-1 free resolution of each graded piece: for G0 = coker(M0)
    and G1 = coker(M1), with M0 (n0 x m0) and M1 (n1 x m1) injective, it is
    the direct sum of (Z^{n0}, Z^{m0}, D = 0, E = M0), with homology G0 in
    even degree, and (Z^{m1}, Z^{n1}, D = M1, E = 0), with G1 in odd degree.
    """
    m0 = FgAbGroup.from_invariants(*g.even.canonical).presentation
    m1 = FgAbGroup.from_invariants(*g.odd.canonical).presentation
    return direct_sum(
        PeriodicComplex(m0.rows, m0.cols, IntMatrix.zero(m0.cols, m0.rows), m0),
        PeriodicComplex(m1.cols, m1.rows, m1, IntMatrix.zero(m1.cols, m1.rows)))


def suspension(x: PeriodicComplex) -> PeriodicComplex:
    """Signed translation: even/odd swap, both differentials negated."""
    return PeriodicComplex(x.odd_rank, x.even_rank, -x.e, -x.d)


def mapping_cone(f: ChainMap) -> tuple[PeriodicComplex, ChainMap, ChainMap]:
    """Cone of f: A -> B with the canonical maps B -> cone -> suspension(A).

    cone_even = A_odd + B_even and cone_odd = A_even + B_odd, with
    D(a1, b0) = (-E_A a1, f1 a1 + D_B b0) and symmetrically for E.
    """
    a, b = f.source, f.target
    d = block([[-a.e, IntMatrix.zero(a.even_rank, b.even_rank)],
               [f.f1, b.d]])
    e = block([[-a.d, IntMatrix.zero(a.odd_rank, b.odd_rank)],
               [f.f0, b.e]])
    cone = PeriodicComplex(a.odd_rank + b.even_rank, a.even_rank + b.odd_rank, d, e)
    iota = ChainMap(b, cone,
                    vstack(IntMatrix.zero(a.odd_rank, b.even_rank), IntMatrix.identity(b.even_rank)),
                    vstack(IntMatrix.zero(a.even_rank, b.odd_rank), IntMatrix.identity(b.odd_rank)))
    sa = suspension(a)
    pi = ChainMap(cone, sa,
                  hstack(IntMatrix.identity(a.odd_rank), IntMatrix.zero(a.odd_rank, b.even_rank)),
                  hstack(IntMatrix.identity(a.even_rank), IntMatrix.zero(a.even_rank, b.odd_rank)))
    return cone, iota, pi


class HomotopyClasses(SubquotientGroup):
    """The group [A, B] of homotopy classes of chain maps.

    It is the subquotient of the chain-map constraint kernel inside
    Hom(A0, B0) + Hom(A1, B1) by the null-homotopy boundaries
    (h, k) |-> (E_B h + k D_A, D_B k + h E_A), so each generator's basis
    column is a chain map (f0, f1), vectorized, that represents it.
    """

    def __init__(self, source: PeriodicComplex, target: PeriodicComplex):
        a, b = source, target
        ia0, ia1 = IntMatrix.identity(a.even_rank), IntMatrix.identity(a.odd_rank)
        ib0, ib1 = IntMatrix.identity(b.even_rank), IntMatrix.identity(b.odd_rank)
        # Constraint rows: D_B f0 - f1 D_A = 0 and E_B f1 - f0 E_A = 0.
        l = block([
            [ia0.kron(b.d), (-a.d.transpose()).kron(ib1)],
            [(-a.e.transpose()).kron(ib0), ia1.kron(b.e)],
        ])
        n = block([
            [ia0.kron(b.e), a.d.transpose().kron(ib0)],
            [a.e.transpose().kron(ib1), ia1.kron(b.d)],
        ])
        super().__init__(subquotient(l, n))
        self.source = source
        self.target = target
        self._split = b.even_rank * a.even_rank

    def class_coords(self, maps: Sequence[ChainMap]) -> IntMatrix:
        """Coordinates of the classes of `maps`, one column each, by one solve."""
        if any(f.source != self.source or f.target != self.target for f in maps):
            raise InputError("chain map has the wrong endpoints")
        return self.to_coords(IntMatrix.from_columns(
            [vec(f.f0) + vec(f.f1) for f in maps], rows=self.basis.rows))

    def class_of(self, f: ChainMap) -> GroupElement:
        return self.element(self.class_coords([f]).column(0))

    def _component(self, v: Sequence[int], degree: int) -> IntMatrix:
        """The degree-`degree` matrix of a vectorized chain map (f0, f1)."""
        a, b = self.source, self.target
        if degree == 0:
            return unvec(v[:self._split], b.even_rank, a.even_rank)
        return unvec(v[self._split:], b.odd_rank, a.odd_rank)

    def representative(self, el: GroupElement) -> ChainMap:
        amb = self.ambient(el)
        return ChainMap(self.source, self.target, self._component(amb, 0), self._component(amb, 1))

    def precompose(self, maps: IntMatrix, degree: int, z: IntMatrix) -> IntMatrix:
        """vec(F Z) for the degree-`degree` component F of each column of
        `maps`, a vectorized chain map A -> B (such as a basis column of
        [A, B]): since vec(F Z) = (Z^T kron I) vec(F), one product by that
        matrix on the degree's rows of `maps`, however many columns."""
        if degree == 0:
            components, nb = maps[:self._split, :], self.target.even_rank
        else:
            components, nb = maps[self._split:, :], self.target.odd_rank
        return z.transpose().kron(IntMatrix.identity(nb)) @ components

    def induced_matrices(self, maps: IntMatrix, degree: int, ha: SubquotientGroup,
                         hb: SubquotientGroup) -> IntMatrix:
        """For the columns of `maps`, vectorized chain maps A -> B (such as
        the basis of [A, B]), the maps they induce from ha = H_degree(A) to
        hb = H_degree(B), as `induced_map` writes them, vectorized: column g
        is vec(X_g).  One product (`precompose`) takes every map's component
        to its images of ha's cycles, and one solve in hb, which fails on
        any image that is not a cycle, finds all of X."""
        images = unvec_columns(self.precompose(maps, degree, ha.basis), hb.basis.rows, ha.ngens)
        return vec_columns(hb.to_coords(images), ha.ngens, maps.cols)

    def is_null_homotopic(self, f: ChainMap) -> bool:
        return self.class_of(f).is_zero()

    def chain_map_lattice(self) -> IntMatrix:
        """Basis of all chain maps A -> B, as vectorized (f0, f1) columns."""
        return self.basis

    def generators(self) -> list[ChainMap]:
        return [self.representative(self.element(e))
                for e in IntMatrix.identity(self.ngens).columns()]


homotopy_classes = HomotopyClasses


@_record
class GradedGroupHom:
    """Pair of homomorphisms between the graded pieces of two graded groups."""

    even: GroupHom
    odd: GroupHom

    def is_zero(self) -> bool:
        return self.even.is_zero() and self.odd.is_zero()

    def is_injective(self) -> bool:
        return self.even.is_injective() and self.odd.is_injective()

    def is_surjective(self) -> bool:
        return self.even.is_surjective() and self.odd.is_surjective()


def induced_map(f: ChainMap, ha: GradedAbGroup, hb: GradedAbGroup) -> GradedGroupHom:
    """The graded map ha -> hb induced by f, for ha = H(f.source) and
    hb = H(f.target) with cycle representatives as basis columns (as
    `homology` builds them); independent of homotopy."""
    return GradedGroupHom(*(GroupHom(sa, sb, sb.to_coords(m @ sa.basis))
                            for m, sa, sb in ((f.f0, ha.even, hb.even), (f.f1, ha.odd, hb.odd))))


def induced_on_homology(f: ChainMap) -> GradedGroupHom:
    """The well-defined graded map H(A) -> H(B); independent of homotopy."""
    return induced_map(f, homology(f.source), homology(f.target))


def tensor_complex(a: PeriodicComplex, b: PeriodicComplex) -> PeriodicComplex:
    """Graded tensor product with the Koszul sign d(x y) = dx y + (-1)^|x| x dy.

    even = A0 B0 + A1 B1, odd = A0 B1 + A1 B0, with the A-index major in
    each Kronecker block.
    """
    ia0, ia1 = IntMatrix.identity(a.even_rank), IntMatrix.identity(a.odd_rank)
    ib0, ib1 = IntMatrix.identity(b.even_rank), IntMatrix.identity(b.odd_rank)
    d = block([
        [ia0.kron(b.d), a.e.kron(ib1)],
        [a.d.kron(ib0), ia1.kron(-b.e)],
    ])
    e = block([
        [ia0.kron(b.e), a.e.kron(ib0)],
        [a.d.kron(ib1), ia1.kron(-b.d)],
    ])
    return PeriodicComplex(a.even_rank * b.even_rank + a.odd_rank * b.odd_rank,
                           a.even_rank * b.odd_rank + a.odd_rank * b.even_rank, d, e)
