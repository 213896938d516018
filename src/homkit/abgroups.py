"""Finitely generated abelian groups with Hom, Ext1, tensor and Tor1.

Groups are carried by presentation matrices (rows = generators, columns =
relations) and canonicalized to (rank, invariant factors) via Smith form.
Every group that is a subquotient P/Q of some Z^n -- kernels, homology of a
pair, Hom and Tor1 here, and homology, [A, B] and phantom subgroups in the
modules built on this one -- is a `SubquotientGroup`, which keeps a basis
of P as generator representatives.  Hom is the one builder of Kronecker
pair systems and `tensor` the one cokernel builder: with A's relation
basis R and Â = coker(R^T) = Ext^1(A, Z), Tor1(A, B) is Hom(Â, B) and
Ext1(A, B) has the presentation of Â ⊗ B, a cokernel whose coordinates
are a cocycle's entries.  So individual classes can be evaluated and
compared exactly; this is what makes the kappa invariant of
`homkit.relhom` testable rather than an opaque list of invariant factors.
`SubquotientGroup.reduced` presents the same P/Q by its invariant factors,
on the generators of the presentation's Smith basis that no unit relation
kills, with representatives and coordinates read off the decomposition
the group already holds; the UCT is stated on such groups.
"""

from __future__ import annotations

from functools import cached_property
from math import prod
from typing import Optional, Sequence

from .errors import InputError
from .intlinalg import (
    IntMatrix,
    SmithDecomposition,
    Subquotient,
    Vector,
    _record,
    block_diag,
    hstack,
    lattice_quotient,
    snf,
    subquotient,
    unvec,
    unvec_columns,
    vec,
    vec_columns,
    vstack,
)


class FgAbGroup:
    """Finitely generated abelian group given by a presentation matrix."""

    def __init__(self, presentation: IntMatrix):
        self.presentation = presentation

    @classmethod
    def from_invariants(cls, rank: int, torsion: Sequence[int] = ()) -> "FgAbGroup":
        """Canonical presentation: torsion generators first, then free ones."""
        torsion = tuple(int(d) for d in torsion)
        if rank < 0:
            raise InputError("rank must be >= 0")
        if any(d < 2 for d in torsion):
            raise InputError("invariant factors must be >= 2")
        for a, b in zip(torsion, torsion[1:]):
            if b % a != 0:
                raise InputError("invariant factors must be in divisibility order")
        return cls(IntMatrix.diagonal(torsion, rows=len(torsion) + rank, cols=len(torsion)))

    @classmethod
    def trivial(cls) -> "FgAbGroup":
        return cls(IntMatrix.zero(0, 0))

    @classmethod
    def free(cls, n: int) -> "FgAbGroup":
        return cls(IntMatrix.zero(n, 0))

    @classmethod
    def cyclic(cls, d: int) -> "FgAbGroup":
        """Z/d, with the conventions Z/0 = Z and Z/1 = 0."""
        if d < 0:
            raise InputError("cyclic order must be >= 0")
        return cls.from_invariants(0, (d,)) if d >= 2 else cls.free(0 if d == 1 else 1)

    @property
    def ngens(self) -> int:
        return self.presentation.rows

    @cached_property
    def smith(self) -> SmithDecomposition:
        """Smith decomposition of the presentation, the one place it is
        factored: every other question about the presentation reads it."""
        return snf(self.presentation)

    @cached_property
    def relation_basis(self) -> tuple[IntMatrix, IntMatrix]:
        """(M, T): M = presentation @ T is a basis of the relation lattice,
        the first map of the free resolution 0 -> Z^m -> Z^ngens -> group."""
        t = self.smith.image_witness()
        return self.presentation @ t, t

    @cached_property
    def canonical(self) -> tuple[int, tuple[int, ...]]:
        return self.smith.cokernel_invariants

    @property
    def rank(self) -> int:
        return self.canonical[0]

    @property
    def torsion(self) -> tuple[int, ...]:
        return self.canonical[1]

    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    def order(self) -> Optional[int]:
        """Group order, or None for infinite groups."""
        return None if self.rank > 0 else prod(self.torsion)

    def torsion_order(self) -> int:
        return prod(self.torsion)

    def element(self, coords: Sequence[int]) -> "GroupElement":
        coords = tuple(int(c) for c in coords)
        if len(coords) != self.ngens:
            raise InputError("coordinate vector has wrong length")
        return GroupElement(self, coords)

    def coords_are_zero(self, coords: Sequence[int]) -> bool:
        return self.relation_coords(IntMatrix.column_vector(coords)) is not None

    def relation_coords(self, columns: IntMatrix) -> Optional[IntMatrix]:
        """Y with presentation @ Y = columns, or None if some column of
        generator coordinates is not zero in the group."""
        if columns.cols == 0:
            return IntMatrix.zero(self.presentation.cols, 0)
        return self.smith.solve(columns)

    def __repr__(self) -> str:
        rank, torsion = self.canonical
        parts = [f"Z^{rank}"] if rank else []
        parts += [f"Z/{d}" for d in torsion]
        return " + ".join(parts) if parts else "0"


def is_isomorphic(a: FgAbGroup, b: FgAbGroup) -> bool:
    """True iff the canonical forms (rank, invariant factors) coincide."""
    return a.canonical == b.canonical


def _same_coords(a: FgAbGroup, b: FgAbGroup) -> bool:
    """True iff coordinates over a's generators mean the same in b."""
    return a is b or a.presentation == b.presentation


@_record
class GroupElement:
    """Element of an FgAbGroup, stored as coordinates over its generators.

    Elements of two group objects are interoperable when the presentations
    coincide, i.e. when the coordinate systems agree.
    """

    owner: FgAbGroup
    coords: Vector

    def __add__(self, other: "GroupElement") -> "GroupElement":
        if not _same_coords(self.owner, other.owner):
            raise InputError("elements belong to different groups")
        return GroupElement(self.owner, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "GroupElement":
        return GroupElement(self.owner, tuple(-a for a in self.coords))

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return self + (-other)

    def __rmul__(self, c: int) -> "GroupElement":
        return GroupElement(self.owner, tuple(c * a for a in self.coords))

    def is_zero(self) -> bool:
        return self.owner.coords_are_zero(self.coords)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupElement):
            return NotImplemented
        return (self - other).is_zero()  # __add__ rejects elements of other groups

    def __hash__(self):  # elements compare modulo relations; no stable hash
        raise TypeError("GroupElement is unhashable")


@_record
class GradedAbGroup:
    """Z/2-graded finitely generated abelian group."""

    even: FgAbGroup
    odd: FgAbGroup

    def suspend(self) -> "GradedAbGroup":
        return GradedAbGroup(self.odd, self.even)

    def is_isomorphic_to(self, other: "GradedAbGroup") -> bool:
        return is_isomorphic(self.even, other.even) and is_isomorphic(self.odd, other.odd)

    def __repr__(self) -> str:
        return f"({self.even!r}, {self.odd!r})"


class GroupHom:
    """Homomorphism between presented groups, as a matrix on generators.

    Every map is checked when built: a matrix that does not map relations
    into relations is rejected, so exactness needs only the composite test
    and one lift (`is_exact_pair`).

    `image_gens()` presents the cokernel, and the map keeps one cokernel
    group, built on first use; the kernel, surjectivity and `lift` read
    that group's Smith decomposition.  The map has one kernel basis and one
    kernel group, built on first use, so a second kernel or exactness test
    factors nothing.  Injectivity reads the kernel basis only: it solves
    against the source's relations and builds no kernel group.
    """

    def __init__(self, source: FgAbGroup, target: FgAbGroup, matrix: IntMatrix):
        if matrix.rows != target.ngens or matrix.cols != source.ngens:
            raise InputError("homomorphism matrix has wrong shape")
        self.source = source
        self.target = target
        self.matrix = matrix
        if target.relation_coords(matrix @ source.presentation) is None:
            raise InputError("matrix does not map relations into relations")

    @classmethod
    def identity(cls, group: FgAbGroup) -> "GroupHom":
        return cls(group, group, IntMatrix.identity(group.ngens))

    def compose(self, first: "GroupHom") -> "GroupHom":
        """self o first; endpoint groups must share a presentation."""
        if not _same_coords(first.target, self.source):
            raise InputError("homomorphisms are not composable")
        return GroupHom(first.source, self.target, self.matrix @ first.matrix)

    def __add__(self, other: "GroupHom") -> "GroupHom":
        if not (_same_coords(self.source, other.source)
                and _same_coords(self.target, other.target)):
            raise InputError("homomorphisms have different endpoints")
        return GroupHom(self.source, self.target, self.matrix + other.matrix)

    def __sub__(self, other: "GroupHom") -> "GroupHom":
        return self + GroupHom(other.source, other.target, -other.matrix)

    def is_zero(self) -> bool:
        return self.target.relation_coords(self.matrix) is not None

    def image_gens(self) -> IntMatrix:
        """Generators of the preimage in Z^{target gens} of the image subgroup."""
        return hstack(self.matrix, self.target.presentation)

    @cached_property
    def _cokernel(self) -> FgAbGroup:
        return FgAbGroup(self.image_gens())

    @cached_property
    def kernel_gens(self) -> IntMatrix:
        """Basis of the preimage in Z^{source gens} of the kernel subgroup:
        as `intlinalg.preimage_gens(matrix, target relations)`."""
        return self._cokernel.smith.preimage_basis(self.source.ngens)

    @cached_property
    def _kernel(self) -> SubquotientGroup:
        return SubquotientGroup(lattice_quotient(self.kernel_gens, self.source.presentation))

    def kernel(self) -> SubquotientGroup:
        """Kernel subgroup; its basis columns are source-group coordinates."""
        return self._kernel

    kernel_group = kernel

    def cokernel_group(self) -> FgAbGroup:
        return self._cokernel

    def is_surjective(self) -> bool:
        return self._cokernel.is_trivial()

    def is_injective(self) -> bool:
        """The kernel is trivial exactly when its preimage basis lies in the
        source's relations: one solve, and no kernel group is built."""
        return self.source.relation_coords(self.kernel_gens) is not None

    def is_isomorphism(self) -> bool:
        return self.is_surjective() and self.is_injective()

    def lift(self, targets: IntMatrix) -> Optional[IntMatrix]:
        """Source coordinates of one preimage of each column of `targets`
        (target coordinates), or None if some column is not in the image."""
        if targets.rows != self.target.ngens:
            raise InputError("lift: targets have the wrong row count")
        if targets.cols == 0:  # nothing to lift: no need to factor
            return IntMatrix.zero(self.source.ngens, 0)
        sol = self._cokernel.smith.solve(targets)
        if sol is None:
            return None
        return sol[:self.source.ngens, :]

    def inverse_matrix(self) -> IntMatrix:
        """A matrix inducing the inverse homomorphism; requires bijectivity."""
        lifted = self.lift(IntMatrix.identity(self.target.ngens))
        if lifted is None or not self.is_injective():
            raise InputError("homomorphism is not invertible")
        return lifted


def is_exact_pair(f: GroupHom, g: GroupHom) -> bool:
    """Exactness of source --f--> middle --g--> target at the middle group.

    Requires g o f = 0, so im f lies in ker g (both maps respect relations,
    checked when built); ker g lies in im f when f lifts g's kernel basis.
    """
    if not _same_coords(f.target, g.source):
        raise InputError("is_exact_pair: maps are not consecutive")
    if g.target.relation_coords(g.matrix @ f.matrix) is None:
        raise InputError("is_exact_pair: composite is not zero")
    return f.lift(g.kernel_gens) is not None


class DirectSum(FgAbGroup):
    """Direct sum of presented groups, remembering the summands.

    The presentation is block diagonal, so an element's coordinates are its
    components' coordinates, one after the other.
    """

    def __init__(self, parts: Sequence[FgAbGroup]):
        self.parts = tuple(parts)
        super().__init__(block_diag(*(p.presentation for p in self.parts)))


class SubquotientGroup(FgAbGroup):
    """The group P/Q of a Subquotient, generated by the columns of `basis`.

    Generator j is represented by column j of `basis`, a vector of the
    ambient Z^n, so an element's coordinates turn into an ambient
    representative (`ambient`), and the columns of an ambient matrix in P
    into coordinates (`to_coords`), by the decomposition of the basis that
    the subquotient was built with.
    """

    def __init__(self, sq: Subquotient):
        self._sq = sq
        super().__init__(sq.presentation)

    @property
    def basis(self) -> IntMatrix:
        return self._sq.basis

    def to_coords(self, ambient: IntMatrix) -> IntMatrix:
        """Coordinates of each ambient column; all must lie in P."""
        return self._sq.to_coords(ambient)

    def ambient(self, el: GroupElement) -> Vector:
        """Ambient vector of an element of this very group object."""
        if el.owner is not self:
            raise InputError("element does not belong to this group")
        return self._sq.from_coords(el.coords)

    def reduced(self) -> SubquotientGroup:
        """The same group P/Q on the generators of its presentation's Smith
        basis whose invariant factor is not 1, presented by its invariant
        factors as `from_invariants` lays them out (`Subquotient.reduced`).
        Only the presentation's decomposition is read, which `canonical`
        needs anyway."""
        return SubquotientGroup(self._sq.reduced(self.smith))


class HomGroup(SubquotientGroup):
    """Hom(A, B) with per-class matrix certificates: `to_matrix` gives a
    class's matrix on generators, and `from_matrix` the class of a matrix.

    Classes are stored over pairs (X, Y) with X @ M_A = M_B @ Y, where M_A,
    M_B are the presentations, vectorized as vec(X) + vec(Y), modulo the
    pairs (M_B @ W, W @ M_A) and (0, K @ V) for the kernel basis K of M_B,
    read off B's Smith form; X alone determines the homomorphism.  This is
    the one Kronecker pair builder: `Tor1Group` is a Hom group too.
    """

    def __init__(self, source: FgAbGroup, target: FgAbGroup):
        ma_t, mb = source.presentation.transpose(), target.presentation
        ga, ra = ma_t.cols, ma_t.rows
        gb, rb = mb.rows, mb.cols
        kb = target.smith.kernel_basis()
        self._relation_images = ma_t.kron(IntMatrix.identity(gb))  # vec(X) -> vec(X @ M_A)
        l = hstack(self._relation_images, IntMatrix.identity(ra).kron(-mb))
        n1 = vstack(IntMatrix.identity(ga).kron(mb), ma_t.kron(IntMatrix.identity(rb)))
        n2 = vstack(IntMatrix.zero(gb * ga, ra * kb.cols), IntMatrix.identity(ra).kron(kb))
        super().__init__(subquotient(l, hstack(n1, n2)))
        self.source = source
        self.target = target

    def from_matrix(self, x: IntMatrix) -> GroupElement:
        """Class of the homomorphism sending generator j of A to column j of x."""
        if x.rows != self.target.ngens or x.cols != self.source.ngens:
            raise InputError("homomorphism matrix has wrong shape")
        coords = self.from_matrices(IntMatrix.column_vector(vec(x)))
        if coords is None:
            raise InputError("matrix does not define a homomorphism")
        return self.element(coords.column(0))

    def from_matrices(self, xs: IntMatrix) -> Optional[IntMatrix]:
        """Coordinates of the classes of the maps X whose vectorizations
        vec(X) are the columns of xs, one column each, or None if some X
        does not map relations into relations.

        One product by (M_A^T kron I) gives every vec(X @ M_A); one solve
        in B finds every Y with X @ M_A = M_B @ Y, which is the check that
        each X is a homomorphism, and one more the coordinates of all the
        pairs (X, Y), vectorized as this group's basis is.
        """
        if xs.rows != self._relation_images.cols:
            raise InputError("homomorphism matrix has wrong shape")
        r = self.source.presentation.cols
        ys = self.target.relation_coords(
            unvec_columns(self._relation_images @ xs, self.target.ngens, r))
        if ys is None:
            return None
        return self.to_coords(vstack(xs, vec_columns(ys, r, xs.cols)))

    def to_matrix(self, el: GroupElement) -> IntMatrix:
        amb = self.ambient(el)
        gb, ga = self.target.ngens, self.source.ngens
        return unvec(amb[:gb * ga], gb, ga)


class Ext1Group(FgAbGroup):
    """Ext^1(A, B), computed from a length-1 free resolution of A; always
    finite for finitely generated A, B.

    The resolution 0 -> Z^m --R--> Z^g -> A is A's relation basis, so
    cocycle coordinates are reproducible.  Every matrix Z^m -> Z^{gens of B}
    is a cocycle, so the group is the cokernel of the coboundaries, which is
    the presentation of Â ⊗ B for Â = coker(R^T) = Ext^1(A, Z): its
    generators are the entries of a cocycle, and a class's coordinates are
    vec of its cocycle.
    """

    def __init__(self, source: FgAbGroup, target: FgAbGroup):
        self.resolution = source.relation_basis[0]
        super().__init__(tensor(FgAbGroup(self.resolution.transpose()), target).presentation)
        self.target = target

    def from_cocycle(self, x: IntMatrix) -> GroupElement:
        if x.rows != self.target.ngens or x.cols != self.resolution.cols:
            raise InputError("cocycle matrix has wrong shape")
        return self.element(vec(x))


class Tor1Group(HomGroup):
    """Tor_1(A, B) = Hom(Â, B) for Â = coker(R^T) = Ext^1(A, Z), where R is
    A's relation basis: both are the kernel of R ⊗ 1_B.  So `source` is Â,
    and a class is zero exactly when its map Â -> B (`to_matrix`) is."""

    def __init__(self, source: FgAbGroup, target: FgAbGroup):
        super().__init__(FgAbGroup(source.relation_basis[0].transpose()), target)


hom = HomGroup
ext1 = Ext1Group
tor1 = Tor1Group


def tensor(a: FgAbGroup, b: FgAbGroup) -> FgAbGroup:
    """A tensor B, presented by the Kronecker products of the presentations."""
    ma, mb = a.presentation, b.presentation
    return FgAbGroup(hstack(ma.kron(IntMatrix.identity(mb.rows)),
                            IntMatrix.identity(ma.rows).kron(mb)))


def graded_hom(a: GradedAbGroup, b: GradedAbGroup) -> DirectSum:
    """Degree-0 graded Hom: Hom(A0, B0) + Hom(A1, B1)."""
    return DirectSum((hom(a.even, b.even), hom(a.odd, b.odd)))


def graded_ext_shifted(a: GradedAbGroup, b: GradedAbGroup) -> DirectSum:
    """The degree-shifted Ext used by the universal coefficient sequence:
    Ext^1(A0, B1) + Ext^1(A1, B0)."""
    return DirectSum((ext1(a.even, b.odd), ext1(a.odd, b.even)))


def homology_of_pair(f: GroupHom, g: GroupHom) -> SubquotientGroup:
    """ker(g)/im(f) at the middle group of source --f--> middle --g--> target;
    its basis columns are coordinates over the middle group's generators."""
    if not _same_coords(f.target, g.source):
        raise InputError("homomorphisms are not composable")
    if g.target.relation_coords(g.matrix @ f.matrix) is None:
        raise InputError("homology_of_pair: composite is not zero")
    return SubquotientGroup(lattice_quotient(g.kernel_gens, f.image_gens()))
