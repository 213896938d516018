"""The homological ideal of phantom maps and its derived machinery.

A chain map is phantom when it induces zero on homology; the phantom classes
form an ideal of the homotopy category, and every notion here (monic, epic,
exact, projective resolution, derived Ext, the universal-coefficient sequence
and the kappa invariant) is computed through that ideal.  Morphism groups
[A, B] are always produced by brute-force linear algebra, never inferred from
the short exact sequence that constrains them.  The universal-coefficient
sequence concerns groups up to isomorphism, so `uct_sequence` builds its
Hom and Ext parts, natural map, kernel and checks on Smith-reduced
presentations of H(A), H(B) and the brute-forced [A, B]
(`SubquotientGroup.reduced`); the other entry points keep the
presentations `homology` and `homotopy_classes` return.
"""

from __future__ import annotations

from typing import Sequence

from .errors import InputError, InternalCheckError
from .abgroups import (
    DirectSum,
    Ext1Group,
    FgAbGroup,
    GradedAbGroup,
    GroupElement,
    GroupHom,
    SubquotientGroup,
    graded_ext_shifted,
    graded_hom,
    is_exact_pair,
    is_isomorphic,
    tensor,
    tor1,
)
from .intlinalg import IntMatrix, _record, vstack
from .percomplex import (
    ChainMap,
    HomotopyClasses,
    PeriodicComplex,
    homology,
    homology_group,
    homotopy_classes,
    induced_map,
    induced_on_homology,
    mapping_cone,
    suspension,
)


@_record
class MorphismClassification:
    """Flags for a chain map relative to the homology ideal."""

    phantom: bool
    monic: bool
    epic: bool
    equivalence: bool


def classify(f: ChainMap) -> MorphismClassification:
    """Classify through H(f): monic/epic iff H(f) is injective/surjective."""
    g = induced_on_homology(f)
    monic = g.is_injective()
    epic = g.is_surjective()
    return MorphismClassification(g.is_zero(), monic, epic, monic and epic)


def is_i_exact(objects: Sequence[PeriodicComplex], maps: Sequence[ChainMap], degree: int) -> bool:
    """Exactness of the induced homology sequence at position `degree`.

    maps[i] runs objects[i] -> objects[i+1]; `degree` must be an interior
    position (pad with zero complexes to probe the ends).  Rejects input
    whose consecutive maps around `degree` do not compose null-homotopically.
    """
    if len(maps) != len(objects) - 1:
        raise InputError("need exactly one map between consecutive objects")
    for i, f in enumerate(maps):
        if f.source != objects[i] or f.target != objects[i + 1]:
            raise InputError(f"map {i} does not connect objects {i} and {i + 1}")
    if not 1 <= degree <= len(objects) - 2:
        raise InputError("degree must be an interior position of the sequence")
    fin, fout = maps[degree - 1], maps[degree]
    composite = fout.compose(fin)
    if not homotopy_classes(composite.source, composite.target).is_null_homotopic(composite):
        raise InputError("not a complex: consecutive maps are not null-homotopic")
    middle = homology(fin.target)
    hin = induced_map(fin, homology(fin.source), middle)
    hout = induced_map(fout, middle, homology(fout.target))
    return (is_exact_pair(hin.even, hout.even)
            and is_exact_pair(hin.odd, hout.odd))


@_record
class Resolution:
    """Length-1 projective resolution P1 -> P0 -> A.

    Both P's have vanishing differentials and free entries, which is exactly
    what makes them projective for the homology ideal; the augmented complex
    is exact on homology in every degree.
    """

    p1: PeriodicComplex
    p0: PeriodicComplex
    delta1: ChainMap
    delta0: ChainMap
    nullhomotopy: tuple[IntMatrix, IntMatrix]  # witnesses delta0 o delta1 ~ 0


def projective_resolution(a: PeriodicComplex) -> Resolution:
    """Fold a length-1 free resolution of H(A) into complexes over A.

    P0 collects one free generator per homology generator, mapped to a cycle
    representative; P1 collects the relations.  Degreewise exactness of the
    augmented complex is immediate from the construction and re-verified by
    the test suite through `is_i_exact`.
    """
    h0, h1 = homology_group(a, 0), homology_group(a, 1)
    m0, t0 = h0.relation_basis
    m1, t1 = h1.relation_basis
    p0 = PeriodicComplex.zero_diff(h0.ngens, h1.ngens)
    p1 = PeriodicComplex.zero_diff(m0.cols, m1.cols)
    delta0 = ChainMap(p0, a, h0.basis, h1.basis)
    delta1 = ChainMap(p1, p0, m0, m1)
    # K @ R lists boundaries of A, so delta0 o delta1 = (E_A @ t0, D_A @ t1):
    # (t0, t1) is an explicit null-homotopy witness for the composite.
    return Resolution(p1, p0, delta1, delta0, (t0, t1))


def ideal_ext(a: PeriodicComplex, b: PeriodicComplex, n: int) -> FgAbGroup:
    """Derived Ext^n with the suspension convention of the UCT: Ext^n(S^n A, B).

    Computed honestly as the cohomology of [P0, B] -> [P1, B] at position n
    for a projective resolution P of the n-fold suspension of A, so that
    n = 0 yields the graded Hom of homologies and n = 1 the degree-shifted
    graded Ext^1 appearing in the universal-coefficient sequence; vanishes
    for n >= 2 because resolutions have length 1.
    """
    if n < 0:
        raise InputError("derived-functor degree must be >= 0")
    if n >= 2:
        return FgAbGroup.trivial()
    if n == 1:
        a = suspension(a)
    return ideal_ext_from_resolution(projective_resolution(a), b, n)


def ideal_ext_from_resolution(res: Resolution, b: PeriodicComplex, n: int) -> FgAbGroup:
    """Cohomology of [P0, B] -> [P1, B] at position n for a given resolution;
    the map is precomposition with delta1.

    The value is independent of the chosen resolution; the test suite checks
    this by feeding inequivalent resolutions of the same object.
    """
    if n < 0:
        raise InputError("derived-functor degree must be >= 0")
    if n >= 2:
        return FgAbGroup.trivial()
    hc0 = homotopy_classes(res.p0, b)
    hc1 = homotopy_classes(res.p1, b)
    # Every generator of [P0, B] composed with delta1, one product per
    # degree; the solve in [P1, B] fails on any column that is not a chain map.
    composites = vstack(hc0.precompose(hc0.basis, 0, res.delta1.f0),
                        hc0.precompose(hc0.basis, 1, res.delta1.f1))
    pull = GroupHom(hc0, hc1, hc1.to_coords(composites))
    if n == 0:
        return pull.kernel_group()
    return pull.cokernel_group()


def _natural_map(hc: HomotopyClasses, middle: SubquotientGroup, ha: GradedAbGroup,
                 hb: GradedAbGroup) -> GroupHom:
    """The natural map [A, B] -> gradedHom(H A, H B), for hc = [A, B], a
    presentation `middle` of it whose basis columns are chain maps (hc
    itself, or `hc.reduced()`), and presentations ha, hb of H(A) and H(B)
    whose basis columns are cycles; its source is `middle` and its target
    the Hom part, a `DirectSum` of `HomGroup`s.

    In each degree, `induced_matrices` takes the whole basis of `middle`,
    vectorized chain maps, to the vectorized matrices X_g of the maps
    H(A) -> H(B) that the generators induce, by one Kronecker product and
    one solve in H(B); `from_matrices` takes those columns to their classes
    in Hom by one product and two solves.  The solves are the checks: the
    first fails on an image that is not a cycle and the second on an X_g
    that does not respect relations.  No step runs per generator, and the
    columns are those of the class-by-class `induced_map` and `from_matrix`.
    """
    hom_part = graded_hom(ha, hb)
    blocks = []
    for degree, part in enumerate(hom_part.parts):
        coords = part.from_matrices(hc.induced_matrices(middle.basis, degree, part.source,
                                                        part.target))
        if coords is None:
            raise InternalCheckError("natural map: an induced map does not respect relations")
        blocks.append(coords)
    return GroupHom(middle, hom_part, vstack(*blocks))


@_record
class UctReport:
    """Both ends, the brute-force middle, and the connecting data of the
    universal-coefficient sequence for a pair of complexes.

    The middle group is never synthesized from the ends: extensions of
    abelian groups are not determined by the sequence alone.
    """

    natural: GroupHom
    ext_part: DirectSum

    @property
    def hom_part(self) -> DirectSum:
        return self.natural.target

    @property
    def middle(self) -> SubquotientGroup:
        """[A, B], brute-forced and then Smith-reduced; basis: chain maps."""
        return self.natural.source

    @property
    def kernel_group(self) -> SubquotientGroup:
        """The kernel of the natural map; basis: coordinates in the middle."""
        return self.natural.kernel()


def _reduced(h: GradedAbGroup) -> GradedAbGroup:
    return GradedAbGroup(h.even.reduced(), h.odd.reduced())


def uct_sequence(a: PeriodicComplex, b: PeriodicComplex) -> UctReport:
    """Assemble and verify the sequence 0 -> Ext-part -> [A, B] -> Hom-part -> 0.

    H(A), H(B) and [A, B] are Smith-reduced first (`SubquotientGroup.reduced`):
    the sequence concerns the groups up to isomorphism, and every group,
    map and check below is built on generators that are not killed by a
    unit relation.  [A, B] is still brute-forced from the complexes.
    """
    ha, hb = _reduced(homology(a)), _reduced(homology(b))
    hc = homotopy_classes(a, b)
    report = UctReport(_natural_map(hc, hc.reduced(), ha, hb), graded_ext_shifted(ha, hb))
    _verify_uct(report)
    return report


def _verify_uct(r: UctReport) -> None:
    if not r.natural.is_surjective():
        raise InternalCheckError("UCT: natural map to the Hom part is not surjective")
    if not is_isomorphic(r.kernel_group, r.ext_part):
        raise InternalCheckError("UCT: kernel of the natural map is not the Ext part")
    if r.middle.rank != r.hom_part.rank:
        raise InternalCheckError("UCT: rank bookkeeping failed")
    ext_order = r.ext_part.order()
    if ext_order is None:
        raise InternalCheckError("UCT: Ext part is not finite")
    if r.middle.torsion_order() != ext_order * r.hom_part.torsion_order():
        raise InternalCheckError("UCT: torsion-order bookkeeping failed")


@_record
class PhantomSubgroup:
    """The subgroup of [A, B] of classes vanishing on homology: the kernel
    of the natural map [A, B] -> gradedHom(H A, H B)."""

    natural: GroupHom

    @property
    def group(self) -> SubquotientGroup:
        """The kernel; basis: coordinates in the middle group."""
        return self.natural.kernel()

    @property
    def homotopy(self) -> HomotopyClasses:
        return self.natural.source

    def generator_maps(self) -> list[ChainMap]:
        return [self.homotopy.representative(self.homotopy.element(c))
                for c in self.group.basis.columns()]


def phantom_subgroup(a: PeriodicComplex, b: PeriodicComplex) -> PhantomSubgroup:
    """Kernel of [A, B] -> gradedHom(H A, H B), with generator certificates."""
    hc = homotopy_classes(a, b)
    return PhantomSubgroup(_natural_map(hc, hc, homology(a), homology(b)))


def triangle_homology_maps(f: ChainMap) -> list[GroupHom]:
    """The six maps of the periodic homology sequence of the cone triangle.

    Nodes in order: H0 A, H0 B, H0 C, H1 A, H1 B, H1 C, cyclically; the maps
    out of H C are the degree-shifting connecting maps, induced by the
    cone's projection onto the suspension of A, whose homology is H(A)
    with the degrees swapped.
    """
    cone, iota, pi = mapping_cone(f)
    ha, hb, hc = homology(f.source), homology(f.target), homology(cone)
    hf, hi = induced_map(f, ha, hb), induced_map(iota, hb, hc)
    hp = induced_map(pi, hc, ha.suspend())
    return [hf.even, hi.even, hp.even, hf.odd, hi.odd, hp.odd]


def _extension_class(alpha: GroupHom, beta: GroupHom, ext_group: Ext1Group) -> GroupElement:
    """Class in Ext^1(coker beta's target, alpha's source) of
    0 -> B --alpha--> C --beta--> A -> 0, in ext_group's coordinates.

    Lifts A's generators through beta, pushes the resolution's relations into
    ker beta = im alpha, and pulls them back through alpha.
    """
    lam = beta.lift(IntMatrix.identity(beta.target.ngens))
    cocycle = None if lam is None else alpha.lift(lam @ ext_group.resolution)
    if cocycle is None:
        raise InternalCheckError("element expected in the image failed to lift")
    return ext_group.from_cocycle(cocycle)


def kappa(f: ChainMap) -> GroupElement:
    """The secondary invariant of a phantom map f: A -> T.

    Reads the two homology extensions 0 -> H_n(T) -> H_n(cone f) -> H_{n-1}(A)
    -> 0 off the cone triangle and returns their class in the shifted Ext part
    Ext^1(H0 A, H1 T) + Ext^1(H1 A, H0 T) -- the same group as the kernel of
    the universal-coefficient sequence for [A, T].  Canonical up to one global
    sign (the triangle rotation convention).
    """
    f0, i0, c0, f1, i1, c1 = triangle_homology_maps(f)
    if not (f0.is_zero() and f1.is_zero()):
        raise InputError("kappa is only defined on phantom maps")
    ext_part = graded_ext_shifted(GradedAbGroup(f0.source, f1.source),
                                  GradedAbGroup(f0.target, f1.target))
    # Degree-1 extension: 0 -> H1(T) -> H1(C) -> H0(A) -> 0.
    class_even = _extension_class(i1, c1, ext_part.parts[0])
    # Degree-0 extension: 0 -> H0(T) -> H0(C) -> H1(A) -> 0.
    class_odd = _extension_class(i0, c0, ext_part.parts[1])
    return ext_part.element(class_even.coords + class_odd.coords)


def kunneth_prediction(ha: GradedAbGroup, hb: GradedAbGroup) -> GradedAbGroup:
    """Predicted homology of a tensor product of complexes with the stated
    homologies: the graded tensor product plus the degree-shifted Tor term,
    indices taken mod 2 with the Koszul convention.  The prediction depends
    only on isomorphism classes, so each input group is taken on its
    invariant-factor presentation."""
    ha, hb = (GradedAbGroup(FgAbGroup.from_invariants(*h.even.canonical),
                            FgAbGroup.from_invariants(*h.odd.canonical)) for h in (ha, hb))
    even = DirectSum((tensor(ha.even, hb.even), tensor(ha.odd, hb.odd),
                      tor1(ha.even, hb.odd), tor1(ha.odd, hb.even)))
    odd = DirectSum((tensor(ha.even, hb.odd), tensor(ha.odd, hb.even),
                     tor1(ha.even, hb.even), tor1(ha.odd, hb.odd)))
    return GradedAbGroup(even, odd)
