"""Modules over Z[t]/(p(t)) and Z[t, 1/t]: resolutions, Ext/Tor, HH, PV.

A module is a finitely generated abelian group (Z-presentation) together with
a matrix giving the action of t on its generators.  Over a monogenic quotient
ring the free resolution is built greedily by iterated kernels: the Z-basis
of each kernel is promoted to a set of ring generators, which keeps every
stage exact as a complex of abelian groups at the price of possible
redundancy.  Over the Laurent ring the fixed two-term free bimodule
resolution applies instead, which collapses Hochschild theory to kernels and
cokernels of u - 1 for u = lambda rho^{-1}.  Laurent Ext/Tor are read off
the same way, as the Z-relative groups H^*(Z; Hom_Z(M, N)) and
H_*(Z; M (x) N); these equal Ext/Tor over Z[t, 1/t] only when M is Z-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Union

from .errors import InputError, InternalCheckError
from .abgroups import (
    DirectSum,
    FgAbGroup,
    GradedAbGroup,
    GroupHom,
    hom,
    homology_of_pair,
    is_exact_pair,
    tensor,
)
from .intlinalg import (
    IntMatrix,
    hstack,
    kernel_basis,
    lattice_contains,
    lattices_equal,
    preimage_gens,
    solve,
    vstack,
)


@dataclass(frozen=True)
class QuotientRing:
    """Z[t]/(p(t)) for a monic p of degree >= 1; coefficients low-to-high."""

    coefficients: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coefficients) < 2:
            raise InputError("polynomial must have degree >= 1")
        if self.coefficients[-1] != 1:
            raise InputError("polynomial must be monic")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def companion_matrix(self) -> IntMatrix:
        """Action of t on the Z-basis 1, t, ..., t^(d-1) of the ring."""
        d = self.degree
        return IntMatrix.from_rows(
            [[(1 if i == j + 1 else 0) - (self.coefficients[i] if j == d - 1 else 0)
              for j in range(d)] for i in range(d)])

    def evaluate(self, m: IntMatrix) -> IntMatrix:
        """p(m) by Horner's rule."""
        acc = IntMatrix.identity(m.rows)
        result = IntMatrix.zero(m.rows, m.cols)
        for c in self.coefficients:
            result = result + acc.scale(c)
            acc = acc @ m
        return result


@dataclass(frozen=True)
class LaurentRing:
    """Z[t, 1/t]; t acts as an automorphism on its modules."""


BaseRing = Union[QuotientRing, LaurentRing]


class RModule:
    """F.g. module over a BaseRing: Z-presentation plus a t-action matrix."""

    def __init__(self, ring: BaseRing, presentation: IntMatrix, t_action: IntMatrix):
        if t_action.rows != presentation.rows or t_action.cols != presentation.rows:
            raise InputError("t-action must be square on the generators")
        self.ring = ring
        self.presentation = presentation
        self.t_action = t_action
        self.group = FgAbGroup(presentation)
        self._t_hom = GroupHom(self.group, self.group, t_action)  # checks relations
        if isinstance(ring, QuotientRing):
            pt = ring.evaluate(t_action)
            if not lattice_contains(presentation, pt):
                raise InputError("p(t) does not annihilate the module")
        else:
            if not self._t_hom.is_isomorphism():
                raise InputError("t must act as an automorphism over the Laurent ring")

    @property
    def ngens(self) -> int:
        return self.presentation.rows

    def t_inverse_matrix(self) -> IntMatrix:
        return self._t_hom.inverse_matrix()


@dataclass(frozen=True)
class FreeResolutionR:
    """Augmented complex F_len -> ... -> F_0 -> M of free modules over Z[t]/(p).

    F_i is free of rank ranks[i]; as a Z-module it is Z^(d * rank) with basis
    e_1, e_1 t, ..., e_1 t^(d-1), e_2, ... and t acting blockwise by the
    companion matrix.  `augmentation` maps F_0 onto M (columns = images of
    the Z-basis in M's generators); `deltas[i]` is the Z-matrix of
    F_(i+1) -> F_i.
    """

    ring: QuotientRing
    ranks: tuple[int, ...]
    augmentation: IntMatrix
    deltas: tuple[IntMatrix, ...]

    def verify_exact(self, module: RModule) -> bool:
        """Exactness as Z-complexes at every computed interior stage."""
        rel = module.presentation
        ker = preimage_gens(self.augmentation, rel)
        for delta in self.deltas:
            if not lattices_equal(ker, delta):
                return False
            ker = kernel_basis(delta)
        return True


def free_resolution_over_r(module: RModule, length: int) -> FreeResolutionR:
    """Greedy free resolution over a quotient ring, by iterated kernels.

    Deterministic: the Z-generators of each kernel (a Smith-form kernel
    basis, in order, with R-redundant ones skipped) become the ring
    generators of the next stage.
    """
    ring = module.ring
    if not isinstance(ring, QuotientRing):
        raise InputError("free resolutions are built over quotient rings only; "
                         "Laurent-ring Ext/Tor use the fixed two-term resolution "
                         "inside ext_over_r/tor_over_r")
    if length < 0:
        raise InputError("resolution length must be >= 0")
    d = ring.degree

    def ring_cover(z_gens: IntMatrix, t_on_ambient, modulo: IntMatrix) -> tuple[int, IntMatrix]:
        """Map from a free module onto the R-span of the given Z-generators.

        Candidates already inside the R-span of earlier choices (modulo the
        ambient relations) are skipped, so free modules resolve in length 0.
        Columns of the result list the images of the Z-basis e_i t^j (i
        outer, j inner), namely t^j applied to generator i.
        """
        span = [modulo.column(j) for j in range(modulo.cols)]
        cols: list = []
        chosen = 0
        for i in range(z_gens.cols):
            v = z_gens.column(i)
            if span and solve(IntMatrix.from_columns(span, rows=z_gens.rows), v) is not None:
                continue
            chosen += 1
            for _ in range(d):
                cols.append(v)
                span.append(v)
                v = t_on_ambient(v)
        return chosen, IntMatrix.from_columns(cols, rows=z_gens.rows)

    # Stage 0: generators of M, with t acting through the module.
    gens0 = IntMatrix.identity(module.ngens)
    rank0, aug = ring_cover(gens0, module.t_action.apply, module.presentation)
    ranks = [rank0]
    deltas: list[IntMatrix] = []

    companion = ring.companion_matrix()
    # Kernel of the augmentation is taken inside M, i.e. modulo relations.
    ker = preimage_gens(aug, module.presentation)
    for _ in range(length):
        t_block = IntMatrix.identity(ranks[-1]).kron(companion)
        rank_next, delta = ring_cover(ker, t_block.apply, IntMatrix.zero(d * ranks[-1], 0))
        ranks.append(rank_next)
        deltas.append(delta)
        ker = kernel_basis(delta)
    return FreeResolutionR(ring, tuple(ranks), aug, tuple(deltas))


def _with_coefficients(res: FreeResolutionR, k: int, n: RModule, hom_side: bool) -> GroupHom:
    """delta_k: F_(k+1) -> F_k with coefficients in N.

    Over R the map delta_k is the matrix polynomial sum_j t^j C_j, where
    C_j[i][a] is the coefficient of e_i t^j in delta_k(e_a) (delta's column
    a*d).  Tensored with N it is sum_j C_j (x) t_N^j; on Hom(-, N) it is
    sum_j C_j^T (x) t_N^j, from Hom(F_k, N) to Hom(F_(k+1), N).  Both free
    modules become N^rank, and either rank may be 0.
    """
    d, delta = res.ring.degree, res.deltas[k]
    lo, hi = res.ranks[k], res.ranks[k + 1]
    source, target = DirectSum((n.group,) * hi), DirectSum((n.group,) * lo)
    if hom_side:
        source, target = target, source
    matrix = IntMatrix.zero(target.ngens, source.ngens)
    t_power = IntMatrix.identity(n.ngens)
    for j in range(d):
        c = IntMatrix.from_rows([[delta.data[i * d + j][a * d] for a in range(hi)]
                                 for i in range(lo)], cols=hi)
        matrix = matrix + (c.transpose() if hom_side else c).kron(t_power)
        t_power = n.t_action @ t_power
    return GroupHom(source, target, matrix, check=False)


def ext_over_r(m: RModule, n: RModule, degree: int) -> FgAbGroup:
    """Ext^degree over the common base ring.

    Quotient rings: cohomology of Hom_R(resolution, N).  Laurent ring:
    kernel (degree 0) and cokernel (degree 1) of phi -> t phi t^{-1} - phi
    on Hom_Z(M, N), zero above degree 1.  These are the Z-relative groups
    H^*(Z; Hom_Z(M, N)); they equal Ext over Z[t, 1/t] only when M is
    Z-free (for M = N = Z/2 with t = 1 they give Ext^1 = Z/2 and Ext^2 = 0,
    where the ring has (Z/2)^2 and Z/2).
    """
    if degree < 0:
        raise InputError("Ext degree must be >= 0")
    if m.ring != n.ring:
        raise InputError("modules live over different rings")
    if isinstance(m.ring, LaurentRing):
        if degree >= 2:
            return FgAbGroup.trivial()
        # phi |-> t_N o phi o t_M^{-1} - phi on Hom_Z(M, N)
        hom_group, tm_inv = hom(m.group, n.group), m.t_inverse_matrix()
        cols = []
        for e in IntMatrix.identity(hom_group.ngens).columns():
            x = hom_group.to_matrix(hom_group.element(e))
            cols.append(hom_group.from_matrix(n.t_action @ x @ tm_inv - x).coords)
        endo = GroupHom(hom_group, hom_group,
                        IntMatrix.from_columns(cols, rows=hom_group.ngens), check=False)
        return endo.kernel_group() if degree == 0 else endo.cokernel_group()
    res = free_resolution_over_r(m, degree + 1)
    outgoing = _with_coefficients(res, degree, n, hom_side=True)
    incoming = _with_coefficients(res, degree - 1, n, hom_side=True) if degree \
        else GroupHom.zero(FgAbGroup.trivial(), outgoing.source)
    return homology_of_pair(incoming, outgoing)


def tor_over_r(m: RModule, n: RModule, degree: int) -> FgAbGroup:
    """Tor_degree over the common base ring.

    Quotient rings: homology of resolution (x)_R N.  Laurent ring: cokernel
    (degree 0) and kernel (degree 1) of t_M^{-1} (x) t_N - 1 on M (x)_Z N,
    zero above degree 1.  These are the Z-relative groups H_*(Z; M (x) N);
    like Laurent Ext they equal Tor over Z[t, 1/t] only when M is Z-free.
    """
    if degree < 0:
        raise InputError("Tor degree must be >= 0")
    if m.ring != n.ring:
        raise InputError("modules live over different rings")
    if isinstance(m.ring, LaurentRing):
        if degree >= 2:
            return FgAbGroup.trivial()
        tens = tensor(m.group, n.group)
        theta = GroupHom(tens, tens,
                         m.t_inverse_matrix().kron(n.t_action) - IntMatrix.identity(tens.ngens),
                         check=False)
        return theta.kernel_group() if degree == 1 else theta.cokernel_group()
    res = free_resolution_over_r(m, degree + 1)
    incoming = _with_coefficients(res, degree, n, hom_side=False)
    outgoing = _with_coefficients(res, degree - 1, n, hom_side=False) if degree \
        else GroupHom.zero(incoming.target, FgAbGroup.trivial())
    return homology_of_pair(incoming, outgoing)


def hochschild(m: FgAbGroup, lam: IntMatrix, rho: IntMatrix, degree: int,
               variant: Literal["homology", "cohomology"] = "homology") -> FgAbGroup:
    """Hochschild (co)homology of the Laurent ring with bimodule coefficients.

    The bimodule is the group `m` with commuting automorphisms lambda and
    rho; with u = lambda rho^{-1}, HH_0 = HH^1 = coker(u - 1) and
    HH_1 = HH^0 = ker(u - 1), everything above degree 1 vanishes.  Which of
    lambda, rho acts from the left is a stated convention, not a theorem; we
    pair them exactly as written.
    """
    if degree < 0:
        raise InputError("Hochschild degree must be >= 0")
    if variant not in ("homology", "cohomology"):
        raise InputError("variant must be 'homology' or 'cohomology'")
    lam_hom = GroupHom(m, m, lam)
    rho_hom = GroupHom(m, m, rho)
    if not lam_hom.is_isomorphism() or not rho_hom.is_isomorphism():
        raise InputError("lambda and rho must be automorphisms")
    if not (lam_hom.compose(rho_hom) - rho_hom.compose(lam_hom)).is_zero():
        raise InputError("lambda and rho must commute")
    if degree >= 2:
        return FgAbGroup.trivial()
    u = GroupHom(m, m, lam @ rho_hom.inverse_matrix(), check=False)
    u_minus_1 = u - GroupHom.identity(m)
    want_kernel = (variant == "homology" and degree == 1) or \
                  (variant == "cohomology" and degree == 0)
    return u_minus_1.kernel_group() if want_kernel else u_minus_1.cokernel_group()


@dataclass(frozen=True)
class PvEnds:
    """End groups of the PV extension in one degree."""

    coker_end: FgAbGroup  # coker(alpha - 1) on K_{*+1}
    ker_end: FgAbGroup  # ker(alpha - 1) on K_*


@dataclass(frozen=True)
class PvReport:
    """Ends and exactness certificate of the Pimsner-Voiculescu sequence.

    The six-term cycle runs
    K_0 --(a0-1)--> K_0 -> M_1 -> K_1 --(a1-1)--> K_1 -> M_0 -> K_0,
    where the middle node M_* is reported only through its end pair
    (coker(alpha-1) on K_{*+1}, ker(alpha-1) on K_*): the extension problem
    is not solved.  `maps` holds the six homomorphisms in cycle order and
    exactness at every node is verified before the report is returned.
    """

    input: GradedAbGroup
    degree0: PvEnds
    degree1: PvEnds
    maps: tuple[GroupHom, ...]


def pv_sequence(k: GradedAbGroup, alpha_even: IntMatrix, alpha_odd: IntMatrix) -> PvReport:
    """Assemble and verify the six-term sequence for (K, alpha)."""
    a0 = GroupHom(k.even, k.even, alpha_even)
    a1 = GroupHom(k.odd, k.odd, alpha_odd)
    if not a0.is_isomorphism() or not a1.is_isomorphism():
        raise InputError("alpha must be a graded automorphism")
    d0 = a0 - GroupHom.identity(k.even)
    d1 = a1 - GroupHom.identity(k.odd)

    def middle(dm_in: GroupHom, dm_out: GroupHom) -> tuple[PvEnds, GroupHom, GroupHom]:
        """Middle node between coker(dm_in) and ker(dm_out), as a direct sum."""
        coker = dm_in.cokernel_group()
        ker = dm_out.kernel()
        node = DirectSum((coker, ker))
        into = GroupHom(dm_in.target, node,
                        vstack(IntMatrix.identity(dm_in.target.ngens),
                               IntMatrix.zero(ker.ngens, dm_in.target.ngens)),
                        check=False)
        out_matrix = hstack(IntMatrix.zero(dm_out.source.ngens, coker.ngens), ker.basis)
        outof = GroupHom(node, dm_out.source, out_matrix, check=False)
        return PvEnds(coker, ker), into, outof

    ends1, into1, outof1 = middle(d0, d1)  # M_1 sits between K_0 and K_1
    ends0, into0, outof0 = middle(d1, d0)  # M_0 sits between K_1 and K_0
    maps = (d0, into1, outof1, d1, into0, outof0)
    for i in range(6):
        if not is_exact_pair(maps[i - 1], maps[i]):
            raise InternalCheckError(f"PV sequence failed exactness at node {i}")
    return PvReport(k, ends0, ends1, maps)
