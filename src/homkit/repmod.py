"""Modules over Z[t]/(p(t)) and Z[t, 1/t]: resolutions, Ext/Tor, HH, PV.

A module is a finitely generated abelian group (Z-presentation) together with
a matrix giving the action of t on its generators.  Over a monogenic quotient
ring R = Z[t]/(p), p monic, the free resolution is 2-periodic: after a
cover F_0 -> M, the first syzygy M1 is Z-free with a t-action T1, and the
maps t - T1 and (p(t) - p(T1))/(t - T1) alternate forever, less the
trivial summands split off at their unit entries.  So the whole resolution
is three ranks and four maps, built once; the ranks need not be minimal.
Over the Laurent ring the fixed two-term free bimodule resolution applies
instead, which collapses Hochschild theory to kernels and cokernels of
u - 1 for u = lambda rho^{-1}.  Laurent Ext/Tor share that one
Z-(co)homology path, as the Z-relative groups H^*(Z; Hom_Z(M, N)) and
H_*(Z; M (x) N); these equal Ext/Tor over Z[t, 1/t] only when M is Z-free.
"""

from __future__ import annotations

from functools import cache, cached_property
from typing import Callable, Literal, Optional, Sequence, Union

from .errors import InputError, InternalCheckError
from .abgroups import (
    DirectSum,
    FgAbGroup,
    GroupHom,
    _same_coords,
    hom,
    homology_of_pair,
    is_exact_pair,
    tensor,
)
from .intlinalg import (
    IntMatrix,
    Vector,
    _matrix,
    _record,
    hstack,
    lll_reduce,
    solve,
    solve_matrix,
    vstack,
)


def _powers(t: IntMatrix, k: int) -> tuple[IntMatrix, ...]:
    """t^0, ..., t^(k-1) for a square matrix t and k >= 1."""
    powers = [IntMatrix.identity(t.rows)]
    while len(powers) < k:
        powers.append(t @ powers[-1])
    return tuple(powers)


def _combine(x: Sequence[int], powers: Sequence[IntMatrix]) -> IntMatrix:
    """sum_j x_j powers[j]: the ring element x acting through the powers of t.
    Only the nonzero terms are added, row by row; x = 0 gives the zero
    matrix."""
    terms = [(c, p.data) for c, p in zip(x, powers) if c]
    rows, cols = powers[0].rows, powers[0].cols
    if not terms:
        return IntMatrix.zero(rows, cols)
    (c0, first), *rest = terms
    data = []
    for i in range(rows):
        acc = [c0 * v for v in first[i]]
        for c, other in rest:
            acc = [a + c * v for a, v in zip(acc, other[i])]
        data.append(tuple(acc))
    return _matrix(rows, cols, tuple(data))


def _determinant(m: IntMatrix) -> int:
    """Determinant of a nonempty square matrix by fraction-free (Bareiss)
    elimination: every division is exact, so entries stay integers."""
    a = [list(row) for row in m.data]
    n, sign, previous = m.rows, 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap], sign = a[swap], a[k], -sign
        pivot = a[k][k]
        for i in range(k + 1, n):
            lead = a[i][k]
            a[i] = [0] * (k + 1) + [(a[i][j] * pivot - lead * a[k][j]) // previous
                                    for j in range(k + 1, n)]
        previous = pivot
    return sign * a[-1][-1]


@_record
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

    @cached_property
    def companion_powers(self) -> tuple[IntMatrix, ...]:
        """companion_matrix()^j for j < d: multiplication by t^j."""
        return _powers(self.companion_matrix(), self.degree)

    def element(self, coefficients: Sequence[int]) -> Vector:
        """sum_u c_u t^u as a ring element: its coefficients on 1, ..., t^(d-1)."""
        d, x = self.degree, list(coefficients) + [0] * self.degree
        if len(coefficients) <= d:
            return tuple(x[:d])
        for k in range(len(x) - 1, d - 1, -1):  # t^k = -sum_i p_i t^(k - d + i)
            for i in range(d):
                x[k - d + i] -= x[k] * self.coefficients[i]
        return tuple(x[:d])

    def multiply(self, x: Sequence[int], y: Sequence[int]) -> Vector:
        """x y in the ring."""
        product = [0] * (len(x) + len(y) - 1)
        for i, a in enumerate(x):
            if a:
                for j, b in enumerate(y):
                    product[i + j] += a * b
        return self.element(product)

    def inverse(self, x: Sequence[int]) -> Optional[Vector]:
        """x^(-1) if x is a unit of the ring, else None.  The norm decides:
        x is a unit exactly when the Z-matrix of y -> x y has determinant
        +-1, for then that matrix is invertible over Z and x y = 1 has an
        integer solution y.  Only a unit's inverse takes a lattice solve."""
        if not any(x[1:]):  # the constant units are +-1
            return tuple(x) if x[0] in (1, -1) else None
        times_x = _combine(x, self.companion_powers)
        if abs(_determinant(times_x)) != 1:
            return None
        inv = solve(times_x, self.element((1,)))
        if inv is None:
            raise InternalCheckError("a ring element of norm +-1 has no inverse")
        return inv

    def evaluate(self, m: IntMatrix) -> IntMatrix:
        """p(m) for a square matrix m."""
        return _combine(self.coefficients, _powers(m, len(self.coefficients)))


@_record
class LaurentRing:
    """Z[t, 1/t]; t acts as an automorphism on its modules."""


BaseRing = Union[QuotientRing, LaurentRing]


class RModule(FgAbGroup):
    """F.g. module over a BaseRing: the presented abelian group, with a
    matrix giving the action of t on its generators."""

    def __init__(self, ring: BaseRing, presentation: IntMatrix, t_action: IntMatrix):
        if t_action.rows != presentation.rows or t_action.cols != presentation.rows:
            raise InputError("t-action must be square on the generators")
        super().__init__(presentation)
        self.ring = ring
        self.t_action = t_action
        self._t_hom = GroupHom(self, self, t_action)  # checks relations
        if isinstance(ring, QuotientRing):
            pt = ring.evaluate(t_action)
            if not self.columns_are_zero(pt):
                raise InputError("p(t) does not annihilate the module")
        else:
            if not self._t_hom.is_isomorphism():
                raise InputError("t must act as an automorphism over the Laurent ring")

    def t_inverse_matrix(self) -> IntMatrix:
        return self._t_hom.inverse_matrix()


@_record
class FreeResolutionR:
    """Augmented complex ... -> F_1 -> F_0 -> M of free modules over Z[t]/(p).

    F_k is free of rank rank(k); as a Z-module it is Z^(d * rank) with basis
    e_1, e_1 t, ..., e_1 t^(d-1), e_2, ... and t acting blockwise by the
    companion matrix.  `augmentation` maps F_0 onto M (columns = images of
    the Z-basis in M's generators); delta(k) is the Z-matrix of
    F_(k+1) -> F_k.  Periodic from stage 2, it is kept once: ranks holds
    rank F_0, rank F_1 and rank F_k for k >= 2, and deltas delta_0 to
    delta_3, with delta_k = delta_(k-2) from k = 4 on; only `rank` and
    `delta` read that layout.  deltas[3] is deltas[1] less the rows of the
    generators of F_1 that map onto free summands of the first syzygy.
    """

    ring: QuotientRing
    ranks: tuple[int, int, int]
    augmentation: IntMatrix
    deltas: tuple[IntMatrix, IntMatrix, IntMatrix, IntMatrix]

    def rank(self, k: int) -> int:
        """Rank of F_k, with F_k = 0 for k < 0."""
        return 0 if k < 0 else self.ranks[min(k, 2)]

    def delta(self, k: int) -> IntMatrix:
        """Z-matrix of delta_k: F_(k+1) -> F_k, for k >= 0."""
        return self.deltas[k if k < 2 else 2 + k % 2]

    def verify_exact(self, module: RModule) -> bool:
        """Exactness as Z-complexes at M and at F_0, ..., F_4, hence at every
        stage: from F_5 on the pairs of maps repeat those at F_3 and F_4.
        Each pair of consecutive maps passes `is_exact_pair`, whose composite
        test is the only one (a nonzero composite makes the resolution
        inexact, not the input invalid), and the augmentation is onto M, by
        the cokernel its kernel factored.  Each stage is its own GroupHom, so
        equal matrices at two stages ask no decomposition the same system
        twice."""
        free = [FgAbGroup.free(self.ring.degree * self.rank(k)) for k in range(6)]
        maps = [GroupHom(free[0], module, self.augmentation)]
        maps += [GroupHom(free[k + 1], free[k], self.delta(k)) for k in range(5)]
        try:
            return (all(is_exact_pair(f, g) for g, f in zip(maps, maps[1:]))
                    and maps[0].is_surjective())
        except InputError:  # some composite g f is not zero
            return False


def _z_matrix(entries: list[list[Vector]], rows: int, cols: int,
              powers: Sequence[IntMatrix]) -> IntMatrix:
    """Z-matrix of the map R^cols -> R^rows with the given entries in R: block
    (i, a) is entry (i, a) acting through `powers` = (T^0, ..., T^(d-1)),
    combined once for each distinct entry."""
    n = powers[0].rows
    blocks = {x: _combine(x, powers).data for x in {x for row in entries for x in row}}
    return _matrix(rows * n, cols * n, tuple(tuple(v for x in row for v in blocks[x][r])
                                             for row in entries for r in range(n)))


def _cancel_units(ring: QuotientRing, x: list[list[Vector]], y: list[list[Vector]],
                  outer: list[list[Vector]]) -> tuple[list, list, list]:
    """Split trivial summands off a matrix factorization x y = y x = 0 over R.

    x maps F' -> F and y maps F -> F' (F, F' free); `outer` is the next map
    of the resolution, the one out of F.  If x[i][j] = u is a unit, subtracting
    multiples of row i clears column j, and over the new basis of F the
    generator i is the image of the generator j of F'.  This changes only
    column i of y and of `outer`, which go: the complex is the direct sum
    of the contractible R --u--> R, with outer zero on it, and of the Schur
    complement of u in x with y minus row j and column i.  Returns the
    three maps with every unit of x so cancelled.  Each pass takes the first
    unit in a fixed order, constant entries first; `QuotientRing.inverse`
    tests an entry by its norm, once per distinct entry in the call, so
    only the pivots cancelled take a lattice solve, for their inverses.
    """
    inverse = cache(ring.inverse)  # one norm test per distinct entry, across passes
    while True:
        # Constant entries first: their test needs no norm.
        entries = sorted(((any(e[1:]), i, j) for i, row in enumerate(x) for j, e in enumerate(row)
                          if any(e)))
        pivot = next(((i, j, inv) for _, i, j in entries
                      if (inv := inverse(x[i][j])) is not None), None)
        if pivot is None:
            return x, y, outer
        i, j, inv = pivot
        schur = []
        for k, row in enumerate(x):
            if k == i:
                continue
            if any(row[j]):  # row k minus (x[k][j] / u) times row i
                c = ring.multiply(row[j], inv)
                row = [tuple(p - q for p, q in zip(e, ring.multiply(c, f))) if any(f) else e
                       for e, f in zip(row, x[i])]
            schur.append(row[:j] + row[j + 1:])
        x = schur
        y = [row[:i] + row[i + 1:] for k, row in enumerate(y) if k != j]
        outer = [row[:i] + row[i + 1:] for row in outer]


def free_resolution_over_r(module: RModule) -> FreeResolutionR:
    """Free resolution over a quotient ring, periodic from stage 2.

    Stage 0 covers M by its generators in order, skipping each one that is
    zero in M/<kept>, M modulo the R-span of those kept so far, so free
    modules resolve in length 0.  The kernel M1 of that cover is Z-free
    with basis K and t-action T1, t K = K T1.  delta_0 sends e_i t^j to
    t^j K_i, and after it the maps a = t - T1 and b = q(t, T1) =
    (p(t) - p(T1)) / (t - T1) alternate: their products both ways are
    p(t) - p(T1) = 0 over R, and over Z[t] they factor p(t) times the
    identity (Eisenbud, Homological algebra on a complete intersection,
    1980).  Two passes of `_cancel_units` then shrink the ranks.  Units of
    a mark generators of F_1 that are images of F_2; they leave F_1, F_3,
    ...  Units of b mark free summands of M1; they stay in F_1, and leave
    F_2, F_3, ...  So rank(1) <= rank_Z(M1), rank(k) is one value for
    every k >= 2, and each of the four maps is built once.
    """
    ring = module.ring
    if not isinstance(ring, QuotientRing):
        raise InputError("free resolutions are built over quotient rings only; "
                         "Laurent-ring Ext/Tor use the fixed two-term resolution "
                         "inside ext_over_r/tor_over_r")
    d = ring.degree

    # Stage 0.  Columns of the augmentation list the images of the Z-basis
    # e_i t^j (i outer, j inner), namely t^j applied to generator i.
    presentation, rest = module.presentation, module  # rest = M/<kept>
    cols: list[Vector] = []
    for v in IntMatrix.identity(module.ngens).columns():
        if rest.coords_are_zero(v):
            continue
        for _ in range(d):
            cols.append(v)
            v = module.t_action.apply(v)
        rest = FgAbGroup(hstack(presentation, IntMatrix.from_columns(cols, rows=module.ngens)))
    aug = IntMatrix.from_columns(cols, rows=module.ngens)
    rank0 = len(cols) // d

    # Kernel of the augmentation, taken inside M, i.e. modulo relations.  An
    # LLL-reduced basis keeps T1 and q(t, T1) small: a Smith-form basis can
    # carry entries in the hundreds into T1, and from there into the
    # coefficient growth of every Smith form taken on Hom or tensor.
    k = lll_reduce(GroupHom(FgAbGroup.free(d * rank0), module, aug).kernel_gens)
    g = k.cols
    t1 = solve_matrix(k, IntMatrix.identity(rank0).kron(ring.companion_matrix()) @ k)
    if t1 is None:
        raise InternalCheckError("kernel of the cover is not t-stable")
    # q(t, T) = sum_i t^i C_i with C_(d-1) = I and C_(i-1) = c_i I + T C_i.
    ident = IntMatrix.identity(g)
    q_coefficients = [ident]
    for c in reversed(ring.coefficients[1:-1]):
        q_coefficients.insert(0, ident.scale(c) + t1 @ q_coefficients[0])
    a = [[ring.element((-t1[i, j], int(i == j))) for j in range(g)] for i in range(g)]
    b = [[ring.element([c[i, j] for c in q_coefficients]) for j in range(g)] for i in range(g)]
    delta0 = [[k.column(i)[r * d:(r + 1) * d] for i in range(g)] for r in range(rank0)]
    a, b, delta0 = _cancel_units(ring, a, b, delta0)
    b, a, a_first = _cancel_units(ring, b, a, a)
    g1, g = len(a_first), len(a)
    maps = ((delta0, rank0, g1), (a_first, g1, g), (b, g, g), (a, g, g))
    deltas = tuple(_z_matrix(*m, ring.companion_powers) for m in maps)
    return FreeResolutionR(ring, (rank0, g1, g), aug, deltas)


def _r_homology(res: FreeResolutionR, n: RModule, degree: int, hom_side: bool) -> FgAbGroup:
    """H^degree of Hom_R(res, N) (hom_side) or H_degree of res (x)_R N.

    Both coefficient complexes take F_k to N^rank(F_k), with F_(-1) = 0, and
    each rank is one DirectSum, so a group shared by the two maps is one
    object; any degree reads them through `res.rank` and `res.delta`.  Entry
    (i, a) of delta_k: F_(k+1) -> F_k over R has as t^j coefficient that of
    e_i t^j in delta_k(e_a) (delta's column a*d).  Tensored with N, block
    (i, a) is that entry acting through the powers of t_N, taken once for
    both maps; on Hom(-, N) the block grid is transposed, from Hom(F_k, N)
    to Hom(F_(k+1), N).  delta_(-1) is the zero map onto F_(-1).
    """
    d = res.ring.degree
    groups = {r: DirectSum((n,) * r) for r in {res.rank(k) for k in range(degree - 1, degree + 2)}}
    powers = _powers(n.t_action, d)

    def coefficients(k: int) -> GroupHom:
        lo, hi = res.rank(k), res.rank(k + 1)
        delta = res.delta(k).data if k >= 0 else ()
        entries = [[tuple(delta[i * d + j][a * d] for j in range(d)) for a in range(hi)]
                   for i in range(lo)]
        if hom_side:
            entries, lo, hi = [[row[a] for row in entries] for a in range(hi)], hi, lo
        return GroupHom(groups[hi], groups[lo], _z_matrix(entries, lo, hi, powers))

    below, above = coefficients(degree - 1), coefficients(degree)
    return homology_of_pair(below, above) if hom_side else homology_of_pair(above, below)


def _z_homology(u: Callable[[], GroupHom], degree: int, homological: bool) -> FgAbGroup:
    """H_degree (homological) or H^degree of Z acting through the automorphism
    u(): ker(u - 1) in homological degree 1 and cohomological degree 0,
    coker(u - 1) in the other degree below 2, and 0, without building u,
    from degree 2 on."""
    if degree >= 2:
        return FgAbGroup.trivial()
    auto = u()
    u_minus_1 = auto - GroupHom.identity(auto.source)
    return u_minus_1.kernel_group() if degree == int(homological) else u_minus_1.cokernel_group()


def ext_over_r(m: RModule, n: RModule, degree: int) -> FgAbGroup:
    """Ext^degree over the common base ring.

    Quotient rings: cohomology of Hom_R(resolution, N), the coefficient
    complex `_r_homology` shares with Tor, in any degree.  Laurent ring: the
    Z-cohomology path shared with Tor and HH, ker and coker of u - 1 for
    u: phi -> t_N phi t_M^{-1} on Hom_Z(M, N).  These
    are the Z-relative groups H^*(Z; Hom_Z(M, N)); they equal Ext over
    Z[t, 1/t] only when M is Z-free (for M = N = Z/2 with t = 1 they give
    Ext^1 = Z/2 and Ext^2 = 0, where the ring has (Z/2)^2 and Z/2).
    """
    if degree < 0:
        raise InputError("Ext degree must be >= 0")
    if m.ring != n.ring:
        raise InputError("modules live over different rings")
    if isinstance(m.ring, LaurentRing):
        def u() -> GroupHom:
            # vec(t_N X t_M^-1) = ((t_M^-1)^T kron t_N) vec(X), on the vec(X)
            # rows of every generator of Hom at once.
            hom_group = hom(m, n)
            twist = m.t_inverse_matrix().transpose().kron(n.t_action)
            images = hom_group.from_matrices(twist @ hom_group.basis[:twist.cols, :])
            if images is None:
                raise InternalCheckError("t_N phi t_M^-1 does not respect relations")
            return GroupHom(hom_group, hom_group, images)
        return _z_homology(u, degree, homological=False)
    return _r_homology(free_resolution_over_r(m), n, degree, hom_side=True)


def tor_over_r(m: RModule, n: RModule, degree: int) -> FgAbGroup:
    """Tor_degree over the common base ring.

    Quotient rings: homology of resolution (x)_R N, through `_r_homology`
    as for Ext, in any degree.  Laurent ring: coker and ker of u - 1 for
    u = t_M^{-1} (x) t_N on M (x)_Z N, the Z-homology path shared with Ext
    and HH.  These Z-relative groups
    H_*(Z; M (x) N) equal Tor over Z[t, 1/t] only when M is Z-free, as for
    Laurent Ext.
    """
    if degree < 0:
        raise InputError("Tor degree must be >= 0")
    if m.ring != n.ring:
        raise InputError("modules live over different rings")
    if isinstance(m.ring, LaurentRing):
        def u() -> GroupHom:
            tens = tensor(m, n)
            return GroupHom(tens, tens, m.t_inverse_matrix().kron(n.t_action))
        return _z_homology(u, degree, homological=True)
    return _r_homology(free_resolution_over_r(m), n, degree, hom_side=False)


def hochschild(lam: GroupHom, rho: GroupHom, degree: int,
               variant: Literal["homology", "cohomology"] = "homology") -> FgAbGroup:
    """Hochschild (co)homology of the Laurent ring with bimodule coefficients.

    The bimodule is the group that the commuting automorphisms lambda and
    rho act on; with u = lambda rho^{-1}, HH_0 = HH^1 = coker(u - 1) and
    HH_1 = HH^0 = ker(u - 1), everything above degree 1 vanishes: the
    Z-(co)homology path of Laurent Ext/Tor.  Which of lambda, rho acts from
    the left is a stated convention, not a theorem; we pair them as written.
    """
    if degree < 0:
        raise InputError("Hochschild degree must be >= 0")
    if variant not in ("homology", "cohomology"):
        raise InputError("variant must be 'homology' or 'cohomology'")
    m = lam.source
    if not all(_same_coords(m, g) for g in (lam.target, rho.source, rho.target)):
        raise InputError("lambda and rho must be endomorphisms of one group")
    if not lam.is_isomorphism() or not rho.is_isomorphism():
        raise InputError("lambda and rho must be automorphisms")
    if not (lam.compose(rho) - rho.compose(lam)).is_zero():
        raise InputError("lambda and rho must commute")
    return _z_homology(lambda: GroupHom(m, m, lam.matrix @ rho.inverse_matrix()),
                       degree, homological=variant == "homology")


@_record
class PvEnds:
    """End groups of the PV extension in one degree."""

    coker_end: FgAbGroup  # coker(alpha - 1) on K_{*+1}
    ker_end: FgAbGroup  # ker(alpha - 1) on K_*


@_record
class PvReport:
    """Ends and exactness certificate of the Pimsner-Voiculescu sequence.

    The six-term cycle runs
    K_0 --(a0-1)--> K_0 -> M_1 -> K_1 --(a1-1)--> K_1 -> M_0 -> K_0,
    where the middle node M_* is reported only through its end pair
    (coker(alpha-1) on K_{*+1}, ker(alpha-1) on K_*): the extension problem
    is not solved.  Exactness of the six homomorphisms at every node is
    verified before the report is returned.
    """

    degree0: PvEnds
    degree1: PvEnds


def pv_sequence(alpha_even: GroupHom, alpha_odd: GroupHom) -> PvReport:
    """Assemble and verify the six-term sequence for (K, alpha), where K_0
    and K_1 are the groups that alpha_even and alpha_odd act on."""
    for a in (alpha_even, alpha_odd):
        if not (_same_coords(a.source, a.target) and a.is_isomorphism()):
            raise InputError("alpha must be a graded automorphism")
    d0 = alpha_even - GroupHom.identity(alpha_even.source)
    d1 = alpha_odd - GroupHom.identity(alpha_odd.source)

    def middle(dm_in: GroupHom, dm_out: GroupHom) -> tuple[PvEnds, GroupHom, GroupHom]:
        """Middle node between coker(dm_in) and ker(dm_out), as a direct sum."""
        coker = dm_in.cokernel_group()
        ker = dm_out.kernel()
        node = DirectSum((coker, ker))
        into = GroupHom(dm_in.target, node,
                        vstack(IntMatrix.identity(dm_in.target.ngens),
                               IntMatrix.zero(ker.ngens, dm_in.target.ngens)))
        out_matrix = hstack(IntMatrix.zero(dm_out.source.ngens, coker.ngens), ker.basis)
        outof = GroupHom(node, dm_out.source, out_matrix)
        return PvEnds(coker, ker), into, outof

    ends1, into1, outof1 = middle(d0, d1)  # M_1 sits between K_0 and K_1
    ends0, into0, outof0 = middle(d1, d0)  # M_0 sits between K_1 and K_0
    maps = (d0, into1, outof1, d1, into0, outof0)
    for i in range(6):
        if not is_exact_pair(maps[i - 1], maps[i]):
            raise InternalCheckError(f"PV sequence failed exactness at node {i}")
    return PvReport(ends0, ends1)
