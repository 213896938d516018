"""Independent oracles used to pin expected values in the tests.

Nothing here shares code paths with the package: determinants are computed
by Bareiss elimination, Smith diagonals by determinantal divisors, kernels
by a separate column-reduction routine, linear solving by fraction Gaussian
elimination, and the cyclic-group (co)homology pins come from the classical
hand-written periodic norm-element resolution.  The one exception is
`greedy_free_resolution`, the iterated-kernel resolution over Z[t]/(p): it
uses homkit's lattice routines, `lll_reduce` among them, but not the
periodic construction (t - T, divided difference) of
`free_resolution_over_r`.  Its finite, non-periodic result is a
`GreedyResolution` of its own, read through the same `ring`, `rank(k)` and
`delta(k)` as the package's periodic record.  And `snf_reference` is not
independent at all: it is a frozen copy of the package's Smith form from
before its shortcuts, for exact comparison of U, S and V; likewise `columns_reference`,
`transpose_reference`, `hstack_reference`, `vstack_reference`,
`kron_reference` and `from_columns_reference` are frozen copies of the
package's comprehension definitions of those matrix operations, kept to
pin their zero-dimension shapes.  `natural_map_by_generators` builds
the UCT natural map class by class, the way the package did before it
built it in one pass per degree; `ideal_ext_by_generators` and
`laurent_ext_by_generators` build the pullback along delta1 and the
Laurent twist t_N X t_M^-1 on one generator's map at a time, the way the
package did before it applied them to a whole basis matrix by a
Kronecker product.  `cone_triangle_is_exact` reads the
package's own triangle homology maps and only checks exactness at each
node.  `kunneth_prediction_unreduced` is the Kunneth prediction built on
the homology presentations as given, the way the package built it before
it took invariant-factor presentations, and `block_diag_reference` the
block diagonal assembled from a grid of zero blocks, as the package did
before it padded each row.  `ring_inverse_by_lattice_solve` decides unit-ness
in Z[t]/(p) by the lattice solve x y = 1 on the multiplication matrix that
the ring's own polynomial product gives, as the package did before the
norm decided it.  `injective_by_solve` and `exact_by_lift` are the kernel
tests as the package made them before membership tests: a solve of the
map's kernel basis against the source's relations, and a lift of the
second map's kernel basis through the first.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import NamedTuple, Optional

from homkit.abgroups import (
    DirectSum,
    FgAbGroup,
    GradedAbGroup,
    GroupHom,
    HomGroup,
    graded_hom,
    hom,
    is_exact_pair,
    tensor,
    tor1,
)
from homkit.errors import InputError
from homkit.intlinalg import (
    IntMatrix,
    kernel_basis,
    lll_reduce,
    preimage_gens,
    solve,
    vec,
)
from homkit.percomplex import ChainMap, PeriodicComplex, homology, homotopy_classes
from homkit.relhom import Resolution, triangle_homology_maps
from homkit.repmod import QuotientRing, RModule


def det_bareiss(rows: list[list[int]]) -> int:
    """Exact determinant by fraction-free Bareiss elimination."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(map(int, r)) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[-1][-1]


def determinantal_divisor_diagonal(rows: list[list[int]]) -> list[int]:
    """Smith diagonal via d_k = gcd of all k x k minors, s_k = d_k / d_(k-1)."""
    r = len(rows)
    c = len(rows[0]) if rows else 0
    diag = []
    prev = 1
    for k in range(1, min(r, c) + 1):
        dk = 0
        for ri in combinations(range(r), k):
            for ci in combinations(range(c), k):
                minor = det_bareiss([[rows[i][j] for j in ci] for i in ri])
                dk = gcd(dk, minor)
        if dk == 0:
            diag.extend([0] * (min(r, c) - k + 1))
            return diag
        diag.append(dk // prev)
        prev = dk
    return diag


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x, nx, y, ny, g, ng = 1, 0, 0, 1, a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


def _column_echelon(rows: list[list[int]], ncols: int) -> tuple[list[list[int]], list[list[int]], int]:
    """Integer column echelon form: (reduced A, unimodular T with A T = reduced A,
    number of nonzero leading columns)."""
    r = len(rows)
    a = [list(map(int, row)) for row in rows]
    t = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def colop(j1: int, j2: int, u: int, v: int, s: int, w: int) -> None:
        # (col j1, col j2) <- (u col j1 + v col j2, s col j1 + w col j2)
        for mat, height in ((a, r), (t, ncols)):
            for i in range(height):
                x, y = mat[i][j1], mat[i][j2]
                mat[i][j1], mat[i][j2] = u * x + v * y, s * x + w * y

    lead = 0
    for i in range(r):
        if lead >= ncols:
            break
        for j in range(lead + 1, ncols):
            if a[i][j] == 0:
                continue
            g, x, y = _xgcd(a[i][lead], a[i][j])
            p, q = a[i][lead] // g, a[i][j] // g
            colop(lead, j, x, y, -q, p)
        if a[i][lead] != 0:
            lead += 1
    return a, t, lead


def column_reduction_kernel(rows: list[list[int]], ncols: int) -> list[list[int]]:
    """Kernel basis (as columns) via integer column echelon reduction."""
    _, t, lead = _column_echelon(rows, ncols)
    return [[t[i][j] for i in range(ncols)] for j in range(lead, ncols)]


def solve_lattice(rows: list[list[int]], ncols: int, target: list[int]) -> list[int] | None:
    """One integer x with A x = target for any integer A, or None.

    The leading columns of A's column echelon form are a basis of A's
    column lattice; `solve_fraction` solves over them and T maps back.
    """
    a, t, lead = _column_echelon(rows, ncols)
    y = solve_fraction([[a[i][j] for i in range(len(rows))] for j in range(lead)], target)
    if y is None:
        return None
    return [sum(t[i][j] * y[j] for j in range(lead)) for i in range(ncols)]


def solve_fraction(columns: list[list[int]], target: list[int]) -> list[int] | None:
    """Integer x with sum x_j col_j = target, via fraction elimination.

    Returns None when no rational solution exists or it is not integral.
    Requires the columns to be linearly independent.
    """
    rows = len(target)
    ncols = len(columns)
    aug = [[Fraction(columns[j][i]) for j in range(ncols)] + [Fraction(target[i])]
           for i in range(rows)]
    pivot_rows = []
    ri = 0
    for cj in range(ncols):
        piv = next((i for i in range(ri, rows) if aug[i][cj] != 0), None)
        if piv is None:
            return None  # dependent columns not expected here
        aug[ri], aug[piv] = aug[piv], aug[ri]
        aug[ri] = [x / aug[ri][cj] for x in aug[ri]]
        for i in range(rows):
            if i != ri and aug[i][cj] != 0:
                factor = aug[i][cj]
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[ri])]
        pivot_rows.append(ri)
        ri += 1
    for i in range(ri, rows):
        if aug[i][-1] != 0:
            return None
    sol = [aug[i][-1] for i in pivot_rows]
    if any(x.denominator != 1 for x in sol):
        return None
    return [int(x) for x in sol]


def subquotient_presentation_oracle(l_rows: list[list[int]], l_cols: int,
                                    n_cols: list[list[int]]) -> list[list[int]]:
    """Presentation of ker(L)/im(N), fully via the oracle routines.

    `n_cols` lists the columns of N; the result lists presentation columns
    over the oracle's kernel basis.
    """
    kernel = column_reduction_kernel(l_rows, l_cols)
    return [solve_fraction(kernel, col) for col in n_cols]


def cyclic_order2_ext_pin(n: int) -> tuple[int, tuple[int, ...]]:
    """Ext^n over Z[t]/(t^2 - 1) of (Z, Z) from the norm-element resolution.

    The classical periodic resolution ... -> R -(t+1)-> R -(t-1)-> R -> Z
    becomes, after Hom(-, Z), the integer cochain 0 -> Z -0-> Z -2-> Z -0->
    Z -2-> ...; the pin is ker/im of neighbouring scalars.
    """
    outgoing = 0 if n % 2 == 0 else 2  # scalar of delta_(n+1)^*
    incoming = 0 if n == 0 or n % 2 == 1 else 2  # scalar of delta_n^*
    if outgoing != 0:
        return (0, ())
    return (1, ()) if incoming == 0 else (0, (incoming,))


def cyclic_order2_tor_pin(n: int) -> tuple[int, tuple[int, ...]]:
    """Tor_n over Z[t]/(t^2 - 1) of (Z, Z) from the same resolution."""
    outgoing = 0 if n % 2 == 1 else (0 if n == 0 else 2)  # scalar of delta_n x Z
    incoming = 0 if n % 2 == 0 else 2  # scalar of delta_(n+1) x Z
    if outgoing != 0:
        return (0, ())
    return (1, ()) if incoming == 0 else (0, (incoming,))


def _cyclic(order: int) -> tuple[int, tuple[int, ...]]:
    """(rank, torsion) of Z/order, with Z/0 = Z and Z/1 = 0."""
    if order == 0:
        return (1, ())
    return (0, ()) if order == 1 else (0, (order,))


def cyclic_group_cohomology_pin(n: int, k: int, i: int) -> tuple[int, tuple[int, ...]]:
    """H^i(C_n; A) for A = Z/k with trivial action (k = 0 for A = Z).

    Hom of the norm-element resolution ... -N-> R -(t-1)-> R -> Z into A
    is the cochain A -0-> A -n-> A -0-> A -n-> ..., so H^0 = A, odd degrees
    give the n-torsion A[n] and positive even degrees give A/nA.  Both are
    Z/gcd(n, k) for k > 0; for A = Z they are 0 and Z/n.
    """
    if i == 0:
        return _cyclic(k)
    if i % 2 == 1 and k == 0:
        return (0, ())
    return _cyclic(gcd(n, k))


def cyclic_group_homology_pin(n: int, k: int, i: int) -> tuple[int, tuple[int, ...]]:
    """H_i(C_n; A) for A = Z/k with trivial action (k = 0 for A = Z).

    The same resolution tensored with A is A <-0- A <-n- A <-0- A <-n- ...,
    so H_0 = A, odd degrees give A/nA and positive even degrees give A[n].
    """
    if i == 0:
        return _cyclic(k)
    if i % 2 == 0 and k == 0:
        return (0, ())
    return _cyclic(gcd(n, k))


def cyclic_group_free_coefficient_pin(i: int) -> tuple[int, tuple[int, ...]]:
    """Ext^i and Tor_i over R = Z[C_n] of (Z, R), for every n >= 1.

    Tor: R is free, so only Tor_0 = Z survives.  Ext: Hom_R(Z, R) is the
    line through the norm element, and H^i(C_n; R) = 0 for i > 0 because R
    is coinduced.
    """
    return (1, ()) if i == 0 else (0, ())


class GreedyResolution(NamedTuple):
    """A finite free resolution F_length -> ... -> F_0 -> M over Z[t]/(p).

    F_k has rank ranks[k] and Z-basis e_1, e_1 t, ..., e_1 t^(d-1), e_2, ...;
    deltas[k] is the Z-matrix of F_(k+1) -> F_k.  `rank` and `delta` are
    the reads Ext/Tor make of the package's periodic resolution.
    """

    ring: QuotientRing
    ranks: tuple[int, ...]
    augmentation: IntMatrix
    deltas: tuple[IntMatrix, ...]

    def rank(self, k: int) -> int:
        return self.ranks[k] if k >= 0 else 0

    def delta(self, k: int) -> IntMatrix:
        return self.deltas[k]

    def verify_exact(self, module: RModule) -> bool:
        """Exactness as Z-complexes at M and at F_0, ..., F_(length-1), pair
        by pair from the augmentation on; a nonzero composite is inexact."""
        free = [FgAbGroup.free(self.ring.degree * r) for r in self.ranks]
        maps = [GroupHom(free[0], module, self.augmentation)]
        maps += [GroupHom(free[k + 1], free[k], d) for k, d in enumerate(self.deltas)]
        try:
            return (all(is_exact_pair(f, g) for g, f in zip(maps, maps[1:]))
                    and maps[0].is_surjective())
        except InputError:
            return False


def greedy_free_resolution(module: RModule, length: int) -> GreedyResolution:
    """Free resolution over Z[t]/(p) by iterated kernels.

    The Z-basis of each kernel becomes the ring generators of the next
    stage, skipping those already in the R-span of earlier choices.  The
    bases are LLL-reduced: Smith-form bases let coefficients grow by
    hundreds of bits within six stages.  Exact, but not periodic, and
    ranks may grow with length.
    """
    ring = module.ring
    d = ring.degree

    def ring_cover(z_gens: IntMatrix, t_on_ambient, modulo: IntMatrix) -> tuple[int, IntMatrix]:
        span = modulo.columns()
        cols: list = []
        chosen = 0
        for v in z_gens.columns():
            if span and solve(IntMatrix.from_columns(span, rows=z_gens.rows), v) is not None:
                continue
            chosen += 1
            for _ in range(d):
                cols.append(v)
                span.append(v)
                v = t_on_ambient(v)
        return chosen, IntMatrix.from_columns(cols, rows=z_gens.rows)

    rank0, aug = ring_cover(IntMatrix.identity(module.ngens), module.t_action.apply,
                            module.presentation)
    ranks, deltas = [rank0], []
    companion = ring.companion_matrix()
    ker = lll_reduce(preimage_gens(aug, module.presentation))
    for _ in range(length):
        t_block = IntMatrix.identity(ranks[-1]).kron(companion)
        rank_next, delta = ring_cover(ker, t_block.apply, IntMatrix.zero(d * ranks[-1], 0))
        ranks.append(rank_next)
        deltas.append(delta)
        ker = lll_reduce(kernel_basis(delta))
    return GreedyResolution(ring, tuple(ranks), aug, tuple(deltas))


def _reference_pivot(a: list[list[int]], k: int, rows: int, cols: int) -> Optional[tuple[int, int]]:
    """Nonzero entry of a[k:, k:] with minimal |value|, lowest (i, j) on ties."""
    best = None
    best_abs = None
    for i in range(k, rows):
        ai = a[i]
        for j in range(k, cols):
            x = ai[j]
            if x != 0:
                ax = -x if x < 0 else x
                if best_abs is None or ax < best_abs:
                    best, best_abs = (i, j), ax
                    if ax == 1:
                        return best
    return best


def snf_reference(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """`homkit.intlinalg.snf` as it stood before its unit-pivot and column
    shortcuts, kept verbatim so that U, S and V can be compared exactly with
    a decomposition's `(u, s, v)`; it returns them as that triple.

    Smith normal form of an integer matrix.

    Pivots are chosen by minimal absolute value with lowest-index tie-break,
    so the returned (U, S, V) is deterministic.
    """
    rows, cols = a.rows, a.cols
    s = [list(r) for r in a.data]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def swap_rows(i1, i2):
        if i1 != i2:
            s[i1], s[i2] = s[i2], s[i1]
            u[i1], u[i2] = u[i2], u[i1]

    def swap_cols(j1, j2):
        if j1 != j2:
            for r in s:
                r[j1], r[j2] = r[j2], r[j1]
            for r in v:
                r[j1], r[j2] = r[j2], r[j1]

    def add_row(dst, src, c):
        # row_dst += c * row_src
        sd, ss = s[dst], s[src]
        for j in range(cols):
            sd[j] += c * ss[j]
        ud, us = u[dst], u[src]
        for j in range(rows):
            ud[j] += c * us[j]

    def add_col(dst, src, c):
        for r in s:
            r[dst] += c * r[src]
        for r in v:
            r[dst] += c * r[src]

    def negate_row(i):
        s[i] = [-x for x in s[i]]
        u[i] = [-x for x in u[i]]

    for k in range(min(rows, cols)):
        while True:
            piv = _reference_pivot(s, k, rows, cols)
            if piv is None:
                break
            swap_rows(k, piv[0])
            swap_cols(k, piv[1])
            p = s[k][k]
            dirty = False
            for i in range(k + 1, rows):
                if s[i][k] != 0:
                    add_row(i, k, -(s[i][k] // p))
                    if s[i][k] != 0:
                        dirty = True
            if dirty:
                continue
            for j in range(k + 1, cols):
                if s[k][j] != 0:
                    add_col(j, k, -(s[k][j] // p))
                    if s[k][j] != 0:
                        dirty = True
            if dirty:
                continue
            # Row/column k are clear; enforce divisibility of the remaining block.
            offender = None
            for i in range(k + 1, rows):
                si = s[i]
                for j in range(k + 1, cols):
                    if si[j] % p != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(k, offender, 1)
        if s[k][k] < 0:
            negate_row(k)

    return (IntMatrix(rows, rows, tuple(map(tuple, u))),
            IntMatrix(rows, cols, tuple(map(tuple, s))),
            IntMatrix(cols, cols, tuple(map(tuple, v))))


def solve_dense(u: IntMatrix, s: IntMatrix, v: IntMatrix, b: IntMatrix) -> Optional[IntMatrix]:
    """X with A @ X = b given U A V = S, or None, by dense products: U b,
    then S Y = U b row by row (a row past the rank must be zero, a row
    before it divisible by its diagonal entry), then X = V Y.  The formula
    `SmithDecomposition.solve` used before it replayed its operations."""
    r = sum(1 for i in range(min(s.rows, s.cols)) if s[i, i])
    ub = (u @ b).data
    if any(map(any, ub[r:])):
        return None
    y = []
    for i, row in enumerate(ub[:r]):
        d = s[i, i]
        if any(x % d for x in row):
            return None
        y.append(tuple(x // d for x in row))
    y += [(0,) * b.cols] * (v.rows - r)
    return v @ IntMatrix(v.rows, b.cols, tuple(y))


def _hom_class(part: HomGroup, x: IntMatrix) -> tuple[int, ...]:
    """Coordinates in `part` of the map with matrix x, from the relation
    solve x @ M_A = M_B @ y for that one map."""
    y = part.target.relation_coords(x @ part.source.presentation)
    return part.to_coords(IntMatrix.column_vector(vec(x) + vec(y))).column(0)


def natural_map_by_generators(a: PeriodicComplex, b: PeriodicComplex) -> IntMatrix:
    """Matrix of [A, B] -> gradedHom(H A, H B), class by class: each
    generator's chain map, the cycle coordinates x of its image of each
    homology generator, and the class of x in Hom from the relation solve
    x @ M_A = M_B @ y, one generator and one degree at a time."""
    hc = homotopy_classes(a, b)
    hom_part = graded_hom(homology(a), homology(b))
    cols = []
    for gen in hc.generators():
        coords: tuple[int, ...] = ()
        for part, f in zip(hom_part.parts, (gen.f0, gen.f1)):
            coords += _hom_class(part, part.target.to_coords(f @ part.source.basis))
        cols.append(coords)
    return IntMatrix.from_columns(cols, rows=hom_part.ngens)


def ideal_ext_by_generators(res: Resolution, b: PeriodicComplex, n: int) -> FgAbGroup:
    """Cohomology of [P0, B] -> [P1, B] at position n in {0, 1}, with the
    pullback built generator by generator: each generator's chain map
    composed with delta1 as a checked `ChainMap`, then the classes of all
    the composites."""
    hc0, hc1 = homotopy_classes(res.p0, b), homotopy_classes(res.p1, b)
    pull = GroupHom(hc0, hc1, hc1.class_coords([g.compose(res.delta1) for g in hc0.generators()]))
    return pull.kernel_group() if n == 0 else pull.cokernel_group()


def laurent_ext_by_generators(m: RModule, n: RModule, degree: int) -> FgAbGroup:
    """Laurent Ext^degree, degree in {0, 1}: ker and coker of u - 1 for
    u: X -> t_N X t_M^-1 on Hom_Z(M, N), with u built one generator's
    matrix at a time."""
    hom_group, tm_inv = hom(m, n), m.t_inverse_matrix()
    cols = [_hom_class(hom_group, n.t_action @ hom_group.to_matrix(hom_group.element(e)) @ tm_inv)
            for e in IntMatrix.identity(hom_group.ngens).columns()]
    u = GroupHom(hom_group, hom_group, IntMatrix.from_columns(cols, rows=hom_group.ngens))
    u_minus_1 = u - GroupHom.identity(hom_group)
    return u_minus_1.kernel_group() if degree == 0 else u_minus_1.cokernel_group()



def kunneth_prediction_unreduced(ha: GradedAbGroup, hb: GradedAbGroup) -> GradedAbGroup:
    """Tensor and Tor_1 terms of the Kunneth prediction on the homology
    presentations as given."""
    even = DirectSum((tensor(ha.even, hb.even), tensor(ha.odd, hb.odd),
                      tor1(ha.even, hb.odd), tor1(ha.odd, hb.even)))
    odd = DirectSum((tensor(ha.even, hb.odd), tensor(ha.odd, hb.even),
                     tor1(ha.even, hb.even), tor1(ha.odd, hb.odd)))
    return GradedAbGroup(even, odd)


def ring_inverse_by_lattice_solve(ring: QuotientRing, x: tuple[int, ...]) -> list[int] | None:
    """y with x y = 1 in the ring, or None: the lattice solve on the matrix
    whose column j is x t^j, by `QuotientRing.multiply`."""
    d = ring.degree
    columns = [ring.multiply(x, tuple(int(i == j) for i in range(d))) for j in range(d)]
    rows = [[col[i] for col in columns] for i in range(d)]
    return solve_lattice(rows, d, [int(i == 0) for i in range(d)])


def cone_triangle_is_exact(f: ChainMap) -> bool:
    """Exactness of the 6-periodic homology sequence of f's cone triangle."""
    maps = triangle_homology_maps(f)
    return all(is_exact_pair(maps[i - 1], maps[i]) for i in range(6))


def injective_by_solve(f: GroupHom) -> bool:
    """f is injective when its kernel basis solves against the source's
    relations, i.e. every kernel element is zero in the source."""
    return f.source.relation_coords(f.kernel_gens) is not None


def exact_by_lift(f: GroupHom, g: GroupHom) -> bool:
    """source --f--> middle --g--> target is exact at the middle when f
    lifts g's kernel basis; g o f = 0 is taken as given."""
    return f.lift(g.kernel_gens) is not None


# Frozen comprehension definitions of the IntMatrix plumbing, compared
# with the package's on 0 x n, n x 0 and 0 x 0 matrices.

def columns_reference(m: IntMatrix) -> list[tuple[int, ...]]:
    return [tuple(m.data[i][j] for i in range(m.rows)) for j in range(m.cols)]


def transpose_reference(m: IntMatrix) -> IntMatrix:
    return IntMatrix(m.cols, m.rows, tuple(columns_reference(m)))


def hstack_reference(*mats: IntMatrix) -> IntMatrix:
    rows = mats[0].rows
    data = tuple(tuple(x for m in mats for x in m.data[i]) for i in range(rows))
    return IntMatrix(rows, sum(m.cols for m in mats), data)


def vstack_reference(*mats: IntMatrix) -> IntMatrix:
    data = tuple(row for m in mats for row in m.data)
    return IntMatrix(sum(m.rows for m in mats), mats[0].cols, data)


def kron_reference(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    data = tuple(
        tuple(a.data[i][j] * b.data[k][l] for j in range(a.cols) for l in range(b.cols))
        for i in range(a.rows) for k in range(b.rows))
    return IntMatrix(a.rows * b.rows, a.cols * b.cols, data)


def from_columns_reference(columns: list[tuple[int, ...]], rows: Optional[int] = None) -> IntMatrix:
    if rows is None:
        rows = len(columns[0]) if columns else 0
    return IntMatrix(rows, len(columns), tuple(
        tuple(int(col[i]) for col in columns) for i in range(rows)))


def block_diag_reference(*mats: IntMatrix) -> IntMatrix:
    n = len(mats)
    return vstack_reference(*(hstack_reference(*(
        mats[i] if i == j else IntMatrix.zero(mats[i].rows, mats[j].cols) for j in range(n)))
        for i in range(n)))
