"""Exact integer linear algebra: Smith normal form, kernels, subquotients.

All computations run on immutable dense matrices of Python ints, so results
are exact; Smith-form coefficient growth is absorbed by arbitrary precision.

Orientation convention used throughout homkit: a presentation matrix has one
ROW per generator and one COLUMN per relation, and matrices act on column
vectors.  A vector is a plain tuple of ints.

Every lattice system goes through `SmithDecomposition.solve`, which divides
S out of the rows of U b; `kernel_basis`, `preimage_basis` and `image_witness` read lattice
bases off V.  The functions `solve` (one column), `solve_matrix`,
`kernel_basis`, `lattice_basis` and `preimage_gens` factor once and call
them.  Objects that answer many questions about one matrix keep its
decomposition, so it is factored once: a `Subquotient` is built with its
basis's, and `abgroups.FgAbGroup` (and only it) factors a presentation.
An `abgroups.GroupHom`'s image generators are its cokernel's presentation,
so its kernel, surjectivity and lifts read that group's decomposition.

`snf` keeps dense rows and rescans nothing: it reads each pivot off a list
of the rows' least nonzero |entries|, refreshed only for the rows an
operation changes, and stops once the remaining block is zero.  The pivot
rule (minimal |value|, lowest (i, j) on ties) is frozen.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import gcd
from typing import Optional, Sequence

from .errors import InputError

Vector = tuple[int, ...]


@dataclass(frozen=True)
class IntMatrix:
    """Dense matrix of arbitrary-precision integers, row-major.

    Zero-dimensional matrices are legal and represent zero maps.
    """

    rows: int
    cols: int
    data: tuple[Vector, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise InputError("matrix dimensions must be nonnegative")
        if len(self.data) != self.rows or any(map(self.cols.__ne__, map(len, self.data))):
            raise InputError("matrix data does not match declared shape")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: Optional[int] = None) -> "IntMatrix":
        data = tuple(tuple(int(x) for x in row) for row in rows)
        if cols is None:
            cols = len(data[0]) if data else 0
        return cls(len(data), cols, data)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, tuple((0,) * cols for _ in range(rows)))

    @classmethod
    def diagonal(cls, entries: Sequence[int], rows: Optional[int] = None, cols: Optional[int] = None) -> "IntMatrix":
        n = len(entries)
        rows = n if rows is None else rows
        cols = n if cols is None else cols
        return cls(rows, cols, tuple(
            tuple(entries[i] if i == j and i < n else 0 for j in range(cols))
            for i in range(rows)))

    @classmethod
    def column_vector(cls, vec: Sequence[int]) -> "IntMatrix":
        """The one-column matrix of `vec`, as long as `vec` is."""
        return cls(len(vec), 1, tuple((x,) for x in vec))

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]], rows: Optional[int] = None) -> "IntMatrix":
        if rows is None:
            rows = len(columns[0]) if columns else 0
        if any(len(col) != rows for col in columns):
            raise InputError("matrix columns do not match the row count")
        if not columns:
            return cls(rows, 0, ((),) * rows)
        return cls(rows, len(columns), tuple(zip(*(map(int, col) for col in columns))))

    def __getitem__(self, ij: tuple[int, int]) -> int:
        return self.data[ij[0]][ij[1]]

    def column(self, j: int) -> Vector:
        return tuple(self.data[i][j] for i in range(self.rows))

    def columns(self) -> list[Vector]:
        return list(zip(*self.data)) if self.rows else [()] * self.cols

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows, tuple(self.columns()))

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(tuple(-x for x in row) for row in self.data))

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise InputError("matrix shape mismatch in addition")
        return IntMatrix(self.rows, self.cols, tuple(
            tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.data, other.data)))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + (-other)

    def scale(self, c: int) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(tuple(c * x for x in row) for row in self.data))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        """Product, row by row: each row of the result sums the rows of
        `other` picked out by the nonzero entries of the row of `self`."""
        if self.cols != other.rows:
            raise InputError("matrix shape mismatch in product")
        zero = (0,) * other.cols
        out = []
        for row in self.data:
            acc = None
            for a, brow in zip(row, other.data):
                if a:
                    acc = ([a * b for b in brow] if acc is None
                           else [x + a * b for x, b in zip(acc, brow)])
            out.append(zero if acc is None else tuple(acc))
        return IntMatrix(self.rows, other.cols, tuple(out))

    def apply(self, vec: Sequence[int]) -> Vector:
        if len(vec) != self.cols:
            raise InputError("vector length does not match matrix columns")
        nonzero = [(k, x) for k, x in enumerate(vec) if x]
        return tuple(sum(row[k] * x for k, x in nonzero) for row in self.data)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

    def kron(self, other: "IntMatrix") -> "IntMatrix":
        """Kronecker product; index (i, k) of the product is i*other.rows + k."""
        zero = (0,) * other.cols
        data = []
        for arow in self.data:
            for brow in other.data:
                row = []
                for a in arow:
                    row += [a * b for b in brow] if a else zero
                data.append(tuple(row))
        return IntMatrix(self.rows * other.rows, self.cols * other.cols, tuple(data))


def hstack(*mats: IntMatrix) -> IntMatrix:
    if not mats:
        raise InputError("hstack needs at least one matrix")
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise InputError("hstack: row counts differ")
    data = tuple(sum(parts, ()) for parts in zip(*(m.data for m in mats)))
    return IntMatrix(rows, sum(m.cols for m in mats), data)


def vstack(*mats: IntMatrix) -> IntMatrix:
    if not mats:
        raise InputError("vstack needs at least one matrix")
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise InputError("vstack: column counts differ")
    data = tuple(row for m in mats for row in m.data)
    return IntMatrix(sum(m.rows for m in mats), cols, data)


def block(grid: Sequence[Sequence[IntMatrix]]) -> IntMatrix:
    """Assemble a block matrix from a grid of compatible blocks."""
    return vstack(*(hstack(*row) for row in grid))


def block_diag(*mats: IntMatrix) -> IntMatrix:
    n = len(mats)
    grid = [[mats[i] if i == j else IntMatrix.zero(mats[i].rows, mats[j].cols)
             for j in range(n)] for i in range(n)]
    return block(grid)


def vec(m: IntMatrix) -> Vector:
    """Column-major vectorization: vec(A X B) = (B^T kron A) vec(X)."""
    return tuple(m.data[i][j] for j in range(m.cols) for i in range(m.rows))


def unvec(v: Sequence[int], rows: int, cols: int) -> IntMatrix:
    if len(v) != rows * cols:
        raise InputError("unvec: length mismatch")
    return IntMatrix(rows, cols, tuple(
        tuple(v[j * rows + i] for j in range(cols)) for i in range(rows)))


@dataclass(frozen=True)
class SmithDecomposition:
    """Unimodular U, V and diagonal S with U @ A @ V = S.

    Diagonal entries are nonnegative, each divides the next, zeros trail.
    """

    u: IntMatrix
    s: IntMatrix
    v: IntMatrix

    @cached_property
    def diagonal(self) -> Vector:
        n = min(self.s.rows, self.s.cols)
        return tuple(self.s.data[i][i] for i in range(n))

    @cached_property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)

    @property
    def cokernel_invariants(self) -> tuple[int, tuple[int, ...]]:
        """Canonical form of coker(A): (free rank, invariant factors >= 2)."""
        return self.u.rows - self.rank, tuple(d for d in self.diagonal if d >= 2)

    def kernel_basis(self) -> IntMatrix:
        """The columns of V past the rank: a basis of ker(A), which is saturated."""
        r = self.rank
        return IntMatrix(self.v.rows, self.v.cols - r, tuple(row[r:] for row in self.v.data))

    def image_witness(self) -> IntMatrix:
        """The first `rank` columns T of V: A @ T is a basis of A's column lattice."""
        r = self.rank
        return IntMatrix(self.v.rows, r, tuple(row[:r] for row in self.v.data))

    def image_decomposition(self) -> "SmithDecomposition":
        """Decomposition (U, S's first `rank` columns, I) of the basis
        A @ image_witness(): U A T is those columns of U A V = S."""
        r = self.rank
        return SmithDecomposition(self.u, IntMatrix(self.s.rows, r, tuple(
            row[:r] for row in self.s.data)), IntMatrix.identity(r))

    def preimage_basis(self, ncols: int) -> IntMatrix:
        """For A = [a | t], a with `ncols` columns: a basis of the lattice
        {x : a @ x lies in the column lattice of t}, the projection of ker(A)
        to its first `ncols` coordinates.  With t empty, ker(A) itself."""
        k = self.kernel_basis()
        if ncols == k.rows:
            return k
        return lattice_basis(IntMatrix(ncols, k.cols, k.data[:ncols]))

    def solve(self, b: IntMatrix) -> Optional[IntMatrix]:
        """X with A @ X = b for the factored A, or None if some column of b
        has no integer solution.  S Y = U b is solved row by row: a row of
        U b at or past the rank must be zero, and a row before it is divided
        by its diagonal entry (unless that is 1) with no remainder; then
        X = V Y.  U and V are each applied in one product."""
        if b.rows != self.u.rows:
            raise InputError("solve: right-hand side has wrong row count")
        r = self.rank  # the nonzero diagonal entries come first
        ub = (self.u @ b).data
        if any(map(any, ub[r:])):
            return None
        y = []
        for row, d in zip(ub, self.diagonal[:r]):
            if d != 1:
                if any(x % d for x in row):
                    return None
                row = tuple(x // d for x in row)
            y.append(row)
        y += [(0,) * b.cols] * (self.v.rows - r)
        return self.v @ IntMatrix(self.v.rows, b.cols, tuple(y))


def _identity_rows(n: int) -> list[list[int]]:
    rows = []
    for i in range(n):
        row = [0] * n
        row[i] = 1
        rows.append(row)
    return rows


def _least_abs(row: list[int]) -> int:
    """Least nonzero |entry| of `row`, or 0 if the row is zero."""
    return min(map(abs, filter(None, row))) if any(row) else 0


def snf(a: IntMatrix) -> SmithDecomposition:
    """Smith normal form of an integer matrix.

    Pivots are chosen by minimal absolute value with lowest-index tie-break
    (the first such entry of s[k:, k:] in row-major order), so the returned
    (U, S, V) is deterministic.  Rows k and below are zero left of column k,
    so the search reads a list holding each row's least nonzero |entry|,
    refreshed only for the rows an operation changes.  The factorization
    stops once the remaining block is zero.  V is kept by columns while
    factoring and transposed once at the end.
    """
    rows, cols = a.rows, a.cols
    s = [list(r) for r in a.data]
    u = _identity_rows(rows)
    vt = _identity_rows(cols)  # vt[j] is column j of V
    least = list(map(_least_abs, s))  # least[i]: row i's least nonzero |entry|

    def add_row(dst, src, c):
        # row_dst += c * row_src, in S and U
        sd = s[dst]  # both rows are zero left of column k
        sd[k:] = [x + c * y for x, y in zip(sd[k:], s[src][k:])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]
        least[dst] = _least_abs(sd)

    for k in range(min(rows, cols)):
        while True:
            # The pivot: the first row holding the least |entry| left, then
            # the first column of that row holding it.
            left = least[k:]
            p = min(filter(None, left)) if any(left) else 0
            if not p:
                break
            i = least.index(p, k)
            si = s[i]
            j = [*map(abs, si)].index(p)
            if i != k:
                s[i], s[k] = s[k], si
                u[i], u[k] = u[k], u[i]
                least[i], least[k] = least[k], p
            if j != k:
                for r in s[k:]:  # rows above k are zero in columns k and j
                    r[j], r[k] = r[k], r[j]
                vt[j], vt[k] = vt[k], vt[j]
            p = s[k][k]
            dirty = False
            for i in range(k + 1, rows):
                if s[i][k]:
                    add_row(i, k, -(s[i][k] // p))
                    if s[i][k]:
                        dirty = True
            if dirty:
                continue
            # Column k of S is now p e_k, so a column operation changes only
            # row k of S; V takes the whole operation.
            sk, vk = s[k], vt[k]
            for j in range(k + 1, cols):
                if sk[j]:
                    c = -(sk[j] // p)
                    sk[j] += c * p
                    vt[j] = [x + c * y for x, y in zip(vt[j], vk)]
                    if sk[j]:
                        dirty = True
            if dirty:
                least[k] = _least_abs(sk)
                continue
            if p == 1 or p == -1:  # a unit divides every entry left
                break
            # Row/column k are clear; enforce divisibility of the remaining
            # block: the first row holding an entry that p does not divide.
            for i in range(k + 1, rows):
                if gcd(*s[i]) % p:
                    add_row(k, i, 1)
                    break
            else:
                break
        if not p:
            break  # the remaining block is zero
        if s[k][k] < 0:
            s[k] = [-x for x in s[k]]
            u[k] = [-x for x in u[k]]

    return SmithDecomposition(IntMatrix(rows, rows, tuple(map(tuple, u))),
                              IntMatrix(rows, cols, tuple(map(tuple, s))),
                              IntMatrix(cols, cols, tuple(zip(*vt))))


def cokernel_invariants(a: IntMatrix) -> tuple[int, tuple[int, ...]]:
    """Canonical form of coker(a): (free rank, invariant factors >= 2).

    Rows of `a` index generators, columns index relations.
    """
    return snf(a).cokernel_invariants


def kernel_basis(a: IntMatrix) -> IntMatrix:
    """Columns form a basis of the lattice ker(a); the kernel is saturated."""
    return snf(a).kernel_basis()


def solve(a: IntMatrix, b: Sequence[int]) -> Optional[Vector]:
    """One integer solution x of a @ x = b, or None if none exists."""
    if len(b) != a.rows:
        raise InputError("solve: right-hand side has wrong length")
    x = snf(a).solve(IntMatrix.column_vector(b))
    return None if x is None else x.column(0)


def solve_matrix(a: IntMatrix, b: IntMatrix) -> Optional[IntMatrix]:
    """X with a @ X = b, columnwise, or None; `a` is factored once."""
    if a.rows != b.rows:
        raise InputError("solve_matrix: row counts differ")
    if b.cols == 0:
        return IntMatrix.zero(a.cols, 0)
    return snf(a).solve(b)


def lattice_basis(gens: IntMatrix) -> IntMatrix:
    """Basis of the lattice spanned by the columns of `gens`."""
    return gens @ snf(gens).image_witness()


def lll_reduce(basis: IntMatrix) -> IntMatrix:
    """LLL-reduced basis (delta = 3/4) of the lattice spanned by the
    linearly independent columns of `basis`.

    All-integer variant (Cohen, A Course in Computational Algebraic Number
    Theory, Algorithm 2.6.7): d[i] are the Gram determinants and lam[k][j]
    the scaled Gram-Schmidt coefficients, so every division is exact.
    Indices are 1-based as in the reference.
    """
    n = basis.cols
    b = [()] + basis.columns()
    if n <= 1:
        return basis

    def dot(x: Vector, y: Vector) -> int:
        return sum(p * q for p, q in zip(x, y))

    d = [1, dot(b[1], b[1])] + [0] * (n - 1)
    lam = [[0] * (n + 1) for _ in range(n + 1)]

    def reduce(k: int, l: int) -> None:
        if 2 * abs(lam[k][l]) > d[l]:
            q = (2 * lam[k][l] + d[l]) // (2 * d[l])
            b[k] = tuple(x - q * y for x, y in zip(b[k], b[l]))
            lam[k][l] -= q * d[l]
            for i in range(1, l):
                lam[k][i] -= q * lam[l][i]

    k, kmax = 2, 1
    while k <= n:
        if k > kmax:  # Gram-Schmidt data of the new vector b[k]
            kmax = k
            for j in range(1, k + 1):
                u = dot(b[k], b[j])
                for i in range(1, j):
                    u = (d[i] * u - lam[k][i] * lam[j][i]) // d[i - 1]
                if j < k:
                    lam[k][j] = u
                else:
                    d[k] = u
            if d[k] == 0:
                raise InputError("lll_reduce: columns are linearly dependent")
        reduce(k, k - 1)
        if 4 * d[k] * d[k - 2] < 3 * d[k - 1] ** 2 - 4 * lam[k][k - 1] ** 2:
            b[k], b[k - 1] = b[k - 1], b[k]
            for j in range(1, k - 1):
                lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
            m = lam[k][k - 1]
            new = (d[k - 2] * d[k] + m * m) // d[k - 1]
            for i in range(k + 1, kmax + 1):
                t = lam[i][k]
                lam[i][k] = (d[k] * lam[i][k - 1] - m * t) // d[k - 1]
                lam[i][k - 1] = (new * t + m * lam[i][k]) // d[k]
            d[k - 1] = new
            k = max(2, k - 1)
        else:
            for l in range(k - 2, 0, -1):
                reduce(k, l)
            k += 1
    return IntMatrix.from_columns(b[1:], rows=basis.rows)


def lattice_contains(outer: IntMatrix, inner: IntMatrix) -> bool:
    """True if every column of `inner` lies in the column lattice of `outer`."""
    return solve_matrix(outer, inner) is not None


def lattices_equal(a: IntMatrix, b: IntMatrix) -> bool:
    return lattice_contains(a, b) and lattice_contains(b, a)


def preimage_gens(a: IntMatrix, target_gens: IntMatrix) -> IntMatrix:
    """Basis of the lattice {x : a @ x lies in the column lattice of target_gens}."""
    if a.rows != target_gens.rows:
        raise InputError("preimage_gens: ambient dimensions differ")
    return snf(hstack(a, target_gens)).preimage_basis(a.cols)


@dataclass(frozen=True)
class Subquotient:
    """A subquotient P/Q of some Z^n with elements addressable by coordinates.

    `basis` has one column per generator (a basis of the sublattice P), and
    `presentation` presents the quotient in those coordinates: one row per
    generator, one column per relation.  `basis_smith` is the basis's Smith
    decomposition, made with the basis and read by every coordinate lookup;
    the group built on the presentation factors that.
    """

    basis: IntMatrix
    presentation: IntMatrix
    basis_smith: SmithDecomposition = field(compare=False)

    @property
    def ngens(self) -> int:
        return self.basis.cols

    def from_coords(self, coords: Sequence[int]) -> Vector:
        """Ambient representative of the element with the given coordinates."""
        return self.basis.apply(coords)

    def to_coords(self, ambient: IntMatrix) -> IntMatrix:
        """Coordinates of each ambient column; all must lie in the sublattice."""
        x = self.basis_smith.solve(ambient)
        if x is None:
            raise InputError("vector does not lie in the subgroup")
        return x


def _quotient_over(basis: IntMatrix, dec: SmithDecomposition, q_gens: IntMatrix,
                   message: str) -> Subquotient:
    """lattice(basis)/lattice(q_gens), given basis's decomposition `dec`,
    raising InputError(message) unless Q lies in P."""
    rel = dec.solve(q_gens)
    if rel is None:
        raise InputError(message)
    return Subquotient(basis, rel, dec)


def lattice_quotient(p_gens: IntMatrix, q_gens: IntMatrix) -> Subquotient:
    """The quotient lattice(p_gens)/lattice(q_gens); Q must be contained in P.
    The one factorization of p_gens gives the basis and its decomposition."""
    if p_gens.rows != q_gens.rows:
        raise InputError("lattice_quotient: ambient dimensions differ")
    dec = snf(p_gens)
    return _quotient_over(p_gens @ dec.image_witness(), dec.image_decomposition(), q_gens,
                          "denominator lattice is not contained in the numerator")


def subquotient(l: IntMatrix, n: IntMatrix) -> Subquotient:
    """ker(l)/im(n), with coordinates in a stored basis of ker(l).

    Requires l @ n = 0; rejects other inputs as "not a subcomplex".
    """
    if l.cols != n.rows:
        raise InputError("subquotient: shapes are incompatible")
    if not (l @ n).is_zero():
        raise InputError("not a subcomplex: L @ N is nonzero")
    dec = snf(l)
    k = dec.kernel_basis()  # when l has rank 0, V and so k are the identity
    # The error cannot happen when l @ n = 0: the kernel is saturated.
    return _quotient_over(k, SmithDecomposition(k, k, k) if dec.rank == 0 else snf(k), n,
                          "not a subcomplex: image does not lie in the kernel")
