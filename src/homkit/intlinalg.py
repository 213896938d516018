"""Exact integer linear algebra: Smith normal form, kernels, subquotients.

All computations run on immutable dense matrices of Python ints, so results
are exact; Smith-form coefficient growth is absorbed by arbitrary precision.

Orientation convention used throughout homkit: a presentation matrix has one
ROW per generator and one COLUMN per relation, and matrices act on column
vectors.  A vector is a plain tuple of ints.

Every lattice system goes through one divide step, which divides S out of
the rows of U b: `SmithDecomposition.contains` stops there, for a yes/no
membership question, and `SmithDecomposition.solve` goes on to X = V Y.
`kernel_basis`, `preimage_basis` and `image_witness` read lattice bases off
V.  The functions `solve` (one column), `solve_matrix`, `lattice_contains`,
`kernel_basis`, `lattice_basis` and `preimage_gens` factor once and call
them.  Objects that answer many questions about one matrix keep its
decomposition, so it is factored once: a `Subquotient` is built with its
basis's, and `abgroups.FgAbGroup` (and only it) factors a presentation.
An `abgroups.GroupHom`'s image generators are its cokernel's presentation,
so its kernel, surjectivity, lifts and exactness tests read that group's
decomposition.

`snf` keeps dense rows and rescans nothing: it reads each pivot off a list
of the rows' least nonzero |entries|, refreshed only for the rows an
operation changes, and each divisibility test off a list of the rows' gcds,
dropped only for the rows a row operation changes; it stops once the
remaining block is zero.  A matrix already in Smith form costs one scan and
comes back with no operations, as the pivot loop would return it.  The
pivot rule (minimal |value|, lowest (i, j) on ties) is frozen.  A
decomposition keeps its diagonal and the row and column operations that
made it: `contains` replays the row operations on the rows of b, `solve`
both kinds, a kernel or image basis replays V's on the identity columns it
keeps, and dense U, S and V are built only when read, which no package
path but `homkit snf` and selftest does.  A decomposition answers what its
factored matrix does; those derived from one (of a lattice, kernel or
reduced basis) are built by `Subquotient`'s three constructors, which
alone read the operations.

The constructor checks a matrix's shape, as do `from_rows` and
`from_columns`; matrices built here from matrices that passed it
(products, stacks, slices, Kronecker products, replayed operations), and
the diagonal, identity and zero matrices, built to their shape, are made
without the check.

The package's immutable value classes, here and in the modules built on
this one, are declared with `_record`, which builds their constructor,
equality, hash and repr from the annotated fields without `dataclasses`
(whose import and generated code cost a cold start more than a small job).
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from math import gcd
from operator import attrgetter
from typing import Optional, Sequence

from .errors import InputError

Vector = tuple[int, ...]

_new = object.__new__
_set = object.__setattr__


def _frozen(self, name: str, *value: object) -> None:
    raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")


def _record(cls: type) -> type:
    """Make `cls` a frozen value class on its own annotated fields, in order,
    as `@dataclass(frozen=True)` would, with no generated source: a
    positional `__init__` that stores the fields and then runs
    `__post_init__` if the class defines one; `__setattr__` and
    `__delattr__` that raise; `__eq__` and `__hash__` on all the fields;
    and a `Name(field=value, ...)` repr.  An `__eq__`, `__hash__` or
    `__repr__` the class defines is kept.  Instances keep their
    `__dict__`, so `cached_property` and `_matrix` work on them.  Fields
    are stored with `object.__setattr__`, as by the dataclass: reading
    `self.__dict__` would give each instance a dict of its own, larger and
    slower to read than the shared-key layout."""
    names = tuple(cls.__annotations__)
    arity = len(names)
    indexed = tuple(enumerate(names))  # a zip per call would cost more
    post_init = vars(cls).get("__post_init__")
    key = attrgetter(*names) if names else lambda self: ()

    def __init__(self, *args: object) -> None:
        if len(args) != arity:
            raise TypeError(f"{cls.__name__}() takes {arity} arguments ({len(args)} given)")
        for i, name in indexed:
            _set(self, name, args[i])
        if post_init is not None:
            post_init(self)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{type(self).__qualname__}({fields})"

    own = vars(cls)
    cls.__init__ = __init__
    cls.__setattr__ = cls.__delattr__ = _frozen
    if "__eq__" not in own:
        cls.__eq__ = __eq__
    if own.get("__hash__") is None:
        cls.__hash__ = __hash__
    if "__repr__" not in own:
        cls.__repr__ = __repr__
    return cls


@_record
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
        return cls.diagonal((1,) * n, n, n)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls.diagonal((), rows, cols)

    @classmethod
    def diagonal(cls, entries: Sequence[int], rows: Optional[int] = None, cols: Optional[int] = None) -> "IntMatrix":
        """The rows x cols matrix with `entries` down its diagonal (n x n for
        n entries by default), built to its shape, so only the sizes are
        checked."""
        n = len(entries)
        rows = n if rows is None else rows
        cols = n if cols is None else cols
        if rows < 0 or cols < 0:
            raise InputError("matrix dimensions must be nonnegative")
        zero = (0,) * cols
        data = [zero] * rows
        for i in range(min(n, rows, cols)):
            row = list(zero)
            row[i] = entries[i]
            data[i] = tuple(row)
        return _matrix(rows, cols, tuple(data))

    @classmethod
    def column_vector(cls, vec: Sequence[int]) -> "IntMatrix":
        """The one-column matrix of `vec`, as long as `vec` is."""
        return _matrix(len(vec), 1, tuple((x,) for x in vec))

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]], rows: Optional[int] = None) -> "IntMatrix":
        if rows is None:
            rows = len(columns[0]) if columns else 0
        if any(len(col) != rows for col in columns):
            raise InputError("matrix columns do not match the row count")
        if not columns:
            return cls(rows, 0, ((),) * rows)
        return cls(rows, len(columns), tuple(zip(*(map(int, col) for col in columns))))

    def __getitem__(self, ij: tuple[int | slice, int | slice]) -> int | IntMatrix:
        """Entry (i, j); for two slices of step 1, the block they pick."""
        i, j = ij
        if isinstance(i, slice):
            data = tuple(row[j] for row in self.data[i])
            return _matrix(len(data), len(range(*j.indices(self.cols))), data)
        return self.data[i][j]

    def column(self, j: int) -> Vector:
        return tuple(self.data[i][j] for i in range(self.rows))

    def columns(self) -> list[Vector]:
        return list(zip(*self.data)) if self.rows else [()] * self.cols

    def transpose(self) -> "IntMatrix":
        return _matrix(self.cols, self.rows, tuple(self.columns()))

    def __neg__(self) -> "IntMatrix":
        return _matrix(self.rows, self.cols, tuple(tuple(-x for x in row) for row in self.data))

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise InputError("matrix shape mismatch in addition")
        return _matrix(self.rows, self.cols, tuple(
            tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.data, other.data)))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + (-other)

    def scale(self, c: int) -> "IntMatrix":
        return _matrix(self.rows, self.cols, tuple(tuple(c * x for x in row) for row in self.data))

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
        return _matrix(self.rows, other.cols, tuple(out))

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
        return _matrix(self.rows * other.rows, self.cols * other.cols, tuple(data))


def _matrix(rows: int, cols: int, data: tuple[Vector, ...]) -> IntMatrix:
    """IntMatrix(rows, cols, data) without the shape check, for data built
    from matrices that passed it (products, stacks, blocks, Kronecker
    products, replayed operations): the public constructor, `from_rows`,
    `from_columns` and the JSON parser keep the check."""
    m = _new(IntMatrix)
    _set(m, "rows", rows)
    _set(m, "cols", cols)
    _set(m, "data", data)
    return m


def hstack(*mats: IntMatrix) -> IntMatrix:
    if not mats:
        raise InputError("hstack needs at least one matrix")
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise InputError("hstack: row counts differ")
    data = tuple(sum(parts, ()) for parts in zip(*(m.data for m in mats)))
    return _matrix(rows, sum(m.cols for m in mats), data)


def vstack(*mats: IntMatrix) -> IntMatrix:
    if not mats:
        raise InputError("vstack needs at least one matrix")
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise InputError("vstack: column counts differ")
    data = tuple(row for m in mats for row in m.data)
    return _matrix(sum(m.rows for m in mats), cols, data)


def block(grid: Sequence[Sequence[IntMatrix]]) -> IntMatrix:
    """Assemble a block matrix from a grid of compatible blocks."""
    return vstack(*(hstack(*row) for row in grid))


def block_diag(*mats: IntMatrix) -> IntMatrix:
    """The matrices down the diagonal (0 x 0 for none): each row is written
    out once, padded with the zeros to the left and right of its block."""
    cols = sum(m.cols for m in mats)
    data, left = [], 0
    for m in mats:
        before, after = (0,) * left, (0,) * (cols - left - m.cols)
        data += [before + row + after for row in m.data]
        left += m.cols
    return _matrix(sum(m.rows for m in mats), cols, tuple(data))


def vec(m: IntMatrix) -> Vector:
    """Column-major vectorization: vec(A X B) = (B^T kron A) vec(X)."""
    return tuple(m.data[i][j] for j in range(m.cols) for i in range(m.rows))


def unvec(v: Sequence[int], rows: int, cols: int) -> IntMatrix:
    if len(v) != rows * cols:
        raise InputError("unvec: length mismatch")
    return _matrix(rows, cols, tuple(
        tuple(v[j * rows + i] for j in range(cols)) for i in range(rows)))


def vec_columns(m: IntMatrix, cols: int, count: int) -> IntMatrix:
    """For m = [X_1 | ... | X_count], blocks `cols` wide, the matrix whose
    column g is vec(X_g).  Both are given, since neither follows from m
    when the other is 0: m has no columns for blocks of width 0, however
    many, nor for no blocks, however wide."""
    if m.cols != cols * count:
        raise InputError("vec_columns: columns do not split into the blocks")
    rows = m.data
    return _matrix(m.rows * cols, count, tuple(row[j::cols] for j in range(cols) for row in rows))


def unvec_columns(m: IntMatrix, rows: int, cols: int) -> IntMatrix:
    """[unvec(column 1) | ... | unvec(column g)], each block rows x cols: the
    inverse of `vec_columns`, so vec(X Z) for every X at once is one product
    by (Z^T kron I) between the two."""
    if m.rows != rows * cols:
        raise InputError("unvec_columns: length mismatch")
    return _matrix(rows, cols * m.cols, tuple(
        tuple(chain.from_iterable(zip(*m.data[i::rows]))) for i in range(rows)))


Op = tuple[int, int, int]


def _replay(ops, rows: list) -> list:
    """Apply the line operations `ops` in order to `rows`, a list of rows,
    in place, and return it.  (i, j, c) adds c times row j to row i; c = 0
    swaps rows i and j, and i = j negates row i.  A row is replaced, never
    mutated, so rows may be shared tuples."""
    for i, j, c in ops:
        if not c:
            rows[i], rows[j] = rows[j], rows[i]
        elif i == j:
            rows[i] = [-x for x in rows[i]]
        else:
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return rows


@_record
class SmithDecomposition:
    """Unimodular U, V and diagonal S with U @ A @ V = S for a `rows` x
    `cols` matrix A, kept as S's diagonal and the steps that made U and V.

    `diagonal` holds S's min(rows, cols) entries: nonnegative, each divides
    the next, zeros trail.  `row_ops` are the row operations that took A to
    S, in order, so U is their product; `col_ops` are the column
    operations, and V is theirs.  Each is a line operation as `_replay`
    reads it; a column operation (i, j, c) adds c times column j to column
    i, swaps them, or negates column i (`snf` never negates a column).
    Membership tests, solving and the kernel and image bases replay the
    steps; dense `s`, `u` and `v` are built from them only when read.
    """

    rows: int
    cols: int
    diagonal: Vector
    row_ops: tuple[Op, ...]
    col_ops: tuple[Op, ...]

    @cached_property
    def s(self) -> IntMatrix:
        return IntMatrix.diagonal(self.diagonal, self.rows, self.cols)

    @cached_property
    def u(self) -> IntMatrix:
        n = self.rows
        return _matrix(n, n, tuple(map(tuple, _replay(self.row_ops, [*IntMatrix.identity(n).data]))))

    @cached_property
    def v(self) -> IntMatrix:
        return self._v_times([*IntMatrix.identity(self.cols).data], self.cols)

    @property
    def rank(self) -> int:
        return len(self.diagonal) - self.diagonal.count(0)  # the zeros trail

    @property
    def cokernel_invariants(self) -> tuple[int, tuple[int, ...]]:
        """Canonical form of coker(A): (free rank, invariant factors >= 2)."""
        return self.rows - self.rank, tuple(d for d in self.diagonal if d >= 2)

    def _v_times(self, y: list, width: int) -> IntMatrix:
        """V Y for Y `width` columns wide, given its first rows `y` (the
        rest are zero): the column operations, last first, each as the row
        operation it is on Y, so no n x n matrix is formed."""
        y += [(0,) * width] * (self.cols - len(y))
        y = _replay(((j, i, c) for i, j, c in reversed(self.col_ops)), y)
        return _matrix(self.cols, width, tuple(map(tuple, y)))

    def kernel_basis(self) -> IntMatrix:
        """The columns of V past the rank: a basis of ker(A), which is saturated."""
        r, w = self.rank, self.cols - self.rank
        return self._v_times([(0,) * w] * r + [*IntMatrix.identity(w).data], w)

    def image_witness(self) -> IntMatrix:
        """The first `rank` columns T of V: A @ T is a basis of A's column lattice."""
        return self._v_times([*IntMatrix.identity(self.rank).data], self.rank)

    def preimage_basis(self, ncols: int) -> IntMatrix:
        """For A = [a | t], a with `ncols` columns: a basis of the lattice
        {x : a @ x lies in the column lattice of t}, the projection of ker(A)
        to its first `ncols` coordinates.  With t empty, ker(A) itself."""
        k = self.kernel_basis()
        if ncols == k.rows:
            return k
        return lattice_basis(k[:ncols, :])

    def _divided(self, b: IntMatrix) -> Optional[list]:
        """The first `rank` rows of Y with S Y = U b (the rest are zero), or
        None if some column of b has no integer solution: the divide step
        of `solve` and `contains`.  U b replays the row operations on the
        rows of b; a row of U b at or past the rank must be zero, and a row
        before it is divided by its diagonal entry (unless that is 1) with
        no remainder."""
        if b.rows != self.rows:
            raise InputError("solve: right-hand side has wrong row count")
        r = self.rank  # the nonzero diagonal entries come first
        ub = _replay(self.row_ops, list(b.data))
        if any(map(any, ub[r:])):
            return None
        y = []
        for row, d in zip(ub, self.diagonal[:r]):
            if d != 1:
                if any(x % d for x in row):
                    return None
                row = [x // d for x in row]
            y.append(row)
        return y

    def contains(self, b: IntMatrix) -> bool:
        """True if every column of b lies in the column lattice of the
        factored A: `solve`'s divide step, with no V replay."""
        return self._divided(b) is not None

    def solve(self, b: IntMatrix) -> Optional[IntMatrix]:
        """X with A @ X = b for the factored A, or None if some column of b
        has no integer solution: the divide step, then X = V Y, which
        replays the column operations on the rows of Y."""
        y = self._divided(b)
        return None if y is None else self._v_times(y, b.cols)


def _least_abs(row: list[int]) -> int:
    """Least nonzero |entry| of `row`, or 0 if the row is zero."""
    return min(map(abs, filter(None, row))) if any(row) else 0


def _smith_diagonal(a: IntMatrix) -> Optional[Vector]:
    """`a`'s diagonal if `a` is diagonal, its diagonal is nonnegative, each
    nonzero entry divides the next and zeros trail, else None: a scan,
    stopping at the first row that fails."""
    cols = a.cols
    last = 1
    for i, row in enumerate(a.data):
        d = row[i] if i < cols else 0
        if d < 0 or row.count(0) != cols - (d != 0) or (d % last if last else d):
            return None
        last = d
    return tuple(a.data[i][i] for i in range(min(a.rows, cols)))


def snf(a: IntMatrix) -> SmithDecomposition:
    """Smith normal form of an integer matrix.

    Pivots are chosen by minimal absolute value with lowest-index tie-break
    (the first such entry of s[k:, k:] in row-major order), so the returned
    decomposition is deterministic.  A matrix already in Smith form is one
    on which that rule makes no operation, so its diagonal is returned with
    no operations after a scan.  Otherwise rows k and below are zero left of
    column k, so the search reads a list holding each row's least nonzero
    |entry|, refreshed only for the rows an operation changes.  The
    divisibility test reads each row's gcd the same way: computed when the
    test first reads the row, and dropped only when a row operation changes
    it (a column operation keeps every row's gcd).  The factorization stops
    once the remaining block is zero.  S is kept as its diagonal; U and V
    as the row and column operations done.
    """
    diagonal = _smith_diagonal(a)
    if diagonal is not None:
        return SmithDecomposition(a.rows, a.cols, diagonal, (), ())
    rows, cols = a.rows, a.cols
    s = [list(r) for r in a.data]
    row_ops: list[Op] = []
    col_ops: list[Op] = []
    least = list(map(_least_abs, s))  # least[i]: row i's least nonzero |entry|
    gcds: list[Optional[int]] = [None] * rows  # gcds[i]: gcd of row i, once read

    def add_row(dst, src, c):
        # row_dst += c * row_src
        sd = s[dst]  # both rows are zero left of column k
        sd[k:] = [x + c * y for x, y in zip(sd[k:], s[src][k:])]
        row_ops.append((dst, src, c))
        least[dst] = _least_abs(sd)
        gcds[dst] = None

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
                row_ops.append((i, k, 0))
                least[i], least[k] = least[k], p
                gcds[i], gcds[k] = gcds[k], gcds[i]
            if j != k:
                for r in s[k:]:  # rows above k are zero in columns k and j
                    r[j], r[k] = r[k], r[j]
                col_ops.append((j, k, 0))
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
            # row k of S.
            sk = s[k]
            for j in range(k + 1, cols):
                if sk[j]:
                    c = -(sk[j] // p)
                    sk[j] += c * p
                    col_ops.append((j, k, c))
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
                g = gcds[i]
                if g is None:
                    g = gcds[i] = gcd(*s[i])
                if g % p:
                    add_row(k, i, 1)
                    break
            else:
                break
        if not p:
            break  # the remaining block is zero
        if s[k][k] < 0:  # row k of S is p e_k
            s[k][k] = -s[k][k]
            row_ops.append((k, k, -1))

    return SmithDecomposition(rows, cols, tuple(s[k][k] for k in range(min(rows, cols))),
                              tuple(row_ops), tuple(col_ops))


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
    if outer.rows != inner.rows:
        raise InputError("lattice_contains: row counts differ")
    return inner.cols == 0 or snf(outer).contains(inner)


def preimage_gens(a: IntMatrix, target_gens: IntMatrix) -> IntMatrix:
    """Basis of the lattice {x : a @ x lies in the column lattice of target_gens}."""
    if a.rows != target_gens.rows:
        raise InputError("preimage_gens: ambient dimensions differ")
    return snf(hstack(a, target_gens)).preimage_basis(a.cols)


@_record
class Subquotient:
    """A subquotient P/Q of some Z^n with elements addressable by coordinates.

    `basis` has one column per generator (a basis of the sublattice P), and
    `presentation` presents the quotient in those coordinates: one row per
    generator, one column per relation.  `basis_smith` is the Smith
    decomposition of [D | basis], read by every coordinate lookup; the
    group built on the presentation factors that.  The columns of D (none,
    unless `reduced` dropped generators) complete the basis to one of P and
    lie in Q, so a vector's coordinates are the last `ngens` rows of its
    solve.  The constructors `lattice_quotient`, `subquotient` and
    `reduced` build the basis's decomposition from one they already hold.
    """

    basis: IntMatrix
    presentation: IntMatrix
    basis_smith: SmithDecomposition

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
        return x[x.rows - self.ngens:, :] if x.rows > self.ngens else x

    def reduced(self, dec: SmithDecomposition) -> "Subquotient":
        """The same P/Q on the generators of the presentation's Smith basis
        whose invariant factor is not 1, for its decomposition `dec`:
        U M V = S, with t unit factors.  The basis is B U^-1's columns past
        t, undone from the row operations with no dense U; the presentation
        is S's block past t, built from its diagonal.  The columns before t
        lie in Q and join D, so [D | B] becomes [D | B] W' for
        W' = diag(I, U^-1), and U_b ([D | B] W') (W'^-1 V_b) = S_b keeps S_b
        and its row operations: U's row operations, last first, come before
        V_b's as the column operations they are (adding c times row j to row
        i is, on the right, adding c times column i to column j)."""
        t, r, n = dec.diagonal.count(1), dec.rank, dec.rows  # the unit factors come first
        # Columns t.. of U^-1: (i, j, -c) undoes (i, j, c); a swap or a
        # negation undoes itself.
        w = _replay(((i, j, -c) for i, j, c in reversed(dec.row_ops)),
                    [[int(i - t == j) for j in range(n - t)] for i in range(n)])
        b = self.basis_smith
        offset = b.cols - self.ngens
        ops = tuple((j + offset, i + offset, c) if c and i != j else (i + offset, j + offset, c)
                    for i, j, c in reversed(dec.row_ops))
        return Subquotient(self.basis @ _matrix(n, n - t, tuple(map(tuple, w))),
                           IntMatrix.diagonal(dec.diagonal[t:r], n - t, r - t),
                           SmithDecomposition(b.rows, b.cols, b.diagonal, b.row_ops, ops + b.col_ops))


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
    With U A V = S for A = p_gens, the basis is A T for V's first `rank`
    columns T, and U (A T) is those columns of S."""
    if p_gens.rows != q_gens.rows:
        raise InputError("lattice_quotient: ambient dimensions differ")
    dec = snf(p_gens)
    basis = SmithDecomposition(dec.rows, dec.rank, dec.diagonal[:dec.rank], dec.row_ops, ())
    return _quotient_over(p_gens @ dec.image_witness(), basis, q_gens,
                          "denominator lattice is not contained in the numerator")


def subquotient(l: IntMatrix, n: IntMatrix) -> Subquotient:
    """ker(l)/im(n), with coordinates in a stored basis of ker(l).

    Requires l @ n = 0; rejects other inputs as "not a subcomplex".  Only
    l is factored: with U l V = S of rank r, the basis K is V's columns
    past r, and V^-1 K is I below r zero rows, so K's U is V^-1 (the column
    operations undone in order, as row operations) with rows r.. moved
    first, its S is [I; 0] (m - r ones down the diagonal) and its V is I.
    """
    if l.cols != n.rows:
        raise InputError("subquotient: shapes are incompatible")
    dec = snf(l)
    m, r = dec.cols, dec.rank
    ops = tuple((j, i, -c) if c else (i, j, 0) for i, j, c in dec.col_ops)
    if r:
        ops += tuple((i, r + i, 0) for i in range(m - r))
    # The kernel is saturated, so N's columns lie in its lattice exactly
    # when l @ n = 0: solving N in K's coordinates is the subcomplex check.
    return _quotient_over(dec.kernel_basis(),
                          SmithDecomposition(m, m - r, (1,) * (m - r), ops, ()),
                          n, "not a subcomplex: L @ N is nonzero")
