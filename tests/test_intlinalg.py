import random
from fractions import Fraction

import pytest

from homkit.errors import InputError
from homkit.intlinalg import (
    IntMatrix,
    cokernel_invariants,
    hstack,
    kernel_basis,
    lattice_basis,
    lattices_equal,
    lll_reduce,
    preimage_gens,
    snf,
    solve,
    solve_matrix,
    subquotient,
)

from .oracles import (
    column_reduction_kernel,
    det_bareiss,
    determinantal_divisor_diagonal,
    solve_fraction,
    snf_reference,
    solve_lattice,
    subquotient_presentation_oracle,
)


def random_matrix(rng, rows, cols, bound):
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)], cols=cols)


class TestSnf:
    def test_worked_example(self):
        # Oracle: d1 = gcd of entries = 2, d1 d2 = |det| = 8, so diag = (2, 4).
        dec = snf(IntMatrix.from_rows([[2, 4], [6, 8]]))
        assert dec.diagonal == (2, 4)

    def test_identity(self):
        dec = snf(IntMatrix.identity(4))
        assert dec.s == IntMatrix.identity(4)

    def test_zero_matrix(self):
        dec = snf(IntMatrix.zero(3, 2))
        assert dec.s == IntMatrix.zero(3, 2)
        assert dec.rank == 0

    def test_empty_dimensions(self):
        for shape in ((0, 0), (0, 3), (3, 0)):
            dec = snf(IntMatrix.zero(*shape))
            assert (dec.s.rows, dec.s.cols) == shape
            assert dec.u @ IntMatrix.zero(*shape) @ dec.v == dec.s

    def test_decomposition_identities_random(self):
        rng = random.Random(101)
        for _ in range(200):
            rows, cols = rng.randint(0, 6), rng.randint(0, 6)
            a = random_matrix(rng, rows, cols, 9)
            dec = snf(a)
            assert dec.u @ a @ dec.v == dec.s
            assert abs(det_bareiss([list(r) for r in dec.u.data])) == 1
            assert abs(det_bareiss([list(r) for r in dec.v.data])) == 1
            diag = dec.diagonal
            assert all(d >= 0 for d in diag)
            nonzero = [d for d in diag if d]
            assert diag[:len(nonzero)] == tuple(nonzero), "zeros must trail"
            assert all(b % a_ == 0 for a_, b in zip(nonzero, nonzero[1:]))

    def test_against_determinantal_divisors(self):
        rng = random.Random(55)
        for _ in range(150):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            a = random_matrix(rng, rows, cols, 6)
            expected = determinantal_divisor_diagonal([list(r) for r in a.data])
            assert list(snf(a).diagonal) == expected

    def test_deterministic(self):
        a = IntMatrix.from_rows([[3, 1, -4], [0, 2, 5]])
        assert snf(a) == snf(a)

    def test_matches_reference_pivots(self):
        # U, S and V equal those of the frozen copy of the earlier snf, entry
        # for entry: the unit-pivot and column shortcuts change no pivot.
        rng = random.Random(2_024)
        for i in range(2_000):
            rows, cols = rng.randint(0, 9), rng.randint(0, 9)
            kind = i % 4
            if kind == 0:
                a = random_matrix(rng, rows, cols, 3)
            elif kind == 1:  # mostly units and zeros
                a = IntMatrix.from_rows([[rng.choice((-1, -1, 0, 0, 1, 1, 2)) for _ in range(cols)]
                                         for _ in range(rows)], cols=cols)
            elif kind == 2:  # zero rows and columns
                zr = set(rng.sample(range(rows), rows // 3))
                zc = set(rng.sample(range(cols), cols // 3))
                a = IntMatrix.from_rows([[0 if r in zr or c in zc else rng.randint(-9, 9)
                                          for c in range(cols)] for r in range(rows)], cols=cols)
            else:
                a = random_matrix(rng, rows, cols, 10 ** 6)
            assert snf(a) == snf_reference(a), a


class TestCokernelInvariants:
    def test_cyclic(self):
        assert cokernel_invariants(IntMatrix.from_rows([[2]])) == (0, (2,))

    def test_free(self):
        assert cokernel_invariants(IntMatrix.zero(2, 0)) == (2, ())

    def test_diag_2_3(self):
        # SNF of diag(2, 3) is diag(1, 6).
        assert cokernel_invariants(IntMatrix.from_rows([[2, 0], [0, 3]])) == (0, (6,))

    def test_unit_factors_dropped(self):
        assert cokernel_invariants(IntMatrix.from_rows([[1, 0], [0, 4]])) == (0, (4,))


class TestSolveAndLattices:
    def test_solve_roundtrip_random(self):
        rng = random.Random(7)
        for _ in range(100):
            a = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), 5)
            x = [rng.randint(-4, 4) for _ in range(a.cols)]
            b = a.apply(x)
            y = solve(a, b)
            assert y is not None
            assert a.apply(y) == b

    def test_solve_unsolvable(self):
        assert solve(IntMatrix.from_rows([[2]]), (1,)) is None
        assert solve(IntMatrix.zero(1, 0), (1,)) is None

    def test_matrix_forms_match_columnwise_solve(self):
        # Against the fraction-elimination oracles: a system is solvable
        # exactly when every column is, solutions solve it, and coordinates
        # over an independent basis are the unique rational solution.
        rng = random.Random(53)
        for _ in range(120):
            a = random_matrix(rng, rng.randint(0, 4), rng.randint(0, 4), 5)
            cols = [a.apply([rng.randint(-4, 4) for _ in range(a.cols)])
                    if rng.random() < 0.8 else
                    tuple(rng.randint(-4, 4) for _ in range(a.rows))
                    for _ in range(rng.randint(0, 4))]
            b = IntMatrix.from_columns(cols, rows=a.rows)
            rows = [list(r) for r in a.data]
            solvable = all(solve_lattice(rows, a.cols, list(col)) is not None for col in cols)
            x = solve_matrix(a, b)
            assert (x is not None) == solvable
            if x is not None:
                assert a @ x == b
            singles = [solve(a, col) for col in cols]
            for col, y in zip(cols, singles):
                assert (y is not None) == (solve_lattice(rows, a.cols, list(col)) is not None)
                assert y is None or a.apply(y) == col
            assert x == (None if None in singles else
                         IntMatrix.from_columns(singles, rows=a.cols))
            sq = subquotient(a, IntMatrix.zero(a.cols, 0))  # coordinates on ker(a)
            ambient = IntMatrix.from_columns(
                [sq.basis.apply([rng.randint(-4, 4) for _ in range(sq.ngens)])
                 for _ in range(rng.randint(0, 4))], rows=a.cols)
            basis_cols = [list(c) for c in sq.basis.columns()]
            assert sq.to_coords(ambient) == IntMatrix.from_columns(
                [solve_fraction(basis_cols, list(col)) for col in ambient.columns()],
                rows=sq.ngens)

    def test_solve_matrix_edge_shapes(self):
        # One unsolvable column makes the whole system unsolvable.
        assert solve_matrix(IntMatrix.from_rows([[2]]), IntMatrix.from_rows([[4, 1]])) is None
        a = IntMatrix.from_rows([[1, 2, 3], [0, 4, 5]])
        assert solve_matrix(a, IntMatrix.zero(2, 0)) == IntMatrix.zero(3, 0)
        assert solve_matrix(IntMatrix.zero(0, 3), IntMatrix.zero(0, 2)) == IntMatrix.zero(3, 2)
        assert solve_matrix(IntMatrix.zero(2, 0), IntMatrix.zero(2, 1)) == IntMatrix.zero(0, 1)
        assert solve_matrix(IntMatrix.zero(2, 0), IntMatrix.from_rows([[0], [1]])) is None
        with pytest.raises(InputError):
            solve_matrix(a, IntMatrix.zero(3, 1))

    def test_lll_reduce(self):
        # Same lattice, size-reduced and Lovasz (delta = 3/4), checked on a
        # Gram-Schmidt basis computed here with fractions.
        rng = random.Random(71)
        done = 0
        while done < 60:
            m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 5), 40)
            basis = lattice_basis(m)
            reduced = lll_reduce(basis)
            assert reduced.rows == basis.rows and reduced.cols == basis.cols
            assert lattices_equal(reduced, basis)
            cols = [[Fraction(x) for x in c] for c in reduced.columns()]
            star, norms = [], []
            for k, c in enumerate(cols):
                v = list(c)
                for j in range(k):
                    mu = sum(x * y for x, y in zip(c, star[j])) / norms[j]
                    assert abs(mu) <= Fraction(1, 2)
                    v = [x - mu * y for x, y in zip(v, star[j])]
                    if j == k - 1:
                        assert sum(x * x for x in v) >= (Fraction(3, 4) - mu * mu) * norms[j]
                star.append(v)
                norms.append(sum(x * x for x in v))
            done += 1
        with pytest.raises(InputError, match="dependent"):
            lll_reduce(IntMatrix.from_columns([(1, 2), (2, 4)]))

    def test_kernel_basis_spans_kernel(self):
        rng = random.Random(13)
        for _ in range(60):
            a = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5), 4)
            k = kernel_basis(a)
            assert (a @ k).is_zero()
            oracle = column_reduction_kernel([list(r) for r in a.data], a.cols)
            assert len(oracle) == k.cols
            for col in oracle:
                assert solve(k, col) is not None

    def test_lattice_basis_and_preimage(self):
        rng = random.Random(29)
        for _ in range(60):
            gens = random_matrix(rng, 3, rng.randint(0, 4), 4)
            basis = lattice_basis(gens)
            assert lattices_equal(basis, gens)
            l = random_matrix(rng, 3, 3, 3)
            pre = preimage_gens(l, gens)
            for j in range(pre.cols):
                assert solve(gens, l.apply(pre.column(j))) is not None


class TestSubquotient:
    def test_full_free_quotient(self):
        sq = subquotient(IntMatrix.zero(1, 2), IntMatrix.zero(2, 0))
        assert cokernel_invariants(sq.presentation) == (2, ())

    def test_z2_from_antidiagonal(self):
        # ker[1 1] is spanned by (1, -1); the column (2, -2) hits twice the
        # generator, leaving Z/2.
        sq = subquotient(IntMatrix.from_rows([[1, 1]]), IntMatrix.from_columns([(2, -2)]))
        assert cokernel_invariants(sq.presentation) == (0, (2,))
        assert sq.to_coords(IntMatrix.from_columns([(3, -3)])).columns() in ([(3,)], [(-3,)])
        with pytest.raises(InputError, match="does not lie"):
            sq.to_coords(IntMatrix.from_columns([(3, -3), (1, 0)]))

    def test_identity_kernel_trivial(self):
        sq = subquotient(IntMatrix.identity(3), IntMatrix.zero(3, 0))
        assert cokernel_invariants(sq.presentation) == (0, ())

    def test_rejects_non_subcomplex(self):
        with pytest.raises(InputError, match="not a subcomplex"):
            subquotient(IntMatrix.from_rows([[1, 0]]), IntMatrix.from_columns([(1, 1)]))

    def test_coords_roundtrip(self):
        sq = subquotient(IntMatrix.from_rows([[1, 1, 0]]),
                         IntMatrix.from_columns([(2, -2, 0)]))
        coords = [(1, 0), (0, 3), (-2, 5)]
        ambient = IntMatrix.from_columns([sq.from_coords(c) for c in coords])
        assert sq.to_coords(ambient) == IntMatrix.from_columns(coords)

    def test_against_column_reduction_oracle(self):
        rng = random.Random(41)
        for _ in range(80):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            l = random_matrix(rng, rows, cols, 3)
            k = kernel_basis(l)
            picks = [[rng.randint(-2, 2) for _ in range(k.cols)] for _ in range(rng.randint(0, 3))]
            n = IntMatrix.from_columns([k.apply(p) for p in picks], rows=cols)
            sq = subquotient(l, n)
            oracle_pres = subquotient_presentation_oracle(
                [list(r) for r in l.data], l.cols, [list(n.column(j)) for j in range(n.cols)])
            oracle_matrix = IntMatrix.from_columns(oracle_pres, rows=len(oracle_pres[0]) if oracle_pres else k.cols)
            assert cokernel_invariants(oracle_matrix) == cokernel_invariants(sq.presentation)


class TestIntMatrix:
    def test_zero_dims_are_legal(self):
        z = IntMatrix.zero(0, 3)
        assert (z @ IntMatrix.zero(3, 2)).rows == 0
        assert z.transpose().cols == 0

    def test_kron_index_convention(self):
        a = IntMatrix.from_rows([[1, 2]])
        b = IntMatrix.from_rows([[3], [4]])
        k = a.kron(b)
        assert k.data == ((3, 6), (4, 8))

    def test_shape_validation(self):
        with pytest.raises(InputError):
            IntMatrix(2, 2, ((1, 2),))
        with pytest.raises(InputError):
            IntMatrix.from_rows([[1]]) @ IntMatrix.from_rows([[1, 2], [3, 4]])
        with pytest.raises(InputError):
            hstack(IntMatrix.zero(1, 1), IntMatrix.zero(2, 1))
