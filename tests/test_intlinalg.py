import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from functools import reduce
from pathlib import Path

import pytest

from homkit import cli, intlinalg, percomplex
from homkit.errors import InputError
from homkit.abgroups import FgAbGroup, GroupElement
from homkit.intlinalg import (
    IntMatrix,
    SmithDecomposition,
    block_diag,
    cokernel_invariants,
    hstack,
    kernel_basis,
    lattice_basis,
    lattice_contains,
    lattice_quotient,
    lll_reduce,
    preimage_gens,
    snf,
    solve,
    solve_matrix,
    Subquotient,
    subquotient,
    unvec,
    unvec_columns,
    vec,
    vec_columns,
    vstack,
)
from homkit.percomplex import direct_sum, homotopy_classes
from homkit.randgen import random_complex
from homkit.repmod import LaurentRing, QuotientRing

from .oracles import (
    block_diag_reference,
    column_reduction_kernel,
    columns_reference,
    det_bareiss,
    determinantal_divisor_diagonal,
    from_columns_reference,
    hstack_reference,
    kron_reference,
    snf_reference,
    solve_dense,
    solve_fraction,
    solve_lattice,
    subquotient_presentation_oracle,
    transpose_reference,
    vstack_reference,
)
from .test_expected_documents import _GENERATE

ROOT = Path(__file__).resolve().parent.parent


def random_matrix(rng, rows, cols, bound):
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)], cols=cols)


def lattices_equal(a, b):
    return lattice_contains(a, b) and lattice_contains(b, a)


def homotopy_class_systems(monkeypatch, pairs: int, max_cells: int) -> list[IntMatrix]:
    """The l, n and presentation matrices `homotopy_classes` builds for
    [A, B], A and B sums of 2-3 `random_complex(max_rank=3)`, those with at
    most `max_cells` entries."""
    rng = random.Random(15)
    seen: list[tuple[IntMatrix, IntMatrix]] = []

    def recording(l, n):
        seen.append((l, n))
        return subquotient(l, n)

    monkeypatch.setattr(percomplex, "subquotient", recording)
    out = []
    for _ in range(pairs):
        a, b = (_summed(rng) for _ in range(2))
        hc = homotopy_classes(a, b)
        l, n = seen.pop()
        out += [m for m in (l, n, hc.presentation) if m.rows * m.cols <= max_cells]
    return out


def _summed(rng):
    return reduce(direct_sum, [random_complex(rng, max_rank=3) for _ in range(rng.randint(2, 3))])


def reference_pivot_matrices(rng, count: int) -> list[IntMatrix]:
    """Random matrices up to 9 x 9, zero dimensions included, of four kinds
    in turn: small entries, mostly units and zeros, zero rows and columns,
    and entries up to 10**6."""
    out = []
    for i in range(count):
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
        out.append(a)
    return out


def early_stop_and_gcd_cases(rng) -> list[IntMatrix]:
    """Rank-deficient block-diagonal matrices ending in a zero block, whose
    factorization stops before its last rows and columns; matrices with no
    unit entry, whose pivots need the divisibility step; 0 x n and n x 0."""
    out = []
    for _ in range(40):
        a = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7), 5)
        out.append(block_diag(a, a, IntMatrix.zero(rng.randint(1, 4), rng.randint(1, 4))))
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        out.append(IntMatrix.from_rows(
            [[rng.choice((0, 2, -2, 3, -3, 4, 6, -6, 9, 12)) * rng.choice((1, 2, 3))
              for _ in range(cols)] for _ in range(rows)], cols=cols))
        out.append(random_matrix(rng, rows, cols, 4).scale(rng.choice((2, 3, 6))))
    out += [IntMatrix.zero(0, n) for n in range(4)] + [IntMatrix.zero(n, 0) for n in range(4)]
    return out


def right_hand_sides(rng, a: IntMatrix) -> list[IntMatrix]:
    """Systems for `a`: two columns a @ x, and, if `a` has rows, the first
    with one entry moved, alone and beside the second."""
    cols = [a.apply([rng.randint(-3, 3) for _ in range(a.cols)]) for _ in range(2)]
    bs = [IntMatrix.from_columns(cols, rows=a.rows)]
    if a.rows:
        moved = list(cols[0])
        moved[rng.randrange(a.rows)] += rng.choice((-1, 1, 2))
        bs += [IntMatrix.from_columns([tuple(moved)], rows=a.rows),
               IntMatrix.from_columns([cols[1], tuple(moved)], rows=a.rows)]
    return bs


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
        for a in reference_pivot_matrices(random.Random(2_024), 2_000):
            dec = snf(a)
            assert (dec.u, dec.s, dec.v) == snf_reference(a), a

    def test_matches_reference_pivots_on_homotopy_class_systems(self, monkeypatch):
        # The Kronecker systems of [A, B], up to about 5,000 entries: these
        # run the row-minimum pivot search over many rows and columns.
        mats = homotopy_class_systems(monkeypatch, 40, 5_000)
        assert max(m.rows * m.cols for m in mats) > 4_000
        for a in mats:
            dec = snf(a)
            assert (dec.u, dec.s, dec.v) == snf_reference(a), (a.rows, a.cols)

    def test_matches_reference_pivots_on_early_stop_and_gcd_cases(self):
        for a in early_stop_and_gcd_cases(random.Random(77)):
            dec = snf(a)
            assert (dec.u, dec.s, dec.v) == snf_reference(a), a

    def test_smith_form_inputs_come_back_with_no_operations(self):
        # The frozen pivot rule makes no operation on a matrix already in
        # Smith form, so snf returns it as S with empty logs.
        mats = [FgAbGroup.from_invariants(rank, torsion).presentation
                for rank in (0, 1, 3) for torsion in ((), (2,), (2, 4), (3, 3, 6), (2, 2, 12))]
        mats += [IntMatrix.zero(*shape) for shape in ((0, 0), (0, 3), (3, 0), (1, 1), (2, 5))]
        mats += [IntMatrix.identity(n) for n in (1, 4)]
        mats += [IntMatrix.diagonal((n,) * k, rows=k, cols=k) for n in (2, 5) for k in (1, 4)]
        mats += [IntMatrix.diagonal((1, 2, 6, 0), rows=rows, cols=cols)
                 for rows, cols in ((4, 4), (6, 4), (4, 7))]
        mats += [IntMatrix.diagonal((3, 3, 0), rows=5, cols=3)]
        for a in mats:
            dec = snf(a)
            assert dec.s == a and dec.row_ops == () and dec.col_ops == (), a
            ident_u, ident_v = IntMatrix.identity(a.rows), IntMatrix.identity(a.cols)
            assert snf_reference(a) == (ident_u, a, ident_v), a

    def test_near_smith_form_inputs_match_reference_pivots(self):
        # One step from Smith form: out of divisibility order, a zero before
        # a nonzero, a negative entry, coprime entries, one off-diagonal entry.
        mats = [IntMatrix.diagonal(d, rows=2, cols=2) for d in ((3, 2), (0, 2), (-2, 4), (2, 3))]
        mats += [IntMatrix.from_rows([[2, 0, 0], [0, 4, 2], [0, 0, 8]]),
                 IntMatrix.from_rows([[1, 0], [0, 3], [5, 0]]),
                 IntMatrix.from_rows([[2, 0, 0], [0, 4, 6]])]
        for a in mats:
            dec = snf(a)
            assert (dec.u, dec.s, dec.v) == snf_reference(a), a
            assert dec.row_ops or dec.col_ops, a

    def test_divisibility_test_reads_each_row_gcd_until_a_row_operation(self, monkeypatch):
        # A 30 x 30 anti-diagonal of 2s needs a column swap per pivot and a
        # divisibility test over every row below it; recomputing row gcds
        # for each test costs 435 calls, reading them once costs 29.
        calls = []

        def counting_gcd(*xs):
            calls.append(None)
            return math.gcd(*xs)

        n = 30
        a = IntMatrix.from_rows([[2 if i + j == n - 1 else 0 for j in range(n)] for i in range(n)])
        monkeypatch.setattr(intlinalg, "gcd", counting_gcd)
        dec = snf(a)
        assert dec.diagonal == (2,) * n
        assert len(calls) <= a.rows + len(dec.row_ops), len(calls)

    def test_replayed_solve_matches_the_dense_formula(self, monkeypatch):
        # On the three reference-pivot ensembles, solving by replaying the
        # operations gives exactly X = V Y from U b and S, and None on the
        # same right-hand sides: a @ x, and a @ x with one entry moved.
        rng = random.Random(83)
        mats = (reference_pivot_matrices(random.Random(2_024), 400)
                + homotopy_class_systems(monkeypatch, 6, 1_500)
                + early_stop_and_gcd_cases(random.Random(77)))
        outcomes = {"solved": 0, "none": 0}
        for a in mats:
            bs = right_hand_sides(rng, a)
            dec = snf(a)
            got = [dec.solve(b) for b in bs]
            for b, x in zip(bs, got):
                assert x == solve_dense(dec.u, dec.s, dec.v, b), a
                outcomes["none" if x is None else "solved"] += 1
        assert min(outcomes.values()) >= 200, outcomes

    def test_membership_answers_as_solve_does_without_replaying_v(self, monkeypatch):
        # On the three reference-pivot ensembles, `contains` is the divide
        # step of `solve` alone: it says yes exactly when `solve` finds a
        # solution, rejects a wrong row count with the same error, and
        # answers with V's replay patched to raise.
        rng = random.Random(89)
        mats = (reference_pivot_matrices(random.Random(2_024), 400)
                + homotopy_class_systems(monkeypatch, 6, 1_500)
                + early_stop_and_gcd_cases(random.Random(77)))
        cases = []
        for a in mats:
            bs = right_hand_sides(rng, a)
            dec = snf(a)
            cases += [(dec, b, dec.solve(b) is not None) for b in bs]
            wrong = IntMatrix.zero(a.rows + 1, 1)
            with pytest.raises(InputError) as solved:
                dec.solve(wrong)
            with pytest.raises(InputError) as tested:
                dec.contains(wrong)
            assert str(tested.value) == str(solved.value)

        def no_replay(self, y, width):
            raise AssertionError("contains replayed V")

        monkeypatch.setattr(SmithDecomposition, "_v_times", no_replay)
        answers = Counter()
        for dec, b, solvable in cases:
            assert dec.contains(b) == solvable, (dec, b)
            answers[solvable] += 1
        assert min(answers.values()) >= 200, answers

    def test_solve_rank_and_invariants_build_no_dense_u_or_v(self, monkeypatch):
        # A decomposition keeps its diagonal and its operations.  Solving,
        # the rank, the invariants, the kernel, image and preimage bases and
        # the three Subquotient constructors build no dense U, S or V on any
        # decomposition they make or read; only reading u, s or v builds it.
        made = []

        def recording(a):
            made.append(snf_original(a))
            return made[-1]

        snf_original = intlinalg.snf
        monkeypatch.setattr(intlinalg, "snf", recording)
        rng = random.Random(19)
        for a in early_stop_and_gcd_cases(rng)[:40]:
            made.clear()
            dec = intlinalg.snf(a)
            dec.rank, dec.cokernel_invariants
            dec.solve(a @ IntMatrix.identity(a.cols))
            dec.image_witness(), dec.preimage_basis(a.cols // 2)
            sq = subquotient(a, dec.kernel_basis())
            lq = lattice_quotient(a, a.scale(2))
            reduced = lq.reduced(intlinalg.snf(lq.presentation))
            for q in (sq, lq, reduced):
                q.to_coords(q.basis)
            decs = made + [q.basis_smith for q in (sq, lq, reduced)]
            assert len(made) >= 4 and not any({"u", "s", "v"} & set(vars(d)) for d in decs), a
            assert dec.u.rows == a.rows and "u" in vars(dec)
            assert dec.s.cols == a.cols and "s" in vars(dec) and "v" not in vars(dec)

    def test_kernel_and_image_bases_are_the_columns_of_the_dense_v(self, monkeypatch):
        # The bases replay V's operations on the identity columns they keep,
        # with no dense V, and are those columns of V built whole.
        mats = (homotopy_class_systems(monkeypatch, 6, 1_500)
                + early_stop_and_gcd_cases(random.Random(77)))
        both = 0
        for a in mats:
            dec = snf(a)
            k, t = dec.kernel_basis(), dec.image_witness()
            assert "v" not in vars(dec)
            assert k == dec.v[:, dec.rank:] and t == dec.v[:, :dec.rank], a
            both += 0 < dec.rank < a.cols and bool(dec.col_ops)
        assert both >= 60, both

    def test_cli_jobs_build_no_dense_u_s_or_v(self, tmp_path, monkeypatch):
        # Only `homkit snf` and selftest read a decomposition's dense
        # factors: the first seed-0 small-jobs, snf aside, run in this
        # process with the getters raising and give their recorded documents.
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run([sys.executable, "-B", "-c", _GENERATE, str(ROOT / "bench"),
                               "small-jobs", "45", str(tmp_path)],
                              env=env, capture_output=True, text=True, timeout=170)
        assert proc.returncode == 0, proc.stderr
        expected = json.loads((ROOT / "bench" / "expected" / "small-jobs.json")
                              .read_text(encoding="utf-8"))

        def dense(self):
            raise AssertionError("a dense factor was built")

        for name in ("u", "s", "v"):
            monkeypatch.setattr(SmithDecomposition, name, property(dense))
        ran = []
        for index, argv in enumerate(json.loads(proc.stdout)):
            if argv[0] != "snf":
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main(argv)
                digest = hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]
                assert code == 0 and digest == expected[index], (index, argv[0], out.getvalue())
                ran.append(argv[0])
        assert {"uct", "kappa", "pv", "ring-ext"} <= set(ran), ran



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

    def test_solve_against_oracles_on_reference_decompositions(self, monkeypatch):
        # Against solve_lattice and solve_fraction, on the decompositions of
        # the reference pivot tests: right-hand sides a @ x, and the same
        # with one column U^-1 c that fails only the divisor test (an entry
        # of c before the rank off its diagonal entry's multiples) or only
        # the zero-row test (an entry of c past the rank nonzero).
        rng = random.Random(61)
        mats = early_stop_and_gcd_cases(rng) + homotopy_class_systems(monkeypatch, 6, 1_500)
        fails = {"divisor": 0, "zero row": 0}
        for a in mats:
            dec = snf(a)
            assert (dec.u, dec.s, dec.v) == snf_reference(a)
            r, diag = dec.rank, dec.diagonal
            rows = [list(row) for row in a.data]
            good = [a.apply([rng.randint(-3, 3) for _ in range(a.cols)]) for _ in range(2)]
            assert all(solve_lattice(rows, a.cols, list(col)) is not None for col in good)
            x = dec.solve(IntMatrix.from_columns(good, rows=a.rows))
            assert x is not None and a @ x == IntMatrix.from_columns(good, rows=a.rows)
            if r == a.cols:  # independent columns: X is unique
                a_cols = [list(col) for col in a.columns()]
                assert x == IntMatrix.from_columns(
                    [solve_fraction(a_cols, list(col)) for col in good], rows=a.cols)
            c = [diag[i] * rng.randint(-3, 3) if i < r else 0 for i in range(a.rows)]
            bad = {}
            big = [i for i in range(r) if diag[i] > 1]
            if big:
                bad["divisor"] = c[:]
                bad["divisor"][rng.choice(big)] += 1
            if r < a.rows:
                bad["zero row"] = c[:]
                bad["zero row"][rng.randrange(r, a.rows)] = rng.choice((-2, -1, 1, 5))
            u_cols = [list(col) for col in dec.u.columns()]
            for test, c in bad.items():
                col = tuple(solve_fraction(u_cols, c))  # U^-1 c
                assert solve_lattice(rows, a.cols, list(col)) is None
                cols = good[:]
                cols.insert(rng.randint(0, 2), col)
                assert dec.solve(IntMatrix.from_columns(cols, rows=a.rows)) is None
                fails[test] += 1
        assert min(fails.values()) >= 20, fails

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

    def test_matches_the_kernel_basis_factored_again(self):
        # K's decomposition read off L's operations gives the basis,
        # presentation and coordinates that factoring K itself gives: with
        # K's columns independent, coordinates are unique.
        rng = random.Random(43)
        cases = []
        for i in range(160):
            rows, cols = rng.randint(0, 6), rng.randint(0, 7)
            if i % 4 == 0:
                cases.append(IntMatrix.zero(rows, cols))
            else:  # with rows >= cols, mostly of full column rank
                rows = cols + rng.randint(0, 2) if i % 4 == 1 else rows
                cases.append(random_matrix(rng, rows, cols, 4))
        seen = {"rank 0": 0, "full column rank": 0, "zero dimension": 0, "outside": 0}
        for l in cases:
            k = kernel_basis(l)
            n = IntMatrix.from_columns([k.apply([rng.randint(-3, 3) for _ in range(k.cols)])
                                        for _ in range(rng.randint(0, 3))], rows=l.cols)
            sq, factored = subquotient(l, n), snf(k)
            assert sq.basis == k
            assert sq.presentation == factored.solve(n)
            ambient = IntMatrix.from_columns([k.apply([rng.randint(-5, 5) for _ in range(k.cols)])
                                              for _ in range(3)], rows=l.cols)
            assert sq.to_coords(ambient) == factored.solve(ambient)
            outside = [j for j in range(l.cols) if any(l.column(j))]
            if outside:  # a unit vector off the kernel
                e = IntMatrix.from_columns([tuple(int(i == outside[0]) for i in range(l.cols))])
                assert factored.solve(e) is None
                with pytest.raises(InputError, match="does not lie"):
                    sq.to_coords(e)
            seen["rank 0"] += k.cols == l.cols
            seen["full column rank"] += k.cols == 0
            seen["zero dimension"] += 0 in (l.rows, l.cols)
            seen["outside"] += bool(outside)
        assert min(seen.values()) >= 15, seen

    def test_factors_only_l_and_builds_no_dense_u(self, monkeypatch):
        # subquotient factors L once; its coordinates replay operations, so
        # neither L's decomposition nor K's builds a dense U.
        made = []

        def recording(a):
            made.append(snf_original(a))
            return made[-1]

        snf_original = intlinalg.snf
        monkeypatch.setattr(intlinalg, "snf", recording)
        rng = random.Random(47)
        for _ in range(40):
            l = random_matrix(rng, rng.randint(0, 4), rng.randint(0, 6), 3)
            k = snf_original(l).kernel_basis()
            made.clear()
            sq = subquotient(l, IntMatrix.from_columns([k.apply([1] * k.cols)], rows=l.cols))
            sq.to_coords(sq.basis)
            assert len(made) == 1
            assert "u" not in vars(made[0]) and "u" not in vars(sq.basis_smith)

    def test_reduced_basis_undoes_u_from_its_operations(self):
        # For U M V = S with t unit factors, the reduced basis is B W for
        # W = U^-1's columns past t, so U W = I[:, t:]; it is built from the
        # row operations, with no dense U.
        rng = random.Random(131)
        ts = set()
        for a in reference_pivot_matrices(rng, 160):
            b = random_matrix(rng, rng.randint(0, 4), a.rows, 3)
            sq, dec = Subquotient(b, a, snf(b)), snf(a)
            r = sq.reduced(dec)
            assert "u" not in vars(dec)
            t = dec.diagonal.count(1)
            w = solve_matrix(dec.u, IntMatrix.identity(a.rows))[:, t:]
            assert dec.u @ w == IntMatrix.identity(a.rows)[:, t:]
            assert r.basis == b @ w
            assert r.presentation == dec.s[t:, t:dec.rank]
            ts.add((t > 0, t < a.rows))
        assert {(False, True), (True, True), (True, False)} <= ts, ts

    def test_reduced_decomposition_factors_d_and_the_reduced_basis(self):
        # [D | B] with U_b [D | B] V_b = S_b, reduced along U M V = S: the
        # new basis_smith keeps S_b and U_b's operations and factors
        # [D' | B'] = [D | B] diag(I, U^-1); on a basis, solving returns the
        # exact coordinates.  Reducing twice moves a nonzero offset along.
        rng = random.Random(137)
        seen = {"solved": 0, "offset and unit factors": 0, "reduced twice with offset": 0}
        for a in reference_pivot_matrices(random.Random(139), 120):
            offset = rng.randint(0, 2)
            c = random_matrix(rng, a.rows + offset + rng.randint(0, 2), a.rows + offset, 3)
            sq, d = Subquotient(c[:, offset:], a, snf(c)), c[:, :offset]
            for rounds in (1, 2):
                dec = snf(sq.presentation)
                r = sq.reduced(dec)
                t = dec.diagonal.count(1)
                w = solve_matrix(dec.u, IntMatrix.identity(sq.ngens))
                seen["offset and unit factors"] += d.cols > 0 and t > 0
                seen["reduced twice with offset"] += rounds == 2 and d.cols > 0
                d = hstack(d, sq.basis @ w[:, :t])
                moved = r.basis_smith
                assert moved.s == sq.basis_smith.s and moved.row_ops == sq.basis_smith.row_ops
                assert r.basis == sq.basis @ w[:, t:]
                assert moved.u @ hstack(d, r.basis) @ moved.v == moved.s
                if moved.rank == c.cols:
                    x = random_matrix(rng, c.cols, 2, 5)
                    assert moved.solve(hstack(d, r.basis) @ x) == x
                    y = x[c.cols - r.ngens:, :]
                    assert r.to_coords(r.basis @ y) == y
                    seen["solved"] += 1
                sq = r
        assert min(seen.values()) >= 40, seen

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

    def test_zero_dimension_plumbing_matches_reference(self):
        rng = random.Random(5)
        shapes = [(0, 0), (0, 1), (0, 3), (1, 0), (3, 0), (2, 3), (1, 1)]
        mats = [random_matrix(rng, r, c, 4) for r, c in shapes]
        for m in mats:
            assert block_diag(m) == block_diag_reference(m)
            assert m.columns() == columns_reference(m)
            assert m.transpose() == transpose_reference(m)
            cols = m.columns()
            assert IntMatrix.from_columns(cols, rows=m.rows) == from_columns_reference(cols, rows=m.rows)
            assert IntMatrix.from_columns(cols) == from_columns_reference(cols)
            for other in mats:
                assert m.kron(other) == kron_reference(m, other)
                assert block_diag(m, other, m) == block_diag_reference(m, other, m)
                if other.rows == m.rows:
                    assert hstack(m, other, m) == hstack_reference(m, other, m)
                if other.cols == m.cols:
                    assert vstack(m, other, m) == vstack_reference(m, other, m)

    def test_from_columns_rejects_wrong_lengths(self):
        with pytest.raises(InputError):
            IntMatrix.from_columns([(1, 2, 3)], rows=2)
        with pytest.raises(InputError):
            IntMatrix.from_columns([(1,)], rows=2)
        with pytest.raises(InputError):
            IntMatrix.from_columns([(1, 2), (3,)])
        with pytest.raises(InputError):
            IntMatrix.from_columns([(1,), (2, 3)])
        assert IntMatrix.from_columns([(1, 2), (3, 4)], rows=2).data == ((1, 3), (2, 4))

    def test_vec_columns_vectorize_each_block(self):
        # [X_1 | ... | X_g] <-> the columns vec(X_1), ..., vec(X_g), with
        # blocks of every shape that has a 0 in it, and vec(X Z) for all X
        # at once is one product by (Z^T kron I) between the two.
        rng = random.Random(151)
        for rows, cols, count in [(0, 0, 0), (0, 2, 3), (2, 0, 3), (2, 3, 0), (0, 0, 2),
                                  (1, 1, 1), (3, 2, 4)]:
            blocks = [random_matrix(rng, rows, cols, 5) for _ in range(count)]
            side = hstack(IntMatrix.zero(rows, 0), *blocks)
            columns = vec_columns(side, cols, count)
            assert columns == IntMatrix.from_columns([vec(x) for x in blocks], rows=rows * cols)
            assert unvec_columns(columns, rows, cols) == side
            assert [unvec(c, rows, cols) for c in columns.columns()] == blocks
            z = random_matrix(rng, cols, 2, 3)
            assert (z.transpose().kron(IntMatrix.identity(rows)) @ columns
                    == vec_columns(hstack(IntMatrix.zero(rows, 0), *(x @ z for x in blocks)), 2,
                                   count))
        with pytest.raises(InputError):
            vec_columns(IntMatrix.zero(2, 5), 2, 2)
        with pytest.raises(InputError):
            unvec_columns(IntMatrix.zero(5, 1), 2, 2)

    def test_slices_pick_blocks(self):
        rng = random.Random(149)
        for rows, cols in [(0, 0), (0, 3), (3, 0), (4, 5), (1, 1)]:
            m = random_matrix(rng, rows, cols, 5)
            for r0, r1, c0, c1 in [(0, rows, 0, cols), (1, rows, 0, cols - 1), (0, 0, 0, cols),
                                   (rows // 2, rows, cols // 2, cols)]:
                r1, c1 = max(r1, r0), max(c1, c0)
                assert m[r0:r1, c0:c1] == IntMatrix.from_rows(
                    [row[c0:c1] for row in m.data[r0:r1]], cols=c1 - c0)
            if rows and cols:
                assert m[rows - 1, cols - 1] == m.data[-1][-1]

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
    def test_public_paths_check_shapes(self, flags):
        # Matrices the package builds from checked ones skip the shape
        # check; every path that takes outside data keeps it, and it is not
        # an assert, so it also holds under python -O.
        script = (
            "from homkit.errors import InputError\n"
            "from homkit.intlinalg import IntMatrix\n"
            "from homkit.jsonio import matrix_from_json\n"
            "bad = [\n"
            "    lambda: IntMatrix(2, 2, ((1, 2),)),\n"
            "    lambda: IntMatrix(1, 2, ((1, 2, 3),)),\n"
            "    lambda: IntMatrix(-1, 0, ()),\n"
            "    lambda: IntMatrix.from_rows([[1, 2], [3]]),\n"
            "    lambda: IntMatrix.from_rows([[1, 2]], cols=3),\n"
            "    lambda: IntMatrix.from_columns([(1, 2), (3,)]),\n"
            "    lambda: IntMatrix.from_columns([(1,)], rows=2),\n"
            "    lambda: matrix_from_json({'rows': 1, 'cols': 2, 'data': [['1']]}),\n"
            "    lambda: matrix_from_json({'rows': 2, 'cols': 1, 'data': [['1']]}),\n"
            "]\n"
            "raised = 0\n"
            "for make in bad:\n"
            "    try:\n"
            "        make()\n"
            "    except InputError:\n"
            "        raised += 1\n"
            "print(raised, len(bad))\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, *flags, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["9", "9"]

    def test_shape_validation(self):
        with pytest.raises(InputError):
            IntMatrix(2, 2, ((1, 2),))
        for make in (lambda: IntMatrix.identity(-1), lambda: IntMatrix.zero(2, -1),
                     lambda: IntMatrix.diagonal((1,), rows=-1)):
            with pytest.raises(InputError):
                make()
        with pytest.raises(InputError):
            IntMatrix.from_rows([[1]]) @ IntMatrix.from_rows([[1, 2], [3, 4]])
        with pytest.raises(InputError):
            hstack(IntMatrix.zero(1, 1), IntMatrix.zero(2, 1))


class TestRecord:
    """The value classes `intlinalg._record` builds keep the contract of the
    frozen dataclasses they replaced."""

    def test_fields_cannot_be_assigned_or_deleted(self):
        m = IntMatrix.from_rows([[1, 2]])
        for change in (lambda: setattr(m, "rows", 3), lambda: delattr(m, "data"),
                       lambda: setattr(m, "extra", 0)):
            with pytest.raises(AttributeError):
                change()
        assert (m.rows, m.cols, m.data) == (1, 2, ((1, 2),)) and not hasattr(m, "extra")

    def test_equal_fields_mean_equal_objects_with_equal_hashes(self):
        a = IntMatrix.from_rows([[1, 2], [3, 4]])
        b = IntMatrix(2, 2, ((1, 2), (3, 4)))
        assert a is not b and a == b and not a != b and hash(a) == hash(b)
        assert a != a.transpose() and len({a, b, a.transpose()}) == 2
        assert a != (2, 2, ((1, 2), (3, 4)))  # another type never compares equal
        dec = snf(a)
        again = SmithDecomposition(dec.rows, dec.cols, dec.diagonal, dec.row_ops, dec.col_ops)
        assert again == dec and hash(again) == hash(dec)
        assert QuotientRing((-1, 0, 1)) == QuotientRing((-1, 0, 1))
        assert hash(QuotientRing((-1, 0, 1))) == hash(QuotientRing((-1, 0, 1)))

    def test_subquotient_compares_all_three_fields(self):
        sq = lattice_quotient(IntMatrix.from_rows([[2, 1], [4, 3]]),
                              IntMatrix.from_rows([[4], [8]]))
        b = sq.basis_smith
        again = Subquotient(sq.basis, sq.presentation,
                            SmithDecomposition(b.rows, b.cols, b.diagonal, b.row_ops, b.col_ops))
        assert again == sq and hash(again) == hash(sq)
        other = Subquotient(sq.basis, sq.presentation, snf(sq.basis.scale(3)))
        assert other.basis_smith != sq.basis_smith and other != sq
        assert Subquotient(sq.basis, sq.presentation.scale(2), sq.basis_smith) != sq

    def test_laurent_rings_are_equal(self):
        assert LaurentRing() == LaurentRing() and hash(LaurentRing()) == hash(LaurentRing())
        assert LaurentRing() != QuotientRing((-1, 0, 1))

    def test_group_element_keeps_its_own_equality_and_stays_unhashable(self):
        g = FgAbGroup.cyclic(4)
        x, y = GroupElement(g, (1,)), GroupElement(g, (5,))
        assert x.coords != y.coords and x == y  # equal modulo the relation 4
        assert x != GroupElement(g, (2,))
        with pytest.raises(TypeError):
            hash(x)

    def test_repr_is_unchanged(self):
        assert repr(IntMatrix.from_rows([[1, 2]])) == "IntMatrix(rows=1, cols=2, data=((1, 2),))"
        assert repr(LaurentRing()) == "LaurentRing()"

    def test_wrong_argument_count_raises_type_error(self):
        for make in (lambda: IntMatrix(1, 1), lambda: IntMatrix(1, 1, ((1,),), 0),
                     lambda: LaurentRing(0), lambda: QuotientRing()):
            with pytest.raises(TypeError):
                make()
