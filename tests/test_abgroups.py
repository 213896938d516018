import inspect
import random
from math import gcd

import pytest

from homkit import abgroups, intlinalg
from homkit.errors import InputError
from homkit.abgroups import (
    DirectSum,
    FgAbGroup,
    GradedAbGroup,
    GroupHom,
    SubquotientGroup,
    ext1,
    graded_ext_shifted,
    graded_hom,
    hom,
    homology_of_pair,
    is_exact_pair,
    is_isomorphic,
    tensor,
    tor1,
)
from homkit.intlinalg import (
    IntMatrix,
    block_diag,
    cokernel_invariants,
    hstack,
    kernel_basis,
    lattice_basis,
    lattice_contains,
    lattice_quotient,
    preimage_gens,
    solve,
    solve_matrix,
    subquotient,
    unvec,
    vec,
)
from homkit.randgen import random_automorphism, random_group, random_matrix

Z = FgAbGroup.free(1)
Z2 = FgAbGroup.cyclic(2)
Z3 = FgAbGroup.cyclic(3)
Z4 = FgAbGroup.cyclic(4)
Z6 = FgAbGroup.cyclic(6)


def canon(rank, *torsion):
    return (rank, tuple(torsion))


def redundant_presentation(rng, group):
    """The same group on other generators, with more relations: a random
    unimodular change of generators (row shears), then dependent and zero
    relation columns, in shuffled order."""
    m = group.presentation
    n = m.rows
    rows = [list(r) for r in m.data]
    for _ in range(3 * n if n >= 2 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    cols = list(IntMatrix.from_rows(rows, cols=m.cols).columns())
    base = list(cols)
    for _ in range(rng.randint(1, 2)):
        combo = (0,) * n
        for col in base:
            k = rng.randint(-2, 2)
            combo = tuple(x + k * y for x, y in zip(combo, col))
        cols.append(combo)
    cols += [(0,) * n] * rng.randint(0, 2)
    rng.shuffle(cols)
    return FgAbGroup(IntMatrix.from_columns(cols, rows=n))


class TestCanonicalForms:
    def test_represention_invariance(self):
        # Z/2 + Z/3 and Z/6 have the same canonical form.
        a = FgAbGroup(IntMatrix.from_rows([[2, 0], [0, 3]]))
        assert is_isomorphic(a, Z6)
        assert not is_isomorphic(Z, Z2)
        assert is_isomorphic(FgAbGroup.trivial(), FgAbGroup(IntMatrix.from_rows([[1]])))

    def test_from_invariants_validation(self):
        with pytest.raises(InputError):
            FgAbGroup.from_invariants(0, (3, 2))
        with pytest.raises(InputError):
            FgAbGroup.from_invariants(0, (1,))
        for torsion in ((), (2,)):
            with pytest.raises(InputError, match="rank must be >= 0"):
                FgAbGroup.from_invariants(-1, torsion)

    def test_order(self):
        assert Z6.order() == 6
        assert Z.order() is None
        assert FgAbGroup.from_invariants(1, (2, 4)).torsion_order() == 8


class TestElements:
    def test_equality_modulo_relations(self):
        g = FgAbGroup(IntMatrix.from_rows([[4]]))
        assert g.element((5,)) == g.element((1,))
        assert g.element((2,)) != g.element((1,))
        assert (4 * g.element((1,))).is_zero()

    def test_arithmetic(self):
        g = FgAbGroup.from_invariants(1, (2,))
        x, y = g.element((1, 1)), g.element((1, 0))
        assert (x - y) == g.element((0, 1))
        assert (x + x) == g.element((0, 2))

    def test_wrong_length_vectors_rejected(self):
        # A vector is never cut short or padded to fit: on Z/4, (4, 1) is
        # no element at all, not the zero (4,) with a stray entry.
        ker = GroupHom(Z4, Z4, IntMatrix.from_rows([[2]])).kernel()
        for v in ((), (4, 1), (2, 0)):
            with pytest.raises(InputError):
                Z4.coords_are_zero(v)
            with pytest.raises(InputError):
                ker.to_coords(IntMatrix.column_vector(v))
            with pytest.raises(InputError):
                solve(IntMatrix.from_rows([[4]]), v)

    def test_cross_group_rejected(self):
        with pytest.raises(InputError):
            Z2.element((1,)) + Z3.element((1,))
        with pytest.raises(InputError):
            Z2.element((1,)) == Z3.element((1,))
        with pytest.raises(InputError):
            Z2.element((1,)) != Z3.element((1,))
        # Comparing with a non-element is not an error, just unequal.
        assert Z2.element((1,)) != (1,)
        # Homomorphisms between differently presented groups do not add.
        for op in (lambda f, g: f + g, lambda f, g: f - g):
            with pytest.raises(InputError):
                op(GroupHom.identity(Z2), GroupHom.identity(Z3))
            with pytest.raises(InputError):
                op(GroupHom(Z2, Z2, IntMatrix.zero(1, 1)), GroupHom(Z2, Z3, IntMatrix.zero(1, 1)))
        twice = GroupHom.identity(Z4) + GroupHom.identity(FgAbGroup.cyclic(4))
        assert twice.matrix == IntMatrix.from_rows([[2]]) and not twice.is_zero()


class TestBinaryOps:
    def test_worked_examples(self):
        assert hom(Z4, Z6).canonical == canon(0, 2)
        assert is_isomorphic(hom(Z, Z6), Z6)
        assert hom(Z2, Z).canonical == canon(0)
        assert ext1(Z2, Z2).canonical == canon(0, 2)
        assert ext1(Z, Z6).canonical == canon(0)
        assert ext1(Z4, Z6).canonical == canon(0, 2)  # oracle: B/4B with B = Z/6
        assert tensor(Z4, Z6).canonical == canon(0, 2)
        assert is_isomorphic(tensor(Z, Z6), Z6)
        assert tensor(Z2, FgAbGroup.free(2)).canonical == canon(0, 2, 2)
        assert tor1(Z4, Z6).canonical == canon(0, 2)
        assert tor1(Z, Z6).canonical == canon(0)
        assert tor1(Z2, Z2).canonical == canon(0, 2)  # 0 -> Z -2-> Z -> Z/2 tensored

    def test_cyclic_closed_forms(self):
        for d in range(2, 13):
            for e in range(2, 13):
                g = gcd(d, e)
                expected = canon(0, g) if g > 1 else canon(0)
                zd, ze = FgAbGroup.cyclic(d), FgAbGroup.cyclic(e)
                for op in (hom, ext1, tensor, tor1):
                    assert op(zd, ze).canonical == expected, (op.__name__, d, e)

    def test_symmetry(self):
        rng = random.Random(17)
        for _ in range(25):
            a, b = random_group(rng), random_group(rng)
            assert is_isomorphic(tensor(a, b), tensor(b, a))
            assert is_isomorphic(tor1(a, b), tor1(b, a))

    def test_additivity_over_direct_sums(self):
        rng = random.Random(23)
        for _ in range(6):
            parts = [random_group(rng, max_rank=1) for _ in range(3)]
            summed = DirectSum(parts)
            other = random_group(rng, max_rank=1)
            for op in (hom, ext1, tensor, tor1):
                joined = op(summed, other)
                split = DirectSum([op(p, other) for p in parts])
                assert is_isomorphic(joined, split), op.__name__
                joined_r = op(other, summed)
                split_r = DirectSum([op(other, p) for p in parts])
                assert is_isomorphic(joined_r, split_r), op.__name__

    def test_redundant_presentations(self):
        # Redundant presentations send Hom and Tor_1 through the kernel of
        # the target's presentation and a relation basis that is not the
        # presentation; every functor still gives the canonical form it
        # gives on the from_invariants presentations.
        rng = random.Random(191)
        kernels = relation_bases = 0
        for _ in range(60):
            a = random_group(rng, factors=(2, 3, 4, 6))
            b = random_group(rng, factors=(2, 3, 4, 6))
            ra, rb = redundant_presentation(rng, a), redundant_presentation(rng, b)
            assert ra.canonical == a.canonical and rb.canonical == b.canonical
            kernels += rb.smith.kernel_basis().cols > 0
            relation_bases += ra.relation_basis[0] != ra.presentation
            for op in (hom, ext1, tensor, tor1):
                want = op(a, b).canonical
                for x, y in ((ra, b), (a, rb), (ra, rb)):
                    assert op(x, y).canonical == want, (op.__name__, x, y)
        assert kernels >= 30 and relation_bases >= 30

    def test_ext1_always_finite(self):
        rng = random.Random(31)
        for _ in range(30):
            assert ext1(random_group(rng), random_group(rng)).rank == 0


class TestHomCertificates:
    def test_evaluation_pairing(self):
        h = hom(Z4, Z6)
        cls = h.element((1,))
        mat = h.to_matrix(cls)
        value = Z6.element(mat.apply(Z4.element((1,)).coords))
        # The generator of Hom(Z/4, Z/6) sends 1 to the order-2 element 3.
        assert (2 * value).is_zero() and not value.is_zero()
        assert value == Z6.element((3,))
        assert mat.rows == 1 and mat.cols == 1

    def test_hom_from_matrix_roundtrip(self):
        h = hom(Z6, Z6)
        doubling = IntMatrix.from_rows([[2]])
        cls = h.from_matrix(doubling)
        assert Z6.element(h.to_matrix(cls).apply((1,))) == Z6.element((2,))
        assert h.from_matrix(h.to_matrix(cls)) == cls

    def test_hom_z_to_b_is_b_via_evaluation(self):
        rng = random.Random(3)
        for _ in range(10):
            b = random_group(rng)
            h = hom(Z, b)
            assert is_isomorphic(h, b)

    def test_invalid_hom_matrix_rejected(self):
        h = hom(Z2, Z3)
        with pytest.raises(InputError):
            h.from_matrix(IntMatrix.from_rows([[1]]))

    def test_certificates_reject_foreign_elements(self):
        # Hom(Z/2, Z/4) and Hom(Z/4, Z/2) are both presented by [[2]].
        h, other = hom(Z2, Z4), hom(Z4, Z2)
        foreign = other.element((1,))
        with pytest.raises(InputError):
            h.to_matrix(foreign)
        assert h.to_matrix(h.element((1,))) == IntMatrix.from_rows([[2]])

    def test_tor1_class_is_zero_exactly_when_its_map_is(self):
        # Tor_1(A, B) is Hom(Â, B) for Â = coker(R^T), R A's relation basis.
        rng = random.Random(193)
        zeros = nonzeros = 0
        for _ in range(40):
            a = redundant_presentation(rng, random_group(rng, factors=(2, 3, 4, 6)))
            b = redundant_presentation(rng, random_group(rng, factors=(2, 3, 4, 6)))
            t = tor1(a, b)
            assert t.source.presentation == a.relation_basis[0].transpose()
            assert t.target is b
            for _ in range(4):
                el = t.element([rng.randint(-3, 3) for _ in range(t.ngens)])
                for x in (el, t.torsion_order() * el):
                    f = GroupHom(t.source, t.target, t.to_matrix(x))  # maps relations into relations
                    assert x.is_zero() == f.is_zero()
                    zeros += x.is_zero()
                    nonzeros += not x.is_zero()
        assert zeros and nonzeros

    def test_ext_cocycle_roundtrip(self):
        e = ext1(Z2, Z2)
        cocycle = IntMatrix.from_rows([[1]])
        cls = e.from_cocycle(cocycle)
        assert not cls.is_zero()
        assert e.from_cocycle(unvec(cls.coords, e.target.ngens, e.resolution.cols)) == cls
        assert e.from_cocycle(IntMatrix.from_rows([[2]])).is_zero()
        # Ext^1 is the cokernel of the coboundaries, and a class's coordinates
        # (what kappa prints) are the entries of its cocycle, column by column.
        rng = random.Random(59)
        for _ in range(40):
            a, b = random_group(rng), random_group(rng)
            e = ext1(a, b)
            rel, mb = a.relation_basis[0], b.presentation
            assert e.presentation == hstack(rel.transpose().kron(IntMatrix.identity(b.ngens)),
                                            IntMatrix.identity(rel.cols).kron(mb))
            x = random_matrix(rng, b.ngens, rel.cols)
            cls = e.from_cocycle(x)
            assert cls.coords == vec(x)
            assert e.from_cocycle(unvec(cls.coords, b.ngens, rel.cols)) == cls


class TestGroupHom:
    def test_relation_check(self):
        for target in (Z3, Z):
            with pytest.raises(InputError,
                               match="^matrix does not map relations into relations$"):
                GroupHom(Z2, target, IntMatrix.from_rows([[1]]))

    def test_every_map_is_checked_when_built(self):
        # No parameter lets a matrix through unchecked.
        assert list(inspect.signature(GroupHom).parameters) == ["source", "target", "matrix"]

    def test_kernel_cokernel(self):
        double = GroupHom(Z4, Z4, IntMatrix.from_rows([[2]]))
        assert double.kernel_group().canonical == canon(0, 2)
        assert double.cokernel_group().canonical == canon(0, 2)
        assert not double.is_injective()
        assert not double.is_surjective()

    def test_injectivity_reads_the_kernel_basis_only(self):
        # is_injective() agrees with the kernel group's triviality, on maps
        # out of and into groups with no generators too, and builds no
        # kernel group.
        rng = random.Random(139)
        empty = (FgAbGroup.trivial(), FgAbGroup(IntMatrix.zero(0, 2)))
        outcomes = set()
        for i in range(120):
            a, b = random_group(rng), random_group(rng)
            kind = i % 4
            if kind == 0:
                h = hom(a, b)
                x = h.to_matrix(h.element([rng.randint(-3, 3) for _ in range(h.ngens)]))
            elif kind == 1:
                b, x = a, random_automorphism(rng, a)
            elif kind == 2:
                a = FgAbGroup.free(rng.randint(0, 2))
                x = random_matrix(rng, b.ngens, a.ngens)
            else:
                a, b = (rng.choice(empty), b) if i % 8 == 3 else (a, rng.choice(empty))
                x = IntMatrix.zero(b.ngens, a.ngens)
            f = GroupHom(a, b, x)
            injective = f.is_injective()
            assert "_kernel" not in vars(f)
            assert injective == GroupHom(a, b, x).kernel().is_trivial(), (a, b, x)
            outcomes.add(injective)
        assert outcomes == {True, False}

    def test_inverse(self):
        g = FgAbGroup.from_invariants(1, (5,))
        aut = GroupHom(g, g, IntMatrix.from_rows([[2, 0], [0, 1]]))
        assert aut.is_isomorphism()
        inv = aut.inverse_matrix()
        composed = GroupHom(g, g, inv @ aut.matrix)
        assert (composed - GroupHom.identity(g)).is_zero()

    def test_lift_matches_inverse_matrix(self):
        rng = random.Random(37)
        for _ in range(30):
            g = random_group(rng)
            aut = GroupHom(g, g, random_automorphism(rng, g))
            targets = random_matrix(rng, g.ngens, rng.randint(0, 3))
            lifted = aut.lift(targets)
            assert aut.lift(IntMatrix.identity(g.ngens)) == aut.inverse_matrix()
            assert lifted == aut.inverse_matrix() @ targets
            assert lattice_contains(g.presentation, aut.matrix @ lifted - targets)
        double = GroupHom(Z, Z, IntMatrix.from_rows([[2]]))
        assert double.lift(IntMatrix.from_rows([[4, 1]])) is None
        assert double.lift(IntMatrix.from_rows([[4, -6]])) == IntMatrix.from_rows([[2, -3]])

    def test_kernel_is_a_subquotient_group(self):
        double = GroupHom(Z4, Z4, IntMatrix.from_rows([[2]]))
        ker = double.kernel()
        twin = GroupHom(Z4, Z4, IntMatrix.from_rows([[2]])).kernel()
        assert isinstance(ker, SubquotientGroup) and ker.presentation == twin.presentation
        (gen,), = ker.basis.data  # +-2: the elements of order 2 in Z/4
        assert abs(gen) == 2 and ker.canonical == canon(0, 2)
        assert ker.ambient(ker.element((1,))) == (gen,)
        assert ker.to_coords(IntMatrix.column_vector((3 * gen,))) == IntMatrix.column_vector((3,))
        assert ker.to_coords(IntMatrix.from_rows([[gen, -2 * gen]])) == \
            IntMatrix.from_rows([[1, -2]])
        # Equal presentations do not make the twin's elements ours.
        with pytest.raises(InputError):
            ker.ambient(twin.element((1,)))
        with pytest.raises(InputError):
            ker.to_coords(IntMatrix.column_vector((1,)))

    def test_each_group_factors_once(self, monkeypatch):
        # Repeated lookups on one group reuse its stored Smith decomposition.
        calls = []
        real_snf = intlinalg.snf

        def counted(a):
            calls.append(a)
            return real_snf(a)

        monkeypatch.setattr(intlinalg, "snf", counted)
        monkeypatch.setattr(abgroups, "snf", counted)
        rng = random.Random(67)
        for _ in range(10):
            source, target = random_group(rng), random_group(rng)
            h = hom(source, target)
            ambients = [h.ambient(h.element([rng.randint(-3, 3) for _ in range(h.ngens)]))
                        for _ in range(6)]
            calls.clear()
            for amb in ambients:
                h.to_coords(IntMatrix.column_vector(amb))
                h.to_coords(IntMatrix.from_columns([amb, amb]))
            assert calls == []
            g = random_group(rng)
            g.coords_are_zero((0,) * g.ngens)
            assert len(calls) == 1
            for _ in range(6):
                g.coords_are_zero([rng.randint(-3, 3) for _ in range(g.ngens)])
            g.canonical
            assert len(calls) == 1
            calls.clear()
        # Ext^1, Hom and Tor_1 read the groups' own decompositions: once both
        # canonical forms are known, building Ext^1 factors nothing, and Hom
        # and Tor_1 factor neither presentation nor an identity matrix.
        for _ in range(20):
            a, b = random_group(rng), random_group(rng)
            a.canonical, b.canonical
            calls.clear()
            ext1(a, b)
            assert calls == []
            for build in (hom, tor1):
                build(a, b)
                assert not [m for m in calls if m is a.presentation or m is b.presentation
                            or (m.rows and m == IntMatrix.identity(m.rows))]
                calls.clear()

    def test_one_factorization_per_lattice_quotient_and_map(self, monkeypatch):
        # A lattice quotient reads its basis and the basis's decomposition off
        # one factorization of its generators.  A map's cokernel is one group,
        # and its kernel, surjectivity and lifts read that group's decomposition.
        calls = []
        real_snf = intlinalg.snf

        def counted(a):
            calls.append(a)
            return real_snf(a)

        monkeypatch.setattr(intlinalg, "snf", counted)
        monkeypatch.setattr(abgroups, "snf", counted)
        rng = random.Random(73)
        for _ in range(80):
            p = random_matrix(rng, rng.randint(0, 4), rng.randint(0, 4))
            q = p @ random_matrix(rng, p.cols, rng.randint(0, 3))
            calls.clear()
            sq = lattice_quotient(p, q)
            assert len(calls) == 1
            coords = random_matrix(rng, sq.ngens, rng.randint(0, 3))
            assert sq.to_coords(sq.basis @ coords) == coords
            assert len(calls) == 1
            assert sq.basis == lattice_basis(p)
            # From a free group every matrix is a homomorphism.
            source, target = FgAbGroup.free(rng.randint(0, 4)), random_group(rng)
            f = GroupHom(source, target, random_matrix(rng, target.ngens, source.ngens))
            assert f.cokernel_group() is f.cokernel_group()
            f.kernel_gens
            calls.clear()
            f.cokernel_group().canonical, f.is_surjective()
            f.lift(f.matrix @ random_matrix(rng, source.ngens, rng.randint(1, 2)))
            assert calls == []

    def test_exact_pair(self):
        # 0 -> Z -2-> Z -> Z/2 -> 0 is exact at the middle Z and at Z/2.
        incl = GroupHom(Z, Z, IntMatrix.from_rows([[2]]))
        proj = GroupHom(Z, Z2, IntMatrix.from_rows([[1]]))
        assert is_exact_pair(incl, proj)
        not_exact = GroupHom(Z, Z, IntMatrix.from_rows([[4]]))
        assert not is_exact_pair(not_exact, proj)
        # Maps that are not consecutive, or whose composite is not zero.
        with pytest.raises(InputError, match="not consecutive"):
            is_exact_pair(proj, incl)
        with pytest.raises(InputError, match="not composable"):
            homology_of_pair(proj, incl)
        for test in (is_exact_pair, homology_of_pair):
            with pytest.raises(InputError, match="composite is not zero"):
                test(GroupHom.identity(Z), proj)

    def test_exact_pair_reads_what_the_maps_hold(self, monkeypatch):
        # PV-style pairs K --c(alpha - 1)--> K -> coker(alpha - 1): once each
        # map has its decompositions and kernel basis, and the quotient its
        # canonical form, deciding exactness factors nothing.
        calls = []
        real_snf = intlinalg.snf

        def counted(a):
            calls.append(a)
            return real_snf(a)

        monkeypatch.setattr(intlinalg, "snf", counted)
        monkeypatch.setattr(abgroups, "snf", counted)
        rng = random.Random(71)
        answers = set()
        for _ in range(60):
            k = random_group(rng)
            d = GroupHom(k, k, random_automorphism(rng, k)) - GroupHom.identity(k)
            f = GroupHom(k, k, d.matrix.scale(rng.choice((1, 1, 2))))
            coker = d.cokernel_group()
            g = GroupHom(k, coker, IntMatrix.identity(k.ngens))
            g.kernel_gens, f.cokernel_group().smith, g.target.canonical
            calls.clear()
            exact = is_exact_pair(f, g)
            assert calls == []
            assert exact == homology_of_pair(f, g).is_trivial()
            answers.add(exact)
        assert answers == {True, False}

    def test_shared_decomposition_matches_standalone_routines(self):
        # kernel_gens, cokernel_group and lift read the map's one decomposition
        # of its image generators; each equals the routine that factors alone.
        rng = random.Random(41)
        liftable = 0
        for i in range(120):
            source, target = random_group(rng), random_group(rng)
            if i % 2:
                h = hom(source, target)
                f = GroupHom(source, target,
                             h.to_matrix(h.element([rng.randint(-3, 3) for _ in range(h.ngens)])))
            else:  # from a free group every matrix is a homomorphism
                source = FgAbGroup.free(source.ngens)
                f = GroupHom(source, target, random_matrix(rng, target.ngens, source.ngens))
            image = f.image_gens()
            assert f.kernel_gens == preimage_gens(f.matrix, target.presentation)
            coker, alone = f.cokernel_group(), FgAbGroup(image)
            assert coker.presentation == image and coker.smith == alone.smith
            assert coker.canonical == alone.canonical
            assert f.is_surjective() == alone.is_trivial()
            images = f.matrix @ random_matrix(rng, source.ngens, rng.randint(0, 2))
            for targets in (images, hstack(random_matrix(rng, target.ngens, 1), images)):
                sol = solve_matrix(image, targets)
                expected = None if sol is None else \
                    IntMatrix(source.ngens, sol.cols, sol.data[:source.ngens])
                assert f.lift(targets) == expected
                liftable += sol is not None
            assert f.kernel() is f.kernel_group()
        assert liftable >= 60


class TestReduced:
    @staticmethod
    def _subquotient(rng, i) -> SubquotientGroup:
        """A random subquotient of one of five kinds in turn: a lattice
        quotient (whose basis decomposition has factors other than 1), a
        kernel over a random map, a Hom group, a kernel of a group map, and
        a group already reduced once."""
        kind = i % 5
        if kind == 0:
            p = random_matrix(rng, rng.randint(0, 5), rng.randint(0, 5), 4)
            q = p @ random_matrix(rng, p.cols, rng.randint(0, 4), 3)
            return SubquotientGroup(lattice_quotient(p, q))
        if kind == 1:
            l = random_matrix(rng, rng.randint(0, 3), rng.randint(0, 6), 2)
            k = kernel_basis(l)
            return SubquotientGroup(subquotient(l, k @ random_matrix(rng, k.cols, 3, 3)))
        if kind == 2:
            return hom(random_group(rng), random_group(rng))
        if kind == 3:
            g = FgAbGroup(random_matrix(rng, 3, rng.randint(0, 3), 4))
            target = random_group(rng)
            for _ in range(20):  # a random matrix that respects relations
                m = random_matrix(rng, target.ngens, g.ngens, 3)
                if target.relation_coords(m @ g.presentation) is not None:
                    return GroupHom(g, target, m).kernel()
            return GroupHom(g, target, IntMatrix.zero(target.ngens, g.ngens)).kernel()
        return TestReduced._subquotient(rng, rng.randrange(4)).reduced()

    def test_same_group_presented_by_its_invariant_factors(self):
        rng = random.Random(151)
        dropped = 0
        for i in range(200):
            g = self._subquotient(rng, i)
            r = g.reduced()
            assert r.canonical == g.canonical
            assert r.presentation == FgAbGroup.from_invariants(*g.canonical).presentation
            assert r.basis.rows == g.basis.rows and r.ngens == r.rank + len(r.torsion)
            dropped += r.ngens < g.ngens
        assert dropped >= 60

    def test_coordinates_round_trip_modulo_relations(self):
        # to_coords of the reduced group is an isomorphism g -> r: it maps
        # relations into relations and is bijective; carrying coordinates
        # there and back gives the same element, and the reduced basis's
        # own coordinates come back exactly.
        rng = random.Random(157)
        for i in range(200):
            g = self._subquotient(rng, i)
            r = g.reduced()
            forth = GroupHom(g, r, r.to_coords(g.basis))
            back = GroupHom(r, g, g.to_coords(r.basis))
            assert forth.is_isomorphism() and back.is_isomorphism()
            assert (back.compose(forth) - GroupHom.identity(g)).is_zero()
            assert (forth.compose(back) - GroupHom.identity(r)).is_zero()
            x = random_matrix(rng, g.ngens, 3, 9)
            assert all(g.coords_are_zero(col) for col in
                       (g.to_coords(r.basis @ r.to_coords(g.basis @ x)) - x).columns())
            y = random_matrix(rng, r.ngens, 3, 9)
            assert r.to_coords(r.basis @ y) == y


class TestGraded:
    def test_suspension_swaps(self):
        g = GradedAbGroup(Z2, Z3)
        assert g.suspend().even is Z3 and g.suspend().odd is Z2

    def test_graded_hom_and_shifted_ext(self):
        a = GradedAbGroup(Z2, Z)
        b = GradedAbGroup(Z4, Z3)
        # Hom(Z/2, Z/4) + Hom(Z, Z/3) = Z/2 + Z/3 = Z/6.
        assert graded_hom(a, b).canonical == canon(0, 6)
        # Ext(Z/2, Z/3) + Ext(Z, Z/4) = 0.
        assert graded_ext_shifted(a, b).canonical == canon(0)


class TestDirectSum:
    @staticmethod
    def _part(rng):
        kind = rng.randrange(4)
        if kind == 0:
            return random_group(rng)
        if kind == 1:
            return FgAbGroup.free(rng.randint(0, 2))
        if kind == 2:
            return FgAbGroup(random_matrix(rng, rng.randint(0, 3), rng.randint(0, 3), 4))
        return hom(random_group(rng), random_group(rng))

    def test_parts_answer_like_the_block_diagonal(self):
        # Canonical forms and zero tests are read off the block-diagonal
        # presentation, so they equal those of the matrix built by hand.
        rng = random.Random(43)
        for i in range(240):
            parts = [self._part(rng) for _ in range(i % 4)]  # every fourth sum is empty
            ds = DirectSum(parts)
            whole = block_diag(*(p.presentation for p in parts)) if parts else IntMatrix.zero(0, 0)
            assert ds.canonical == cokernel_invariants(whole)
            for _ in range(3):
                coords = [rng.randint(-8, 8) for _ in range(ds.ngens)]
                assert ds.coords_are_zero(coords) == (solve(whole, coords) is not None)
                relation = whole.apply([rng.randint(-3, 3) for _ in range(whole.cols)])
                assert ds.coords_are_zero(relation)
                assert ds.element(relation).is_zero()
        with pytest.raises(InputError):
            DirectSum([Z2, Z6]).coords_are_zero((1,))
