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
    lattice_contains,
    preimage_gens,
    solve,
    solve_matrix,
    unvec,
)
from homkit.randgen import random_automorphism, random_group, random_matrix

Z = FgAbGroup.free(1)
Z2 = FgAbGroup.cyclic(2)
Z3 = FgAbGroup.cyclic(3)
Z4 = FgAbGroup.cyclic(4)
Z6 = FgAbGroup.cyclic(6)


def canon(rank, *torsion):
    return (rank, tuple(torsion))


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
                ker.element_at(v)
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
                op(GroupHom.zero(Z2, Z2), GroupHom.zero(Z2, Z3))
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

    def test_ext1_always_finite(self):
        rng = random.Random(31)
        for _ in range(30):
            assert ext1(random_group(rng), random_group(rng)).rank == 0


class TestHomCertificates:
    def test_evaluation_pairing(self):
        h = hom(Z4, Z6)
        cls = h.element((1,))
        mat = h.to_matrix(cls)
        a_gen = Z4.element((1,))
        value = h.evaluate(cls, a_gen)
        # The generator of Hom(Z/4, Z/6) sends 1 to the order-2 element 3.
        assert (2 * value).is_zero() and not value.is_zero()
        assert h.to_hom(cls).apply(a_gen) == value
        assert mat.rows == 1 and mat.cols == 1

    def test_hom_from_matrix_roundtrip(self):
        h = hom(Z6, Z6)
        doubling = IntMatrix.from_rows([[2]])
        cls = h.from_matrix(doubling)
        assert h.evaluate(cls, Z6.element((1,))) == Z6.element((2,))
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
        with pytest.raises(InputError):
            h.to_hom(foreign)
        with pytest.raises(InputError):
            h.evaluate(foreign, Z2.element((1,)))
        with pytest.raises(InputError):
            ext1(Z2, Z2).ambient(ext1(Z4, Z2).element((1,)))
        assert h.to_matrix(h.element((1,))) == IntMatrix.from_rows([[2]])

    def test_ext_cocycle_roundtrip(self):
        e = ext1(Z2, Z2)
        cocycle = IntMatrix.from_rows([[1]])
        cls = e.from_cocycle(cocycle)
        assert not cls.is_zero()
        assert e.from_cocycle(unvec(e.ambient(cls), e.target.ngens, e.resolution.cols)) == cls
        assert e.from_cocycle(IntMatrix.from_rows([[2]])).is_zero()


class TestGroupHom:
    def test_relation_check(self):
        with pytest.raises(InputError):
            GroupHom(Z2, Z3, IntMatrix.from_rows([[1]]))

    def test_kernel_cokernel(self):
        double = GroupHom(Z4, Z4, IntMatrix.from_rows([[2]]))
        assert double.kernel_group().canonical == canon(0, 2)
        assert double.cokernel_group().canonical == canon(0, 2)
        assert not double.is_injective()
        assert not double.is_surjective()

    def test_inverse(self):
        g = FgAbGroup.from_invariants(1, (5,))
        aut = GroupHom(g, g, IntMatrix.from_rows([[2, 0], [0, 1]]))
        assert aut.is_isomorphism()
        inv = aut.inverse_matrix()
        composed = GroupHom(g, g, inv @ aut.matrix, check=False)
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
        assert ker.element_at((3 * gen,)) == ker.element((3,))
        assert ker.to_coords(IntMatrix.from_rows([[gen, -2 * gen]])) == \
            IntMatrix.from_rows([[1, -2]])
        # Equal presentations do not make the twin's elements ours.
        with pytest.raises(InputError):
            ker.ambient(twin.element((1,)))
        with pytest.raises(InputError):
            ker.element_at((1,))

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
            h.element_at(ambients[0])
            calls.clear()
            for amb in ambients:
                h.element_at(amb)
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

    def test_exact_pair(self):
        # 0 -> Z -2-> Z -> Z/2 -> 0 is exact at the middle Z and at Z/2.
        incl = GroupHom(Z, Z, IntMatrix.from_rows([[2]]))
        proj = GroupHom(Z, Z2, IntMatrix.from_rows([[1]]))
        assert is_exact_pair(incl, proj)
        not_exact = GroupHom(Z, Z, IntMatrix.from_rows([[4]]))
        assert not is_exact_pair(not_exact, proj)

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
            f = GroupHom(k, k, d.matrix.scale(rng.choice((1, 1, 2))), check=False)
            coker = d.cokernel_group()
            g = GroupHom(k, coker, IntMatrix.identity(k.ngens), check=False)
            g.kernel_gens(), f._image_smith, g.target.canonical
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
                f = h.to_hom(h.element([rng.randint(-3, 3) for _ in range(h.ngens)]))
            else:  # kernels and cokernels of any matrix are lattice questions
                f = GroupHom(source, target, random_matrix(rng, target.ngens, source.ngens),
                             check=False)
            image = f.image_gens()
            assert f.kernel_gens() == preimage_gens(f.matrix, target.presentation)
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
            if i % 2:  # a kernel group needs a homomorphism
                ker, again = f.kernel(), f.kernel_group()
                assert ker is again
        assert liftable >= 60


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
