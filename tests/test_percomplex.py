import json
import random

import pytest

from homkit.cli import main
from homkit.errors import InputError
from homkit.abgroups import FgAbGroup, GradedAbGroup, SubquotientGroup
from homkit.intlinalg import IntMatrix, vec
from homkit.jsonio import complex_to_json, group_from_json
from homkit.percomplex import (
    ChainMap,
    PeriodicComplex,
    direct_sum,
    homology,
    homology_group,
    homotopy_classes,
    induced_map,
    induced_on_homology,
    mapping_cone,
    moore_complex,
    suspension,
    tensor_complex,
)
from homkit.randgen import random_chain_map, random_complex, random_graded_group

from .oracles import cone_triangle_is_exact

Z2 = FgAbGroup.cyclic(2)
Z3 = FgAbGroup.cyclic(3)
TRIV = FgAbGroup.trivial()
M2 = moore_complex(GradedAbGroup(Z2, TRIV))
ZD = PeriodicComplex.zero_diff(1, 0)


def doubling_on_zd():
    return ChainMap(ZD, ZD, IntMatrix.from_rows([[2]]), IntMatrix.zero(0, 0))


def _random_boundary(rng, a, b):
    h = IntMatrix.from_rows(
        [[rng.randint(-2, 2) for _ in range(a.even_rank)] for _ in range(b.odd_rank)],
        cols=a.even_rank)
    k = IntMatrix.from_rows(
        [[rng.randint(-2, 2) for _ in range(a.odd_rank)] for _ in range(b.even_rank)],
        cols=a.odd_rank)
    return ChainMap(a, b, b.e @ h + k @ a.d, b.d @ k + h @ a.e)


class TestComplexValidation:
    def test_d_squared_enforced(self):
        with pytest.raises(InputError, match="not a complex"):
            PeriodicComplex(1, 1, IntMatrix.from_rows([[1]]), IntMatrix.from_rows([[1]]))

    def test_chain_map_commutation_enforced(self):
        m3 = moore_complex(GradedAbGroup(Z3, TRIV))
        with pytest.raises(InputError, match="not a chain map"):
            ChainMap(M2, m3, IntMatrix.from_rows([[1]]), IntMatrix.from_rows([[1]]))


class TestHomology:
    def test_moore_complex(self):
        h = homology(M2)
        assert h.even.canonical == (0, (2,)) and h.odd.is_trivial()

    def test_zero_differential(self):
        assert homology(PeriodicComplex.zero_diff(2, 0)).even.canonical == (2, ())

    def test_cone_of_identity_is_acyclic(self):
        cone, _, _ = mapping_cone(ChainMap.identity(M2))
        h = homology(cone)
        assert h.even.is_trivial() and h.odd.is_trivial()

    def test_moore_roundtrip_random(self):
        rng = random.Random(5)
        for _ in range(25):
            g = random_graded_group(rng)
            assert homology(moore_complex(g)).is_isomorphic_to(g)

    def test_moore_worked_example(self):
        # (Z/2, 0): ranks (1, 1), D = 0, E = [2].
        assert (M2.even_rank, M2.odd_rank) == (1, 1)
        assert M2.d == IntMatrix.zero(1, 1)
        assert M2.e == IntMatrix.from_rows([[2]])
        free = moore_complex(GradedAbGroup(FgAbGroup.free(1), TRIV))
        assert (free.even_rank, free.odd_rank) == (1, 0)
        assert free.d.is_zero() and free.e.is_zero()
        # (Z + Z/4, Z/2), nontrivial in both degrees: M0 = [4; 0] is 2x1 and
        # M1 = [2] is 1x1, so the even part is Z^2 + Z^1, the odd part is
        # Z^1 + Z^1, D = M1 on the second summands and E = M0 on the first.
        g = GradedAbGroup(FgAbGroup.from_invariants(1, (4,)), Z2)
        x = moore_complex(g)
        assert (x.even_rank, x.odd_rank) == (3, 2)
        m0, m1 = IntMatrix.from_rows([[4], [0]]), IntMatrix.from_rows([[2]])
        assert x.d[0:1, 0:2] == IntMatrix.zero(1, 2) and x.d[0:1, 2:3] == IntMatrix.zero(1, 1)
        assert x.d[1:2, 0:2] == IntMatrix.zero(1, 2) and x.d[1:2, 2:3] == m1
        assert x.e[0:2, 0:1] == m0 and x.e[0:2, 1:2] == IntMatrix.zero(2, 1)
        assert x.e[2:3, 0:1] == IntMatrix.zero(1, 1) and x.e[2:3, 1:2] == IntMatrix.zero(1, 1)
        assert homology(x).is_isomorphic_to(g)

    def test_homology_basis_is_cycles(self):
        rng = random.Random(19)
        for _ in range(15):
            x = random_complex(rng, 2)
            for degree, diff in ((0, x.d), (1, x.e)):
                h = homology_group(x, degree)
                assert (diff @ h.basis).is_zero()
                assert h.to_coords(h.basis) == IntMatrix.identity(h.ngens)
                h2 = homology_group(x, degree + 2)
                assert (h2.basis, h2.presentation) == (h.basis, h.presentation)


class TestSuspension:
    def test_swaps_and_negates(self):
        s = suspension(M2)
        assert (s.even_rank, s.odd_rank) == (M2.odd_rank, M2.even_rank)
        assert s.d == -M2.e and s.e == -M2.d

    def test_double_suspension_is_identity(self):
        rng = random.Random(11)
        for _ in range(20):
            x = random_complex(rng, 2)
            assert suspension(suspension(x)) == x

    def test_homology_shift(self):
        g = GradedAbGroup(Z2, Z3)
        assert homology(suspension(moore_complex(g))).is_isomorphic_to(g.suspend())

    def test_zero_diff_shift(self):
        s = suspension(PeriodicComplex.zero_diff(1, 0))
        assert (s.even_rank, s.odd_rank) == (0, 1)

    def test_suspension_is_functorial_on_maps(self):
        # The suspended map swaps the components; ChainMap rejects it unless
        # both squares over the negated differentials commute.
        rng = random.Random(61)
        for _ in range(10):
            a, b = random_complex(rng, 2), random_complex(rng, 2)
            f = random_chain_map(rng, a, b)
            ChainMap(suspension(a), suspension(b), f.f1, f.f0)


class TestMappingCone:
    def test_cone_of_zero_splits(self):
        m3 = moore_complex(GradedAbGroup(Z3, TRIV))
        cone, _, _ = mapping_cone(ChainMap(M2, m3, IntMatrix.zero(m3.even_rank, M2.even_rank),
                                           IntMatrix.zero(m3.odd_rank, M2.odd_rank)))
        expected = direct_sum(m3, suspension(M2))
        assert homology(cone).is_isomorphic_to(homology(expected))

    def test_cone_of_doubling(self):
        cone, _, _ = mapping_cone(doubling_on_zd())
        h = homology(cone)
        assert h.even.canonical == (0, (2,)) and h.odd.is_trivial()

    def test_canonical_maps_are_chain_maps(self):
        rng = random.Random(19)
        for _ in range(15):
            a, b = random_complex(rng, 2), random_complex(rng, 2)
            f = random_chain_map(rng, a, b)
            cone, iota, pi = mapping_cone(f)
            assert iota.source == b and iota.target == cone
            assert pi.source == cone and pi.target == suspension(a)
            # pi o iota = 0 on the nose.
            composite = pi.compose(iota)
            assert composite.f0.is_zero() and composite.f1.is_zero()


class TestHomotopyClasses:
    def test_moore_z2_self_maps(self):
        assert homotopy_classes(M2, M2).canonical == (0, (2,))

    def test_projective_source_represents_homology(self):
        m3 = moore_complex(GradedAbGroup(Z3, TRIV))
        assert homotopy_classes(ZD, m3).canonical == (0, (3,))

    def test_order_sixteen_example(self):
        x = direct_sum(M2, suspension(M2))
        assert homotopy_classes(x, x).order() == 16

    def test_null_homotopy_soundness(self):
        rng = random.Random(23)
        for _ in range(25):
            a, b = random_complex(rng, 2), random_complex(rng, 2)
            hc = homotopy_classes(a, b)
            f = random_chain_map(rng, a, b)
            h = IntMatrix.from_rows(
                [[rng.randint(-2, 2) for _ in range(a.even_rank)] for _ in range(b.odd_rank)],
                cols=a.even_rank)
            k = IntMatrix.from_rows(
                [[rng.randint(-2, 2) for _ in range(a.odd_rank)] for _ in range(b.even_rank)],
                cols=a.odd_rank)
            boundary = ChainMap(a, b, b.e @ h + k @ a.d, b.d @ k + h @ a.e)
            assert hc.class_of(f + boundary) == hc.class_of(f)
            assert hc.is_null_homotopic(boundary)

    def test_representative_roundtrip(self):
        hc = homotopy_classes(M2, M2)
        for j in range(hc.ngens):
            el = hc.element(tuple(1 if i == j else 0 for i in range(hc.ngens)))
            assert hc.class_of(hc.representative(el)) == el

    def test_acyclic_objects_are_contractible(self):
        from homkit.randgen import random_acyclic_complex
        rng = random.Random(29)
        for _ in range(20):
            x = random_acyclic_complex(rng)
            assert homotopy_classes(x, x).is_trivial()

    def test_is_the_group_it_describes(self, tmp_path):
        # [A, B] is itself a subquotient group, generated by chain maps, and
        # its canonical form is what `hoclasses` reports.
        rng = random.Random(10_001)  # the criterion-1 ensemble
        out = tmp_path / "out.json"
        for _ in range(12):
            a = random_complex(rng, max_rank=3, bound=3)
            b = random_complex(rng, max_rank=3, bound=3)
            hc = homotopy_classes(a, b)
            assert isinstance(hc, SubquotientGroup)
            assert hc.basis == hc.chain_map_lattice()
            paths = []
            for name, x in (("a.json", a), ("b.json", b)):
                (tmp_path / name).write_text(json.dumps(complex_to_json(x)))
                paths.append(str(tmp_path / name))
            assert main(["--out", str(out), "hoclasses", *paths]) == 0
            assert group_from_json(json.loads(out.read_text())["result"]).canonical \
                == hc.canonical

    def test_composition_well_defined_on_classes(self):
        # Composing representatives descends to classes: replacing f and g by
        # homotopic maps does not move the class of the composite.
        rng = random.Random(59)
        for _ in range(12):
            a, b, c = (random_complex(rng, 2) for _ in range(3))
            f = random_chain_map(rng, a, b)
            g = random_chain_map(rng, b, c)
            f_alt = f + _random_boundary(rng, a, b)
            g_alt = g + _random_boundary(rng, b, c)
            hc = homotopy_classes(a, c)
            assert hc.class_of(g.compose(f)) == hc.class_of(g_alt.compose(f_alt))


class TestInducedOnHomology:
    def test_identity(self):
        g = induced_on_homology(ChainMap.identity(M2))
        assert g.is_injective() and g.is_surjective()

    def test_null_homotopic_maps_vanish(self):
        rng = random.Random(31)
        for _ in range(15):
            a, b = random_complex(rng, 2), random_complex(rng, 2)
            hc = homotopy_classes(a, b)
            f = random_chain_map(rng, a, b)
            if hc.is_null_homotopic(f):
                assert induced_on_homology(f).is_zero()

    def test_doubling(self):
        g = induced_on_homology(doubling_on_zd())
        assert g.even.matrix == IntMatrix.from_rows([[2]])

    def test_functoriality(self):
        rng = random.Random(37)
        for _ in range(15):
            a, b, c = (random_complex(rng, 2) for _ in range(3))
            f = random_chain_map(rng, a, b)
            g = random_chain_map(rng, b, c)
            left = induced_on_homology(g.compose(f))
            right_even = induced_on_homology(g).even.compose(induced_on_homology(f).even)
            right_odd = induced_on_homology(g).odd.compose(induced_on_homology(f).odd)
            assert (left.even - right_even).is_zero()
            assert (left.odd - right_odd).is_zero()

    def test_homotopy_invariance(self):
        rng = random.Random(41)
        for _ in range(10):
            a, b = random_complex(rng, 2), random_complex(rng, 2)
            hc = homotopy_classes(a, b)
            f = random_chain_map(rng, a, b)
            g = hc.representative(hc.class_of(f))
            df = induced_on_homology(f)
            dg = induced_on_homology(g)
            assert (df.even - dg.even).is_zero() and (df.odd - dg.odd).is_zero()

    def test_induced_matrices_match_generators(self):
        # The vectorized matrices of all generators, from one product and
        # one solve, are those that induced_map gives for each generator's
        # representative.
        rng = random.Random(43)
        for i in range(30):
            a = random_complex(rng, 3)
            b = direct_sum(random_complex(rng, 2), random_complex(rng, 2)) if i % 2 else \
                random_complex(rng, 3)
            hc = homotopy_classes(a, b)
            ha, hb = homology(a), homology(b)
            maps = [induced_map(g, ha, hb) for g in hc.generators()]
            assert hc.induced_matrices(hc.basis, 0, ha.even, hb.even) == IntMatrix.from_columns(
                [vec(m.even.matrix) for m in maps], rows=hb.even.ngens * ha.even.ngens)
            assert hc.induced_matrices(hc.basis, 1, ha.odd, hb.odd) == IntMatrix.from_columns(
                [vec(m.odd.matrix) for m in maps], rows=hb.odd.ngens * ha.odd.ngens)


class TestTensorComplex:
    def test_unit(self):
        rng = random.Random(43)
        unit = PeriodicComplex.zero_diff(1, 0)
        for _ in range(10):
            x = random_complex(rng, 2)
            assert homology(tensor_complex(x, unit)).is_isomorphic_to(homology(x))

    def test_coprime_moore_is_acyclic(self):
        m3 = moore_complex(GradedAbGroup(Z3, TRIV))
        h = homology(tensor_complex(M2, m3))
        assert h.even.is_trivial() and h.odd.is_trivial()

    def test_z2_z2(self):
        h = homology(tensor_complex(M2, M2))
        assert h.even.canonical == (0, (2,)) and h.odd.canonical == (0, (2,))

    def test_differential_squares_to_zero_random(self):
        rng = random.Random(47)
        for _ in range(15):
            tensor_complex(random_complex(rng, 2), random_complex(rng, 2))


class TestTriangleHomology:
    def test_six_periodic_sequence_exact(self):
        rng = random.Random(53)
        for _ in range(20):
            a, b = random_complex(rng, 2), random_complex(rng, 2)
            f = random_chain_map(rng, a, b)
            assert cone_triangle_is_exact(f)
