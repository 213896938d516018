import random

import pytest

from homkit.errors import InputError, InternalCheckError
from homkit.abgroups import (
    DirectSum,
    FgAbGroup,
    GradedAbGroup,
    GroupHom,
    ext1,
    graded_ext_shifted,
    graded_hom,
    hom,
    is_exact_pair,
    is_isomorphic,
)
from homkit.intlinalg import IntMatrix, block, block_diag, hstack, lattice_contains, unvec, vec
from homkit.percomplex import (
    ChainMap,
    PeriodicComplex,
    direct_sum,
    homology,
    homotopy_classes,
    induced_map,
    mapping_cone,
    moore_complex,
    suspension,
)
from homkit.randgen import random_acyclic_complex, random_chain_map, random_complex
from homkit.relhom import (
    Resolution,
    classify,
    ideal_ext,
    ideal_ext_from_resolution,
    is_i_exact,
    kappa,
    kunneth_prediction,
    phantom_subgroup,
    projective_resolution,
    triangle_homology_maps,
    uct_sequence,
)

from .oracles import (
    cone_triangle_is_exact,
    ideal_ext_by_generators,
    kunneth_prediction_unreduced,
    natural_map_by_generators,
)

Z2 = FgAbGroup.cyclic(2)
Z3 = FgAbGroup.cyclic(3)
Z4 = FgAbGroup.cyclic(4)
TRIV = FgAbGroup.trivial()
M2 = moore_complex(GradedAbGroup(Z2, TRIV))
SM2 = suspension(M2)
ZD = PeriodicComplex.zero_diff(1, 0)


def _reduced_hom_coords(old: DirectSum, new: DirectSum) -> IntMatrix:
    """Matrix of the isomorphism gradedHom(H A, H B) -> gradedHom(H' A, H' B)
    for Smith-reduced presentations H' of the same homology groups: each
    generator's matrix X goes to rb X ra^-1, written in the new groups."""
    blocks = []
    for old_part, new_part in zip(old.parts, new.parts):
        ha, hb = old_part.source, old_part.target
        ra, rb = new_part.source, new_part.target
        into_ha = ha.to_coords(ra.basis)
        xs = [rb.to_coords(hb.basis @ old_part.to_matrix(old_part.element(e)) @ into_ha)
              for e in IntMatrix.identity(old_part.ngens).columns()]
        blocks.append(new_part.from_matrices(IntMatrix.from_columns(
            [vec(x) for x in xs], rows=rb.ngens * ra.ngens)))
    return block_diag(*blocks)


def zero_map(a: PeriodicComplex, b: PeriodicComplex) -> ChainMap:
    return ChainMap(a, b, IntMatrix.zero(b.even_rank, a.even_rank),
                    IntMatrix.zero(b.odd_rank, a.odd_rank))


def _check_natural_map(a: PeriodicComplex, b: PeriodicComplex):
    """Assert that phantom_subgroup's natural map is the class-by-class
    oracle's entry for entry and that uct_sequence's is its conjugate by
    the reductions; return the UCT report."""
    oracle = natural_map_by_generators(a, b)
    direct = phantom_subgroup(a, b).natural
    assert direct.matrix == oracle
    r = uct_sequence(a, b)
    expected = (_reduced_hom_coords(direct.target, r.hom_part) @ oracle
                @ direct.source.to_coords(r.middle.basis))
    assert GroupHom(r.middle, r.hom_part, r.natural.matrix - expected).is_zero()
    return r


def _natural_map_pairs():
    """(reduced generator count, A, B) for a pair whose reduced [A, B]
    has 5 generators and for one with at least 30."""
    rng = random.Random(8_117)
    found = {}
    while len(found) < 2:
        a, b = (direct_sum(direct_sum(random_complex(rng), random_complex(rng)),
                           random_complex(rng)) for _ in range(2))
        n = homotopy_classes(a, b).reduced().ngens
        key = "small" if n == 5 else "large" if n >= 30 else None
        if key and key not in found:
            found[key] = (n, a, b)
    return [found["small"], found["large"]]


def lattices_equal(a, b):
    return lattice_contains(a, b) and lattice_contains(b, a)


def doubling():
    return ChainMap(ZD, ZD, IntMatrix.from_rows([[2]]), IntMatrix.zero(0, 0))


class TestPhantomAndClassify:
    def test_zero_map_is_phantom(self):
        assert classify(zero_map(M2, M2)).phantom

    def test_identity_not_phantom(self):
        assert not classify(ChainMap.identity(M2)).phantom

    def test_nonzero_class_between_shifted_moores_is_phantom(self):
        # [moore(Z/2, 0), moore(0, Z/2)] is Z/2 while the graded Hom of the
        # homologies vanishes, so the whole group must be phantom.
        hc = homotopy_classes(M2, SM2)
        assert hc.canonical == (0, (2,))
        gen = hc.generators()[0]
        assert not hc.is_null_homotopic(gen)
        assert classify(gen).phantom

    def test_doubling_is_monic_not_epic(self):
        flags = classify(doubling())
        assert flags.monic and not flags.epic and not flags.equivalence

    def test_isomorphism_is_equivalence(self):
        assert classify(ChainMap.identity(M2)).equivalence

    def test_map_from_zero_complex_is_monic(self):
        zero = PeriodicComplex.zero_diff(0, 0)
        assert classify(zero_map(zero, M2)).monic


class TestIExact:
    def test_identity_sequence(self):
        zero = PeriodicComplex.zero_diff(0, 0)
        objs = [zero, M2, M2, zero]
        maps = [zero_map(zero, M2), ChainMap.identity(M2), zero_map(M2, zero)]
        assert is_i_exact(objs, maps, 1)
        assert is_i_exact(objs, maps, 2)

    def test_isolated_object_with_homology_not_exact(self):
        zero = PeriodicComplex.zero_diff(0, 0)
        objs = [zero, M2, zero]
        maps = [zero_map(zero, M2), zero_map(M2, zero)]
        assert not is_i_exact(objs, maps, 1)

    def test_augmented_resolution_everywhere_exact(self):
        rng = random.Random(61)
        zero = PeriodicComplex.zero_diff(0, 0)
        for _ in range(10):
            a = random_complex(rng, 2)
            res = projective_resolution(a)
            objs = [zero, res.p1, res.p0, a, zero]
            maps = [zero_map(zero, res.p1), res.delta1, res.delta0,
                    zero_map(a, zero)]
            assert all(is_i_exact(objs, maps, d) for d in (1, 2, 3))

    def test_rejects_non_complex(self):
        zero = PeriodicComplex.zero_diff(0, 0)
        objs = [ZD, ZD, ZD]
        maps = [ChainMap.identity(ZD), ChainMap.identity(ZD)]
        with pytest.raises(InputError, match="not a complex"):
            is_i_exact(objs, maps, 1)

    def test_rejects_boundary_degrees(self):
        zero = PeriodicComplex.zero_diff(0, 0)
        objs = [zero, M2]
        maps = [zero_map(zero, M2)]
        with pytest.raises(InputError):
            is_i_exact(objs, maps, 0)


class TestProjectiveResolution:
    def test_moore_z2(self):
        res = projective_resolution(M2)
        assert (res.p0.even_rank, res.p0.odd_rank) == (1, 0)
        assert (res.p1.even_rank, res.p1.odd_rank) == (1, 0)
        assert res.delta1.f0 == IntMatrix.from_rows([[2]])

    def test_free_homology_gives_trivial_p1(self):
        res = projective_resolution(PeriodicComplex.zero_diff(2, 1))
        assert res.p1.even_rank == 0 and res.p1.odd_rank == 0

    def test_z4_plus_z(self):
        a = moore_complex(GradedAbGroup(FgAbGroup.from_invariants(1, (4,)), TRIV))
        res = projective_resolution(a)
        assert (res.p0.even_rank, res.p0.odd_rank) == (2, 0)
        assert (res.p1.even_rank, res.p1.odd_rank) == (1, 0)

    def test_projectives_have_zero_differential(self):
        rng = random.Random(67)
        for _ in range(10):
            res = projective_resolution(random_complex(rng, 2))
            assert res.p0.d.is_zero() and res.p0.e.is_zero()
            assert res.p1.d.is_zero() and res.p1.e.is_zero()

    def test_composite_is_null_homotopic_by_witness(self):
        # P1 has zero differential, so delta0 o delta1 = (E_A t0, D_A t1) says
        # that (t0, t1) is a null-homotopy.  On these inputs, direct sums
        # included, half the composites are nonzero, so the check has content.
        rng = random.Random(71)
        nonzero = 0
        for _ in range(20):
            a, b = random_complex(rng, 2), random_complex(rng, 2)
            for x in (a, direct_sum(a, b)):
                res = projective_resolution(x)
                composite = res.delta0.compose(res.delta1)
                t0, t1 = res.nullhomotopy
                assert composite.f0 == x.e @ t0
                assert composite.f1 == x.d @ t1
                nonzero += not (composite.f0.is_zero() and composite.f1.is_zero())
        assert nonzero >= 10


class TestIdealExt:
    def test_vanishes_above_degree_one(self):
        rng = random.Random(73)
        for _ in range(5):
            a, b = random_complex(rng, 2), random_complex(rng, 2)
            assert ideal_ext(a, b, 2).is_trivial()
            assert ideal_ext(a, b, 3).is_trivial()

    def test_degree_zero_is_graded_hom(self):
        assert ideal_ext(M2, M2, 0).canonical == (0, (2,))

    def test_degree_one_is_shifted_ext(self):
        assert ideal_ext(M2, SM2, 1).canonical == (0, (2,))
        assert ideal_ext(M2, M2, 1).is_trivial()

    def test_matches_closed_forms_random(self):
        rng = random.Random(79)
        for _ in range(8):
            a, b = random_complex(rng, 2), random_complex(rng, 2)
            ha, hb = homology(a), homology(b)
            assert is_isomorphic(ideal_ext(a, b, 0), graded_hom(ha, hb))
            assert is_isomorphic(ideal_ext(a, b, 1), graded_ext_shifted(ha, hb))

    def test_resolution_independence(self):
        rng = random.Random(83)
        for _ in range(6):
            a = random_complex(rng, 2)
            b = random_complex(rng, 2)
            res = projective_resolution(a)
            fat = _fatten_resolution(res, a)
            for n in (0, 1):
                assert is_isomorphic(ideal_ext_from_resolution(res, b, n),
                                     ideal_ext_from_resolution(fat, b, n))

    def test_matches_the_per_generator_pullback(self):
        # Composing [P0, B]'s whole basis with delta1 by one product per
        # degree gives the groups, presentations and kernel bases of the
        # construction that composes one generator's chain map at a time,
        # on minimal and fattened resolutions.
        rng = random.Random(8_119)
        nontrivial = 0
        for _ in range(10):
            a = direct_sum(random_complex(rng), random_complex(rng))
            b = direct_sum(random_complex(rng), random_complex(rng))
            for n in (0, 1):
                x = suspension(a) if n else a
                res = projective_resolution(x)
                for r in (res, _fatten_resolution(res, x)):
                    got, want = ideal_ext_from_resolution(r, b, n), ideal_ext_by_generators(r, b, n)
                    assert got.presentation == want.presentation
                    assert n or got.basis == want.basis
                    nontrivial += not got.is_trivial()
        assert nontrivial >= 10

    def test_negative_degree_rejected(self):
        for n in (-1, -2):
            with pytest.raises(InputError):
                ideal_ext(M2, SM2, n)
            with pytest.raises(InputError):
                ideal_ext_from_resolution(projective_resolution(suspension(M2)), SM2, n)


def _fatten_resolution(res: Resolution, a: PeriodicComplex) -> Resolution:
    """A second, non-minimal resolution: adds a free summand mapped identically.

    P0' = P0 + F and P1' = P1 + F with delta1' = delta1 + id_F; the extra
    summand dies in homology, so the augmented complex stays exact.
    """
    extra_even, extra_odd = 1, 1
    f = PeriodicComplex.zero_diff(extra_even, extra_odd)
    p0 = direct_sum(res.p0, f)
    p1 = direct_sum(res.p1, f)
    delta1 = ChainMap(p1, p0,
                      block_diag(res.delta1.f0, IntMatrix.identity(extra_even)),
                      block_diag(res.delta1.f1, IntMatrix.identity(extra_odd)))
    # The new generators of P0' must still land on cycles of A; send them to 0.
    delta0 = ChainMap(p0, a,
                      _pad_cols(res.delta0.f0, extra_even),
                      _pad_cols(res.delta0.f1, extra_odd))
    return Resolution(p1, p0, delta1, delta0, res.nullhomotopy)


def _pad_cols(m: IntMatrix, extra: int) -> IntMatrix:
    from homkit.intlinalg import hstack
    return hstack(m, IntMatrix.zero(m.rows, extra))


class TestUct:
    def test_moore_pair(self):
        r = uct_sequence(M2, M2)
        assert r.hom_part.canonical == (0, (2,))
        assert r.ext_part.is_trivial()
        assert r.middle.canonical == (0, (2,))

    def test_order_sixteen_pair(self):
        x = direct_sum(M2, SM2)
        r = uct_sequence(x, x)
        assert r.hom_part.canonical == (0, (2, 2))
        assert r.ext_part.canonical == (0, (2, 2))
        assert r.middle.order() == 16

    def test_acyclic_target(self):
        rng = random.Random(89)
        for _ in range(5):
            b = random_acyclic_complex(rng)
            r = uct_sequence(random_complex(rng, 2), b)
            assert r.middle.is_trivial()
            assert r.hom_part.is_trivial() and r.ext_part.is_trivial()

    def test_random_reports_verify(self):
        rng = random.Random(97)
        for _ in range(15):
            uct_sequence(random_complex(rng, 2), random_complex(rng, 2))

    def test_natural_map_matches_class_by_class_oracle(self):
        # On criterion-1 complexes and on sums of two or three of them, the
        # natural map over the unreduced presentations (as phantom_subgroup
        # builds it) equals the per-generator construction entry for entry,
        # and the report's map over the Smith-reduced groups is that map
        # conjugated by the reduction isomorphisms.
        rng = random.Random(8_111)
        nontrivial = 0
        for i in range(60):
            sides = []
            for _ in range(2):
                x = random_complex(rng, max_rank=3)
                for _ in range(i % 3):
                    x = direct_sum(x, random_complex(rng, max_rank=2))
                sides.append(x)
            r = _check_natural_map(*sides)
            nontrivial += not r.natural.matrix.is_zero()
        assert nontrivial >= 30
        # Sums of three complexes a side whose reduced [A, B] has at least
        # 30 generators.
        large = 0
        while large < 4:
            a, b = (direct_sum(direct_sum(random_complex(rng), random_complex(rng)),
                               random_complex(rng)) for _ in range(2))
            if homotopy_classes(a, b).reduced().ngens >= 30:
                assert _check_natural_map(a, b).middle.ngens >= 30
                large += 1
        # Blocks of width or height 0: a middle with no generators, a side
        # of rank 0 in one degree, and M2's odd homology, whose unreduced
        # presentation has no generators and one relation.
        zero = PeriodicComplex.zero_diff(0, 0)
        no_odd, no_even = PeriodicComplex.zero_diff(2, 0), PeriodicComplex.zero_diff(0, 3)
        assert homology(M2).odd.presentation.rows == 0 < homology(M2).odd.presentation.cols
        cases = [(M2, zero), (zero, M2), (M2, random_acyclic_complex(random.Random(5))),
                 (no_odd, direct_sum(M2, SM2)), (SM2, no_even), (no_odd, no_even),
                 (M2, M2), (SM2, M2), (M2, SM2), (direct_sum(M2, SM2), M2)]
        reports = [_check_natural_map(a, b) for a, b in cases]
        assert all(phantom_subgroup(*sides).natural.source.ngens == 0 for sides in cases[:2])
        assert all(r.middle.ngens == 0 for r in reports[:3])
        assert not all(r.natural.matrix.is_zero() for r in reports[3:])

    def test_natural_map_makes_as_many_products_for_thirty_generators_as_for_five(
            self, monkeypatch):
        # Each degree is one product by (Z^T kron I) on the basis matrix and
        # one by (M_A^T kron I) on the induced maps, however many generators
        # [A, B] has; a loop over the generators makes two per generator
        # and degree.
        from homkit import relhom
        product = IntMatrix.__matmul__
        counts = {}
        for ngens, a, b in _natural_map_pairs():
            hc = homotopy_classes(a, b)
            middle, ha, hb = hc.reduced(), relhom._reduced(homology(a)), relhom._reduced(homology(b))
            assert middle.ngens == ngens
            calls = []
            monkeypatch.setattr(IntMatrix, "__matmul__",
                                lambda x, y: calls.append(None) or product(x, y))
            relhom._natural_map(hc, middle, ha, hb)
            monkeypatch.undo()
            counts[ngens] = len(calls)
        assert len(counts) == 2 and len(set(counts.values())) == 1, counts

    def test_natural_map_rejects_a_map_that_breaks_relations(self, monkeypatch):
        # The relation solve is the homomorphism check; a failure is internal.
        from homkit import abgroups
        monkeypatch.setattr(abgroups.FgAbGroup, "relation_coords", lambda self, cols: None)
        with pytest.raises(InternalCheckError, match="natural map"):
            uct_sequence(M2, M2)


class TestPhantomSubgroup:
    def test_projective_source_has_no_phantoms(self):
        rng = random.Random(101)
        for _ in range(8):
            p = PeriodicComplex.zero_diff(rng.randint(0, 3), rng.randint(0, 3))
            b = random_complex(rng, 2)
            assert phantom_subgroup(p, b).group.is_trivial()

    def test_whole_group_phantom(self):
        ph = phantom_subgroup(M2, SM2)
        assert ph.group.canonical == (0, (2,))
        assert all(classify(g).phantom for g in ph.generator_maps())

    def test_matches_uct_kernel(self):
        rng = random.Random(103)
        for _ in range(8):
            a, b = random_complex(rng, 2), random_complex(rng, 2)
            ph = phantom_subgroup(a, b)
            r = uct_sequence(a, b)
            assert is_isomorphic(ph.group, r.kernel_group)
            assert is_isomorphic(ph.group, r.ext_part)

    def test_uct_kernel_basis_is_the_phantom_basis(self):
        # The report's kernel lives in the reduced [A, B]; carried back to
        # [A, B]'s own coordinates it spans the same subgroup as the
        # phantom generators.
        rng = random.Random(109)
        for _ in range(8):
            a, b = random_complex(rng, 2), random_complex(rng, 2)
            r = uct_sequence(a, b)
            basis = r.kernel_group.basis
            assert basis.rows == r.middle.ngens
            assert r.hom_part.relation_coords(r.natural.matrix @ basis) is not None
            ph = phantom_subgroup(a, b)
            hc = ph.homotopy
            carried = hc.to_coords(r.middle.basis @ basis)
            assert lattices_equal(hstack(carried, hc.presentation),
                                  hstack(ph.group.basis, hc.presentation))

    def test_ideal_closure_properties(self):
        rng = random.Random(107)
        for _ in range(10):
            a, b, c = (random_complex(rng, 2) for _ in range(3))
            ph = phantom_subgroup(a, b)
            gens = ph.generator_maps()
            if len(gens) >= 2:
                assert classify(gens[0] + gens[1]).phantom
            if gens:
                pre = random_chain_map(rng, c, a)
                post = random_chain_map(rng, b, c)
                assert classify(gens[0].compose(pre)).phantom
                assert classify(post.compose(gens[0])).phantom


def derandomized(examples):
    """Run a check on `examples` seeded random.Random instances under the
    derandomized hypothesis profile of tests/test_properties.py."""
    hypothesis = pytest.importorskip("hypothesis")
    seeds = hypothesis.strategies.integers(0, 2**32 - 1).map(random.Random)
    profile = hypothesis.settings(derandomize=True, database=None, max_examples=examples,
                                  deadline=None)
    return lambda check: profile(hypothesis.given(seeds)(check))


def precomposition(h: ChainMap, x: PeriodicComplex) -> GroupHom:
    """[h.target, X] -> [h.source, X], g |-> g o h."""
    src, dst = homotopy_classes(h.target, x), homotopy_classes(h.source, x)
    return GroupHom(src, dst, dst.class_coords([g.compose(h) for g in src.generators()]))


def postcomposition(h: ChainMap, x: PeriodicComplex) -> GroupHom:
    """[X, h.source] -> [X, h.target], g |-> h o g."""
    src, dst = homotopy_classes(x, h.source), homotopy_classes(x, h.target)
    return GroupHom(src, dst, dst.class_coords([h.compose(g) for g in src.generators()]))


def blocks(rows: tuple[int, ...], cols: tuple[int, ...], entries: dict) -> IntMatrix:
    """The block matrix with row and column block sizes `rows` and `cols`,
    holding entries[(i, j)] in block (i, j) and zeros elsewhere."""
    return block([[entries.get((i, j), IntMatrix.zero(r, c)) for j, c in enumerate(cols)]
                  for i, r in enumerate(rows)])


def octahedron(f: ChainMap, g: ChainMap) -> tuple[ChainMap, ChainMap, ChainMap, ChainMap]:
    """For A --f--> B --g--> C: u = (id, g): C_f -> C_gf and
    v = (f[1], id): C_gf -> C_g, the comparison w: cone(u) -> C_g and the
    inclusion s: C_g -> cone(u) of its B and C blocks.

    cone(u) = S C_f + C_gf has even part A0 + B1 + A1 + C0 and odd part
    A1 + B0 + A0 + C1 (the blocks A[2], B[1], A[1], C); w is 0 on A[2],
    the identity on B[1], f on A[1] and the identity on C.
    """
    a, b, c = f.source, f.target, g.target
    a0, a1, b0, b1, c0, c1 = (a.even_rank, a.odd_rank, b.even_rank, b.odd_rank,
                              c.even_rank, c.odd_rank)
    eye = IntMatrix.identity
    cf, cgf, cg = (mapping_cone(h)[0] for h in (f, g.compose(f), g))
    u = ChainMap(cf, cgf, block_diag(eye(a1), g.f0), block_diag(eye(a0), g.f1))
    v = ChainMap(cgf, cg, block_diag(f.f1, eye(c0)), block_diag(f.f0, eye(c1)))
    cu = mapping_cone(u)[0]
    w = ChainMap(cu, cg,
                 blocks((b1, c0), (a0, b1, a1, c0), {(0, 1): eye(b1), (0, 2): f.f1, (1, 3): eye(c0)}),
                 blocks((b0, c1), (a1, b0, a0, c1), {(0, 1): eye(b0), (0, 2): f.f0, (1, 3): eye(c1)}))
    s = ChainMap(cg, cu, blocks((a0, b1, a1, c0), (b1, c0), {(1, 0): eye(b1), (3, 1): eye(c0)}),
                 blocks((a1, b0, a0, c1), (b0, c1), {(1, 0): eye(b0), (3, 1): eye(c1)}))
    return u, v, w, s


class TestLaws:
    """Structural laws of the paper, as standing oracles."""

    def test_phantom_ideal_squares_to_zero(self):
        # Every object has a length-1 projective resolution, so I^2 = 0: a
        # composite of two phantom maps is null-homotopic.
        both_essential = []

        @derandomized(150)
        def check(rng):
            a, b, c = (random_complex(rng) for _ in range(3))
            first = phantom_subgroup(a, b)
            firsts = first.generator_maps()
            if not firsts:
                return
            second, hc = phantom_subgroup(b, c), homotopy_classes(a, c)
            for f in firsts:
                for g in second.generator_maps():
                    assert hc.is_null_homotopic(g.compose(f))
                    both_essential.append(not (first.homotopy.is_null_homotopic(f)
                                               or second.homotopy.is_null_homotopic(g)))

        check()
        assert len(both_essential) >= 300 and sum(both_essential) >= 10

    def test_cone_triangles_give_exact_sequences(self):
        # For A --f--> B --iota--> cone f --pi--> SA, the sequences
        # [SA, X] -> [cone f, X] -> [B, X] -> [A, X] and
        # [X, A] -> [X, B] -> [X, cone f] -> [X, SA] are exact at both middles.
        nontrivial = []

        @derandomized(100)
        def check(rng):
            a, b, x = random_complex(rng, 2), random_complex(rng, 2), random_complex(rng, 2)
            f = random_chain_map(rng, a, b)
            _, iota, pi = mapping_cone(f)
            pre = [precomposition(h, x) for h in (pi, iota, f)]
            post = [postcomposition(h, x) for h in (f, iota, pi)]
            for maps in (pre, post):
                assert is_exact_pair(maps[0], maps[1]) and is_exact_pair(maps[1], maps[2])
            nontrivial.append(not (pre[1].is_zero() or post[1].is_zero()))

        check()
        assert sum(nontrivial) >= 30

    def test_octahedral_axiom(self):
        # For A --f--> B --g--> C, the cones of f, gf and g form a triangle
        # C_f --u--> C_gf --v--> C_g (TR4): v o u is null-homotopic, the
        # homology sequence is exact at C_gf, and cone(u) is homotopy
        # equivalent to C_g through w, with w o s = id and s o w ~ id.
        essential = []

        @derandomized(60)
        def check(rng):
            a, b, c = (random_complex(rng, 2) for _ in range(3))
            f = random_chain_map(rng, a, b)
            g = random_chain_map(rng, b, c)
            u, v, w, s = octahedron(f, g)
            vu = v.compose(u)
            assert homotopy_classes(u.source, v.target).is_null_homotopic(vu)
            assert is_i_exact([u.source, u.target, v.target], [u, v], 1)
            assert w.compose(s) == ChainMap.identity(v.target)
            cu = s.target
            assert homotopy_classes(cu, cu).is_null_homotopic(s.compose(w) - ChainMap.identity(cu))
            essential.append(not (vu.f0.is_zero() and vu.f1.is_zero()))

        check()
        assert sum(essential) >= 40, sum(essential)

    def test_rotated_triangle_is_a_cone_triangle(self):
        # Rotating A --f--> B --iota--> C_f --pi--> SA gives the cone
        # triangle B --iota--> C_f --iota'--> cone(iota) --pi'--> SB of
        # iota.  p = (0, pi): cone(iota) -> SA is a homotopy equivalence, and
        # pi' ~ (-Sf) o p for Sf = (f1, f0): the rotated triangle is
        # isomorphic to C_f -> SA --(-Sf)--> SB.  With +Sf the homotopy
        # fails on some pairs, so the sign is pinned.
        sign_seen = []

        @derandomized(60)
        def check(rng):
            a, b = random_complex(rng, 2), random_complex(rng, 2)
            f = random_chain_map(rng, a, b)
            _, iota, _ = mapping_cone(f)
            ci, _, pi_iota = mapping_cone(iota)
            sa, sb = suspension(a), suspension(b)
            a0, a1, b0, b1 = a.even_rank, a.odd_rank, b.even_rank, b.odd_rank
            p = ChainMap(ci, sa,
                         blocks((a1,), (b1, a1, b0), {(0, 1): IntMatrix.identity(a1)}),
                         blocks((a0,), (b0, a0, b1), {(0, 1): IntMatrix.identity(a0)}))
            sf_p = ChainMap(sa, sb, f.f1, f.f0).compose(p)
            to_sb = homotopy_classes(ci, sb)
            assert to_sb.is_null_homotopic(pi_iota + sf_p)
            sign_seen.append(not to_sb.is_null_homotopic(pi_iota - sf_p))
            # A homotopy inverse of p: lift the identity class of SA through
            # [SA, p], and check it is an inverse on the other side too.
            post = postcomposition(p, sa)
            ident = homotopy_classes(sa, sa).class_coords([ChainMap.identity(sa)])
            lifted = post.lift(ident)
            assert lifted is not None
            q = post.source.representative(post.source.element(lifted.column(0)))
            assert homotopy_classes(ci, ci).is_null_homotopic(q.compose(p) - ChainMap.identity(ci))

        check()
        assert sum(sign_seen) >= 20, sum(sign_seen)

    def test_kappa_is_natural_in_the_target(self):
        # kappa(g o f) = H(g)_* kappa(f) for a phantom f: A -> B and any
        # g: B -> C.  Part 0, Ext(H0 A, H1 B), is pushed along the odd map
        # of H(g) and part 1 along the even one; a cocycle x goes to H(g) x.
        essential = []

        @derandomized(236)
        def check(rng):
            a, b, c = (random_complex(rng) for _ in range(3))
            gens = phantom_subgroup(a, b).generator_maps()
            f = zero_map(a, b)
            for gen in gens:
                k = rng.randint(-2, 2)
                f = f + ChainMap(a, b, gen.f0.scale(k), gen.f1.scale(k))
            g = random_chain_map(rng, b, c)
            before, after = kappa(f), kappa(g.compose(f))
            hg = induced_map(g, homology(b), homology(c))
            pushed, start = (), 0
            for part, h in zip(before.owner.parts, (hg.odd, hg.even)):
                x = unvec(before.coords[start:start + part.ngens],
                          part.target.ngens, part.resolution.cols)
                pushed += vec(h.matrix @ x)
                start += part.ngens
            assert after == after.owner.element(pushed)  # the difference's coords are zero
            essential.append(not before.is_zero())

        check()
        assert len(essential) >= 200 and sum(essential) >= 40, sum(essential)

class TestKappa:
    def test_kappa_of_zero_vanishes(self):
        assert kappa(zero_map(M2, SM2)).is_zero()

    def test_rejects_non_phantom(self):
        with pytest.raises(InputError, match="phantom"):
            kappa(ChainMap.identity(M2))

    def test_extension_fixture(self):
        # The phantom generator of [moore(Z/2,0), moore(0,Z/2)] realizes the
        # extension Z/2 -> Z/4 -> Z/2, the generator of Ext(Z/2, Z/2).
        assert ext1(Z2, Z2).canonical == (0, (2,))
        ph = phantom_subgroup(M2, SM2)
        gen = ph.generator_maps()[0]
        cls = kappa(gen)
        assert not cls.is_zero()
        assert cls.owner.canonical == (0, (2,))
        # The extension sits in odd degree here: 0 -> H1(T) -> H1(cone) ->
        # H0(A) -> 0 is Z/2 -> Z/4 -> Z/2, so the cone's odd homology is Z/4.
        from homkit.percomplex import mapping_cone
        cone, _, _ = mapping_cone(gen)
        assert homology(cone).odd.canonical == (0, (4,))

    def test_additive(self):
        rng = random.Random(109)
        checked = 0
        while checked < 6:
            a, b = random_complex(rng, 2), random_complex(rng, 2)
            ph = phantom_subgroup(a, b)
            if ph.group.is_trivial():
                continue
            gens = ph.generator_maps()
            f = gens[0]
            g = gens[-1]
            assert kappa(f + g) == kappa(f) + kappa(g)
            checked += 1

    def test_isomorphism_onto_ext_part(self):
        rng = random.Random(113)
        for _ in range(8):
            a, b = random_complex(rng, 2), random_complex(rng, 2)
            ph = phantom_subgroup(a, b)
            ext_part = graded_ext_shifted(homology(a), homology(b))
            cols = [kappa(g).coords for g in ph.generator_maps()]
            k = GroupHom(ph.group, ext_part, IntMatrix.from_columns(cols, rows=ext_part.ngens))
            assert k.is_isomorphism()

    def test_homotopy_invariance(self):
        # kappa only sees the homotopy class: adding a null-homotopy boundary
        # to a phantom representative does not move the Ext class.
        rng = random.Random(117)
        checked = 0
        while checked < 5:
            a, b = random_complex(rng, 2), random_complex(rng, 2)
            ph = phantom_subgroup(a, b)
            if ph.group.is_trivial():
                continue
            f = ph.generator_maps()[0]
            h = IntMatrix.from_rows(
                [[rng.randint(-2, 2) for _ in range(a.even_rank)] for _ in range(b.odd_rank)],
                cols=a.even_rank)
            k = IntMatrix.from_rows(
                [[rng.randint(-2, 2) for _ in range(a.odd_rank)] for _ in range(b.even_rank)],
                cols=a.odd_rank)
            boundary = ChainMap(a, b, b.e @ h + k @ a.d, b.d @ k + h @ a.e)
            assert kappa(f + boundary) == kappa(f)
            checked += 1


class TestMonicShortExact:
    def test_monic_maps_give_short_exact_homology(self):
        rng = random.Random(127)
        found = 0
        while found < 8:
            a, b = random_complex(rng, 2), random_complex(rng, 2)
            f = random_chain_map(rng, a, b)
            if not classify(f).monic:
                continue
            maps = triangle_homology_maps(f)
            # Connecting maps vanish, inclusions are epic: degreewise SES.
            assert maps[2].is_zero() and maps[5].is_zero()
            assert maps[1].is_surjective() and maps[4].is_surjective()
            assert cone_triangle_is_exact(f)
            found += 1


class TestKunnethPrediction:
    def test_invariant_factors_predict_what_the_given_presentations_do(self):
        # The prediction is taken on invariant-factor presentations; its
        # canonical forms are those of the construction on the homology
        # groups as presented, with redundant generators and relations.
        rng = random.Random(157)
        for i in range(40):
            a, b = random_complex(rng, max_rank=3), random_complex(rng, max_rank=2)
            if i % 2:
                a = direct_sum(a, random_complex(rng, max_rank=2))
            ha, hb = homology(a), homology(b)
            pred, oracle = kunneth_prediction(ha, hb), kunneth_prediction_unreduced(ha, hb)
            assert (pred.even.canonical, pred.odd.canonical) == \
                (oracle.even.canonical, oracle.odd.canonical)

    def test_formula(self):
        ha = GradedAbGroup(Z2, TRIV)
        hb = GradedAbGroup(Z2, TRIV)
        pred = kunneth_prediction(ha, hb)
        assert pred.even.canonical == (0, (2,))
        assert pred.odd.canonical == (0, (2,))
