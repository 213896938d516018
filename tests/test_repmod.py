import random
from collections import Counter

import pytest

from homkit import abgroups, repmod
from homkit.errors import InputError
from homkit.abgroups import (
    FgAbGroup,
    GradedAbGroup,
    GroupHom,
    ext1,
    hom,
    is_isomorphic,
    tensor,
    tor1,
)
from homkit.intlinalg import IntMatrix, SmithDecomposition
from homkit.randgen import (
    random_automorphism,
    random_graded_automorphism,
    random_graded_group,
    random_group,
    random_rmodule,
)
from homkit.repmod import (
    LaurentRing,
    QuotientRing,
    RModule,
    ext_over_r,
    free_resolution_over_r,
    hochschild,
    pv_sequence,
    tor_over_r,
)

from .oracles import (
    GreedyResolution,
    cyclic_group_cohomology_pin,
    cyclic_group_free_coefficient_pin,
    cyclic_group_homology_pin,
    cyclic_order2_ext_pin,
    cyclic_order2_tor_pin,
    exact_by_lift,
    greedy_free_resolution,
    laurent_ext_by_generators,
    ring_inverse_by_lattice_solve,
)

ORDER2 = QuotientRing((-1, 0, 1))  # Z[t]/(t^2 - 1)
SELFTEST_RINGS = ((-1, 0, 1), (-1, 0, 0, 1), (-1, 0, 0, 0, 1), (2, 0, 1), (1, 1))
TRIVIAL_RING = QuotientRing((-1, 1))  # Z[t]/(t - 1), i.e. plain Z
LAURENT = LaurentRing()

ONE = IntMatrix.identity(1)
MINUS = IntMatrix.from_rows([[-1]])


def cyclic_ring(n):
    """Z[t]/(t^n - 1), the group ring of the cyclic group C_n."""
    return QuotientRing((-1,) + (0,) * (n - 1) + (1,))


def endo(group, matrix):
    """The endomorphism of `group` with the given matrix."""
    return GroupHom(group, group, matrix)


def hh(group, lam, rho, degree, variant="homology"):
    return hochschild(endo(group, lam), endo(group, rho), degree, variant)


def pv(k, alpha_even, alpha_odd):
    return pv_sequence(endo(k.even, alpha_even), endo(k.odd, alpha_odd))


def z_trivial(ring=ORDER2):
    return RModule(ring, IntMatrix.zero(1, 0), ONE)


class TestRingsAndModules:
    def test_quotient_ring_validation(self):
        with pytest.raises(InputError):
            QuotientRing((1,))
        with pytest.raises(InputError):
            QuotientRing((1, 2))

    def test_companion_matrix(self):
        c = ORDER2.companion_matrix()
        assert c == IntMatrix.from_rows([[0, 1], [1, 0]])
        assert ORDER2.evaluate(c).is_zero()

    def test_element_arithmetic(self):
        c3 = cyclic_ring(3)
        assert c3.element((0, 0, 0, 1)) == (1, 0, 0)  # t^3 = 1
        assert c3.multiply((0, 1, 0), (0, 0, 1)) == (1, 0, 0)
        assert c3.inverse((0, 1, 0)) == (0, 0, 1)  # t^-1 = t^2
        assert c3.inverse((-1, 0, 0)) == (-1, 0, 0)
        assert c3.inverse((1, 1, 0)) is None  # norm 2
        assert c3.inverse((2, 0, 0)) is None
        # Z[t]/(t^2 + 2): t has norm 2, and 1 + t norm 3; t - 1 + t^2 = -3 + t.
        r = QuotientRing((2, 0, 1))
        assert r.inverse((0, 1)) is None and r.inverse((1, 1)) is None
        assert r.element((-1, 1, 1)) == (-3, 1)
        # Z[t]/(t + 1) is Z with t = -1.
        assert TRIVIAL_RING.element((0, 1)) == (1,) and QuotientRing((1, 1)).element((0, 1)) == (-1,)

    def test_the_norm_decides_units_as_the_lattice_solve_does(self):
        # Random elements, and the units +-t^k times random ones, of the
        # selftest rings: inverse() finds an inverse exactly when x y = 1
        # has an integer solution, and x x^-1 = 1.
        rng = random.Random(149)
        units = 0
        for coefficients in SELFTEST_RINGS:
            ring = QuotientRing(coefficients)
            d = ring.degree
            for i in range(60):
                x = tuple(rng.randint(-2, 2) for _ in range(d))
                if i % 3 == 0:
                    k = rng.randrange(d)
                    x = ring.multiply((0,) * k + (rng.choice((1, -1)),), x if i % 2 else (1,))
                inv = ring.inverse(x)
                assert (inv is None) == (ring_inverse_by_lattice_solve(ring, x) is None), (ring, x)
                if inv is not None:
                    assert ring.multiply(x, inv) == ring.element((1,))
                    units += 1
        assert units > 60

    def test_module_rejects_non_annihilated(self):
        # t = 2 on Z does not satisfy t^2 = 1.
        with pytest.raises(InputError, match="annihilate"):
            RModule(ORDER2, IntMatrix.zero(1, 0), IntMatrix.from_rows([[2]]))

    def test_module_rejects_relation_breaking_action(self):
        # t(gen) = gen of a different order.
        with pytest.raises(InputError):
            RModule(TRIVIAL_RING, IntMatrix.from_rows([[2, 0], [0, 3]]),
                    IntMatrix.from_rows([[0, 1], [1, 0]]))

    def test_a_module_is_its_group(self):
        # An RModule is its presented group: Hom and the tensor product read
        # the presentations the plain groups have.
        rng = random.Random(229)
        for ring in (ORDER2, QuotientRing((2, 0, 1)), QuotientRing((1, 1, 1))):
            for _ in range(3):
                m, n = random_rmodule(rng, ring), random_rmodule(rng, ring)
                assert isinstance(m, FgAbGroup)
                gm, gn = FgAbGroup(m.presentation), FgAbGroup(n.presentation)
                assert hom(m, n).presentation == hom(gm, gn).presentation
                assert tensor(m, n).presentation == tensor(gm, gn).presentation

    def test_laurent_requires_automorphism(self):
        with pytest.raises(InputError, match="automorphism"):
            RModule(LAURENT, IntMatrix.zero(1, 0), IntMatrix.from_rows([[2]]))


class TestFreeResolution:
    def test_norm_element_pattern(self):
        # Over Z[t]/(t^2-1) the trivial module resolves periodically through
        # multiplication by (t - 1) and (t + 1).
        res = free_resolution_over_r(z_trivial())
        assert res.ranks == (1, 1, 1)
        assert [res.rank(k) for k in range(-1, 6)] == [0, 1, 1, 1, 1, 1, 1]
        assert res.augmentation == IntMatrix.from_rows([[1, 1]])
        for i in range(6):
            col = res.delta(i).column(0)
            assert sorted(abs(x) for x in col) == [1, 1]
            expected_sum = 0 if i % 2 == 0 else 2
            assert abs(sum(col)) == expected_sum
        assert res.verify_exact(z_trivial())

    def test_free_module_resolves_trivially(self):
        free = RModule(ORDER2, IntMatrix.zero(2, 0), ORDER2.companion_matrix())
        res = free_resolution_over_r(free)
        assert (res.rank(1), res.rank(2)) == (0, 0)
        assert res.verify_exact(free)

    def test_degenerate_ring_is_plain_z(self):
        m = RModule(TRIVIAL_RING, IntMatrix.from_rows([[6]]), ONE)
        res = free_resolution_over_r(m)
        assert res.verify_exact(m)
        assert res.rank(0) == 1

    def test_laurent_rejected(self):
        with pytest.raises(InputError, match="Laurent"):
            free_resolution_over_r(RModule(LAURENT, IntMatrix.zero(1, 0), ONE))

    def test_random_modules_resolve_exactly(self):
        rng = random.Random(131)
        for ring in (ORDER2, TRIVIAL_RING, QuotientRing((1, 1, 1))):
            for _ in range(4):
                m = random_rmodule(rng, ring)
                res = free_resolution_over_r(m)
                assert res.verify_exact(m)

    @staticmethod
    def _resolutions(seed, nonzero=2):
        """(module, resolution) pairs, at least 12, from the periodic builder
        and from the greedy one of length 4, on random modules over the
        selftest rings whose first `nonzero` stored maps are nonzero."""
        rng = random.Random(seed)
        rings = ((-1, 0, 1), (-1, 0, 0, 1), (-1, 0, 0, 0, 1), (2, 0, 1), (1, 1))
        found = 0
        while found < 12:
            m = random_rmodule(rng, QuotientRing(rng.choice(rings)))
            for res in (free_resolution_over_r(m), greedy_free_resolution(m, 4)):
                if not any(d.is_zero() for d in res.deltas[:nonzero]):
                    assert res.verify_exact(m)
                    found += 1
                    yield m, res

    @staticmethod
    def _replaced(res, stage, delta):
        """`res`, of either builder's type, with stored map `stage` replaced."""
        deltas = res.deltas[:stage] + (delta,) + res.deltas[stage + 1:]
        return type(res)(res.ring, res.ranks, res.augmentation, deltas)

    def test_stage_zero_is_a_zero_test_in_m_modulo_the_kept_generators(self, monkeypatch):
        # The cover solves no system: it reads M's own decomposition, made
        # when M was built, until a generator is kept, and factors M/<kept>
        # only after a keep.  It keeps what the oracle's span test keeps.
        # The cover builds no GroupHom; the first one built is the
        # augmentation F_0 -> M, whose kernel the next stage takes, so
        # stopping there isolates the cover.
        class Covered(Exception):
            pass

        def stop(source, target, matrix):
            raise Covered(source, target, matrix)

        rng = random.Random(139)
        factored = []
        real_snf = abgroups.snf
        for ring in (ORDER2, cyclic_ring(3), QuotientRing((2, 0, 1))):
            for _ in range(4):
                m = random_rmodule(rng, ring)
                monkeypatch.setattr(repmod, "solve", None)
                monkeypatch.setattr(repmod, "GroupHom", stop)
                monkeypatch.setattr(abgroups, "snf", lambda a: factored.append(a) or real_snf(a))
                with pytest.raises(Covered) as covered:
                    free_resolution_over_r(m)
                monkeypatch.undo()
                source, target, augmentation = covered.value.args
                assert target is m and source.ngens == augmentation.cols
                assert augmentation == greedy_free_resolution(m, 0).augmentation
                assert len(factored) <= augmentation.cols // ring.degree
                factored.clear()

    def test_a_delta_scaled_by_two_is_not_exact(self):
        # The composites stay zero, but the image of 2 delta_k is a proper
        # sublattice of ker delta_(k-1) (or of the cover's kernel).  Every
        # stored map is doubled in turn, on resolutions whose four are nonzero.
        for m, res in self._resolutions(163, nonzero=4):
            for stage in range(4):
                doubled = self._replaced(res, stage, res.deltas[stage].scale(2))
                assert not doubled.verify_exact(m)

    def test_a_fault_seen_only_at_f4_is_caught(self):
        # delta_3 re-based by a shear A of F_4's Z-basis keeps its image, so
        # the pairs at F_0, ..., F_3 stay exact (the greedy record of the
        # same five stages checks just those), but at F_4 the composite
        # delta_3 A delta_4 = delta_3 A delta_2 is no longer zero.
        rng = random.Random(173)
        caught = 0
        while caught < 6:
            m = random_rmodule(rng, QuotientRing(rng.choice(SELFTEST_RINGS)))
            res = free_resolution_over_r(m)
            d2, d3 = res.deltas[2:]
            n = d3.cols
            shears = (IntMatrix.from_rows([[int(r == c or (r, c) == (i, j)) for c in range(n)]
                                           for r in range(n)])
                      for i in range(n) for j in range(n) if i != j)
            a = next((a for a in shears if not (d3 @ a @ d2).is_zero()), None)
            if a is None:
                continue
            bad = self._replaced(res, 3, d3 @ a)
            first_stages = GreedyResolution(bad.ring, tuple(bad.rank(k) for k in range(5)),
                                            bad.augmentation, tuple(bad.delta(k) for k in range(4)))
            assert first_stages.verify_exact(m)
            assert not bad.verify_exact(m)
            caught += 1

    def test_an_augmentation_not_onto_m_is_not_exact(self):
        # The resolution of Z mapped into Z + Z/2 (t = 1 on both) is exact
        # at every F_k, but misses the Z/2 summand of M.
        z = z_trivial()
        m = RModule(ORDER2, IntMatrix.from_rows([[0], [2]]), IntMatrix.identity(2))
        res = free_resolution_over_r(z)
        assert res.verify_exact(z)
        into_m = IntMatrix.from_rows([list(res.augmentation.data[0]), [0] * res.augmentation.cols])
        assert not type(res)(res.ring, res.ranks, into_m, res.deltas).verify_exact(m)

    def test_verify_exact_solves_no_system_twice(self, monkeypatch):
        # One composite test and one kernel-span membership test per stage:
        # no decomposition is asked the same system twice, whether it
        # solves it or only tests it for membership.
        rng = random.Random(137)
        systems = []

        def counting(name):
            real = getattr(SmithDecomposition, name)

            def counted(self, b):
                systems.append((id(self), b))
                return real(self, b)
            return counted

        for _ in range(20):
            m = random_rmodule(rng, ORDER2)
            res = free_resolution_over_r(m)
            for name in ("solve", "contains"):
                monkeypatch.setattr(SmithDecomposition, name, counting(name))
            assert res.verify_exact(m)
            monkeypatch.undo()
        assert systems and len(set(systems)) == len(systems)

    def test_stage_exactness_matches_the_lift_oracle(self, monkeypatch):
        # Every pair verify_exact tests, on resolutions and on their copies
        # with one stored map doubled: is_exact_pair, which tests the second
        # map's kernel span for membership in the first map's image, answers
        # as lifting that map's kernel basis through the first does.
        answers = Counter()
        real = repmod.is_exact_pair

        def checked(f, g):
            answer = real(f, g)
            fresh = (GroupHom(h.source, h.target, h.matrix) for h in (f, g))
            assert answer == exact_by_lift(*fresh), (f.matrix, g.matrix)
            answers[answer] += 1
            return answer

        monkeypatch.setattr(repmod, "is_exact_pair", checked)
        for m, res in self._resolutions(179, nonzero=4):
            if isinstance(res, GreedyResolution):
                continue
            for stage in range(4):
                self._replaced(res, stage, res.deltas[stage].scale(2)).verify_exact(m)
        assert min(answers[True], answers[False]) >= 12, answers

    def test_a_nonzero_composite_is_not_exact_and_raises_nothing(self):
        # delta_1 replaced by a map whose first column is a nonzero column j
        # of delta_0: delta_0 delta_1 is then nonzero.
        for m, res in self._resolutions(167):
            d0, d1 = res.deltas[0], res.deltas[1]
            j = next(j for j in range(d0.cols) if any(d0.column(j)))
            bad = IntMatrix.from_rows([[int(i == j and c == 0) for c in range(d1.cols)]
                                       for i in range(d1.rows)])
            assert not (d0 @ bad).is_zero()
            assert not self._replaced(res, 1, bad).verify_exact(m)


class TestPeriodicResolution:
    RINGS = (ORDER2, cyclic_ring(3), cyclic_ring(4), QuotientRing((2, 0, 1)), QuotientRing((1, 1)))

    def test_matches_greedy_oracle(self, monkeypatch):
        # 60 random pairs, 12 per ring: the periodic resolution and the
        # greedy iterated-kernel one give the same Ext/Tor in degrees 0-9,
        # across the maps' repeat from degree 5 on.
        rng = random.Random(307)
        compared = 0
        for ring in self.RINGS:
            for _ in range(12):
                m, n = random_rmodule(rng, ring), random_rmodule(rng, ring)
                periodic = free_resolution_over_r(m)
                assert periodic.verify_exact(m)
                assert len({periodic.rank(k) for k in range(2, 13)}) == 1
                greedy = greedy_free_resolution(m, 10)
                # Unit cancellation keeps the periodic ranks down to the
                # greedy builder's on this stream (rank_Z(M1) alone is up
                # to deg p times more).
                assert periodic.rank(1) <= greedy.rank(1)
                assert periodic.rank(2) <= min(greedy.ranks[2:])
                values = []
                for res in (periodic, greedy):
                    monkeypatch.setattr(repmod, "free_resolution_over_r",
                                        lambda module, res=res: res)
                    values.append([(ext_over_r(m, n, k).canonical,
                                    tor_over_r(m, n, k).canonical) for k in range(10)])
                    monkeypatch.undo()
                assert values[0] == values[1], (ring, m.presentation, n.presentation)
                compared += 1
        assert compared == 60

    def test_units_cancel_down_to_rank_one_for_cyclic_groups(self):
        # The augmentation ideal of Z[C_n] has Z-rank n - 1, but after unit
        # cancellation the trivial module resolves in rank one at every
        # stage, like the classical (t - 1, norm element) resolution.
        for n in range(2, 7):
            m = z_trivial(cyclic_ring(n))
            res = free_resolution_over_r(m)
            assert [res.rank(k) for k in range(7)] == [1] * 7
            assert res.verify_exact(m)

    def test_free_syzygy_leaves_after_stage_one(self):
        # R/2R over Z[C_2] has the resolution 0 -> R --2--> R -> R/2R: its
        # first syzygy 2R is free, so every later rank is zero.
        m = RModule(ORDER2, IntMatrix.identity(2).scale(2), ORDER2.companion_matrix())
        res = free_resolution_over_r(m)
        assert [res.rank(k) for k in range(6)] == [1, 1, 0, 0, 0, 0]
        assert res.verify_exact(m)

    def test_one_z_block_per_distinct_entry(self, monkeypatch):
        # The blocks of a map over R are built once for each distinct entry:
        # a map's entries repeat (t - T1 is mostly constant), and so do
        # the entries of the N^rank maps of Ext/Tor.
        combined = []
        real_combine = repmod._combine
        monkeypatch.setattr(repmod, "_combine",
                            lambda x, powers: combined.append(x) or real_combine(x, powers))
        ring = cyclic_ring(3)
        one, zero, t = (1, 0, 0), (0, 0, 0), (0, 1, 0)
        entries = [[one, zero, t], [zero, one, t], [t, t, zero]]
        z = repmod._z_matrix(entries, 3, 3, ring.companion_powers)
        assert sorted(combined) == sorted({one, zero, t})
        expected = {x: real_combine(x, ring.companion_powers) for x in (one, zero, t)}
        assert z == IntMatrix.from_rows(
            [[v for x in row for v in expected[x].data[r]] for row in entries for r in range(3)])
        assert expected[zero].is_zero()

    def test_unit_cancellation_solves_only_for_the_pivots_it_cancels(self, monkeypatch):
        # Over Z[C_3], 1 + t and 1 + t^2 have norm 2; t is the one unit.
        # Cancelling it leaves the Schur complement -(1 + t^2), so one pass
        # tests three entries and solves once, for t^-1.
        solved = []
        real_solve = repmod.solve
        monkeypatch.setattr(repmod, "solve", lambda a, b: solved.append(b) or real_solve(a, b))
        ring = cyclic_ring(3)
        x = [[(1, 1, 0), (0, 1, 0)], [(1, 1, 0), (1, 1, 0)]]
        y = [[(0, 0, 0)] * 2] * 2
        x, y, outer = repmod._cancel_units(ring, x, y, [[(1, 0, 0), (0, 0, 1)]])
        assert x == [[(-1, 0, -1)]] and y == [[(0, 0, 0)]] and outer == [[(0, 0, 1)]]
        assert len(solved) == 1

    def test_unit_cancellation_tests_each_distinct_entry_once(self, monkeypatch):
        # A call remembers what the norm said of each entry, so an entry
        # that repeats, or that survives a cancellation into the next pass,
        # is tested once.
        rng = random.Random(317)
        tested, calls = [], []
        real_inverse, real_cancel = QuotientRing.inverse, repmod._cancel_units

        def counted(*args):
            tested.clear()
            out = real_cancel(*args)
            calls.append(list(tested))
            return out

        monkeypatch.setattr(QuotientRing, "inverse",
                            lambda ring, x: tested.append(x) or real_inverse(ring, x))
        monkeypatch.setattr(repmod, "_cancel_units", counted)
        for ring in self.RINGS:
            for _ in range(6):
                free_resolution_over_r(random_rmodule(rng, ring))
        assert any(len(entries) > 1 for entries in calls)
        assert all(len(set(entries)) == len(entries) for entries in calls)

    def test_maps_repeat_with_period_two(self):
        rng = random.Random(311)
        for ring in self.RINGS:
            m = random_rmodule(rng, ring)
            res = free_resolution_over_r(m)
            assert [res.delta(k) for k in range(2, 8)] == [res.deltas[2], res.deltas[3]] * 3
            assert (res.delta(10**18), res.delta(10**18 + 1)) == res.deltas[2:]
            # (t - T1) q(t, T1) = 0 over R, both ways round.
            assert (res.deltas[2] @ res.deltas[3]).is_zero()
            assert (res.deltas[3] @ res.deltas[2]).is_zero()

    def test_high_degrees_fold_onto_three_and_four(self):
        # From degree 5 on, Ext^n and Tor_n read the same ranks and maps as
        # degree n - 2, so they are the very groups (presentation and basis)
        # of degree 3 or 4; `ext_over_r` and `tor_over_r` give those groups,
        # at degree 10**18 too.
        rng = random.Random(313)
        for ring in self.RINGS:
            for _ in range(3):
                m, n = random_rmodule(rng, ring), random_rmodule(rng, ring)
                res = free_resolution_over_r(m)
                for hom_side, functor in ((True, ext_over_r), (False, tor_over_r)):
                    for degree in [*range(5, 13), 10**18]:
                        folded, *same = [repmod._r_homology(res, n, k, hom_side)
                                         for k in (3 + (degree - 3) % 2, degree - 2, degree)]
                        for direct in same + [functor(m, n, degree)]:
                            assert (direct.presentation, direct.basis) == \
                                (folded.presentation, folded.basis), (ring, degree)


class TestExtTorQuotient:
    def test_group_cohomology_pins(self):
        # Independent oracle: the hand-written periodic norm-element
        # resolution.  Ext^0..Ext^6 and Tor_0..Tor_2 of (Z, Z).
        z = z_trivial()
        for n in range(7):
            assert ext_over_r(z, z, n).canonical == cyclic_order2_ext_pin(n), n
        for n in range(3):
            assert tor_over_r(z, z, n).canonical == cyclic_order2_tor_pin(n), n

    def test_one_coefficient_group_per_rank(self, monkeypatch):
        # Ext and Tor read one coefficient complex: F_(n-1), F_n and F_(n+1),
        # with F_(-1) = 0, become N^rank, one group per distinct rank.
        built = []
        real_init = repmod.DirectSum.__init__
        monkeypatch.setattr(repmod.DirectSum, "__init__", lambda group, parts:
                            built.append(len(parts)) or real_init(group, parts))
        rng = random.Random(331)
        for ring in (ORDER2, cyclic_ring(3), QuotientRing((2, 0, 1))):
            m, n = random_rmodule(rng, ring), random_rmodule(rng, ring)
            res = free_resolution_over_r(m)
            ranks = [res.rank(k) for k in range(-1, 6)]
            for degree in range(5):
                for functor in (ext_over_r, tor_over_r):
                    built.clear()
                    functor(m, n, degree)
                    assert sorted(built) == sorted(set(ranks[degree:degree + 3])), (degree, ranks)

    @pytest.mark.parametrize("n", [3, 4])
    def test_cyclic_group_pins(self, n):
        # Independent oracle: the norm-element resolution of C_n.  Trivial
        # coefficients Z and Z/k, then the free module R itself, whose t
        # acts by the companion matrix on n generators.
        ring = cyclic_ring(n)
        z = z_trivial(ring)
        for k in (0, 2, 3, 6):
            a = z if k == 0 else RModule(ring, IntMatrix.from_rows([[k]]), ONE)
            for i in range(5):
                assert ext_over_r(z, a, i).canonical == cyclic_group_cohomology_pin(n, k, i), (k, i)
                assert tor_over_r(z, a, i).canonical == cyclic_group_homology_pin(n, k, i), (k, i)
        free = RModule(ring, IntMatrix.zero(n, 0), ring.companion_matrix())
        for i in range(5):
            assert ext_over_r(z, free, i).canonical == cyclic_group_free_coefficient_pin(i), i
            assert tor_over_r(z, free, i).canonical == cyclic_group_free_coefficient_pin(i), i

    def test_free_source(self):
        free = RModule(ORDER2, IntMatrix.zero(2, 0), ORDER2.companion_matrix())
        n = RModule(ORDER2, IntMatrix.from_rows([[3]]), ONE)
        assert ext_over_r(free, n, 0).canonical == (0, (3,))
        assert ext_over_r(free, n, 1).is_trivial()
        assert tor_over_r(free, n, 1).is_trivial()
        assert tor_over_r(free, n, 2).is_trivial()

    def test_ring_mismatch_rejected(self):
        with pytest.raises(InputError, match="different rings"):
            ext_over_r(z_trivial(ORDER2), z_trivial(TRIVIAL_RING), 0)
        with pytest.raises(InputError, match="different rings"):
            tor_over_r(z_trivial(ORDER2),
                       RModule(LAURENT, IntMatrix.zero(1, 0), ONE), 0)

    def test_degree_zero_against_equivariant_oracles(self):
        # Ext^0 must equal the t-equivariant Hom and Tor_0 the balanced
        # tensor product, both computed here without any resolution.
        rng = random.Random(233)
        from homkit.abgroups import GroupHom, tensor
        from homkit.intlinalg import IntMatrix as IM
        for ring in (ORDER2, QuotientRing((2, 0, 1)), QuotientRing((1, 1, 1))):
            for _ in range(4):
                m = random_rmodule(rng, ring)
                n = random_rmodule(rng, ring)
                hom_group = hom(m, n)
                cols = []
                for j in range(hom_group.ngens):
                    one_hot = tuple(1 if i == j else 0 for i in range(hom_group.ngens))
                    x = hom_group.to_matrix(hom_group.element(one_hot))
                    cols.append(hom_group.from_matrix(n.t_action @ x - x @ m.t_action).coords)
                endo = GroupHom(hom_group, hom_group, IM.from_columns(cols, rows=hom_group.ngens))
                assert is_isomorphic(ext_over_r(m, n, 0), endo.kernel_group())
                tens = tensor(m, n)
                balance = GroupHom(tens, tens,
                                   m.t_action.kron(IM.identity(n.ngens))
                                   - IM.identity(m.ngens).kron(n.t_action))
                assert is_isomorphic(tor_over_r(m, n, 0), balance.cokernel_group())

    def test_higher_degrees_on_random_modules(self):
        # Smoke the whole cochain/chain machinery at ranks > 1 and deg(p) > 1.
        rng = random.Random(239)
        for ring in (ORDER2, QuotientRing((2, 0, 1)), QuotientRing((-1, 0, 0, 1))):
            for _ in range(3):
                m = random_rmodule(rng, ring)
                n = random_rmodule(rng, ring)
                for degree in range(3):
                    ext_over_r(m, n, degree)
                    tor_over_r(m, n, degree)

    def test_dimension_shifting(self):
        # With K = ker(F0 -> M) the first syzygy, Ext^(n+1)(M, -) = Ext^n(K, -)
        # and Tor_(n+1)(M, -) = Tor_n(K, -) for n >= 1: the two sides run
        # through different resolutions, so this cross-checks all degrees.
        from homkit.intlinalg import preimage_gens, solve_matrix
        rng = random.Random(241)
        for ring in (ORDER2, QuotientRing((2, 0, 1))):
            for _ in range(3):
                m = random_rmodule(rng, ring)
                n = random_rmodule(rng, ring)
                res = free_resolution_over_r(m)
                t_block = IntMatrix.identity(res.rank(0)).kron(ring.companion_matrix())
                basis = preimage_gens(res.augmentation, m.presentation)
                t_k = solve_matrix(basis, t_block @ basis)
                syzygy = RModule(ring, IntMatrix.zero(basis.cols, 0), t_k)
                for degree in (1, 2):
                    assert is_isomorphic(ext_over_r(m, n, degree + 1),
                                         ext_over_r(syzygy, n, degree))
                    assert is_isomorphic(tor_over_r(m, n, degree + 1),
                                         tor_over_r(syzygy, n, degree))

    def test_degeneration_to_abelian_groups(self):
        # Over Z[t]/(t-1) with trivial action, Ext/Tor are the plain
        # abelian-group Hom/Ext/tensor/Tor of the underlying groups.
        rng = random.Random(137)
        for _ in range(6):
            a, b = random_group(rng, max_rank=1), random_group(rng, max_rank=1)
            ma = RModule(TRIVIAL_RING, a.presentation, IntMatrix.identity(a.ngens))
            mb = RModule(TRIVIAL_RING, b.presentation, IntMatrix.identity(b.ngens))
            assert is_isomorphic(ext_over_r(ma, mb, 0), hom(a, b))
            assert is_isomorphic(ext_over_r(ma, mb, 1), ext1(a, b))
            assert is_isomorphic(tor_over_r(ma, mb, 1), tor1(a, b))
            assert ext_over_r(ma, mb, 2).is_trivial()


class TestLaurent:
    def test_worked_example(self):
        m = RModule(LAURENT, IntMatrix.zero(1, 0), MINUS)
        n = RModule(LAURENT, IntMatrix.zero(1, 0), ONE)
        assert ext_over_r(m, n, 0).is_trivial()
        assert ext_over_r(m, n, 1).canonical == (0, (2,))
        assert tor_over_r(m, n, 0).canonical == (0, (2,))
        assert tor_over_r(m, n, 1).is_trivial()
        assert ext_over_r(m, n, 2).is_trivial()

    def test_z_relative_groups_on_a_torsion_module(self):
        # Laurent Ext/Tor are the Z-relative groups H^*(Z; Hom_Z(M, N)) and
        # H_*(Z; M (x) N).  For M = N = Z/2 with t = 1 these differ from Ext
        # and Tor over Z[t, 1/t], which are Z/2, (Z/2)^2, Z/2 in degrees 0-2
        # (Koszul resolution of R/(2, t - 1)).  Pinned: the current values.
        z2 = RModule(LAURENT, IntMatrix.from_rows([[2]]), ONE)
        for degree, expected in ((0, (0, (2,))), (1, (0, (2,))), (2, (0, ()))):
            assert ext_over_r(z2, z2, degree).canonical == expected, degree
            assert tor_over_r(z2, z2, degree).canonical == expected, degree

    def test_ext_matches_the_per_generator_twist(self):
        # u(X) = t_N X t_M^-1 as one product by ((t_M^-1)^T kron t_N) on
        # Hom's basis gives the groups, presentations and kernel bases of
        # the construction that twists one generator's matrix at a time.
        rng = random.Random(8_123)
        nontrivial = 0
        for _ in range(12):
            g, h = random_group(rng), random_group(rng)
            m = RModule(LAURENT, g.presentation, random_automorphism(rng, g))
            n = RModule(LAURENT, h.presentation, random_automorphism(rng, h))
            for degree in (0, 1):
                got, want = ext_over_r(m, n, degree), laurent_ext_by_generators(m, n, degree)
                assert got.presentation == want.presentation
                assert degree or got.basis == want.basis
                nontrivial += not got.is_trivial()
        assert nontrivial >= 6

    def test_tor_builds_the_tensor_product_only_below_degree_two(self, monkeypatch):
        # Tor is 0 from degree 2 on, so M (x) N, whose presentation is
        # quadratic in the ranks, is not built there.
        calls = []
        real_tensor = repmod.tensor

        def counted(a, b):
            calls.append((a, b))
            return real_tensor(a, b)

        monkeypatch.setattr(repmod, "tensor", counted)
        z2 = RModule(LAURENT, IntMatrix.from_rows([[2]]), ONE)
        for degree, expected in ((0, 1), (1, 1), (2, 0), (7, 0)):
            calls.clear()
            tor_over_r(z2, z2, degree)
            assert len(calls) == expected, degree

    def test_matches_hochschild(self):
        # For Laurent modules, Ext^0/Ext^1 agree with HH of Hom_Z(M, N) with
        # lambda = post-composition by t_N, rho = pre-composition by t_M.
        rng = random.Random(139)
        for _ in range(6):
            g = random_group(rng, max_rank=1)
            from homkit.randgen import random_automorphism
            tm = random_automorphism(rng, g)
            h = random_group(rng, max_rank=1)
            tn = random_automorphism(rng, h)
            m = RModule(LAURENT, g.presentation, tm)
            n = RModule(LAURENT, h.presentation, tn)
            hom_group = hom(g, h)
            lam_cols, rho_cols = [], []
            for j in range(hom_group.ngens):
                one_hot = tuple(1 if i == j else 0 for i in range(hom_group.ngens))
                x = hom_group.to_matrix(hom_group.element(one_hot))
                lam_cols.append(hom_group.from_matrix(tn @ x).coords)
                rho_cols.append(hom_group.from_matrix(x @ tm).coords)
            lam = IntMatrix.from_columns(lam_cols, rows=hom_group.ngens)
            rho = IntMatrix.from_columns(rho_cols, rows=hom_group.ngens)
            for degree, variant in ((0, "cohomology"), (1, "cohomology")):
                assert is_isomorphic(ext_over_r(m, n, degree),
                                     hh(hom_group, lam, rho, degree, variant))


class TestHochschild:
    def test_equal_automorphisms(self):
        g = FgAbGroup.cyclic(6)
        assert hh(g, ONE, ONE, 0).canonical == (0, (6,))
        assert hh(g, ONE, ONE, 1).canonical == (0, (6,))

    def test_sign_example(self):
        z = FgAbGroup.free(1)
        assert hh(z, ONE, MINUS, 0).canonical == (0, (2,))
        assert hh(z, ONE, MINUS, 1).is_trivial()
        assert hh(z, ONE, MINUS, 0, "cohomology").is_trivial()
        assert hh(z, ONE, MINUS, 1, "cohomology").canonical == (0, (2,))

    def test_vanishes_above_degree_one(self):
        rng = random.Random(149)
        for _ in range(10):
            g = random_group(rng)
            from homkit.randgen import random_automorphism
            lam = random_automorphism(rng, g)
            for n in (2, 3, 5):
                assert hh(g, lam, lam, n).is_trivial()
                assert hh(g, lam, lam, n, "cohomology").is_trivial()

    def test_rejects_bad_input(self):
        z2 = FgAbGroup.free(2)
        non_invertible = IntMatrix.from_rows([[2, 0], [0, 1]])
        with pytest.raises(InputError, match="^lambda and rho must be automorphisms$"):
            hh(z2, non_invertible, IntMatrix.identity(2), 0)
        a = IntMatrix.from_rows([[1, 1], [0, 1]])
        b = IntMatrix.from_rows([[1, 0], [1, 1]])
        with pytest.raises(InputError, match="^lambda and rho must commute$"):
            hh(z2, a, b, 0)
        with pytest.raises(InputError):
            hh(z2, IntMatrix.identity(2), IntMatrix.identity(2), 0, "badvariant")
        # The group is read off the maps, so they must all act on one group:
        # Z -> Z/2 is no endomorphism, and automorphisms of Z and of Z/3
        # act on different groups.
        z, z3 = FgAbGroup.free(1), FgAbGroup.cyclic(3)
        to_z2 = GroupHom(z, FgAbGroup.cyclic(2), ONE)
        for lam, rho in ((to_z2, endo(z, ONE)), (endo(z, ONE), to_z2),
                         (endo(z, ONE), endo(z3, ONE)), (endo(z3, ONE), endo(z, MINUS))):
            with pytest.raises(InputError, match="^lambda and rho must be endomorphisms"):
                hochschild(lam, rho, 0)

    def test_each_map_is_factored_once(self, monkeypatch):
        # Z + Z/2 + Z/4 with a random automorphism took 18 Smith forms when
        # inverse_matrix repeated the injectivity test of is_isomorphism.
        from homkit import abgroups, intlinalg
        from homkit.randgen import random_automorphism
        calls = []
        real_snf = intlinalg.snf

        def counted(a):
            calls.append(a)
            return real_snf(a)

        for module in (intlinalg, abgroups):
            monkeypatch.setattr(module, "snf", counted)
        rng = random.Random(5)
        for _ in range(5):
            g = FgAbGroup.from_invariants(1, (2, 4))
            lam = random_automorphism(rng, g)
            calls.clear()
            hh(g, lam, IntMatrix.identity(3), 0)
            assert len(calls) < 18


class TestPvSequence:
    def test_identity_automorphism(self):
        k = GradedAbGroup(FgAbGroup.from_invariants(1, (4,)), FgAbGroup.cyclic(3))
        rep = pv(k, IntMatrix.identity(2), IntMatrix.identity(1))
        assert is_isomorphic(rep.degree0.coker_end, k.odd)
        assert is_isomorphic(rep.degree0.ker_end, k.even)
        assert is_isomorphic(rep.degree1.coker_end, k.even)
        assert is_isomorphic(rep.degree1.ker_end, k.odd)

    def test_sign_flip_on_z(self):
        k = GradedAbGroup(FgAbGroup.free(1), FgAbGroup.trivial())
        rep = pv(k, MINUS, IntMatrix.zero(0, 0))
        assert rep.degree0.coker_end.is_trivial() and rep.degree0.ker_end.is_trivial()
        assert rep.degree1.coker_end.canonical == (0, (2,))
        assert rep.degree1.ker_end.is_trivial()

    def test_rejects_non_automorphism(self):
        k = GradedAbGroup(FgAbGroup.free(1), FgAbGroup.trivial())
        with pytest.raises(InputError, match="^alpha must be a graded automorphism$"):
            pv(k, IntMatrix.from_rows([[2]]), IntMatrix.zero(0, 0))
        # K_0 and K_1 are read off the maps: an isomorphism Z -> Z between
        # two presentations of Z is no automorphism of either.
        z, trivial = FgAbGroup.free(1), FgAbGroup.trivial()
        other_z = FgAbGroup(IntMatrix.from_rows([[1], [0]]))  # Z^2 / (e_0)
        iso = GroupHom(z, other_z, IntMatrix.from_rows([[0], [1]]))
        assert iso.is_isomorphism()
        for alpha_even, alpha_odd in ((iso, endo(trivial, IntMatrix.zero(0, 0))),
                                      (endo(z, MINUS), iso)):
            with pytest.raises(InputError, match="^alpha must be a graded automorphism$"):
                pv_sequence(alpha_even, alpha_odd)

    def test_random_exactness(self):
        rng = random.Random(151)
        for _ in range(15):
            k = random_graded_group(rng)
            ae, ao = random_graded_automorphism(rng, k)
            pv(k, ae, ao)  # raises InternalCheckError on failure

    def test_unimodular_on_mixed_group(self):
        k = GradedAbGroup(FgAbGroup.from_invariants(2, ()), FgAbGroup.cyclic(4))
        alpha = IntMatrix.from_rows([[1, 1], [0, 1]])
        rep = pv(k, alpha, IntMatrix.identity(1))
        # alpha - 1 on Z^2 has image Z (the first coordinate), kernel Z.
        assert rep.degree0.ker_end.canonical == (1, ())
        assert rep.degree1.coker_end.canonical == (1, ())
