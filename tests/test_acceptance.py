"""Acceptance suite: one test per criterion, every check exact.

Each test prints a single `[criterion N] PASS ...` line (run pytest with -s
to see them on success); any failure shows up as an ordinary assertion
failure with context.
"""

import random
import time

from homkit.abgroups import FgAbGroup, GroupHom, ext1, graded_ext_shifted, graded_hom, is_isomorphic
from homkit.intlinalg import IntMatrix, snf
from homkit.percomplex import (
    GradedAbGroup,
    homology,
    homotopy_classes,
    moore_complex,
    suspension,
    tensor_complex,
)
from homkit.randgen import (
    random_acyclic_complex,
    random_chain_map,
    random_complex,
    random_graded_automorphism,
    random_graded_group,
    random_group,
    random_matrix,
)
from homkit.relhom import (
    ideal_ext,
    kappa,
    kunneth_prediction,
    phantom_subgroup,
    uct_sequence,
)
from homkit.repmod import QuotientRing, RModule, ext_over_r, hochschild, pv_sequence, tor_over_r

from .oracles import (
    cone_triangle_is_exact,
    cyclic_order2_ext_pin,
    cyclic_order2_tor_pin,
    det_bareiss,
    determinantal_divisor_diagonal,
)


def report(n, text):
    print(f"[criterion {n}] PASS: {text}")


def test_criterion_1_uct_suite():
    """Rank and torsion bookkeeping of the UCT sequence on 200 random pairs."""
    rng = random.Random(10_001)
    started = time.perf_counter()
    for _ in range(200):
        a = random_complex(rng, max_rank=3, bound=3)
        b = random_complex(rng, max_rank=3, bound=3)
        for x in (a, b):  # the stated ensemble: ranks <= 3, entries in [-3, 3]
            assert x.even_rank <= 3 and x.odd_rank <= 3
            assert all(abs(v) <= 3 for row in x.d.data for v in row)
            assert all(abs(v) <= 3 for row in x.e.data for v in row)
        r = uct_sequence(a, b)  # raises InternalCheckError on any violation
        assert r.middle.rank == r.hom_part.rank
        assert r.middle.torsion_order() == r.ext_part.order() * r.hom_part.torsion_order()
        assert r.natural.is_surjective()
        assert is_isomorphic(r.kernel_group, r.ext_part)
    elapsed = time.perf_counter() - started
    assert elapsed < 60, f"UCT suite took {elapsed:.1f}s"
    report(1, f"200 UCT reports exact (natural map surjective, kernel = Ext part, "
              f"rank/torsion bookkeeping) in {elapsed:.1f}s")


def test_criterion_2_ext_transfer():
    """ideal_ext agrees with the graded Ext of homologies; vanishes at n >= 2."""
    rng = random.Random(10_002)
    for _ in range(100):
        a = random_complex(rng, max_rank=2, bound=3)
        b = random_complex(rng, max_rank=2, bound=3)
        ha, hb = homology(a), homology(b)
        assert is_isomorphic(ideal_ext(a, b, 0), graded_hom(ha, hb))
        assert is_isomorphic(ideal_ext(a, b, 1), graded_ext_shifted(ha, hb))
        assert ideal_ext(a, b, 2).is_trivial()
        assert ideal_ext(a, b, 3).is_trivial()
    report(2, "ideal_ext = graded Hom/Ext of homologies (n = 0, 1), zero for n = 2, 3; "
              "100 random pairs")


def test_criterion_3_kunneth_oracle():
    """Homology of a tensor product = tensor plus shifted Tor, exactly."""
    rng = random.Random(10_003)
    for _ in range(100):
        a = random_complex(rng, max_rank=2, bound=3)
        b = random_complex(rng, max_rank=2, bound=3)
        computed = homology(tensor_complex(a, b))
        predicted = kunneth_prediction(homology(a), homology(b))
        assert computed.is_isomorphic_to(predicted)
    report(3, "homology(A tensor B) matches the graded tensor + shifted Tor prediction; "
              "100 random pairs")


def test_criterion_4_extension_fixture():
    """ext1(Z/2, Z/2) = Z/2; kappa of the phantom realizing Z/2 -> Z/4 -> Z/2
    is its nonzero element."""
    z2 = FgAbGroup.cyclic(2)
    assert ext1(z2, z2).canonical == (0, (2,))
    m2 = moore_complex(GradedAbGroup(z2, FgAbGroup.trivial()))
    sm2 = suspension(m2)
    ph = phantom_subgroup(m2, sm2)
    assert ph.group.canonical == (0, (2,))
    gen = ph.generator_maps()[0]
    from homkit.percomplex import mapping_cone
    cone, _, _ = mapping_cone(gen)
    assert homology(cone).odd.canonical == (0, (4,)), "cone realizes the Z/4 extension"
    cls = kappa(gen)
    assert cls.owner.canonical == (0, (2,))
    assert not cls.is_zero()
    report(4, "ext1(Z/2, Z/2) = Z/2 and kappa(phantom generator) is the nonzero class")


def test_criterion_5_pv_exactness_and_hh_vanishing():
    """Six-term exactness for 100 random (K, alpha); HH_n = 0 for n >= 2."""
    rng = random.Random(10_005)
    for _ in range(100):
        k = random_graded_group(rng)
        alpha_even, alpha_odd = random_graded_automorphism(rng, k)
        # pv_sequence verifies all six nodes exactly.
        pv_sequence(GroupHom(k.even, k.even, alpha_even), GroupHom(k.odd, k.odd, alpha_odd))
    for _ in range(30):
        g = random_group(rng)
        from homkit.randgen import random_automorphism
        lam = random_automorphism(rng, g)
        # rho must commute with lam: draw it from powers of lam and -1.
        rho = rng.choice([IntMatrix.identity(g.ngens), lam, lam @ lam,
                          IntMatrix.identity(g.ngens).scale(-1)])
        lam, rho = GroupHom(g, g, lam), GroupHom(g, g, rho)
        for n in (2, 3, 4):
            assert hochschild(lam, rho, n).is_trivial()
            assert hochschild(lam, rho, n, "cohomology").is_trivial()
    report(5, "100 PV six-term sequences exact at all nodes; HH vanishes above degree 1")


def test_criterion_6_group_cohomology_pins():
    """Ext^0..Ext^4 and Tor_1 of (Z, Z) over Z[t]/(t^2-1), against the
    independent norm-element resolution oracle."""
    ring = QuotientRing((-1, 0, 1))
    z = RModule(ring, IntMatrix.zero(1, 0), IntMatrix.identity(1))
    expected = [cyclic_order2_ext_pin(n) for n in range(5)]
    assert expected == [(1, ()), (0, ()), (0, (2,)), (0, ()), (0, (2,))]
    for n in range(5):
        assert ext_over_r(z, z, n).canonical == expected[n], f"Ext^{n}"
    assert tor_over_r(z, z, 1).canonical == cyclic_order2_tor_pin(1) == (0, (2,))
    report(6, "Ext^0..Ext^4(Z, Z) = Z, 0, Z/2, 0, Z/2 and Tor_1 = Z/2 over Z[t]/(t^2-1)")


def test_criterion_7_model_soundness():
    """Acyclic complexes are contractible; cone triangles have exact
    6-periodic homology sequences; 200 instances total."""
    rng = random.Random(10_007)
    for _ in range(100):
        x = random_acyclic_complex(rng)
        h = homology(x)
        assert h.even.is_trivial() and h.odd.is_trivial()
        assert homotopy_classes(x, x).is_trivial()
    for _ in range(100):
        a = random_complex(rng, max_rank=2, bound=3)
        b = random_complex(rng, max_rank=2, bound=3)
        f = random_chain_map(rng, a, b)
        assert cone_triangle_is_exact(f)
    report(7, "100 acyclic complexes have [X, X] = 0; 100 cone triangles give exact "
              "6-periodic homology sequences")


def test_criterion_8_linear_algebra_kernel():
    """SNF identities on 1000 random matrices; determinantal-divisor
    cross-check up to 4x4."""
    rng = random.Random(10_008)
    started = time.perf_counter()
    for _ in range(1000):
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        a = random_matrix(rng, rows, cols, bound=9)
        dec = snf(a)
        assert dec.u @ a @ dec.v == dec.s
        assert abs(det_bareiss([list(r) for r in dec.u.data])) == 1
        assert abs(det_bareiss([list(r) for r in dec.v.data])) == 1
        diag = dec.diagonal
        nonzero = [d for d in diag if d]
        assert all(d >= 0 for d in diag)
        assert diag[:len(nonzero)] == tuple(nonzero)
        assert all(y % x == 0 for x, y in zip(nonzero, nonzero[1:]))
        if rows and cols and rows <= 4 and cols <= 4:
            oracle = determinantal_divisor_diagonal([list(r) for r in a.data])
            assert list(diag) == oracle
    elapsed = time.perf_counter() - started
    assert elapsed < 30, f"SNF suite took {elapsed:.1f}s"
    report(8, f"1000 SNF decompositions exact (identities, unimodularity, divisibility, "
              f"oracle cross-check) in {elapsed:.1f}s")
