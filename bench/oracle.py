"""Closed forms the output checks compare against.

Nothing here calls homkit.  Smith diagonals come from a plain gcd
elimination with its own pivot rule, groups are handled as lists of cyclic
orders (0 standing for Z), and the Hom/Ext/tensor/Tor and cyclic-group
(co)homology values are the textbook closed forms.
"""

from __future__ import annotations

from math import gcd

Canonical = tuple[int, tuple[int, ...]]


def smith_diagonal(rows: list[list[int]]) -> list[int]:
    """Nonzero Smith invariants of an integer matrix, in divisibility order."""
    a = [list(r) for r in rows]
    diag: list[int] = []
    while a and a[0]:
        nz = [(abs(x), i, j) for i, r in enumerate(a) for j, x in enumerate(r) if x]
        if not nz:
            break
        _, pi, pj = min(nz)
        a[0], a[pi] = a[pi], a[0]
        for r in a:
            r[0], r[pj] = r[pj], r[0]
        p = a[0][0]
        reduced = True
        for i in range(1, len(a)):
            q = a[i][0] // p
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[0])]
            reduced = reduced and a[i][0] == 0
        for j in range(1, len(a[0])):
            q = a[0][j] // p
            if q:
                for r in a:
                    r[j] -= q * r[0]
            reduced = reduced and a[0][j] == 0
        if not reduced:
            continue
        if any(x % p for r in a[1:] for x in r[1:]):
            bad = next(i for i in range(1, len(a)) if any(x % p for x in a[i][1:]))
            a[0] = [x + y for x, y in zip(a[0], a[bad])]
            continue
        diag.append(abs(p))
        a = [r[1:] for r in a[1:]]
    return diag


def canonical(orders: list[int]) -> Canonical:
    """(rank, invariant factors) of a direct sum of cyclic groups Z/n (n = 0: Z)."""
    rank = sum(1 for n in orders if n == 0)
    by_prime: dict[int, list[int]] = {}
    for n in orders:
        p = 2
        while n > 1:
            if p * p > n:
                p = n
            if n % p == 0:
                q = 1
                while n % p == 0:
                    n //= p
                    q *= p
                by_prime.setdefault(p, []).append(q)
            p += 1
    width = max((len(v) for v in by_prime.values()), default=0)
    factors = [1] * width
    for powers in by_prime.values():
        powers.sort(reverse=True)
        for i, q in enumerate(powers):
            factors[width - 1 - i] *= q
    return rank, tuple(factors)


def cyclic_orders(group: Canonical) -> list[int]:
    rank, torsion = group
    return [0] * rank + list(torsion)


def _cyc_gcd(a: int, b: int) -> int:
    """Order of Z/a tensor Z/b (0 = Z), as a cyclic order."""
    return gcd(a, b) if a and b else (a or b)


def hom(a: Canonical, b: Canonical) -> Canonical:
    out = []
    for x in cyclic_orders(a):
        for y in cyclic_orders(b):
            if x == 0:
                out.append(y)
            elif y:
                out.append(gcd(x, y))
    return canonical(out)


def ext1(a: Canonical, b: Canonical) -> Canonical:
    return canonical([_cyc_gcd(x, y) for x in cyclic_orders(a) if x
                      for y in cyclic_orders(b)])


def tensor(a: Canonical, b: Canonical) -> Canonical:
    return canonical([_cyc_gcd(x, y) for x in cyclic_orders(a) for y in cyclic_orders(b)])


def tor1(a: Canonical, b: Canonical) -> Canonical:
    return canonical([gcd(x, y) for x in cyclic_orders(a) if x
                      for y in cyclic_orders(b) if y])


def direct_sum(*groups: Canonical) -> Canonical:
    return canonical([n for g in groups for n in cyclic_orders(g)])


def order(group: Canonical) -> int:
    out = 1
    for d in group[1]:
        out *= d
    return out


def complex_homology(even_rank: int, odd_rank: int, d: list[list[int]],
                     e: list[list[int]]) -> tuple[Canonical, Canonical]:
    """(H_even, H_odd) of a 2-periodic complex, D: even -> odd, E: odd -> even.

    Kernels are saturated, so H_even = Z^(n0 - rk D - rk E) plus the torsion
    of coker E, and symmetrically for H_odd.
    """
    sd, se = smith_diagonal(d), smith_diagonal(e)
    h0 = (even_rank - len(sd) - len(se), tuple(x for x in se if x > 1))
    h1 = (odd_rank - len(sd) - len(se), tuple(x for x in sd if x > 1))
    return h0, h1


def cyclic_cohomology(q: int, coeff: int, degree: int, homology: bool) -> Canonical:
    """H^degree (or H_degree if `homology`) of the cyclic group of order q
    with trivial coefficients Z/coeff (coeff = 0: Z)."""
    if degree == 0:
        return canonical([coeff])
    # Odd cohomology and even homology are the q-torsion of the coefficients;
    # the other parity is the coefficients modulo q.
    torsion_part = (degree % 2 == 1) != homology
    if coeff == 0:
        return canonical([] if torsion_part else [q])
    return canonical([gcd(q, coeff)])


def determinant(rows: list[list[int]]) -> int:
    """Exact determinant by fraction-free Bareiss elimination."""
    n = len(rows)
    m = [list(r) for r in rows]
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[-1][-1] if n else 1


def matmul(a: list[list[int]], b: list[list[int]], cols: int) -> list[list[int]]:
    """a @ b, where b has `cols` columns (it may have no rows)."""
    return [[sum(x * b[k][j] for k, x in enumerate(row)) for j in range(cols)] for row in a]


def cokernel(rows: list[list[int]], nrows: int) -> Canonical:
    """coker of a presentation matrix with nrows generators."""
    diag = smith_diagonal(rows)
    return nrows - len(diag), tuple(d for d in diag if d > 1)
