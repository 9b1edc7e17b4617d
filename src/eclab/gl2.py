"""Class counts in GL2(Z/n): enumeration, closed forms, lifting, density bounds.

C_r(n) is the set of invertible 2x2 matrices g over Z/n with
det(g) + 1 - tr(g) = r (mod n). Everything here is exact. Enumeration
writes g - I = [[x, b], [c, y]], so that r = xy - bc, counts the pairs
(x, y) by sum and product, and keeps the matrices with a unit determinant
by a Moebius sum over the squarefree divisors of n. Predictions are
integers; densities and bounds are Fractions.

`prime_class_counts` is the one home of the closed forms at a prime ell:
|C_0(ell)|, |C_1(ell)|, the other |C_r(ell)| and |GL2(F_ell)|. The sieve
weight w(ell) = ell * |C_0(ell)| / |GL2(F_ell)| is read from it too, since
C_0(ell) holds exactly the Frobenius classes with ell | n(p).
"""
from __future__ import annotations

from operator import mul
from typing import TYPE_CHECKING, NamedTuple

from .arith import euler_phi, factorize, is_prime

if TYPE_CHECKING:
    from fractions import Fraction

# The cap bounds time: enumeration at n takes about n^2 steps per squarefree
# divisor of n, and the sweep of every n <= 64 takes about 40 ms.
ENUMERATION_CAP = 64


class EnumerationLimitError(ValueError):
    """Modulus too large for exact enumeration."""


class ClassCountTable(NamedTuple):
    group_order: int  # sum of all class counts, i.e. |GL2(Z/n)|
    counts: tuple[int, ...]  # counts[r] = |C_r(n)|


def prime_class_counts(ell: int) -> tuple[int, int, int, int]:
    """(|C_0(ell)|, |C_1(ell)|, |C_r(ell)| for r != 0, 1, |GL2(F_ell)|).

    Unchecked: ell must be prime. Index min(r % ell, 2) picks |C_r(ell)|.
    """
    sq = ell * ell
    return (ell * (sq - 2), ell * (sq - ell - 1), ell * (sq - ell - 2),
            (sq - 1) * (sq - ell))


def gl2_order(n: int) -> int:
    """|GL2(Z/n)| from the prime-power closed form, multiplicatively."""
    if n < 1:
        raise ValueError("modulus must be >= 1")
    order = 1
    for ell, k in factorize(n).items():
        order *= ell ** (4 * (k - 1)) * prime_class_counts(ell)[3]
    return order


def class_count_table(n: int) -> ClassCountTable:
    """Exact |C_r(n)| for every r, by enumeration.

    With g = [[1 + x, b], [c, 1 + y]], r = xy - bc and det g = r + s + 1
    for s = x + y. One pass over the pairs x <= y fills
    ps[s][q] = #{(x, y) : x + y = s, xy = q}, and its column sums are
    bc[w] = #{(b, c) : bc = w}. The sum of mu(d) over the squarefree d | n
    that divide det g is 1 when det g is a unit and 0 otherwise, so
    |C_r(n)| = sum_d mu(d) * sum_q rows_d[(-r - 1) mod d][q] * bc[q - r],
    where rows_d[t] sums the rows ps[s] with s = t (mod d), and all indices
    are mod n. Every invertible matrix is counted exactly once; no closed
    form enters.
    """
    if n < 2:
        raise ValueError("modulus must be >= 2")
    if n > ENUMERATION_CAP:
        raise EnumerationLimitError(f"enumeration capped at modulus {ENUMERATION_CAP}")
    ps = [[0] * n for _ in range(n)]
    for x in range(n):
        ps[2 * x % n][x * x % n] += 1
        for y in range(x + 1, n):
            ps[(x + y) % n][x * y % n] += 2
    bc = [sum(col) for col in zip(*ps)]
    mobius = [(1, 1)]
    for ell in factorize(n):
        mobius += [(d * ell, -mu) for d, mu in mobius]
    sums = [(d, mu, [[sum(col) for col in zip(*ps[t::d])] for t in range(d)])
            for d, mu in mobius]
    counts = []
    for r in range(n):
        shifted = bc[n - r:] + bc[:n - r]
        counts.append(sum(mu * sum(map(mul, rows[(-r - 1) % d], shifted))
                          for d, mu, rows in sums))
    return ClassCountTable(sum(counts), tuple(counts))


def class_count_formula(ell: int, r: int) -> int:
    """Closed form for |C_r(ell)| at a prime ell."""
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    return prime_class_counts(ell)[min(r % ell, 2)]


def class_density(ell: int, r: int) -> Fraction:
    """|C_r(ell)| / |GL2(F_ell)| as an exact rational."""
    from fractions import Fraction

    return Fraction(class_count_formula(ell, r), prime_class_counts(ell)[3])


def predicted_class_count(n: int, r: int) -> int | None:
    """Exact predicted |C_r(n)| from closed forms, the lifting law, and CRT
    multiplicativity; None when some prime-power component has no closed form
    (k >= 2 with the component residue divisible by ell)."""
    if n < 2:
        raise ValueError("modulus must be >= 2")
    total = 1
    for ell, k in factorize(n).items():
        r_ell = r % ell
        if k > 1 and r_ell == 0:
            return None
        total *= ell ** (3 * (k - 1)) * prime_class_counts(ell)[min(r_ell, 2)]
    return total


def identity_lift_count(ell: int, k: int, r: int) -> int:
    """|{g in GL2(Z/ell^k) : g = I (mod ell), det(g) + 1 - tr(g) = r}| by
    enumeration of the ell^(4(k-1)) lifts of the identity."""
    q = ell**k
    step = ell ** (k - 1)
    r %= q
    count = 0
    for k1 in range(step):
        for k4 in range(step):
            diag = (1 + ell * k1) * (1 + ell * k4)
            base = diag + 1 - (2 + ell * (k1 + k4))
            for k2 in range(step):
                e2 = ell * ell * k2
                for k3 in range(step):
                    if (base - e2 * k3) % q == r:
                        count += 1
    return count


def identity_lift_bound(ell: int, k: int) -> Fraction:
    """Nominal ceiling for identity_lift_count: ell^(3(k-1)+1) * ell^3/(ell^3-1).

    Valid for k = 2 (where the count is exactly ell^4 for r = 0 mod ell^2 and
    0 otherwise). For k >= 3 the true count can exceed it: at (3, 3, 0) the
    enumeration gives 2673 against a ceiling of 59049/26 = 2271.1. The density
    inequalities in ratio_bounds_check stay valid regardless, because they
    only need the slack form ell^(3(k-1)) * (1 + ell^4/(ell^3-1)).
    """
    from fractions import Fraction

    return Fraction(ell ** (3 * (k - 1) + 1) * ell**3, ell**3 - 1)


class RatioBounds(NamedTuple):
    ell: int
    k: int
    r: int
    ratio: Fraction  # |C_r(ell^k)| / |GL2(Z/ell^k)|
    lower: Fraction
    upper: Fraction
    ok: bool


def ratio_bounds_check(ell: int, k: int, r: int) -> RatioBounds:
    """Two-sided density bounds for |C_r(ell^k)| / |GL2|, exact rationals.

    Lower bound (all r): (1/phi(ell^k)) * (ell-2)/(ell-1). Upper bound:
    1/phi(ell^k) for unit r, enlarged by 1 + 1/((ell^3-1)(ell^2-1)) when
    ell | r.
    """
    if not is_prime(ell) or k < 1:
        raise ValueError("need a prime ell and k >= 1")
    from fractions import Fraction

    q = ell**k
    table = class_count_table(q)
    ratio = Fraction(table.counts[r % q], gl2_order(q))
    phi = euler_phi(q)
    lower = Fraction(ell - 2, ell - 1) / phi
    if r % ell != 0:
        upper = Fraction(1, phi)
    else:
        upper = Fraction(1, phi) * (1 + Fraction(1, (ell**3 - 1) * (ell * ell - 1)))
    return RatioBounds(ell, k, r, ratio, lower, upper, lower <= ratio <= upper)
