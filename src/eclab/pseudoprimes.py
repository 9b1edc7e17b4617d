"""Fermat pseudoprimality and multiplicative-order statistics.

The default Fermat test is b^n = b (mod n), which every prime passes for
every base; the strict variant b^(n-1) = 1 (mod n) is available everywhere
a base test is taken but changes the bookkeeping for primes dividing b.
"""
from __future__ import annotations

import math
from array import array
from collections import Counter
from itertools import compress, islice
from operator import not_
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

from .arith import carmichael_lambda, factorize, is_prime, lambda_from_factors
from .primes import primes_up_to

if TYPE_CHECKING:
    from fractions import Fraction


class NoCrtSolutionError(ValueError):
    """The modulus and the order share a factor; the residue system is unsolvable."""


# The verdict byte of a group order n: one bit per fact, each computed from
# its own definition.
FERMAT_BIT = 1  # n passes the Fermat test
PRIME_BIT = 2  # n is prime
PSEUDO_BIT = 4  # n passes, is composite and is not 1

# smallest_prime_factors tables end below this: two-byte items hold isqrt(limit)
SPF_LIMIT = 1 << 32


def fermat_holds(b: int, n: int, strict: bool = False) -> bool:
    """Whether n passes the base-b Fermat test.

    Default: b^n = b (mod n). Strict: b^(n-1) = 1 (mod n). n = 1 passes both
    (every congruence holds mod 1).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if b < 2:
        raise ValueError("base must be >= 2")
    if strict:
        return pow(b, n - 1, n) == 1 % n
    return pow(b, n, n) == b % n


def classify(b: int, n: int, strict: bool = False) -> int:
    """The verdict byte of n at base b. n = 1 is neither prime nor pseudoprime."""
    f = fermat_holds(b, n, strict)
    pr = is_prime(n)
    return FERMAT_BIT * f | PRIME_BIT * pr | PSEUDO_BIT * (f and not pr and n != 1)


def multiplicative_order(b: int, d: int) -> int:
    """Order of b in (Z/d)^*.

    Computed by stripping prime factors from the group exponent lambda(d);
    if d resists factoring, falls back to an incremental power scan.
    """
    if d < 1:
        raise ValueError("modulus must be >= 1")
    if math.gcd(b, d) != 1:
        raise ValueError(f"gcd({b}, {d}) != 1, order undefined")
    if d == 1:
        return 1
    try:
        lam = carmichael_lambda(d)
    except ArithmeticError:
        return _order_scan(b, d)
    return _order_dividing(b, d, lam, factorize(lam))


def prime_order(b: int, ell: int) -> int:
    """ord_ell(b) for a prime ell not dividing b.

    lambda(ell) = ell - 1, so only ell - 1 is factored; ell itself is not
    re-proved prime (the caller already knows it is).
    """
    return _order_dividing(b, ell, ell - 1, factorize(ell - 1))


def _order_dividing(b: int, d: int, lam: int, primes: Iterable[int]) -> int:
    """Order of b mod d, given a multiple lam of it and the primes of lam."""
    m = lam
    for q in primes:
        while m % q == 0 and pow(b, m // q, d) == 1:
            m //= q
    return m


def _order_scan(b: int, d: int) -> int:
    acc = b % d
    k = 1
    while acc != 1:
        acc = acc * b % d
        k += 1
    return k


def crt_residue(b: int, d: int) -> int:
    """The unique r in {1, ..., d*ord_d(b)} with r = 0 (mod d), r = 1 (mod ord_d(b)).

    Solvable exactly when gcd(d, ord_d(b)) = 1.
    """
    o = multiplicative_order(b, d)
    if math.gcd(d, o) != 1:
        raise NoCrtSolutionError(f"gcd(d={d}, ord={o}) > 1")
    r = d * pow(d, -1, o) % (d * o)
    return r if r else d * o


def smallest_prime_factors(limit: int) -> array:
    """Smallest-prime-factor table over 0..limit: entry n is the smallest
    prime factor of a composite n, and 0 for primes, 0 and 1.

    Every stored value is at most isqrt(limit), so two-byte items hold it
    for every limit below SPF_LIMIT.
    """
    if not 0 <= limit < SPF_LIMIT:
        raise ValueError(f"SPF table limit must be in [0, 2^32), got {limit}")
    # 2 at every even entry but 0 and 2, 0 at every odd one
    spf = array("H", [2, 0]) * (limit // 2 + 1)
    del spf[limit + 1 :]
    spf[0] = 0
    if limit >= 2:
        spf[2] = 0
    # Odd multiples of the odd primes, largest prime first, so each odd
    # composite ends up holding its smallest; the largest slice (p = 3)
    # is a sixth of the table.
    for p in reversed(primes_up_to(math.isqrt(limit))[1:]):
        start = p * p
        spf[start :: 2 * p] = array("H", [p]) * len(range(start, limit + 1, 2 * p))
    return spf


def _factor_with(n: int, spf: array) -> dict[int, int]:
    """{prime: exponent} of 1 <= n < len(spf), ascending, read off the table."""
    out: dict[int, int] = {}
    while n > 1:
        q = spf[n] or n
        out[q] = out.get(q, 0) + 1
        n //= q
    return out


def iter_prime_orders(b: int, lo: float, hi: int) -> Iterator[tuple[int, int]]:
    """(ell, ord_ell(b)) over primes ell in [lo, hi]; primes dividing b are
    skipped.

    One SPF table up to hi finds the primes and factors every ell - 1; an
    empty range builds none. The first q = 2 step is Euler's criterion,
    b^((ell-1)/2) = 1 exactly when (b|ell) = 1, and by quadratic reciprocity
    (b|ell) depends only on ell mod 4b, so it is read from a table keyed by
    ell mod 4b that one `pow` at the first prime of each residue fills.
    """
    lo = max(math.ceil(lo), 2)
    if hi < lo:
        return
    yield from _prime_orders(b, lo, hi, smallest_prime_factors(hi))


def _prime_orders(b: int, lo: int, hi: int, spf: array) -> Iterator[tuple[int, int]]:
    """iter_prime_orders over 2 <= lo <= ell <= hi < len(spf), from the table spf."""
    if lo == 2 and b % 2:
        yield 2, 1
    period = 4 * abs(b)
    # 0 until the residue is met, then 1 + (b|ell): 1 for a non-residue, 2
    # for a residue; ell <= hi, so hi + 1 items cover every residue met
    symbols = bytearray(min(period, hi + 1))
    first = lo | 1
    for ell in compress(range(first, hi + 1, 2), map(not_, islice(spf, first, None, 2))):
        if b % ell == 0:
            continue
        m = ell - 1
        n = m // (m & -m)  # the odd part of ell - 1
        r = ell % period
        s = symbols[r]
        if not s:
            s = symbols[r] = 1 + (pow(b, m >> 1, ell) == 1)
        if s == 2:
            m >>= 1
            while not m & 1 and pow(b, m >> 1, ell) == 1:
                m >>= 1
        while n > 1:
            q = spf[n] or n
            while m % q == 0 and pow(b, m // q, ell) == 1:
                m //= q
            n //= q
            while n % q == 0:
                n //= q
        yield ell, m


def _count_orders(orders: Iterable[int]) -> dict[int, int]:
    return dict(sorted(Counter(orders).items()))


def _inverse_sum(pairs: Iterable[tuple[int, int]]) -> float:
    return math.fsum(1.0 / (ell * m) for ell, m in pairs)


def order_census(b: int, t: int) -> dict[int, int]:
    """How many primes ell <= t (coprime to b) have each order m = ord_ell(b)."""
    return _count_orders(m for _, m in iter_prime_orders(b, 2, t))


def nord_bound(b: int, m: int) -> float:
    """Ceiling for the number of primes with ord_ell(b) = m: each divides
    b^m - 1, so there are at most log(b)/log(2) * m of them."""
    return math.log(b) / math.log(2) * m


def tail_sum(b: int, t: float, cap: int) -> float:
    """sum 1/(ell * ord_ell(b)) over primes t <= ell <= cap coprime to b."""
    return _inverse_sum(iter_prime_orders(b, t, cap))


def product_tail_sum(b: int, t: float, cap: int) -> float:
    """sum 1/(ell * ord_ell(b)) over primes ell <= cap with ell*ord_ell(b) >= t."""
    return _inverse_sum(
        (ell, m) for ell, m in iter_prime_orders(b, 2, cap) if ell * m >= t
    )


class OrderStats(NamedTuple):
    """The prime-order figures `order-stats` reports, from one pass."""

    census: dict[int, int]  # order_census(b, t)
    tail_sum: float  # tail_sum(b, t, cap)
    product_tail_sum: float  # product_tail_sum(b, t, cap)


def order_stats(b: int, t: int, cap: int) -> OrderStats:
    """order_census(b, t), tail_sum(b, t, cap) and product_tail_sum(b, t, cap)
    from one pass over the primes up to cap, kept as two compact columns."""
    if cap < t:
        raise ValueError(f"need t <= cap, got t={t} cap={cap}")
    ells, orders = array("I"), array("I")
    for ell, m in iter_prime_orders(b, 2, cap):
        ells.append(ell)
        orders.append(m)
    return OrderStats(
        _count_orders(m for ell, m in zip(ells, orders) if ell <= t),
        _inverse_sum((ell, m) for ell, m in zip(ells, orders) if ell >= t),
        _inverse_sum((ell, m) for ell, m in zip(ells, orders) if ell * m >= t),
    )


def pomerance_scale(x: float) -> float:
    """L(x) = exp(log x * logloglog x / loglog x), clamped to 1 for x <= e^e."""
    if x <= math.exp(math.e):
        return 1.0
    lx = math.log(x)
    llx = math.log(lx)
    return math.exp(lx * math.log(llx) / llx)


def _iter_modulus_orders(b: int, t: int) -> Iterator[int]:
    """ord_d(b) for every 2 <= d <= t coprime to b; d and lambda(d) are
    factored from one SPF table up to t."""
    if t < 2:
        return
    spf = smallest_prime_factors(t)
    for d in range(2, t + 1):
        if math.gcd(b, d) == 1:
            lam = lambda_from_factors(_factor_with(d, spf))
            yield _order_dividing(b, d, lam, _factor_with(lam, spf))


def count_by_order(b: int, t: int, m: int) -> int:
    """|{2 <= d <= t : gcd(d, b) = 1 and ord_d(b) = m}| by exact scan."""
    return sum(1 for o in _iter_modulus_orders(b, t) if o == m)


class OrderLevelReport(NamedTuple):
    """Counts of moduli d <= t at each order level, with the t/sqrt(L(t))
    comparison flagged (never fatal: the threshold where it must hold is
    not effective at desk scale)."""

    t: int
    base: int
    threshold: float  # t / sqrt(L(t))
    levels: dict[int, int]  # m -> count
    flagged: dict[int, int]  # levels whose count exceeds the threshold


def order_level_report(b: int, t: int) -> OrderLevelReport:
    """How many 2 <= d <= t coprime to b have each order ord_d(b), flagged
    against t/sqrt(L(t)).

    By the CRT, ord_d(b) is the lcm of ord_{q^e}(b) over the prime powers
    q^e exactly dividing d. ord_q(b) comes from the prime pass, and
    ord_{q^e}(b) for e >= 2 is o or q*o with o = ord_{q^(e-1)}(b), since
    b^o = 1 + k*q^(e-1) has q-th power 1 (mod q^e). Every ord_d(b) is held
    in one array, filled in increasing d, with 0 where gcd(b, d) > 1.
    """
    levels = _count_orders(filter(None, _modulus_orders(b, t))) if t >= 2 else {}
    threshold = t / math.sqrt(pomerance_scale(t))
    flagged = {m: c for m, c in levels.items() if c > threshold}
    return OrderLevelReport(t, b, threshold, levels, flagged)


def _modulus_orders(b: int, t: int) -> array:
    """Item d is ord_d(b) for 2 <= d <= t coprime to b, else 0; t >= 2."""
    spf = smallest_prime_factors(t)
    orders = array("I", [0]) * (t + 1)
    for q, o in _prime_orders(b, 2, t, spf):
        orders[q] = o
    for d in range(4, t + 1):
        q = spf[d]
        if not q:
            continue
        n, qe = d // q, q
        while n % q == 0:
            n //= q
            qe *= q
        if n > 1:
            orders[d] = math.lcm(orders[qe], orders[n])
        elif o := orders[d // q]:  # d = q^e with e >= 2
            orders[d] = _order_dividing(b, d, q * o, (q,))
    return orders


def pseudoprimes_below(b: int, limit: int) -> list[int]:
    """Base-b Fermat pseudoprimes below limit, regenerated by direct scan."""
    return [n for n in range(2, limit) if classify(b, n) & PSEUDO_BIT]


def tail_sum_exact(b: int, t: float, cap: int) -> Fraction:
    """Exact rational tail sum, e.g. tail_sum_exact(2, 3, 7) = 1/6 + 1/20 + 1/21."""
    from fractions import Fraction

    return sum((Fraction(1, ell * m) for ell, m in iter_prime_orders(b, t, cap)), Fraction(0))
