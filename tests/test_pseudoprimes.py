"""Fermat classification, orders, and tail sums vs scan oracles."""
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

import eclab.arith as arith
import eclab.pseudoprimes as pseudoprimes
from eclab.arith import factorize
from eclab.pseudoprimes import (
    FERMAT_BIT,
    PRIME_BIT,
    PSEUDO_BIT,
    classify,
    fermat_holds,
    iter_prime_orders,
    multiplicative_order,
    nord_bound,
    order_census,
    order_level_report,
    order_stats,
    pomerance_scale,
    product_tail_sum,
    pseudoprimes_below,
    smallest_prime_factors,
    tail_sum,
)


def tail_sum_exact(b: int, t: float, cap: int) -> Fraction:
    """Exact rational tail sum, e.g. tail_sum_exact(2, 3, 7) = 1/6 + 1/20 + 1/21."""
    return sum((Fraction(1, ell * m) for ell, m in iter_prime_orders(b, t, cap)), Fraction(0))


def trial_division_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def order_by_scan(b: int, d: int) -> int:
    assert math.gcd(b, d) == 1
    value = b % d
    m = 1
    while value != 1 % d:
        value = value * b % d
        m += 1
    return m


def test_fermat_examples():
    assert fermat_holds(2, 341)
    assert fermat_holds(2, 341, strict=True)
    assert fermat_holds(2, 7)
    assert not fermat_holds(2, 9)  # 2^9 = 512 = 8 mod 9
    assert fermat_holds(3, 91)
    assert fermat_holds(3, 6)  # 3^6 = 729 = 3 mod 6
    assert not fermat_holds(3, 6, strict=True)


def test_fermat_unit_convention():
    assert fermat_holds(2, 1)
    assert fermat_holds(2, 1, strict=True)
    # n = 1 passes, and is neither prime nor a pseudoprime
    assert classify(2, 1) == FERMAT_BIT
    assert classify(2, 1, strict=True) == FERMAT_BIT


def test_fermat_validation():
    with pytest.raises(ValueError):
        fermat_holds(1, 5)
    with pytest.raises(ValueError):
        fermat_holds(2, 0)


def test_classify_examples():
    assert classify(2, 341) == FERMAT_BIT | PSEUDO_BIT
    assert classify(2, 11) == FERMAT_BIT | PRIME_BIT
    assert classify(2, 12) == 0


def test_verdict_byte_matches_its_definition():
    # each bit from its own definition: a direct pow, trial-division
    # primality, and "passes, composite, n != 1" for the pseudoprime bit
    for b in (2, 3, 5, 6, 10):
        for strict in (False, True):
            for n in range(1, 3001):
                if strict:
                    passes = pow(b, n - 1, n) == 1 % n
                else:
                    passes = pow(b, n, n) == b % n
                prime = trial_division_prime(n)
                want = (
                    FERMAT_BIT * passes
                    | PRIME_BIT * prime
                    | PSEUDO_BIT * (passes and not prime and n != 1)
                )
                assert classify(b, n, strict) == want, (b, n, strict)
    assert classify(2, 1) == FERMAT_BIT
    # strict mode: a prime dividing the base fails b^(p-1) = 1 (mod p)
    for b, p in ((2, 2), (3, 3), (5, 5), (6, 2), (6, 3), (10, 2), (10, 5)):
        assert classify(b, p, strict=True) == PRIME_BIT
        assert classify(b, p) == FERMAT_BIT | PRIME_BIT
    assert classify(2, 341) == FERMAT_BIT | PSEUDO_BIT


def test_fermat_matches_direct_pow_scan():
    for n in range(1, 500):
        assert fermat_holds(2, n) == (pow(2, n, n) == 2 % n)
        assert fermat_holds(2, n, strict=True) == (pow(2, n - 1, n) == 1 % n)


def test_pseudoprime_list_base2_regenerated():
    oracle = [
        n
        for n in range(2, 10_000)
        if pow(2, n, n) == 2 % n and not trial_division_prime(n)
    ]
    assert pseudoprimes_below(2, 10_000) == oracle
    assert oracle[:7] == [341, 561, 645, 1105, 1387, 1729, 1905]


def test_pseudoprime_list_base3_includes_even_entries():
    oracle = [
        n
        for n in range(2, 3000)
        if pow(3, n, n) == 3 % n and not trial_division_prime(n)
    ]
    assert pseudoprimes_below(3, 3000) == oracle
    assert 6 in oracle  # the b^n = b form admits even pseudoprimes


def test_strict_excludes_primes_dividing_base():
    # 5 is prime yet fails the strict test to base 5
    assert fermat_holds(5, 5)
    assert not fermat_holds(5, 5, strict=True)


def test_multiplicative_order_examples():
    assert multiplicative_order(2, 7) == 3
    assert multiplicative_order(2, 341) == 10
    assert multiplicative_order(10, 17) == 16
    assert multiplicative_order(2, 1) == 1


def test_multiplicative_order_matches_scan():
    for b in (2, 3, 10):
        for d in range(1, 400):
            if math.gcd(b, d) != 1:
                continue
            assert multiplicative_order(b, d) == order_by_scan(b, d), (b, d)


def test_pollard_rho_failure_is_an_arithmetic_error():
    # a prime has no nontrivial factor, so every increment c exhausts
    with pytest.raises(ArithmeticError, match="^failed to split 1009$"):
        arith._pollard_rho(1009)


def test_multiplicative_order_raises_when_factoring_fails(monkeypatch):
    d = 1009 * 1013  # survives every trial prime, so lambda(d) needs Pollard rho

    def failing_rho(n):
        raise ArithmeticError(f"failed to split {n}")

    monkeypatch.setattr(arith, "_pollard_rho", failing_rho)
    with pytest.raises(ArithmeticError, match=f"^failed to split {d}$"):
        multiplicative_order(2, d)


def test_multiplicative_order_requires_coprime():
    with pytest.raises(ValueError):
        multiplicative_order(2, 4)
    with pytest.raises(ValueError, match="modulus must be >= 1"):
        multiplicative_order(2, 0)


def test_iter_prime_orders_skips_base_divisors():
    pairs = dict(iter_prime_orders(6, 2, 30))
    assert 2 not in pairs and 3 not in pairs
    assert pairs[5] == order_by_scan(6, 5)


def test_order_census_hand_example():
    assert order_census(2, 10) == {2: 1, 3: 1, 4: 1}
    assert order_census(2, 2) == {}


def test_order_census_counts_below_distinct_factor_bound():
    census = order_census(2, 10_000)
    for m in range(1, 26):
        count = census.get(m, 0)
        assert count <= len(factorize(2**m - 1)), m


def test_nord_bound():
    for m in (1, 5, 12):
        assert nord_bound(2, m) == m
        assert nord_bound(4, m) == 2 * m


def test_tail_sum_examples():
    assert tail_sum(2, 8, 7) == 0.0  # empty range
    assert tail_sum_exact(2, 3, 7) == Fraction(1, 6) + Fraction(1, 20) + Fraction(1, 21)
    assert abs(tail_sum(2, 3, 7) - 0.2642857142857143) < 1e-15


def test_product_tail_sum_examples():
    assert product_tail_sum(2, 1, 7) == tail_sum(2, 3, 7)
    assert product_tail_sum(2, 10**9, 10**3) == 0.0


def test_tail_sum_monotonic():
    values = [tail_sum(2, t, 2000) for t in (2, 10, 100, 500)]
    assert values == sorted(values, reverse=True)
    caps = [tail_sum(2, 10, cap) for cap in (100, 500, 2000)]
    assert caps == sorted(caps)
    pvalues = [product_tail_sum(2, t, 2000) for t in (1, 50, 5000)]
    assert pvalues == sorted(pvalues, reverse=True)


def test_tail_sum_scaled_by_sqrt_stays_bounded():
    # boundedness proxy: the constant is observed, not pinned
    scaled = [tail_sum(2, t, 10**4) * math.sqrt(t) for t in (10, 100, 1000)]
    assert all(0 < v < 1 for v in scaled)


def test_pomerance_scale():
    assert pomerance_scale(10) == 1.0
    assert pomerance_scale(math.exp(math.e)) == 1.0
    assert abs(pomerance_scale(10**6) - 160.6) < 0.5
    grid = [pomerance_scale(x) for x in (100, 1000, 10**4, 10**6, 10**8)]
    assert grid == sorted(grid)


def test_order_level_report():
    levels = order_level_report(2, 10).levels
    assert levels.get(2) == 1  # only d = 3
    assert levels.get(1, 0) == 0
    report = order_level_report(2, 100)
    assert [d for d in range(3, 101, 2) if order_by_scan(2, d) == 4] == [5, 15]
    assert report.levels[4] == 2
    for m in (1, 2, 3, 6):
        want = sum(1 for d in range(3, 101, 2) if order_by_scan(2, d) == m)
        assert report.levels.get(m, 0) == want, m
    assert report.threshold == 100 / math.sqrt(pomerance_scale(100))
    for m, c in report.flagged.items():
        assert c > report.threshold
        assert report.levels[m] == c


def smallest_factor_by_trial(n: int) -> int:
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def test_smallest_prime_factors_table():
    spf = smallest_prime_factors(10_000)
    assert spf.itemsize == 2 and len(spf) == 10_001
    assert spf[0] == spf[1] == 0
    for n in range(2, 10_001):
        q = smallest_factor_by_trial(n)
        assert spf[n] == (0 if q == n else q), n
    assert list(smallest_prime_factors(0)) == [0]
    assert list(smallest_prime_factors(4)) == [0, 0, 0, 0, 2]
    for bad in (-1, 1 << 32):
        with pytest.raises(ValueError):
            smallest_prime_factors(bad)


def spf_peak_in_tables(limit):
    """tracemalloc peak of smallest_prime_factors(limit), in tables."""
    tracemalloc.start()
    try:
        spf = smallest_prime_factors(limit)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (spf.itemsize * len(spf))


def test_smallest_prime_factors_peak_is_near_the_table():
    # A zeroed bytes temporary as large as the table, freed only once the
    # array is built, made the peak 2.06 tables.
    assert spf_peak_in_tables(10**6) < 1.6


def test_smallest_prime_factors_builds_no_even_slice():
    # The even entries come from the 2-periodic start, so the largest slice
    # is the odd multiples of 3, a sixth of the table: 1.17 tables at 10^6.
    # Filling the p = 2 slice from a temporary half the table made it 1.50.
    assert spf_peak_in_tables(10**6) < 1.25


# the benchmark's bases; squares (4, 9, 36) and other composites (8, 12, 72,
# 30030) read the residue table of (b|ell) mod 4b, and bases above the range
# (10^9 + 7, 2^61 - 1) meet every residue once
@pytest.mark.parametrize(
    "b", [2, 3, 5, 6, 10, 4, 9, 36, 8, 12, 72, 30030, 10**9 + 7, 2**61 - 1]
)
def test_iter_prime_orders_matches_scan_on_every_prime(b):
    want = [
        (ell, order_by_scan(b, ell))
        for ell in range(2, 5001)
        if trial_division_prime(ell) and b % ell
    ]
    assert list(iter_prime_orders(b, 2, 5000)) == want
    assert [(ell, multiplicative_order(b, ell)) for ell, _ in want] == want


@pytest.mark.parametrize("b", [2, 3, 6, 10])
def test_modulus_scans_match_per_modulus_orders(b):
    want = Counter(
        order_by_scan(b, d) for d in range(2, 3001) if math.gcd(b, d) == 1
    )
    assert order_level_report(b, 3000).levels == dict(sorted(want.items()))


@pytest.mark.parametrize("b", [2, 3, 12, 30030])
def test_iter_prime_orders_from_every_start(b):
    every = list(iter_prime_orders(b, 2, 300))
    for lo in range(0, 302):
        assert list(iter_prime_orders(b, lo, 300)) == [p for p in every if p[0] >= lo], lo


@pytest.mark.parametrize("b", [2, 3, 5, 6, 10])
def test_order_levels_match_per_modulus_orders_at_benchmark_size(b):
    want = Counter(
        multiplicative_order(b, d) for d in range(2, 10**4 + 1) if math.gcd(b, d) == 1
    )
    assert order_level_report(b, 10**4).levels == dict(sorted(want.items()))


@pytest.mark.parametrize("b", [4, 8, 9, 12, 36, 72, 30030, 10**9 + 7, 2**61 - 1])
def test_order_levels_match_per_modulus_orders_on_composite_bases(b):
    want = Counter(
        multiplicative_order(b, d) for d in range(2, 2001) if math.gcd(b, d) == 1
    )
    assert order_level_report(b, 2000).levels == dict(sorted(want.items()))


def test_order_layer_pow_counts(monkeypatch):
    # The module global shadows the builtin, so every pow the order layer
    # takes is counted. Before the residue table and the prime-power lcms
    # these read 69,392 and 17,420.
    calls = 0

    def counting_pow(*args):
        nonlocal calls
        calls += 1
        return pow(*args)

    monkeypatch.setattr(pseudoprimes, "pow", counting_pow, raising=False)
    assert sum(1 for _ in iter_prime_orders(2, 2, 200_000)) == 17_983
    assert calls <= 52_000
    calls = 0
    order_level_report(2, 10**4)
    assert 0 < calls <= 3_300


def test_prime_order_edges():
    assert [list(iter_prime_orders(2, 2, hi)) for hi in (0, 1, 2, 3)] == [
        [], [], [], [(3, 2)]
    ]
    assert [list(iter_prime_orders(3, 2, hi)) for hi in (0, 1, 2, 3)] == [
        [], [], [(2, 1)], [(2, 1)]
    ]
    assert list(iter_prime_orders(3, 3, 3)) == []
    assert list(iter_prime_orders(2, -5, 5)) == [(3, 2), (5, 4)]
    assert list(iter_prime_orders(2, 2.5, 7)) == [(3, 2), (5, 4), (7, 3)]


def test_empty_ranges_build_no_table(monkeypatch):
    def refuse(limit):
        raise AssertionError(f"table built for limit {limit}")

    monkeypatch.setattr(pseudoprimes, "smallest_prime_factors", refuse)
    assert list(iter_prime_orders(2, 8, 7)) == []
    assert list(iter_prime_orders(2, 2, 1)) == []
    assert tail_sum(2, 8, 7) == 0.0
    assert tail_sum_exact(2, 8, 7) == 0
    assert product_tail_sum(2, 1, 1) == 0.0
    assert order_census(2, 1) == {}
    assert order_level_report(2, 1).levels == {}


@pytest.mark.parametrize("b", [2, 3, 6])
def test_tail_sum_within_rounding_of_exact(b):
    # each term 1/(ell*m) is rounded once (relative error <= 2^-53, all terms
    # positive) and fsum rounds once more, so the float is within 2^-52 of
    # the exact sum; it is not always the exact sum rounded (b = 6, t = 3).
    for t, cap in ((3, 7), (10, 2000), (100, 5000)):
        exact = tail_sum_exact(b, t, cap)
        assert abs(Fraction(tail_sum(b, t, cap)) - exact) <= exact / 2**52, (t, cap)


@pytest.mark.parametrize("b", [2, 6])
def test_order_stats_is_the_three_scans(b):
    # t = 101 is a prime and t = 6 = 3 * ord_3(2): each comparison's edge counts
    for t, cap in ((2, 2), (2, 3), (6, 50), (100, 100), (101, 3000), (2000, 5000)):
        stats = order_stats(b, t, cap)
        assert stats.census == order_census(b, t)
        assert stats.tail_sum == tail_sum(b, t, cap)
        assert stats.product_tail_sum == product_tail_sum(b, t, cap)
    with pytest.raises(ValueError):
        order_stats(2, 100, 99)
