"""Integer arithmetic against brute-force oracles."""
import math

import pytest

import eclab.arith
from eclab.arith import _TRIAL_PRIMES, carmichael_lambda, euler_phi, factorize, is_prime
from eclab.pseudoprimes import smallest_prime_factors


def trial_division_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_matches_trial_division():
    for n in range(3000):
        assert is_prime(n) == trial_division_prime(n), n


def test_is_prime_known_values():
    assert is_prime(2**31 - 1)
    assert not is_prime(561)  # Carmichael number, fools Fermat not Miller-Rabin
    assert not is_prime(2**67 - 1)
    assert is_prime(10**18 + 9)


def test_is_prime_rejects_values_beyond_witness_range():
    with pytest.raises(ValueError):
        is_prime(2**89 - 1)  # coprime to every witness, above the valid range


def test_factorize_recombines():
    for n in range(1, 4000):
        fac = factorize(n)
        prod = 1
        for p, e in fac.items():
            assert trial_division_prime(p), (n, p)
            assert e >= 1
            prod *= p**e
        assert prod == n


def test_factorize_larger_composites():
    assert factorize(10403) == {101: 1, 103: 1}
    assert factorize(600851475143) == {71: 1, 839: 1, 1471: 1, 6857: 1}
    assert factorize(2**31 - 1) == {2**31 - 1: 1}
    m13, m17 = 2**13 - 1, 2**17 - 1
    assert factorize(m13 * m17) == {m13: 1, m17: 1}
    assert factorize((2**13 - 1) ** 2) == {m13: 2}


def near_trial_squares() -> list[int]:
    return [m for p in _TRIAL_PRIMES for m in (p * p - 1, p * p, p * p + 1)]


def factor_with(n: int, spf) -> dict[int, int]:
    """{prime: exponent} of 1 <= n < len(spf), ascending, read off the table."""
    out: dict[int, int] = {}
    while n > 1:
        q = spf[n] or n
        out[q] = out.get(q, 0) + 1
        n //= q
    return out


def test_factorize_matches_spf_table():
    spf = smallest_prime_factors(_TRIAL_PRIMES[-1] ** 2 + 1)
    for n in [*range(1, 200_000), *near_trial_squares()]:
        assert list(factorize(n).items()) == list(factor_with(n, spf).items()), n


def test_factorize_skips_primality_test_below_last_trial_square(monkeypatch):
    calls = {"is_prime": [], "rho": []}
    is_prime_real, rho_real = eclab.arith.is_prime, eclab.arith._pollard_rho

    def spy_is_prime(n):
        calls["is_prime"].append(n)
        return is_prime_real(n)

    def spy_rho(n):
        calls["rho"].append(n)
        return rho_real(n)

    monkeypatch.setattr(eclab.arith, "is_prime", spy_is_prime)
    monkeypatch.setattr(eclab.arith, "_pollard_rho", spy_rho)
    last = _TRIAL_PRIMES[-1]
    assert last == 997
    squares = [m for m in near_trial_squares() if m <= last**2]
    for n in [*range(1, 20_000), *range(last**2 - 2_000, last**2 + 1), *squares]:
        factorize(n)
    assert calls == {"is_prime": [], "rho": []}
    # a cofactor that survives every trial prime still goes to Miller-Rabin
    assert factorize(997 * 1009) == {997: 1, 1009: 1}
    assert calls == {"is_prime": [1009], "rho": []}
    # and a composite one on to Pollard rho
    calls["is_prime"].clear()
    assert factorize(1009**2) == {1009: 2}
    assert calls == {"is_prime": [1009**2, 1009, 1009], "rho": [1009**2]}


def test_factorize_rejects_nonpositive():
    for n in (0, -4):
        with pytest.raises(ValueError):
            factorize(n)


def test_euler_phi_matches_gcd_count():
    for n in range(1, 300):
        expected = sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)
        assert euler_phi(n) == expected, n


def brute_lambda(n: int) -> int:
    # smallest m with a^m = 1 for every unit a; m must divide phi(n),
    # so scanning divisors of the unit-group size is an exhaustive check
    if n == 1:
        return 1
    units = [a for a in range(1, n) if math.gcd(a, n) == 1]
    phi = len(units)
    for m in (d for d in range(1, phi + 1) if phi % d == 0):
        if all(pow(a, m, n) == 1 for a in units):
            return m
    raise AssertionError(f"no exponent found for {n}")


def test_carmichael_lambda_matches_brute_force():
    for n in range(1, 300):
        assert carmichael_lambda(n) == brute_lambda(n), n


def test_carmichael_lambda_two_power_ladder():
    assert carmichael_lambda(2) == 1
    assert carmichael_lambda(4) == 2
    assert carmichael_lambda(8) == 2
    assert carmichael_lambda(16) == 4
    assert carmichael_lambda(1024) == 256
