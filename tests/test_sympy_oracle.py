"""factorize, carmichael_lambda and the order functions against sympy.

sympy is a test-only oracle: the module is skipped where it is missing.
"""
import math

import pytest

sympy = pytest.importorskip("sympy")
from sympy.ntheory import n_order  # noqa: E402

import eclab.arith as arith  # noqa: E402
from eclab.arith import carmichael_lambda, factorize  # noqa: E402
from eclab.pseudoprimes import multiplicative_order  # noqa: E402

# Above any SPF table the order layer builds, several with two or more prime
# factors past the trial-division bound (1000), so Pollard rho must split them.
LARGE_MODULI = (
    1_000_003,
    999_983 * 1_000_003,
    600_851_475_143,  # 71 * 839 * 1471 * 6857
    (10**9 + 7) * (10**9 + 9),
    2**64 + 1,  # 274177 * 67280421310721
    2**61 - 1,
    10**18 + 9,
    2**10 * 3**4 * 1009**2 * 1013,
)
LARGE_PRIMES = (1_000_003, 10**9 + 7, 2**61 - 1, 10**18 + 9)


def test_factorize_and_lambda_match_sympy_below_3000():
    for n in range(1, 3000):
        assert factorize(n) == sympy.factorint(n), n
        assert carmichael_lambda(n) == sympy.reduced_totient(n), n


def test_factorize_and_lambda_match_sympy_on_large_moduli(monkeypatch):
    splits = []
    rho = arith._pollard_rho

    def counted(n):
        splits.append(n)
        return rho(n)

    monkeypatch.setattr(arith, "_pollard_rho", counted)
    for n in LARGE_MODULI:
        assert factorize(n) == sympy.factorint(n), n
        assert carmichael_lambda(n) == sympy.reduced_totient(n), n
    assert 999_983 * 1_000_003 in splits and (10**9 + 7) * (10**9 + 9) in splits


@pytest.mark.parametrize("b", [2, 3, 10])
def test_multiplicative_order_matches_sympy(b):
    for d in range(2, 1500):
        if math.gcd(b, d) == 1:
            assert multiplicative_order(b, d) == n_order(b, d), d
    for d in LARGE_MODULI:
        if math.gcd(b, d) == 1:
            assert multiplicative_order(b, d) == n_order(b, d), d
    for ell in LARGE_PRIMES:
        assert multiplicative_order(b, ell) == n_order(b, ell), ell
