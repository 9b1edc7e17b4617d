"""Integer plumbing: deterministic primality, factoring, multiplicative structure."""
from __future__ import annotations

import math

from .primes import primes_up_to

# Deterministic Miller-Rabin witness set, valid for every n below this limit
# (covers the full 64-bit range with a wide margin).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981

# Trial divisors tried before Pollard rho.
_TRIAL_PRIMES = tuple(primes_up_to(1000))


def is_prime(n: int) -> bool:
    """Deterministic primality test (Miller-Rabin with a fixed witness set)."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    if n >= _MR_LIMIT:
        raise ValueError(f"primality test witness set only valid below {_MR_LIMIT}")
    d = n - 1
    s = ((d & -d).bit_length()) - 1
    d >>= s
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """Some nontrivial factor of composite n (Brent's cycle variant).

    The polynomial increments are swept deterministically so repeated runs
    factor the same way.
    """
    if n % 2 == 0:
        return 2
    for c in range(1, 128):
        y, r, q = 2, 1, 1
        g = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"failed to split {n}")


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as an ordered {prime: exponent} map."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > n:
            # No prime below p divides n and p^2 > n, so n is 1 or prime.
            if n > 1:
                out[n] = 1
            return out
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n > 1:
        stack = [n]
        while stack:
            m = stack.pop()
            if is_prime(m):
                out[m] = out.get(m, 0) + 1
                continue
            d = _pollard_rho(m)
            stack.append(d)
            stack.append(m // d)
    return dict(sorted(out.items()))


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending."""
    return list(factorize(n))


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


def euler_phi(n: int) -> int:
    phi = 1
    for p, e in factorize(n).items():
        phi *= p ** (e - 1) * (p - 1)
    return phi


def carmichael_lambda(n: int) -> int:
    """Exponent of (Z/n)^*: lcm of the unit-group exponents at each prime power."""
    return lambda_from_factors(factorize(n))


def lambda_from_factors(factors: dict[int, int]) -> int:
    """Carmichael's lambda of the integer with this {prime: exponent} map."""
    lam = 1
    for p, e in factors.items():
        if p == 2:
            part = 1 if e == 1 else 2 if e == 2 else 2 ** (e - 2)
        else:
            part = p ** (e - 1) * (p - 1)
        lam = lam * part // math.gcd(lam, part)
    return lam
