"""Sieve densities, Euler products, and pseudoprime-count envelopes.

The density system w_y assigns each prime ell >= y the weight
w(ell) = ell * |C_0(ell)| / |GL2(F_ell)| and 0 below y, where C_0(ell) is the
set of Frobenius classes with ell | n(p). Both counts are read from
`gl2.prime_class_counts`, so 1 - w(ell)/ell = (G - C_0)/G. V_y(z) is the
standard sifting product over p < z. The envelopes evaluate the two headline
upper bounds for the count of primes p <= x whose group order passes a
Fermat test; at desk scales they exceed pi(x) and are flagged as vacuous.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .arith import factorize
from .gl2 import prime_class_counts
from .primes import iter_prime_segments
from .pseudoprimes import FERMAT_BIT, fermat_holds

if TYPE_CHECKING:
    from .census import CensusResult

# Hard-coded to 18+ significant digits; a unit test recomputes gamma from an
# Euler-Maclaurin series.
EULER_GAMMA = 0.577215664901532861
EXP_EULER_GAMMA = 1.78107241799019799


def density_product(y: float, z: float) -> float:
    """V_y(z) = prod_{p < z} (1 - w_y(p)/p), double precision.

    Each factor (G - C_0) / G, with C_0 = |C_0(p)| and G = |GL2(F_p)|, is one
    integer true division, so it is correctly rounded, the same double as the
    exact rational would give. The primes stream one array('q') segment at a
    time, in increasing order.
    """
    if z < 0:
        raise ValueError("z must be nonnegative")
    v = 1.0
    for seg in iter_prime_segments(max(0, math.ceil(z) - 1)):
        for p in seg.primes:
            if p >= y:
                c0, _, _, g = prime_class_counts(p)
                v *= (g - c0) / g
    return v


def euler_constant_product(cap: int) -> float:
    """Partial product over p <= cap of C = prod_p (1 - w_1(p)/p) / (1 - 1/p).

    Each factor (G - C_0) p / (G (p - 1)) is one correctly rounded integer
    true division. The primes stream one array('q') segment at a time, in
    increasing order.
    """
    v = 1.0
    for seg in iter_prime_segments(cap):
        for p in seg.primes:
            c0, _, _, g = prime_class_counts(p)
            v *= (g - c0) * p / (g * (p - 1))
    return v


def mertens_ratio(z: float) -> float:
    """V_1(z) * log z / (C * e^-gamma), with C's product taken over the
    primes up to 10^5: tends to 1 as z grows."""
    c = euler_constant_product(100_000)
    return density_product(1.0, z) * math.log(z) / (c / EXP_EULER_GAMMA)


def linear_sieve_F(s: float) -> float:
    """Upper linear-sieve function F(s) = 2 e^gamma / s, valid on 0 < s <= 3."""
    if not 0 < s <= 3:
        raise ValueError(f"F(s) only implemented on (0, 3], got s={s}")
    return 2 * EXP_EULER_GAMMA / s


def _iterated_logs(x: float, error: str) -> tuple[float, float, float]:
    """log x, loglog x and logloglog x. Raises ValueError(error) unless
    x > e^e, where all three are positive."""
    if x <= math.exp(math.e):
        raise ValueError(error)
    lx = math.log(x)
    llx = math.log(lx)
    return lx, llx, math.log(llx)


def count_envelope(x: float, mode: str) -> float:
    """Headline upper-bound envelope for the Fermat-passing prime count.

    mode 'unconditional': 48 e^gamma x logloglog x / (log x loglog x);
    mode 'grh':           28 e^gamma x loglog x / (log x)^2.
    The paper's (48 + eps) and (28 + eps) are taken with eps = 0, as the
    vacuousness flags assume. Requires x > e^e so the iterated logs are
    positive.
    """
    lx, llx, lllx = _iterated_logs(x, "envelope needs x > e^e")
    if mode == "unconditional":
        return 48 * EXP_EULER_GAMMA * x * lllx / (lx * llx)
    if mode == "grh":
        return 28 * EXP_EULER_GAMMA * x * llx / (lx * lx)
    raise ValueError(f"unknown envelope mode {mode!r}")


class SieveParams(NamedTuple):
    y: float
    z: float
    # Raw values before flooring y at 1 and clamping z up to y; at desk scales
    # the named presets produce z < y (an empty sifting range), and at x = 100
    # the unconditional y < 1, which is recorded, not hidden.
    raw_y: float
    raw_z: float


def preset_params(x: float, mode: str) -> SieveParams:
    """The named (y, z) choices. 'unconditional': y = (loglog x)^2 logloglog x,
    z = (log x)^(1/24) / loglog x. 'grh': y = (log x)^2 loglog x,
    z = x^(1/14) / log x. z is clamped up to y so [y, z) is at worst empty."""
    lx, llx, lllx = _iterated_logs(x, "presets need x > e^e")
    if mode == "unconditional":
        y = llx * llx * lllx
        z = lx ** (1 / 24) / llx
    elif mode == "grh":
        y = lx * lx * llx
        z = x ** (1 / 14) / lx
    else:
        raise ValueError(f"unknown preset {mode!r}")
    floored = max(1.0, y)
    return SieveParams(floored, max(floored, z), y, z)


def _sifted_test(y: float, z: float):
    """Predicate on n: some prime factor of n lies in [y, z) (empty when y = z).

    Factoring n touches only its own few prime factors, where trial division
    by every sifting prime would scan all of them. The presets clamp z up to
    y at desk scales, and an empty range sifts nothing without factoring.
    """
    if y > z:
        raise ValueError("need y <= z")
    if y == z:
        return lambda n: False
    return lambda n: any(y <= q < z for q in factorize(n))


def empirical_S(records, y: float, z: float) -> int:
    """|{records : n has no prime factor in [y, z)}| (y = z counts everything)."""
    sifted = _sifted_test(y, z)
    return sum(1 for rec in records if not sifted(rec.n))


def empirical_T(records, b: int, y: float, z: float, strict: bool = False) -> int:
    """|{records : n has a prime factor in [y, z) yet passes the Fermat test}|."""
    sifted = _sifted_test(y, z)
    return sum(1 for rec in records if sifted(rec.n) and fermat_holds(b, rec.n, strict))


class SieveReport(NamedTuple):
    x: float
    y: float
    z: float
    V_y_z: float
    F_s: float
    envelope_uncond: float
    envelope_grh: float
    empirical_S: int
    empirical_T: int
    empirical_Q: int
    meta: dict

    def to_dict(self) -> dict:
        return {**self._asdict(), "meta": dict(self.meta)}


def build_sieve_report(
    result: CensusResult,
    y: float,
    z: float,
    s: float = 2.0,
    extra_meta: dict | None = None,
) -> SieveReport:
    """Assemble the densities, envelopes, and empirical S/T/Q counts of a census.

    Q counts every row whose verdict has FERMAT_BIT; S counts rows whose n
    survives sifting by the primes in [y, z); T counts sifted-out rows that
    still pass. x, pi(x), the base and the Fermat mode are the census's own.
    Q <= S + T holds by case split on each row.
    """
    sifted = _sifted_test(y, z)
    emp_s = emp_t = emp_q = 0
    for n, v in zip(result.n, result.verdicts):
        fermat = 1 if v & FERMAT_BIT else 0
        if sifted(n):
            emp_t += fermat
        else:
            emp_s += 1
        emp_q += fermat
    x = float(result.x)
    pi_x = len(result.n) + len(result.skipped_bad)
    env_u = count_envelope(x, "unconditional")
    env_g = count_envelope(x, "grh")
    meta = {
        "s": s,
        "pi_x": pi_x,
        "base": result.base,
        "strict_fermat": result.strict,
        "envelope_uncond_vacuous": env_u > pi_x,
        "envelope_grh_vacuous": env_g > pi_x,
    }
    if extra_meta:
        meta.update(extra_meta)
    return SieveReport(
        x=x,
        y=y,
        z=z,
        V_y_z=density_product(y, z),
        F_s=linear_sieve_F(s),
        envelope_uncond=env_u,
        envelope_grh=env_g,
        empirical_S=emp_s,
        empirical_T=emp_t,
        empirical_Q=emp_q,
        meta=meta,
    )
