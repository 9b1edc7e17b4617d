"""Workload parts: seeded inputs and the `eclab` invocations that run them.

A benchmark workload runs the commands of one or more parts (see
metrics.WORKLOADS) in a closed loop from one benchmark process: the next
invocation starts when the previous one has ended. Seed 0 gives the
reference inputs; any other seed draws an input of the same kind, so the
work per run stays comparable across seeds.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

PARTS = ("census", "sieve-cm", "orders")

# Sizes. The census sizes are scaled so that one invocation takes a few
# seconds on a 2-core machine and a run holds several of them.
CENSUS_X = 100_000
SIEVE_X = 100_000
SIEVE_Y = 5
SIEVE_Z = 100_000
ORDERS_T = 10_000
ORDERS_CAP = 200_000
CLASSES_CAP = 64
CENSUS_THREADS = 1
SIEVE_THREADS = 2  # sieve-report has no --threads flag; ECLAB_THREADS pins it
# Bases whose order statistics cost within 5% of base 2's.
ORDER_BASES = (2, 3, 5, 6, 10)

REFERENCE_CURVE = ("37a", (0, 0, 1, -1, 0))  # the paper's curve
REFERENCE_CM_K = 2  # y^2 = x^3 + 2

# j-invariants of the thirteen CM curves over Q.
CM_J_INVARIANTS = frozenset(
    {
        0,
        1728,
        -3375,
        8000,
        -32768,
        54000,
        287496,
        -884736,
        -12288000,
        16581375,
        -884736000,
        -147197952000,
        -262537412640768000,
    }
)


def b_invariants(a1, a2, a3, a4, a6):
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return b2, b4, b6, b8


def discriminant(coeffs) -> int:
    b2, b4, b6, b8 = b_invariants(*coeffs)
    return -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def j_invariant(coeffs) -> Fraction:
    b2, b4, _, _ = b_invariants(*coeffs)
    c4 = b2 * b2 - 24 * b4
    return Fraction(c4**3, discriminant(coeffs))


@dataclass(frozen=True)
class Curve:
    label: str
    coeffs: tuple[int, int, int, int, int]
    cm: bool

    def line(self) -> str:
        return f"{self.label}:{','.join(map(str, self.coeffs))},cm={int(self.cm)}"


def _small_count(coeffs, p: int) -> int:
    """|E(F_p)| by sweeping every (x, y); for small p only."""
    a1, a2, a3, a4, a6 = coeffs
    n = 1
    for x in range(p):
        rhs = (((x + a2) * x + a4) * x + a6) % p
        for y in range(p):
            if (y * y + a1 * x * y + a3 * y - rhs) % p == 0:
                n += 1
    return n


def _orders_share_no_factor(coeffs) -> bool:
    """gcd of n(p) over good primes 5 <= p < 60 is 1.

    Rational torsion divides every such n(p), so this rejects curves with
    torsion (and curves isogenous to one). Torsion makes point orders small
    and BSGS ambiguous more often, which would make the census cost depend
    on the seed.
    """
    disc = discriminant(coeffs)
    g = 0
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59):
        if disc % p:
            g = math.gcd(g, _small_count(coeffs, p))
    return g == 1


def census_curve(seed: int) -> Curve:
    """37a at seed 0; otherwise a non-CM curve with small coefficients whose
    group orders share no forced factor."""
    if seed == 0:
        return Curve(REFERENCE_CURVE[0], REFERENCE_CURVE[1], False)
    rng = random.Random(f"census:{seed}")
    while True:
        coeffs = (
            rng.randint(0, 1),
            rng.randint(-1, 1),
            rng.randint(0, 1),
            rng.randint(-9, 9),
            rng.randint(-9, 9),
        )
        if (
            discriminant(coeffs) != 0
            and j_invariant(coeffs) not in CM_J_INVARIANTS
            and _orders_share_no_factor(coeffs)
        ):
            return Curve(f"c{seed}", coeffs, False)


def _is_square(k: int) -> bool:
    return k >= 0 and round(k**0.5) ** 2 == k


def _is_cube(k: int) -> bool:
    r = round(abs(k) ** (1 / 3))
    return r**3 == abs(k)


def cm_k(seed: int) -> int:
    """k of y^2 = x^3 + k with trivial rational torsion; 2 at seed 0.

    For sixth-power-free k (every |k| < 64) the torsion of y^2 = x^3 + k is
    trivial unless k is a square, +-1 times a cube, or -432. k is also
    prime to 3: a factor 3 in k changes how often group orders survive the
    sieve, and with it the cost of the S/T scans by up to a quarter.
    """
    if seed == 0:
        return REFERENCE_CM_K
    rng = random.Random(f"sieve-cm:{seed}")
    while True:
        k = rng.choice((-1, 1)) * rng.randint(2, 40)
        if k % 3 and not _is_square(k) and not _is_cube(k):
            return k


def cm_curve(seed: int) -> Curve:
    k = cm_k(seed)
    return Curve(f"k{k}".replace("-", "m"), (0, 0, 0, 0, k), True)


def order_base(seed: int) -> int:
    if seed == 0:
        return ORDER_BASES[0]
    return random.Random(f"orders:{seed}").choice(ORDER_BASES)


@dataclass(frozen=True)
class Inputs:
    """Everything one workload run feeds to eclab, drawn from the seed."""

    workload: str
    seed: int
    threads: int
    curve: Curve | None = None
    base: int = 2
    x: int = 0
    y: int = 0
    z: int = 0
    t: int = 0
    cap: int = 0
    classes_cap: int = 0

    def commands(self, curve_file: str) -> list[list[str]]:
        """The eclab argument lists of one repeat, without --out."""
        if self.workload == "orders":
            return [
                ["order-stats", "--base", str(self.base), "--t", str(self.t), "--cap", str(self.cap)],
                ["verify-classes", "--cap", str(self.classes_cap)],
            ]
        curve = ["--curve-file", curve_file, "--curve", self.curve.label]
        if self.workload == "census":
            return [
                ["pomerance", *curve, "--base", str(self.base), "--x", str(self.x), "--threads", str(self.threads)]
            ]
        return [["sieve-report", *curve, "--x", str(self.x), "--y", str(self.y), "--z", str(self.z)]]


def make_inputs(workload: str, seed: int) -> Inputs:
    if workload == "census":
        return Inputs(workload, seed, CENSUS_THREADS, curve=census_curve(seed), x=CENSUS_X)
    if workload == "sieve-cm":
        return Inputs(workload, seed, SIEVE_THREADS, curve=cm_curve(seed), x=SIEVE_X, y=SIEVE_Y, z=SIEVE_Z)
    if workload == "orders":
        return Inputs(
            workload, seed, 1, base=order_base(seed), t=ORDERS_T, cap=ORDERS_CAP, classes_cap=CLASSES_CAP
        )
    raise ValueError(f"unknown workload {workload!r}")
