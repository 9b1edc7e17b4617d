"""Elliptic curves over Q, reductions mod p, and group-order computation.

Point counting takes one path per prime: full enumeration for p in {2, 3}
(no short Weierstrass model exists there) and baby-step/giant-step order
finding inside the Hasse window for every p >= 5. The baby table is keyed
on x alone, so one entry x(jP) stands for both jP and -jP and one giant
step covers 2m + 1 multiples. When random points leave the order
ambiguous, the quadratic twist decides it; an exact character sum is the
last resort. A separate exhaustive-enumeration oracle (naive_count)
provides an independent check.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import gcd, isqrt
from typing import NamedTuple

from .arith import is_prime


class SingularCurveError(ValueError):
    """Discriminant zero: not an elliptic curve."""


class BadReductionError(ValueError):
    """The prime divides the discriminant; no group order is defined."""


def _b_invariants(a1: int, a2: int, a3: int, a4: int, a6: int):
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return b2, b4, b6, b8


def discriminant(a1: int, a2: int, a3: int, a4: int, a6: int) -> int:
    b2, b4, b6, b8 = _b_invariants(a1, a2, a3, a4, a6)
    return -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


@dataclass(frozen=True)
class WeierstrassCurve:
    """Long Weierstrass model y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6."""

    a1: int
    a2: int
    a3: int
    a4: int
    a6: int
    label: str = ""
    cm: bool = False
    # Configuration, not computed: moduli sharing a factor with this bound are
    # excluded from full-image density predictions. 0 means "exclude all",
    # None means "not configured" (also excludes all).
    serre_bound: int | None = None
    disc: int = field(init=False)

    def __post_init__(self) -> None:
        d = discriminant(self.a1, self.a2, self.a3, self.a4, self.a6)
        if d == 0:
            raise SingularCurveError(
                f"coefficients {self.coefficients()} give discriminant 0"
            )
        object.__setattr__(self, "disc", d)

    def coefficients(self) -> tuple[int, int, int, int, int]:
        return (self.a1, self.a2, self.a3, self.a4, self.a6)


@dataclass(frozen=True)
class ReducedCurve:
    p: int
    a1: int
    a2: int
    a3: int
    a4: int
    a6: int
    good: bool


class TraceRecord(NamedTuple):
    p: int
    a_p: int
    n: int  # group order p + 1 - a_p


def reduce_mod(curve: WeierstrassCurve, p: int) -> ReducedCurve:
    if not is_prime(p):
        raise ValueError(f"reduction requires a prime, got {p}")
    return _reduce_unchecked(curve, p)


def _reduce_unchecked(curve: WeierstrassCurve, p: int) -> ReducedCurve:
    """reduce_mod for a p the caller already knows to be prime (a sieve prime)."""
    return ReducedCurve(
        p,
        curve.a1 % p,
        curve.a2 % p,
        curve.a3 % p,
        curve.a4 % p,
        curve.a6 % p,
        curve.disc % p != 0,
    )


def count_points(rc: ReducedCurve) -> int:
    """|E(F_p)| including the point at infinity. Pure function of the input."""
    if not rc.good:
        raise BadReductionError(f"bad reduction at {rc.p}")
    if rc.p <= 3:
        return _count_enumeration(rc)
    return _count_bsgs(rc)


def naive_count(rc: ReducedCurve) -> int:
    """Independent exhaustive oracle: O(p) via an enumerated square table."""
    if not rc.good:
        raise BadReductionError(f"bad reduction at {rc.p}")
    p = rc.p
    if p <= 3:
        return _count_enumeration(rc)
    cnt = bytearray(p)
    for u in range(p):
        cnt[u * u % p] += 1
    a1, a2, a3, a4, a6 = rc.a1, rc.a2, rc.a3, rc.a4, rc.a6
    total = 1
    for x in range(p):
        rhs = (((x + a2) * x + a4) * x + a6) % p
        disc_y = ((a1 * x + a3) ** 2 + 4 * rhs) % p
        total += cnt[disc_y]
    return total


def trace_record(curve: WeierstrassCurve, p: int) -> TraceRecord:
    return _trace_reduced(reduce_mod(curve, p))


def _trace_reduced(rc: ReducedCurve) -> TraceRecord:
    p = rc.p
    n = count_points(rc)
    a = p + 1 - n
    if a * a > 4 * p:
        raise ArithmeticError(f"trace {a} at p={p} violates the Hasse bound")
    return TraceRecord(p, a, n)


def _count_enumeration(rc: ReducedCurve) -> int:
    """Full (x, y) sweep of the long equation; only used for p in {2, 3}."""
    p = rc.p
    n = 1
    for x in range(p):
        rhs = (((x + rc.a2) * x + rc.a4) * x + rc.a6) % p
        for y in range(p):
            if (y * y + rc.a1 * x * y + rc.a3 * y) % p == rhs:
                n += 1
    return n


# -- short-model arithmetic in Jacobian coordinates (x = X/Z^2, y = Y/Z^3) --

_J_INF = (1, 1, 0)


def _short_model(rc: ReducedCurve) -> tuple[int, int]:
    """Coefficients (A, B) with E isomorphic to y^2 = x^3 + Ax + B, p >= 5."""
    b2, b4, b6, _ = _b_invariants(rc.a1, rc.a2, rc.a3, rc.a4, rc.a6)
    c4 = b2 * b2 - 24 * b4
    c6 = -b2**3 + 36 * b2 * b4 - 216 * b6
    return (-27 * c4) % rc.p, (-54 * c6) % rc.p


def _jdbl(p: int, a: int, pt):
    X1, Y1, Z1 = pt
    if not Z1 or not Y1:
        return _J_INF
    YY = Y1 * Y1 % p
    S = 4 * X1 * YY % p
    ZZ = Z1 * Z1 % p
    M = (3 * X1 * X1 + a * ZZ % p * ZZ) % p
    X3 = (M * M - 2 * S) % p
    Y3 = (M * (S - X3) - 8 * YY * YY) % p
    Z3 = 2 * Y1 * Z1 % p
    return (X3, Y3, Z3)


def _jadd_mixed(p: int, a: int, pt, x2: int, y2: int):
    """Jacobian point plus affine point."""
    X1, Y1, Z1 = pt
    if not Z1:
        return (x2, y2, 1)
    ZZ = Z1 * Z1 % p
    U2 = x2 * ZZ % p
    S2 = y2 * ZZ % p * Z1 % p
    H = (U2 - X1) % p
    r = (S2 - Y1) % p
    if not H:
        if not r:
            return _jdbl(p, a, pt)
        return _J_INF
    HH = H * H % p
    HHH = H * HH % p
    V = X1 * HH % p
    X3 = (r * r - HHH - 2 * V) % p
    Y3 = (r * (V - X3) - Y1 * HHH) % p
    Z3 = Z1 * H % p
    return (X3, Y3, Z3)


def _jmul(p: int, a: int, k: int, x: int, y: int):
    """k * (x, y) for k >= 0, double-and-add."""
    acc = _J_INF
    if k == 0:
        return acc
    for bit in bin(k)[2:]:
        acc = _jdbl(p, a, acc)
        if bit == "1":
            acc = _jadd_mixed(p, a, acc, x, y)
    return acc


def _batch_affine(p: int, pts):
    """Normalize Jacobian points with one shared inversion; None = infinity."""
    idx = [i for i, pt in enumerate(pts) if pt[2]]
    out: list[tuple[int, int] | None] = [None] * len(pts)
    if not idx:
        return out
    acc = 1
    prefix = []
    for i in idx:
        prefix.append(acc)
        acc = acc * pts[i][2] % p
    inv = pow(acc, -1, p)
    for j in range(len(idx) - 1, -1, -1):
        i = idx[j]
        X, Y, Z = pts[i]
        zi = inv * prefix[j] % p
        inv = inv * Z % p
        zi2 = zi * zi % p
        out[i] = (X * zi2 % p, Y * zi2 % p * zi % p)
    return out


def _sqrt_mod(p: int, n: int) -> int:
    """Square root of a quadratic residue n mod odd prime p (Tonelli-Shanks)."""
    if n == 0:
        return 0
    if p % 4 == 3:
        return pow(n, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(n, q, p), pow(n, (q + 1) // 2, p)
    while t != 1:
        tt, i = t, 0
        while tt != 1:
            tt = tt * tt % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t = t * c % p
        r = r * b % p
    return r


def _random_point(p: int, a: int, b: int, rng: random.Random) -> tuple[int, int]:
    while True:
        x = rng.randrange(p)
        t = (x * x % p * x + a * x + b) % p
        if t == 0:
            return (x, 0)
        if pow(t, (p - 1) // 2, p) == 1:
            return (x, _sqrt_mod(p, t))


def _point_multiples_in_window(
    p: int, a: int, x1: int, y1: int, lo: int, hi: int
) -> list[int]:
    """All N in [lo, hi] with N*(x1, y1) = infinity, by baby-step/giant-step.

    These are exactly the multiples of the point order in the window, so the
    list is never empty (the group order is one of them) and consecutive
    entries differ by the point order.

    The baby table holds x(jP) for j = 1..m. A giant c*P with the same x is
    +-jP: equal y gives (c - j)P = O, opposite y gives (c + j)P = O, and
    y = 0 gives both. Giants c = lo + m + i(2m + 1) therefore cover the
    window in blocks [c - m, c + m].
    """
    m = isqrt((hi - lo) // 2) + 1
    jac = [(x1, y1, 1)]
    for _ in range(1, m):
        jac.append(_jadd_mixed(p, a, jac[-1], x1, y1))
    stride = _jadd_mixed(p, a, _jdbl(p, a, jac[-1]), x1, y1)  # (2m + 1) * P
    *baby, stride_aff = _batch_affine(p, jac + [stride])
    if None in baby or stride_aff is None:
        # the point order is the first j <= m with jP = O, else 2m + 1
        o = baby.index(None) + 1 if None in baby else 2 * m + 1
        return list(range((lo + o - 1) // o * o, hi + 1, o))
    table: dict[int, list[tuple[int, int]]] = {}
    for j, (bx, by) in enumerate(baby, start=1):
        table.setdefault(bx, []).append((j, by))

    c0 = lo + m
    giants = [_jmul(p, a, c0, x1, y1)]
    for _ in range((hi - lo) // (2 * m + 1)):
        giants.append(_jadd_mixed(p, a, giants[-1], *stride_aff))

    found = []
    for i, pt in enumerate(_batch_affine(p, giants)):
        c = c0 + i * (2 * m + 1)
        if pt is None:
            found.append(c)
            continue
        gx, gy = pt
        for j, by in table.get(gx, ()):
            if by == gy:
                found.append(c - j)
            if by == (p - gy) % p:
                found.append(c + j)
    return sorted(n for n in found if lo <= n <= hi)


def _order_search(p: int, a: int, b: int, attempts: int) -> int | None:
    """Group order of y^2 = x^3 + ax + b if some point pins it down uniquely."""
    rng = random.Random((p << 24) ^ (a << 12) ^ b)
    half = isqrt(4 * p)
    lo, hi = p + 1 - half, p + 1 + half
    known = 1
    for _ in range(attempts):
        x1, y1 = _random_point(p, a, b, rng)
        ns = _point_multiples_in_window(p, a, x1, y1, lo, hi)
        if len(ns) == 1:
            return ns[0]
        o = ns[1] - ns[0]
        known = known * (o // gcd(known, o))
        if hi // known - (lo - 1) // known == 1:
            return (hi // known) * known
    return None


def _order_character_sum(p: int, a: int, b: int) -> int:
    e = (p - 1) // 2
    n = p + 1
    for x in range(p):
        f = (x * x % p * x + a * x + b) % p
        if f:
            n += 1 if pow(f, e, p) == 1 else -1
    return n


def _group_order_short(p: int, a: int, b: int) -> int:
    n = _order_search(p, a, b, attempts=10)
    if n is not None:
        return n
    # Ambiguous exponent: the quadratic twist's order determines ours,
    # since the two always sum to 2p + 2.
    d = 2
    while pow(d, (p - 1) // 2, p) != p - 1:
        d += 1
    n_tw = _order_search(p, a * d % p * d % p, b * d % p * d % p * d % p, attempts=10)
    if n_tw is not None:
        return 2 * p + 2 - n_tw
    # exact but slow safety net; on the builtin curves only reached at p <= 29
    return _order_character_sum(p, a, b)


def _count_bsgs(rc: ReducedCurve) -> int:
    a, b = _short_model(rc)
    return _group_order_short(rc.p, a, b)


# -- curve sources --------------------------------------------------------

_BUILTIN_LINES = (
    "37a:0,0,1,-1,0,cm=0,serre=74",
    "389a:0,1,1,-2,0,cm=0,serre=778",
    "5077a:0,0,1,-7,6,cm=0,serre=10154",
    "11a:0,-1,1,-10,-20,cm=0,serre=110",
    "32a:0,0,0,-1,0,cm=1,serre=0",
)


def parse_curve_line(line: str) -> WeierstrassCurve:
    """Parse 'label:a1,a2,a3,a4,a6[,cm=0|1][,serre=<int>]'."""
    head, sep, tail = line.partition(":")
    label = head.strip()
    if not sep or not label:
        raise ValueError(f"malformed curve line (missing 'label:'): {line!r}")
    parts = [t.strip() for t in tail.split(",")]
    if len(parts) < 5:
        raise ValueError(f"curve line needs five coefficients: {line!r}")
    try:
        coeffs = [int(t) for t in parts[:5]]
    except ValueError:
        raise ValueError(f"non-integer coefficient in curve line: {line!r}") from None
    cm = False
    serre: int | None = None
    for extra in parts[5:]:
        key, eq, val = extra.partition("=")
        key = key.strip()
        val = val.strip()
        if key == "cm" and val in ("0", "1"):
            cm = val == "1"
        elif key == "serre" and eq:
            try:
                serre = int(val)
            except ValueError:
                raise ValueError(f"bad serre bound in curve line: {line!r}") from None
        else:
            raise ValueError(f"unknown curve option {extra!r} in line: {line!r}")
    return WeierstrassCurve(*coeffs, label=label, cm=cm, serre_bound=serre)


def builtin_curves() -> dict[str, WeierstrassCurve]:
    curves = [parse_curve_line(line) for line in _BUILTIN_LINES]
    return {c.label: c for c in curves}


def load_curve_file(path: str) -> dict[str, WeierstrassCurve]:
    out: dict[str, WeierstrassCurve] = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            curve = parse_curve_line(line)
            if curve.label in out:
                raise ValueError(f"duplicate curve label {curve.label!r} in {path}")
            out[curve.label] = curve
    return out


def get_curve(label: str, path: str | None = None) -> WeierstrassCurve:
    table = load_curve_file(path) if path else builtin_curves()
    try:
        return table[label]
    except KeyError:
        raise KeyError(
            f"unknown curve label {label!r}; available: {', '.join(sorted(table))}"
        ) from None
