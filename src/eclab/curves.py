"""Elliptic curves over Q with CM detected from j, reductions mod p, and
group-order computation.

Point counting takes one of three paths per prime: full enumeration for p in
{2, 3} (no short Weierstrass model exists there), a closed form when the
short model y^2 = x^3 + Ax + B has j = 0 (A = 0) or j = 1728 (B = 0), and
baby-step/giant-step order finding inside the Hasse window otherwise.
count_points and the census's trace_records share one step per prime that
takes that choice and checks the Hasse bound a_p^2 <= 4p. trace_records
computes the integer short model A = -27 c4, B = -54 c6 once per task of
primes, reduces only A, B and the discriminant at each prime, and appends
p and n to two array('q') columns: 16 bytes a census row and no tuple.

The closed form (Ireland & Rosen, Ch. 18, Thms 4 and 5) is n = p + 1 at the
supersingular primes (p = 2 mod 3 for j = 0, p = 3 mod 4 for j = 1728).
Elsewhere p = pi * conj(pi) splits in Z[w] or Z[i]; Cornacchia finds pi
from a square root of -3 or -1, pi is made primary, and n = p + 1 +- Tr
of pi times the conjugate of a sextic or quartic residue symbol, a unit
read off one power of 4B or -A modulo p.

For BSGS, the 2-torsion first pins n mod 2 or 4 (Cohen, GTM 138,
Alg. 7.4.12): one Legendre symbol of the cubic's discriminant, and x^p mod
the cubic when that is a square. The search then runs only over
N = n0 (mod M), with Q = M*P in a baby table keyed on x alone, so one entry
x(jQ) stands for both jQ and -jQ and one giant step covers 2m + 1 values of
N. The first giant is a short multiple of the stride (2m + 1)Q, plus P at
most. Points come in turn from two deterministic walks over the same x:
one keeps the x where x^3 + Ax + B is a nonzero square (points of E), the
other those where it is a non-square (points of the quadratic twist). Their
congruences are merged in closed form. If both walks run dry, every x with
x^3 + Ax + B != 0 has been drawn once, and p + 1 plus the draws on E less
those on the twist is the exact order. A separate exhaustive-enumeration
oracle (naive_count) provides an independent check.
"""
from __future__ import annotations

from array import array
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


def _short_coefficients(a1: int, a2: int, a3: int, a4: int, a6: int):
    """Integers (A, B) = (-27 c4, -54 c6): y^2 = x^3 + Ax + B is isomorphic
    to the long model over F_p for every p >= 5."""
    b2, b4, b6, _ = _b_invariants(a1, a2, a3, a4, a6)
    c4 = b2 * b2 - 24 * b4
    c6 = -b2**3 + 36 * b2 * b4 - 216 * b6
    return -27 * c4, -54 * c6


class _CurveFields(NamedTuple):
    a1: int
    a2: int
    a3: int
    a4: int
    a6: int
    label: str = ""
    cm: bool = False
    disc: int = 0  # computed by WeierstrassCurve, never passed in


# j of the CM curves over Q: one per imaginary quadratic order of class number
# one (Silverman, Advanced Topics in the Arithmetic of Elliptic Curves, App. A).
_CM_J = frozenset({0, 1728, -3375, 8000, -32768, 54000, 287496, -884736, -12288000,
                   16581375, -884736000, -147197952000, -262537412640768000})


class WeierstrassCurve(_CurveFields):
    """Long Weierstrass model y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6. disc
    and cm are computed; a cm passed in is a claim, and a false one raises."""

    __slots__ = ()

    def __new__(cls, a1, a2, a3, a4, a6, label="", cm=None):
        d = discriminant(a1, a2, a3, a4, a6)
        if d == 0:
            raise SingularCurveError(
                f"coefficients {(a1, a2, a3, a4, a6)} give discriminant 0"
            )
        c4_cubed = (_short_coefficients(a1, a2, a3, a4, a6)[0] // -27) ** 3
        has_cm = c4_cubed % d == 0 and c4_cubed // d in _CM_J
        if cm is not None and cm != has_cm:
            raise ValueError(f"curve {label!r} claims cm={int(cm)}, but j gives cm={int(has_cm)}")
        return super().__new__(cls, a1, a2, a3, a4, a6, label, has_cm, d)

    def __getnewargs__(self):
        # pickle and copy rebuild through __new__, which recomputes cm and disc
        return self[:6]

    @classmethod
    def _make(cls, fields):
        """Build through __new__, so _replace recomputes cm and disc."""
        return cls(*tuple(fields)[:6])

    def coefficients(self) -> tuple[int, int, int, int, int]:
        return (self.a1, self.a2, self.a3, self.a4, self.a6)


class ReducedCurve(NamedTuple):
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
    return ReducedCurve(p, *(c % p for c in curve.coefficients()), curve.disc % p != 0)


def count_points(rc: ReducedCurve) -> int:
    """|E(F_p)| including the point at infinity. Pure function of the input.
    Raises ArithmeticError on a trace outside the Hasse bound."""
    if not rc.good:
        raise BadReductionError(f"bad reduction at {rc.p}")
    return _order_at(rc.p, rc[1:6], *_short_coefficients(*rc[1:6]))


def naive_count(rc: ReducedCurve) -> int:
    """Independent exhaustive oracle: O(p) via an enumerated square table."""
    if not rc.good:
        raise BadReductionError(f"bad reduction at {rc.p}")
    p = rc.p
    if p <= 3:
        return _count_enumeration(*rc[:6])
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


def trace_records(curve: WeierstrassCurve, primes) -> tuple[array, array, list[int]]:
    """Columns p and n at the good primes of `primes`, in order, and the bad
    primes.

    Every p must be prime; none is re-checked. The integer short model is
    computed once per call, so each p >= 5 costs three reductions (A, B and
    the discriminant) and one count. The two columns are array('q'), 8 bytes
    a row, which census workers send back pickled. Raises ArithmeticError
    on a trace a_p = p + 1 - n outside the Hasse bound.
    """
    coeffs = curve.coefficients()
    A, B = _short_coefficients(*coeffs)
    disc = curve.disc
    ps, ns = array("q"), array("q")
    bad = []
    for p in primes:
        if disc % p == 0:
            bad.append(p)
            continue
        ns.append(_order_at(p, coeffs, A, B))
        ps.append(p)
    return ps, ns, bad


def _order_at(p: int, coeffs, A: int, B: int) -> int:
    """#E(F_p) at a good p for count_points and trace_records alike: the long
    model coeffs is enumerated at p <= 3, y^2 = x^3 + Ax + B counted above.
    Raises ArithmeticError on a trace outside the Hasse bound."""
    if p <= 3:
        n = _count_enumeration(p, *coeffs)
    else:
        n = _group_order_short(p, A % p, B % p)
    a = p + 1 - n
    if a * a > 4 * p:
        raise ArithmeticError(f"trace {a} at p={p} violates the Hasse bound")
    return n


def _count_enumeration(p: int, a1: int, a2: int, a3: int, a4: int, a6: int) -> int:
    """Full (x, y) sweep of the long equation: the count for p in {2, 3} and
    the O(p^2) brute-force oracle of the tests."""
    n = 1
    for x in range(p):
        rhs = (((x + a2) * x + a4) * x + a6) % p
        c = a1 * x + a3  # y^2 + a1 xy + a3 y = y (y + c)
        n += [y * (y + c) % p for y in range(p)].count(rhs)
    return n


# -- short-model arithmetic in Jacobian coordinates (x = X/Z^2, y = Y/Z^3) --

_J_INF = (1, 1, 0)


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
    if k == 0:
        return _J_INF
    acc = (x, y, 1)
    for bit in bin(k)[3:]:
        acc = _jdbl(p, a, acc)
        if bit == "1":
            acc = _jadd_mixed(p, a, acc, x, y)
    return acc


def _two_torsion_class(p: int, a: int, b: int) -> tuple[int, int]:
    """(n0, M) with #E(F_p) = n0 (mod M) for y^2 = x^3 + ax + b, p >= 5.

    E(F_p)[2] is O plus one point per root of f = x^3 + ax + b. A non-square
    discriminant means Frobenius swaps two roots: one root, n even. A square
    one means no root or three, split by x^p = x (mod f): three roots put
    Z/2 x Z/2 inside E(F_p), so 4 | n; none leaves n odd.
    """
    if pow((-4 * a * a * a - 27 * b * b) % p, (p - 1) // 2, p) != 1:
        return 0, 2
    c0, c1, c2 = 0, 1, 0  # x^e mod f as c0 + c1 x + c2 x^2, from e = 1
    for bit in bin(p)[3:]:
        u = 2 * c1 * c2 % p
        v = c2 * c2 % p
        c0, c1, c2 = (
            (c0 * c0 - b * u) % p,
            (2 * c0 * c1 - a * u - b * v) % p,
            (c1 * c1 + 2 * c0 * c2 - a * v) % p,
        )
        if bit == "1":  # times x, with x^3 = -ax - b
            c0, c1, c2 = -b * c2 % p, (c0 - a * c2) % p, c1
    return (0, 4) if (c0, c1, c2) == (0, 1, 0) else (1, 2)


def _walk_points(p: int, a: int, b: int, symbol: int):
    """Points (X, Y, A), Y != 0, one per x whose t = x^3 + ax + b has
    Legendre symbol `symbol` (1 or p - 1): (X, Y) = (xt, t^2) lies on
    Y^2 = X^3 + AX + B with A = at^2, B = bt^3, y^2 = x^3 + ax + b scaled by
    u^2 = t. That model is E itself when t is a square and its quadratic
    twist when it is not, and no square root is taken.

    x walks x0, x0 + 1, ... once round F_p from an x0 fixed by (p, a, b), so
    the draws are deterministic and cheap, and the walks with symbol 1 and
    p - 1 together draw every x with t != 0 exactly once. Points with y = 0
    have order 2 and say nothing the 2-torsion class does not.
    """
    e = (p - 1) // 2
    x0 = (a + 2 * b + 1) % p
    for i in range(p):
        x = (x0 + i) % p
        t = (x * x % p * x + a * x + b) % p
        if t and pow(t, e, p) == symbol:
            yield x * t % p, t * t % p, a * t % p * t % p


def _mixed_chain(p: int, a: int, pt, x2: int, y2: int, steps: int):
    """pt + i*(x2, y2), i = 0..steps, and H_i with Z_{i+1} = Z_i * H_i, so one
    inversion normalizes them all; each step is _jadd_mixed written out.
    H_i = 0 where step i went through O or doubled: the product breaks there."""
    pts = [pt]
    hs = []
    X1, Y1, Z1 = pt
    for _ in range(steps):
        ZZ = Z1 * Z1 % p
        H = (x2 * ZZ - X1) % p
        if Z1 and H:
            r = (y2 * ZZ % p * Z1 - Y1) % p
            HH = H * H % p
            HHH = H * HH % p
            V = X1 * HH % p
            X1 = (r * r - HHH - 2 * V) % p
            Y1 = (r * (V - X1) - Y1 * HHH) % p
            Z1 = Z1 * H % p
        else:
            X1, Y1, Z1 = _jadd_mixed(p, a, (X1, Y1, Z1), x2, y2)
            H = 0
        pts.append((X1, Y1, Z1))
        hs.append(H)
    return pts, hs


def _multiples_by_order(
    p: int, a: int, x1: int, y1: int, first: int, hi: int, M: int
) -> list[int]:
    """N = first + kM <= hi with N*(x1, y1) = O, for a point of small order."""
    o, pt = 1, (x1, y1, 1)
    while pt[2]:
        pt = _jadd_mixed(p, a, pt, x1, y1)
        o += 1
    return [N for N in range(first, hi + 1, M) if N % o == 0]


def _point_multiples_in_window(
    p: int, a: int, x1: int, y1: int, lo: int, hi: int, n0: int, M: int
) -> list[int]:
    """All N in [lo, hi] with N = n0 (mod M) and N*P = O, P = (x1, y1).

    M is a power of two and n0 is 0 or 1. The list holds exactly the N of
    the progression that the point order divides, so consecutive entries
    differ by lcm(M, ord P); it holds the group order whenever the group
    order is n0 mod M.

    With N = first + kM, k = 0..K-1, N*P = O reads first*P + k*Q = O for
    Q = M*P. The baby table holds x(jQ) for j = 1..m. A giant G_c =
    (first + cM)*P with the same x is +-jQ: equal y gives k = c - j, opposite
    y gives k = c + j, and y = 0 both, so giants c = c0 + i(2m + 1) cover k
    in blocks [c - m, c + m]. c0 in [-m, m] is picked so that
    first + c0*M = n0 + q(2m + 1)M: the anchor is q*((2m + 1)Q) plus n0*P,
    and q is (2m + 1)M times smaller than the scalar first + c0*M. A point
    whose Q has order at most 2m + 1 is counted directly.
    """
    first = lo + (n0 - lo) % M
    K = (hi - first) // M + 1
    m = max(2, isqrt((K - 1) // 2) + 1)  # >= 2: the second baby is a doubling
    s = 2 * m + 1
    small = (p, a, x1, y1, first, hi, M)
    Q = (x1, y1, 1)
    for _ in range(M.bit_length() - 1):
        Q = _jdbl(p, a, Q)
    if not Q[2]:
        return _multiples_by_order(*small)
    zi = pow(Q[2], -1, p)
    zi2 = zi * zi % p
    qx, qy = Q[0] * zi2 % p, Q[1] * zi2 % p * zi % p

    # Baby steps jQ, j = 1..m: 2Q, then a chain of additions of Q. A zero
    # factor, 2Q = O or an x repeat of Q below m, means ord Q <= m.
    baby, hs = _mixed_chain(p, a, _jdbl(p, a, (qx, qy, 1)), qx, qy, m - 2)
    hs.insert(0, baby[0][2])
    if not all(hs):
        return _multiples_by_order(*small)
    baby.insert(0, (qx, qy, 1))
    sX, sY, sZ = _jadd_mixed(p, a, _jdbl(p, a, baby[-1]), qx, qy)  # (2m + 1) * Q
    if not sZ:  # ord Q divides 2m + 1
        return _multiples_by_order(*small)
    inv = pow(baby[-1][2] * sZ % p, -1, p)
    zi = inv * baby[-1][2] % p
    zi2 = zi * zi % p
    sx, sy = sX * zi2 % p, sY * zi2 % p * zi % p
    inv = inv * sZ % p
    table = {}
    for j in range(m, 0, -1):  # hs[j - 2] = Z(jQ) / Z((j - 1)Q); unused at j = 1
        X = baby[j - 1][0]
        table[X * inv % p * inv % p] = j
        inv = inv * hs[j - 2] % p
    if len(table) < m:  # ord Q <= 2m
        return _multiples_by_order(*small)

    # Giants from the short anchor, through the same chain; a step through O
    # or a doubling (H = 0) restarts the product at one more inversion.
    t = (first - n0) // M
    c0 = -t % s
    if c0 > m:
        c0 -= s
    pt = _jmul(p, a, (t + c0) // s, sx, sy)
    if n0:
        pt = _jadd_mixed(p, a, pt, x1, y1)
    steps = (K - 2 - m - c0) // s + 1  # until c0 + i*s + m >= K - 1
    giants, hs = _mixed_chain(p, a, pt, sx, sy, steps)

    found = []
    inv = 0
    for i in range(len(giants) - 1, -1, -1):
        X, Y, Z = giants[i]
        c = c0 + i * s
        if not Z:
            found.append(c)
            inv = 0
            continue
        if not inv:
            inv = pow(Z, -1, p)
        zi2 = inv * inv % p
        j = table.get(X * zi2 % p)
        if j:
            gy = Y * zi2 % p * inv % p
            _, bY, bZ = baby[j - 1]
            bzi = pow(bZ, -1, p)
            by = bY * bzi % p * bzi % p * bzi % p
            if by == gy:
                found.append(c - j)
            if by == (p - gy) % p:
                found.append(c + j)
        inv = inv * hs[i - 1] % p if i else 0
    return sorted(first + k * M for k in found if 0 <= k < K)


def _group_order_bsgs(p: int, a: int, b: int) -> int:
    """#E(F_p) for y^2 = x^3 + ax + b from points of E and its twist in turn.

    Each point leaves the N = n0 (mod M) of the Hasse window that it kills,
    n among them. The twist's order 2p + 2 - n is n0 (mod M) too (4 divides
    2p + 2, and n0 = 1 only for M = 2), so a twist point's N stands for
    n = 2p + 2 - N. The congruences merge in closed form until one N is left.
    For p > 229, E or its twist has a point that leaves one (Mestre; Schoof,
    JTNB 1995, Sec. 4). Below that both walks can run dry; then each x with
    t = x^3 + ax + b != 0 has been drawn once, on E if t is a square and on
    the twist if not, so n = p + 1 + (draws on E) - (draws on the twist).
    """
    n0, M = _two_torsion_class(p, a, b)
    half = isqrt(4 * p)
    lo, hi = p + 1 - half, p + 1 + half
    r, L = n0, M  # n = r (mod L)
    tally = p + 1  # p + 1 + (draws on E) - (draws on the twist)
    walks = [(1, _walk_points(p, a, b, 1)), (-1, _walk_points(p, a, b, p - 1))]
    while walks:  # E and the twist in turn; a walk that runs dry drops out
        sign, walk = walks.pop(0)
        pt = next(walk, None)
        if pt is None:
            continue
        walks.append((sign, walk))
        tally += sign
        x1, y1, a1 = pt
        ns = _point_multiples_in_window(p, a1, x1, y1, lo, hi, n0, M)
        if sign < 0:
            ns = [2 * p + 2 - N for N in reversed(ns)]
        if len(ns) == 1:
            return ns[0]
        if not ns:
            raise ArithmeticError(f"no group order = {n0} mod {M} at p={p}")
        r2, L2 = ns[0], ns[1] - ns[0]
        g = gcd(L, L2)
        if (r2 - r) % g:
            raise ArithmeticError(f"inconsistent group order residues at p={p}")
        u = L2 // g
        r += L * ((r2 - r) // g * pow(L // g, -1, u) % u)
        L *= u
        n = lo + (r - lo) % L
        if n + L > hi:
            return n
    return tally


def _cornacchia(p: int, r: int, d: int) -> tuple[int, int]:
    """(x, y) with x^2 + d*y^2 = p, given r^2 = -d (mod p) (Cohen, Alg. 1.5.2)."""
    u, v = p, min(r, p - r)
    while v * v > p:
        u, v = v, u % v
    return v, isqrt((p - v * v) // d)


def _order_j0(p: int, b: int) -> int:
    """#E(F_p) for y^2 = x^3 + b, b != 0 (Ireland & Rosen, Ch. 18, Thm 4).

    For p = 1 (mod 3), p = N(pi) with pi = A + Bw primary (A = 2, B = 0
    mod 3), and n = p + 1 + Tr(conj(u) * pi) for the sixth root of unity u
    = (4b / pi)_6, which is (4b)^((p-1)/6) mod p read through w = -A/B.
    """
    if p % 3 == 2:
        return p + 1
    e = (p - 1) // 3
    c = 2
    while (w := pow(c, e, p)) == 1:  # a cube root of unity other than 1
        c += 1
    x, y = _cornacchia(p, 2 * w + 1, 3)  # (2w + 1)^2 = -3
    A, B = x + y, 2 * y  # x + y*sqrt(-3) = (x + y) + 2y*w
    while A % 3 != 2 or B % 3:
        A, B = B, B - A  # times -w
    u = pow(4 * b, (p - 1) // 6, p)
    g = A * pow(B, -1, p) % p  # -w mod pi
    t = 1
    while t != u:  # find u = (-w)^k, taking pi to pi * (1 + w)^k = pi * conj(u)
        t = t * g % p
        A, B = A - B, A
    return p + 1 + 2 * A - B


def _order_j1728(p: int, a: int) -> int:
    """#E(F_p) for y^2 = x^3 + ax, a != 0 (Ireland & Rosen, Ch. 18, Thm 5).

    For p = 1 (mod 4), p = N(pi) with pi = x + yi primary (pi = 1 mod
    2 + 2i), and n = p + 1 - Tr(conj(u) * pi) for the fourth root of unity
    u = (-a / pi)_4, which is (-a)^((p-1)/4) mod p read through i = -x/y.
    """
    if p % 4 == 3:
        return p + 1
    e = (p - 1) // 4
    c = 2
    while (i := pow(c, e, p)) * i % p != p - 1:  # c^e is +-1 for a residue c
        c += 1
    x, y = _cornacchia(p, i, 1)
    while y % 2 or (x + y) % 4 != 1:
        x, y = -y, x  # times i
    u = pow(-a, e, p)
    g = -x * pow(y, -1, p) % p  # i mod pi
    t = 1
    while t != u:  # find u = i^k, taking pi to pi * (-i)^k = pi * conj(u)
        t = t * g % p
        x, y = y, -x
    return p + 1 - 2 * x


def _group_order_short(p: int, a: int, b: int) -> int:
    """#E(F_p) for y^2 = x^3 + ax + b with a, b reduced mod p, p >= 5."""
    if not a:
        return _order_j0(p, b)
    if not b:
        return _order_j1728(p, a)
    return _group_order_bsgs(p, a, b)


# -- curve sources --------------------------------------------------------

_BUILTIN_LINES = (
    "37a:0,0,1,-1,0",
    "389a:0,1,1,-2,0",
    "5077a:0,0,1,-7,6",
    "11a:0,-1,1,-10,-20",
    "32a:0,0,0,-1,0",
)


def parse_curve_line(line: str) -> WeierstrassCurve:
    """Parse 'label:a1,a2,a3,a4,a6[,cm=0|1]'; cm= is a claim checked against j.
    A label holding ',', or an unknown or repeated option, is a malformed
    line (ValueError)."""
    head, sep, tail = line.partition(":")
    label = head.strip()
    if not sep or not label or "," in label:
        raise ValueError(f"malformed curve line (needs a 'label:' without ','): {line!r}")
    parts = [t.strip() for t in tail.split(",")]
    if len(parts) < 5:
        raise ValueError(f"curve line needs five coefficients: {line!r}")
    try:
        coeffs = [int(t) for t in parts[:5]]
    except ValueError:
        raise ValueError(f"non-integer coefficient in curve line: {line!r}") from None
    cm = None
    for extra in parts[5:]:
        key, _, val = extra.partition("=")
        key = key.strip()
        val = val.strip()
        if key == "cm" and val in ("0", "1") and cm is None:
            cm = val == "1"
        else:
            raise ValueError(f"unknown or repeated curve option {extra!r} in line: {line!r}")
    return WeierstrassCurve(*coeffs, label=label, cm=cm)


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
