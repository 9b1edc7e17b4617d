"""Point counting against exhaustive oracles, reductions, and the registry."""
import pickle
import random
from math import gcd, isqrt

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from eclab import curves
from eclab.arith import is_prime
from eclab.census import run_census
from eclab.curves import (
    BadReductionError,
    ReducedCurve,
    SingularCurveError,
    WeierstrassCurve,
    _count_enumeration,
    _group_order_bsgs,
    _jmul,
    _point_multiples_in_window,
    _short_coefficients,
    _two_torsion_class,
    builtin_curves,
    count_points,
    discriminant,
    get_curve,
    load_curve_file,
    naive_count,
    parse_curve_line,
    reduce_mod,
    trace_records,
)
from eclab.primes import primes_up_to

LABELS = ("37a", "389a", "5077a", "11a", "32a")

# Verified against an exhaustive double loop in this file's own oracle below.
KNOWN_37A_TRACES = {
    2: -2, 3: -3, 5: -2, 7: -1, 11: -5, 13: -2, 17: 0, 19: 0,
    23: 2, 29: 6, 31: -4, 41: -9, 43: 2, 47: -9,
}


def brute_count(curve: WeierstrassCurve, p: int) -> int:
    """O(p^2) oracle: test the long Weierstrass equation at every (x, y)."""
    a1, a2, a3, a4, a6 = (c % p for c in curve.coefficients())
    total = 1  # point at infinity
    for x in range(p):
        rhs = (x * x * x + a2 * x * x + a4 * x + a6) % p
        for y in range(p):
            if (y * y + a1 * x * y + a3 * y - rhs) % p == 0:
                total += 1
    return total


def least_nonresidue(p: int) -> int:
    for d in range(2, p):
        if pow(d, (p - 1) // 2, p) == p - 1:
            return d
    raise AssertionError(f"no nonresidue modulo {p}")


def short_model(rc: ReducedCurve) -> tuple[int, int]:
    """(A, B) of the short model y^2 = x^3 + Ax + B of rc, reduced mod p."""
    return tuple(c % rc.p for c in _short_coefficients(*rc[1:6]))


def test_discriminant_examples():
    assert discriminant(0, 0, 1, -1, 0) == 37
    assert discriminant(0, 0, 0, -1, 1) == -368
    assert discriminant(0, 0, 0, 0, 0) == 0


def test_singular_curve_rejected():
    with pytest.raises(SingularCurveError):
        WeierstrassCurve(0, 0, 0, 0, 0)
    with pytest.raises(SingularCurveError):
        WeierstrassCurve(0, 0, 0, -3, 2)  # disc = -16(4*(-27) + 27*4) = 0


def test_curve_pickles_and_keeps_disc_consistent():
    curve = get_curve("37a")
    assert repr(curve) == (
        "WeierstrassCurve(a1=0, a2=0, a3=1, a4=-1, a6=0, label='37a', cm=False, "
        "disc=37)"
    )
    copy = pickle.loads(pickle.dumps(curve))
    assert type(copy) is WeierstrassCurve
    assert copy == curve and copy.disc == 37
    moved = curve._replace(a6=1)
    assert moved.disc == discriminant(0, 0, 1, -1, 1) and moved.label == "37a"
    with pytest.raises(SingularCurveError):
        WeierstrassCurve(0, 0, 0, -3, 1)._replace(a6=2)


def test_count_points_hand_examples():
    # y^2 = x^3 + x + 1 over F_5 has 9 points, so a_5 = -3
    c = WeierstrassCurve(0, 0, 0, 1, 1)
    assert count_points(reduce_mod(c, 5)) == 9
    assert brute_count(c, 5) == 9
    ps, ns, bad = trace_records(c, [5])
    assert (list(ps), list(ns), bad) == ([5], [9], [])
    # y^2 = x^3 + x over F_3 has 4 points
    c2 = WeierstrassCurve(0, 0, 0, 1, 0)
    assert count_points(reduce_mod(c2, 3)) == 4
    assert brute_count(c2, 3) == 4


@pytest.mark.parametrize("label", LABELS)
def test_count_points_matches_exhaustive_oracle(label):
    curve = get_curve(label)
    for p in primes_up_to(97):
        rc = reduce_mod(curve, p)
        if not rc.good:
            continue
        expected = brute_count(curve, p)
        assert count_points(rc) == expected, (label, p)
        assert naive_count(rc) == expected, (label, p)


@pytest.mark.parametrize("label", LABELS)
def test_fast_count_matches_naive_to_2000(label):
    curve = get_curve(label)
    for p in primes_up_to(2000):
        rc = reduce_mod(curve, p)
        if rc.good:
            assert count_points(rc) == naive_count(rc), (label, p)


def test_bsgs_matches_naive_below_and_above_cutoff():
    curve = get_curve("37a")
    sample = [p for p in primes_up_to(600) if p >= 5]
    sample += [p for p in primes_up_to(4400) if p > 4000]
    for p in sample:
        rc = reduce_mod(curve, p)
        if rc.good:
            assert _group_order_bsgs(p, *short_model(rc)) == naive_count(rc), p


def _check_two_torsion_class(rc: ReducedCurve, n: int) -> tuple[int, int]:
    """n = n0 (mod M); below 300 also the root count behind (n0, M)."""
    p = rc.p
    a, b = short_model(rc)
    n0, M = _two_torsion_class(p, a, b)
    assert n % M == n0, (rc, n0, M)
    if p < 300:
        roots = sum(1 for x in range(p) if (x * x * x + a * x + b) % p == 0)
        assert (n0, M) == {0: (1, 2), 1: (0, 2), 3: (0, 4)}[roots], rc
    return n0, M


def test_count_points_matches_naive_on_every_builtin_prime_below_4096():
    pairs = 0
    classes = set()
    for curve in builtin_curves().values():
        for p in primes_up_to(4095):
            rc = reduce_mod(curve, p)
            if rc.good:
                n = naive_count(rc)
                assert count_points(rc) == n, (curve.label, p)
                if p >= 5:
                    classes.add(_check_two_torsion_class(rc, n))
                pairs += 1
    assert pairs == 2816
    assert classes == {(0, 2), (1, 2), (0, 4)}


def _spy(monkeypatch, name):
    """Replace curves.<name> by a wrapper that records each result."""
    calls = []
    real = getattr(curves, name)

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append(out)
        return out

    monkeypatch.setattr(curves, name, spy)
    return calls


def _spy_walks(monkeypatch):
    """Replace curves._walk_points by a walk that records its arguments and
    the points it yields, then None once it runs dry."""
    walks = []
    real = curves._walk_points

    def spy(*args):
        drawn = []
        walks.append((args, drawn))
        for pt in real(*args):
            drawn.append(pt)
            yield pt
        drawn.append(None)

    monkeypatch.setattr(curves, "_walk_points", spy)
    return walks


# Every builtin (curve, p) below 4096 where the walks on E and on its twist
# both run dry.
@pytest.mark.parametrize(
    "label,p", [("32a", 5), ("32a", 7), ("32a", 29), ("389a", 11), ("389a", 17)]
)
def test_character_sum_fallback_is_taken(monkeypatch, label, p):
    rc = reduce_mod(get_curve(label), p)
    walks = _spy_walks(monkeypatch)
    windows = _spy(monkeypatch, "_point_multiples_in_window")
    # 32a reduces to j = 1728, which count_points counts in closed form
    n = _group_order_bsgs(p, *short_model(rc)) if label == "32a" else count_points(rc)
    assert len(walks) == 2 and all(drawn[-1] is None for _, drawn in walks)
    assert len(windows) == sum(len(drawn) - 1 for _, drawn in walks)
    assert n == p + 1 + len(walks[0][1]) - len(walks[1][1])  # draws on E less the twist's
    assert n == naive_count(rc)


def test_bsgs_matches_a_character_sum_on_every_short_model_to_61(monkeypatch):
    """Every y^2 = x^3 + ax + b with ab != 0 at every prime 5 <= p <= 61,
    against p + 1 + sum of the Legendre symbols of x^3 + ax + b. Both walks
    run dry, and the draws alone decide, only at p = 11, 17 and 23."""
    walks = _spy_walks(monkeypatch)
    models = 0
    dry = {}
    for p in primes_up_to(61)[2:]:
        e = (p - 1) // 2
        legendre = [0] + [1 if pow(t, e, p) == 1 else -1 for t in range(1, p)]
        for a in range(1, p):
            for b in range(1, p):
                if (4 * a**3 + 27 * b * b) % p == 0:
                    continue
                walks.clear()
                n = _group_order_bsgs(p, a, b)
                assert n == p + 1 + sum(legendre[(x**3 + a * x + b) % p] for x in range(p)), (p, a, b)
                if all(drawn[-1:] == [None] for _, drawn in walks):
                    dry[p] = dry.get(p, 0) + 1
                models += 1
    assert models == 19008
    assert dry == {11: 10, 17: 16, 23: 22}


def test_twist_draw_decides_37a_at_461(monkeypatch):
    """Above Mestre's bound E's first point leaves two or more orders, and
    the next draw, the first point of the twist, leaves one."""
    p = 461
    rc = reduce_mod(get_curve("37a"), p)
    a, b = short_model(rc)
    walks = _spy_walks(monkeypatch)
    windows = _spy(monkeypatch, "_point_multiples_in_window")
    n = count_points(rc)
    assert [args for args, _ in walks] == [(p, a, b, 1), (p, a, b, p - 1)]
    assert [len(drawn) for _, drawn in walks] == [1, 1]
    assert len(windows) == 2 and len(windows[0]) > 1
    assert windows[1] == [2 * p + 2 - n]  # the twist's order
    assert n == naive_count(rc)


# No single point leaves one order here; their merged congruences do.
@pytest.mark.parametrize("label,p", [("37a", 1627), ("389a", 1511), ("11a", 593)])
def test_points_decide_together_by_crt(monkeypatch, label, p):
    rc = reduce_mod(get_curve(label), p)
    walks = _spy_walks(monkeypatch)
    windows = _spy(monkeypatch, "_point_multiples_in_window")
    bsgs = _spy(monkeypatch, "_group_order_bsgs")
    n = count_points(rc)
    assert len(windows) >= 2 and all(len(ns) > 1 for ns in windows)
    assert bsgs == [n]
    assert all(drawn[-1:] != [None] for _, drawn in walks)  # neither walk ran dry
    assert n == naive_count(rc)


def test_walks_on_e_and_twist_decide_x3_plus_x2_minus_2x_in_four_draws(monkeypatch):
    """y^2 = x(x - 1)(x + 2) at every BSGS prime 29 <= p < 30000. Ten draws
    on E before the first on the twist took 11 or 12 at p = 47, 73, 97, 193."""
    curve = WeierstrassCurve(0, 1, 0, -2, 0)
    windows = _spy(monkeypatch, "_point_multiples_in_window")
    draws = {}
    for p in primes_up_to(29999):
        rc = reduce_mod(curve, p)
        if p >= 29 and rc.good:
            a, b = short_model(rc)
            assert a and b, p  # j is neither 0 nor 1728 here, so BSGS counts
            windows.clear()
            n = _group_order_bsgs(p, a, b)
            assert (p + 1 - n) ** 2 <= 4 * p, p
            draws[p] = len(windows)
    assert len(draws) == 3236
    assert max(draws.values()) <= 4


def test_window_without_the_order_raises(monkeypatch):
    rc = reduce_mod(get_curve("37a"), 241)
    calls = []
    monkeypatch.setattr(curves, "_point_multiples_in_window", lambda *args: calls.append(args) or [])
    with pytest.raises(ArithmeticError, match="no group order"):
        _group_order_bsgs(241, *short_model(rc))
    assert len(calls) == 1


def test_residues_that_disagree_across_draws_raise(monkeypatch):
    p = 241
    a, b = short_model(reduce_mod(get_curve("37a"), p))
    n0, M = _two_torsion_class(p, a, b)
    half = isqrt(4 * p)
    r = p + 1 - half + (n0 - p - 1 + half) % M  # the least N = n0 (mod M) in the window
    # E's point says n = r (mod 3M); the twist's point says n = r + M (mod 3M).
    answers = iter([[r, r + 3 * M], [2 * p + 2 - r - 4 * M, 2 * p + 2 - r - M]])
    calls = []
    monkeypatch.setattr(
        curves, "_point_multiples_in_window", lambda *args: calls.append(args) or next(answers)
    )
    with pytest.raises(ArithmeticError, match="inconsistent"):
        _group_order_bsgs(p, a, b)
    assert len(calls) == 2


# -- the closed form at j = 0 (y^2 = x^3 + k) and j = 1728 (y^2 = x^3 + kx) --

CLOSED_FORM_CURVES = [WeierstrassCurve(0, 0, 0, 0, k) for k in (1, -1, 2, -2, 3, 5, 7)] + [
    WeierstrassCurve(0, 0, 0, k, 0) for k in (1, -1, 2, -2, 3, 5)
]


def test_closed_form_matches_naive_below_2000():
    for curve in CLOSED_FORM_CURVES:
        for p in primes_up_to(1999):
            rc = reduce_mod(curve, p)
            if p >= 5 and rc.good:
                assert count_points(rc) == naive_count(rc), (curve.coefficients(), p)


def _decade_sample(d: int, size: int = 200) -> list[int]:
    """`size` primes drawn from [10^d, 10^(d+1)) by a fixed seed."""
    rng = random.Random(d)
    sample = set()
    while len(sample) < size:
        p = rng.randrange(10**d, 10 ** (d + 1))
        if is_prime(p):
            sample.add(p)
    return sorted(sample)


@pytest.mark.parametrize("d", [4, 5, 6, 7, 8, 9])
def test_closed_form_matches_bsgs_by_decade(d):
    for p in _decade_sample(d):
        for curve in (WeierstrassCurve(0, 0, 0, 0, 2), WeierstrassCurve(0, 0, 0, -1, 0)):
            rc = reduce_mod(curve, p)
            assert count_points(rc) == _group_order_bsgs(p, *short_model(rc)), (curve.a4, p)


def test_census_of_x3_plus_2_makes_no_order_search(monkeypatch):
    bsgs = _spy(monkeypatch, "_group_order_bsgs")
    windows = _spy(monkeypatch, "_point_multiples_in_window")
    closed = _spy(monkeypatch, "_order_j0")
    result = run_census(WeierstrassCurve(0, 0, 0, 0, 2), 10**4, threads=1)
    assert bsgs == [] and windows == []
    assert closed == [r.n for r in result.records if r.p >= 5]
    assert len(closed) == 1227  # pi(10^4) = 1229 primes, less 2 and 3 (both bad)


# Non-CM curves whose reduction has j = 0 or 1728 take the closed form too.
@pytest.mark.parametrize(
    "label,p",
    [("11a", 31), ("11a", 41), ("11a", 61), ("389a", 7), ("389a", 107), ("5077a", 5), ("5077a", 7)],
)
def test_non_cm_reductions_at_j_0_or_1728_take_the_closed_form(monkeypatch, label, p):
    rc = reduce_mod(get_curve(label), p)
    bsgs = _spy(monkeypatch, "_group_order_bsgs")
    j0 = _spy(monkeypatch, "_order_j0")
    j1728 = _spy(monkeypatch, "_order_j1728")
    n = count_points(rc)
    assert bsgs == []
    assert j0 + j1728 == [n]
    assert n == naive_count(rc)


def test_two_torsion_class_matches_naive_on_x3_plus_2():
    """y^2 = x^3 + 2 has one root at p = 2 (mod 3), none or three at p = 1."""
    curve = WeierstrassCurve(0, 0, 0, 0, 2)
    classes = set()
    for p in primes_up_to(4095):
        rc = reduce_mod(curve, p)
        if p >= 5 and rc.good:
            classes.add(_check_two_torsion_class(rc, naive_count(rc)))
    assert classes == {(0, 2), (1, 2), (0, 4)}


def test_point_multiples_in_window_is_exact():
    """Every point of each short model (one y per x) and every progression
    N = n0 (mod M) against a brute-force scan of the window."""
    seen = set()
    for label, p in (("37a", 5), ("37a", 31), ("37a", 83), ("11a", 61), ("32a", 97), ("389a", 131)):
        a, b = short_model(reduce_mod(get_curve(label), p))
        half = isqrt(4 * p)
        lo, hi = p + 1 - half, p + 1 + half
        for x in range(p):
            t = (x * x * x + a * x + b) % p
            if t and pow(t, (p - 1) // 2, p) != 1:
                continue
            y = next(y for y in range(p) if y * y % p == t)
            kills = [N for N in range(lo, hi + 1) if _jmul(p, a, N, x, y)[2] == 0]
            order = next(k for k in range(1, hi + 1) if _jmul(p, a, k, x, y)[2] == 0)
            if y == 0:
                seen.add("y = 0")
            for n0, M in ((0, 1), (0, 2), (1, 2), (0, 4)):
                got = _point_multiples_in_window(p, a, x, y, lo, hi, n0, M)
                assert got == [N for N in kills if N % M == n0], (label, p, x, y, n0, M)
                # the branches the kernel takes for this point, recomputed
                first = lo + (n0 - lo) % M
                m = max(2, isqrt((hi - first) // M // 2) + 1)
                order_q = order // gcd(order, M)
                if order_q == 1:
                    seen.add("M * P = O")
                elif order_q <= m:
                    seen.add("a baby is O")
                elif order_q == 2 * m + 1:
                    seen.add("stride is O")
                elif order_q > 2 * m:
                    c0 = -((first - n0) // M) % (2 * m + 1)
                    if c0 > m:
                        seen.add("anchor index c0 < 0")
                    if n0:
                        seen.add("anchor + P")
    assert seen == {
        "y = 0", "M * P = O", "a baby is O", "stride is O",
        "anchor index c0 < 0", "anchor + P",
    }


# Primes 5 <= p < 5000 drawn log-uniformly (an octave, then a prime in it),
# so half the draws are p <= 229, below Mestre's bound, where both walks can
# run dry. The oracle is the O(p) naive_count, itself checked against the
# O(p^2) (x, y) sweep below p = 300.
_OCTAVES = [
    [p for p in primes_up_to(4999) if p >= 5 and p.bit_length() == k] for k in range(3, 14)
]


@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    coeffs=st.tuples(*[st.integers(-999, 999)] * 5),
    p=st.sampled_from(_OCTAVES).flatmap(st.sampled_from),
)
@example(coeffs=(0, 0, 0, -1, 0), p=29)  # 32a: the j = 1728 closed form
@example(coeffs=(0, 1, 1, -2, 0), p=11)  # 389a: both walks run dry, the draws decide
@example(coeffs=(0, -1, 1, -10, -20), p=13)  # 11a: the twist's first point decides
def test_count_points_matches_enumeration_on_random_long_models(coeffs, p):
    try:
        curve = WeierstrassCurve(*coeffs)
    except SingularCurveError:
        assume(False)
    rc = reduce_mod(curve, p)
    assume(rc.good)
    n = naive_count(rc)
    assert count_points(rc) == n
    if p < 300:
        assert n == _count_enumeration(*rc[:6])


def test_short_model_preserves_group_order():
    curve = get_curve("37a")
    for p in (5, 7, 11, 101, 997):
        rc = reduce_mod(curve, p)
        a, b = short_model(rc)
        short = ReducedCurve(p, 0, 0, 0, a, b, True)
        assert naive_count(short) == naive_count(rc), p


def test_quadratic_twist_orders_sum_to_2p_plus_2():
    curve = get_curve("37a")
    for p in (p for p in primes_up_to(300) if p >= 5):
        rc = reduce_mod(curve, p)
        if not rc.good:
            continue
        a, b = short_model(rc)
        d = least_nonresidue(p)
        twist = ReducedCurve(p, 0, 0, 0, a * d * d % p, b * d**3 % p, True)
        assert naive_count(rc) + naive_count(twist) == 2 * p + 2, p


def test_count_points_rejects_a_trace_outside_the_hasse_bound(monkeypatch):
    curve = get_curve("37a")
    for name, p in (("_count_enumeration", 2), ("_group_order_short", 5)):
        monkeypatch.setattr(curves, name, lambda *args: 4 * p + 1)
        with pytest.raises(ArithmeticError, match=f"at p={p} violates the Hasse bound"):
            count_points(reduce_mod(curve, p))


def test_trace_records_counts_2_and_3_without_reducing(monkeypatch):
    reduced = _spy(monkeypatch, "reduce_mod")
    tested = _spy(monkeypatch, "is_prime")
    ps, ns, bad = trace_records(get_curve("37a"), [2, 3])
    assert reduced == [] and tested == []
    assert (list(ps), list(ns), bad) == ([2, 3], [5, 7], [])


@pytest.mark.parametrize("label", LABELS)
def test_hasse_window(label):
    curve = get_curve(label)
    primes = primes_up_to(2000)
    ps, ns, bad = trace_records(curve, primes)
    assert list(ps) == [p for p in primes if reduce_mod(curve, p).good]
    assert bad == [p for p in primes if not reduce_mod(curve, p).good]
    for p, n in zip(ps, ns):
        a = p + 1 - n
        assert a * a <= 4 * p
        assert n / 16 <= p <= 16 * n


def test_known_traces_for_37a():
    curve = get_curve("37a")
    ps, ns, bad = trace_records(curve, list(KNOWN_37A_TRACES))
    assert list(ps) == list(KNOWN_37A_TRACES) and bad == []
    for p, n in zip(ps, ns):
        assert p + 1 - n == KNOWN_37A_TRACES[p], p
        assert n == brute_count(curve, p), p


def test_reduce_mod_examples():
    c37 = get_curve("37a")
    rc = reduce_mod(c37, 5)
    assert (rc.a1, rc.a2, rc.a3, rc.a4, rc.a6) == (0, 0, 1, 4, 0)
    assert rc.good
    assert not reduce_mod(c37, 37).good
    assert not reduce_mod(WeierstrassCurve(0, 0, 0, -1, 1), 2).good  # -368 is even


def test_reduce_mod_requires_prime():
    with pytest.raises(ValueError):
        reduce_mod(get_curve("37a"), 4)


def test_bad_reduction_errors():
    rc = reduce_mod(get_curve("37a"), 37)
    with pytest.raises(BadReductionError):
        count_points(rc)
    with pytest.raises(BadReductionError):
        naive_count(rc)
    ps, ns, bad = trace_records(get_curve("37a"), [37])
    assert (len(ps), len(ns), bad) == (0, 0, [37])


def test_builtin_registry():
    curves = builtin_curves()
    assert set(curves) == set(LABELS)
    assert curves["37a"].coefficients() == (0, 0, 1, -1, 0)
    assert curves["32a"].cm
    assert not curves["37a"].cm


# (j, D): the CM curves over Q, j = c4^3 / disc, each with CM by the order of
# discriminant D. a_p = 0 at every good p inert in Q(sqrt(D)) proves the pair.
CM_J_AND_DISCRIMINANT = [
    (0, -3), (1728, -4), (-3375, -7), (8000, -8), (-32768, -11), (54000, -12),
    (287496, -16), (-884736, -19), (-12288000, -27), (16581375, -28),
    (-884736000, -43), (-147197952000, -67), (-262537412640768000, -163),
]


def curve_with_j(j: int) -> WeierstrassCurve:
    if j in (0, 1728):
        return WeierstrassCurve(0, 0, 0, int(j == 1728), int(j == 0))
    k = 1728 - j
    return WeierstrassCurve(0, 0, 0, 3 * j * k, 2 * j * k * k)


def inert_traces(curve: WeierstrassCurve, D: int):
    """a_p at every good odd p < 2000 with p inert in Q(sqrt(D))."""
    for p in primes_up_to(2000)[1:]:
        if D % p and pow(D, (p - 1) // 2, p) == p - 1 and curve.disc % p:
            yield p, p + 1 - count_points(reduce_mod(curve, p))


@pytest.mark.parametrize("j, D", CM_J_AND_DISCRIMINANT)
def test_cm_table_entry_has_zero_trace_at_inert_primes(j, D):
    curve = curve_with_j(j)
    c4 = _short_coefficients(*curve.coefficients())[0] // -27
    assert c4**3 == j * curve.disc
    assert curve.cm
    traces = dict(inert_traces(curve, D))
    assert len(traces) > 100
    assert set(traces.values()) == {0}, (j, D)


@pytest.mark.parametrize("label", ["37a", "389a", "5077a", "11a"])
def test_non_cm_curve_has_nonzero_trace_at_an_inert_prime_of_every_field(label):
    curve = get_curve(label)
    assert not curve.cm
    for _, D in CM_J_AND_DISCRIMINANT:
        assert any(a for _, a in inert_traces(curve, D)), (label, D)


def test_cm_is_computed_and_a_claim_is_checked():
    assert curves._CM_J == {j for j, _ in CM_J_AND_DISCRIMINANT}
    assert WeierstrassCurve(0, 0, 0, 0, 2).cm
    assert WeierstrassCurve(0, 0, 0, 0, 2, cm=True).cm
    with pytest.raises(ValueError) as exc:
        WeierstrassCurve(0, 0, 0, 0, 2, cm=False)
    assert type(exc.value) is ValueError
    with pytest.raises(ValueError):
        parse_curve_line("x:0,0,1,-1,0,cm=1")
    moved = get_curve("37a")._replace(a3=0, a4=0, a6=2)
    assert moved.cm and moved.disc == discriminant(0, 0, 0, 0, 2)
    assert pickle.loads(pickle.dumps(moved)).cm
    assert not moved._replace(a4=-1, a6=1).cm


def test_parse_curve_line():
    c = parse_curve_line("x1:0,0,1,0,-7,cm=1")  # 27a, j = 0
    assert c.label == "x1"
    assert c.coefficients() == (0, 0, 1, 0, -7)
    assert c.cm
    plain = parse_curve_line("p:0,0,1,-1,0")
    assert not plain.cm


@pytest.mark.parametrize(
    "line",
    [
        "no colon here",
        "lbl:1,2,3",
        "lbl:1,2,3,4,x",
        "lbl:1,2,3,4,5,bogus=1",
        "lbl:1,2,3,4,5,serre=74",
        "lbl:0,0,1,-1,0,cm=0,cm=0",
        ":1,2,3,4,5",
        "a,b:0,0,1,-1,0",
    ],
)
def test_parse_curve_line_rejects_malformed(line):
    with pytest.raises(ValueError):
        parse_curve_line(line)


def test_load_curve_file(tmp_path):
    path = tmp_path / "curves.txt"
    path.write_text("# comment\n\nw:0,0,1,-1,0,cm=0\nv:0,0,0,1,1\n")
    curves = load_curve_file(str(path))
    assert set(curves) == {"w", "v"}
    dup = tmp_path / "dup.txt"
    dup.write_text("w:0,0,1,-1,0\nw:0,0,0,1,1\n")
    with pytest.raises(ValueError):
        load_curve_file(str(dup))


def test_get_curve_unknown_label():
    with pytest.raises(KeyError) as exc:
        get_curve("zz9")
    assert "37a" in exc.value.args[0]
