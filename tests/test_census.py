"""Census records, verdict flags, decomposition, congruence and multiplicity stats."""
import io
import json
import math
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from array import array
from collections import Counter
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eclab import census, curves, primes
from eclab.arith import is_prime
from eclab.census import (
    RECORDS_HEADER,
    TASK_PRIMES,
    CensusResult,
    CongruenceRow,
    congruence_stats,
    decompose_pseudoprimes,
    multiplicity_stats,
    run_census,
    smooth_split,
    summarize,
    worker_count,
    write_records_csv,
    write_summary_json,
)
from eclab.curves import (
    TraceRecord,
    WeierstrassCurve,
    get_curve,
    naive_count,
    reduce_mod,
)
from eclab.gl2 import class_density
from eclab.primes import DEFAULT_SEGMENT, primes_up_to
from eclab.pseudoprimes import FERMAT_BIT, PRIME_BIT, PSEUDO_BIT, pomerance_scale


CURVE = get_curve("37a")


def columns(records):
    """The p and n columns of (p, a_p, n) rows."""
    return [array("q", [rec[i] for rec in records]) for i in (0, 2)]


def result_of(x, base, strict, records, verdicts, skipped_bad=()):
    """CensusResult of curve 37a holding the given rows (synthetic)."""
    return CensusResult(
        CURVE, x, base, strict, *columns(records), verdicts, list(skipped_bad)
    )


def pseudo_result(ns, x, base=2):
    """CensusResult with every n flagged as a pseudoprime (synthetic)."""
    records = [TraceRecord(2 * i + 3, 0, n) for i, n in enumerate(ns)]
    verdicts = bytes([FERMAT_BIT | PSEUDO_BIT] * len(ns))
    return result_of(x, base, False, records, verdicts)


def test_small_census_records_and_verdicts():
    result = run_census(CURVE, 10, threads=1)
    assert result.records == [
        TraceRecord(2, -2, 5),
        TraceRecord(3, -3, 7),
        TraceRecord(5, -2, 8),
        TraceRecord(7, -1, 9),
    ]
    assert bytes(result.verdicts) == bytes([3, 3, 0, 0])
    assert result.skipped_bad == []
    # bit semantics: 3 = fermat | prime, and 5, 7 are the prime orders
    assert FERMAT_BIT | PRIME_BIT == 3 and PSEUDO_BIT == 4


def test_census_skips_bad_reduction():
    result = run_census(CURVE, 100, threads=1)
    assert result.skipped_bad == [37]
    assert len(result.records) == 24
    assert all(rec.p != 37 for rec in result.records)


def test_verdicts_match_direct_reclassification():
    result = run_census(CURVE, 3000, threads=1)
    for rec, v in zip(result.records, result.verdicts):
        fermat = pow(2, rec.n, rec.n) == 2 % rec.n
        prime = is_prime(rec.n)
        assert bool(v & FERMAT_BIT) == fermat
        assert bool(v & PRIME_BIT) == prime
        assert bool(v & PSEUDO_BIT) == (fermat and not prime and rec.n != 1)


def test_summary_partition_default_mode():
    result = run_census(CURVE, 3000, threads=1)
    summary = summarize(result)
    assert summary.Q == summary.meta["fermat_prime_count"] + summary.pseu + summary.unit_count
    assert summary.meta["partition_ok"] and summary.meta["twin_le_Q"]
    assert summary.unit_count == 0
    assert summary.twin == sum(1 for rec in result.records if is_prime(rec.n))
    assert summary.meta["good_count"] == len(result.records)


def test_summary_strict_mode_counterexample():
    # base 5, strict: the prime order 5 fails 5^4 = 0 mod 5, so twin > Q
    result = run_census(CURVE, 10, base=5, strict=True, threads=1)
    summary = summarize(result)
    assert summary.twin == 2
    assert summary.Q == 1
    assert summary.meta["fermat_prime_count"] == 1
    assert summary.meta["partition_ok"]
    assert not summary.meta["twin_le_Q"]


def test_unit_bucket():
    records = [TraceRecord(2, 2, 1)]
    result = result_of(10, 2, False, records, bytes([FERMAT_BIT]))
    summary = summarize(result)
    assert summary.unit_count == 1 and summary.Q == 1 and summary.pseu == 0
    assert summary.meta["partition_ok"]


def test_result_alignment_checked():
    with pytest.raises(ValueError):
        result_of(10, 2, False, [TraceRecord(2, -2, 5)], bytes())
    empty = array("q")
    with pytest.raises(ValueError):
        CensusResult(
            curve=CURVE, x=10, base=2, strict=False, p=empty, n=empty,
            verdicts=b"\0", skipped_bad=[],
        )
    aligned = result_of(10, 2, False, [TraceRecord(2, -2, 5)], bytes(1))
    with pytest.raises(ValueError):
        aligned._replace(verdicts=bytes())
    # every column is checked, not only the verdicts against p
    for name in ("p", "n"):
        with pytest.raises(ValueError):
            aligned._replace(**{name: array("q")})
    assert aligned.records == [TraceRecord(2, -2, 5)]
    with pytest.raises(ValueError):
        run_census(CURVE, 1)


def test_worker_count(monkeypatch):
    monkeypatch.delenv("ECLAB_THREADS", raising=False)
    assert worker_count(2) == 2
    assert worker_count(None) == (os.cpu_count() or 1)
    monkeypatch.setenv("ECLAB_THREADS", "3")
    assert worker_count(None) == 3
    assert worker_count(1) == 1  # explicit argument wins
    with pytest.raises(ValueError):
        worker_count(0)


def test_census_deterministic_across_workers(monkeypatch):
    # x = 500 is one task in one default segment, so every worker count
    # runs it in process. x = 3000 in segments of 256 is 12 segments: tasks
    # of 10 primes cross their boundaries, and tasks of 64 primes make 7
    # tasks that the workers share unevenly.
    for x, segment_len, task_primes in (
        (500, DEFAULT_SEGMENT, TASK_PRIMES),
        (3000, 256, 10),
        (3000, 256, 64),
    ):
        monkeypatch.setattr(census, "TASK_PRIMES", task_primes)
        monkeypatch.setattr(
            census,
            "iter_prime_segments",
            partial(primes.iter_prime_segments, segment_len=segment_len),
        )
        one = run_census(CURVE, x, threads=1)
        for workers in (2, 3):
            many = run_census(CURVE, x, threads=workers)
            assert many.records == one.records
            assert bytes(many.verdicts) == bytes(one.verdicts)
            assert many.skipped_bad == one.skipped_bad
        ps = [r.p for r in one.records]
        assert ps == sorted(ps) and sorted(ps + one.skipped_bad) == primes_up_to(x)


@pytest.mark.parametrize(
    "curve",
    [
        get_curve("389a"),
        get_curve("11a"),
        get_curve("5077a"),
        WeierstrassCurve(1, -1, 1, -3, 5),
    ],
    ids=["389a", "11a", "5077a", "1,-1,1,-3,5"],
)
def test_census_matches_naive_count_on_long_models(curve):
    # a1, a2, a3 are not all zero, so the short model differs from the long
    # one. The last curve has disc -7874 = -2 * 31 * 127: bad at 2, good at 3.
    result = run_census(curve, 3000, threads=1)
    primes = primes_up_to(3000)
    assert result.skipped_bad == [p for p in primes if curve.disc % p == 0]
    assert [rec.p for rec in result.records] == [p for p in primes if curve.disc % p]
    for rec in result.records:
        n = naive_count(reduce_mod(curve, rec.p))
        assert rec == (rec.p, rec.p + 1 - n, n), rec.p


def test_census_computes_short_model_once_per_task(monkeypatch):
    calls = []
    real = curves._short_coefficients
    monkeypatch.setattr(
        curves, "_short_coefficients", lambda *a: calls.append(a) or real(*a)
    )
    monkeypatch.setattr(census, "TASK_PRIMES", 100)
    result = run_census(CURVE, 3000, threads=1)
    # 430 primes make ceil(430 / 100) = 5 tasks, also when they span 12
    # segments: a task takes its primes across segment boundaries
    assert len(result.records) + len(result.skipped_bad) == 430
    assert calls == [CURVE.coefficients()] * 5
    monkeypatch.setattr(
        census, "iter_prime_segments", partial(primes.iter_prime_segments, segment_len=256)
    )
    calls.clear()
    assert run_census(CURVE, 3000, threads=1) == result
    assert calls == [CURVE.coefficients()] * 5


def order_scan(b, d):
    v, m = b % d, 1
    while v != 1 % d:
        v = v * b % d
        m += 1
    return m


def labels_oracle(n, x, base, L):
    fac, m, d = set(), n, 2
    while d * d <= m:
        while m % d == 0:
            fac.add(d)
            m //= d
        d += 1
    if m > 1:
        fac.add(m)
    free = [ell for ell in fac if base % ell]
    labels = set()
    if n <= x / L:
        labels.add("s1")
    if any(ell > L**3 and order_scan(base, ell) <= L for ell in free):
        labels.add("s2")
    if any(order_scan(base, ell) > L for ell in free):
        labels.add("s3")
    if n > x / L and all(ell <= L**3 for ell in free):
        labels.add("s4")
    return labels


def test_decomposition_against_scan_oracle():
    ns = [341, 561, 1729, 19951]
    x = 10**5
    result = pseudo_result(ns, x)
    decomp = decompose_pseudoprimes(result)
    L = pomerance_scale(x)
    assert decomp.L == L

    expected = Counter()
    for n in ns:
        for name in labels_oracle(n, x, 2, L):
            expected[name] += 1
    for name in ("s1", "s2", "s3", "s4"):
        assert decomp.counts[name] == expected[name], name
    assert list(decomp.counts) == list(decomp.members) == ["s1", "s2", "s3", "s4"]

    assert decomp.members["s1"] == (341, 561)
    assert decomp.members["s2"] == ()
    assert decomp.members["s3"] == (19951,)  # ord_281(2) = 70 > L = 67.3
    assert decomp.members["s4"] == (1729, 19951)
    names = ("s1", "s2", "s3", "s4")
    i3, i4 = names.index("s3"), names.index("s4")
    assert decomp.overlap[i3][i4] == decomp.overlap[i4][i3] == 1
    assert decomp.overlap[0][0] == 2 and decomp.overlap[i4][i4] == 2

    # all four ns are odd, so the base-2 smooth part is trivial
    assert decomp.s4_smooth_heavy == 0 and decomp.s4_rest == 2
    assert decomp.s4_smooth_heavy + decomp.s4_rest == decomp.counts["s4"]
    assert decomp.s4_window_hit == 0  # (x^(1/18), x^(1/17)] holds no integer

    d = decomp.to_dict()
    # the clamp flag lives once, in summary meta (meta.L_clamped)
    # the class sizes live once, in summary s_classes (and the diagonal)
    assert list(d) == ["L", "overlap", "s4_split", "members"]
    assert d["s4_split"] == {"smooth_heavy": 0, "rest": 2, "window_hit": 0}


def test_decomposition_reads_orders_not_lambda():
    # ord_73(2) = 9 and ord_616318177(2) = 37 lie below L = 67.3 while ell - 1
    # does not, and 616318177 > L^3 puts 2^37 - 1 = 223 * 616318177 in s2
    ns = [5 * 73, 2**37 - 1]
    x = 10**5
    decomp = decompose_pseudoprimes(pseudo_result(ns, x))
    for n in ns:
        labels = {name for name, members in decomp.members.items() if n in members}
        assert labels == labels_oracle(n, x, 2, decomp.L), n
    assert decomp.members["s2"] == (2**37 - 1,)
    assert decomp.members["s3"] == ()


def test_decomposition_smooth_and_window_branches():
    # x = 3^17 puts the divisor window at (3^(17/18), 3], so a power of 3
    # registers a hit; 2^18 exceeds x^(2/3) and lands in the smooth-heavy bin
    x = 3**17
    L = pomerance_scale(x)
    assert 3**11 > x / L and 2**18 > x ** (2 / 3)
    decomp = decompose_pseudoprimes(pseudo_result([3**11, 2**18], x))
    assert decomp.counts == {"s1": 0, "s2": 0, "s3": 0, "s4": 2}
    assert decomp.s4_smooth_heavy == 1
    assert decomp.s4_rest == 1
    assert decomp.s4_window_hit == 1


def test_decomposition_l_clamp_flag():
    result = pseudo_result([6], 10)
    decomp = decompose_pseudoprimes(result)
    assert decomp.L == 1.0
    assert summarize(result, decomp).meta["L_clamped"] is True
    assert decomp.counts["s1"] == 1 and decomp.counts["s4"] == 0  # 6 <= 10/1


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    ns=st.lists(st.integers(2, 10**6), min_size=1, max_size=8),
    x=st.one_of(st.integers(2, 40), st.integers(2, 10**12)),
    base=st.integers(2, 40),
)
@example(ns=[2**19, 2**10, 12], x=10**5, base=2)  # b-smooth: no prime ell is prime to b
@example(ns=[2**4, 1000, 15], x=15, base=2)  # x <= e^e clamps L to 1
@example(ns=[6, 3**12], x=16, base=3)  # just past the clamp, L = 1.05
def test_decomposition_covers_every_order(ns, x, base):
    """The classes s1-s4 cover every order n: let F = {ell | n : ell ∤ b}.

    If n <= x/L, n is in s1. Otherwise, if every ell in F is <= L^3, n is in
    s4; this includes F = ∅, when n is b-smooth. Otherwise some ell in F
    exceeds L^3: if ord_ell(b) <= L, n is in s2, and if ord_ell(b) > L, n
    is in s3. Each pair of complementary tests is one float expression
    read both ways (n <= x/L against n > x/L, ell > L^3 against ell <= L^3,
    ord <= L against ord > L), so the complements hold exactly, also at
    the clamp L = 1.
    """
    decomp = decompose_pseudoprimes(pseudo_result(ns, x, base))
    covered = set().union(*(decomp.members[name] for name in ("s1", "s2", "s3", "s4")))
    assert covered == set(ns)
def decomposition_oracle(ns, verdicts, x, base):
    """Counts, overlap, s4 bins and members, one row at a time."""
    L = pomerance_scale(x)
    names = ("s1", "s2", "s3", "s4")
    counts = Counter({name: 0 for name in names})
    overlap = [[0] * 4 for _ in names]
    members = {name: set() for name in counts}
    heavy = rest = window = 0
    for n, v in zip(ns, verdicts):
        if not v & PSEUDO_BIT:
            continue
        labels = labels_oracle(n, x, base, L)
        assert labels, n  # the classes cover every order
        for name in labels:
            counts[name] += 1
            members[name].add(n)
        for i, a in enumerate(names):
            for j, b in enumerate(names):
                overlap[i][j] += a in labels and b in labels
        if "s4" in labels:
            coprime = n
            while math.gcd(coprime, base) > 1:
                coprime //= math.gcd(coprime, base)
            if (n // coprime) ** 3 > x * x:  # n' > x^(2/3)
                heavy += 1
            else:
                rest += 1
                window += any(
                    d**18 > x >= d**17 and math.gcd(d, base) == 1
                    for d in range(1, coprime + 1)
                    if coprime % d == 0
                )
    return (
        dict(counts),
        tuple(tuple(row) for row in overlap),
        (heavy, rest, window),
        {name: tuple(sorted(m)) for name, m in members.items()},
    )


@pytest.mark.parametrize(
    "x, ns, s4_bins",
    [
        # 1729 and 19951 are s4; 12288 = 2^12 * 3 is s4 and smooth-heavy
        (10**5, [1729, 341, 19951, 341, 561, 1729, 12288, 1729, 19951, 12288], (2, 5, 0)),
        # 3^11 is s4 with a window hit at x = 3^17, 2^18 is smooth-heavy
        (3**17, [3**11, 2**18, 341, 3**11, 2**18, 561, 2**18, 341, 1729, 1729], (3, 2, 2)),
        # n' = 2^12 of 12288 equals x^(2/3) exactly, which is not smooth-heavy;
        # the float x ** (2 / 3) reads 4095.999999999998
        (2**18, [12288, 341, 2**13 * 3, 12288, 561, 1729, 12288], (1, 3, 0)),
    ],
)
def test_decomposition_with_repeated_orders_matches_per_row_oracle(x, ns, s4_bins):
    # a prime order and a plain composite between the pseudoprime rows
    ns = ns[:3] + [7, 9] + ns[3:] + [7]
    verdicts = bytes(
        FERMAT_BIT | PRIME_BIT if n == 7 else 0 if n == 9 else FERMAT_BIT | PSEUDO_BIT
        for n in ns
    )
    records = [TraceRecord(2 * i + 3, 0, n) for i, n in enumerate(ns)]
    decomp = decompose_pseudoprimes(result_of(x, 2, False, records, verdicts))
    counts, overlap, bins, members = decomposition_oracle(ns, verdicts, x, 2)
    assert decomp.counts == counts
    assert decomp.overlap == overlap
    assert (decomp.s4_smooth_heavy, decomp.s4_rest, decomp.s4_window_hit) == bins == s4_bins
    assert decomp.members == members
    assert list(decomp.counts) == list(decomp.members) == list(counts)


def test_s4_split_at_a_perfect_cube_x():
    # base 100: n' = 100 = x^(2/3) at x = 1000 is not smooth-heavy
    result = run_census(get_curve("11a"), 1000, base=100, threads=1)
    decomp = decompose_pseudoprimes(result)
    bins = (decomp.s4_smooth_heavy, decomp.s4_rest, decomp.s4_window_hit)
    assert bins == decomposition_oracle(result.n, result.verdicts, 1000, 100)[2]
    assert bins == (0, 35, 0)


def test_iroot_is_exact_at_perfect_powers():
    for k in (17, 18):
        for d in range(1, 40):
            assert census._iroot(d**k - 1, k) == d - 1
            assert census._iroot(d**k, k) == census._iroot(d**k + 1, k) == d
    # the s4 window x^(1/18) < d <= x^(1/17) is empty at x = 4^18
    assert census._iroot(4**18, 18) == census._iroot(4**18, 17) == 4


def test_decomposition_classifies_and_splits_each_distinct_order_once(monkeypatch):
    classified, split = [], []
    real_classify, real_split = census._classify_pseudoprime, census.smooth_split
    monkeypatch.setattr(
        census,
        "_classify_pseudoprime",
        lambda n, *a: classified.append(n) or real_classify(n, *a),
    )
    monkeypatch.setattr(
        census, "smooth_split", lambda n, b: split.append(n) or real_split(n, b)
    )
    ns = [19951, 341, 1729, 12288, 341, 1729, 19951, 1729, 12288, 561]
    decomp = decompose_pseudoprimes(pseudo_result(ns, 10**5))
    assert classified == [341, 561, 1729, 12288, 19951]
    assert split == list(decomp.members["s4"]) == [1729, 12288, 19951]
    assert decomp.counts["s4"] == 7 and decomp.s4_smooth_heavy == 2


def test_smooth_split():
    assert smooth_split(341, 2) == (1, 341)
    assert smooth_split(344, 2) == (8, 43)
    assert smooth_split(1, 2) == (1, 1)
    assert smooth_split(720, 6) == (144, 5)
    for n, base in ((341, 2), (344, 2), (720, 6)):
        s, c = smooth_split(n, base)
        assert s * c == n and math.gcd(c, base) == 1


def census_1000():
    return run_census(CURVE, 1000, threads=1)


def test_congruence_histogram_and_expected():
    ns = census_1000().n
    rows = congruence_stats(ns, 5, serre_bound=74)
    hist = Counter(n % 5 for n in ns)
    assert [row.observed for row in rows] == [hist[r] for r in range(5)]
    assert sum(row.observed for row in rows) == len(ns)
    for row in rows:
        assert row.expected == float(class_density(5, row.residue)) * len(ns)
    assert isinstance(rows[0], CongruenceRow)


def test_congruence_expected_disabled():
    ns = census_1000().n
    assert all(r.expected is None for r in congruence_stats(ns, 5))
    assert all(r.expected is None for r in congruence_stats(ns, 5, serre_bound=0))
    assert all(r.expected is None for r in congruence_stats(ns, 37, serre_bound=74))
    assert all(r.expected is None for r in congruence_stats(ns, 15, serre_bound=74))
    with pytest.raises(ValueError):
        congruence_stats(ns, 1)


def test_multiplicity_synthetic():
    records = [TraceRecord(i, 0, n) for i, n in enumerate([5, 5, 5, 7, 7, 8])]
    p, n = columns(records)
    stats = multiplicity_stats(p, n)
    assert stats.counts == {1: 1, 2: 1, 3: 1}  # 8 once, 7 twice, 5 three times
    assert stats.second_moment == 14
    assert sum(m * c for m, c in stats.counts.items()) == len(records)
    assert multiplicity_stats([], []) == ({}, 0)


def test_summary_serialization(tmp_path):
    result = run_census(CURVE, 10, threads=1)
    csv_path = tmp_path / "records.csv"
    write_records_csv(result, str(csv_path))
    assert csv_path.read_text() == (
        RECORDS_HEADER + "\n"
        "2,-2,5,1,0,1\n"
        "3,-3,7,1,0,1\n"
        "5,-2,8,0,0,0\n"
        "7,-1,9,0,0,0\n"
    )
    summary = summarize(result, extra_meta={"threads": 1})
    d = summary._asdict()
    assert list(d) == [
        "x",
        "curve_label",
        "base_b",
        "twin",
        "pseu",
        "Q",
        "unit_count",
        "skipped_bad",
        "s_classes",
        "multiplicity_counts",
        "second_moment",
        "meta",
    ]
    assert d["curve_label"] == "37a" and d["meta"]["threads"] == 1
    # a meta key appears or vanishes only with this list
    assert list(d["meta"]) == [
        "strict_fermat",
        "good_count",
        "fermat_prime_count",
        "partition_ok",
        "twin_le_Q",
        "pseu_to_twin_ratio",
        "L_clamped",
        "cm_curve",
        "threads",
    ]
    json_path = tmp_path / "summary.json"
    write_summary_json(summary, str(json_path))
    text = json_path.read_text()
    assert text.endswith("\n")
    assert json.loads(text) == json.loads(json.dumps(d))


def test_summary_multiplicity_keys_sorted_numerically(tmp_path):
    # no order closes below p = 35, so the open counts meet M = 10 first
    ns = [100] * 10 + [n for n in range(101, 113) for _ in range(2)] + [150]
    result = result_of(
        50, 2, False, [TraceRecord(i, 0, n) for i, n in enumerate(ns)], bytes(len(ns))
    )
    summary = summarize(result)
    assert summary.multiplicity_counts == {1: 1, 2: 12, 10: 1}
    path = tmp_path / "summary.json"
    write_summary_json(summary, str(path))
    counts = json.loads(path.read_text())["multiplicity_counts"]
    assert list(counts) == ["1", "2", "10"]


def test_summary_cm_fields():
    result = run_census(CURVE, 1000, threads=1)
    summary = summarize(result)
    meta = summary.meta
    assert meta["cm_curve"] is False
    counts = summary.multiplicity_counts
    assert sum(m * c for m, c in counts.items()) == meta["good_count"]
    assert sum(m * m * c for m, c in counts.items()) == summary.second_moment
    if summary.twin:
        assert meta["pseu_to_twin_ratio"] == summary.pseu / summary.twin


def test_summarize_scans_no_primes(monkeypatch):
    # the census has sieved already; the summary reads its columns only
    result = run_census(CURVE, 20_000, threads=1)

    def no_sieve(*args, **kwargs):
        raise AssertionError("summarize scanned primes")

    monkeypatch.setattr(census, "iter_prime_segments", no_sieve)
    summary = summarize(result)
    assert summary.meta["good_count"] == len(result.n)


# -- windowed multiplicity count -------------------------------------------------


def multiplicity_oracle(ns):
    """The histogram {M: orders} and second moment from one Counter over every n."""
    counter = Counter(ns)
    return Counter(counter.values()), sum(m * m for m in counter.values())


@pytest.mark.parametrize("label", ["37a", "11a", "32a"])
def test_windowed_multiplicity_matches_counter_on_censuses(label):
    result = run_census(get_curve(label), 20_000, threads=1)
    stats = multiplicity_stats(result.p, result.n)
    counts, second = multiplicity_oracle(result.n)
    assert (stats.counts, stats.second_moment) == (counts, second)
    assert list(stats.counts) == sorted(counts)
    if label == "32a":
        # CM: n(p) = p + 1 at every supersingular p = 3 mod 4, and the ordinary
        # traces are 2u for p = u^2 + v^2, so orders repeat often
        assert max(counts) >= 8


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.lists(
        st.tuples(st.integers(min_value=1, max_value=6), st.integers(min_value=-4, max_value=4)),
        max_size=300,
    ),
)
def test_windowed_multiplicity_matches_counter_on_hasse_columns(start, steps):
    # increasing p with small gaps and traces in [-4, 4], cut to the Hasse
    # bound, so many rows share an order
    ps, ns = [], []
    p = start
    for gap, a in steps:
        p += gap
        while a * a > 4 * p:
            a -= 1 if a > 0 else -1
        ps.append(p)
        ns.append(p + 1 - a)
    stats = multiplicity_stats(array("q", ps), array("q", ns))
    counts, second = multiplicity_oracle(ns)
    assert (stats.counts, stats.second_moment) == (counts, second)
    assert list(stats.counts) == sorted(counts)


def test_multiplicity_rejects_an_order_below_a_passed_floor():
    # at p = 103 every order from there on exceeds 103 - 1 - 2 * 10 = 82;
    # Hasse puts n(103) at 84 or above
    with pytest.raises(ValueError):
        multiplicity_stats([100, 101, 103], [101, 102, 82])
    assert multiplicity_stats([100, 101, 103], [101, 102, 84]).counts == {1: 3}


def test_hasse_window_lies_inside_the_multiplicity_window():
    """Every order n that Hasse allows at p lies within isqrt(81 n) + 1 of p.

    So the distinct primes p with n(p) = n lie in n ± (isqrt(81 n) + 1), and
    the multiplicity of n never exceeds the prime count of that window. For
    p >= 3: Hasse gives |p - n| <= 2 sqrt(p) + 1 and n >= (sqrt(p) - 1)^2, so
    sqrt(n) >= sqrt(p) - 1 and isqrt(81 n) >= 9 sqrt(n) - 1 >= 9 sqrt(p) - 10,
    which is at least 2 sqrt(p) once 7 sqrt(p) >= 10. The loop covers p = 2,
    and checks both ends n = p + 1 ∓ isqrt(4 p) of each integer window.
    """
    violations = [
        (p, n)
        for p in range(2, 10**5 + 1)
        for n in (p + 1 - math.isqrt(4 * p), p + 1 + math.isqrt(4 * p))
        if n >= 1 and abs(p - n) > math.isqrt(81 * n) + 1
    ]
    assert violations == []


# -- forked workers ------------------------------------------------------------------
# A patched _census_chunk is inherited across fork, so these tests inject
# faults into the workers directly.


@pytest.fixture
def deadline():
    """Fail a test whose workers hang, instead of stalling the suite."""

    def expire(signum, frame):
        raise TimeoutError("the census workers hung")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def in_worker_only(action):
    """A _census_chunk stand-in that runs `action` in a forked worker and
    refuses to run in this process, which `action` might end."""
    parent = os.getpid()

    def chunk(task):
        if os.getpid() == parent:
            raise AssertionError("the census ran in process")
        return action(task)

    return chunk


# tasks of 10 primes below 3000 (one segment): the fifth, primes[40:50],
# is the one a fault is injected into
DOOMED = primes_up_to(3000)[40]
REAL_CHUNK = census._census_chunk
REAL_MESSAGES = census._messages


def test_receive_reads_each_message_and_rejects_every_truncated_one():
    task = (CURVE, tuple(primes_up_to(100)), 2, False)

    def failing_tasks():
        yield task
        raise ArithmeticError("injected")

    chunk, end = census._messages(iter([task]))
    same_chunk, raised = census._messages(failing_tasks())
    assert same_chunk == chunk
    stream = io.BytesIO(chunk + raised + end)
    assert census._receive(stream) == census._census_chunk(task)
    with pytest.raises(ArithmeticError, match="injected"):
        census._receive(stream)
    assert census._receive(stream) is None
    for message in (chunk, raised, end):
        for size in range(len(message)):
            with pytest.raises(ChildProcessError):
                census._receive(io.BytesIO(message[:size]))


@pytest.mark.usefixtures("deadline")
def test_task_error_reaches_the_caller(monkeypatch):
    def failing_chunk(task):
        if task[1][0] == DOOMED:
            raise ArithmeticError(f"injected at p={DOOMED}")
        return REAL_CHUNK(task)

    monkeypatch.setattr(census, "TASK_PRIMES", 10)
    monkeypatch.setattr(census, "_census_chunk", in_worker_only(failing_chunk))
    for workers in (2, 3):
        with pytest.raises(ArithmeticError) as info:
            run_census(CURVE, 3000, threads=workers)
        assert info.type is ArithmeticError
        assert str(info.value) == f"injected at p={DOOMED}"
        assert_no_children()


def _exit_in_task(task):
    if task[1][0] == DOOMED:
        os._exit(0)
    return REAL_CHUNK(task)


def _kill_in_task(task):
    if task[1][0] == DOOMED:
        os.kill(os.getpid(), signal.SIGKILL)
    return REAL_CHUNK(task)


def _exit_code_after_trailer(tasks):
    yield from REAL_MESSAGES(tasks)
    raise RuntimeError("after the trailer")  # the worker exits with code 1


def _cut_short(tasks):
    yield next(REAL_MESSAGES(tasks))[:-1]  # then exit 0, without a trailer


@pytest.mark.parametrize(
    "name, fake",
    [
        ("_census_chunk", in_worker_only(_exit_in_task)),
        ("_census_chunk", in_worker_only(_kill_in_task)),
        ("_messages", _exit_code_after_trailer),
        ("_messages", _cut_short),
    ],
    ids=["exit", "sigkill", "exit code after trailer", "short message"],
)
@pytest.mark.usefixtures("deadline")
def test_broken_worker_raises_and_returns_nothing(monkeypatch, name, fake):
    monkeypatch.setattr(census, "TASK_PRIMES", 10)
    monkeypatch.setattr(census, name, fake)
    with pytest.raises(ChildProcessError):
        run_census(CURVE, 3000, threads=2)
    assert_no_children()


def _big_chunk_logger(log_path, rows):
    """A _census_chunk stand-in that logs each task start to `log_path` and
    returns `rows` rows, more than a pipe holds."""
    column = array("q", range(rows))

    def chunk(task):
        with open(log_path, "a") as fh:
            fh.write(f"{task}\n")
        return column, column, bytes(rows), [task]

    return chunk


def _starts(log_path):
    return len(log_path.read_text().splitlines()) if log_path.exists() else 0


def _settled_starts(log_path):
    """The task-start count once it has stopped growing for half a second."""
    last = -1
    for _ in range(100):
        now = _starts(log_path)
        if now == last:
            return now
        last = now
        time.sleep(0.5)
    raise AssertionError("the workers kept starting tasks")


@pytest.mark.usefixtures("deadline")
def test_paused_consumer_holds_the_workers_back(tmp_path, monkeypatch):
    log = tmp_path / "starts.log"
    monkeypatch.setattr(census, "_census_chunk", in_worker_only(_big_chunk_logger(log, 10_000)))
    chunks = census._forked_chunks(iter(range(200)), 2)
    first = next(chunks)
    assert list(first[3]) == [0]
    paused = _settled_starts(log)
    # worker 0 has started tasks 0 and 2, and worker 1 task 1: the result of
    # each task fills a pipe. A few more would still be a bound, 200 not.
    assert 3 <= paused <= 6
    time.sleep(0.5)
    assert _starts(log) == paused
    rest = list(chunks)  # resumed, the workers finish every task in order
    assert [bad for *_, (bad,) in rest] == list(range(1, 200))
    assert _starts(log) == 200
    assert_no_children()


@pytest.mark.usefixtures("deadline")
def test_closing_the_consumer_early_reaps_the_workers(tmp_path, monkeypatch):
    log = tmp_path / "starts.log"
    monkeypatch.setattr(census, "_census_chunk", in_worker_only(_big_chunk_logger(log, 10_000)))
    for workers in (1, 2, 3):
        chunks = census._forked_chunks(iter(range(200)), workers)
        next(chunks)
        chunks.close()
        assert_no_children()


@pytest.mark.usefixtures("deadline")
def test_census_that_raises_mid_stream_reaps_the_workers(monkeypatch):
    # the traceback held in `info` keeps run_census's frame, and with it the
    # suspended chunk stream, alive: only an explicit close reaps the workers
    received = []
    real_receive = census._receive

    def short_second_chunk(reader):
        chunk = real_receive(reader)
        received.append(chunk)
        return chunk[:3] if len(received) == 2 else chunk

    monkeypatch.setattr(census, "TASK_PRIMES", 10)
    monkeypatch.setattr(census, "_receive", short_second_chunk)
    with pytest.raises(ValueError) as info:
        run_census(CURVE, 3000, threads=2)
    assert info.traceback[-1].name == "run_census"  # the unpacking of the chunk
    assert_no_children()


ABANDONED_STREAM = """
from eclab import census
from eclab.curves import get_curve

census.TASK_PRIMES = 10
tasks = ((get_curve("37a"), run, 2, False) for run in census._prime_runs(3000))
chunks = census._forked_chunks(tasks, 2)
next(chunks)
raise RuntimeError("the consumer failed")
"""


def test_a_stream_left_open_reaps_its_workers_at_exit():
    # the stream is finalized at interpreter shutdown, when nothing can be
    # imported any more
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(census.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", ABANDONED_STREAM],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1] == "RuntimeError: the consumer failed"
    assert "Exception ignored" not in proc.stderr


@pytest.mark.parametrize(
    "x, task_primes, forks",
    [
        # pi(10^4) = 1229 primes are one task: no worker is forked
        (10_000, TASK_PRIMES, 0),
        # 430 primes in tasks of 90 are 5 tasks; the bound 470.3 / 90 allows
        # 6 workers, one of which gets no task
        (3000, 90, 6),
    ],
)
@pytest.mark.usefixtures("deadline")
def test_census_forks_no_more_workers_than_tasks(monkeypatch, x, task_primes, forks):
    monkeypatch.setattr(census, "TASK_PRIMES", task_primes)
    want = run_census(CURVE, x, threads=1)
    pids = []
    real_fork = os.fork

    def counting_fork():
        pids.append(real_fork())
        return pids[-1]

    monkeypatch.setattr(os, "fork", counting_fork)
    assert run_census(CURVE, x, threads=8) == want
    assert len(pids) == forks
    assert_no_children()


def test_census_runs_in_process_without_fork(monkeypatch):
    monkeypatch.setattr(census, "TASK_PRIMES", 100)
    want = run_census(CURVE, 3000, threads=1)
    pids = []
    real_chunk = census._census_chunk
    monkeypatch.setattr(
        census, "_census_chunk", lambda task: pids.append(os.getpid()) or real_chunk(task)
    )
    monkeypatch.delattr(os, "fork")
    assert run_census(CURVE, 3000, threads=2) == want
    assert pids == [os.getpid()] * 5  # ceil(430 / 100) tasks, all in process


# -- memory ----------------------------------------------------------------------


def test_census_memory_per_good_prime(tmp_path, monkeypatch):
    # Python heap peak over census, summary and CSV writer, per good prime.
    # The traced run reads each n(p) from a first, untraced run: the same
    # rows, without the short-lived integers of point counting, which would
    # make tracemalloc's hook some 60 times slower than the census itself.
    # Columns hold 17 bytes a row; the segment's prime array is a constant.
    # Measured at x = 5e4 under pytest on Python 3.11: 81.4 bytes a row with
    # the p and n columns (82.8 with this test alone), 89.9 with an a_p
    # column as well, 214 with one TraceRecord per row and a Counter over
    # every n. pytest has already imported heapq, which summarize imports;
    # a bare interpreter also counts that import, about 6.5 bytes a row.
    first = run_census(CURVE, 50_000, threads=1)
    orders = dict(zip(first.p, first.n))
    monkeypatch.setattr(curves, "_group_order_short", lambda p, a, b: orders[p])
    tracemalloc.start()
    try:
        result = run_census(CURVE, 50_000, threads=1)
        summarize(result)
        write_records_csv(result, str(tmp_path / "records.csv"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / len(result.n) < 86


def test_summarize_memory_does_not_grow_with_the_rows():
    # summarize holds counts, the verdict tally and the orders still inside
    # the Hasse window, never a per-order table. Measured on Python 3.11
    # after an untraced warm-up call: 10.0 KiB at 5e4 and 13.9 KiB at 2e5;
    # with the per-order table it was 41.9 and 135.6 KiB.
    peaks = []
    for x in (50_000, 200_000):
        result = run_census(CURVE, x, threads=2)
        summarize(result)  # imports and caches are not the summary's
        tracemalloc.start()
        try:
            summarize(result)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    assert peaks[1] - peaks[0] < 16 * 1024, peaks
