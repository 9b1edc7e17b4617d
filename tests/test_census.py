"""Census records, verdict flags, decomposition, congruence and multiplicity stats."""
import json
import math
import os
from collections import Counter

import pytest

from eclab.arith import is_prime
from eclab.census import (
    FERMAT_BIT,
    PRIME_BIT,
    PSEUDO_BIT,
    RECORDS_HEADER,
    CensusResult,
    CongruenceRow,
    _worker_count,
    congruence_stats,
    decompose_pseudoprimes,
    multiplicity_stats,
    run_census,
    smooth_split,
    summarize,
    write_records_csv,
    write_summary_json,
)
from eclab.curves import TraceRecord, get_curve
from eclab.gl2 import class_density
from eclab.pseudoprimes import pomerance_scale


CURVE = get_curve("37a")


def pseudo_result(ns, x, base=2):
    """CensusResult with every n flagged as a pseudoprime (synthetic)."""
    records = [TraceRecord(2 * i + 3, 0, n) for i, n in enumerate(ns)]
    verdicts = bytes([FERMAT_BIT | PSEUDO_BIT] * len(ns))
    return CensusResult(CURVE, x, base, False, records, verdicts, [])


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
    result = CensusResult(CURVE, 10, 2, False, records, bytes([FERMAT_BIT]), [])
    summary = summarize(result)
    assert summary.unit_count == 1 and summary.Q == 1 and summary.pseu == 0
    assert summary.meta["partition_ok"]


def test_result_alignment_checked():
    with pytest.raises(ValueError):
        CensusResult(CURVE, 10, 2, False, [TraceRecord(2, -2, 5)], bytes(), [])
    with pytest.raises(ValueError):
        run_census(CURVE, 1)


def test_worker_count(monkeypatch):
    monkeypatch.delenv("ECLAB_THREADS", raising=False)
    assert _worker_count(2) == 2
    assert _worker_count(None) == (os.cpu_count() or 1)
    monkeypatch.setenv("ECLAB_THREADS", "3")
    assert _worker_count(None) == 3
    assert _worker_count(1) == 1  # explicit argument wins
    with pytest.raises(ValueError):
        _worker_count(0)


def test_census_deterministic_across_workers():
    one = run_census(CURVE, 500, threads=1)
    two = run_census(CURVE, 500, threads=2)
    assert one.records == two.records
    assert bytes(one.verdicts) == bytes(two.verdicts)
    assert one.skipped_bad == two.skipped_bad


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
    assert decomp.counts["unclassified"] == 0

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
    assert list(d) == ["L", "L_clamped", "classes", "overlap", "s4_split", "members"]
    assert d["L_clamped"] is False
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
    assert decomp.counts["s4"] == 2 and decomp.counts["unclassified"] == 0
    assert decomp.s4_smooth_heavy == 1
    assert decomp.s4_rest == 1
    assert decomp.s4_window_hit == 1


def test_decomposition_l_clamp_flag():
    decomp = decompose_pseudoprimes(pseudo_result([6], 10))
    assert decomp.L == 1.0
    assert decomp.to_dict()["L_clamped"] is True
    assert decomp.counts["s1"] == 1 and decomp.counts["s4"] == 0  # 6 <= 10/1


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
    records = census_1000().records
    rows = congruence_stats(records, 5, serre_bound=74)
    hist = Counter(rec.n % 5 for rec in records)
    assert [row.observed for row in rows] == [hist[r] for r in range(5)]
    assert sum(row.observed for row in rows) == len(records)
    for row in rows:
        assert row.expected == float(class_density(5, row.residue)) * len(records)
    assert isinstance(rows[0], CongruenceRow)


def test_congruence_expected_disabled():
    records = census_1000().records
    assert all(r.expected is None for r in congruence_stats(records, 5))
    assert all(r.expected is None for r in congruence_stats(records, 5, serre_bound=0))
    assert all(r.expected is None for r in congruence_stats(records, 37, serre_bound=74))
    assert all(r.expected is None for r in congruence_stats(records, 15, serre_bound=74))
    with pytest.raises(ValueError):
        congruence_stats(records, 1)


def test_multiplicity_synthetic():
    records = [TraceRecord(i, 0, n) for i, n in enumerate([5, 5, 5, 7, 7, 8])]
    stats = multiplicity_stats(records)
    assert stats.table == {5: 3, 7: 2}
    assert stats.second_moment == 14
    assert stats.collision_pairs == 8
    assert stats.second_moment == stats.collision_pairs + len(records)
    assert stats.ceiling_ok and stats.ceiling_failures == ()
    slope = (math.log(3) - math.log(2)) / (math.log(5) - math.log(7))
    assert stats.fitted_delta == pytest.approx(slope)


def test_multiplicity_ceiling_failure():
    # 50 primes sharing order 100 would exceed the prime count of the
    # window [100 - 91, 100 + 91]; the ceiling must catch that
    records = [TraceRecord(i, 0, 100) for i in range(50)]
    stats = multiplicity_stats(records)
    assert not stats.ceiling_ok
    assert stats.ceiling_failures == ((100, 50, 40),)
    empty = multiplicity_stats([])
    assert empty.table == {} and empty.ceiling_ok and empty.fitted_delta is None


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
    d = summary.to_dict()
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
        "multiplicity",
        "second_moment",
        "meta",
    ]
    assert d["curve_label"] == "37a" and d["meta"]["threads"] == 1
    json_path = tmp_path / "summary.json"
    write_summary_json(summary, str(json_path))
    text = json_path.read_text()
    assert text.endswith("\n")
    assert json.loads(text) == json.loads(json.dumps(d))


def test_summary_multiplicity_keys_sorted_numerically():
    ns = [100, 100, 20, 20, 9, 9, 9]
    result = CensusResult(
        CURVE,
        50,
        2,
        False,
        [TraceRecord(i, 0, n) for i, n in enumerate(ns)],
        bytes(len(ns)),
        [],
    )
    d = summarize(result).to_dict()
    assert list(d["multiplicity"]) == ["9", "20", "100"]
    assert d["multiplicity"]["9"] == 3


def test_summary_cm_fields():
    result = run_census(CURVE, 1000, threads=1)
    summary = summarize(result)
    meta = summary.meta
    assert meta["cm_curve"] is False
    assert meta["cm_reference_scale"] == pytest.approx(1000 / math.log(1000) ** 0.9)
    assert meta["cm_signal"] == (summary.second_moment > meta["cm_reference_scale"])
    assert meta["max_multiplicity"] == max(summary.multiplicity.values(), default=1)
    assert meta["collision_pairs"] == summary.second_moment - len(result.records)
    if summary.twin:
        assert meta["pseu_to_twin_ratio"] == summary.pseu / summary.twin
