"""Sieve densities, Euler products, envelopes, and the empirical S/T split."""
import json
import math
import random
import tracemalloc
from array import array
from fractions import Fraction

import pytest

import eclab.gl2
import eclab.sieve
from eclab.census import CensusResult, run_census
from eclab.cli import main
from eclab.curves import TraceRecord, get_curve
from eclab.gl2 import class_density
from eclab.primes import primes_up_to
from eclab.pseudoprimes import FERMAT_BIT, PRIME_BIT, PSEUDO_BIT, fermat_holds
from eclab.sieve import (
    EULER_GAMMA,
    EXP_EULER_GAMMA,
    SieveParams,
    SieveReport,
    build_sieve_report,
    count_envelope,
    density_product,
    empirical_S,
    empirical_T,
    euler_constant_product,
    euler_gamma_series,
    linear_sieve_F,
    mertens_ratio,
    preset_params,
    sieve_density,
)


def test_gamma_constants_recomputed():
    assert abs(euler_gamma_series() - EULER_GAMMA) < 1e-14
    assert abs(math.exp(EULER_GAMMA) - EXP_EULER_GAMMA) < 1e-15


def test_density_literals():
    assert sieve_density(2) == Fraction(4, 3)
    assert sieve_density(3) == Fraction(21, 16)
    assert sieve_density(5) == Fraction(115, 96)
    assert sieve_density(5, y=7) == Fraction(0)
    with pytest.raises(ValueError):
        sieve_density(1)
    with pytest.raises(ValueError):
        sieve_density(4)  # the weight is defined at primes only


def test_density_condition_a0():
    # 0 < w(p)/p < 1 wherever the weight is supported
    for p in primes_up_to(1000):
        w = sieve_density(p)
        assert 0 < w < p


def test_weight_is_ell_times_class_density_at_zero():
    # w(ell)/ell is the density of C_0(ell), the GL2 classes with ell | n(p)
    for ell in primes_up_to(199):
        assert sieve_density(ell) == ell * class_density(ell, 0)


def test_density_product_literals():
    assert abs(density_product(1, 3) - 1 / 3) < 1e-15
    assert abs(density_product(1, 4) - 3 / 16) < 1e-15
    assert density_product(5, 5) == 1.0  # empty product
    assert density_product(1, 2) == 1.0  # no primes below 2
    with pytest.raises(ValueError):
        density_product(1, -1)


def fraction_density_product(y, z) -> float:
    """V_y(z) as one exact Fraction per prime, each rounded to a double."""
    v = 1.0
    for p in primes_up_to(max(0, math.ceil(z) - 1)):
        if p >= y:
            v *= float(1 - Fraction(p * (p * p - 2), (p - 1) * (p * p - 1)) / p)
    return v


@pytest.mark.parametrize("y, z", [
    (1, 3), (1, 1000), (1, 10**4), (1.0, 12345.6),
    (2, 2), (97, 97), (500.5, 500.5),
    (2.5, 777.7), (13.3, 4096.5), (99.9, 10**4 + 0.25),
])
def test_density_product_matches_fraction_product(y, z):
    assert density_product(y, z) == fraction_density_product(y, z)


def test_telescoping_identity():
    rng = random.Random(20260817)
    cache = {}

    def v1(z):
        if z not in cache:
            cache[z] = density_product(1.0, z)
        return cache[z]

    for _ in range(50):
        y = rng.uniform(2, 10**5)
        z = rng.uniform(y, 10**5)
        assert abs(density_product(y, z) - v1(z) / v1(y)) < 1e-12


def test_constant_partial_products():
    assert abs(euler_constant_product(2) - 2 / 3) < 1e-15
    assert abs(euler_constant_product(3) - 9 / 16) < 1e-15
    diffs = []
    for cap in (100, 200, 400, 800, 1600):
        diffs.append(abs(euler_constant_product(cap) - euler_constant_product(2 * cap)))
        assert diffs[-1] < 3 / cap
    assert diffs == sorted(diffs, reverse=True)


def fraction_constant_product(cap) -> float:
    """C's partial product as one exact Fraction per prime, each rounded to a double."""
    v = 1.0
    for p in primes_up_to(cap):
        v *= float(1 - Fraction(p * p - p - 1, (p - 1) ** 3 * (p + 1)))
    return v


@pytest.mark.parametrize("cap", [2, 3, 100, 1000, 10**4])
def test_constant_product_matches_fraction_product(cap):
    assert euler_constant_product(cap) == fraction_constant_product(cap)


# Doubles recorded while the products still multiplied over one list of all
# the primes; the segmented loop multiplies the same factors in the same
# order, so every bit is kept. z and cap straddle the 65536-wide segments.
@pytest.mark.parametrize("y, z, want", [
    (5, 10**6, 0.10948826830875417),
    (1.0, 1e5, 0.024628344459448878),
    (2.5, 100.5, 0.18267445867915982),
    (11, 200_000, 0.19472418813832518),
    (0, 3, 0.3333333333333333),
])
def test_density_product_keeps_its_doubles(y, z, want):
    assert density_product(y, z) == want


@pytest.mark.parametrize("cap, want", [
    (1000, 0.5052303573014811),
    (65536, 0.5051668092705147),
    (65537, 0.5051668091528982),
    (10**5, 0.5051665735107569),
    (300_000, 0.5051662926083319),
])
def test_constant_product_keeps_its_doubles(cap, want):
    assert euler_constant_product(cap) == want


def test_density_product_holds_one_segment_of_primes():
    # Measured at 136 KiB; a list of every prime below z took 3,564 KiB.
    tracemalloc.start()
    try:
        density_product(5, 10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 512 * 1024


def test_products_never_test_or_factor_their_primes(monkeypatch):
    def forbidden(n):
        raise AssertionError(f"per-prime loop re-checked {n}")

    monkeypatch.setattr(eclab.gl2, "is_prime", forbidden)
    monkeypatch.setattr(eclab.gl2, "factorize", forbidden)
    assert density_product(1, 10**4) == fraction_density_product(1, 10**4)
    assert euler_constant_product(10**4) == fraction_constant_product(10**4)


def test_per_prime_factor_identity():
    # (1 - 1/p) * C-factor(p) = 1 - w_1(p)/p, exactly
    for p in primes_up_to(1000):
        c_factor = 1 - Fraction(p * p - p - 1, (p - 1) ** 3 * (p + 1))
        assert (1 - Fraction(1, p)) * c_factor == 1 - sieve_density(p) / p


def test_mertens_ratio_near_one():
    assert abs(mertens_ratio(10**5) - 1) < 0.05


def test_log_ratio_bound_with_fitted_constant():
    # V_1(z1)/V_1(z2) <= (log z2/log z1)(1 + K/log z1): fit K over samples,
    # report it, and require it stays modest
    rng = random.Random(7)
    cache = {}

    def v1(z):
        if z not in cache:
            cache[z] = density_product(1.0, z)
        return cache[z]

    pairs = []
    for _ in range(40):
        z1 = rng.uniform(10, 9 * 10**4)
        z2 = rng.uniform(z1, 10**5)
        pairs.append((z1, z2))
    fitted = max(
        (v1(z1) / v1(z2) * math.log(z1) / math.log(z2) - 1) * math.log(z1)
        for z1, z2 in pairs
    )
    print(f"fitted log-ratio constant K = {fitted:.6f}")
    assert 0 <= fitted < 1
    for z1, z2 in pairs:
        bound = (math.log(z2) / math.log(z1)) * (1 + fitted / math.log(z1))
        assert v1(z1) / v1(z2) <= bound * (1 + 1e-12)


def test_linear_sieve_function():
    assert linear_sieve_F(2) == EXP_EULER_GAMMA
    assert abs(linear_sieve_F(1) - 3.562145) < 1e-5
    assert linear_sieve_F(3) == pytest.approx(2 * EXP_EULER_GAMMA / 3)
    for s in (0, -1, 3.5):
        with pytest.raises(ValueError):
            linear_sieve_F(s)


def test_count_envelope_values():
    uncond = count_envelope(10**6, "unconditional")
    grh = count_envelope(10**6, "grh")
    assert abs(uncond / 2.275e6 - 1) < 0.01
    assert abs(grh / 6.86e5 - 1) < 0.01
    # vacuous at this scale: both exceed the prime count 78498
    assert uncond > 78498 and grh > 78498


def test_count_envelope_epsilon_and_domain():
    for mode in ("unconditional", "grh"):
        e0 = count_envelope(10**6, mode)
        e1 = count_envelope(10**6, mode, eps=0.5)
        e2 = count_envelope(10**6, mode, eps=1.0)
        assert e0 < e1 < e2
    with pytest.raises(ValueError):
        count_envelope(10, "grh")  # 10 < e^e
    with pytest.raises(ValueError):
        count_envelope(10**6, "average")


def test_preset_params():
    p = preset_params(10**5, "unconditional")
    assert isinstance(p, SieveParams) and p.preset == "unconditional"
    assert p.raw_z < 1 < p.y  # degenerate at desk scale
    assert p.z == p.y  # clamped so the sifting range is empty, not inverted
    assert p.raw_y == p.y
    low = preset_params(100, "unconditional")  # y = 0.98754... is floored to 1
    assert low.raw_y == pytest.approx(0.98754, abs=1e-5) and low.y == low.z == 1.0
    g = preset_params(10**5, "grh")
    assert g.raw_z < g.y and g.z == g.y
    big = preset_params(1e150, "grh")
    assert big.z > big.y  # the ranges only open up at astronomical x
    with pytest.raises(ValueError):
        preset_params(10, "grh")
    with pytest.raises(ValueError):
        preset_params(10**6, "median")


def test_envelope_and_presets_share_the_e_to_the_e_rule():
    edge = math.exp(math.e)
    above = math.nextafter(edge, math.inf)
    for mode in ("unconditional", "grh"):
        with pytest.raises(ValueError, match="x > e\\^e"):
            count_envelope(edge, mode)
        with pytest.raises(ValueError, match="x > e\\^e"):
            preset_params(edge, mode)
        assert math.isfinite(count_envelope(above, mode))
        params = preset_params(above, mode)
        assert all(math.isfinite(v) for v in params[:4])


def test_empirical_counts_hand_records():
    r15 = TraceRecord(13, -1, 15)
    r341 = TraceRecord(331, -9, 341)
    assert empirical_S([r15], 3, 7) == 0  # 3 and 5 divide 15
    assert empirical_S([r15], 7, 11) == 1
    assert empirical_T([r341], 2, 11, 12) == 1  # 11 | 341 and 341 is 2-Fermat
    assert empirical_T([r341], 2, 12, 30) == 0  # 31 is the next factor
    # y = z: everything survives the empty sieve, nothing is sifted out
    assert empirical_S([r15, r341], 5, 5) == 2
    assert empirical_T([r15, r341], 2, 5, 5) == 0
    with pytest.raises(ValueError):
        empirical_S([r15], 7, 3)
    # n = 1 has no prime factor, so it always survives
    r1 = TraceRecord(2, 2, 1)
    assert empirical_S([r1], 2, 100) == 1
    assert empirical_T([r1], 2, 2, 100) == 0


def test_empty_sifting_range_factors_nothing(tmp_path, capsys, monkeypatch):
    # both presets clamp z up to y at desk scales, so [y, y) sifts nothing
    records = run_census(get_curve("37a"), 2000, threads=1).records

    def forbidden(n):
        raise AssertionError(f"factored {n} for an empty sifting range")

    monkeypatch.setattr(eclab.sieve, "factorize", forbidden)
    monkeypatch.setenv("ECLAB_THREADS", "1")
    assert empirical_S(records, 7.5, 7.5) == len(records)
    assert empirical_T(records, 2, 7.5, 7.5) == 0
    out = tmp_path / "out"
    argv = ["sieve-report", "--preset", "grh", "--x", "20000", "--out", str(out), "--format", "json"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["y"] == report["z"] and report["empirical_T"] == 0
    assert report["empirical_S"] == report["meta"]["pi_x"] - 1  # 37 is bad
    with pytest.raises(AssertionError, match="factored"):
        empirical_S(records, 5, 50)  # a non-empty range still factors


def test_empirical_S_against_trial_division():
    records = run_census(get_curve("37a"), 10**4, threads=1).records
    sift = [p for p in primes_up_to(49) if p >= 5]
    expected = sum(1 for rec in records if all(rec.n % p for p in sift))
    assert empirical_S(records, 5, 50) == expected
    passing = sum(1 for rec in records if pow(2, rec.n, rec.n) == 2 % rec.n)
    assert passing <= empirical_S(records, 5, 50) + empirical_T(records, 2, 5, 50)


def _hand_census():
    """A CensusResult at base 3, strict Fermat, with one bad prime.

    Verdicts: 5 and 53 pass 3^(n-1) = 1 and are prime; 91 = 7 * 13 is a
    3-pseudoprime; 15 and 341 fail. Only 53 survives sifting by [5, 50).
    """
    records = [
        TraceRecord(13, -1, 15),
        TraceRecord(331, -9, 341),
        TraceRecord(2, -2, 5),
        TraceRecord(89, -1, 91),
        TraceRecord(53, 1, 53),
    ]
    prime, pseudo = FERMAT_BIT | PRIME_BIT, FERMAT_BIT | PSEUDO_BIT
    verdicts = bytearray([0, 0, prime, pseudo, prime])
    p, _, n = (array("q", col) for col in zip(*records))
    return CensusResult(get_curve("37a"), 2000, 3, True, p, n, verdicts, [37])


def test_build_sieve_report():
    result = _hand_census()
    report = build_sieve_report(result, y=5, z=50, extra_meta={"tag": 1})
    assert report.empirical_Q <= report.empirical_S + report.empirical_T
    assert report.empirical_S == empirical_S(result.records, 5, 50) == 1
    assert report.empirical_T == empirical_T(result.records, 3, 5, 50, strict=True) == 2
    assert report.empirical_Q == 3
    assert report.x == 2000.0
    assert report.meta["pi_x"] == 6  # five good records and the bad prime 37
    assert report.meta["base"] == 3
    assert report.meta["strict_fermat"] is True
    with pytest.raises(ValueError):
        build_sieve_report(result, y=50, z=5)
    assert report.V_y_z == density_product(5, 50)
    assert report.F_s == linear_sieve_F(2.0)
    assert report.envelope_uncond == count_envelope(2000.0, "unconditional")
    assert report.meta["envelope_uncond_vacuous"] is True
    assert report.meta["envelope_grh_vacuous"] is True
    assert report.meta["tag"] == 1
    assert list(report.to_dict()) == [
        "x",
        "y",
        "z",
        "V_y_z",
        "F_s",
        "envelope_uncond",
        "envelope_grh",
        "empirical_S",
        "empirical_T",
        "empirical_Q",
        "meta",
    ]


def test_sieve_report_to_dict_copies_meta():
    report = SieveReport(
        1000.0, 5.0, 50.0, 0.25, 1.5, 3.0, 4.0, 10, 2, 7, {"s": 2.0, "preset": None}
    )
    as_dict = report.to_dict()
    assert list(as_dict.items()) == [
        ("x", 1000.0),
        ("y", 5.0),
        ("z", 50.0),
        ("V_y_z", 0.25),
        ("F_s", 1.5),
        ("envelope_uncond", 3.0),
        ("envelope_grh", 4.0),
        ("empirical_S", 10),
        ("empirical_T", 2),
        ("empirical_Q", 7),
        ("meta", {"s": 2.0, "preset": None}),
    ]
    as_dict["meta"]["s"] = 3.0
    assert report.meta == {"s": 2.0, "preset": None}


def test_build_sieve_report_reads_census_verdicts(monkeypatch):
    result = run_census(get_curve("37a"), 3000, threads=1)
    records = result.records
    S, T = empirical_S(records, 5, 300), empirical_T(records, 2, 5, 300)
    Q = sum(1 for rec in records if fermat_holds(2, rec.n))
    assert S and T and Q

    def no_fermat(*args):
        raise AssertionError("build_sieve_report re-ran the Fermat test")

    monkeypatch.setattr(eclab.sieve, "fermat_holds", no_fermat)
    report = build_sieve_report(result, 5, 300)
    assert (report.empirical_S, report.empirical_T, report.empirical_Q) == (S, T, Q)
