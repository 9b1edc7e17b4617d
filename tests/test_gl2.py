"""Matrix class counts: enumeration vs closed forms, lifting, density bounds."""
from fractions import Fraction
from math import gcd

import pytest

import eclab.gl2
from eclab.gl2 import (
    ENUMERATION_CAP,
    EnumerationLimitError,
    class_count_formula,
    class_count_table,
    class_density,
    gl2_order,
    identity_lift_bound,
    identity_lift_count,
    predicted_class_count,
    prime_class_counts,
    ratio_bounds_check,
)


def brute_class_counts(n: int) -> list[int]:
    """Literal quadruple loop over all 2x2 matrices mod n."""
    counts = [0] * n
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    det = a * d - b * c
                    if gcd(det, n) == 1:
                        counts[(det + 1 - a - d) % n] += 1
    return counts


@pytest.mark.parametrize("n", list(range(2, 13)))
def test_enumeration_matches_quadruple_loop(n):
    table = class_count_table(n)
    assert list(table.counts) == brute_class_counts(n)


def histogram_class_counts(n: int) -> list[int]:
    """Diagonal and off-diagonal histograms combined by a triple loop over
    (det, ad, a + d); fast enough to cover every modulus up to the cap."""
    prod_sum = [[0] * n for _ in range(n)]
    for a in range(n):
        for d in range(n):
            prod_sum[a * d % n][(a + d) % n] += 1
    bc = [0] * n
    for b in range(n):
        for c in range(n):
            bc[b * c % n] += 1
    counts = [0] * n
    for det in range(n):
        if gcd(det, n) != 1:
            continue
        for pd in range(n):
            weight = bc[(pd - det) % n]
            for s in range(n):
                counts[(det + 1 - s) % n] += prod_sum[pd][s] * weight
    return counts


@pytest.mark.parametrize("n", list(range(2, ENUMERATION_CAP + 1)))
def test_enumeration_matches_histogram_loop(n):
    assert list(class_count_table(n).counts) == histogram_class_counts(n)


@pytest.mark.parametrize("n", [30, 49, 60, 61, 64])
def test_enumeration_reads_no_closed_form(monkeypatch, n):
    # 30 and 60 have three prime factors, 49 is a prime square, 61 is prime
    # and 64 is 2^6
    def closed_form(*args):
        raise AssertionError("enumeration read a closed form")

    for name in ("prime_class_counts", "gl2_order", "class_count_formula",
                 "predicted_class_count"):
        monkeypatch.setattr(eclab.gl2, name, closed_form)
    assert list(class_count_table(n).counts) == histogram_class_counts(n)


def test_gl2_order_literals():
    assert gl2_order(1) == 1
    assert gl2_order(2) == 6
    assert gl2_order(3) == 48
    assert gl2_order(4) == 96
    assert gl2_order(5) == 480
    assert gl2_order(9) == 3888
    assert gl2_order(36) == gl2_order(4) * gl2_order(9)
    with pytest.raises(ValueError):
        gl2_order(0)


@pytest.mark.parametrize("n", list(range(2, 31)))
def test_counts_partition_the_group(n):
    table = class_count_table(n)
    assert sum(table.counts) == table.group_order == gl2_order(n)
    assert all(c >= 0 for c in table.counts)


@pytest.mark.parametrize("ell", [2, 3, 5, 7, 11, 13])
def test_closed_form_matches_enumeration(ell):
    table = class_count_table(ell)
    for r in range(ell):
        assert table.counts[r] == class_count_formula(ell, r)
    assert prime_class_counts(ell)[3] == table.group_order


def test_closed_form_literals():
    assert prime_class_counts(5) == (115, 95, 90, 480)
    assert class_count_table(2).counts == (4, 2)
    assert class_count_table(3).counts[0] == 21
    assert class_count_table(5).counts == (115, 95, 90, 90, 90)
    with pytest.raises(ValueError):
        class_count_formula(6, 1)


def test_density_literals():
    assert class_density(5, 0) == Fraction(23, 96)
    assert class_density(5, 1) == Fraction(19, 96)
    assert class_density(5, 2) == Fraction(3, 16)
    for ell in (2, 3, 5, 7):
        assert sum(class_density(ell, r) for r in range(ell)) == 1


def test_lifting_literals():
    assert class_count_table(9).counts[1] == 405
    assert class_count_table(27).counts[2] == 8748
    assert 8748 == 3**6 * class_count_table(3).counts[2]


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_lifting_law_unit_residues(ell):
    q = ell * ell
    base = class_count_table(ell)
    lifted = class_count_table(q)
    for r in range(q):
        if r % ell == 0:
            continue
        assert lifted.counts[r] == ell**3 * base.counts[r % ell]


def test_identity_lift_count_and_bound():
    assert identity_lift_count(5, 2, 0) == 625
    assert identity_lift_bound(5, 2) == Fraction(78125, 124)
    assert identity_lift_count(5, 2, 0) <= identity_lift_bound(5, 2)
    for ell in (2, 3, 5, 7):
        # k = 2: every lift of I has class residue 0 mod ell^2, so the count
        # is ell^4 at r = 0 and 0 elsewhere, under the ceiling either way
        assert identity_lift_count(ell, 2, 0) == ell**4
        for r in range(ell, ell * ell, ell):
            assert identity_lift_count(ell, 2, r) == 0
        assert ell**4 <= identity_lift_bound(ell, 2)


def test_identity_lift_bound_fails_at_depth_three():
    # known sharpness failure of the nominal ceiling: at (3, 3, 0) the class
    # residue of a lift I + 3M is 9*det(M) mod 27, so the count reduces to
    # 3^4 times the number of 2x2 matrices mod 3 with det = 0,1,2 mod 3,
    # i.e. 81 * (33, 24, 24)
    counts = [identity_lift_count(3, 3, r) for r in (0, 9, 18)]
    assert counts == [2673, 1944, 1944]
    assert sum(counts) == 3**8
    bound = identity_lift_bound(3, 3)
    assert bound == Fraction(59049, 26)
    assert counts[0] > bound and counts[1] <= bound and counts[2] <= bound
    # the slack form that the density inequalities rely on does hold
    relaxed = 3**6 * (1 + Fraction(3**4, 3**3 - 1))
    assert all(c <= relaxed for c in counts)


def all_prime_power_cases():
    cases = []
    for ell in (3, 5, 7):
        k = 1
        while ell**k <= ENUMERATION_CAP:
            cases.extend((ell, k, r) for r in range(ell**k))
            k += 1
    return cases


@pytest.mark.parametrize("ell,k,r", all_prime_power_cases())
def test_ratio_bounds_hold(ell, k, r):
    check = ratio_bounds_check(ell, k, r)
    assert check.ok
    assert check.lower <= check.ratio <= check.upper


def test_ratio_bounds_literals():
    # boundary case: the lower bound is attained exactly, so it must be inclusive
    check = ratio_bounds_check(3, 2, 2)
    assert check.ratio == check.lower == Fraction(1, 12)
    check = ratio_bounds_check(3, 1, 1)
    assert check.ratio == Fraction(5, 16)
    assert check.lower == Fraction(1, 4) and check.upper == Fraction(1, 2)
    check = ratio_bounds_check(5, 2, 0)
    assert check.upper == Fraction(1, 20) * (1 + Fraction(1, 124 * 24))
    with pytest.raises(ValueError, match="need a prime ell"):
        ratio_bounds_check(4, 1, 0)


def test_class_counts_multiplicative():
    for m, n in ((3, 4), (4, 5), (3, 5), (5, 7), (4, 9), (7, 9)):
        big = class_count_table(m * n)
        left = class_count_table(m)
        right = class_count_table(n)
        for r in range(m * n):
            assert big.counts[r] == left.counts[r % m] * right.counts[r % n]


def test_predicted_class_count():
    assert predicted_class_count(9, 3) is None
    assert predicted_class_count(12, 6) is None  # 4-component residue 2 is even
    for n in range(2, 31):
        table = class_count_table(n)
        for r in range(n):
            predicted = predicted_class_count(n, r)
            if predicted is not None:
                assert predicted == table.counts[r], (n, r)
    with pytest.raises(ValueError):
        predicted_class_count(1, 0)


def test_enumeration_cap():
    assert ENUMERATION_CAP == 64
    class_count_table(64)
    with pytest.raises(EnumerationLimitError):
        class_count_table(65)
    with pytest.raises(ValueError, match="modulus must be >= 2"):
        class_count_table(1)
