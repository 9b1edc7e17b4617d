"""Sieve correctness: primes_up_to and the segments against an independent boolean sieve."""
import tracemalloc
from array import array

import pytest

from eclab.primes import (
    DEFAULT_SEGMENT,
    CutoffError,
    iter_prime_segments,
    primes_up_to,
    segment_bounds,
)


def boolean_sieve(x: int) -> list[int]:
    # independent oracle: stores every integer, no odd-only compression
    if x < 2:
        return []
    flags = bytearray([1]) * (x + 1)
    flags[0] = flags[1] = 0
    i = 2
    while i * i <= x:
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
        i += 1
    return [i for i in range(x + 1) if flags[i]]


# 8..169 straddle the squares of the base primes 3, 5, 7, 11 and 13; the
# base list is empty below 9.
@pytest.mark.parametrize(
    "x", [0, 1, 2, 3, 4, 8, 9, 10, 24, 25, 48, 49, 97, 100, 120, 121, 168, 169, 1000, 65537]
)
def test_primes_up_to_matches_boolean_sieve(x):
    assert primes_up_to(x) == boolean_sieve(x)


def test_primes_up_to_small_literals():
    assert primes_up_to(10) == [2, 3, 5, 7]
    assert primes_up_to(1) == []
    assert primes_up_to(2) == [2]


def test_prime_count_to_one_million():
    primes = primes_up_to(10**6)
    assert len(primes) == 78498
    assert len(boolean_sieve(10**6)) == 78498


@pytest.mark.parametrize("x", [0, 1, 29, 30, 100, 65536, 100_000])
@pytest.mark.parametrize("segment_len", [10, 16, 100, DEFAULT_SEGMENT])
def test_segments_concatenate_to_one_shot(x, segment_len):
    collected = []
    for seg in iter_prime_segments(x, segment_len):
        assert seg.lo < seg.hi <= x + 1
        assert all(seg.lo <= p < seg.hi for p in seg.primes)
        collected.extend(seg.primes)
    assert collected == boolean_sieve(x)


def test_segment_example_thirty_by_ten():
    segs = list(iter_prime_segments(30, 10))
    union = [p for seg in segs for p in seg.primes]
    assert union == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_zero_cutoff_gives_empty_stream():
    assert [p for seg in iter_prime_segments(0, 16) for p in seg.primes] == []


def test_large_segmented_run_matches_one_shot():
    collected = []
    for seg in iter_prime_segments(10**6, 2**15):
        collected.extend(seg.primes)
    assert collected == boolean_sieve(10**6)


def test_segment_scan_holds_one_segment_of_8_byte_primes():
    # A segment's primes are an array('q') filled from the sieve mask, so a
    # full scan holds two segments (the one in hand and the next) at 8 bytes
    # a prime, plus the mask. Measured at 135 KiB; a tuple of int objects
    # built from a list took 529 KiB.
    tracemalloc.start()
    try:
        for seg in iter_prime_segments(10**6):
            assert type(seg.primes) is array and seg.primes.typecode == "q"
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


def test_segment_content_is_pure_function_of_bounds():
    a = list(iter_prime_segments(10_000, 128))
    b = list(iter_prime_segments(10_000, 128))
    assert a == b


def test_segment_bounds_tile_without_gaps():
    for x in (0, 5, 100, 65537):
        for L in (10, DEFAULT_SEGMENT):
            bounds = list(segment_bounds(x, L))
            assert bounds[0][0] == 0
            assert bounds[-1][1] == x + 1
            for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
                assert hi == lo


def test_first_segment_at_1e11_builds_no_bounds_list():
    # A list of the 1,525,879 bounds at 10^11 traced 193 MiB before the
    # first prime; lazily the first segment costs the base primes to
    # sqrt(x) and one segment, measured at 1.26 MiB.
    tracemalloc.start()
    try:
        first = next(iter_prime_segments(10**11))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (first.lo, first.hi, first.primes[-1]) == (0, DEFAULT_SEGMENT, 65521)
    assert peak < 4 * 1024 * 1024


def test_cutoff_guard():
    with pytest.raises(CutoffError):
        primes_up_to(2**63 + 1)
    with pytest.raises(CutoffError):
        list(iter_prime_segments(2**63 + 1))
    with pytest.raises(CutoffError):
        segment_bounds(2**63 + 1)


def test_segment_len_validation():
    with pytest.raises(ValueError):
        list(iter_prime_segments(100, 1))
    with pytest.raises(ValueError):
        segment_bounds(100, 0)
