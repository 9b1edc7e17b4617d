"""Prime generation: one segmented sieve of Eratosthenes.

`_segment_primes` is the only sieve: it marks the odd numbers of one
segment [lo, hi) with the odd primes up to sqrt(hi) and returns the primes
as an array('q'), filled straight from the sieve mask at 8 bytes a prime.
`primes_up_to` runs it on the single segment [0, x+1) and returns a list;
`iter_prime_segments` streams it over fixed segments, keeping memory at
O(segment length + sqrt(cutoff)) so censuses can run far past what a
one-shot list would hold.
"""
from __future__ import annotations

from array import array
from itertools import compress
from math import isqrt
from typing import Iterator, NamedTuple

DEFAULT_SEGMENT = 1 << 16
MAX_CUTOFF = 1 << 63


class CutoffError(ValueError):
    """Requested sieve range exceeds the supported cutoff."""


class PrimeSegment(NamedTuple):
    lo: int  # inclusive
    hi: int  # exclusive
    primes: array  # array('q') of the primes in [lo, hi), ascending


def check_cutoff(x: int) -> None:
    """Raise CutoffError if x exceeds the largest cutoff the sieve supports."""
    if x > MAX_CUTOFF:
        raise CutoffError(f"cutoff {x} exceeds supported maximum 2^63")


def primes_up_to(x: int) -> list[int]:
    """All primes <= x, ascending."""
    check_cutoff(x)
    return _segment_primes(0, x + 1, _odd_base_primes(x)).tolist()


def _odd_base_primes(x: int) -> list[int]:
    """The odd primes <= sqrt(x), enough to sieve any segment of [0, x+1)."""
    return primes_up_to(isqrt(x))[1:] if x >= 9 else []


def _segment_primes(lo: int, hi: int, odd_base: list[int]) -> array:
    """Primes in [lo, hi) as an array('q'), given odd base primes covering
    sqrt(hi). No list of the primes is built."""
    out = array("q", [2] if lo <= 2 < hi else [])
    first = max(lo, 3)
    if first % 2 == 0:
        first += 1
    if first >= hi:
        return out
    size = (hi - first + 1) // 2  # odd numbers first, first+2, ...
    mask = bytearray([1]) * size
    for p in odd_base:
        if p * p >= hi:
            break
        start = max(p * p, ((first + p - 1) // p) * p)
        if start % 2 == 0:
            start += p
        if start >= hi:
            continue
        idx = (start - first) // 2
        mask[idx::p] = bytearray(len(range(idx, size, p)))
    out.extend(compress(range(first, hi, 2), mask))
    return out


def iter_prime_segments(
    x: int, segment_len: int = DEFAULT_SEGMENT
) -> Iterator[PrimeSegment]:
    """Yield PrimeSegments tiling [0, x+1); their concatenation is primes_up_to(x).

    Segment boundaries are multiples of segment_len, so the content of a
    segment depends only on (lo, hi): identical bounds give identical primes
    no matter which worker produced them.
    """
    bounds = segment_bounds(x, segment_len)
    odd_base = _odd_base_primes(x)
    for lo, hi in bounds:
        yield PrimeSegment(lo, hi, _segment_primes(lo, hi, odd_base))


def segment_bounds(
    x: int, segment_len: int = DEFAULT_SEGMENT
) -> Iterator[tuple[int, int]]:
    """The (lo, hi) tiling iter_prime_segments uses, without sieving anything.

    x and segment_len are checked at the call; the bounds come one at a
    time, so no list of x / segment_len tuples is built.
    """
    check_cutoff(x)
    if segment_len < 2:
        raise ValueError("segment_len must be at least 2")
    return (
        (lo, min(lo + segment_len, x + 1)) for lo in range(0, x + 1, segment_len)
    )
