"""Census of elliptic-curve group orders n(p) = p + 1 - a_p over primes p <= x.

Each good prime contributes one record (p, a_p, n) plus a verdict byte:
bit 0 set when n passes the Fermat test for the chosen base, bit 1 when n is
prime, bit 2 when n is a Fermat pseudoprime (passes, composite, n != 1).
Counting is deterministic, so worker count never changes the output.
"""
from __future__ import annotations

import json
import math
import os
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from math import isqrt

from .arith import divisors, factorize, is_prime, prime_factors
from .curves import (
    BadReductionError,
    TraceRecord,
    WeierstrassCurve,
    _reduce_unchecked,
    _trace_reduced,
)
from .gl2 import class_density
from .primes import DEFAULT_SEGMENT, iter_prime_segments
from .pseudoprimes import fermat_holds, pomerance_scale, prime_order

FERMAT_BIT = 1
PRIME_BIT = 2
PSEUDO_BIT = 4


@dataclass(frozen=True)
class CensusResult:
    """Raw census output: records in increasing p, verdicts aligned by index."""

    curve: WeierstrassCurve
    x: int
    base: int
    strict: bool
    records: list[TraceRecord]
    verdicts: bytearray
    skipped_bad: list[int]

    def __post_init__(self):
        if len(self.records) != len(self.verdicts):
            raise ValueError("records and verdicts must align")


def _verdict_byte(base: int, n: int, strict: bool) -> int:
    fermat = fermat_holds(base, n, strict)
    prime = is_prime(n)
    v = 0
    if fermat:
        v |= FERMAT_BIT
    if prime:
        v |= PRIME_BIT
    if fermat and not prime and n != 1:
        v |= PSEUDO_BIT
    return v


def _census_chunk(task):
    """One segment of the census; top level so process pools can pickle it."""
    curve, primes, base, strict = task
    records = []
    verdicts = bytearray()
    skipped = []
    for p in primes:
        try:
            # sieve primes need no primality check
            rec = _trace_reduced(_reduce_unchecked(curve, p))
        except BadReductionError:
            skipped.append(p)
            continue
        records.append(rec)
        verdicts.append(_verdict_byte(base, rec.n, strict))
    return records, verdicts, skipped


def _worker_count(threads: int | None) -> int:
    if threads is None:
        env = os.environ.get("ECLAB_THREADS")
        threads = int(env) if env else (os.cpu_count() or 1)
    if threads < 1:
        raise ValueError("thread count must be at least 1")
    return threads


def run_census(
    curve: WeierstrassCurve,
    x: int,
    base: int = 2,
    strict: bool = False,
    threads: int | None = None,
    segment_len: int = DEFAULT_SEGMENT,
) -> CensusResult:
    """Count points at every prime p <= x and classify each group order.

    threads > 1 spreads prime segments over a process pool; segment results
    are concatenated in segment order, so output is independent of threads.
    The default comes from the ECLAB_THREADS environment variable.
    """
    if x < 2:
        raise ValueError(f"census needs x >= 2, got {x}")
    workers = _worker_count(threads)
    tasks = (
        (curve, seg.primes, base, strict)
        for seg in iter_prime_segments(x, segment_len)
    )
    records: list[TraceRecord] = []
    verdicts = bytearray()
    skipped: list[int] = []
    if workers == 1:
        chunks = map(_census_chunk, tasks)
        for recs, bits, skip in chunks:
            records.extend(recs)
            verdicts.extend(bits)
            skipped.extend(skip)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for recs, bits, skip in pool.map(_census_chunk, tasks):
                records.extend(recs)
                verdicts.extend(bits)
                skipped.extend(skip)
    return CensusResult(curve, x, base, strict, records, verdicts, skipped)


# -- pseudoprime decomposition ------------------------------------------------

_CLASS_NAMES = ("s1", "s2", "s3", "s4")


@dataclass(frozen=True)
class PomeranceDecomposition:
    """Coverage split of the census pseudoprimes at scale L = L(x).

    s1: n <= x/L. s2: some prime ell | n, ell not dividing b, with
    ell > L^3 and ord_ell(b) <= L. s3: some ell | n, ell not dividing b,
    with ord_ell(b) > L. s4: n > x/L and every such ell is <= L^3. The
    classes overlap; anything missed lands in `unclassified`, which should
    stay empty. overlap[i][j] counts records in class i and class j.

    The s4 records split further by n = n' * n'' with n' the largest
    divisor supported on primes of b and gcd(n'', b) = 1: s4_smooth_heavy
    has n' > x^(2/3), s4_rest is the complement (the two partition s4),
    and s4_window_hit counts s4_rest records where n'' has a divisor d
    with x^(1/18) < d <= x^(1/17) and gcd(d, b) = 1.
    """

    x: int
    base: int
    L: float
    counts: dict  # class name -> record count, including "unclassified"
    overlap: tuple  # 4x4 tuple-of-tuples over s1..s4, diagonal = class size
    s4_smooth_heavy: int
    s4_rest: int
    s4_window_hit: int
    members: dict  # class name -> sorted distinct n values

    def to_dict(self) -> dict:
        return {
            "L": self.L,
            "L_clamped": self.L == 1.0,
            "classes": dict(self.counts),
            "overlap": [list(row) for row in self.overlap],
            "s4_split": {
                "smooth_heavy": self.s4_smooth_heavy,
                "rest": self.s4_rest,
                "window_hit": self.s4_window_hit,
            },
            "members": {k: list(v) for k, v in self.members.items()},
        }


def _classify_pseudoprime(n: int, x: int, base: int, L: float) -> frozenset:
    labels = set()
    if n <= x / L:
        labels.add("s1")
    cube = L**3
    free_primes = [ell for ell in factorize(n) if base % ell != 0]
    orders = {ell: prime_order(base, ell) for ell in free_primes}
    if any(orders[ell] <= L for ell in free_primes if ell > cube):
        labels.add("s2")
    if any(orders[ell] > L for ell in free_primes):
        labels.add("s3")
    if n > x / L and all(ell <= cube for ell in free_primes):
        labels.add("s4")
    if not labels:
        labels.add("unclassified")
    return frozenset(labels)


def smooth_split(n: int, base: int) -> tuple[int, int]:
    """n = n' * n'' with n' supported on the primes of base, gcd(n'', base) = 1.

    smooth_split(341, 2) = (1, 341); smooth_split(344, 2) = (8, 43).
    """
    smooth = 1
    for q in prime_factors(base):
        while n % q == 0:
            n //= q
            smooth *= q
    return smooth, n


def decompose_pseudoprimes(result: CensusResult) -> PomeranceDecomposition:
    x, base = result.x, result.base
    L = pomerance_scale(x)
    label_cache: dict[int, frozenset] = {}
    counts = Counter({name: 0 for name in _CLASS_NAMES + ("unclassified",)})
    overlap = [[0] * 4 for _ in range(4)]
    members: dict[str, set] = {name: set() for name in counts}
    s4_heavy = s4_rest = s4_window = 0
    win_lo, win_hi = x ** (1 / 18), x ** (1 / 17)
    for rec, v in zip(result.records, result.verdicts):
        if not v & PSEUDO_BIT:
            continue
        n = rec.n
        labels = label_cache.get(n)
        if labels is None:
            labels = label_cache[n] = _classify_pseudoprime(n, x, base, L)
        for name in labels:
            counts[name] += 1
            members[name].add(n)
        idx = [i for i, name in enumerate(_CLASS_NAMES) if name in labels]
        for i in idx:
            for j in idx:
                overlap[i][j] += 1
        if "s4" in labels:
            smooth, coprime = smooth_split(n, base)
            if smooth > x ** (2 / 3):
                s4_heavy += 1
            else:
                s4_rest += 1
                if any(
                    win_lo < d <= win_hi and math.gcd(d, base) == 1
                    for d in divisors(coprime)
                ):
                    s4_window += 1
    return PomeranceDecomposition(
        x=x,
        base=base,
        L=L,
        counts=dict(counts),
        overlap=tuple(tuple(row) for row in overlap),
        s4_smooth_heavy=s4_heavy,
        s4_rest=s4_rest,
        s4_window_hit=s4_window,
        members={k: tuple(sorted(v)) for k, v in members.items()},
    )


# -- congruence statistics ----------------------------------------------------


@dataclass(frozen=True)
class CongruenceRow:
    modulus: int
    residue: int
    observed: int
    expected: float | None  # None when no density prediction applies


def congruence_stats(
    records, modulus: int, serre_bound: int | None = None
) -> list[CongruenceRow]:
    """Histogram of n mod `modulus` with predicted counts where valid.

    The density prediction applies only at a prime modulus coprime to the
    curve's exceptional level `serre_bound`. A bound of None means unknown
    and 0 means every prime is exceptional (gcd(m, 0) = m > 1), so both
    disable the prediction. Expected counts normalize by the record count,
    the natural finite-x stand-in for the logarithmic integral.
    """
    if modulus < 2:
        raise ValueError("modulus must be at least 2")
    hist = [0] * modulus
    total = 0
    for rec in records:
        hist[rec.n % modulus] += 1
        total += 1
    usable = (
        serre_bound is not None
        and is_prime(modulus)
        and math.gcd(modulus, serre_bound) == 1
    )
    rows = []
    for r in range(modulus):
        expected = float(class_density(modulus, r)) * total if usable else None
        rows.append(CongruenceRow(modulus, r, hist[r], expected))
    return rows


# -- multiplicity of group orders ----------------------------------------------


@dataclass(frozen=True)
class MultiplicityStats:
    """How often each group order value repeats across primes.

    table holds only orders hit at least twice. Every repeated value is
    checked against a prime-counting ceiling: all p with n(p) = n satisfy
    |p - n| <= isqrt(81 n) + 1, so the multiplicity is at most the number
    of primes in that window (plus one for slack at the endpoints).
    """

    table: dict  # n -> multiplicity, only entries >= 2
    second_moment: int  # sum of multiplicity^2 over all orders seen
    collision_pairs: int  # sum of M(M-1): ordered pairs of primes sharing n
    ceiling_ok: bool
    ceiling_failures: tuple
    fitted_delta: float | None  # least-squares slope of log M vs log n, M >= 2


def _prime_window_counts(values: list[int]) -> dict[int, int]:
    """Number of primes within isqrt(81 n) + 1 of each n."""
    if not values:
        return {}
    nmax = max(values)
    cap = nmax + isqrt(81 * nmax) + 1
    primes = array("q")
    for seg in iter_prime_segments(cap):
        primes.extend(seg.primes)
    out = {}
    for n in values:
        w = isqrt(81 * n) + 1
        out[n] = bisect_right(primes, n + w) - bisect_left(primes, n - w)
    return out


def _fit_slope(points: list[tuple[float, float]]) -> float | None:
    if len(points) < 2:
        return None
    xs = [u for u, _ in points]
    ys = [v for _, v in points]
    mx = math.fsum(xs) / len(xs)
    my = math.fsum(ys) / len(ys)
    den = math.fsum((u - mx) ** 2 for u in xs)
    if den == 0:
        return None
    return math.fsum((u - mx) * (v - my) for u, v in zip(xs, ys)) / den


def multiplicity_stats(records) -> MultiplicityStats:
    counter = Counter(rec.n for rec in records)
    table = {n: m for n, m in counter.items() if m >= 2}
    second = sum(m * m for m in counter.values())
    pairs = sum(m * (m - 1) for m in counter.values())
    window = _prime_window_counts(sorted(table))
    failures = tuple(
        (n, m, 1 + window[n]) for n, m in sorted(table.items()) if m > 1 + window[n]
    )
    delta = _fit_slope(
        [(math.log(n), math.log(m)) for n, m in table.items() if n > 1]
    )
    return MultiplicityStats(
        table=table,
        second_moment=second,
        collision_pairs=pairs,
        ceiling_ok=not failures,
        ceiling_failures=failures,
        fitted_delta=delta,
    )


# -- summary -------------------------------------------------------------------


@dataclass(frozen=True)
class CensusSummary:
    x: int
    curve_label: str
    base_b: int
    twin: int  # group orders that are prime
    pseu: int  # group orders that are Fermat pseudoprimes
    Q: int  # group orders passing the Fermat test
    unit_count: int  # group orders equal to 1
    skipped_bad: list[int]
    s_classes: dict
    multiplicity: dict  # n -> repeat count, entries >= 2 only
    second_moment: int
    meta: dict

    def to_dict(self) -> dict:
        return {
            "x": self.x,
            "curve_label": self.curve_label,
            "base_b": self.base_b,
            "twin": self.twin,
            "pseu": self.pseu,
            "Q": self.Q,
            "unit_count": self.unit_count,
            "skipped_bad": list(self.skipped_bad),
            "s_classes": dict(self.s_classes),
            "multiplicity": {
                str(n): self.multiplicity[n] for n in sorted(self.multiplicity)
            },
            "second_moment": self.second_moment,
            "meta": self.meta,
        }


def summarize(
    result: CensusResult,
    decomposition: PomeranceDecomposition | None = None,
    extra_meta: dict | None = None,
) -> CensusSummary:
    """Aggregate counts, decomposition, and multiplicity diagnostics.

    Everything here is a pure function of the census records, so repeated
    runs (any worker count) serialize to identical bytes.
    """
    if decomposition is None:
        decomposition = decompose_pseudoprimes(result)
    twin = pseu = q = unit = fermat_primes = 0
    for rec, v in zip(result.records, result.verdicts):
        if v & PRIME_BIT:
            twin += 1
            if v & FERMAT_BIT:
                fermat_primes += 1
        if v & PSEUDO_BIT:
            pseu += 1
        if v & FERMAT_BIT:
            q += 1
        if rec.n == 1:
            unit += 1
    mult = multiplicity_stats(result.records)
    x = result.x
    cm_reference = x / math.log(x) ** 0.9
    meta = {
        "strict_fermat": result.strict,
        "good_count": len(result.records),
        "fermat_prime_count": fermat_primes,
        "partition_ok": q == fermat_primes + pseu + unit,
        "twin_le_Q": twin <= q,  # must hold in the default Fermat mode
        "pseu_to_twin_ratio": pseu / twin if twin else None,  # observed, never asserted
        "unclassified": decomposition.counts["unclassified"],
        "L_clamped": decomposition.L == 1.0,
        "multiplicity_ceiling_ok": mult.ceiling_ok,
        "max_multiplicity": max(
            mult.table.values(), default=1 if result.records else 0
        ),
        "fitted_delta": mult.fitted_delta,
        "collision_pairs": mult.collision_pairs,
        "cm_curve": result.curve.cm,
        "cm_reference_scale": cm_reference,
        "cm_signal": mult.second_moment > cm_reference,
    }
    if extra_meta:
        meta.update(extra_meta)
    return CensusSummary(
        x=x,
        curve_label=result.curve.label,
        base_b=result.base,
        twin=twin,
        pseu=pseu,
        Q=q,
        unit_count=unit,
        skipped_bad=list(result.skipped_bad),
        s_classes=dict(decomposition.counts),
        multiplicity=dict(mult.table),
        second_moment=mult.second_moment,
        meta=meta,
    )


# -- serialization ---------------------------------------------------------------

RECORDS_HEADER = "p,a_p,n,is_prime,is_pseudoprime,fermat"


def write_records_csv(result: CensusResult, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(RECORDS_HEADER + "\n")
        for rec, v in zip(result.records, result.verdicts):
            fh.write(
                f"{rec.p},{rec.a_p},{rec.n},"
                f"{(v >> 1) & 1},{(v >> 2) & 1},{v & 1}\n"
            )


def write_summary_json(summary: CensusSummary, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary.to_dict(), fh, indent=2)
        fh.write("\n")
