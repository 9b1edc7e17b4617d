"""Census of elliptic-curve group orders n(p) = p + 1 - a_p over primes p <= x.

Each good prime contributes one row to two array('q') columns p and n,
plus the verdict byte of n from `pseudoprimes.classify`: bit 0 set when n
passes the Fermat test for the chosen base, bit 1 when n is prime, bit 2
when n is a Fermat pseudoprime (passes, composite, n != 1). a_p = p + 1 - n
is computed only where it is printed. The primes arrive one array('q')
segment at a time. A row costs 17 bytes from the counting loop to the
writers; no per-prime object is built. With more than one worker, each
worker is a forked process that counts its share of the tasks and streams
the columns back as raw bytes down its own pipe; a full pipe holds it back
until the parent reads. The multiplicity count holds only the orders still
inside the Hasse window, so memory grows with the columns alone.
Counting is deterministic, so worker count never changes the output.
"""
from __future__ import annotations

import json
import math
import os
from array import array
from bisect import bisect_left
from collections import Counter
from itertools import chain, islice
from math import isqrt
from struct import Struct
from typing import NamedTuple

from .arith import divisors, factorize, is_prime, prime_factors
from .curves import TraceRecord, WeierstrassCurve, trace_records
from .gl2 import class_density
from .primes import iter_prime_segments
from .pseudoprimes import (
    FERMAT_BIT,
    PRIME_BIT,
    PSEUDO_BIT,
    classify,
    pomerance_scale,
    prime_order,
)

# primes per census task: small enough that the workers finish together
TASK_PRIMES = 2048


class _CensusFields(NamedTuple):
    curve: WeierstrassCurve
    x: int
    base: int
    strict: bool
    p: array  # good primes, increasing
    n: array  # group order p + 1 - a_p at each p
    verdicts: bytearray  # one verdict byte per p
    skipped_bad: list[int]


class CensusResult(_CensusFields):
    """Raw census output: columns p, n and verdicts aligned by index."""

    __slots__ = ()

    def __new__(cls, curve, x, base, strict, p, n, verdicts, skipped_bad):
        if not len(p) == len(n) == len(verdicts):
            raise ValueError("p, n and verdicts must align")
        return super().__new__(cls, curve, x, base, strict, p, n, verdicts, skipped_bad)

    @classmethod
    def _make(cls, fields):
        """Build through __new__, so _replace checks the alignment too."""
        return cls(*fields)

    @property
    def records(self) -> list[TraceRecord]:
        """The rows as TraceRecords, built anew on each access: a read-only
        view for callers written against the record API. No census path
        reads it."""
        return [TraceRecord(p, p + 1 - n, n) for p, n in zip(self.p, self.n)]


def _census_chunk(task):
    """One task of the census, run in a worker or in process.

    Returns the p and n columns, the verdict bytes and the bad primes.
    """
    curve, primes, base, strict = task
    ps, ns, skipped = trace_records(curve, primes)
    return ps, ns, bytearray(classify(base, n, strict) for n in ns), skipped


def worker_count(threads: int | None = None) -> int:
    """Census workers: `threads`, else $ECLAB_THREADS, else the CPU count.

    Raises ValueError on a count below 1 or a malformed variable, so a
    caller can reject the count before it creates any output.
    """
    if threads is None:
        env = os.environ.get("ECLAB_THREADS")
        if not env:
            return os.cpu_count() or 1
        try:
            threads = int(env)
        except ValueError:
            threads = 0
        if threads < 1:
            raise ValueError(f"ECLAB_THREADS must be a positive integer, got {env!r}")
    elif threads < 1:
        raise ValueError("thread count must be at least 1")
    return threads


# A worker's message header: (rows, bad primes) for a task's result, then
# its columns; (_RAISED, size) and a pickled exception; or (_END, 0).
_HEADER = Struct("=qq")
_RAISED, _END = -1, -2


def _messages(tasks):
    """A worker's messages, as bytes: one per task, then the trailer.

    A task that raises ends the stream with its pickled exception instead.
    """
    try:
        for task in tasks:
            ps, ns, verdicts, bad = _census_chunk(task)
            yield b"".join(
                (_HEADER.pack(len(ps), len(bad)), ps, ns, verdicts, array("q", bad))
            )
    except Exception as exc:
        import pickle

        blob = pickle.dumps(exc)
        yield _HEADER.pack(_RAISED, len(blob)) + blob
    else:
        yield _HEADER.pack(_END, 0)


def _read_exact(reader, size: int) -> bytes:
    data = reader.read(size)
    if len(data) != size:
        raise ChildProcessError("a census worker ended before its trailer")
    return data


def _receive(reader):
    """The next task's chunk from a worker's pipe, or None at its trailer.

    Re-raises the exception of a task that raised.
    """
    rows, extra = _HEADER.unpack(_read_exact(reader, _HEADER.size))
    if rows == _END:
        return None
    if rows == _RAISED:
        import pickle

        raise pickle.loads(_read_exact(reader, extra))
    ps, ns, bad = array("q"), array("q"), array("q")
    ps.frombytes(_read_exact(reader, ps.itemsize * rows))
    ns.frombytes(_read_exact(reader, ns.itemsize * rows))
    verdicts = _read_exact(reader, rows)
    bad.frombytes(_read_exact(reader, bad.itemsize * extra))
    return ps, ns, verdicts, bad


def _forked_chunks(tasks, workers: int):
    """_census_chunk over `tasks` in `workers` forked processes, in task order.

    Worker w runs tasks w, w + workers, w + 2 workers, ... from its own copy
    of the unstarted `tasks` generator, and streams each result down its own
    pipe. The results are read from the pipes in turn, so a worker whose pipe
    is full waits, and none runs far ahead of the consumer. Raises
    ChildProcessError when a worker's stream ends before its trailer or a
    worker exits non-zero. Every worker is reaped before this returns or
    raises, and also when the consumer stops early.
    """
    children = []  # (pid, reader) for each worker
    finished = False
    try:
        for w in range(workers):
            rfd, wfd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(rfd)
                os.close(wfd)
                raise
            if pid == 0:
                status = 1
                try:
                    os.close(rfd)
                    for _, reader in children:
                        reader.close()
                    with open(wfd, "wb") as out:
                        for message in _messages(islice(tasks, w, None, workers)):
                            out.write(message)
                            out.flush()
                    status = 0
                finally:
                    os._exit(status)
            os.close(wfd)
            children.append((pid, open(rfd, "rb")))
        t = 0
        while (chunk := _receive(children[t % workers][1])) is not None:
            yield chunk
            t += 1
        # the task stream ends at task t, so every other worker is done too
        for i in range(1, workers):
            if _receive(children[(t + i) % workers][1]) is not None:
                raise ChildProcessError("census workers disagree on the task count")
        finished = True
    finally:
        for _, reader in children:
            reader.close()
        if not finished:
            from signal import SIGKILL

            for pid, _ in children:
                os.kill(pid, SIGKILL)
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid, _ in children]
    if any(codes):
        raise ChildProcessError(f"census workers exited with codes {codes}")


def _most_tasks(x: int) -> int:
    """An upper bound on the number of runs _prime_runs(x) yields, x > 1:
    pi(x) < 1.25506 x / ln x (Rosser and Schoenfeld, 1962), in runs of
    TASK_PRIMES."""
    return math.ceil(1.25506 * x / math.log(x) / TASK_PRIMES)


def _prime_runs(x: int):
    """The primes p <= x in runs of TASK_PRIMES, the last run shorter.

    Runs cross segment boundaries, so every task but the last holds the same
    number of primes and the workers' fixed shares stay balanced. The runs
    are tuples cut from the segments' array('q') primes.
    """
    primes = chain.from_iterable(seg.primes for seg in iter_prime_segments(x))
    while run := tuple(islice(primes, TASK_PRIMES)):
        yield run


def run_census(
    curve: WeierstrassCurve,
    x: int,
    base: int = 2,
    strict: bool = False,
    threads: int | None = None,
) -> CensusResult:
    """Count points at every prime p <= x and classify each group order.

    The primes go out in tasks of TASK_PRIMES consecutive primes, so the
    workers of threads > 1 (default: see worker_count) stay balanced even
    when x spans only a segment or two. The workers are forked processes
    (see _forked_chunks); each sieves the segments itself, so nothing is
    sent to it, and a full pipe holds it back. No more workers are forked
    than _most_tasks(x) allows, so a census of one task, or one without
    os.fork, runs in this process. Task results are concatenated in order,
    so output is independent of threads.
    """
    if x < 2:
        raise ValueError(f"census needs x >= 2, got {x}")
    workers = min(worker_count(threads), _most_tasks(x))
    tasks = ((curve, primes, base, strict) for primes in _prime_runs(x))
    ps, ns = array("q"), array("q")
    verdicts = bytearray()
    skipped: list[int] = []
    if workers > 1 and hasattr(os, "fork"):
        chunks = _forked_chunks(tasks, workers)
    else:
        chunks = map(_census_chunk, tasks)
    for chunk_p, chunk_n, bits, skip in chunks:
        ps.extend(chunk_p)
        ns.extend(chunk_n)
        verdicts.extend(bits)
        skipped.extend(skip)
    return CensusResult(curve, x, base, strict, ps, ns, verdicts, skipped)


# -- pseudoprime decomposition ------------------------------------------------

_CLASS_NAMES = ("s1", "s2", "s3", "s4")


class PomeranceDecomposition(NamedTuple):
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
    with x^(1/18) < d <= x^(1/17); such a d is prime to b, as n'' is.
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
    """Pomerance's classes s1-s4 of the rows whose order is a pseudoprime.

    Each distinct order is classified and split once, in increasing n, and
    counts once per row that holds it: counts, overlap and the s4 bins are
    rows; members are the distinct orders of each class.
    """
    x, base = result.x, result.base
    L = pomerance_scale(x)
    rows = Counter(n for n, v in zip(result.n, result.verdicts) if v & PSEUDO_BIT)
    counts = Counter({name: 0 for name in _CLASS_NAMES + ("unclassified",)})
    overlap = [[0] * 4 for _ in range(4)]
    members: dict[str, list] = {name: [] for name in counts}
    s4_heavy = s4_rest = s4_window = 0
    heavy = x ** (2 / 3)
    win_lo, win_hi = x ** (1 / 18), x ** (1 / 17)
    for n in sorted(rows):
        k = rows[n]
        labels = _classify_pseudoprime(n, x, base, L)
        for name in labels:
            counts[name] += k
            members[name].append(n)
        idx = [i for i, name in enumerate(_CLASS_NAMES) if name in labels]
        for i in idx:
            for j in idx:
                overlap[i][j] += k
        if "s4" in labels:
            smooth, coprime = smooth_split(n, base)
            if smooth > heavy:
                s4_heavy += k
            else:
                s4_rest += k
                if any(win_lo < d <= win_hi for d in divisors(coprime)):
                    s4_window += k
    return PomeranceDecomposition(
        x=x,
        base=base,
        L=L,
        counts=dict(counts),
        overlap=tuple(tuple(row) for row in overlap),
        s4_smooth_heavy=s4_heavy,
        s4_rest=s4_rest,
        s4_window_hit=s4_window,
        members={name: tuple(ns) for name, ns in members.items()},
    )


# -- congruence statistics ----------------------------------------------------


class CongruenceRow(NamedTuple):
    modulus: int
    residue: int
    observed: int
    expected: float | None  # None when no density prediction applies


def congruence_stats(
    ns, modulus: int, serre_bound: int | None = None
) -> list[CongruenceRow]:
    """Histogram of the group orders ns mod `modulus`, with predicted counts
    where valid.

    The density prediction applies only at a prime modulus coprime to the
    curve's exceptional level `serre_bound`. A bound of None means unknown
    and 0 means every prime is exceptional (gcd(m, 0) = m > 1), so both
    disable the prediction. Expected counts normalize by the number of
    orders, the natural finite-x stand-in for the logarithmic integral.
    """
    if modulus < 2:
        raise ValueError("modulus must be at least 2")
    hist = [0] * modulus
    total = 0
    for n in ns:
        hist[n % modulus] += 1
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


class MultiplicityStats(NamedTuple):
    """How often each group order value repeats across primes.

    table holds only orders hit at least twice, in increasing n. Every
    repeated value is checked against a prime-counting ceiling: all p with
    n(p) = n satisfy |p - n| <= isqrt(81 n) + 1, so the multiplicity is at
    most the number of primes in that window (plus one for slack at the
    endpoints).
    """

    table: dict  # n -> multiplicity, only entries >= 2
    second_moment: int  # sum of multiplicity^2 over all orders seen
    collision_pairs: int  # sum of M(M-1): ordered pairs of primes sharing n
    ceiling_ok: bool
    ceiling_failures: tuple
    fitted_delta: float | None  # least-squares slope of log M vs log n, M >= 2


def _prime_window_counts(values: list[int]) -> dict[int, int]:
    """Number of primes within isqrt(81 n) + 1 of each n in `values`.

    Each count is pi(n + w) - pi(n - w - 1), read at the sorted window ends
    while the primes stream past one array('q') segment at a time, so no
    list of primes is held.
    """
    if not values:
        return {}
    below = {}  # window end -> number of primes below it
    for n in values:
        w = isqrt(81 * n) + 1
        below[n - w] = below[n + w + 1] = 0
    ends = sorted(below)
    i = seen = 0
    for seg in iter_prime_segments(ends[-1] - 1):
        while i < len(ends) and ends[i] < seg.hi:
            below[ends[i]] = seen + bisect_left(seg.primes, ends[i])
            i += 1
        seen += len(seg.primes)
    for end in ends[i:]:
        below[end] = seen
    out = {}
    for n in values:
        w = isqrt(81 * n) + 1
        out[n] = below[n + w + 1] - below[n - w]
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


def multiplicity_stats(ps, ns) -> MultiplicityStats:
    """Multiplicities of the orders ns[i] at the primes ps[i], read in order.

    The rows come in increasing p, and every later row has
    n(p') >= p' + 1 - 2 sqrt(p') > p - 1 - 2 isqrt(p) by Hasse. So the count
    of an order at or below that floor is final: it leaves the open counts,
    for the table when it is at least 2, and the open counts span only the
    Hasse window. The pair count is the sum of M(M - 1) over the table, and
    the second moment is the row count plus the pair count, since the M of
    all orders sum to the rows. Raises ValueError on a row whose n lies at
    or below a floor already passed.
    """
    # Imported here, so the commands that never count points do not load it.
    from heapq import heappop, heappush

    table = {}
    open_counts: dict[int, int] = {}
    heap: list[int] = []  # the keys of open_counts
    floor = -2  # the least p - 1 - 2 isqrt(p) over p >= 0
    for p, n in zip(ps, ns):
        f = p - 1 - 2 * isqrt(p)
        if f > floor:
            floor = f
            while heap and heap[0] <= floor:
                done = heappop(heap)
                m = open_counts.pop(done)
                if m >= 2:
                    table[done] = m
        if n <= floor:
            raise ValueError(f"order {n} at p={p} lies below the Hasse floor {floor}")
        m = open_counts.get(n)
        if m is None:
            open_counts[n] = 1
            heappush(heap, n)
        else:
            open_counts[n] = m + 1
    for n in sorted(heap):
        if open_counts[n] >= 2:
            table[n] = open_counts[n]
    pairs = sum(m * (m - 1) for m in table.values())
    window = _prime_window_counts(list(table))
    failures = tuple(
        (n, m, 1 + window[n]) for n, m in table.items() if m > 1 + window[n]
    )
    delta = _fit_slope(
        [(math.log(n), math.log(m)) for n, m in table.items() if n > 1]
    )
    return MultiplicityStats(
        table=table,
        second_moment=len(ns) + pairs,
        collision_pairs=pairs,
        ceiling_ok=not failures,
        ceiling_failures=failures,
        fitted_delta=delta,
    )


# -- summary -------------------------------------------------------------------


class CensusSummary(NamedTuple):
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
        multiplicity = {str(n): self.multiplicity[n] for n in sorted(self.multiplicity)}
        return {**self._asdict(), "multiplicity": multiplicity}


def summarize(
    result: CensusResult,
    decomposition: PomeranceDecomposition | None = None,
    extra_meta: dict | None = None,
) -> CensusSummary:
    """Aggregate counts, decomposition, and multiplicity diagnostics.

    Everything here is a pure function of the census columns, so repeated
    runs (any worker count) serialize to identical bytes.
    """
    if decomposition is None:
        decomposition = decompose_pseudoprimes(result)
    tally = Counter(result.verdicts)  # verdict byte -> rows

    def having(bits: int) -> int:
        return sum(c for v, c in tally.items() if v & bits == bits)

    twin = having(PRIME_BIT)
    fermat_primes = having(PRIME_BIT | FERMAT_BIT)
    pseu = having(PSEUDO_BIT)
    q = having(FERMAT_BIT)
    unit = result.n.count(1)
    mult = multiplicity_stats(result.p, result.n)
    x = result.x
    cm_reference = x / math.log(x) ** 0.9
    meta = {
        "strict_fermat": result.strict,
        "good_count": len(result.n),
        "fermat_prime_count": fermat_primes,
        "partition_ok": q == fermat_primes + pseu + unit,
        "twin_le_Q": twin <= q,  # must hold in the default Fermat mode
        "pseu_to_twin_ratio": pseu / twin if twin else None,  # observed, never asserted
        "unclassified": decomposition.counts["unclassified"],
        "L_clamped": decomposition.L == 1.0,
        "multiplicity_ceiling_ok": mult.ceiling_ok,
        "max_multiplicity": max(
            mult.table.values(), default=1 if result.n else 0
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
    # the is_prime, is_pseudoprime, fermat cells of each verdict byte value
    bits = (PRIME_BIT, PSEUDO_BIT, FERMAT_BIT)
    flags = ["".join(f",{int(bool(v & b))}" for b in bits) + "\n" for v in range(256)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(RECORDS_HEADER + "\n")
        for p, n, v in zip(result.p, result.n, result.verdicts):
            fh.write(f"{p},{p + 1 - n},{n}{flags[v]}")


def write_summary_json(summary: CensusSummary, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary.to_dict(), fh, indent=2)
        fh.write("\n")
