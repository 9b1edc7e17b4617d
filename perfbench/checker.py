"""Output checks for the benchmark, run outside the timed region.

Every check returns a list of failure messages; an empty list passes. The
checks recompute what they can with code of their own (sieves, orders,
Fermat tests, a group-law check of every n(p)) and use
`eclab.curves.naive_count`, the exhaustive oracle, for a seeded sample of
point counts.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
from math import isqrt

from workloads import b_invariants, discriminant

RECORDS_HEADER = ["p", "a_p", "n", "is_prime", "is_pseudoprime", "fermat"]
ORDERS_HEADER = "m,count,bound,ok"
CLASSES_HEADER = "n,r,count,formula_count,match"
EULER_GAMMA = 0.5772156649015329
NAIVE_SAMPLE = 12  # rows per output recounted with naive_count, O(p) each


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def census_digest(result) -> str:
    """sha256 over the records and verdicts of an eclab CensusResult."""
    h = hashlib.sha256()
    for rec in result.records:
        h.update(f"{rec.p},{rec.a_p},{rec.n};".encode())
    h.update(bytes(result.verdicts))
    return h.hexdigest()


def prime_flags(limit: int) -> bytearray:
    """flags[k] == 1 iff k is prime, for 0 <= k <= limit."""
    flags = bytearray([1]) * (limit + 1)
    flags[: min(2, limit + 1)] = bytes(min(2, limit + 1))
    for i in range(2, isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, limit + 1, i)))
    return flags


def primes_up_to(limit: int) -> list[int]:
    if limit < 2:
        return []
    return [k for k, f in enumerate(prime_flags(limit)) if f]


def smallest_factors(limit: int) -> list[int]:
    """spf[k] = smallest prime factor of k, for 2 <= k <= limit."""
    spf = list(range(limit + 1))
    for i in range(2, isqrt(limit) + 1):
        if spf[i] == i:
            for j in range(i * i, limit + 1, i):
                if spf[j] == j:
                    spf[j] = i
    return spf


def _factor(n: int, spf: list[int]) -> dict[int, int]:
    out: dict[int, int] = {}
    while n > 1:
        q = spf[n]
        out[q] = out.get(q, 0) + 1
        n //= q
    return out


def order_mod(b: int, d: int, spf: list[int]) -> int:
    """Order of b mod d (gcd(b, d) = 1), stripping factors of lambda(d)."""
    if d == 1:
        return 1
    lam = 1
    for q, e in _factor(d, spf).items():
        part = (1 if e == 1 else 2 if e == 2 else 2 ** (e - 2)) if q == 2 else q ** (e - 1) * (q - 1)
        lam = lam * part // math.gcd(lam, part)
    m = lam
    for q in _factor(lam, spf):
        while m % q == 0 and pow(b, m // q, d) == 1:
            m //= q
    return m


def scale_L(x: float) -> float:
    if x <= math.exp(math.e):
        return 1.0
    lx = math.log(x)
    llx = math.log(lx)
    return math.exp(lx * math.log(llx) / llx)


def parse_kv(text: str) -> dict[str, str]:
    """The `key,value` report an eclab subcommand prints on stdout."""
    lines = text.splitlines()
    if not lines or lines[0] != "key,value":
        return {}
    out = {}
    for line in lines[1:]:
        key, _, value = line.partition(",")
        out[key] = value
    return out


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def read_records(path: str) -> list[tuple[int, ...]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != RECORDS_HEADER:
        raise ValueError("records.csv header mismatch")
    if any(len(row) != len(RECORDS_HEADER) for row in rows):
        raise ValueError("records.csv row with the wrong number of fields")
    return [tuple(int(v) for v in row) for row in rows[1:]]


def good_primes(disc: int, x: int) -> tuple[list[int], list[int]]:
    good, bad = [], []
    for p in primes_up_to(x):
        (good if disc % p else bad).append(p)
    return good, bad


def check_records(rows, disc: int, x: int, base: int) -> list[str]:
    """Every row: the right primes, n = p + 1 - a_p, Hasse, and each flag."""
    fails = []
    good, _ = good_primes(disc, x)
    if [r[0] for r in rows] != good:
        fails.append("records.csv primes differ from the good primes <= x")
    flags = prime_flags(x + 2 * isqrt(x) + 3)
    for p, a, n, is_pr, is_ps, ferm in rows:
        want_f = int(pow(base, n, n) == base % n)
        want_pr = int(flags[n])
        want_ps = int(want_f and not want_pr and n != 1)
        if n != p + 1 - a or a * a > 4 * p or (is_pr, is_ps, ferm) != (want_pr, want_ps, want_f):
            fails.append(f"records.csv row for p={p} is wrong")
            break
    return fails


def _sqrt_mod(r: int, p: int) -> int:
    """A square root of the quadratic residue r modulo the odd prime p."""
    if r == 0:
        return 0
    if p % 4 == 3:
        return pow(r, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, t, root = pow(z, q, p), pow(r, q, p), pow(r, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, root = i, b * b % p, t * b * b % p, root * b % p
    return root


def kills_random_point(coeffs, p: int, n: int, rng: random.Random) -> bool:
    """n * P = O for a random point P of E(F_p), p >= 5, in affine arithmetic
    on the short model y^2 = x^3 - 27 c4 x - 54 c6."""
    b2, b4, b6, _ = b_invariants(*coeffs)
    A = -27 * (b2 * b2 - 24 * b4) % p
    B = -54 * (-(b2**3) + 36 * b2 * b4 - 216 * b6) % p
    while True:
        x = rng.randrange(p)
        r = (x * x * x + A * x + B) % p
        if r == 0 or pow(r, (p - 1) // 2, p) == 1:
            point = (x, _sqrt_mod(r, p))
            break

    def add(P, Q):
        if P is None or Q is None:
            return Q if P is None else P
        if P[0] == Q[0] and (P[1] + Q[1]) % p == 0:
            return None
        if P == Q:
            slope = (3 * P[0] * P[0] + A) * pow(2 * P[1], -1, p) % p
        else:
            slope = (Q[1] - P[1]) * pow(Q[0] - P[0], -1, p) % p
        x3 = (slope * slope - P[0] - Q[0]) % p
        return x3, (slope * (P[0] - x3) - P[1]) % p

    acc = None
    for bit in bin(n)[2:]:
        acc = add(acc, acc)
        if bit == "1":
            acc = add(acc, point)
    return acc is None


def check_group_orders(rows, coeffs, rng: random.Random) -> list[str]:
    """Every row's n kills a random point of E(F_p); p < 5 is recounted."""
    from eclab.curves import ReducedCurve, naive_count

    for p, _, n, *_ in rows:
        if p < 5:
            ok = naive_count(ReducedCurve(p, *(c % p for c in coeffs), True)) == n
        else:
            ok = kills_random_point(coeffs, p, n, rng)
        if not ok:
            return [f"records.csv n({p}) = {n} is not the order of E(F_{p})"]
    return []


def check_naive_sample(rows, coeffs, rng: random.Random, size: int = NAIVE_SAMPLE) -> list[str]:
    """Recount a seeded sample of rows with the exhaustive oracle."""
    from eclab.curves import ReducedCurve, naive_count

    fails = []
    for p, _, n, *_ in rng.sample(rows, min(size, len(rows))):
        rc = ReducedCurve(p, *(c % p for c in coeffs), True)
        if naive_count(rc) != n:
            fails.append(f"records.csv n({p}) = {n} disagrees with naive_count")
    return fails


def check_census(
    out_dir: str, stdout: str, curve, x: int, base: int, sample_seed: int, sample_size: int = NAIVE_SAMPLE
) -> list[str]:
    """records.csv and summary.json of `eclab pomerance`."""
    try:
        rows = read_records(os.path.join(out_dir, "records.csv"))
        with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"census outputs unreadable: {exc}"]
    disc = discriminant(curve.coeffs)
    fails = check_records(rows, disc, x, base)
    rng = random.Random(f"check:{sample_seed}")
    fails += check_group_orders(rows, curve.coeffs, rng)
    fails += check_naive_sample(rows, curve.coeffs, rng, sample_size)
    counts = {
        "twin": sum(r[3] for r in rows),
        "pseu": sum(r[4] for r in rows),
        "Q": sum(r[5] for r in rows),
        "unit_count": sum(1 for r in rows if r[2] == 1),
    }
    for key, want in counts.items():
        if summary.get(key) != want:
            fails.append(f"summary.json {key} = {summary.get(key)}, records give {want}")
    _, bad = good_primes(disc, x)
    expect = {"x": x, "base_b": base, "curve_label": curve.label, "skipped_bad": bad}
    for key, want in expect.items():
        if summary.get(key) != want:
            fails.append(f"summary.json {key} = {summary.get(key)!r}, expected {want!r}")
    if summary.get("meta", {}).get("good_count") != len(rows):
        fails.append("summary.json meta.good_count disagrees with records.csv")
    kv = parse_kv(stdout)
    for key in ("twin", "pseu", "Q"):
        if kv.get(key) != str(counts[key]):
            fails.append(f"stdout {key} = {kv.get(key)!r}, records give {counts[key]}")
    return fails


def density_product(y: float, z: float) -> float:
    v = 1.0
    for p in primes_up_to(max(0, math.ceil(z) - 1)):
        if p >= y:
            v *= 1.0 - (p * p - 2) / ((p - 1) * (p * p - 1))
    return v


def check_sieve(out_dir: str, stdout: str, curve, x: int, y: float, z: float, base: int, s: float = 2.0) -> list[str]:
    """sieve.json of `eclab sieve-report`; S, T and Q need the records and
    are checked by check_sieve_counts in the traced run."""
    try:
        with open(os.path.join(out_dir, "sieve.json"), encoding="utf-8") as fh:
            rep = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"sieve.json unreadable: {exc}"]
    fails = []
    if (rep.get("x"), rep.get("y"), rep.get("z")) != (float(x), float(y), float(z)):
        fails.append("sieve.json x, y, z do not echo the input")
    meta = rep.get("meta", {})
    if meta.get("pi_x") != len(primes_up_to(x)):
        fails.append(f"sieve.json pi_x = {meta.get('pi_x')}, expected {len(primes_up_to(x))}")
    if meta.get("curve") != curve.label or meta.get("base") != base:
        fails.append("sieve.json meta names the wrong curve or base")
    S, T, Q = rep.get("empirical_S"), rep.get("empirical_T"), rep.get("empirical_Q")
    if not all(isinstance(v, int) and v >= 0 for v in (S, T, Q)) or Q > S + T:
        fails.append(f"sieve.json S, T, Q = {S}, {T}, {Q} break Q <= S + T")
    if not _close(rep.get("V_y_z", 0.0), density_product(y, z), 1e-9):
        fails.append("sieve.json V_y_z disagrees with the density product")
    if not _close(rep.get("F_s", 0.0), 2 * math.exp(EULER_GAMMA) / s, 1e-12):
        fails.append("sieve.json F_s disagrees with 2 e^gamma / s")
    kv = parse_kv(stdout)
    for key, want in (("empirical_S", S), ("empirical_T", T), ("empirical_Q", Q)):
        if kv.get(key) != str(want):
            fails.append(f"stdout {key} = {kv.get(key)!r}, sieve.json has {want}")
    return fails


def sieve_counts(ns, base: int, y: float, z: float) -> tuple[int, int, int]:
    """S, T, Q by trial-division factoring of each n (all n are small)."""
    S = T = Q = 0
    for n in ns:
        fermat = pow(base, n, n) == base % n
        Q += fermat
        m, q, hit = n, 2, False
        while q * q <= m:
            if m % q == 0:
                hit = hit or y <= q < z
                while m % q == 0:
                    m //= q
            q += 1
        hit = hit or (m > 1 and y <= m < z)
        if hit:
            T += fermat
        else:
            S += 1
    return S, T, Q


def check_sieve_counts(ns, out_dir: str, base: int, y: float, z: float) -> list[str]:
    with open(os.path.join(out_dir, "sieve.json"), encoding="utf-8") as fh:
        rep = json.load(fh)
    got = (rep["empirical_S"], rep["empirical_T"], rep["empirical_Q"])
    want = sieve_counts(ns, base, y, z)
    if got != want:
        return [f"sieve.json S, T, Q = {got}, the census records give {want}"]
    return []


def order_report(base: int, t: int, cap: int) -> dict:
    """Everything `eclab order-stats` prints, recomputed."""
    spf = smallest_factors(cap)
    census: dict[int, int] = {}
    tail, product_tail = [], []
    for ell in primes_up_to(cap):
        if base % ell == 0:
            continue
        m = order_mod(base, ell, spf)
        if ell <= t:
            census[m] = census.get(m, 0) + 1
        if ell >= t:
            tail.append(1.0 / (ell * m))
        if ell * m >= t:
            product_tail.append(1.0 / (ell * m))
    t_lv = min(t, 10_000)
    levels: dict[int, int] = {}
    for d in range(2, t_lv + 1):
        if math.gcd(base, d) == 1:
            m = order_mod(base, d, spf)
            levels[m] = levels.get(m, 0) + 1
    threshold = t_lv / math.sqrt(scale_L(t_lv))
    return {
        "census": dict(sorted(census.items())),
        "tail_sum": math.fsum(tail),
        "product_tail_sum": math.fsum(product_tail),
        "threshold": threshold,
        "flagged": {m: c for m, c in sorted(levels.items()) if c > threshold},
    }


def check_orders(out_dir: str, stdout: str, base: int, t: int, cap: int) -> list[str]:
    try:
        with open(os.path.join(out_dir, "orders.csv"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        return [f"orders.csv unreadable: {exc}"]
    want = order_report(base, t, cap)
    fails = []
    rows = [
        f"{m},{c},{math.log(base) / math.log(2) * m:.6g},1" for m, c in want["census"].items()
    ]
    if lines != [ORDERS_HEADER] + rows:
        fails.append("orders.csv disagrees with the recomputed order census")
    kv = parse_kv(stdout)
    exact = {
        "base": str(base),
        "t": str(t),
        "cap": str(cap),
        "distinct_orders": str(len(want["census"])),
        "bound_ok": "1",
        "flagged_levels": str(len(want["flagged"])),
    }
    exact.update({f"flagged_m_{m}": str(c) for m, c in want["flagged"].items()})
    for key, value in exact.items():
        if kv.get(key) != value:
            fails.append(f"stdout {key} = {kv.get(key)!r}, expected {value!r}")
    for key, value in (
        ("tail_sum", want["tail_sum"]),
        ("product_tail_sum", want["product_tail_sum"]),
        ("level_threshold", want["threshold"]),
    ):
        try:
            ok = _close(float(kv.get(key, "nan")), value, 1e-12)
        except ValueError:
            ok = False
        if not ok:
            fails.append(f"stdout {key} = {kv.get(key)!r}, expected {value!r}")
    return fails


def gl2_order(n: int) -> int:
    """|GL2(Z/n)| = n^4 prod over primes q | n of (1 - 1/q)(1 - 1/q^2)."""
    order, m = n**4, n
    for q in range(2, n + 1):
        if m % q == 0:
            order = order // q**3 * (q - 1) * (q * q - 1)
            while m % q == 0:
                m //= q
    return order


def check_classes(out_dir: str, stdout: str, cap: int) -> list[str]:
    """classes.csv of `eclab verify-classes`: every modulus partitions GL2."""
    kv = parse_kv(stdout)
    fails = [
        f"stdout {key} = {kv.get(key)!r}, expected '1'"
        for key in ("matches_ok", "partitions_ok")
        if kv.get(key) != "1"
    ]
    try:
        with open(os.path.join(out_dir, "classes.csv"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        return fails + [f"classes.csv unreadable: {exc}"]
    if not lines or lines[0] != CLASSES_HEADER or kv.get("rows") != str(len(lines) - 1):
        return fails + ["classes.csv header or row count is wrong"]
    totals: dict[int, int] = {}
    for line in lines[1:]:
        n, _, count, _, match = line.split(",")
        totals[int(n)] = totals.get(int(n), 0) + int(count)
        if match == "0":
            fails.append(f"classes.csv reports a mismatch at n={n}")
    if totals != {n: gl2_order(n) for n in range(2, cap + 1)}:
        fails.append("classes.csv counts do not sum to |GL2(Z/n)|")
    return fails
