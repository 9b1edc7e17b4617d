"""Draw the fixed point-counting samples once: `python3 perfbench/make_samples.py`.

For each decade 10^3 ... 10^8 it draws SAMPLE_SIZE primes uniformly from
[10^d, 2 * 10^d) with a fixed seed and records n(p) on each sample curve.
samples.json holds the result. The samples are never re-picked: a test
checks that samples.json still matches this draw, so a change cannot pick
primes that flatter it.
"""
from __future__ import annotations

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from checker import primes_up_to  # noqa: E402

DRAW_SEED = "count-samples:0"
SAMPLE_SIZE = 100
DECADES = (3, 4, 5, 6, 7, 8)
# (label, coefficients): the paper's curve and the CM curve y^2 = x^3 + 2.
SAMPLE_CURVES = (("37a", (0, 0, 1, -1, 0)), ("k2", (0, 0, 0, 0, 2)))
NAIVE_CHECK_BELOW = 10**5


def _is_prime(n: int, small: list[int]) -> bool:
    return all(n % q for q in small if q * q <= n)


def draw_primes() -> dict[str, list[int]]:
    rng = random.Random(DRAW_SEED)
    small = primes_up_to(2 * 10 ** (max(DECADES) // 2) + 1)
    out = {}
    for d in DECADES:
        lo = 10**d
        picked: set[int] = set()
        while len(picked) < SAMPLE_SIZE:
            p = rng.randrange(lo, 2 * lo) | 1
            if _is_prime(p, small):
                picked.add(p)
        out[f"1e{d}"] = sorted(picked)
    return out


def main() -> None:
    from eclab.curves import WeierstrassCurve, count_points, naive_count, reduce_mod

    primes = draw_primes()
    orders = {}
    for label, coeffs in SAMPLE_CURVES:
        curve = WeierstrassCurve(*coeffs, label=label)
        orders[label] = {}
        for decade, ps in primes.items():
            ns = []
            for p in ps:
                rc = reduce_mod(curve, p)
                n = count_points(rc)
                if p < NAIVE_CHECK_BELOW and naive_count(rc) != n:
                    raise SystemExit(f"count_points disagrees with naive_count at {label}, p={p}")
                ns.append(n)
            orders[label][decade] = ns
    doc = {
        "draw_seed": DRAW_SEED,
        "curves": {label: list(coeffs) for label, coeffs in SAMPLE_CURVES},
        "primes": primes,
        "orders": orders,
    }
    with open(os.path.join(HERE, "samples.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
