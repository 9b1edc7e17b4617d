"""What the benchmark reports, and which result each layer metric should move.

BENCHMARK.json at the repository root is generated from this file:
`python3 perfbench/metrics.py > BENCHMARK.json`.
"""
from __future__ import annotations

import json

RUN_SECONDS = 60

# name, parts (the input kinds of workloads.make_inputs, run in this order in
# every repeat), why. The host's speed drifts over tens of seconds, so a run
# must last about a minute to be steady, and the time allowed for all runs
# holds that for two workloads, not three: pomerance and sieve-report, the
# two commands that count points, share one workload.
WORKLOADS = (
    (
        "curves",
        ("census", "sieve-cm"),
        "eclab pomerance on a non-CM curve (37a at seed 0), one worker, then sieve-report on "
        "y^2 = x^3 + k (k = 2), two workers: point counting, the pool and the sieve scans",
    ),
    (
        "orders",
        ("orders",),
        "eclab order-stats then verify-classes: the order layer and GL2 enumeration, "
        "never touching curves, so a point-counting change must not move it",
    ),
)

PARTS = {name: parts for name, parts, _ in WORKLOADS}

# name, unit, better, bound (the share of the parent's median it may worsen by)
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.05),
    ("setup_s", "s", "lower", 0.25),
    ("primes_per_s", "1/s", "higher", 0.25),
)

# name, unit, better, the end-to-end metric and workloads it should move
PER_LAYER = (
    ("primes.sieve_s", "s", "lower", "wall_s on curves (under 1%)"),
    ("curves.reduce_mod_s", "s", "lower", "wall_s on curves; nothing on orders"),
    ("curves.count_points_s", "s", "lower", "wall_s on curves; nothing on orders"),
    ("curves.count_points_calls", "count", "lower", "wall_s on curves"),
    *(
        (f"curves.count_us{cm}_at_1e{d}", "us", "lower", "wall_s on curves, through the decades its censuses cover")
        for cm in ("", "_cm")
        for d in range(3, 9)
    ),
    ("arith.is_prime_s", "s", "lower", "wall_s on curves, pomerance step"),
    ("arith.factorize_s", "s", "lower", "wall_s on orders"),
    ("arith.factorize_calls", "count", "lower", "wall_s on orders"),
    ("pseudoprimes.fermat_s", "s", "lower", "wall_s on curves, pomerance step (about 1%)"),
    ("pseudoprimes.order_census_s", "s", "lower", "wall_s on orders"),
    ("pseudoprimes.tail_sum_s", "s", "lower", "wall_s on orders"),
    ("pseudoprimes.product_tail_sum_s", "s", "lower", "wall_s on orders"),
    ("pseudoprimes.order_level_report_s", "s", "lower", "wall_s on orders"),
    ("census.run_census_s", "s", "lower", "wall_s on curves, pomerance step"),
    ("census.driver_self_s", "s", "lower", "wall_s on curves, pomerance step"),
    ("census.decompose_s", "s", "lower", "wall_s on curves, pomerance step"),
    ("census.pseudoprimes", "count", "higher", "none: a property of the pomerance inputs"),
    ("census.summarize_s", "s", "lower", "wall_s on curves, pomerance step"),
    ("census.write_s", "s", "lower", "wall_s on curves, pomerance step"),
    ("census.records_bytes", "bytes", "lower", "wall_s on curves, pomerance step"),
    ("census.run_census_1w_s", "s", "lower", "wall_s and cpu_s on curves, sieve-report step"),
    ("census.parallel_eff", "ratio", "higher", "wall_s and cpu_s on curves, sieve-report step"),
    ("sieve.empirical_S_s", "s", "lower", "wall_s on curves, sieve-report step"),
    ("sieve.empirical_T_s", "s", "lower", "wall_s on curves, sieve-report step"),
    ("sieve.density_product_s", "s", "lower", "wall_s on curves, sieve-report step"),
    ("sieve.build_sieve_report_s", "s", "lower", "wall_s on curves, sieve-report step"),
    ("sieve.survivors", "count", "higher", "none: a property of the sieve-report inputs"),
    ("gl2.class_count_table_s", "s", "lower", "wall_s on orders"),
    ("gl2.predicted_class_count_s", "s", "lower", "wall_s on orders"),
    ("cli.self_s", "s", "lower", "wall_s and setup_s on the traced workload"),
    ("trace.overhead_s", "s", "lower", "none: tracing cost on the traced workload"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, _, why in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better} for name, unit, better, _ in PER_LAYER
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
