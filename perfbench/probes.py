"""Layer probes of the traced run: the calls a command makes inside one
layer, timed one by one on the workload's inputs, plus point counting on
the fixed prime samples of samples.json.
"""
from __future__ import annotations

import json
import os
import random

import checker
from tracer import Tracer

from eclab.arith import factorize, is_prime
from eclab.census import run_census
from eclab.curves import WeierstrassCurve, count_points, reduce_mod
from eclab.primes import iter_prime_segments, primes_up_to
from eclab.pseudoprimes import fermat_holds
from eclab.sieve import density_product, empirical_S, empirical_T

HERE = os.path.dirname(os.path.abspath(__file__))
SAMPLES = os.path.join(HERE, "samples.json")


def _curve(inputs) -> WeierstrassCurve:
    return WeierstrassCurve(*inputs.curve.coeffs, label=inputs.curve.label, cm=inputs.curve.cm)


def census_layers(tracer: Tracer, inputs) -> list[tuple[int, int, int]]:
    """The census loop of one worker, one layer call at a time."""
    curve = _curve(inputs)
    rows = []
    with tracer.span("probe.census"):
        segments = tracer.call("primes.iter_prime_segments", lambda: list(iter_prime_segments(inputs.x)))
        for seg in segments:
            for p in seg.primes:
                rc = tracer.call("curves.reduce_mod", reduce_mod, curve, p)
                if not rc.good:
                    continue
                n = tracer.call("curves.count_points", count_points, rc)
                tracer.call("pseudoprimes.fermat_holds", fermat_holds, inputs.base, n, False)
                tracer.call("arith.is_prime", is_prime, n)
                rows.append((p, p + 1 - n, n))
    return rows


def sieve_layers(tracer: Tracer, inputs):
    """run_census with one worker, then the S/T scans and the density product."""
    with tracer.span("probe.sieve"):
        result = tracer.call("census.run_census_1w", run_census, _curve(inputs), inputs.x, inputs.base, False, 1)
        survivors = tracer.call("sieve.empirical_S", empirical_S, result.records, inputs.y, inputs.z)
        tracer.call("sieve.empirical_T", empirical_T, result.records, inputs.base, inputs.y, inputs.z)
        tracer.call("sieve.density_product", density_product, inputs.y, inputs.z)
    return result, survivors


def order_layers(tracer: Tracer, inputs) -> None:
    """factorize(ell - 1) for every prime ell <= cap coprime to the base."""
    ells = [ell for ell in primes_up_to(inputs.cap) if inputs.base % ell]
    with tracer.span("probe.orders"):
        for ell in ells:
            tracer.call("arith.factorize", factorize, ell - 1)


def count_samples(tracer: Tracer) -> tuple[dict[str, float], list[str]]:
    """Microseconds per count_points call on each fixed decade sample."""
    with open(SAMPLES, encoding="utf-8") as fh:
        samples = json.load(fh)
    values, failures = {}, []
    with tracer.span("probe.count_samples"):
        for label, coeffs in samples["curves"].items():
            curve = WeierstrassCurve(*coeffs, label=label)
            tag = "" if label == "37a" else "_cm"
            for decade, primes in samples["primes"].items():
                name = f"curves.count_points@{label}@{decade}"
                reduced = [reduce_mod(curve, p) for p in primes]
                ns = [tracer.call(name, count_points, rc) for rc in reduced]
                if ns != samples["orders"][label][decade]:
                    failures.append(f"count_points on the {label} {decade} sample changed n(p)")
                values[f"curves.count_us{tag}_at_{decade}"] = tracer.seconds(name) / len(primes) * 1e6
    return values, failures


def run_probes(tracer: Tracer, inputs: dict, traced: dict) -> tuple[dict, list[str]]:
    """Every probe; returns the layer metrics they give and any failed check."""
    census_in, sieve_in, orders_in = inputs["census"], inputs["sieve-cm"], inputs["orders"]
    values, failures = count_samples(tracer)

    rows = census_layers(tracer, census_in)
    census_inv = traced["census"][0]
    try:
        records = checker.read_records(os.path.join(census_inv.out_dir, "records.csv"))
        with open(os.path.join(census_inv.out_dir, "summary.json"), encoding="utf-8") as fh:
            values["census.pseudoprimes"] = json.load(fh)["pseu"]
        values["census.records_bytes"] = os.path.getsize(os.path.join(census_inv.out_dir, "records.csv"))
    except (OSError, ValueError, KeyError) as exc:
        failures.append(f"traced census outputs unreadable: {exc}")
        records = []
    if [r[:3] for r in records] != rows:
        failures.append("layer-by-layer census disagrees with records.csv")

    result, survivors = sieve_layers(tracer, sieve_in)
    sieve_inv = traced["sieve-cm"][0]
    if checker.census_digest(result) != sieve_inv.trace["census_digest"]:
        failures.append("run_census records or verdicts differ between one and two workers")
    rows = [(r.p, r.a_p, r.n) for r in result.records]
    rng = random.Random(f"check:{sieve_in.seed}")
    failures += checker.check_group_orders(rows, sieve_in.curve.coeffs, rng)
    failures += checker.check_naive_sample(rows, sieve_in.curve.coeffs, rng)
    failures += checker.check_sieve_counts([r.n for r in result.records], sieve_inv.out_dir, sieve_in.base, sieve_in.y, sieve_in.z)

    order_layers(tracer, orders_in)

    values.update(
        {
            "primes.sieve_s": tracer.seconds("primes.iter_prime_segments"),
            "curves.reduce_mod_s": tracer.seconds("curves.reduce_mod"),
            "curves.count_points_s": tracer.seconds("curves.count_points"),
            "curves.count_points_calls": tracer.calls("curves.count_points"),
            "arith.is_prime_s": tracer.seconds("arith.is_prime"),
            "pseudoprimes.fermat_s": tracer.seconds("pseudoprimes.fermat_holds"),
            "arith.factorize_s": tracer.seconds("arith.factorize"),
            "arith.factorize_calls": tracer.calls("arith.factorize"),
            "census.run_census_1w_s": tracer.seconds("census.run_census_1w"),
            "sieve.empirical_S_s": tracer.seconds("sieve.empirical_S"),
            "sieve.empirical_T_s": tracer.seconds("sieve.empirical_T"),
            "sieve.density_product_s": tracer.seconds("sieve.density_product"),
            "sieve.survivors": survivors,
        }
    )
    return values, failures
