"""Command line front end.

Subcommands: census, pomerance, verify-classes, order-stats, sieve-report.
Each validates its input, writes its artifacts and returns a `Report`;
`main` alone prints it: the report on stdout, then on stderr the written
paths and one line per violated invariant.
Exit codes: 0 success, 1 violated invariant (a mathematical identity the
run must satisfy), 2 usage error, 3 I/O error.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import NamedTuple

from .census import (
    decompose_pseudoprimes,
    run_census,
    summarize,
    worker_count,
    write_records_csv,
    write_summary_json,
)
from .curves import SingularCurveError, get_curve
from .gl2 import (
    ENUMERATION_CAP,
    class_count_table,
    gl2_order,
    predicted_class_count,
)
from .primes import check_cutoff
# order_stats replaces the order_census, tail_sum and product_tail_sum calls;
# those names stay importable here because perfbench/traced_cli.py wraps them.
from .pseudoprimes import (  # noqa: F401
    SPF_LIMIT,
    nord_bound,
    order_census,
    order_level_report,
    order_stats,
    product_tail_sum,
    tail_sum,
)
from .sieve import build_sieve_report, count_envelope, linear_sieve_F, preset_params

CLASSES_HEADER = "n,r,count,formula_count,match"
ORDERS_HEADER = "m,count,bound,ok"


class UsageError(Exception):
    """Bad arguments detected after argparse (unknown label, y >= z, ...)."""


class Report(NamedTuple):
    """One subcommand's outcome, printed by `main`.

    payload is the --format json object, pairs the --format csv rows, wrote
    the artifact paths, failures the violated invariants (exit code 1).
    """

    payload: dict
    pairs: list
    wrote: list
    failures: list


def _add_curve_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--curve", default="37a", help="curve label (default 37a)")
    sub.add_argument(
        "--curve-file",
        default=None,
        help="file of curve lines 'label:a1,a2,a3,a4,a6[,cm=0|1]' "
        "(default: builtin registry)",
    )
    sub.add_argument("--base", type=int, default=2, help="Fermat base (default 2)")
    sub.add_argument(
        "--strict-fermat",
        action="store_true",
        help="use the b^(n-1) = 1 test instead of b^n = b",
    )


def _add_common_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", default=".", help="output directory (default .)")
    sub.add_argument(
        "--format",
        choices=("csv", "json"),
        default="csv",
        help="stdout format: csv prints key,value lines; json prints the report",
    )


def _add_census_parser(subs, name: str, help_text: str, pomerance: bool) -> None:
    """The census and pomerance subcommands share every argument."""
    p = subs.add_parser(name, help=help_text)
    _add_curve_args(p)
    p.add_argument("--x", type=int, required=True, help="census cutoff (primes p <= x)")
    p.add_argument(
        "--threads",
        type=int,
        default=None,
        help="number of worker processes (default $ECLAB_THREADS, else the CPU count)",
    )
    _add_common_args(p)
    p.set_defaults(func=_cmd_census, pomerance=pomerance)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eclab",
        description="census and verification tools for elliptic-curve "
        "group orders and their Fermat classifications",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    _add_census_parser(
        subs, "census", "count points at all p <= x and classify", pomerance=False
    )
    _add_census_parser(
        subs, "pomerance", "census plus the pseudoprime decomposition report", pomerance=True
    )

    p = subs.add_parser(
        "verify-classes",
        help="enumerate trace classes of 2x2 matrix groups and check the "
        "closed-form and lifted counts",
    )
    p.add_argument(
        "--cap", type=int, default=ENUMERATION_CAP, help="largest modulus (default 64)"
    )
    _add_common_args(p)
    p.set_defaults(func=_cmd_verify_classes)

    p = subs.add_parser(
        "order-stats", help="multiplicative order statistics of a Fermat base"
    )
    p.add_argument("--base", type=int, default=2, help="Fermat base (default 2)")
    p.add_argument(
        "--t",
        type=int,
        default=10_000,
        help="prime cutoff (default 10000); flagged levels scan only the "
        "moduli d <= min(t, 10000)",
    )
    p.add_argument(
        "--cap", type=int, default=100_000, help="tail-sum cutoff (default 100000)"
    )
    _add_common_args(p)
    p.set_defaults(func=_cmd_order_stats)

    p = subs.add_parser(
        "sieve-report", help="sifting densities, envelopes, and empirical counts"
    )
    _add_curve_args(p)
    p.add_argument("--x", type=int, required=True, help="census cutoff (primes p <= x)")
    p.add_argument(
        "--preset",
        choices=("unconditional", "grh"),
        default="unconditional",
        help="named (y, z) parameter choice (default unconditional)",
    )
    p.add_argument("--y", type=float, default=None, help="sifting floor (overrides preset)")
    p.add_argument("--z", type=float, default=None, help="sifting ceiling (overrides preset)")
    p.add_argument("--s", type=float, default=2.0, help="argument of F(s) (default 2)")
    _add_common_args(p)
    p.set_defaults(func=_cmd_sieve_report)

    return parser


def _load_curve(args):
    if args.base < 2:
        raise UsageError(f"--base must be at least 2, got {args.base}")
    try:
        return get_curve(args.curve, args.curve_file)
    except KeyError as exc:
        raise UsageError(exc.args[0])


def _print_kv(pairs) -> None:
    print("key,value")
    for k, v in pairs:
        print(f"{k},{v}")


def _out_path(args, name: str) -> str:
    """Create --out if needed (before any counting) and return name's path in it."""
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _census_invariant_failures(summary) -> list[str]:
    failures = []
    if not summary.meta["partition_ok"]:
        failures.append(
            "partition failed: Q != fermat-passing primes + pseudoprimes + units"
        )
    if not summary.meta["strict_fermat"] and not summary.meta["twin_le_Q"]:
        failures.append("ordering failed: twin exceeds Q under the b^n = b test")
    return failures


def _cmd_census(args) -> Report:
    if args.x < 2:
        raise UsageError(f"--x must be at least 2, got {args.x}")
    check_cutoff(args.x)
    curve = _load_curve(args)
    workers = worker_count(args.threads)
    paths = [_out_path(args, "records.csv"), _out_path(args, "summary.json")]
    result = run_census(
        curve, args.x, base=args.base, strict=args.strict_fermat, threads=workers
    )
    dec = decompose_pseudoprimes(result)
    extra = {"pomerance": dec.to_dict()} if args.pomerance else None
    summary = summarize(result, dec, extra_meta=extra)
    write_records_csv(result, paths[0])
    write_summary_json(summary, paths[1])
    pairs = [
        ("curve", summary.curve_label),
        ("base", summary.base_b),
        ("x", summary.x),
        ("good_count", summary.meta["good_count"]),
        ("bad_count", len(summary.skipped_bad)),
        ("twin", summary.twin),
        ("pseu", summary.pseu),
        ("Q", summary.Q),
        ("unit_count", summary.unit_count),
        ("second_moment", summary.second_moment),
        *summary.s_classes.items(),
    ]
    if args.pomerance:
        pairs.append(("L", dec.L))
        pairs.append(("L_clamped", int(dec.L == 1.0)))
        for i, row in enumerate(dec.overlap):
            pairs.append((f"overlap_s{i + 1}", " ".join(map(str, row))))
        pairs.append(("s4_smooth_heavy", dec.s4_smooth_heavy))
        pairs.append(("s4_rest", dec.s4_rest))
        pairs.append(("s4_window_hit", dec.s4_window_hit))
    return Report(summary._asdict(), pairs, paths, _census_invariant_failures(summary))


def _cmd_verify_classes(args) -> Report:
    if not 2 <= args.cap <= ENUMERATION_CAP:
        raise UsageError(f"--cap must be in [2, {ENUMERATION_CAP}], got {args.cap}")
    path = _out_path(args, "classes.csv")
    lines = [CLASSES_HEADER]
    bad_partitions = []
    bad_matches = []
    for n in range(2, args.cap + 1):
        table = class_count_table(n)
        if table.group_order != gl2_order(n):
            bad_partitions.append(n)
        for r, count in enumerate(table.counts):
            predicted = predicted_class_count(n, r)
            if predicted is None:
                lines.append(f"{n},{r},{count},,")
            else:
                match = int(count == predicted)
                if not match:
                    bad_matches.append((n, r))
                lines.append(f"{n},{r},{count},{predicted},{match}")
    _write_text(path, "\n".join(lines) + "\n")
    payload = {
        "cap": args.cap,
        "rows": len(lines) - 1,
        "partitions_ok": not bad_partitions,
        "matches_ok": not bad_matches,
    }
    failures = []
    if bad_partitions:
        failures.append(f"partition failed at n={bad_partitions}")
    if bad_matches:
        failures.append(f"count mismatches at {bad_matches}")
    pairs = [(k, int(v) if isinstance(v, bool) else v) for k, v in payload.items()]
    return Report(payload, pairs, [path], failures)


def _cmd_order_stats(args) -> Report:
    if args.base < 2:
        raise UsageError(f"--base must be at least 2, got {args.base}")
    if args.t < 2 or args.cap < args.t:
        raise UsageError("need 2 <= t <= cap")
    if args.cap >= SPF_LIMIT:
        raise UsageError(f"--cap must be below 2^32, got {args.cap}")
    path = _out_path(args, "orders.csv")
    stats = order_stats(args.base, args.t, args.cap)
    lines = [ORDERS_HEADER]
    failures = []
    for m, count in stats.census.items():
        bound = nord_bound(args.base, m)
        ok = count <= bound
        if not ok:
            failures.append(f"{count} primes at order {m} exceeds bound {bound:.6g}")
        lines.append(f"{m},{count},{bound:.6g},{int(ok)}")
    _write_text(path, "\n".join(lines) + "\n")
    levels = order_level_report(args.base, min(args.t, 10_000))
    head = {
        "base": args.base,
        "t": args.t,
        "cap": args.cap,
        "distinct_orders": len(stats.census),
    }
    payload = {
        **head,
        "bound_ok": not failures,
        "tail_sums": {"tail_sum": stats.tail_sum, "product_tail_sum": stats.product_tail_sum},
        "level_threshold": levels.threshold,
        "flagged_levels": {str(m): c for m, c in levels.flagged.items()},
    }
    pairs = [
        *head.items(),
        ("bound_ok", int(not failures)),
        ("tail_sum", stats.tail_sum),
        ("product_tail_sum", stats.product_tail_sum),
        ("level_threshold", levels.threshold),
        ("flagged_levels", len(levels.flagged)),
        *((f"flagged_m_{m}", c) for m, c in levels.flagged.items()),
    ]
    return Report(payload, pairs, [path], failures)


def _cmd_sieve_report(args) -> Report:
    if args.x < 2:
        raise UsageError(f"--x must be at least 2, got {args.x}")
    if (args.y is None) != (args.z is None):
        raise UsageError("give both --y and --z or neither")
    curve = _load_curve(args)
    if args.y is not None:
        if not all(math.isfinite(v) and v >= 0 for v in (args.y, args.z)):
            raise UsageError(f"need finite y, z >= 0, got y={args.y} z={args.z}")
        if args.y >= args.z:
            raise UsageError(f"need y < z, got y={args.y} z={args.z}")
        y, z = args.y, args.z
        preset_meta = {"preset": None}
    else:
        params = preset_params(args.x, args.preset)
        y, z = params.y, params.z
        preset_meta = {
            "preset": args.preset,
            "raw_y": params.raw_y,
            "raw_z": params.raw_z,
        }
    # The rules run_census and build_sieve_report apply, checked before the
    # census and before --out is created.
    check_cutoff(args.x)
    check_cutoff(math.ceil(z) - 1)  # density_product sieves the primes below z
    linear_sieve_F(args.s)
    count_envelope(args.x, "grh")
    workers = worker_count()
    path = _out_path(args, "sieve.json")
    result = run_census(
        curve, args.x, base=args.base, strict=args.strict_fermat, threads=workers
    )
    preset_meta["curve"] = curve.label
    report = build_sieve_report(result, y, z, s=args.s, extra_meta=preset_meta)
    payload = report.to_dict()
    _write_text(path, json.dumps(payload, indent=2) + "\n")
    pairs = [
        ("curve", curve.label),
        ("base", args.base),
        ("x", args.x),
        ("y", report.y),
        ("z", report.z),
        ("V_y_z", report.V_y_z),
        ("F_s", report.F_s),
        ("envelope_uncond", report.envelope_uncond),
        ("envelope_uncond_vacuous", int(report.meta["envelope_uncond_vacuous"])),
        ("envelope_grh", report.envelope_grh),
        ("envelope_grh_vacuous", int(report.meta["envelope_grh_vacuous"])),
        ("empirical_S", report.empirical_S),
        ("empirical_T", report.empirical_T),
        ("empirical_Q", report.empirical_Q),
    ]
    failures = []
    if report.empirical_Q > report.empirical_S + report.empirical_T:
        failures.append("Q exceeds S + T")
    return Report(payload, pairs, [path], failures)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = args.func(args)
        if args.format == "json":
            print(json.dumps(report.payload, indent=2))
        else:
            _print_kv(report.pairs)
        print("wrote " + " ".join(report.wrote), file=sys.stderr)
        for msg in report.failures:
            print(f"invariant violated: {msg}", file=sys.stderr)
        return 1 if report.failures else 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SingularCurveError, ArithmeticError) as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
