"""The eclab benchmark.

    python3 perfbench/run.py --workload curves|orders|all \\
        --seed N --seconds S --trace 0|1

Run from the repository root. It runs `python3 -m eclab` on the workload's
seeded inputs with src/ on PYTHONPATH, in a closed loop from this one
process, and checks every output outside the timed region. A workload
(metrics.WORKLOADS) is the commands of one or more parts, the input kinds
of workloads.py: curves runs census then sieve-cm, orders runs orders.

--trace 0 measures the end-to-end metrics: repeats of the workload until
--seconds have passed, each after a few `--help` invocations that time
set-up. It reports the median wall, CPU and set-up times and the largest
resident set. --trace 1 makes the traced run: each command of every
part once under traced_cli.py, the layer probes of probes.py, and one
untraced repeat of the named workload, from which cli.self_s and
trace.overhead_s follow. The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics; the samples, spans and
environment go to perfbench/_out/. The benchmark's own tests:
`python3 -m pytest perfbench/tests -q`.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "_out")
LAUNCH = os.path.join(HERE, "launch.py")

import checker  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_PER_REPEAT = 3
MIN_REPEATS = 3
RUN_DEADLINE_S = 170.0


@dataclass
class Invocation:
    """One eclab process: what it ran, what it cost, what it wrote."""

    argv: list[str]
    out_dir: str
    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    code: int | None = None
    stdout: str = ""
    stderr: str = ""
    launched: float = 0.0
    digest: str = ""
    trace: dict | None = None  # what traced_cli.py wrote, for a traced invocation
    failures: list[str] = field(default_factory=list)


class Runner:
    """Starts eclab processes one at a time and waits for each to end."""

    def __init__(self, work_dir: str, deadline: float) -> None:
        self.work_dir = work_dir
        self.deadline = deadline
        self.count = 0
        self.invocations: list[Invocation] = []

    def run(self, argv: list[str], threads: int, traced: bool = False, with_out: bool = True) -> Invocation:
        """`eclab ARGV --out DIR`, or its traced twin when traced is set."""
        self.count += 1
        out_dir = os.path.join(self.work_dir, f"i{self.count}")
        os.makedirs(out_dir)
        inv = Invocation(argv, out_dir)
        trace_path = out_dir + ".trace.json"
        prefix = [os.path.join(HERE, "traced_cli.py"), trace_path] if traced else ["-m", "eclab"]
        cmd = [sys.executable, *prefix, *argv] + (["--out", out_dir] if with_out else [])
        stdout_path, stderr_path = out_dir + ".stdout", out_dir + ".stderr"
        for path in (stdout_path, stderr_path):
            open(path, "wb").close()
        timeout = max(1.0, self.deadline - time.monotonic())
        started = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, "-S", LAUNCH, stdout_path, stderr_path, *cmd],
            stdout=subprocess.PIPE,
            env=pinned_env(threads),
            cwd=ROOT,
            start_new_session=True,
        )
        watchdog = threading.Timer(timeout, _kill_group, (proc.pid,))
        watchdog.start()
        try:
            cost, _ = proc.communicate()
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        try:
            start, end, cpu, maxrss, status = cost.split()
        except ValueError:  # the watchdog killed the launcher
            start, end, cpu, maxrss, status = started, time.monotonic(), 0, 0, None
        inv.launched, inv.wall = float(start), float(end) - float(start)
        inv.cpu, inv.rss_mb = float(cpu), int(maxrss) / 1024.0
        inv.code = None if status is None else os.waitstatus_to_exitcode(int(status))
        with open(stdout_path, encoding="utf-8", errors="replace") as fh:
            inv.stdout = fh.read()
        with open(stderr_path, encoding="utf-8", errors="replace") as fh:
            inv.stderr = fh.read()[-2000:]
        if inv.code != 0:
            inv.failures.append(f"exit code {inv.code}: {inv.stderr.strip()[-300:]}")
        inv.digest = checker.file_digest(stdout_path) + "".join(
            checker.file_digest(os.path.join(out_dir, name)) for name in sorted(os.listdir(out_dir))
        )
        if traced:
            try:
                with open(trace_path, encoding="utf-8") as fh:
                    inv.trace = json.load(fh)
            except (OSError, ValueError):
                inv.failures.append("traced run wrote no trace")
                inv.trace = {"end": inv.launched + inv.wall, "census_digest": None, "spans": []}
        self.invocations.append(inv)
        return inv


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def pinned_env(threads: int) -> dict[str, str]:
    """The caller's environment minus PYTHON* and ECLAB_* settings, plus pins."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "ECLAB_"))}
    env.update(PYTHONPATH=SRC, PYTHONHASHSEED="0", ECLAB_THREADS=str(threads))
    return env


def git_revision() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "git_revision": git_revision(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg": os.getloadavg(),
    }


def write_curve_file(work_dir: str, inputs: workloads.Inputs) -> str:
    path = os.path.join(work_dir, f"{inputs.workload}-curves.txt")
    with open(path, "w", encoding="utf-8") as fh:
        if inputs.curve is not None:
            fh.write(inputs.curve.line() + "\n")
    return path


def check_invocation(inv: Invocation, inputs: workloads.Inputs) -> list[str]:
    if inv.code != 0:
        return []
    sub = inv.argv[0]
    if sub == "pomerance":
        return checker.check_census(
            inv.out_dir, inv.stdout, inputs.curve, inputs.x, inputs.base, inputs.seed
        )
    if sub == "sieve-report":
        return checker.check_sieve(
            inv.out_dir, inv.stdout, inputs.curve, inputs.x, inputs.y, inputs.z, inputs.base
        )
    if sub == "order-stats":
        return checker.check_orders(inv.out_dir, inv.stdout, inputs.base, inputs.t, inputs.cap)
    if sub == "verify-classes":
        return checker.check_classes(inv.out_dir, inv.stdout, inputs.classes_cap)
    raise ValueError(f"no check for {sub}")


def check_repeats(repeats: list[list[Invocation]], column_inputs: list[workloads.Inputs]) -> None:
    """Check each distinct output once; every repeat of a command must match
    the most common output of that command. column_inputs holds the inputs
    of each command of a repeat."""
    for column, inputs in zip(zip(*repeats), column_inputs):
        majority, _ = Counter(inv.digest for inv in column).most_common(1)[0]
        checked: dict[str, list[str]] = {}
        for inv in column:
            if inv.digest not in checked:
                checked[inv.digest] = check_invocation(inv, inputs)
            inv.failures += checked[inv.digest]
            if inv.digest != majority:
                inv.failures.append("output differs from the other repeats")


def primes_processed(inputs: workloads.Inputs) -> int:
    """Good primes censused, or for orders the primes whose order is computed."""
    if inputs.workload == "orders":
        coprime = [ell for ell in checker.primes_up_to(inputs.cap) if inputs.base % ell]
        return sum((ell <= inputs.t) + (ell >= inputs.t) + 1 for ell in coprime)
    good, _ = checker.good_primes(workloads.discriminant(inputs.curve.coeffs), inputs.x)
    return len(good)


def workload_commands(parts: list[workloads.Inputs], work_dir: str) -> list[tuple[workloads.Inputs, list[str]]]:
    """The commands of one repeat of a workload, each with the inputs it runs on."""
    return [(inputs, argv) for inputs in parts for argv in inputs.commands(write_curve_file(work_dir, inputs))]


def measured_run(parts: list[workloads.Inputs], seconds: float, runner: Runner) -> tuple[dict, dict]:
    """Closed-loop repeats for `seconds`, each after SETUP_PER_REPEAT `--help` runs
    of the workload's first command."""
    commands = workload_commands(parts, runner.work_dir)
    first_inputs, first_argv = commands[0]
    setup: list[Invocation] = []
    repeats: list[list[Invocation]] = []
    start = time.monotonic()
    # Set-up samples are spread over the run, so that they see the same
    # machine load as the repeats they sit between.
    while len(repeats) < MIN_REPEATS or (
        time.monotonic() - start + (time.monotonic() - start) / len(repeats) <= seconds
    ):
        setup += [
            runner.run([first_argv[0], "--help"], first_inputs.threads, with_out=False)
            for _ in range(SETUP_PER_REPEAT)
        ]
        repeats.append([runner.run(argv, inputs.threads) for inputs, argv in commands])
    check_repeats(repeats, [inputs for inputs, _ in commands])
    walls = [sum(i.wall for i in r) for r in repeats]
    samples = {
        "setup_s": [i.wall for i in setup],
        "wall_s": walls,
        "cpu_s": [sum(i.cpu for i in r) for r in repeats],
        "peak_rss_mb": [max(i.rss_mb for i in r) for r in repeats],
    }
    processed = sum(primes_processed(inputs) for inputs in parts)
    samples["primes_per_s"] = [processed / w for w in walls]
    values = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(samples["cpu_s"]),
        "peak_rss_mb": max(samples["peak_rss_mb"]),
        "setup_s": statistics.median(samples["setup_s"]),
        "primes_per_s": processed / statistics.median(walls),
    }
    return values, samples


def traced_run(inputs_by_part: dict, named_parts: tuple[str, ...], runner: Runner) -> tuple[dict, dict]:
    """Every command of every part once under tracing, the layer probes, and
    one untraced repeat of the named workload, whose parts are named_parts."""
    import probes

    traced: dict[str, list[Invocation]] = {}
    for name, inputs in inputs_by_part.items():
        traced[name] = [
            runner.run(argv, inputs.threads, traced=True) for _, argv in workload_commands([inputs], runner.work_dir)
        ]
        for inv in traced[name]:
            inv.failures += check_invocation(inv, inputs)
    traced_named = [inv for name in named_parts for inv in traced[name]]
    named_commands = workload_commands([inputs_by_part[name] for name in named_parts], runner.work_dir)
    untraced = [runner.run(argv, inputs.threads) for inputs, argv in named_commands]
    for inv, twin, (inputs, _) in zip(untraced, traced_named, named_commands):
        inv.failures += check_invocation(inv, inputs)
        if inv.digest != twin.digest:
            inv.failures.append("traced and untraced outputs differ")

    tracer = Tracer()
    values, failures = probes.run_probes(tracer, inputs_by_part, traced)
    # A failed probe check fails the run through its untraced invocation.
    untraced[0].failures += failures
    spans = {
        name: Tracer.from_records([r for inv in invs for r in inv.trace["spans"]])
        for name, invs in traced.items()
    }
    census, sieve, orders = spans["census"], spans["sieve-cm"], spans["orders"]
    values.update(
        {
            "census.run_census_s": census.seconds("census.run_census"),
            "census.decompose_s": census.seconds("census.decompose_pseudoprimes"),
            "census.summarize_s": census.seconds("census.summarize"),
            "census.write_s": census.seconds("census.write_records_csv", "census.write_summary_json"),
            "sieve.build_sieve_report_s": sieve.seconds("sieve.build_sieve_report"),
            "pseudoprimes.order_census_s": orders.seconds("pseudoprimes.order_census"),
            "pseudoprimes.tail_sum_s": orders.seconds("pseudoprimes.tail_sum"),
            "pseudoprimes.product_tail_sum_s": orders.seconds("pseudoprimes.product_tail_sum"),
            "pseudoprimes.order_level_report_s": orders.seconds("pseudoprimes.order_level_report"),
            "gl2.class_count_table_s": orders.seconds("gl2.class_count_table"),
            "gl2.predicted_class_count_s": orders.seconds("gl2.predicted_class_count"),
        }
    )
    values["census.driver_self_s"] = values["census.run_census_s"] - tracer.seconds(
        "primes.iter_prime_segments",
        "curves.reduce_mod",
        "curves.count_points",
        "pseudoprimes.fermat_holds",
        "arith.is_prime",
    )
    values["census.parallel_eff"] = values["census.run_census_1w_s"] / (
        2 * sieve.seconds("census.run_census")
    )
    # wall_s of the untraced repeat = layer spans + cli.self_s - trace.overhead_s,
    # where cli.self_s is what the traced processes spent outside any layer.
    wall_untraced = sum(inv.wall for inv in untraced)
    traced_total = sum(inv.trace["end"] - inv.launched for inv in traced_named)
    named_spans = Tracer.from_records([r for inv in traced_named for r in inv.trace["spans"]])
    values["cli.self_s"] = traced_total - named_spans.top_level_seconds()
    values["trace.overhead_s"] = traced_total - wall_untraced
    samples = {
        "probe_spans": tracer.records,
        "traced": {
            name: [{"argv": inv.argv, "wall": inv.wall, **inv.trace} for inv in invs]
            for name, invs in traced.items()
        },
        "untraced_wall_s": wall_untraced,
    }
    return values, samples


def one_workload(workload: str, seed: int, seconds: float, trace: bool, work_dir: str, deadline: float) -> dict:
    runner = Runner(work_dir, deadline)
    env_before = environment()
    parts = metrics.PARTS[workload]
    if trace:
        inputs = {name: workloads.make_inputs(name, seed) for name in workloads.PARTS}
        values, samples = traced_run(inputs, parts, runner)
        names = [name for name, *_ in metrics.PER_LAYER]
    else:
        values, samples = measured_run([workloads.make_inputs(name, seed) for name in parts], seconds, runner)
        names = [name for name, *_ in metrics.END_TO_END]
    failed = sum(1 for inv in runner.invocations if inv.failures)
    result = {
        "correct": failed == 0,
        "attempted": len(runner.invocations),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": metrics.UNITS[name]} for name in names},
    }
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "env_before": env_before,
        "env_after": environment(),
        "failures": [
            {"argv": inv.argv, "failures": inv.failures} for inv in runner.invocations if inv.failures
        ],
        "samples": samples,
        "result": result,
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{workload}-seed{seed}-trace{int(trace)}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    report(record, samples if not trace else {})
    return result


def report(record: dict, samples: dict) -> None:
    """Human-readable lines; the JSON result line comes after them."""
    env, result = record["env_before"], record["result"]
    print(
        f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
        f"rev={env['git_revision'][:12]} nproc={env['nproc']} python={env['python']} "
        f"load={env['loadavg'][0]:.2f}->{record['env_after']['loadavg'][0]:.2f}"
    )
    for name, metric in result["metrics"].items():
        line = f"{name:36s} {metric['unit']:6s} {metric['value']:.6g}"
        if name in samples:
            q1, median, q3 = statistics.quantiles(samples[name], n=4)
            line += (
                f"  (median {median:.6g}, q1 {q1:.6g}, q3 {q3:.6g}, "
                f"spread {(q3 - q1) / median if median else float('nan'):.3f}, n {len(samples[name])})"
            )
        print(line)
    print(f"{'failed_frac':36s} {'ratio':6s} {result['failed'] / result['attempted']:.6g}  ({result['failed']}/{result['attempted']})")
    for item in record["failures"]:
        print(f"# FAILED {' '.join(item['argv'])}: {'; '.join(item['failures'])}")


def main(argv: list[str] | None = None) -> int:
    names = list(metrics.PARTS)
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "eclab", "cli.py")):
        print(f"error: no eclab sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # SIGTERM unwinds like an exception, so the running eclab process group
    # is killed and waited for and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    work_root = os.path.join(HERE, "_work", str(os.getpid()))
    selected = names if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in selected:
            work_dir = os.path.join(work_root, name)
            os.makedirs(work_dir)
            deadline = time.monotonic() + RUN_DEADLINE_S
            results[name] = one_workload(name, args.seed, args.seconds, bool(args.trace), work_dir, deadline)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    else:
        final = results[args.workload]
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
