"""Tests of the benchmark itself: `python3 -m pytest perfbench/tests -q`.

They run every workload at a smoke size that takes seconds, so they check
what is emitted and what is flagged, never how fast anything is.
"""
from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checker  # noqa: E402
import make_samples  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

from eclab import cli  # noqa: E402


@pytest.fixture
def smoke(monkeypatch, tmp_path):
    """Smoke sizes, few repeats, outputs under tmp_path."""
    for name, value in {
        "CENSUS_X": 3000,
        "SIEVE_X": 3000,
        "SIEVE_Z": 3000,
        "ORDERS_T": 500,
        "ORDERS_CAP": 3000,
        "CLASSES_CAP": 8,
    }.items():
        monkeypatch.setattr(workloads, name, value)
    monkeypatch.setattr(run, "SETUP_PER_REPEAT", 1)
    monkeypatch.setattr(run, "MIN_REPEATS", 2)
    monkeypatch.setattr(run, "OUT", str(tmp_path / "out"))
    return tmp_path


def _run(tmp_path, workload: str, trace: bool, seed: int = 0) -> dict:
    work = tmp_path / f"work-{workload}-{int(trace)}"
    work.mkdir()
    return run.one_workload(workload, seed, 0.0, trace, str(work), time.monotonic() + run.RUN_DEADLINE_S)


@pytest.mark.parametrize("workload", [name for name, *_ in metrics.WORKLOADS])
def test_measured_run_emits_every_end_to_end_metric(smoke, workload):
    result = _run(smoke, workload, trace=False, seed=5)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    assert list(result["metrics"]) == [name for name, *_ in metrics.END_TO_END]
    for name, unit, *_ in metrics.END_TO_END:
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0


def test_traced_run_emits_every_layer_metric(smoke):
    result = _run(smoke, "curves", trace=True)
    assert result["correct"], result
    assert list(result["metrics"]) == [name for name, *_ in metrics.PER_LAYER]
    for name, unit, *_ in metrics.PER_LAYER:
        assert result["metrics"][name]["unit"] == unit
    record = json.loads((smoke / "out" / "curves-seed0-trace1.json").read_text())
    assert record["samples"]["probe_spans"] and record["env_before"]["python"]


def test_nonzero_exit_counts_as_failed(smoke, monkeypatch):
    monkeypatch.setattr(workloads, "CENSUS_X", 1)  # eclab rejects x < 2 with exit 2
    result = _run(smoke, "curves", trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] / 3  # one --help and one sieve-report per repeat


@pytest.fixture
def census_output(tmp_path, capsys):
    inputs = workloads.Inputs("census", 0, 1, curve=workloads.census_curve(0), x=2000)
    curve_file = tmp_path / "curves.txt"
    curve_file.write_text(inputs.curve.line() + "\n")
    out = tmp_path / "out"
    assert cli.main(inputs.commands(str(curve_file))[0] + ["--out", str(out)]) == 0
    return inputs, out, capsys.readouterr().out


def _check(inputs, out, stdout):
    return checker.check_census(str(out), stdout, inputs.curve, inputs.x, inputs.base, 0, 400)


def _rewrite_row(out, index: int, edit) -> None:
    path = out / "records.csv"
    lines = path.read_text().splitlines()
    fields = [int(v) for v in lines[index].split(",")]
    lines[index] = ",".join(map(str, edit(fields)))
    path.write_text("\n".join(lines) + "\n")


def test_checker_passes_a_true_census(census_output):
    assert _check(*census_output) == []


def test_checker_flags_a_flipped_flag(census_output):
    inputs, out, stdout = census_output
    _rewrite_row(out, 100, lambda f: f[:5] + [1 - f[5]])
    assert _check(inputs, out, stdout)


def test_checker_flags_a_wrong_group_order(census_output):
    """A row whose a_p and n agree with each other and with Hasse, but not
    with the curve: only the naive recount can see it."""
    inputs, out, stdout = census_output

    def shift(f):
        p, a, n = f[:3]
        a = a - 2 if a > 0 else a + 2
        n = p + 1 - a
        flags = checker.prime_flags(n)
        ferm = int(pow(inputs.base, n, n) == inputs.base % n)
        return [p, a, n, flags[n], int(ferm and not flags[n] and n != 1), ferm]

    _rewrite_row(out, 200, shift)
    fails = _check(inputs, out, stdout)
    assert any("naive_count" in f for f in fails)


def test_repeats_with_different_outputs_fail(tmp_path):
    invs = [run.Invocation(["verify-classes"], str(tmp_path), code=0, digest=d) for d in "aab"]
    run.check_repeats([[inv] for inv in invs], [workloads.make_inputs("orders", 0)])
    assert not invs[0].failures or invs[0].failures == invs[1].failures
    assert "output differs from the other repeats" in invs[2].failures


def test_samples_are_the_recorded_draw():
    with open(os.path.join(BENCH, "samples.json"), encoding="utf-8") as fh:
        samples = json.load(fh)
    assert samples["primes"] == make_samples.draw_primes()
    assert samples["draw_seed"] == make_samples.DRAW_SEED


def test_seeded_inputs_are_reproducible_and_of_their_kind():
    assert workloads.census_curve(0).coeffs == (0, 0, 1, -1, 0)
    assert workloads.cm_k(0) == 2 and workloads.order_base(0) == 2
    for seed in range(1, 30):
        assert workloads.census_curve(seed) == workloads.census_curve(seed)
        coeffs = workloads.census_curve(seed).coeffs
        assert workloads.discriminant(coeffs) != 0
        assert workloads.j_invariant(coeffs) not in workloads.CM_J_INVARIANTS
        k = workloads.cm_k(seed)
        # trivial torsion: no 2-torsion (x^3 + k has no rational root) and
        # no 3-torsion point (0, sqrt k)
        assert all(r**3 + k for r in range(-40, 41)) and not workloads._is_square(k)
        assert workloads.order_base(seed) in workloads.ORDER_BASES


def test_benchmark_json_is_generated_and_within_limits():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc == metrics.benchmark_json()
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]] + [w["name"] for w in doc["workloads"]]
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert len(set(names)) == len(names)
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]) for m in doc["end_to_end"] + doc["per_layer"])
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "curves", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
