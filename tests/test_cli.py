"""End-to-end command line checks: exit codes, artifacts, stdout formats."""
import hashlib
import json

import pytest

from eclab.census import RECORDS_HEADER
from eclab.cli import CLASSES_HEADER, ORDERS_HEADER, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_census_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    code, stdout, stderr = run(
        capsys, "census", "--x", "300", "--out", str(out), "--threads", "1"
    )
    assert code == 0
    records = (out / "records.csv").read_text().splitlines()
    assert records[0] == RECORDS_HEADER
    assert records[1] == "2,-2,5,1,0,1"
    assert len(records) == 1 + 61  # pi(300) = 62, minus the bad prime 37
    summary = json.loads((out / "summary.json").read_text())
    assert summary["x"] == 300 and summary["curve_label"] == "37a"
    assert summary["meta"]["partition_ok"] is True
    lines = stdout.splitlines()
    assert lines[0] == "key,value"
    assert any(line.startswith("twin,") for line in lines)
    assert any(line.startswith("s1,") for line in lines)
    assert "records.csv" in stderr and "summary.json" in stderr


def test_census_json_format(tmp_path, capsys):
    code, stdout, stderr = run(
        capsys,
        "census", "--x", "100", "--out", str(tmp_path), "--format", "json",
        "--threads", "1",
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["skipped_bad"] == [37]
    assert payload["meta"]["good_count"] == 24
    assert "wrote" in stderr and "wrote" not in stdout


def test_census_deterministic_output_bytes(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(capsys, "census", "--x", "200", "--out", str(a), "--threads", "1")[0] == 0
    assert run(capsys, "census", "--x", "200", "--out", str(b), "--threads", "2")[0] == 0
    assert (a / "records.csv").read_bytes() == (b / "records.csv").read_bytes()
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()


# sha256 of the pomerance artifacts for 37a at x = 20000. Any change to these
# bytes must be a deliberate, documented fix.
GOLDEN_POMERANCE_37A_2E4 = {
    "records.csv": "65e19d618c01ce5471886e3393d93bafeb2092570820f833941a7e80bececc75",
    "summary.json": "19e64fc87e688f68ba1736ee4cc480d4c272f2a92fb77e1c0a58b1c344831eaf",
}


def test_pomerance_output_bytes_are_golden(tmp_path, capsys):
    code, _, _ = run(
        capsys, "pomerance", "--curve", "37a", "--x", "20000", "--threads", "1",
        "--out", str(tmp_path),
    )
    assert code == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in GOLDEN_POMERANCE_37A_2E4
    }
    assert digests == GOLDEN_POMERANCE_37A_2E4


def test_pomerance_csv_meta_rows(tmp_path, capsys):
    code, stdout, _ = run(
        capsys, "pomerance", "--x", "300", "--out", str(tmp_path), "--threads", "1"
    )
    assert code == 0
    keys = [line.split(",", 1)[0] for line in stdout.splitlines()[1:]]
    for key in ("L", "L_clamped", "overlap_s1", "overlap_s4",
                "s4_smooth_heavy", "s4_rest", "s4_window_hit"):
        assert key in keys, key
    summary = json.loads((tmp_path / "summary.json").read_text())
    pom = summary["meta"]["pomerance"]
    assert set(pom["s4_split"]) == {"smooth_heavy", "rest", "window_hit"}
    assert pom["L_clamped"] is False


def test_pomerance_small_x_notes_clamp(tmp_path, capsys):
    code, stdout, _ = run(
        capsys, "pomerance", "--x", "10", "--out", str(tmp_path), "--threads", "1"
    )
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["meta"]["L_clamped"] is True
    assert summary["meta"]["pomerance"]["L"] == 1.0
    assert "L_clamped,1" in stdout.splitlines()


def test_verify_classes(tmp_path, capsys):
    code, stdout, _ = run(
        capsys, "verify-classes", "--cap", "12", "--out", str(tmp_path)
    )
    assert code == 0
    lines = (tmp_path / "classes.csv").read_text().splitlines()
    assert lines[0] == CLASSES_HEADER
    assert len(lines) == 1 + sum(n for n in range(2, 13))
    for line in lines[1:]:
        n, r, count, formula, match = line.split(",")
        if formula:
            assert match == "1"
        else:
            assert match == ""
    assert "matches_ok,1" in stdout.splitlines()
    assert "partitions_ok,1" in stdout.splitlines()


def test_verify_classes_json(tmp_path, capsys):
    code, stdout, _ = run(
        capsys, "verify-classes", "--cap", "8", "--out", str(tmp_path),
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload == {
        "cap": 8,
        "rows": sum(n for n in range(2, 9)),
        "partitions_ok": True,
        "matches_ok": True,
    }


def test_order_stats(tmp_path, capsys):
    code, stdout, _ = run(
        capsys,
        "order-stats", "--base", "2", "--t", "100", "--cap", "200",
        "--out", str(tmp_path),
    )
    assert code == 0
    lines = (tmp_path / "orders.csv").read_text().splitlines()
    assert lines[0] == ORDERS_HEADER
    assert all(line.split(",")[3] == "1" for line in lines[1:])
    assert "bound_ok,1" in stdout.splitlines()


# sha256 of orders.csv and stdout for order-stats --t 2000 --cap 50000,
# recorded before the order layer moved onto the SPF table.
GOLDEN_ORDER_STATS = {
    (2, "csv"): (
        "fa03c5771e852dabd6e61a99218988bf71ba86ac9f4ea15ec77437634ade72ac",
        "d2feae690a84e72babe42f8cf8c312623cb5dc74d2fdb691048e474e4d2bbd77",
    ),
    (2, "json"): (
        "fa03c5771e852dabd6e61a99218988bf71ba86ac9f4ea15ec77437634ade72ac",
        "7d93919384e035a9d8101128259fbea5d4aee08506fb51e50800f1001c5ecff9",
    ),
    (6, "csv"): (
        "aab188317c5c0aa3c710264a2ba33b6879e2fb5ed3965a4d6262ff8e284166f8",
        "e4dbf5b0ddc1f2b67e3b2137c6077387e4b75613c60eefbd4500d0b37b63d88d",
    ),
    (6, "json"): (
        "aab188317c5c0aa3c710264a2ba33b6879e2fb5ed3965a4d6262ff8e284166f8",
        "10553aed3c46d4f2a1867d005b752695ef10b38992f7dbd666dfad048090e73a",
    ),
}


@pytest.mark.parametrize("base, fmt", sorted(GOLDEN_ORDER_STATS))
def test_order_stats_output_bytes_are_golden(tmp_path, capsys, base, fmt):
    code, stdout, _ = run(
        capsys,
        "order-stats", "--base", str(base), "--t", "2000", "--cap", "50000",
        "--format", fmt, "--out", str(tmp_path),
    )
    assert code == 0
    digests = (
        hashlib.sha256((tmp_path / "orders.csv").read_bytes()).hexdigest(),
        hashlib.sha256(stdout.encode()).hexdigest(),
    )
    assert digests == GOLDEN_ORDER_STATS[base, fmt]


def test_order_stats_json(tmp_path, capsys):
    code, stdout, _ = run(
        capsys,
        "order-stats", "--t", "50", "--cap", "100", "--out", str(tmp_path),
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["bound_ok"] is True
    assert payload["tail_sums"]["tail_sum"] >= 0
    assert payload["tail_sums"]["product_tail_sum"] >= 0


def test_sieve_report_explicit_range(tmp_path, capsys):
    code, stdout, _ = run(
        capsys,
        "sieve-report", "--x", "300", "--y", "5", "--z", "50",
        "--out", str(tmp_path),
    )
    assert code == 0
    report = json.loads((tmp_path / "sieve.json").read_text())
    assert list(report) == [
        "x", "y", "z", "V_y_z", "F_s", "envelope_uncond", "envelope_grh",
        "empirical_S", "empirical_T", "empirical_Q", "meta",
    ]
    assert report["y"] == 5.0 and report["z"] == 50.0
    assert report["empirical_Q"] <= report["empirical_S"] + report["empirical_T"]
    assert report["meta"]["preset"] is None
    assert report["meta"]["curve"] == "37a"
    assert report["meta"]["envelope_uncond_vacuous"] is True
    assert "empirical_S," in stdout


def test_sieve_report_preset(tmp_path, capsys):
    code, stdout, _ = run(
        capsys,
        "sieve-report", "--x", "1000", "--preset", "grh", "--out", str(tmp_path),
        "--format", "json",
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["meta"]["preset"] == "grh"
    assert report["meta"]["raw_z"] < report["meta"]["raw_y"]
    assert report["y"] == report["z"]  # clamped: empty sifting range
    assert report["empirical_Q"] <= report["empirical_S"] + report["empirical_T"]


def test_usage_errors(tmp_path, capsys):
    out = str(tmp_path)
    cases = [
        ("census", "--x", "1", "--out", out),
        ("census", "--x", "100", "--base", "1", "--out", out),
        ("census", "--x", "100", "--curve", "99z", "--out", out),
        ("verify-classes", "--cap", "100", "--out", out),
        ("verify-classes", "--cap", "1", "--out", out),
        ("order-stats", "--base", "1", "--out", out),
        ("order-stats", "--t", "500", "--cap", "100", "--out", out),
        ("sieve-report", "--x", "300", "--y", "50", "--z", "5", "--out", out),
        ("sieve-report", "--x", "300", "--y", "5", "--out", out),
        ("sieve-report", "--x", "300", "--y", "5", "--z", "50", "--s", "5", "--out", out),
    ]
    for argv in cases:
        code, _, stderr = run(capsys, *argv)
        assert code == 2, argv
        assert "error" in stderr


def test_argparse_level_errors(tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["census", "--x", "100", "--bogus-flag"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["sieve-report", "--x", "300", "--preset", "median"])
    assert info.value.code == 2


def test_singular_curve_exits_one(tmp_path, capsys):
    curves = tmp_path / "curves.txt"
    curves.write_text("sing:0,0,0,-3,2\n")
    code, _, stderr = run(
        capsys,
        "census", "--x", "100", "--curve", "sing",
        "--curve-file", str(curves), "--out", str(tmp_path),
    )
    assert code == 1
    assert "invariant violated" in stderr


def test_malformed_curve_file_exits_two(tmp_path, capsys):
    curves = tmp_path / "curves.txt"
    curves.write_text("37a:0,0,1,-1\n")  # four coefficients, not five
    code, _, stderr = run(
        capsys,
        "census", "--x", "100", "--curve-file", str(curves), "--out", str(tmp_path),
    )
    assert code == 2
    assert "error" in stderr


def test_io_errors_exit_three(tmp_path, capsys):
    code, _, stderr = run(
        capsys,
        "census", "--x", "100", "--curve-file", str(tmp_path / "missing.txt"),
        "--out", str(tmp_path),
    )
    assert code == 3
    assert "i/o error" in stderr

    blocker = tmp_path / "blocker"
    blocker.write_text("plain file\n")
    code, _, stderr = run(capsys, "census", "--x", "100", "--out", str(blocker))
    assert code == 3
    assert "i/o error" in stderr
