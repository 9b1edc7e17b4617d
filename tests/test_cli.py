"""End-to-end command line checks: exit codes, artifacts, stdout formats."""
import hashlib
import json

import pytest

import eclab.census
import eclab.cli
import eclab.curves
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


def test_census_deterministic_output_bytes(tmp_path, capsys, monkeypatch):
    # tasks of 10 primes make 5 tasks below 200, so two workers are forked
    monkeypatch.setattr(eclab.census, "TASK_PRIMES", 10)
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(capsys, "census", "--x", "200", "--out", str(a), "--threads", "1")[0] == 0
    assert run(capsys, "census", "--x", "200", "--out", str(b), "--threads", "2")[0] == 0
    assert (a / "records.csv").read_bytes() == (b / "records.csv").read_bytes()
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()


# sha256 of the pomerance artifacts for 37a at x = 20000. Any change to these
# bytes must be a deliberate, documented fix. summary.json was re-recorded
# when meta.pomerance lost its copy of the clamp flag (meta.L_clamped stays),
# and again when the per-order multiplicity table became the histogram
# multiplicity_counts and meta.pomerance lost its copy of the class sizes.
GOLDEN_POMERANCE_37A_2E4 = {
    "records.csv": "65e19d618c01ce5471886e3393d93bafeb2092570820f833941a7e80bececc75",
    "summary.json": "cbf7f106f77d42605a0374b47d52de589947ba59f849f1005f7433103964e883",
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
    # the clamp flag is written once, in meta, and the class sizes once, in
    # s_classes (the overlap diagonal repeats them as a matrix)
    assert list(pom) == ["L", "overlap", "s4_split", "members"]
    assert set(pom["s4_split"]) == {"smooth_heavy", "rest", "window_hit"}
    assert summary["meta"]["L_clamped"] is False
    assert [row[i] for i, row in enumerate(pom["overlap"])] == list(summary["s_classes"].values())


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


# sha256 of orders.csv and stdout for order-stats --t 10000 --cap 200000 (the
# benchmark's sizes and seed bases), recorded before the prime pass read the
# q = 2 step off a residue table and the flagged levels became lcms of
# prime-power orders.
GOLDEN_ORDER_STATS_1E4 = {
    2: (
        "c631f90a1cc040d6f82f17df20075b10abf83304e360c8fea346b5914e95db99",
        "161831abfd743f271ba529bb6294aa0baa44c612ad5242f2da8b7615ecc7c0a8",
    ),
    3: (
        "35bb1a41fa72f9316311ce68395f90f1e994cb876d62e73d6542437f859bbcd1",
        "1d19ee12f640ea8d5116891af0668b4c6ad5cbd99a5eef5622642526974614b9",
    ),
    5: (
        "9af0de18ff6412fc9e5b318fe279a362c8917cf9afba40fea247df0bacc695b0",
        "7b7c00e962fac43cfd4e923345b69f0532857431fc2b6bff410585e3936fc6e8",
    ),
    6: (
        "e783854bdd331e935f2839d05967d15d8ee4d918731329328ea895b3d2535ee0",
        "b7946de05345b008e7d3664a1f2a0e5bbce3989700f4ec9d460f8e295e527b24",
    ),
    10: (
        "5c42a9eee55d42ab2e7c9343a7b2d1d732a958f2aa9dbd21578db382fca9e9b0",
        "59f9f01f41d5f1a85927fd2f996485def187532b314805f73877b0724e8cf977",
    ),
}


@pytest.mark.parametrize("base", sorted(GOLDEN_ORDER_STATS_1E4))
def test_order_stats_at_benchmark_size_is_golden(tmp_path, capsys, base):
    code, stdout, _ = run(
        capsys,
        "order-stats", "--base", str(base), "--t", "10000", "--cap", "200000",
        "--out", str(tmp_path),
    )
    assert code == 0
    digests = (sha256((tmp_path / "orders.csv").read_bytes()), sha256(stdout))
    assert digests == GOLDEN_ORDER_STATS_1E4[base]


# sha256 of classes.csv and stdout for verify-classes --cap 64 (the benchmark's
# size and the enumeration cap), recorded while the class counts came from one
# big-integer product per modulus.
GOLDEN_VERIFY_CLASSES_64 = {
    "csv": (
        "9cd6f55fa7d702fd0ab022c26315fe1c7164d81cdec3dbd93ad2320b193ff71a",
        "328bf823b89f5edc11be799422eaee614eb575dd075a9c3280c60c94a3af07ae",
    ),
    "json": (
        "9cd6f55fa7d702fd0ab022c26315fe1c7164d81cdec3dbd93ad2320b193ff71a",
        "359495dff5d91fa4a5e29afdf047cb2c83a86387b4f699e730dfb6caa1757418",
    ),
}


@pytest.mark.parametrize("fmt", sorted(GOLDEN_VERIFY_CLASSES_64))
def test_verify_classes_at_benchmark_size_is_golden(tmp_path, capsys, fmt):
    code, stdout, _ = run(
        capsys, "verify-classes", "--cap", "64", "--format", fmt, "--out", str(tmp_path)
    )
    assert code == 0
    digests = (sha256((tmp_path / "classes.csv").read_bytes()), sha256(stdout))
    assert digests == GOLDEN_VERIFY_CLASSES_64[fmt]


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


# sha256 of sieve.json and stdout for sieve-report, recorded before the
# report became a view of the census verdicts. Cases: (argv, ECLAB_THREADS).
GOLDEN_SIEVE_REPORT = {
    "k2-csv": (
        ("--curve", "k2", "--x", "30000", "--y", "5", "--z", "300"), "2",
        "d37b051f6fc79b52e8001affb13db11a4a744a431e87c0808d7f0401529af774",
        "c82f8cfaf38bdd4363a526489af7288d28924badc4bc6d4d2a704e5c7e476e31",
    ),
    "k2-json": (
        ("--curve", "k2", "--x", "30000", "--y", "5", "--z", "300", "--format", "json"), "2",
        "d37b051f6fc79b52e8001affb13db11a4a744a431e87c0808d7f0401529af774",
        "d37b051f6fc79b52e8001affb13db11a4a744a431e87c0808d7f0401529af774",
    ),
    "37a-grh": (
        ("--curve", "37a", "--x", "20000", "--preset", "grh"), "1",
        "86c6f30c4df9c7688f85268d59ad95d661ca8f135ad1d7630989fe1ee2413916",
        "8254559bde8b3db61383123292641854720afd065fda640a06032d7e273adf15",
    ),
    "37a-base5-strict": (
        ("--curve", "37a", "--x", "20000", "--y", "5", "--z", "300",
         "--base", "5", "--strict-fermat"), "1",
        "449c34b543a1e8e149b6404da2d004795bf7cd1a007ef64a5650bfab2683c5a4",
        "bd26980866a8dffda2b992a8c33252f212c90dbb5294a74b229b3d130eaec40d",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_SIEVE_REPORT))
def test_sieve_report_output_bytes_are_golden(tmp_path, capsys, monkeypatch, case):
    argv, threads, json_digest, stdout_digest = GOLDEN_SIEVE_REPORT[case]
    monkeypatch.setenv("ECLAB_THREADS", threads)
    if "k2" in argv:
        curves = tmp_path / "curves.txt"
        curves.write_text("k2:0,0,0,0,2,cm=1\n")  # y^2 = x^3 + 2
        argv += ("--curve-file", str(curves))
    out = tmp_path / "out"
    code, stdout, _ = run(capsys, "sieve-report", *argv, "--out", str(out))
    assert code == 0
    digests = (
        hashlib.sha256((out / "sieve.json").read_bytes()).hexdigest(),
        hashlib.sha256(stdout.encode()).hexdigest(),
    )
    assert digests == (json_digest, stdout_digest)


def sha256(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


# sha256 of stdout and of every artifact, recorded before the subcommands
# shared one report path; the summary.json digests were re-recorded when the
# multiplicity table became a histogram. Cases: argv -> (stdout, {artifact: digest}).
GOLDEN_STDOUT_AND_ARTIFACTS = {
    ("pomerance", "--x", "20000", "--threads", "1"): (
        "070fc25658c364c93fd48acd8e5edd81be78106ea9f9e32fe3f727d14306df22",
        GOLDEN_POMERANCE_37A_2E4,
    ),
    ("pomerance", "--x", "20000", "--threads", "1", "--format", "json"): (
        "cbf7f106f77d42605a0374b47d52de589947ba59f849f1005f7433103964e883",
        GOLDEN_POMERANCE_37A_2E4,
    ),
    ("census", "--curve", "389a", "--base", "3", "--strict-fermat", "--x", "5000",
     "--threads", "1"): (
        "e629eb199d73feeb27eefac4315dad3f05294058c7e54ababc283928558c6664",
        {
            "records.csv": "b1f70ba7a0a10099df59a290204ad07d8f0837838d53b40f68b321ec9d7c973b",
            "summary.json": "b741aa09093e5bb2c80c87fa2188bd527ba1d9a7d04b9ed632e1e90c4d77edc9",
        },
    ),
    ("verify-classes", "--cap", "20"): (
        "84ba236927bd5ed6dfa049685095eb4acd3345fc96999c2c4c273a41ac73c80c",
        {"classes.csv": "cf60d57931630f6354cedb38a6bc824c880efec17d06caba42cef2ddeaa87cb4"},
    ),
    ("verify-classes", "--cap", "20", "--format", "json"): (
        "5fdbc398e58faf7786ba8b8d4ddf32fec4e74dfb8d05e36f73741e7dd2110804",
        {"classes.csv": "cf60d57931630f6354cedb38a6bc824c880efec17d06caba42cef2ddeaa87cb4"},
    ),
}


@pytest.mark.parametrize("argv", list(GOLDEN_STDOUT_AND_ARTIFACTS), ids=" ".join)
def test_stdout_and_artifact_bytes_are_golden(tmp_path, capsys, argv):
    stdout_digest, artifacts = GOLDEN_STDOUT_AND_ARTIFACTS[argv]
    code, stdout, _ = run(capsys, *argv, "--out", str(tmp_path))
    assert code == 0
    assert sha256(stdout) == stdout_digest
    assert {name: sha256((tmp_path / name).read_bytes()) for name in artifacts} == artifacts
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(artifacts)


# The whole stderr of one run of each subcommand, with the output directory
# shown as OUT. Recorded before the subcommands shared one report path.
GOLDEN_STDERR = {
    ("census", "--x", "300", "--threads", "1"): "wrote OUT/records.csv OUT/summary.json\n",
    ("pomerance", "--x", "300", "--threads", "1"): "wrote OUT/records.csv OUT/summary.json\n",
    ("verify-classes", "--cap", "6"): "wrote OUT/classes.csv\n",
    ("order-stats", "--t", "100", "--cap", "200"): "wrote OUT/orders.csv\n",
    ("sieve-report", "--x", "300", "--y", "5", "--z", "50"): "wrote OUT/sieve.json\n",
}


@pytest.mark.parametrize("argv", list(GOLDEN_STDERR), ids=" ".join)
def test_stderr_is_golden(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setenv("ECLAB_THREADS", "1")
    out = tmp_path / "out"
    code, _, stderr = run(capsys, *argv, "--out", str(out))
    assert code == 0
    assert stderr.replace(str(out), "OUT") == GOLDEN_STDERR[argv]


def test_trailing_slash_on_out_is_joined_once(tmp_path, capsys):
    out = tmp_path / "out"
    code, _, stderr = run(
        capsys, "census", "--x", "100", "--threads", "1", "--out", f"{out}/"
    )
    assert code == 0
    assert stderr == f"wrote {out}/records.csv {out}/summary.json\n"


def wrap(monkeypatch, module, name, after):
    """Replace module.name by a call to the original whose result goes through after."""
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: after(real(*a, **k), *a))


def test_order_stats_bound_violation_exits_one(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(eclab.cli, "nord_bound", lambda b, m: 0)
    code, stdout, stderr = run(
        capsys, "order-stats", "--t", "100", "--cap", "200", "--out", str(tmp_path)
    )
    assert code == 1
    rows = (tmp_path / "orders.csv").read_text().splitlines()[1:]
    assert rows and all(row.endswith(",0,0") for row in rows)
    expected = [f"wrote {tmp_path / 'orders.csv'}"] + [
        f"invariant violated: {row.split(',')[1]} primes at order {row.split(',')[0]} "
        "exceeds bound 0"
        for row in rows
    ]
    assert stderr.splitlines() == expected
    assert "bound_ok,0" in stdout.splitlines()


def test_verify_classes_partition_failure_exits_one(tmp_path, capsys, monkeypatch):
    wrap(monkeypatch, eclab.cli, "gl2_order", lambda order, n: order + 1)
    code, stdout, stderr = run(
        capsys, "verify-classes", "--cap", "5", "--out", str(tmp_path), "--format", "json"
    )
    assert code == 1
    assert stderr.splitlines() == [
        f"wrote {tmp_path / 'classes.csv'}",
        "invariant violated: partition failed at n=[2, 3, 4, 5]",
    ]
    assert json.loads(stdout) == {
        "cap": 5, "rows": 14, "partitions_ok": False, "matches_ok": True,
    }
    assert (tmp_path / "classes.csv").read_text().startswith(CLASSES_HEADER + "\n")


def test_verify_classes_count_mismatch_exits_one(tmp_path, capsys, monkeypatch):
    wrap(
        monkeypatch, eclab.cli, "predicted_class_count",
        lambda count, n, r: None if count is None else count + 1,
    )
    code, stdout, stderr = run(capsys, "verify-classes", "--cap", "4", "--out", str(tmp_path))
    assert code == 1
    rows = [row.split(",") for row in (tmp_path / "classes.csv").read_text().splitlines()[1:]]
    mismatches = [(int(n), int(r)) for n, r, _, formula, match in rows if match == "0"]
    assert mismatches and len(mismatches) == sum(1 for row in rows if row[3])
    assert stderr.splitlines() == [
        f"wrote {tmp_path / 'classes.csv'}",
        f"invariant violated: count mismatches at {mismatches}",
    ]
    assert "matches_ok,0" in stdout.splitlines()


def test_sieve_report_q_above_s_plus_t_exits_one(tmp_path, capsys, monkeypatch):
    wrap(
        monkeypatch, eclab.cli, "build_sieve_report",
        lambda rep, *a: rep._replace(empirical_Q=rep.empirical_S + rep.empirical_T + 1),
    )
    code, stdout, stderr = run(
        capsys, "sieve-report", "--x", "300", "--y", "5", "--z", "50", "--out", str(tmp_path)
    )
    assert code == 1
    assert stderr.splitlines() == [
        f"wrote {tmp_path / 'sieve.json'}",
        "invariant violated: Q exceeds S + T",
    ]
    report = json.loads((tmp_path / "sieve.json").read_text())
    assert report["empirical_Q"] == report["empirical_S"] + report["empirical_T"] + 1
    assert f"empirical_Q,{report['empirical_Q']}" in stdout.splitlines()


def test_census_partition_failure_exits_one(tmp_path, capsys, monkeypatch):
    """A failed partition exits 1, and so does twin > Q under the b^n = b
    test; twin > Q under --strict-fermat is no failure and exits 0."""
    cases = [
        ("partition_ok", (), "partition failed: Q != fermat-passing primes + pseudoprimes + units"),
        ("twin_le_Q", (), "ordering failed: twin exceeds Q under the b^n = b test"),
        ("twin_le_Q", ("--strict-fermat",), None),
    ]
    falsified = []  # the meta key summarize reports false, one per case
    wrap(
        monkeypatch, eclab.cli, "summarize",
        lambda summary, *a: summary._replace(meta={**summary.meta, falsified[-1]: False}),
    )
    for i, (key, extra, message) in enumerate(cases):
        falsified.append(key)
        out = tmp_path / str(i)
        code, stdout, stderr = run(
            capsys, "census", "--x", "300", "--threads", "1", "--out", str(out),
            "--format", "json", *extra,
        )
        assert code == (1 if message else 0), key
        wrote = f"wrote {out / 'records.csv'} {out / 'summary.json'}"
        assert stderr.splitlines() == [wrote] + [f"invariant violated: {message}"] * bool(message)
        assert json.loads(stdout)["meta"][key] is False
        assert json.loads((out / "summary.json").read_text())["meta"][key] is False
        assert (out / "records.csv").read_text().startswith(RECORDS_HEADER + "\n")


@pytest.mark.parametrize(
    "name, fake, message",
    [
        ("_count_enumeration", lambda p, *model: 4 * p + 1, "trace -6 at p=2"),
        ("_group_order_short", lambda p, a, b: 4 * p + 1, "trace -15 at p=5"),
    ],
    ids=["_count_enumeration", "_group_order_short"],
)
def test_hasse_violation_exits_one(tmp_path, capsys, monkeypatch, name, fake, message):
    # A point count past the Hasse window makes curves.trace_records raise
    # ArithmeticError: _count_enumeration counts at p = 2 and 3, and
    # _group_order_short at p >= 5.
    monkeypatch.setattr(eclab.curves, name, fake)
    code, stdout, stderr = run(
        capsys, "census", "--x", "300", "--threads", "1", "--out", str(tmp_path)
    )
    assert code == 1
    assert stderr == f"invariant violated: {message} violates the Hasse bound\n"
    assert stdout == ""
    assert list(tmp_path.iterdir()) == []


def test_hasse_violation_in_a_worker_exits_one(tmp_path, capsys, monkeypatch):
    # A forked worker raises; the parent re-raises it and exits 1. Tasks of
    # 10 primes make 7 tasks below 300, so the two workers are forked.
    monkeypatch.setattr(eclab.census, "TASK_PRIMES", 10)
    monkeypatch.setattr(eclab.curves, "_group_order_short", lambda p, a, b: 4 * p + 1)
    code, stdout, stderr = run(
        capsys, "census", "--x", "300", "--threads", "2", "--out", str(tmp_path)
    )
    assert code == 1
    assert stderr == "invariant violated: trace -15 at p=5 violates the Hasse bound\n"
    assert stdout == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, env",
    [
        (("census", "--threads", "0"), None),
        (("pomerance", "--threads", "0"), None),
        (("census",), "0"),
        (("census",), "abc"),
        (("pomerance",), "0"),
        (("pomerance",), "abc"),
        (("sieve-report",), "0"),
        (("sieve-report",), "abc"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else f"ECLAB_THREADS={v or ''}",
)
def test_bad_worker_count_exits_two_before_output(tmp_path, capsys, monkeypatch, argv, env):
    def counted(*args, **kwargs):
        raise AssertionError("run_census ran before the worker count was checked")

    monkeypatch.setattr(eclab.cli, "run_census", counted)
    if env is None:
        monkeypatch.delenv("ECLAB_THREADS", raising=False)
    else:
        monkeypatch.setenv("ECLAB_THREADS", env)
    out = tmp_path / "out"
    code, stdout, stderr = run(capsys, *argv, "--x", "1000", "--out", str(out))
    assert (code, stdout) == (2, "")
    assert stderr.startswith("error: ") and len(stderr.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("census", "--x", "100000000000000000000"),
        ("pomerance", "--x", "100000000000000000000"),
        ("sieve-report", "--x", "100000000000000000000", "--y", "5", "--z", "300"),
        ("sieve-report", "--x", "1000", "--y", "5", "--z", "1e30"),
        ("order-stats", "--t", "10", "--cap", "5000000000"),
    ],
    ids=" ".join,
)
def test_out_of_range_exits_two_before_output(tmp_path, capsys, monkeypatch, argv):
    # the sieve's 2^63 cutoff and the SPF table's 2^32 limit, checked
    # before --out is created and before any counting
    def refuse(*args, **kwargs):
        raise AssertionError("the run started before its range was checked")

    monkeypatch.setattr(eclab.cli, "run_census", refuse)
    monkeypatch.setattr(eclab.cli, "order_stats", refuse)
    monkeypatch.delenv("ECLAB_THREADS", raising=False)
    out = tmp_path / "out"
    code, stdout, stderr = run(capsys, *argv, "--out", str(out))
    assert (code, stdout) == (2, "")
    assert stderr.startswith("error: ") and len(stderr.splitlines()) == 1
    assert not out.exists()


def test_pomerance_with_a_base_beyond_the_primality_witnesses(tmp_path, capsys):
    # 10^25 + 7 has no prime factor below 1000 and is too large for is_prime,
    # so a decomposition that factored the base would raise after the census
    out = tmp_path / "out"
    code, stdout, _ = run(
        capsys, "pomerance", "--base", str(2 * (10**25 + 7)), "--x", "2000",
        "--threads", "1", "--out", str(out),
    )
    assert code == 0 and stdout.startswith("key,value")
    assert (out / "records.csv").read_text().startswith(RECORDS_HEADER)
    assert json.loads((out / "summary.json").read_text())["base_b"] == 2 * (10**25 + 7)


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


@pytest.mark.parametrize("argv", [
    ("--x", "100000", "--y", "5", "--z", "50", "--s", "5"),
    ("--x", "300", "--y", "5", "--z", "50", "--s", "0"),
    ("--x", "10", "--y", "2", "--z", "5"),
    ("--x", "10"),
    ("--x", "1000", "--y=-5", "--z=-1"),
    ("--x", "1000", "--y", "5", "--z", "inf"),
    ("--x", "1000", "--y", "nan", "--z", "50"),
    ("--x", "1"),
])
def test_sieve_report_rejects_bad_input_before_counting(tmp_path, capsys, monkeypatch, argv):
    def counted(*args, **kwargs):
        raise AssertionError("run_census ran before the input was checked")

    monkeypatch.setattr(eclab.cli, "run_census", counted)
    out = tmp_path / "out"
    code, stdout, stderr = run(capsys, "sieve-report", *argv, "--out", str(out))
    assert (code, stdout) == (2, "")
    assert stderr.startswith("error: ")
    assert not out.exists()


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
    code, stdout, stderr = run(
        capsys,
        "census", "--x", "100", "--curve", "sing",
        "--curve-file", str(curves), "--out", str(tmp_path),
    )
    assert code == 1
    assert stderr.startswith("invariant violated: ")
    assert stdout == ""


def test_malformed_curve_file_exits_two(tmp_path, capsys):
    curves = tmp_path / "curves.txt"
    curves.write_text("37a:0,0,1,-1\n")  # four coefficients, not five
    code, _, stderr = run(
        capsys,
        "census", "--x", "100", "--curve-file", str(curves), "--out", str(tmp_path),
    )
    assert code == 2
    assert "error" in stderr


def test_curve_file_cm_is_computed_and_a_false_claim_exits_two(tmp_path, capsys):
    curves = tmp_path / "curves.txt"
    curves.write_text("k2:0,0,0,0,2\nbad37:0,0,1,-1,0,cm=1\n")
    k2 = tmp_path / "k2.txt"
    k2.write_text("k2:0,0,0,0,2\n")
    out = tmp_path / "out"
    code, _, _ = run(
        capsys, "census", "--x", "100", "--curve", "k2", "--curve-file", str(k2),
        "--out", str(out), "--threads", "1",
    )
    assert code == 0
    assert json.loads((out / "summary.json").read_text())["meta"]["cm_curve"] is True
    out = tmp_path / "claim"
    code, stdout, stderr = run(
        capsys, "census", "--x", "100", "--curve", "k2", "--curve-file", str(curves),
        "--out", str(out),
    )
    assert code == 2
    assert stderr.startswith("error: ") and "bad37" in stderr
    assert stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("value", ["abc", "0"])
def test_bad_eclab_threads_exits_two(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("ECLAB_THREADS", value)
    code, stdout, stderr = run(capsys, "census", "--x", "100", "--out", str(tmp_path))
    assert code == 2
    assert stdout == ""
    assert stderr == f"error: ECLAB_THREADS must be a positive integer, got '{value}'\n"


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


@pytest.mark.parametrize("argv, compute", [
    (("census", "--x", "100"), "run_census"),
    (("sieve-report", "--x", "300"), "run_census"),
    (("verify-classes", "--cap", "4"), "class_count_table"),
    (("order-stats", "--t", "100", "--cap", "200"), "order_stats"),
])
def test_unwritable_out_exits_three_before_counting(tmp_path, capsys, monkeypatch, argv, compute):
    def counted(*args, **kwargs):
        raise AssertionError(f"{compute} ran before --out was checked")

    monkeypatch.setattr(eclab.cli, compute, counted)
    blocker = tmp_path / "blocker"
    blocker.write_text("plain file\n")
    code, stdout, stderr = run(capsys, *argv, "--out", str(blocker))
    assert (code, stdout) == (3, "")
    assert stderr.startswith("i/o error: ")
