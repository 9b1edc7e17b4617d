"""What a fresh `eclab` process imports: only what its command uses."""
import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Standard-library modules that cost a process several milliseconds to load
# and that no run needs: census workers are forked without a process pool.
NOT_AT_STARTUP = (
    "dataclasses", "inspect", "logging", "fractions", "concurrent.futures", "multiprocessing",
)

PROBE = """
import json, sys
watched = {watched!r}
loaded = lambda: [m for m in watched if m in sys.modules]
import eclab.cli
seen = [loaded()]
from eclab.census import run_census
from eclab.curves import get_curve
run_census(get_curve("37a"), 500, threads=1)
seen.append(loaded())
run_census(get_curve("37a"), 500, threads=2)
seen.append(loaded())
print(json.dumps(seen))
"""


def test_one_worker_runs_import_no_pool_logging_or_dataclasses():
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = SRC
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(watched=NOT_AT_STARTUP)],
        env=env, capture_output=True, text=True, check=True,
    )
    after_import, after_one_worker, after_two_workers = json.loads(proc.stdout)
    assert after_import == []
    assert after_one_worker == []
    assert after_two_workers == []
