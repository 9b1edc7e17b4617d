"""Shared fixtures: censuses that several test modules reuse.

The two big censuses are session-scoped so the point counting runs once;
elapsed wall time is kept alongside for the runtime checks.
"""
import time

import pytest

from eclab.census import run_census
from eclab.curves import get_curve


class TimedCensus:
    def __init__(self, result, elapsed):
        self.result = result
        self.elapsed = elapsed


@pytest.fixture(scope="session")
def census_1e5():
    """Curve 37a, base 2, default Fermat mode, x = 10^5, one worker: its
    time is the one criterion 4 bounds."""
    t0 = time.monotonic()
    result = run_census(get_curve("37a"), 100_000, base=2, threads=1)
    return TimedCensus(result, time.monotonic() - t0)


@pytest.fixture(scope="session")
def census_1e6():
    """Curve 37a, base 2, default Fermat mode, x = 10^6, two workers, which
    take some 5 s off the suite on two cores."""
    t0 = time.monotonic()
    result = run_census(get_curve("37a"), 1_000_000, base=2, threads=2)
    return TimedCensus(result, time.monotonic() - t0)
