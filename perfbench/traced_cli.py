"""Traced `eclab` invocation: `python3 perfbench/traced_cli.py TRACE_OUT ARGS...`.

Runs `eclab ARGS...` in this process with every library function the
command module calls wrapped in a tracer call, so each call into a layer
is timed from this file and the command's outputs stay byte-identical.
After the command returns, TRACE_OUT receives the spans, the monotonic
time at which the command ended, and a digest of the last census.
"""
from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from checker import census_digest  # noqa: E402
from tracer import Tracer  # noqa: E402

# Name in eclab.cli -> layer name (module.function).
LAYER_CALLS = {
    "get_curve": "curves.get_curve",
    "run_census": "census.run_census",
    "decompose_pseudoprimes": "census.decompose_pseudoprimes",
    "summarize": "census.summarize",
    "write_records_csv": "census.write_records_csv",
    "write_summary_json": "census.write_summary_json",
    "class_count_table": "gl2.class_count_table",
    "gl2_order": "gl2.gl2_order",
    "predicted_class_count": "gl2.predicted_class_count",
    "order_census": "pseudoprimes.order_census",
    "nord_bound": "pseudoprimes.nord_bound",
    "tail_sum": "pseudoprimes.tail_sum",
    "product_tail_sum": "pseudoprimes.product_tail_sum",
    "order_level_report": "pseudoprimes.order_level_report",
    "preset_params": "sieve.preset_params",
    "build_sieve_report": "sieve.build_sieve_report",
}


def main(argv: list[str]) -> int:
    trace_out, cli_argv = argv[0], argv[1:]
    from eclab import cli

    tracer = Tracer()
    last = {}

    def wrap(attr: str, name: str):
        fn = getattr(cli, attr)

        def traced(*args, **kwargs):
            out = tracer.call(name, fn, *args, **kwargs)
            if attr == "run_census":
                last["census"] = out
            return out

        return traced

    for attr, name in LAYER_CALLS.items():
        setattr(cli, attr, wrap(attr, name))
    code = cli.main(cli_argv)
    sys.stdout.flush()
    end = time.monotonic()
    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "end": end,
                "census_digest": census_digest(last["census"]) if "census" in last else None,
                "spans": tracer.records,
            },
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
