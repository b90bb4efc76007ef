"""Run one haarlmsm CLI command in this fresh process and report its cost.

    python3 op.py --src SRC --report OUT.json --spawn-ns NS [--trace]
                  -- <haarlmsm arguments>

``--spawn-ns`` is the parent's CLOCK_MONOTONIC reading just before it
started this process, so ``setup_s`` covers interpreter start, the package
import and the CLI parse.  ``wall_s`` and ``cpu_s`` cover ``cli.main`` only.
The reference task (reference.py) is timed just before and just after the
command, so run.py can rescale these times to a fixed host speed.
With ``--trace`` the package's public functions are wrapped first (see
spans.py) and the report carries the span table.  The exit status is the
command's own.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import reference


def _cpu_s():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--spawn-ns", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    ns = parser.parse_args(argv)
    cli_args = ns.cli_args[1:] if ns.cli_args[:1] == ["--"] else ns.cli_args

    src = os.path.abspath(ns.src)
    sys.path.insert(0, src)
    import haarlmsm
    from haarlmsm import cli
    if not os.path.abspath(haarlmsm.__file__).startswith(src + os.sep):
        raise SystemExit(f"haarlmsm imported from {haarlmsm.__file__}, "
                         f"not from {src}")
    cli.build_config(cli_args)
    setup_s = (time.monotonic_ns() - ns.spawn_ns) * 1e-9
    reference.warm_up()
    ref_before = reference.measure()
    entry = cli.main
    tracer = None
    if ns.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
        entry = tracer.wrap("cli.main", cli.main)
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    rc = entry(cli_args)
    report = {"setup_s": setup_s, "wall_s": time.perf_counter() - t0,
              "cpu_s": _cpu_s() - cpu0, "rc": rc}
    report["ref_before"] = ref_before
    report["ref_after"] = reference.measure()
    if tracer is not None:
        report["trace"] = tracer.table()
    # ru_maxrss is in KiB on Linux
    report["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(ns.report, "w") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
