"""Benchmark of shield builds and shielded planning, with independent checks.

    python3 perfbench/run.py --workload obstacle-n8 --seed 0 --seconds 40 --trace 0

One run generates the workload's grid model, builds its centralized and its
factored winning region, and plays seeded desk-profile episodes in all five
shield modes.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones.  With ``--trace 1`` the same
operations run under tracing, the metrics are the per-layer ones, and spans
and profiles are written to ``out/`` next to this file.  ``--seconds`` sets
the planning budget (2.55 steps per mode per second).  See README.md.

The package is imported from ``src/`` at the root of the checkout; where
the sources are missing the run exits with code 2 and prints no result.
"""

import time

# Set-up is timed from the start of the process; the benchmark's own code
# before the package's import is taken out of it.
SCRIPT_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def process_age() -> float:
    """Seconds since this process started, from the kernel's start time."""
    with open("/proc/self/stat") as fh:
        stat = fh.read()
    ticks = int(stat[stat.rindex(")") + 2:].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - ticks / os.sysconf("SC_CLK_TCK")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    if not (SRC / "safepomcp" / "__init__.py").is_file():
        print(f"perfbench: no safepomcp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]
    t_import = time.perf_counter()
    from safepomcp import domains

    t0 = time.perf_counter()
    m = getattr(domains, f"gen_{wl.family}")(domains.GridSpec(n=wl.n))
    t1 = time.perf_counter()
    setup_s = process_age() - (t_import - SCRIPT_START)

    import bench

    if args.trace:
        import layers

        run = layers.run_traced(args.workload, wl, args.seed, args.seconds,
                                m, (t0, t1))
    else:
        run = bench.Run(args.workload, wl, args.seed, args.seconds, m)
        bench.run_untraced(run, setup_s)
    for line in run.problems[:20]:
        print(f"perfbench: FAILED CHECK: {line}", file=sys.stderr)
    for key, value in run.raw.items():
        print(f"perfbench: uncorrected {key} = {value:.6g}", file=sys.stderr)
    for line in run.faults:
        print(f"perfbench: known fault: {line}", file=sys.stderr)
    print(json.dumps(run.result()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
