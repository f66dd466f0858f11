#!/usr/bin/env python
"""Hot-path performance gates — thin wrapper over ``repro-paper bench``.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_core.py                        # measure
    PYTHONPATH=src python benchmarks/bench_core.py --check                # gate vs baseline
    PYTHONPATH=src python benchmarks/bench_core.py --repeats 3 --check    # as CI runs it

Writes ``BENCH.json`` (see ``docs/PERFORMANCE.md`` for the schema and the
timing protocol).  The committed reference speedup lives in
``benchmarks/bench_baseline.json``.
"""

import sys

from repro.cli import main

if __name__ == "__main__":
    sys.exit(main(["bench", *sys.argv[1:]]))
