"""One fresh-interpreter set-up: import ``repro``, build the workload's grid
and session, report the phase CPU times as one JSON line, exit.

``run.py`` launches this several times per run; the whole child's CPU time
(interpreter start-up included) is the benchmark's ``setup_s``.

Usage: python3 setup_probe.py <workload> <seed>
"""

import os
import sys
import time

started = time.process_time()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import repro.harness  # noqa: E402  (imported after the path is set)
from repro.harness import ExecutionPolicy, Session  # noqa: E402

imported = time.process_time()

import workloads  # noqa: E402

grid = workloads.build(sys.argv[1], int(sys.argv[2]))
session = Session(backend="serial", policy=ExecutionPolicy(on_error="record"))
built = time.process_time()

print(f'{{"import_s": {imported - started!r}, "grid_s": {built - imported!r}, '
      f'"points": {len(grid)}}}')
