"""Time one set-up in a fresh interpreter: import fluxseek, load the
configuration and build the scenario.

Reads a workload spec (see workloads.py) as JSON on stdin and prints the
seconds taken. The clock starts before fluxseek is imported; the
interpreter's own start-up is not included.
"""

import json
import sys
import time
from pathlib import Path

spec = json.load(sys.stdin)
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import workloads  # noqa: E402  (sibling module; imports no fluxseek code)

start = time.perf_counter()
workloads.build(spec)
print(repr(time.perf_counter() - start))
