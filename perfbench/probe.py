"""Set-up probe: import pressgap, build the workload maps and potentials,
then print ``ready``.  `run.py` times this from process start to that line.

    python3 perfbench/probe.py
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads  # noqa: E402  (imports pressgap)

workloads.build_systems()
print("ready", flush=True)
