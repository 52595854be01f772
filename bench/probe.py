"""Set-up probe: in a fresh interpreter, import simds, construct one
workload's fields and their bulk tables, then print "ready".

run.py times this script from launch to that line; the median over a
few launches is `setup_s`.

    python3 bench/probe.py WORKLOAD [--smoke]
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402

if __name__ == "__main__":
    workloads.make(sys.argv[1], 0, "--smoke" in sys.argv[2:]).setup()
    print("ready", flush=True)
