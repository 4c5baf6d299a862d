"""Self-test of the benchmark's oracles: an injected wrong answer must count.

Runs ``run.py --inject-fault`` on each workload named on the command line
(all four by default).  With the flag, the first answer of every oracle
check kind is replaced by a wrong one before it is compared; the run must
then report ``correct: false``, ``failed > 0`` and ``ok_share < 1``.
Exits 0 when every workload catches its faults::

    python3 perfbench/selftest.py [workload ...]
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from run import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv) -> int:
    bad = 0
    for workload in argv or WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", "1", "--trace", "0", "--inject-fault",
             "--out", os.path.join(".perfbench", "selftest")],
            capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print(f"{workload}: run failed\n{proc.stderr}")
            bad += 1
            continue
        result = json.loads(lines[-1])
        share = result["metrics"]["ok_share"]["value"]
        caught = [line for line in lines if line.startswith("# FAILED")]
        ok = not result["correct"] and result["failed"] > 0 and share < 1.0
        print(f"{workload}: failed {result['failed']}/{result['attempted']}, "
              f"ok_share {share:.4f} -> {'caught' if ok else 'MISSED'}")
        for line in caught:
            print("   " + line)
        bad += not ok
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
