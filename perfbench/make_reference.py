"""Write reference.json: the exact_suite values of every pool case.

The exact workload compares each op's output with these stored values at
FFT-order roundoff.  Regenerate them only when a change is meant to move
exact results, and say so where the change is recorded:

    PYTHONPATH=src python3 perfbench/make_reference.py
"""

import json

from workloads import REFERENCE_FILE, ExactSuite


def main() -> None:
    w = ExactSuite()
    w.setup(0)
    ref = {}
    for k in range(w.pool):
        w.inputs = [w.pool_case(k)]
        ref[str(k)] = ExactSuite.summary(w.op(0))
    with open(REFERENCE_FILE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
