"""Run the registered identity checks and print the report.

Every check compares two independently built series (or a series against
enumeration) coefficient by coefficient in exact arithmetic.  An optional
glob argument narrows the run, e.g. `python3 04_identity_suite.py 'pde-*'`.
"""

import sys

from qpairs import harness


def main():
    pattern = sys.argv[1] if len(sys.argv) > 1 else "*"
    results = harness.run_suite(pattern)
    print(harness.report_text([r.body() for r in results]))
    print()
    control = harness.negative_control()
    print(f"negative control (corrupted identity) status: {control.status}")
    print(f"  first mismatch: {control.first_mismatch}")


if __name__ == "__main__":
    main()
