#!/usr/bin/env python3
"""Run every bundled worked case and print the full check-by-check report."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from toriq.cases import CASE_NAMES, run_case  # noqa: E402


def main():
    failed = []
    for name in CASE_NAMES:
        report = run_case(name)
        print("\n".join(report.lines()))
        print()
        if not report.passed:
            failed.append(name)
    if failed:
        print(f"FAILED cases: {', '.join(failed)}")
        return 1
    print(f"all {len(CASE_NAMES)} cases pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
