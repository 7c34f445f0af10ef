"""Run the replayable certificate suites and print the report.

Every check is exact; each suite also runs a negative control (a one
coefficient perturbation that must fail, so a pass cannot be vacuous).  A
control re-runs only the checks its suite marks as reading the perturbation
and keeps the suite's report for the others, so its ``samples=`` is the
suite's check count and its time covers the marked checks alone.
"""

import sys

from tiltbound.verify import run_suites

names = sys.argv[1:] or None
reports, ok = run_suites(names)
width = max(len(r.check_name) for r in reports)
for r in reports:
    print(f"{r.status:>4}  {r.check_name:<{width}}  samples={r.samples_tested:<7} {r.elapsed:7.2f}s")
print()
print("all checks pass:", ok)
sys.exit(0 if ok else 1)
