"""The full cross-check: one answer, three independent derivations.

Stratification gives a closed form, point counting plus interpolation
rediscovers it from raw finite-field data, and the transfer matrix produces
it by linear algebra.  This script runs all three for small genus and then
replays the reference count table.
"""

import time

from affrep import close_surface, epoly_from_counts, rep_class
from affrep.cli import cmd_table

print(f"{'genus':>5}  {'stratification = transfer = interpolation':<46}")
for genus in (1, 2, 3):
    geometric = rep_class(genus)
    transfer = close_surface(genus)
    result = epoly_from_counts(genus)
    agree = geometric == transfer == result.epoly
    status = "ok" if agree else "MISMATCH"
    print(f"{genus:>5}  {str(geometric):<46} [{status}] counted to q = {result.records[-1].q}")

print("\nhigher genus, polynomial methods only:")
for genus in (5, 8, 10):
    agree = rep_class(genus) == close_surface(genus)
    print(f"  genus {genus}: degree {rep_class(genus).degree}  [{'ok' if agree else 'MISMATCH'}]")

print("\nreplaying the reference count table (24 cells):")
t0 = time.perf_counter()
report = cmd_table()
elapsed = time.perf_counter() - t0
failed = [c["name"] for c in report.checks if not c["pass"]]
print(f"  {len(report.checks) - 1} cells recomputed in {elapsed * 1000:.1f} ms; failures: {failed or 'none'}")
