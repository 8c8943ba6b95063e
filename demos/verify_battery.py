"""
Run the seeded verification battery and inspect the report
==========================================================

The battery samples random angle triples, runs the construction on
each, and checks every advertised property: fifteen named angle
identities, isosceles auxiliary arcs, tripled outer angles, roundtrip
through the independent trisection oracle, similarity invariance, and
the small-angle limit.  Everything is seeded, so the JSON report is
byte-identical run after run.
"""

from morley import run_battery, summary_document

# 1. Run 100 samples with the default seed.  Each sample contributes 24
#    named checks; ten limit checks are appended at the end.  The summary
#    keeps their count and verdicts; summary.reports() would run the sweep
#    again to list every check.
summary = run_battery(samples=100, seed=42)
print(f"checks run: {summary.count}")
print(f"all pass:   {summary.all_pass}")

# 2. The margins: each check family's worst error against its tolerance,
#    and the sample that produced it.
print("worst error per family:")
for family, count, failed, worst in summary.families():
    print(f"  {worst.abs_error:.3e} of tol {worst.tol:g}  {count:4d} checks, {failed} failed  {worst.name}")

# 3. Persist the report: the same families, plus every failing check.
#    summary_document(summary, full=True) would write all of the checks.
with open("battery.json", "w", encoding="utf-8") as handle:
    handle.write(summary_document(summary))
print("wrote battery.json")
