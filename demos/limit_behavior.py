"""
Watch a construction line straighten out as one angle vanishes
==============================================================

Fix b = c and let a shrink toward zero.  The line through I_a and J_b
then turns perpendicular to the inner side C'B', and both points close
in on the reflection S of B' across C'.  The deviation from a right
angle decays like 1.5 * a, and the distances to S like 2a and a times
the side length -- first-order behaviour that the library checks
numerically.
"""

from morley import check_limit_perpendicular, limit_sequence

# 1. Probe a sequence of shrinking angles.  Each probe reports three
#    measurements, which its reports() gives in this order: the angle
#    between the line and the side (expected pi/2), and the distances
#    from I_a and J_b to the pivot point S.
for a_small in (1e-2, 1e-3, 1e-4, 1e-5):
    probe = check_limit_perpendicular(a_small)
    perpendicular, dist_i, dist_j = probe.reports()
    deviation = abs(perpendicular.measured - perpendicular.expected)
    print(
        f"a = {a_small:.0e}:  deviation {deviation:.6e} rad"
        f"  (~1.5a = {1.5 * a_small:.1e}),"
        f"  |I_a - S| = {dist_i.measured:.6e}  (~2a),"
        f"  |J_b - S| = {dist_j.measured:.6e}  (~a)"
    )

# 2. The built-in sequence check asserts the deviation decreases
#    monotonically as a drops through a whole sequence.
summary = limit_sequence()
print(f"monotone decay over (1e-3, 1e-4, 1e-5): all pass = {summary.all_pass}")
