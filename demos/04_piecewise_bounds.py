"""The piecewise bounds: the nine-case global-section table on the K3,
the Clifford bound on the genus-65 curve, and the Bogomolov-Gieseker
families on the surface and threefold, with the envelope comparison.
"""

from fractions import Fraction as F

from tiltbound import (
    bg_bound_surface,
    bg_bound_threefold,
    bg_linear_family,
    bg_quadratic_family,
    clifford_bound,
    clifford_family,
    format_scalar,
    piecewise_check,
    spade,
)

print("== the global-section table ==")
for x, y in ((F(0), F(1)), (F(-1), F(1)), (F(6), F(1)), (F(-31, 4), F(1))):
    print(f"spade({format_scalar(x)}, {format_scalar(y)}) = {format_scalar(spade((x, y)))}")

print()
print("== Clifford bound h^0(F) for rank r, degree d on the curve ==")
for r, d in ((1, 0), (1, 2), (1, 16), (1, 50), (1, 62), (1, 64)):
    try:
        v = clifford_bound((r, d))
        print(f"(r, d) = ({r}, {d:>2}): h^0 <= {format_scalar(v)}")
    except Exception as exc:
        print(f"(r, d) = ({r}, {d:>2}): {type(exc).__name__} (uncovered band)")

print()
print("== Bogomolov-Gieseker families ==")
for x in (F(1, 10), F(1, 5), F(1, 2), F(4, 5), F(10, 11)):
    quad = bg_bound_surface(x)
    lin = bg_bound_threefold(x, family="linear")
    print(
        f"x = {format_scalar(x):>5}: quadratic {format_scalar(quad):>9}"
        f"  linear {format_scalar(lin):>7}  classical {format_scalar(x * x / 2)}"
    )

print()
print("== envelope: linear >= quadratic with a six-point equality set ==")
rep = piecewise_check(bg_linear_family, "dominance", bg_quadratic_family)
points, _, _ = rep.details
print("dominates:", rep.ok)
print("equality exactly at:", ", ".join(format_scalar(p) for p in points))

print()
print("== piece tables (exact JSON-ready audit dump) ==")
for row in bg_linear_family.to_table():
    print(row)
print("-- the Clifford bound per rank; its bn piece is a ratio, with a den row --")
for row in clifford_family.to_table():
    print(row)
