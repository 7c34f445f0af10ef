"""Exact scalars: rationals, quadratic irrationals, and radical sums.

All breakpoints in the bound tables are numbers of the form a + b*sqrt(m).
This demo shows exact comparison (no floating point in any decision),
serialization round-trips, and the certified decimal rendering used by the
CSV emitters.
"""

from fractions import Fraction as F

from tiltbound import QuadNum, RadicalSum, compare_scalars, decimal_str, format_scalar, parse_scalar

print("== quadratic irrationals ==")
bp1 = QuadNum(F(4, 3), F(-1, 3), 13)  # (4 - sqrt 13)/3
bp2 = QuadNum(F(8, 3), F(-1, 3), 61)  # (8 - sqrt 61)/3
print("breakpoint A:", format_scalar(bp1), "=", decimal_str(bp1, 12))
print("breakpoint B:", format_scalar(bp2), "=", decimal_str(bp2, 12))
print("A > B ?", compare_scalars(bp1, bp2) > 0, "(mixed radicands, decided by squaring)")
print("A > 0 ?", compare_scalars(bp1, 0) > 0)

print()
print("== radicand normalization ==")
x = QuadNum(0, 1, 244)  # sqrt 244 = 2 sqrt 61
print("sqrt(244) stored as:", format_scalar(x))

print()
print("== round trips ==")
text = format_scalar(bp1)
print(f"parse({text!r}) == original:", compare_scalars(parse_scalar(text), bp1) == 0)

print()
print("== sums of several radicals ==")
s = RadicalSum.of(QuadNum(0, 1, 2)) + QuadNum(0, 1, 3) + QuadNum(0, 1, 5) - F(539, 100)
print("sqrt2 + sqrt3 + sqrt5 - 5.39 =", s, "-> sign", s.sign())

print()
print("== the sqrt(2374) comparison from the Q-form case split ==")
root = QuadNum(F(79, 275), F(-3, 275), 2374)
print("(79 - 3*sqrt(2374))/275 =", decimal_str(root, 12), "> -1/4 ?", compare_scalars(root, F(-1, 4)) > 0)
