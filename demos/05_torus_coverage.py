#!/usr/bin/env python3
"""The torus picture: digit tuples as rectangles, orbits as lines.

Mapping x to the fractional parts of (log_b1 x, ..., log_bn x) sends the
digit question onto the unit torus: each digit tuple owns a rectangular
cell, and as x grows the image point slides along a fixed direction.  For
independent bases the line winds densely (Kronecker), so every cell gets
hit; dependent bases confine the line to a closed subgroup that misses the
excluded cells entirely.  Density is what the classical Kronecker argument gives; how *often* a cell is
hit is not claimed anywhere, and the deviation numbers below show why.
"""

from jointdigits import (
    image_exact,
    orbit_sample,
    rectangle_of,
    torus_digit_tuple,
    total_measure,
)
from jointdigits.torus import _endpoints

print("=== rectangle geometry for bases (3, 10) ===")
for target in [(1, 1), (2, 9)]:
    r = rectangle_of((3, 10), target)
    lo, hi = _endpoints(r.measure())
    print(f"cell {target}: measure in [{float(lo):.12f}, {float(hi):.12f}]")

total = total_measure((3, 10))
lo, hi = _endpoints(total)
print(f"all 18 measures sum to 1 within {float(hi - lo):.2e} (certified enclosure)")

print()
print("=== integer scan: exact classification of x = 1..N ===")
rep = orbit_sample((3, 10), 10**5, sampler="integer-scan")
print(f"N = {rep.samples}: {rep.rectangles_hit}/{rep.rectangles_total} cells hit")
print("counts vs measures (top rows):")
for tup in sorted(rep.measures)[:6]:
    print(f"  {tup}: count {rep.hit_counts.get(tup, 0):6d}, "
          f"frequency {rep.frequency(tup):.4f}, measure {rep._measure_str(tup, 8)}")
print(f"max |frequency - measure| = {rep.max_deviation():.3f}")
print("(large: plain integer ranges are not log-uniform; density != frequency)")

print()
print("=== geometric walk: x multiplied by 3/2 each step ===")
rep = orbit_sample((3, 10), 4000, sampler="geometric")
print(f"N = {rep.samples}: {rep.rectangles_hit}/{rep.rectangles_total} cells hit, "
      f"max deviation {rep.max_deviation():.3f}")
print("(a single orbit, equidistributed: frequencies track measures closely)")

print()
print("=== low-discrepancy parameter sampling with certified intervals ===")
rep = orbit_sample((3, 10), 4000, sampler="low-discrepancy")
print(f"N = {rep.samples}: {rep.rectangles_hit}/{rep.rectangles_total} cells hit, "
      f"boundary-ambiguous {rep.boundary_ambiguous}, "
      f"max deviation {rep.max_deviation():.3f}")

print()
print("=== dependent bases: the orbit cannot enter excluded cells ===")
excluded = sorted(image_exact(4, 8).excluded)
rep = orbit_sample((4, 8), 20000, sampler="integer-scan")
hits_excluded = [t for t in excluded if t in rep.hit_counts]
print(f"bases (4, 8), N = {rep.samples}: cells hit {rep.rectangles_hit}/21")
print(f"excluded cells {excluded}")
print(f"excluded cells ever hit: {hits_excluded or 'none'}")

print()
print("=== interval classification agrees with the exact core ===")
for x in (56, 2024, 9565938):
    print(f"x = {x}: torus route {torus_digit_tuple(x, (3, 10))}")
print("points exactly on a cell boundary are refused, never guessed:")
print(f"x = 1000 = 10**3 in bases (3, 10): {torus_digit_tuple(1000, (3, 10))}")
print(f"x = 9 = 3**2 in bases (9, 10): {torus_digit_tuple(9, (9, 10))}")
print("(the exact integer core classifies those fine; only the float-free")
print("interval route abstains, which is the point)")
