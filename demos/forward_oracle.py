"""
Trisect the angles of any triangle and meet an equilateral surprise
===================================================================

For any triangle, trisect each interior angle and intersect the
trisectors adjacent to each side.  The three intersection points always
form an equilateral triangle.  This script checks that on a 3-4-5 right
triangle and on a batch of random ones, then draws the picture.
"""

import random

from morley import (
    Point,
    Triangle,
    TrisectionScene,
    forward_document,
    morley_triangle,
    random_triangle,
    render_svg,
    side_spread,
)
from morley.inverse import INNER_NAMES

# 1. The 3-4-5 right triangle.
outer = Triangle(Point(0.0, 0.0), Point(4.0, 0.0), Point(0.0, 3.0))
inner = morley_triangle(outer)
print("inner vertices:")
for label, vertex in zip(INNER_NAMES, inner.vertices):
    print(f"  {label} = ({vertex.x:.17g}, {vertex.y:.17g})")

# 2. Equilateral to machine precision: the relative spread of the three
#    side lengths is ~1e-16.
print(f"relative side spread: {side_spread(inner):.3e}")

# 3. The same holds for arbitrary triangles.
rng = random.Random(7)
worst = max(side_spread(morley_triangle(random_triangle(rng))) for _ in range(500))
print(f"worst spread over 500 random triangles: {worst:.3e}")

# 4. Write the JSON summary and draw outer triangle, trisectors and core.
with open("trisection.json", "w", encoding="utf-8") as handle:
    handle.write(forward_document(outer, inner))
with open("trisection.svg", "w", encoding="utf-8") as handle:
    handle.write(render_svg(TrisectionScene.from_triangle(outer)))
print("wrote trisection.json and trisection.svg")
