"""
Build a triangle around an equilateral core and draw the construction
=====================================================================

Pick three positive angles summing to 60 degrees.  Starting from a unit
equilateral triangle, the library erects one auxiliary circle over each
side and places two points on each circle.  Each outer vertex closes
Conway's triangle over a side of the core: for vertex A, the side C'B'
with angles b + 60 and c + 60 degrees at its ends.  The result is a
triangle whose interior angles are exactly three times the chosen
angles -- and whose trisectors meet at the equilateral triangle we
started from.  Its sides pass through the placed points, as in the paper.
"""

import math

from morley import (
    AngleTriple,
    config_document,
    construct,
    equilateral_triangle,
    render_svg,
)

# 1. Choose the angle triple (degrees): 20 + 15 + 25 == 60.
angles = AngleTriple.from_degrees(20.0, 15.0, 25.0)
inner = equilateral_triangle(side=1.0)

# 2. Run the construction.
cfg = construct(inner, angles)

# 3. The interior angles of the produced triangle are the tripled inputs.
print("requested thirds (deg):", tuple(round(math.degrees(v), 6) for v in angles.as_tuple()))
print("outer angles     (deg):", tuple(round(math.degrees(angle), 6) for angle in cfg.outer.angles()))

# 4. All twelve named points of the construction are available by label.
for label, point in cfg.named_points().items():
    print(f"  {label:>3} = ({point.x: .12f}, {point.y: .12f})")

# 5. Persist the configuration as JSON and draw it as SVG.  Both outputs
#    are byte-deterministic: the same inputs always produce the same files.
with open("construction.json", "w", encoding="utf-8") as handle:
    handle.write(config_document(cfg))
with open("construction.svg", "w", encoding="utf-8") as handle:
    handle.write(render_svg(cfg))
print("wrote construction.json and construction.svg")
