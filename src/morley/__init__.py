"""Triangle trisector geometry.

Morley's theorem says the adjacent angle trisectors of any triangle
meet in an equilateral triangle.  This package walks the theorem in
both directions: ``construct`` builds, from an equilateral triangle
and an angle triple (a, b, c) with a + b + c = pi/3, the triangle with
interior angles (3a, 3b, 3c) whose trisectors reproduce the given
triangle, while ``morley_triangle`` trisects an arbitrary triangle
directly.  The ``verify`` module turns the angle identities relating
the two into named, tolerance-checked reports, and ``render_svg``
draws either figure deterministically.

The rest of the library is reached through its modules
(``morley.kernel``, ``morley.inverse``, ``morley.forward``,
``morley.verify``, ``morley.document``, ``morley.render``).
"""

from .document import (
    config_document,
    forward_document,
    parse_config_document,
    summary_document,
)
from .forward import morley_triangle, side_spread
from .inverse import AngleTriple, construct, equilateral_triangle
from .kernel import GeometryError, Point, Triangle
from .render import TrisectionScene, render_svg
from .verify import (
    check_angle_identities,
    check_limit_perpendicular,
    limit_sequence,
    random_triangle,
    run_battery,
)

__version__ = "0.1.0"

__all__ = [
    "AngleTriple",
    "GeometryError",
    "Point",
    "Triangle",
    "TrisectionScene",
    "check_angle_identities",
    "check_limit_perpendicular",
    "config_document",
    "construct",
    "equilateral_triangle",
    "forward_document",
    "limit_sequence",
    "morley_triangle",
    "parse_config_document",
    "random_triangle",
    "render_svg",
    "run_battery",
    "side_spread",
    "summary_document",
    "__version__",
]
