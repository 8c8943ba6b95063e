"""The package's value types against frozen slotted dataclasses.

Every value type derives from ``morley.kernel.Record`` and must keep
what ``@dataclass(frozen=True, slots=True)`` gave it: repr, equality
and hash by field, immutability, no ``__dict__``, and values that
pickle and copy.
"""

import copy
import dataclasses
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morley.inverse import AngleTriple, MorleyConfiguration, construct, equilateral_triangle
from morley.kernel import Circle, Line, Point, Triangle
from morley.render import TrisectionScene
from morley.verify import CheckReport, VerificationSummary, run_battery

# Each type's fields in the order its dataclass declared them.  A
# summary's fold is no field: its parts, or a battery's arguments, fix it.
FIELDS = {
    Point: ("x", "y"),
    Line: ("p", "q"),
    Circle: ("center", "radius"),
    Triangle: ("v1", "v2", "v3"),
    AngleTriple: ("a", "b", "c"),
    MorleyConfiguration: ("angles", "inner", "outer", "circles", "arc_points"),
    CheckReport: ("name", "measured", "expected", "tol", "mode"),
    VerificationSummary: ("parts", "seed", "samples", "tol"),
    TrisectionScene: ("outer", "morley"),
}

TWINS = {
    cls: dataclasses.make_dataclass(cls.__name__, fields, frozen=True, slots=True)
    for cls, fields in FIELDS.items()
}


def raw(cls, values):
    """An instance of cls holding ``values``, set without its validation."""
    obj = cls.__new__(cls)
    for name, value in zip(FIELDS[cls], values):
        object.__setattr__(obj, name, value)
    return obj


def examples():
    cfg = construct(equilateral_triangle(), AngleTriple.from_degrees(20.0, 15.0, 25.0))
    report = CheckReport("outer angle[A]", 1.0, 1.0, 1e-9, "signed")
    return [
        Point(1, -0.0),
        Line(Point(0, 0), Point(1, 2)),
        cfg.circles[0],
        cfg.outer,
        cfg.angles,
        cfg,
        report,
        VerificationSummary([report], seed=7, samples=1),
        TrisectionScene.from_triangle(Triangle(Point(0, 0), Point(4, 0), Point(0, 3))),
        # A battery, kept as its fold and arguments; its own id keeps the
        # ids above.
        pytest.param(run_battery(2, 1), id="VerificationSummary-battery"),
    ]


NAN = math.nan
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([-0.0, 0.0, NAN])
    | st.text(max_size=3)
    | st.builds(Point, st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))
)
values = st.recursive(scalars, lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=6)


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_repr_eq_and_hash_match_dataclass_twin(cls, data):
    n = len(FIELDS[cls])
    u = data.draw(st.tuples(*[values] * n))
    v = data.draw(st.one_of(st.just(u), st.tuples(*[values] * n)))
    twin = TWINS[cls]
    ours_u, ours_v = raw(cls, u), raw(cls, v)
    assert repr(ours_u) == repr(twin(*u))
    assert (ours_u == ours_v) == (twin(*u) == twin(*v))
    assert (ours_u != ours_v) == (twin(*u) != twin(*v))
    assert hash(ours_u) == hash(twin(*u))
    assert ours_u != twin(*u) and ours_u.__eq__(u) is NotImplemented


def test_types_with_equal_fields_differ():
    p, q = Point(0, 0), Point(1, 1)
    assert Line(p, q) != TrisectionScene(p, q)
    assert Line(p, q) == Line(Point(0.0, -0.0), q) and hash(Line(p, q)) == hash(Line(Point(0.0, -0.0), q))


@pytest.mark.parametrize("value", examples(), ids=lambda value: type(value).__name__)
def test_pickles_and_copies_to_an_equal_value(value):
    for copied in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(copied) is type(value)
        assert copied == value and hash(copied) == hash(value)
        assert repr(copied) == repr(value)
        if type(value) is VerificationSummary:
            # The fold comes along, so a copied battery's verdicts run no sweep.
            verdicts = (value.count, value.all_pass, value.families(), value.failures())
            assert (copied.count, copied.all_pass, copied.families(), copied.failures()) == verdicts


@pytest.mark.parametrize("value", examples()[1:], ids=lambda value: type(value).__name__)
def test_other_types_are_frozen_and_slotted(value):
    # Point has its own test in test_kernel.py.
    name = FIELDS[type(value)][0]
    with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{name}'"):
        setattr(value, name, 0)
    with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{name}'"):
        delattr(value, name)
    assert not hasattr(value, "__dict__")


def test_keyword_and_default_arguments():
    cfg = examples()[5]
    assert MorleyConfiguration(**{name: getattr(cfg, name) for name in FIELDS[MorleyConfiguration]}) == cfg
    assert Triangle(*cfg.outer.vertices) == cfg.outer
    with pytest.raises(TypeError):
        Triangle(*cfg.outer.vertices, ("A", "B", "C"))
    assert CheckReport("x", 1.0, 1.0, 0.0).mode == "unsigned"
    assert VerificationSummary([]) == VerificationSummary((), 0, 1)
