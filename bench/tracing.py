"""Spans around calls into morley's layers, recorded from outside the package.

``Tracer.install`` replaces each traced public function on every
``morley`` module that binds it (so ``morley.verify.construct`` is
wrapped as well as ``morley.inverse.construct``) and wraps ``__init__``
of the traced classes.  Spans live in flat in-memory arrays: name id,
parent span index, op id, start and end (``time.perf_counter``).  They
are written out with ``dump`` when the run ends.

numpy is imported only where spans are exported or analysed, so that in
a traced cold ``morley`` process the ``cli.import`` span covers it.

Span names are ``<layer>.<function>``; the benchmark's own root span of
each op is ``bench.op``.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

FUNCTIONS = {
    "kernel": ("angle_at", "signed_angle", "orientation", "intersect_lines",
               "rotate_about", "chord_arc_circle", "midpoint"),
    "inverse": ("construct", "place_arc_points", "equilateral_triangle"),
    "forward": ("morley_triangle", "trisectors", "apply_similarity", "side_spread"),
    "verify": ("check_angle_identities", "check_isosceles_arcs", "check_outer_angles",
               "check_roundtrip", "check_equilateral_forward", "check_similarity_invariance",
               "limit_sequence", "run_battery"),
    "document": ("config_document", "parse_config_document", "summary_document",
                 "forward_document"),
    "render": ("render_svg",),
    "cli": ("main",),
}
# Classes whose construction is a span.
CLASSES = {"kernel": ("Point", "Line", "Circle", "Triangle")}
# Classes whose construction is only counted, so that its time stays in
# the caller's self time (report objects belong to run_battery's own work).
COUNTED = {"verify": ("CheckReport",)}
# Spans whose results' lengths are summed.
SIZED = ("document.summary_document", "render.render_svg_config", "render.render_svg_scene")

ROOT = "bench.op"


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._op_id = -1
        self.active = False
        self.counts: Counter[str] = Counter()
        self.errors: Counter[tuple[str, str]] = Counter()
        self.sizes: Counter[str] = Counter()
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.op.append(self._op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    @contextmanager
    def op_span(self, op_id: int):
        """The root span of one op; wrappers record only inside it."""
        self._op_id = op_id
        self.active = True
        try:
            with self.span(ROOT) as idx:
                yield idx
        finally:
            self.active = False

    def wrap(self, fn, name_of):
        """``fn`` recording a span named ``name_of`` (a string, or a
        function of the call's arguments) while the tracer is active."""
        fixed = name_of if isinstance(name_of, str) else None
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            name = fixed or name_of(args)
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.errors[(name, type(exc).__name__)] += 1
                raise
            finally:
                tracer.close(idx)
            if name in SIZED:
                tracer.sizes[name] += len(result)
            return result

        return traced

    def counted(self, fn, name: str):
        tracer = self

        def counting(*args, **kwargs):
            if tracer.active:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return counting

    def _replace(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, *callers) -> None:
        """Wrap every traced function and class of the loaded package, on
        every ``morley`` module and on each module in ``callers``."""
        import morley.cli  # noqa: F401  (loads every layer module)
        from morley.render import TrisectionScene

        modules = [m for n, m in sys.modules.items() if n == "morley" or n.startswith("morley.")]
        modules += callers
        for layer, names in FUNCTIONS.items():
            home = sys.modules[f"morley.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                if fname == "render_svg":
                    wrapper = self.wrap(original, lambda args: "render.render_svg_scene"
                                        if isinstance(args[0], TrisectionScene)
                                        else "render.render_svg_config")
                else:
                    wrapper = self.wrap(original, f"{layer}.{fname}")
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._replace(module, attr, wrapper)
        for table, make in ((CLASSES, self.wrap), (COUNTED, self.counted)):
            for layer, names in table.items():
                for cname in names:
                    cls = getattr(sys.modules[f"morley.{layer}"], cname)
                    self._replace(cls, "__init__", make(cls.__init__, f"{layer}.{cname}"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def arrays(self) -> dict:
        import numpy as np

        # Copies, so that the arrays can still grow afterwards.
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def dump(self, path) -> None:
        """Write spans, names and counters to ``path`` (an .npz file)."""
        import numpy as np

        extra = {
            "names": np.array(self.names, dtype=str),
            "counts": np.array([[k, str(v)] for k, v in self.counts.items()], dtype=str).reshape(-1, 2),
            "errors": np.array([[n, t, str(v)] for (n, t), v in self.errors.items()], dtype=str).reshape(-1, 3),
            "sizes": np.array([[k, str(v)] for k, v in self.sizes.items()], dtype=str).reshape(-1, 2),
        }
        np.savez(path, **self.arrays(), **extra)

    def merge(self, path, parent_idx: int, op_id: int) -> None:
        """Adopt the spans another process dumped: its root spans become
        children of span ``parent_idx`` and all of them belong to ``op_id``."""
        import numpy as np

        with np.load(path) as data:
            remap = np.array([self._id(n) for n in data["names"]], dtype=np.int32)
            base = len(self.start)
            parent = data["parent"]
            self.name.extend(remap[data["name"]].tolist())
            self.parent.extend(np.where(parent < 0, parent_idx, parent + base).tolist())
            self.op.extend([op_id] * len(parent))
            self.start.extend(data["start"].tolist())
            self.end.extend(data["end"].tolist())
            for k, v in data["counts"]:
                self.counts[str(k)] += int(v)
            for n, t, v in data["errors"]:
                self.errors[(str(n), str(t))] += int(v)
            for k, v in data["sizes"]:
                self.sizes[str(k)] += int(v)


def self_times(spans: dict):
    """Each span's duration minus the durations of its direct children."""
    import numpy as np

    duration = spans["end"] - spans["start"]
    child = spans["parent"] >= 0
    covered = np.bincount(spans["parent"][child], weights=duration[child], minlength=len(duration))
    return duration - covered


def analyse(tracer: Tracer) -> dict:
    """Per span name: calls, inclusive and self seconds, errors by type and
    result bytes; per layer: self seconds; per op: wall and summed self."""
    import numpy as np

    spans = tracer.arrays()
    n_names = len(tracer.names)
    duration = spans["end"] - spans["start"]
    own = self_times(spans)
    calls = np.bincount(spans["name"], minlength=n_names)
    inclusive = np.bincount(spans["name"], weights=duration, minlength=n_names)
    self_s = np.bincount(spans["name"], weights=own, minlength=n_names)
    names = {}
    for nid, name in enumerate(tracer.names):
        names[name] = {
            "calls": int(calls[nid]),
            "inclusive_s": float(inclusive[nid]),
            "self_s": float(self_s[nid]),
        }
    for name, count in tracer.counts.items():
        names.setdefault(name, {"inclusive_s": 0.0, "self_s": 0.0})["calls"] = count
    for (name, kind), count in tracer.errors.items():
        names[name].setdefault("errors", {})[kind] = count
    for name, size in tracer.sizes.items():
        names[name]["bytes"] = size
    layers = Counter()
    for name, entry in names.items():
        layers[layer_of(name)] += entry["self_s"]
    roots = spans["parent"] < 0
    op_wall = np.bincount(spans["op"][roots], weights=duration[roots])
    op_self = np.bincount(spans["op"], weights=own, minlength=len(op_wall))
    return {
        "names": names,
        "layer_self_s": dict(layers),
        "ops": int(np.count_nonzero(op_wall)),
        "op_wall_s": op_wall.tolist(),
        "op_self_sum_s": op_self.tolist(),
    }
