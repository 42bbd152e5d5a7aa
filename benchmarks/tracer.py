"""Spans around polyshannon's layer functions, installed from outside.

The modules import one another by name (``from .tbspline import tb_exact``),
so wrapping ``tbspline.tb_exact`` alone would miss every call made through
the copies in ``shannon1d``, ``spherical`` and ``cli``.  ``Tracer.install``
therefore replaces the function under every name that is bound to it in any
loaded polyshannon module, and ``uninstall`` puts the originals back.

Spans (name, start, end, parent, attributes) are kept in memory; self time
is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _points(value) -> int:
    """Number of values in an array argument; 1 for a scalar."""
    return int(getattr(value, "size", 1))


def _lru_hit(cache_info):
    """Attribute hooks: did this call hit the lru cache behind ``cache_info``?"""

    def before(args, kwargs):
        return cache_info().hits

    def after(state, result):
        return {"hit": cache_info().hits > state}

    return before, after


def _layer_table():
    """Per traced layer: (module, attribute path, span name, attrs, hooks).

    ``attrs(args, kwargs)`` gives span attributes from the arguments;
    ``hooks`` is a (before, after) pair run around the call, whose ``after``
    adds attributes from the result.
    """
    tbspline = sys.modules["polyshannon.tbspline"]

    def tb_exact_attrs(args, kwargs):
        spectrum, t = args[0], args[1] if len(args) > 1 else kwargs["t"]
        hp = tbspline.cancellation_severity(spectrum) > tbspline.SEVERITY_FLOAT_MAX
        return {"points": _points(t), "hp": hp}

    def interp6_attrs(args, kwargs):
        return {"points": _points(args[3] if len(args) > 3 else kwargs["t"])}

    def sph_harm_attrs(args, kwargs):
        d = args[2] if len(args) > 2 else kwargs["direction"]
        return {"points": max(_points(d) // 3, 1)}

    def cached_kernel_after(state, result):
        return {"hit": bool(result[2])}

    spherical = sys.modules["polyshannon.spherical"]
    strip = sys.modules["polyshannon.strip"]
    return [
        ("polyshannon.tbspline", "tb_exact", "tbspline.tb_exact", tb_exact_attrs, None),
        ("polyshannon.tbspline", "ef_zeros", "tbspline.ef_zeros", None, None),
        ("polyshannon.tbspline", "euler_spline", "tbspline.euler_spline", None, None),
        ("polyshannon.tbspline", "euler_spline_resolvent",
         "tbspline.euler_spline_resolvent", None, None),
        ("polyshannon.shannon1d", "synthesize_kernel", "shannon1d.synthesize_kernel",
         None, None),
        ("polyshannon.shannon1d", "synthesize_dual", "shannon1d.synthesize_dual",
         None, None),
        ("polyshannon.shannon1d", "tb_superposition", "shannon1d.tb_superposition",
         None, None),
        ("polyshannon.tables", "interp6", "tables.interp6", interp6_attrs, None),
        ("polyshannon.spherical", "sph_harm", "spherical.sph_harm", sph_harm_attrs, None),
        ("polyshannon.spherical", "reconstruct_spherical",
         "spherical.reconstruct_spherical", None, None),
        ("polyshannon.spherical", "radial_kernel", "spherical.radial_kernel",
         None, _lru_hit(spherical.radial_kernel.cache_info)),
        ("polyshannon.spherical", "decay_check", "spherical.decay_check", None, None),
        ("polyshannon.spherical", "SyntheticPolyspline.eval", "spherical.oracle",
         None, None),
        ("polyshannon.spherical", "SyntheticPolyspline.sphere_field",
         "spherical.sphere_field", None, None),
        ("polyshannon.strip", "reconstruct_strip", "strip.reconstruct_strip", None, None),
        ("polyshannon.strip", "strip_kernel", "strip.strip_kernel",
         None, _lru_hit(strip._strip_kernel_cached.cache_info)),
        ("polyshannon.strip", "SyntheticStripField.eval", "strip.oracle", None, None),
        ("polyshannon.strip", "SyntheticStripField.plane_field", "strip.plane_field",
         None, None),
        ("polyshannon.cli", "cached_kernel", "cli.cached_kernel",
         None, (lambda args, kwargs: None, cached_kernel_after)),
    ]


class Tracer:
    """In-memory span recorder with install/uninstall of layer wrappers."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _open(self, name: str, attrs: dict) -> Span:
        span = Span(name, self._stack[-1] if self._stack else -1, attrs=attrs)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def run(self, name: str, fn, *args):
        """Call ``fn(*args)`` inside a root span called ``name``."""
        span = self._open(name, {})
        try:
            return fn(*args)
        finally:
            self._close(span)

    def wrap(self, name: str, fn, attrs=None, hooks=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            info = attrs(args, kwargs) if attrs is not None else {}
            state = hooks[0](args, kwargs) if hooks is not None else None
            span = self._open(name, info)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if hooks is not None:
                span.attrs.update(hooks[1](state, result))
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "polyshannon" or n.startswith("polyshannon.")]
        for mod_name, path, name, attrs, hooks in _layer_table():
            owner = sys.modules[mod_name]
            if "." in path:  # a method: patch the class attribute
                cls_name, meth = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self.wrap(name, original, attrs, hooks))
                continue
            original = getattr(owner, path)
            wrapper = self.wrap(name, original, attrs, hooks)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


@dataclass
class LayerTotals:
    calls: int = 0
    points: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    hits: int = 0
    hit_known: int = 0
    hp_points: int = 0
    hp_s: float = 0.0


def aggregate(spans: list[Span], scale_of) -> tuple[dict[str, LayerTotals], float, float]:
    """Per-name totals, the traced root wall time and its unattributed part.

    ``scale_of(root_index)`` gives the normalisation factor of the root span
    a span belongs to; every time is multiplied by it.
    """
    child_time = [0.0] * len(spans)
    root_of = [0] * len(spans)
    for i, span in enumerate(spans):
        if span.parent >= 0:
            child_time[span.parent] += span.duration
            root_of[i] = root_of[span.parent]
        else:
            root_of[i] = i
    totals: dict[str, LayerTotals] = {}
    wall = unattributed = 0.0
    for i, span in enumerate(spans):
        scale = scale_of(root_of[i])
        self_s = (span.duration - child_time[i]) * scale
        if span.parent < 0:
            wall += span.duration * scale
            unattributed += self_s
            continue
        row = totals.setdefault(span.name, LayerTotals())
        row.calls += 1
        row.total_s += span.duration * scale
        row.self_s += self_s
        row.points += span.attrs.get("points", 0)
        if "hit" in span.attrs:
            row.hit_known += 1
            row.hits += span.attrs["hit"]
        if span.attrs.get("hp"):
            row.hp_points += span.attrs["points"]
            row.hp_s += span.duration * scale
    return totals, wall, unattributed
