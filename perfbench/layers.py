"""Per-layer tracing of fockband from outside the package.

A layer is one package module.  ``Tracer.install`` replaces every public
function of a layer (module-level functions and the plain and static
methods of classes defined there) by a wrapper, at every module-level
name bound to it in the package: sibling imports such as
``radius.lam_min`` and the re-exports in ``fockband/__init__`` included.
Attribute lookups made at call time, like the deferred
``from .shorted import ando_complete``, then resolve to the wrapper too.
``Tracer.uninstall`` puts the originals back, so an untraced run executes
the package exactly as shipped.

A wrapper opens a span only when the call enters its layer from another
layer or from the benchmark; a call made while the innermost open span
already belongs to the same layer (``lam_min`` calling ``lam_max``, say)
is part of that span.  Spans are kept in memory as
``(name, start, end, parent, item)`` and written out by the caller when
the run ends.  A span's self time is its duration minus the time covered
by its child spans, which all belong to other layers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from dataclasses import dataclass, field
from time import perf_counter

PACKAGE = "fockband"
LAYERS = ("fock", "linalg", "radius", "shorted", "ensys", "dilation", "serialize", "cli")

#: linalg entries whose first argument is the operator whose rows ``eig_rows`` sums.
EIG_FUNCS = frozenset({"lam_min", "lam_max", "lam_max_vec", "psd_margin", "herm_eig",
                       "op_norm"})

#: fock entries that assemble a band or coupling operator.
BUILD_FUNCS = frozenset({"band_operator", "band_operator_sparse", "coupling_operator_sparse"})


@dataclass
class _Frame:
    layer: str
    name: str
    start: float
    index: int
    parent: int
    child_s: float = 0.0


@dataclass
class Recorder:
    """Open-span stack, finished spans and per-layer totals of one traced run."""

    spans: list = field(default_factory=list)
    stack: list = field(default_factory=list)
    calls: dict = field(default_factory=lambda: dict.fromkeys(LAYERS, 0))
    self_s: dict = field(default_factory=lambda: dict.fromkeys(LAYERS, 0.0))
    counts: dict = field(default_factory=lambda: dict.fromkeys(
        ("eig_rows", "band_rows", "joint_calls", "linalg_in_joint", "peel_steps",
         "bytes_out"), 0))
    item: int = -1
    joint_depth: int = 0

    def open(self, layer: str, name: str) -> _Frame:
        parent = self.stack[-1].index if self.stack else -1
        frame = _Frame(layer, name, perf_counter(), len(self.spans), parent)
        self.spans.append(None)
        self.stack.append(frame)
        self.calls[layer] += 1
        if layer == "linalg" and self.joint_depth:
            self.counts["linalg_in_joint"] += 1
        return frame

    def close(self, frame: _Frame) -> None:
        end = perf_counter()
        self.stack.pop()
        duration = end - frame.start
        self.self_s[frame.layer] += duration - frame.child_s
        if self.stack:
            self.stack[-1].child_s += duration
        self.spans[frame.index] = (f"{frame.layer}.{frame.name}", frame.start, end,
                                   frame.parent, self.item)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "item"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def _rows(obj) -> int:
    shape = getattr(obj, "shape", None)
    return int(shape[0]) if shape else 0


def _make_wrapper(rec: Recorder, layer: str, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.stack and rec.stack[-1].layer == layer:
            return fn(*args, **kwargs)
        frame = rec.open(layer, name)
        joint = name == "joint_numerical_radius"
        if joint:
            rec.counts["joint_calls"] += 1
            rec.joint_depth += 1
        try:
            result = fn(*args, **kwargs)
        finally:
            if joint:
                rec.joint_depth -= 1
            rec.close(frame)
        if name in EIG_FUNCS and layer == "linalg" and args:
            rec.counts["eig_rows"] += _rows(args[0])
        elif name in BUILD_FUNCS:
            rec.counts["band_rows"] += _rows(result)
        elif name == "ando_complete" and result.epsilon_used == 0.0:
            rec.counts["peel_steps"] += int(result.depth_used)
        elif name == "dumps_canonical":
            rec.counts["bytes_out"] += len(result.encode("utf-8"))
        return result
    return wrapper


def _method_targets(rec: Recorder, layer: str, cls) -> list:
    """(owner, attribute, original, wrapper) for the public plain and static methods."""
    targets = []
    for attr, raw in vars(cls).items():
        if attr.startswith("_"):
            continue
        if isinstance(raw, staticmethod):
            fn = _make_wrapper(rec, layer, f"{cls.__name__}.{attr}", raw.__func__)
            targets.append((cls, attr, raw, staticmethod(fn)))
        elif inspect.isfunction(raw):
            targets.append((cls, attr, raw,
                            _make_wrapper(rec, layer, f"{cls.__name__}.{attr}", raw)))
    return targets


class Tracer:
    """Installs and removes the layer wrappers around one ``Recorder``."""

    def __init__(self):
        self.rec = Recorder()
        self._targets = []  # (owner, attribute, original, wrapper)
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = _make_wrapper(self.rec, layer, name, obj)
                elif inspect.isclass(obj):
                    self._targets += _method_targets(self.rec, layer, obj)
        for mod_name in (PACKAGE, *(f"{PACKAGE}.{layer}" for layer in LAYERS)):
            mod = sys.modules[mod_name]
            for name, obj in vars(mod).items():
                if id(obj) in wrappers:
                    self._targets.append((mod, name, obj, wrappers[id(obj)]))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._targets:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._targets:
            setattr(owner, attr, original)
