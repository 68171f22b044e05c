"""Outside-in tracing of the library layers the CLI calls.

``Tracer`` replaces each listed public function at every binding in a
``res112`` module (the defining module, the modules that import it by name,
the package namespace) by one wrapper that records a span, and puts the
original objects back on exit.  Nothing inside ``src`` changes.

A span is (id, parent id, name, op id, start, end, raised, note).  The note
is the argument key for functions whose distinct-argument ratio is reported
and the flag state of ``classify_fiber``'s report.  The program is single
process and single threaded, so no layer waits for another: self and total
times are all the time there is.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# label -> (module, function, what the span's note records)
TARGETS = {
    "bifurcations.a0_root": ("res112.bifurcations", "a0_root", "args"),
    "bifurcations.catalog_point": ("res112.bifurcations", "catalog_point", None),
    "bifurcations.solve_bifurcations_numeric":
        ("res112.bifurcations", "solve_bifurcations_numeric", None),
    "critical_values.critical_slice": ("res112.critical_values", "critical_slice", None),
    "critical_values.thread_segments": ("res112.critical_values", "thread_segments", "args"),
    "critical_values.minimum_crossing_loci":
        ("res112.critical_values", "minimum_crossing_loci", None),
    "critical_values.classify_fiber": ("res112.critical_values", "classify_fiber", "flags"),
    "reduced_dynamics.h_min": ("res112.reduced_dynamics", "h_min", None),
    "reduced_dynamics.equilibria": ("res112.reduced_dynamics", "equilibria", None),
    "reduced_space.tip_class": ("res112.reduced_space", "tip_class", None),
    "monodromy.rotation_numbers": ("res112.monodromy", "rotation_numbers", None),
    "monodromy.monodromy_vector": ("res112.monodromy", "monodromy_vector", None),
    "monodromy.generator_loop": ("res112.monodromy", "generator_loop", None),
}
OP = "cli"


def res112_bindings() -> dict[tuple[str, str], object]:
    """Every (module, attribute) -> object binding of the loaded res112 modules."""
    return {(name, attr): val
            for name, mod in list(sys.modules.items())
            if name == "res112" or name.startswith("res112.")
            for attr, val in list(vars(mod).items())}


class Tracer:
    """Context manager: wraps TARGETS on enter, restores them on exit."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._op: int | None = None
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self):
        wrappers = {}
        for label, (module, func, note) in TARGETS.items():
            original = getattr(importlib.import_module(module), func)
            wrappers[id(original)] = (original, self._wrap(label, original, note))
        for (name, attr), val in res112_bindings().items():
            hit = wrappers.get(id(val))
            if hit is not None and hit[0] is val:
                module = sys.modules[name]
                self._patched.append((module, attr, val))
                setattr(module, attr, hit[1])
        return self

    def __exit__(self, *exc):
        for module, attr, val in reversed(self._patched):
            setattr(module, attr, val)
        self._patched.clear()
        return False

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _wrap(self, label, fn, note_kind):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._new_id()
            parent = stack[-1] if stack else 0
            stack.append(sid)
            raised, note = False, None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if note_kind == "flags":
                    note = bool(result.flags)
                return result
            except BaseException:
                raised = True
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                if note_kind == "args":
                    note = repr((args, sorted(kwargs.items())))
                spans.append((sid, parent, label, self._op, t0, t1, raised, note))

        return wrapper

    def start_op(self, op_id: int) -> None:
        self._op = op_id
        self._op_span = (self._new_id(), perf_counter())
        self._stack.append(self._op_span[0])

    def end_op(self) -> None:
        sid, t0 = self._op_span
        self._stack.pop()
        self.spans.append((sid, 0, OP, self._op, t0, perf_counter(), False, None))
        self._op = None


def summarize(spans) -> dict[str, dict]:
    """Per label: calls, raised, self_s, total_s and the notes seen.

    Self time is a span's duration minus that of its direct children; total
    time sums only the outermost span of a label, so recursion is not
    counted twice.
    """
    by_id = {s[0]: s for s in spans}
    child_s: dict[int, float] = {}
    for sid, parent, _, _, t0, t1, _, _ in spans:
        if parent:
            child_s[parent] = child_s.get(parent, 0.0) + (t1 - t0)
    out: dict[str, dict] = {}
    for sid, parent, label, _, t0, t1, raised, note in spans:
        rec = out.setdefault(label, {"calls": 0, "raised": 0, "self_s": 0.0,
                                     "total_s": 0.0, "notes": []})
        dur = t1 - t0
        rec["calls"] += 1
        rec["raised"] += raised
        rec["self_s"] += dur - child_s.get(sid, 0.0)
        rec["notes"].append(note)
        up = parent
        while up and by_id[up][2] != label:
            up = by_id[up][1]
        if not up:
            rec["total_s"] += dur
    return out
