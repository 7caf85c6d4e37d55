"""Per-layer tracing from outside the engine.

Wraps the public boundary functions of each ``intcat`` module in every
``intcat.*`` namespace that binds them (modules import each other with
``from .ambient import pullback``, which copies the binding), records calls,
inclusive time and self time, and restores the originals afterwards.
Python call counts per module come from a separate ``cProfile`` pass.
"""

from __future__ import annotations

import cProfile
import importlib
import sys
import time
from pathlib import Path

BOUNDARIES = {
    "ambient": ("family_space", "enumerate_maps", "elements_category",
                "pullback", "exponential", "IndexCategory.poset"),
    "core": ("make_internal_category", "restrict_cat",
             "validate_internal_category", "enumerate_functors",
             "adjunction_check"),
    "functor_cat": ("exponential_cat", "diagonal_functor"),
    "limits": ("cones_category", "cocones_category", "comma_category",
               "universal_cone", "universal_cocone", "is_internal_terminal",
               "transport_certificate", "limit_functor"),
    "theorems": ("aft_left_adjoint", "galois_oracle",
                 "lattice_completeness_check", "colimit_via_duality",
                 "is_continuous"),
    "fixtures": ("all_lattices", "monotone_maps", "meet_preserving_maps"),
    "formats": ("parse_document", "emit_document"),
    "runner": ("run_document", "render_machine"),
}
PY_CALL_MODULES = tuple(BOUNDARIES) + ("labels",)


def _stage_total(presheaf) -> int:
    return sum(len(v) for v in presheaf.carrier.values())


def _done(measure):
    return lambda result, error: 0 if error is not None else measure(result)


def _size_counters() -> dict:
    """Size counters by boundary: (counter name, measure(result, error))."""
    from intcat.limits import Refusal, RefusalError
    return {
        "ambient.family_space": ("families", _done(len)),
        "ambient.elements_category": (
            "arrows", _done(lambda r: len(r[0].arrows))),
        "core.make_internal_category": (
            "arrows", _done(lambda r: _stage_total(r.arr))),
        "functor_cat.exponential_cat": (
            "objects", _done(lambda r: _stage_total(r.cat.obj))),
        "limits.cones_category": (
            "objects", _done(lambda r: _stage_total(r.cat.obj))),
        "limits.comma_category": (
            "objects", _done(lambda r: _stage_total(r.cat.obj))),
        "limits.universal_cone": (
            "refusals", _done(lambda r: int(isinstance(r, Refusal)))),
        "theorems.aft_left_adjoint": (
            "refusals", lambda r, e: int(isinstance(e, RefusalError))),
        "runner.run_document": ("refused", _done(
            lambda r: sum(t["outcome"] == "refused" for t in r["tasks"]))),
    }


class Tracer:
    """Installs counting and timing wrappers; use as a context manager."""

    def __init__(self):
        self.calls = {}
        self.incl = {}
        self.self_s = {}
        self.sizes = {}
        self.built = 0        # monotone maps built inside meet_preserving_maps
        self.kept = 0
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn, measure):
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            tracer._stack.append(frame)
            result, error = None, None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                took = time.perf_counter() - start
                tracer._stack.pop()
                tracer.calls[name] += 1
                tracer.incl[name] += took
                tracer.self_s[name] += took - frame[1]
                if tracer._stack:
                    tracer._stack[-1][1] += took
                tracer._count(name, result, error, measure)
        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name, result, error, measure):
        if measure is not None:
            key, fn = measure
            self.sizes[key] += fn(result, error)
        if error is None and name == "fixtures.monotone_maps" and self._stack \
                and self._stack[-1][0] == "fixtures.meet_preserving_maps":
            self.built += len(result)
        if error is None and name == "fixtures.meet_preserving_maps":
            self.kept += len(result)

    def __enter__(self):
        for module in PY_CALL_MODULES + ("cli",):
            importlib.import_module(f"intcat.{module}")
        from intcat.ambient import IndexCategory
        measures = {b: (f"{b}.{c}", fn) for b, (c, fn) in _size_counters().items()}
        self.sizes = dict.fromkeys((key for key, _ in measures.values()), 0)
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "intcat" or n.startswith("intcat.")]
        for module, funcs in BOUNDARIES.items():
            for func in funcs:
                name = f"{module}.{func}"
                self.calls[name], self.incl[name], self.self_s[name] = 0, 0.0, 0.0
                if func == "IndexCategory.poset":
                    orig = IndexCategory.__dict__["poset"]
                    IndexCategory.poset = staticmethod(
                        self._wrap(name, orig.__func__, None))
                    self._restore.append((IndexCategory, "poset", orig))
                    continue
                orig = getattr(sys.modules[f"intcat.{module}"], func)
                wrapped = self._wrap(name, orig, measures.get(name))
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is orig:
                            setattr(ns, attr, wrapped)
                            self._restore.append((ns, attr, orig))
        return self

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()
        return False

    def metrics(self) -> dict:
        out = {}
        for name in self.calls:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.s"] = (self.incl[name], "s")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        for key, value in self.sizes.items():
            out[key] = (value, "count")
        out["fixtures.meet_preserving_maps.kept_ratio"] = (
            self.kept / self.built if self.built else 0.0, "ratio")
        return out


def py_calls(work) -> dict:
    """Python function calls made in each engine module while ``work()``
    runs, from a ``cProfile`` pass.

    Counts are summed over the profiler's raw entries, one per code object.
    ``pstats`` keys entries by (file, line, name) and keeps only one of a
    nested comprehension and the comprehension on its line, which one
    depending on memory layout.
    """
    import intcat
    pkg = Path(intcat.__file__).resolve().parent
    files = {str(pkg / f"{m}.py"): m for m in PY_CALL_MODULES}
    prof = cProfile.Profile()
    prof.enable()
    try:
        work()
    finally:
        prof.disable()
    counts = dict.fromkeys(PY_CALL_MODULES, 0)
    for entry in prof.getstats():
        if isinstance(entry.code, str):         # a built-in function
            continue
        module = files.get(str(Path(entry.code.co_filename).resolve()))
        if module is not None:
            counts[module] += entry.callcount
    return {f"{m}.py_calls": (n, "count") for m, n in counts.items()}
