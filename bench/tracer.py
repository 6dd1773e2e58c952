"""Spans around calls into the library, recorded from outside it.

``Tracer.install`` replaces every public function of every ``hyperdeg``
module with a timing wrapper, at the module that defines it and at every
module that imported it by name (``hyperdeg.solver.field_summary`` as well
as ``hyperdeg.fields.field_summary``).  Spans are kept in memory as
``(id, name, start, end, parent, info)`` tuples, with a per-thread stack
giving each span its parent; ``uninstall`` restores the originals.

Chunk generators get two kinds of record: a zero-length ``sweep`` span where
the generator is created, and one ``.next`` span per chunk produced, which
nests under whatever span is consuming the chunks.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import threading
from time import perf_counter

# a recursive generator: wrapping its definition would time every level
EXCLUDED = {"subsets.iter_colex"}


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _solve_info(fn, args, kwargs, result):
    return {"iterations": result.iterations} if result is not None else None


def _exact_info(fn, args, kwargs, result):
    seq = _bound(fn, args, kwargs)["seq"]
    cap = math.comb(seq.n - 1, seq.r - 1)
    states = min(math.prod(d + 1 for d in seq.degrees),
                 math.prod(cap - d + 1 for d in seq.degrees))
    return {"dp_bound": states * math.comb(seq.n, seq.r)}


def _quadrature_info(fn, args, kwargs, result):
    return {"grid_points": result.grid_points} if result is not None else None


def _ratio_bounds_info(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    return {"pairs": math.comb(a["n"], a["r"]) ** 2}


def _prob_model_info(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    fallback = (
        result is not None and a["model"] == "T" and a["normalizer"] == "dp"
        and result.components.get("normalizer_method") != "dp"
    )
    return {"model": a["model"], "normalizer_fallback": fallback}


def _measured_ratio_info(fn, args, kwargs, result):
    return {"d_model": _bound(fn, args, kwargs)["d_model"]}


def _sample_batch_info(fn, args, kwargs, result):
    return {"samples": _bound(fn, args, kwargs)["count"]}


def _threads_info(fn, args, kwargs, result):
    return {"workers": result}


HOOKS = {
    "solver.solve": _solve_info,
    "oracle.exact_count": _exact_info,
    "oracle.cauchy_quadrature": _quadrature_info,
    "fields.check_weight_ratio_bounds": _ratio_bounds_info,
    "models.prob_model": _prob_model_info,
    "models.measured_ratio": _measured_ratio_info,
    "models.sample_degree_batch": _sample_batch_info,
    "parallel.resolve_threads": _threads_info,
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str):
        hook = HOOKS.get(name)
        spans, ids = self.spans, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            sid = next(ids)
            stack.append(sid)
            result = err = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                err = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                stack.pop()
                info = None
                if hook:
                    try:
                        info = hook(fn, args, kwargs, result)
                    except (TypeError, KeyError, AttributeError) as exc:
                        # the library's signature moved; keep the call, lose the counter
                        info = {"hook_error": type(exc).__name__}
                if err is not None:
                    info = dict(info or {}, error=err)
                spans.append((sid, name, start, end, parent, info))

        return traced

    def _wrap_generator(self, fn, name: str):
        spans, ids = self.spans, self._ids

        def chunks(it, sweep):
            while True:
                stack = self._stack()
                parent = stack[-1] if stack else None
                sid = next(ids)
                stack.append(sid)
                start = perf_counter()
                try:
                    chunk = next(it, None)
                finally:
                    end = perf_counter()
                    stack.pop()
                rows = 0 if chunk is None else len(chunk)
                spans.append((sid, name + ".next", start, end, parent,
                              {"rows": rows, "sweep": sweep}))
                if chunk is None:
                    return
                yield chunk

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sweep = next(ids)
            now = perf_counter()
            spans.append((sweep, name, now, now, stack[-1] if stack else None,
                          {"sweep": True}))
            return chunks(fn(*args, **kwargs), sweep)

        return traced

    def install(self, modules: dict) -> None:
        """Wrap public functions; ``modules`` maps short names to modules."""
        wrappers = {}
        for short, module in modules.items():
            for attr, obj in vars(module).items():
                name = f"{short}.{attr}"
                if (
                    attr.startswith("_") or name in EXCLUDED
                    or not inspect.isfunction(obj) or obj.__module__ != module.__name__
                ):
                    continue
                if inspect.isgeneratorfunction(obj):
                    wrappers[obj] = self._wrap_generator(obj, name)
                else:
                    wrappers[obj] = self._wrap(obj, name)
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
                    self._patched.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
