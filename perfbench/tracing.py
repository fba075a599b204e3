"""In-memory span tracer that wraps functions from outside the traced package.

Every wrapped call is timed, and its self time -- its duration minus the part
of it that the wrapped calls it makes cover -- is worked out on the call
stack.  Per op and name, the tracer sums calls, seconds, self seconds,
potential evaluations (V-evals) and ``units`` (work counted from the call,
e.g. NRPT scans or tour steps).

Calls of a wrapper made with ``record=True`` are also kept as spans: name,
start, end, parent (the nearest recorded caller), op id, self time, V-evals,
units and ``tag`` (a property of the input, e.g. the grid size).  Spans live
in flat arrays and are written out once the traced op has ended.  The
per-V-eval functions are not recorded, since a traced run makes millions of
those calls; they are counted in the sums only.

Wrapping rebinds attributes: every loaded module of the traced package that
holds the original function gets the wrapper, so calls made through a
``from x import f`` binding are traced too.  ``restore`` puts every original
back, also when the traced code raised.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

import numpy as np

_COLUMNS = (("name_id", "i"), ("op", "i"), ("parent", "q"), ("start", "d"), ("end", "d"),
            ("self", "d"), ("v_evals", "q"), ("units", "d"), ("tag", "q"))
# Per op and name: calls, seconds, self seconds, V-evals, units.
CALLS, SECONDS, SELF, V_EVALS, UNITS = range(5)


class Tracer:
    """Times nested calls of wrapped callables on one thread.

    Use as a context manager: wrapped attributes are restored on exit.  Set
    ``op_id`` before each traced op; sums and spans are kept per op id.
    """

    def __init__(self, package: str = "nrst", clock=perf_counter):
        self.package = package
        self.clock = clock
        self.names: list = []
        self.cols = {name: array(code) for name, code in _COLUMNS}
        self.totals: dict = {}  # op id -> name -> [calls, s, self s, V-evals, units]
        self._op_totals: dict = {}
        self._op_id = 0
        self._stack = [[-1, 0.0]]  # per active call: nearest recorded span, child seconds
        self._v_count = 0
        self._saved: list = []

    @property
    def op_id(self) -> int:
        return self._op_id

    @op_id.setter
    def op_id(self, value: int) -> None:
        self._op_id = value
        self._op_totals = self.totals.setdefault(value, {})

    def wrap_function(self, module_name: str, attr: str, name: str, **how) -> None:
        """Wrap ``module.attr`` and every other package binding of the same object."""
        original = getattr(sys.modules[module_name], attr)
        wrapper = self._make_wrapper(original, name, **how)
        prefix = self.package + "."
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == self.package or mod_name.startswith(prefix)):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._rebind(mod, key, wrapper)

    def wrap_method(self, cls: type, attr: str, name: str, **how) -> None:
        """Wrap a function or classmethod defined in ``cls`` itself."""
        raw = vars(cls)[attr]
        if isinstance(raw, classmethod):
            wrapper = classmethod(self._make_wrapper(raw.__func__, name, **how))
        else:
            wrapper = self._make_wrapper(raw, name, **how)
        self._rebind(cls, attr, wrapper)

    def _rebind(self, owner, attr, wrapper):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put back every wrapped attribute, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def _make_wrapper(self, fn, name, *, units=None, tag=None, counts_v_eval=False,
                      record=True):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        tracer, stack, clock, c = self, self._stack, self.clock, self.cols
        bump = 1 if counts_v_eval else 0

        def wrapper(*args, **kwargs):
            if record:
                i = len(c["start"])
                for col, value in (("name_id", nid), ("op", tracer._op_id),
                                   ("parent", stack[-1][0]), ("start", 0.0), ("end", 0.0),
                                   ("self", 0.0), ("v_evals", 0), ("units", 0.0), ("tag", 0)):
                    c[col].append(value)
            else:
                i = stack[-1][0]
            frame = [i, 0.0]
            stack.append(frame)
            v0 = tracer._v_count
            tracer._v_count = v0 + bump
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                stack[-1][1] += t1 - t0
            v = tracer._v_count - v0
            own = (t1 - t0) - frame[1]
            u = units(args, kwargs, result) if units is not None else 0.0
            tot = tracer._op_totals.get(name)
            if tot is None:
                tot = tracer._op_totals[name] = [0, 0.0, 0.0, 0, 0.0]
            tot[CALLS] += 1
            tot[SECONDS] += t1 - t0
            tot[SELF] += own
            tot[V_EVALS] += v
            tot[UNITS] += u
            if record:
                c["start"][i], c["end"][i], c["self"][i] = t0, t1, own
                c["v_evals"][i], c["units"][i] = v, u
                if tag is not None:
                    c["tag"][i] = tag(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def spans(self) -> dict:
        """Copies of the recorded span columns, plus the name table."""
        out = {name: np.array(col) for name, col in self.cols.items()}
        out["names"] = np.array(self.names, dtype=str)
        return out

    def summed(self, name: str) -> list:
        """[calls, seconds, self seconds, V-evals, units] of ``name`` over all ops."""
        out = [0, 0.0, 0.0, 0, 0.0]
        for per_op in self.totals.values():
            for k, value in enumerate(per_op.get(name, ())):
                out[k] += value
        return out
