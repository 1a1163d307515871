"""Per-layer tracing for the benchmark's traced run.

``Tracer.install`` replaces each public function listed in ``LAYERS``
with a wrapper, in every ``helmlab.*`` namespace that holds it (the
modules import each other's functions by name, so rebinding only the
defining module would let calls bypass the wrapper).  ``matmul`` is
``RatMatrix.__matmul__`` and ``cli.report`` is ``cli.main``: its self
time is ``main`` minus ``run_verification``, i.e. argument parsing, JSON
building and printing.

Each wrapped call is a span ``(name, start, end, parent, op)`` kept in
memory.  Self and total times are summed from a span stack: a span's
total excludes the tracer's own bookkeeping inside it, and its self time
further excludes its children's totals.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from collections import Counter
from fractions import Fraction
from time import perf_counter

import helmlab.cli
from helmlab import RatMatrix

LAYERS = {
    "exact_core": (
        "matmul",
        "rank",
        "determinant",
        "inverse",
        "solve",
        "rref",
        "null_space_basis",
        "pseudoinverse",
        "penrose_check",
        "inertia",
    ),
    "graphs": ("helm_distance_block", "bfs_distance_matrix", "build_helm"),
    "circulant": ("materialize", "circulant_product"),
    "closed_form": (
        "make_w_alpha",
        "make_odd_case",
        "make_even_case",
        "closed_form_inverse",
        "closed_form_mp_inverse",
    ),
    "characterization": (
        "check_equiv_formulation",
        "check_uniqueness",
        "check_conditions_i_vi",
        "build_kernel_projector",
        "schur_psd_check",
        "rank_l_check",
    ),
    "cli": ("run_verification", "report"),
}


def _original(module: str, fn: str):
    if fn == "matmul":
        return RatMatrix.__matmul__
    if fn == "report":
        return helmlab.cli.main
    return getattr(sys.modules[f"helmlab.{module}"], fn)


def _bits(value) -> int:
    """Largest numerator/denominator bit length among the Fractions in value."""
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    if isinstance(value, RatMatrix):
        return max((_bits(value.row(i)) for i in range(value.rows)), default=0)
    if isinstance(value, (tuple, list)):
        return max((_bits(x) for x in value), default=0)
    return 0


class Tracer:
    """Wraps the layer functions and keeps their spans and counters."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.total_s: Counter = Counter()
        self.matmul_mults = 0
        self.max_bits = 0
        self.op_id = -1
        # frames of open spans: [span index, start, children's total, bookkeeping]
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for module, fns in LAYERS.items():
            for fn in fns:
                original = _original(module, fn)
                observe = None
                if fn == "matmul":
                    observe = self._count_mults
                elif module == "exact_core":
                    observe = self._measure_bits
                wrappers[id(original)] = self._wrap(f"{module}.{fn}", original, observe)
        self._rebind(RatMatrix, "__matmul__", wrappers[id(RatMatrix.__matmul__)])
        for name, mod in list(sys.modules.items()):
            if name != "helmlab" and not name.startswith("helmlab."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._rebind(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _rebind(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn, observe):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._push(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._pop(frame)
                raise
            tracer._pop(frame, observe, args, result)
            return result

        return wrapper

    def _count_mults(self, args, result) -> None:
        a, b = args
        self.matmul_mults += a.rows * a.cols * b.cols
        self._measure_bits(args, result)

    def _measure_bits(self, args, result) -> None:
        self.max_bits = max(self.max_bits, _bits(result))

    # -- spans --------------------------------------------------------------

    def _push(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent, self.op_id))
        frame = [index, 0.0, 0.0, 0.0]
        self._stack.append(frame)
        frame[1] = perf_counter()
        return frame

    def _pop(self, frame: list, observe=None, args=(), result=None) -> None:
        end = perf_counter()
        index, start, children, bookkeeping = frame
        total = end - start - bookkeeping
        name, _, _, parent, op = self.spans[index]
        self.spans[index] = (name, start, end, parent, op)
        self.calls[name] += 1
        self.total_s[name] += total
        self.self_s[name] += total - children
        if observe is not None:
            observe(args, result)
        self._stack.pop()
        if self._stack:
            outer = self._stack[-1]
            outer[2] += total
            outer[3] += bookkeeping + (perf_counter() - end)

    @contextlib.contextmanager
    def op(self, op_id: int):
        """One op: a root span that the op's calls share as their op id."""
        self.op_id = op_id
        frame = self._push("op")
        try:
            yield
        finally:
            self._pop(frame)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")

    # -- per-layer metrics ----------------------------------------------------

    def metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-op layer metrics: ``name -> (value, unit)``."""
        out: dict[str, tuple[float, str]] = {}
        for module, fns in LAYERS.items():
            for fn in fns:
                name = f"{module}.{fn}"
                out[f"{name}.calls"] = (self.calls[name] / ops, "count")
                out[f"{name}.self_s"] = (self.self_s[name] / ops, "s")
                out[f"{name}.total_s"] = (self.total_s[name] / ops, "s")
            rollup = sum(self.self_s[f"{module}.{fn}"] for fn in fns)
            out[f"{module}.self_s"] = (rollup / ops, "s")
        out["exact_core.matmul.mults"] = (self.matmul_mults / ops, "count")
        out["exact_core.max_bits"] = (self.max_bits, "bits")
        return out

