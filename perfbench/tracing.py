"""Span tracing of nhomog's layers from outside the package.

``install`` wraps the public functions listed in ``TRACED`` in every
``nhomog`` module namespace that binds them (modules import one another's
functions by name, so patching the defining module alone would miss
calls), plus ``numpy.linalg.svd``, ``eigh`` and ``eigvalsh``.  Each call
records one span (name, start, end, parent span, operation id) in
memory; ``Tracer.summary`` turns the spans of the traced operations into
per-operation statistics, and ``Tracer.save`` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

# (module, attribute) -> span name.  Several decode entry points share
# one name: together they are the JSON decoding layer.
TRACED = {
    ("star_algebra", "intertwiner_space"): "star_algebra.intertwiner_space",
    ("star_algebra", "is_irreducible"): "star_algebra.is_irreducible",
    ("star_algebra", "word_span"): "star_algebra.word_span",
    ("star_algebra", "hermitian_basis"): "star_algebra.hermitian_basis",
    ("decomposition", "decompose"): "decomposition.decompose",
    ("decomposition", "unitarily_equivalent"): "decomposition.unitarily_equivalent",
    ("decomposition", "word_trace_fingerprint"): "decomposition.word_trace_fingerprint",
    ("calculus", "calc"): "calculus.calc",
    ("calculus", "n_measure_entry_mc"): "calculus.n_measure_entry_mc",
    ("jsonio", "load_json"): "jsonio.decode",
    ("jsonio", "decode_tuple"): "jsonio.decode",
    ("jsonio", "decode_fn_algebra_input"): "jsonio.decode",
    ("jsonio", "dump_report"): "jsonio.dump_report",
    ("sw_engine", "closure_star_subalgebra"): "sw_engine.closure_star_subalgebra",
    ("sw_engine", "density_check"): "sw_engine.density_check",
    ("sw_engine", "spectrally_separates"): "sw_engine.spectrally_separates",
    ("sw_engine", "point_fullness"): "sw_engine.point_fullness",
    ("sw_engine", "delta2_subspace"): "sw_engine.delta2_subspace",
    ("matrix_core", "normal_spectra_disjoint"): "matrix_core.normal_spectra_disjoint",
    ("matrix_core", "opnorm"): "matrix_core.opnorm",
    ("haar", "haar_unitaries"): "haar.haar_unitaries",
    ("haar", "equivariant_average"): "haar.equivariant_average",
}
LINALG = {"svd": "linalg.svd", "eigh": "linalg.eigh", "eigvalsh": "linalg.eigh"}
POINTREF_MAKE = "n_space.PointRef.make"

# Per-layer metrics: (span name, stat, unit).  ``s`` is seconds inside the
# call, ``self_s`` that minus the direct child spans, ``calls`` a count;
# ``matches``, ``certified``, ``max_elems`` and ``flops_est`` are counters
# kept by the wrappers.  All are per operation.
METRICS = [
    ("star_algebra.intertwiner_space", "calls", "count"),
    ("star_algebra.intertwiner_space", "s", "s"),
    ("linalg.svd", "calls", "count"),
    ("linalg.svd", "s", "s"),
    ("linalg.svd", "max_elems", "count"),
    ("linalg.svd", "flops_est", "flop"),
    ("decomposition.decompose", "self_s", "s"),
    ("decomposition.unitarily_equivalent", "calls", "count"),
    ("decomposition.unitarily_equivalent", "matches", "count"),
    ("decomposition.unitarily_equivalent", "s", "s"),
    ("decomposition.word_trace_fingerprint", "calls", "count"),
    ("decomposition.word_trace_fingerprint", "s", "s"),
    ("star_algebra.is_irreducible", "calls", "count"),
    ("star_algebra.is_irreducible", "s", "s"),
    ("star_algebra.word_span", "calls", "count"),
    ("star_algebra.word_span", "s", "s"),
    ("star_algebra.hermitian_basis", "s", "s"),
    ("calculus.calc", "s", "s"),
    ("jsonio.decode", "s", "s"),
    ("jsonio.dump_report", "s", "s"),
    ("sw_engine.closure_star_subalgebra", "s", "s"),
    ("sw_engine.density_check", "self_s", "s"),
    ("sw_engine.spectrally_separates", "calls", "count"),
    ("sw_engine.spectrally_separates", "certified", "count"),
    ("sw_engine.spectrally_separates", "s", "s"),
    ("sw_engine.point_fullness", "s", "s"),
    ("matrix_core.normal_spectra_disjoint", "calls", "count"),
    ("sw_engine.delta2_subspace", "s", "s"),
    ("haar.haar_unitaries", "s", "s"),
    ("haar.equivariant_average", "self_s", "s"),
    (POINTREF_MAKE, "calls", "count"),
    (POINTREF_MAKE, "s", "s"),
    ("calculus.n_measure_entry_mc", "s", "s"),
    ("matrix_core.opnorm", "calls", "count"),
    ("matrix_core.opnorm", "s", "s"),
    ("linalg.eigh", "calls", "count"),
    ("linalg.eigh", "s", "s"),
]


def svd_flops(shape, complex_dtype: bool, full_matrices: bool, compute_uv: bool) -> float:
    """Computed (not measured) flop count of a Golub-Reinsch SVD of an
    m x n matrix, m >= n, per Golub & Van Loan, "Matrix Computations",
    Fig. 8.6.1; complex arithmetic counts four real flops per flop, and
    stacked inputs multiply by the batch size."""
    *batch, m, n = shape
    m, n = max(m, n), min(m, n)
    if not compute_uv:
        flops = 4 * m * n * n - 4 * n ** 3 / 3
    elif full_matrices:
        flops = 4 * m * m * n + 8 * m * n * n + 9 * n ** 3
    else:
        flops = 14 * m * n * n + 8 * n ** 3
    return float(flops * (4 if complex_dtype else 1) * int(np.prod(batch, dtype=np.int64)))


class Tracer:
    """In-memory span store.  Spans nest by the call stack of one thread."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counters: dict[tuple[str, str], float] = {}
        self._stack: list[int] = []
        self.current_op = -1

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, name: str, stat: str, value: float = 1.0) -> None:
        key = (name, stat)
        self.counters[key] = self.counters.get(key, 0.0) + value

    def peak(self, name: str, stat: str, value: float) -> None:
        key = (name, stat)
        self.counters[key] = max(self.counters.get(key, 0.0), value)

    def wrap(self, fn, name: str, on_result=None):
        """``fn`` recording a span named ``name`` on every call;
        ``on_result(args, kwargs, result)`` updates counters."""
        name_id = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self.current_op)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    def summary(self, ops: int) -> dict[str, float]:
        """Per-operation value of every metric in ``METRICS`` over the
        spans of operations numbered 0 and up (``ops`` of them)."""
        name = np.frombuffer(self.name, dtype=np.int32)
        start = np.frombuffer(self.start)
        end = np.frombuffer(self.end)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        op = np.frombuffer(self.op, dtype=np.int32)
        dur = end - start
        # children of one span run one after another, so the part of a
        # span they cover is the sum of their durations
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - covered
        timed = op >= 0
        out = {}
        for span, stat, _ in METRICS:
            if stat in ("calls", "s", "self_s"):
                nid = self._ids.get(span, -1)
                sel = timed & (name == nid)
                value = {"calls": float(np.count_nonzero(sel)),
                         "s": float(dur[sel].sum()),
                         "self_s": float(self_time[sel].sum())}[stat]
            else:
                value = self.counters.get((span, stat), 0.0)
            if stat != "max_elems":
                value /= ops
            out[f"{span}.{stat}"] = value
        return out

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.name, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 op=np.frombuffer(self.op, dtype=np.int32))


def _counting(tracer: Tracer, name: str):
    """Counters for the spans that have them, or None."""
    if name == "decomposition.unitarily_equivalent":
        def on_result(args, kwargs, result):
            if tracer.current_op >= 0 and result is not None:
                tracer.count(name, "matches")
        return on_result
    if name == "sw_engine.spectrally_separates":
        def on_result(args, kwargs, result):
            if tracer.current_op >= 0 and result.certified:
                tracer.count(name, "certified")
        return on_result
    if name == "linalg.svd":
        def on_result(args, kwargs, result):
            if tracer.current_op < 0:
                return
            a = np.asarray(args[0] if args else kwargs["a"])
            full = args[1] if len(args) > 1 else kwargs.get("full_matrices", True)
            uv = args[2] if len(args) > 2 else kwargs.get("compute_uv", True)
            tracer.peak(name, "max_elems", float(a.size))
            tracer.count(name, "flops_est", svd_flops(a.shape, np.iscomplexobj(a), full, uv))
        return on_result
    return None


def install(tracer: Tracer) -> None:
    """Wrap every traced function in every loaded ``nhomog`` module that
    binds it, and the numpy.linalg entry points nhomog calls."""
    from nhomog import n_space

    for module, _ in TRACED:
        importlib.import_module(f"nhomog.{module}")
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == "nhomog" or key.startswith("nhomog."))]
    for (module, attr), name in TRACED.items():
        original = getattr(sys.modules[f"nhomog.{module}"], attr)
        wrapped = tracer.wrap(original, name, _counting(tracer, name))
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
    make = n_space.PointRef.__dict__["make"].__func__
    n_space.PointRef.make = classmethod(tracer.wrap(make, POINTREF_MAKE))
    for attr, name in LINALG.items():
        setattr(np.linalg, attr, tracer.wrap(getattr(np.linalg, attr), name, _counting(tracer, name)))
