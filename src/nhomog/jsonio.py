"""JSON encoding shared by the CLI and file interfaces.

Complex numbers serialize as two-element arrays [re, im]; matrices as
row-major arrays of rows.  Each CLI command has one ``decode_*``
decoder that checks every field of its payload and returns typed
values, so a malformed payload is refused before any numerical work.
The ``calc`` and ``nspace`` decoders import the library types they build
when they run, so decoding a tuple loads neither ``calculus`` nor
``n_space``.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import ParseError, SchemaError
from .star_algebra import MatTuple

if TYPE_CHECKING:
    from .calculus import StarPolynomial
    from .n_space import EquivariantElement, FiniteNSpace

_NUMBER_TYPES = {int, float}


def encode_matrix(a) -> list[list[list[float]]]:
    m = np.asarray(a, dtype=complex)
    return np.stack([m.real, m.imag], -1).tolist()


def decode_complex(obj, where: str) -> complex:
    if type(obj) is not list or len(obj) != 2 or not set(map(type, obj)) <= _NUMBER_TYPES:
        raise SchemaError(f"{where}: a complex number must be a [re, im] pair, got {obj!r}")
    try:
        re, im = float(obj[0]), float(obj[1])
    except OverflowError:
        raise SchemaError(f"{where}: entry {obj!r} is too large for a float") from None
    if not (math.isfinite(re) and math.isfinite(im)):
        raise SchemaError(f"{where}: non-finite entry {obj!r}")
    return complex(re, im)


def decode_int(obj, where: str) -> int:
    """A count or size field: a JSON integer, returned as int.  Strings,
    null, booleans and every JSON float are rejected, 2.0 included, so a
    value is never truncated or coerced."""
    if not isinstance(obj, int) or isinstance(obj, bool):
        raise SchemaError(f"{where} must be an integer, got {obj!r}")
    return obj


def decode_list(obj, where: str) -> list:
    """A list field, returned as is; anything else is rejected."""
    if not isinstance(obj, list):
        raise SchemaError(f"{where} must be a list, got {obj!r}")
    return obj


def _object(obj, fields: tuple[str, ...], where: str) -> dict:
    """A JSON object holding every one of ``fields``."""
    if not isinstance(obj, dict) or not all(key in obj for key in fields):
        raise SchemaError(f"{where} must be an object with {', '.join(map(repr, fields))}")
    return obj


def _complex_array(obj, depth: int) -> np.ndarray | None:
    """The complex array of a payload nested ``depth`` lists deep around
    [re, im] pairs, or None if it is not one.  The payload is flattened
    level by level, each level checked to hold lists of one length, and
    the numbers' types are checked exactly, since numpy would turn true,
    "1.0" and null into floats; numpy then converts the flat list in one
    call, and finiteness is checked last."""
    nodes, shape = [obj], []
    for _ in range(depth + 1):
        if set(map(type, nodes)) != {list}:
            return None
        lengths = set(map(len, nodes))
        if len(lengths) != 1:
            return None
        shape.append(lengths.pop())
        nodes = list(chain.from_iterable(nodes))
    if shape[-1] != 2 or not set(map(type, nodes)) <= _NUMBER_TYPES:
        return None
    try:
        a = np.array(nodes, dtype=float)
    except OverflowError:
        return None
    if not np.isfinite(a).all():
        return None
    return a.reshape(shape).view(complex)[..., 0]


def decode_matrix(obj, where: str) -> np.ndarray:
    """A matrix payload as a complex array, converted by numpy in one
    call.  A payload the conversion refuses is walked only to name its
    first bad row or entry; the walk never accepts it."""
    m = _complex_array(obj, 2)
    if m is not None:
        return m
    if type(obj) is not list or not obj:
        raise SchemaError(f"{where}: a matrix must be a nonempty list of rows")
    width = len(obj[0]) if type(obj[0]) is list else None
    for r, row in enumerate(obj):
        if type(row) is not list or not row:
            raise SchemaError(f"{where}: row {r} must be a nonempty list")
        if len(row) != width:
            raise SchemaError(f"{where}: ragged rows (row {r} has {len(row)} entries, expected {width})")
        for v in row:
            decode_complex(v, f"{where}[{r}]")
    raise SchemaError(f"{where}: malformed matrix")


def _matrices(obj, where: str, counts: tuple[int | None, ...], n: int | None) -> np.ndarray:
    """A field of n x n matrices nested ``len(counts)`` lists deep, as one
    complex array of shape (*counts, n, n) from one ``_complex_array``
    call.  A count of None takes any length, and n = None the first
    matrix's row count.  A refused payload is walked only to name its
    first bad site, list by list and then shape by shape; the walk never
    accepts it."""
    a = _complex_array(obj, len(counts) + 2)
    if a is not None:
        side = a.shape[-2] if n is None else n
        if all(want in (None, got) for want, got in zip((*counts, side, side), a.shape)):
            return a
    elif obj == [] and counts[:1] == (None,):  # an empty list of anything
        return np.zeros((0, *counts[1:], n, n), dtype=complex)
    leaves = _leaves(obj, where, counts)
    side = leaves[0][1].shape[0] if n is None else n
    for at, m in leaves:
        if m.shape != (side, side):
            raise SchemaError(f"{at} has shape {m.shape}, expected ({side}, {side})")
    raise SchemaError(f"{where}: malformed values")


def _leaves(obj, where: str, counts: tuple[int | None, ...]) -> list[tuple[str, np.ndarray]]:
    """Each matrix of a field with its site, decoded one by one."""
    if not counts:
        return [(where, decode_matrix(obj, where))]
    if counts[0] not in (None, len(decode_list(obj, where))):
        raise SchemaError(f"{where} must have length {counts[0]}, got {len(obj)}")
    return [leaf for i, item in enumerate(obj) for leaf in _leaves(item, f"{where}[{i}]", counts[1:])]


def _fits(entries: int, where: str) -> None:
    """Refuse a size whose complex array numpy could not even address (one
    it can address but the host cannot hold raises MemoryError later)."""
    if entries > np.iinfo(np.intp).max // 16:
        raise SchemaError(f"{where}: {entries} complex entries do not fit in memory")


def load_json(path) -> dict:
    p = Path(path)
    try:
        data = p.read_bytes()
    except FileNotFoundError:
        raise ParseError(f"input file {p} does not exist") from None
    except OSError as exc:
        raise ParseError(f"{p}: cannot read the input file: {exc.strerror}") from exc
    try:
        return json.loads(data)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{p}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # undecodable bytes, too many digits, too deep
        raise ParseError(f"{p}: invalid JSON: {exc}") from exc


def decode_tuple(obj, where: str = "tuple") -> MatTuple:
    """The analyze and spectrum payload: {"generators": [matrix, ...]},
    with optional "d" and "k" checked against it."""
    gens = _object(obj, ("generators",), where)["generators"]
    if type(gens) is not list or not gens:
        raise SchemaError(f"{where}.generators must be a nonempty list of matrices")
    stack = _matrices(gens, f"{where}.generators", (None,), None)
    if "d" in obj and decode_int(obj["d"], f"{where}.d") != stack.shape[1]:
        raise SchemaError(f"{where}.d = {obj['d']} does not match matrix size {stack.shape[1]}")
    if "k" in obj and decode_int(obj["k"], f"{where}.k") != len(stack):
        raise SchemaError(f"{where}.k = {obj['k']} does not match generator count {len(stack)}")
    return MatTuple(stack)


def decode_calc_input(obj) -> tuple[MatTuple, StarPolynomial | None, list[np.ndarray] | None]:
    """The calc payload: {"tuple": ..., "polynomial": str} or {"tuple":
    ..., "table": {"values": [matrix, ...]}} -> (tuple, polynomial, None)
    or (tuple, None, table values).  The values' count and sizes depend
    on the tuple's classes, so ``OrbitTable`` checks them after the split."""
    from .calculus import StarPolynomial

    t = decode_tuple(_object(obj, ("tuple",), "calc input")["tuple"])
    if "polynomial" in obj:
        if type(obj["polynomial"]) is not str:
            raise SchemaError("'polynomial' must be a string")
        try:
            return t, StarPolynomial.parse(obj["polynomial"], t.k), None
        except ValueError as exc:
            raise SchemaError(f"polynomial: {exc}") from exc
    if "table" not in obj:
        raise SchemaError("calc input needs a 'polynomial' or 'table' field")
    values = decode_list(_object(obj["table"], ("values",), "table")["values"], "table.values")
    return t, None, [decode_matrix(v, f"table.values[{i}]") for i, v in enumerate(values)]


def decode_fn_algebra_input(obj) -> tuple[int, int, np.ndarray]:
    """The sw-check payload: {"points": int, "n": int, "generators":
    [[matrix per point], ...]} -> (points, n, a (k, points, n, n) stack);
    k may be 0."""
    _object(obj, ("points", "n", "generators"), "sw-check input")
    points, n = decode_int(obj["points"], "'points'"), decode_int(obj["n"], "'n'")
    if points < 1 or n < 1:
        raise SchemaError("'points' and 'n' must be positive")
    _fits(points * n * n, "'points' x 'n'^2")
    return points, n, _matrices(obj["generators"], "generators", (None, points), n)


def decode_haar_input(obj) -> np.ndarray:
    """The haar payload: {"matrix": square matrix}, with an optional "n"
    checked against it."""
    a = _matrices(_object(obj, ("matrix",), "haar input")["matrix"], "matrix", (), None)
    if "n" in obj and decode_int(obj["n"], "'n'") != len(a):
        raise SchemaError("'n' does not match the matrix size")
    return a


def decode_nspace_input(obj) -> tuple[FiniteNSpace, list[EquivariantElement], np.ndarray | None]:
    """The nspace payload: {"space": {"n": int, "orbits": int},
    "generators": [{"values": [matrix per orbit]}, ...], "rep": ...} ->
    (space, elements, rep images or None).  The rep images are an
    (orbits, n, n, n, n) stack: images[i][j][k] is the image of the
    (j, k) matrix unit supported on orbit i."""
    from .n_space import EquivariantElement, FiniteNSpace

    spec = _object(_object(obj, ("space",), "nspace input")["space"], ("n", "orbits"), "space")
    try:
        space = FiniteNSpace(n=decode_int(spec["n"], "space.n"), orbits=decode_int(spec["orbits"], "space.orbits"))
    except ValueError as exc:
        raise SchemaError(f"space: {exc}") from exc
    n, m = space.n, space.orbits
    if m == 0:  # the library's empty space; an input names at least one orbit
        raise SchemaError("space.orbits must be >= 1, got 0")
    _fits(m * n * n, "space.orbits x space.n^2")
    elements = []
    for i, g in enumerate(decode_list(obj.get("generators", []), "generators")):
        at = f"generators[{i}]"
        values = _object(g, ("values",), at)["values"]
        elements.append(EquivariantElement(space, _matrices(values, f"{at}.values", (m,), n)))
    rep = _matrices(obj["rep"], "rep", (m, n, n), n) if "rep" in obj else None
    return space, elements, rep


def dump_report(report: dict) -> str:
    """Canonical JSON: sorted keys, no whitespace variance, so identical
    inputs produce byte-identical reports."""
    return json.dumps(report, sort_keys=True, separators=(",", ":"))
