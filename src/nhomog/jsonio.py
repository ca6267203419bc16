"""JSON encoding shared by the CLI and file interfaces.

Complex numbers serialize as two-element arrays [re, im]; matrices as
row-major arrays of rows.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import ParseError, SchemaError
from .n_space import EquivariantElement, FiniteNSpace
from .star_algebra import MatTuple

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
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object with a 'generators' field")
    gens = obj.get("generators")
    if not isinstance(gens, list) or not gens:
        raise SchemaError(f"{where}.generators must be a nonempty list of matrices")
    mats = [decode_matrix(g, f"{where}.generators[{i}]") for i, g in enumerate(gens)]
    d = mats[0].shape[0]
    for i, m in enumerate(mats):
        if m.shape != (d, d):
            raise SchemaError(f"{where}.generators[{i}] has shape {m.shape}, expected ({d}, {d})")
    if "d" in obj and decode_int(obj["d"], f"{where}.d") != d:
        raise SchemaError(f"{where}.d = {obj['d']} does not match matrix size {d}")
    if "k" in obj and decode_int(obj["k"], f"{where}.k") != len(mats):
        raise SchemaError(f"{where}.k = {obj['k']} does not match generator count {len(mats)}")
    return MatTuple(mats)


def decode_space(obj, where: str = "space") -> FiniteNSpace:
    if not isinstance(obj, dict) or "n" not in obj or "orbits" not in obj:
        raise SchemaError(f"{where}: expected an object with 'n' and 'orbits'")
    try:
        space = FiniteNSpace(n=decode_int(obj["n"], f"{where}.n"),
                             orbits=decode_int(obj["orbits"], f"{where}.orbits"))
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc
    if space.orbits == 0:  # the library's empty space; an input names at least one orbit
        raise SchemaError(f"{where}.orbits must be >= 1, got 0")
    return space


def decode_element(obj, space: FiniteNSpace, where: str = "element") -> EquivariantElement:
    if not isinstance(obj, dict) or "values" not in obj:
        raise SchemaError(f"{where}: expected an object with a 'values' field")
    vals = obj["values"]
    if not isinstance(vals, list) or len(vals) != space.orbits:
        raise SchemaError(f"{where}.values must list one matrix per orbit ({space.orbits})")
    mats = [decode_matrix(v, f"{where}.values[{i}]") for i, v in enumerate(vals)]
    for i, m in enumerate(mats):
        if m.shape != (space.n, space.n):
            raise SchemaError(f"{where}.values[{i}] has shape {m.shape}, expected ({space.n}, {space.n})")
    return EquivariantElement(space, mats)


def decode_fn_algebra_input(obj) -> tuple[int, int, list[np.ndarray]]:
    """The sw-check payload: {"points": int, "n": int, "generators":
    [[matrix per point], ...]} -> (points, n, generator functions)."""
    if not isinstance(obj, dict):
        raise SchemaError("sw-check input must be a JSON object")
    for key in ("points", "n", "generators"):
        if key not in obj:
            raise SchemaError(f"sw-check input is missing the '{key}' field")
    points, n = decode_int(obj["points"], "'points'"), decode_int(obj["n"], "'n'")
    if points < 1 or n < 1:
        raise SchemaError("'points' and 'n' must be positive")
    gens_obj = obj["generators"]
    if not isinstance(gens_obj, list):
        raise SchemaError("'generators' must be a list of functions")
    gens = []
    for gi, fn in enumerate(gens_obj):
        if not isinstance(fn, list) or len(fn) != points:
            raise SchemaError(f"generators[{gi}] must list one matrix per point ({points})")
        values = _complex_array(fn, 3)
        if values is None or values.shape != (points, n, n):
            mats = [decode_matrix(m, f"generators[{gi}][{p}]") for p, m in enumerate(fn)]
            for p, m in enumerate(mats):
                if m.shape != (n, n):
                    raise SchemaError(f"generators[{gi}][{p}] has shape {m.shape}, expected ({n}, {n})")
            raise SchemaError(f"generators[{gi}]: malformed values")
        gens.append(values)
    return points, n, gens


def decode_rep_images(obj, space: FiniteNSpace, where: str = "rep") -> np.ndarray:
    """Representation payload: images[i][j][k] is the image matrix of the
    (j, k) matrix unit supported on orbit i."""
    n, m = space.n, space.orbits
    if not isinstance(obj, list) or len(obj) != m:
        raise SchemaError(f"{where} must list one unit table per orbit ({m})")
    images = np.zeros((m, n, n, n, n), dtype=complex)
    for i, per_orbit in enumerate(obj):
        if not isinstance(per_orbit, list) or len(per_orbit) != n:
            raise SchemaError(f"{where}[{i}] must have {n} rows of unit images")
        for j, row in enumerate(per_orbit):
            if not isinstance(row, list) or len(row) != n:
                raise SchemaError(f"{where}[{i}][{j}] must have {n} unit images")
            for k, mat in enumerate(row):
                img = decode_matrix(mat, f"{where}[{i}][{j}][{k}]")
                if img.shape != (n, n):
                    raise SchemaError(f"{where}[{i}][{j}][{k}] has shape {img.shape}")
                images[i, j, k] = img
    return images


def dump_report(report: dict) -> str:
    """Canonical JSON: sorted keys, no whitespace variance, so identical
    inputs produce byte-identical reports."""
    return json.dumps(report, sort_keys=True, separators=(",", ":"))
