"""Fuzz of every CLI command: small valid payloads with their types,
lengths, nesting and numbers mutated, run through ``cli.main`` in
process.  Whatever the payload, the run ends in one documented exit code
and nothing raises out of ``main``: exit 0 or 1 with an empty stderr,
exit 2 with one ``nhomog: input error:`` line, exit 3 with one
``nhomog: numerical failure:`` or ``nhomog: error:`` line."""

import io
import json
import math
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from nhomog import cli
from nhomog.jsonio import encode_matrix

from conftest import SX, SZ

ZERO, EYE = encode_matrix(np.zeros((2, 2))), encode_matrix(np.eye(2))
X, Z = encode_matrix(SX), encode_matrix(SZ)
UNITS = [[encode_matrix(np.outer(np.eye(2)[j], np.eye(2)[k])) for k in range(2)] for j in range(2)]
# one valid payload per command and payload shape, with its flags
VALID = {
    "analyze": ({"d": 2, "k": 2, "generators": [X, Z]}, ["--n", "2"]),
    "spectrum": ({"generators": [X, Z]}, ["--n", "2"]),
    "calc polynomial": ({"tuple": {"generators": [X, Z]}, "polynomial": "2*z1*z2' + 1"}, ["--n", "2"]),
    "calc table": ({"tuple": {"generators": [X, Z]}, "table": {"values": [EYE]}}, []),
    "sw-check": ({"points": 2, "n": 2, "generators": [[X, X], [Z, EYE]]}, []),
    "haar": ({"n": 2, "matrix": X}, ["--samples", "1000"]),
    "nspace": ({"space": {"n": 2, "orbits": 2}, "generators": [{"values": [X, ZERO]}],
                "rep": [[[ZERO, ZERO], [ZERO, ZERO]], UNITS]}, []),
}
# what a node may be replaced by: other types, numbers outside every
# range, and floats where an integer is expected
SCALARS = [True, False, None, "x", "", 1.5, 2.0, 0, -1, 3, 10**400, -(10**400), math.nan, math.inf, 1e308,
           1e-320, [], {}]


def sites(node, path=()):
    """Every path into the payload tree, the root first."""
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from sites(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from sites(child, path + (i,))


def get(node, path):
    for key in path:
        node = node[key]
    return node


def mutated(node, kind, value):
    """``node`` with one mutation: replaced by ``value``, or, for a list,
    emptied, shortened, lengthened, nested one level deeper, unwrapped
    to its first item, or made ragged by dropping one item's last entry."""
    if kind == "replace" or not isinstance(node, list) or not node:
        return value
    if kind == "empty":
        return []
    if kind == "shorten":
        return node[:-1]
    if kind == "lengthen":
        return node + node[-1:]
    if kind == "nest":
        return [node]
    if kind == "unwrap":
        return node[0]
    ragged = list(node)
    if isinstance(ragged[-1], list) and ragged[-1]:
        ragged[-1] = ragged[-1][:-1]
    return ragged


KINDS = ["replace", "empty", "shorten", "lengthen", "nest", "unwrap", "ragged"]


@st.composite
def fuzzed_runs(draw):
    name = draw(st.sampled_from(sorted(VALID)))
    payload, flags = VALID[name]
    payload = json.loads(json.dumps(payload))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(sites(payload))))
        node = mutated(get(payload, path), draw(st.sampled_from(KINDS)), draw(st.sampled_from(SCALARS)))
        if not path:
            payload = node
        else:
            get(payload, path[:-1])[path[-1]] = node
    return name.split()[0], payload, flags


@pytest.fixture(scope="module")
def in_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.json"


def run_main(command, payload, flags, in_path):
    """Exit code, stdout and stderr lines of one in-process run; warnings
    count as stderr lines, since outside a test runner they print there."""
    in_path.write_text(json.dumps(payload))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main([command, "--in", str(in_path), "--seed", "0", *flags])
    return code, out.getvalue(), err.getvalue().splitlines() + [str(w.message) for w in caught]


def not_json(constant):
    raise AssertionError(f"{constant} in the report")


BIG = [[1e308, 0.0], [1.0, 0.0]]
DIAG = {"generators": [encode_matrix(np.diag([1.0, 2.0, 3.0]))]}


@settings(max_examples=800, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(fuzzed_runs())
# faults found by this test or reported before it, each mended at its cause:
# a splitter bound overflowed (warning on stderr, and a vacuous check)
@example(("analyze", {"generators": [[BIG, [[1.0, 0.0], [0.0, 0.0]]], Z]}, ["--n", "2"]))
# the Monte-Carlo sum overflowed into NaN and Infinity in the report
@example(("haar", {"matrix": [[[0.0, 0.0], [1.0, 0.0]], BIG]}, ["--samples", "1000"]))
# the star-hom check took an SVD of an overflowed matrix: LinAlgError
@example(("nspace", {"space": {"n": 1, "orbits": 1}, "rep": [[[[[[1.0, 1e308]]]]]]}, []))
# calc payload faults were found only after the split, which exits 1 first
@example(("calc", {"tuple": DIAG}, ["--n", "2"]))
@example(("calc", {"tuple": DIAG, "polynomial": 7}, ["--n", "2"]))
# sizes no array can hold: a traceback, or a loop over 10**400 orbits
@example(("sw-check", {"points": 10**400, "n": 1, "generators": []}, []))
@example(("nspace", {"space": {"n": 1, "orbits": 10**400}}, []))
# 64 orbits of 64 x 64 matrices and no generators: a 1 TiB identity was sliced
@example(("nspace", {"space": {"n": 64, "orbits": 64}}, []))
def test_every_run_ends_in_one_documented_exit_code(in_path, run):
    code, out, err = run_main(*run, in_path)
    if code in (0, 1):
        assert err == []
        json.loads(out, parse_constant=not_json)  # one canonical JSON report, no NaN or Infinity
    elif code == 2:
        assert len(err) == 1 and err[0].startswith("nhomog: input error:"), err
    else:
        assert code == 3 and len(err) == 1, (code, err)
        assert err[0].startswith(("nhomog: numerical failure:", "nhomog: error:")), err


@pytest.mark.parametrize("name", sorted(VALID))
def test_valid_payloads_succeed(in_path, name):
    payload, flags = VALID[name]
    code, out, err = run_main(name.split()[0], payload, flags, in_path)
    assert code in (0, 1) and err == []
    json.loads(out, parse_constant=not_json)
